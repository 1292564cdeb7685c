"""Command-line interface: JSON reports, CSV output, exit codes."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import doublewell
from doublewell.cli import main
from genspecs import EXAMPLE_SPEC

EXACT_E0 = 0.24999999823189692
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

# Resolves a declared entry point and calls it the way an installer's generated
# console-script wrapper does. argv: script name, entry-point value, arguments.
CONSOLE_SCRIPT_WRAPPER = """
import sys
from importlib.metadata import EntryPoint
name, value, *args = sys.argv[1:]
main = EntryPoint(name, value, "console_scripts").load()
sys.argv = [name, *args]
sys.exit(main())
"""


def child_env():
    """Environment whose PYTHONPATH finds the doublewell package imported here,
    so a child interpreter runs the same code without an install."""
    src = str(Path(doublewell.__file__).resolve().parents[1])
    rest = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + rest if rest else "")}


def spec_text(**overrides):
    fields = {
        "hbar": EXAMPLE_SPEC.hbar,
        "mass": EXAMPLE_SPEC.mass,
        "v_m4": EXAMPLE_SPEC.v_m4,
        "v_m2": EXAMPLE_SPEC.v_m2,
        "v_0": EXAMPLE_SPEC.v_0,
        "v_2": EXAMPLE_SPEC.v_2,
        "v_4": EXAMPLE_SPEC.v_4,
        "w_m2": EXAMPLE_SPEC.w_m2,
        "w_0": EXAMPLE_SPEC.w_0,
        "w_2": EXAMPLE_SPEC.w_2,
    }
    fields.update(overrides)
    return "".join(f"{key} = {value!r}\n" for key, value in fields.items())


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "example.spec"
    path.write_text(spec_text())
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_report_structure_and_values(self, capsys, spec_file):
        code, out, err = run_cli(capsys, "solve", spec_file)
        assert code == 0
        report = json.loads(out)
        assert list(report) == [
            "spec", "reduced", "wells", "coupling", "ground", "excited", "splitting",
        ]
        assert report["spec"]["mass"] == 2.0
        assert report["reduced"]["alpha_m1"] == pytest.approx(0.75, rel=1e-12)
        assert report["wells"]["left"]["a"] == pytest.approx(18.137993642342177, rel=1e-12)
        assert report["coupling"]["p"] == pytest.approx(2.5970018180765213, rel=1e-12)
        assert report["ground"]["prob_left"] == 0.5
        assert report["excited"]["prob_right"] == 0.5
        assert report["splitting"]["e_bar"] == pytest.approx(0.25, rel=1e-12)
        assert report["splitting"]["delta_e"] == pytest.approx(
            1.7681030756044489e-09, rel=1e-9
        )
        assert err == ""

    def test_float_fields_round_trip_losslessly(self, capsys, spec_file):
        code, out, _ = run_cli(capsys, "solve", spec_file)
        assert code == 0
        report = json.loads(out)
        assert report["wells"]["left"]["a"] == 18.137993642342177
        assert report["splitting"]["e0"] == report["ground"]["energy"]

    def test_output_is_deterministic(self, capsys, spec_file):
        _, first, _ = run_cli(capsys, "solve", spec_file)
        _, second, _ = run_cli(capsys, "solve", spec_file)
        assert first == second

    def test_verbose_table_goes_to_stderr(self, capsys, spec_file):
        code, out, err = run_cli(capsys, "solve", spec_file, "--verbose")
        assert code == 0
        json.loads(out)  # stdout stays pure JSON
        assert "left.Y" in err
        assert "delta_e" in err
        assert "0.96691295084" in err  # 12 significant digits

    def test_missing_spec_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "solve", str(tmp_path / "absent.spec"))
        assert code == 2
        assert "error:" in err

    def test_malformed_spec_file(self, capsys, tmp_path):
        path = tmp_path / "broken.spec"
        path.write_text("hbar = 1.0\nnot a valid line\n")
        code, _, err = run_cli(capsys, "solve", str(path))
        assert code == 2
        assert "error:" in err

    def test_out_of_regime_spec_suggests_oracle(self, capsys, tmp_path):
        path = tmp_path / "thin.spec"
        path.write_text(spec_text(w_0=EXAMPLE_SPEC.w_2 / 10.0))
        code, _, err = run_cli(capsys, "solve", str(path))
        assert code == 3
        assert "oracle" in err

    def test_unbound_well_spec(self, capsys, tmp_path):
        path = tmp_path / "unbound.spec"
        path.write_text(
            spec_text(v_m4=2.25, v_0=0.09, v_4=2.25, w_m2=EXAMPLE_SPEC.w_0)
        )
        code, _, err = run_cli(capsys, "solve", str(path))
        assert code == 2
        assert "right" in err


class TestPerturb:
    @pytest.mark.parametrize("flag", [["--v", "1"], ["--ratio", "3"], ["--delta-v", "1e-12"]])
    def test_underflowed_splitting_exits_3(self, capsys, tmp_path, flag):
        path = tmp_path / "thick.spec"
        path.write_text(spec_text(w_0=25.0 * EXAMPLE_SPEC.w_0))
        code, out, err = run_cli(capsys, "perturb", str(path), *flag)
        assert code == 3
        assert out == ""
        assert "underflowed" in err

    @pytest.mark.parametrize("flag", [["--v", "1.5"], ["--ratio", "3"], ["--delta-v", "1e-12"]])
    def test_thin_barrier_exits_3(self, capsys, tmp_path, flag):
        # Out of the first-order regime, whichever way the shift is given.
        path = tmp_path / "thin.spec"
        path.write_text(spec_text(w_0=EXAMPLE_SPEC.w_2 / 10.0))
        code, out, err = run_cli(capsys, "perturb", str(path), *flag)
        assert code == 3
        assert out == ""
        assert "phase correction too large" in err

    def test_v_flag(self, capsys, spec_file):
        code, out, _ = run_cli(capsys, "perturb", spec_file, "--v", "1")
        assert code == 0
        block = json.loads(out)["perturbation"]
        assert block["v"] == pytest.approx(1.0, rel=1e-12)
        assert block["prob_ratio"] == pytest.approx(5.1256976292748355, rel=1e-9)
        assert block["e0"] / block["e_bar"] == pytest.approx(0.9999999904320998, abs=1e-11)
        assert block["f_coef"] == 0.0
        assert block["g_coef"] == pytest.approx(0.911152158473, rel=1e-10)

    def test_delta_v_flag(self, capsys, spec_file):
        delta_v = 2.0 * 1.7681030756044489e-09
        code, out, _ = run_cli(capsys, "perturb", spec_file, "--delta-v", repr(delta_v))
        assert code == 0
        block = json.loads(out)["perturbation"]
        assert block["delta_v"] == pytest.approx(delta_v, rel=1e-12)
        assert block["v"] == pytest.approx(2.0, rel=1e-9)
        assert block["prob_ratio"] == pytest.approx(15.21745809698306, rel=1e-9)

    def test_ratio_flag_inverts_localization(self, capsys, spec_file):
        code, out, _ = run_cli(
            capsys, "perturb", spec_file, "--ratio", "66392.61107342326"
        )
        assert code == 0
        block = json.loads(out)["perturbation"]
        assert block["v"] == pytest.approx(141.394471534, rel=1e-9)
        assert block["prob_ratio"] == pytest.approx(66392.61107342326, rel=1e-9)

    def test_flags_are_mutually_exclusive(self, capsys, spec_file):
        code, _, err = run_cli(capsys, "perturb", spec_file, "--v", "1", "--ratio", "2")
        assert code == 2
        code, _, _ = run_cli(capsys, "perturb", spec_file)
        assert code == 2

    def test_detuned_spec_rejected(self, capsys, tmp_path):
        path = tmp_path / "detuned.spec"
        path.write_text(spec_text(v_2=-1e-4, v_4=1.0 - 1e-4))
        code, _, err = run_cli(capsys, "perturb", str(path), "--v", "1")
        assert code == 4
        assert "error:" in err

    def test_too_large_shift(self, capsys, spec_file):
        code, _, err = run_cli(capsys, "perturb", spec_file, "--delta-v", "0.5")
        assert code == 2
        assert "error:" in err


class TestOracle:
    def test_comparison_block(self, capsys, spec_file):
        code, out, _ = run_cli(capsys, "oracle", spec_file)
        assert code == 0
        block = json.loads(out)["oracle"]
        assert block["tol_rel"] == 1e-13
        assert block["e0_exact"] == pytest.approx(EXACT_E0, rel=1e-12)
        assert block["err_e0"] <= 1e-9
        assert block["err_e1"] <= 1e-9
        assert block["err_delta_e"] <= 1e-4
        assert block["err_ratio"] <= 1e-4

    def test_unbracketed_level_hint(self, capsys, tmp_path):
        # Five times the example barrier: the doublet is degenerate at float64
        # resolution and the ground window holds no mismatch sign change.
        path = tmp_path / "opaque.spec"
        path.write_text(spec_text(w_0=5.0 * EXAMPLE_SPEC.w_0))
        code, _, err = run_cli(capsys, "oracle", str(path))
        assert code == 5
        assert "no sign change" in err
        assert "node-count window" in err.split("hint:", 1)[1]
        assert "binds no level" not in err

    def test_coarse_tolerance_cannot_separate_levels(self, capsys, spec_file):
        code, _, err = run_cli(capsys, "oracle", spec_file, "--tol", "1e-3")
        assert code == 5
        assert "--tol" in err or "splitting" in err


class TestSample:
    def test_default_table(self, capsys, spec_file, tmp_path):
        out_path = tmp_path / "ground.csv"
        code, _, err = run_cli(capsys, "sample", spec_file, "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "x,psi,dpsi"
        assert len(lines) == 1 + 1001
        assert "integral of psi^2" in err
        norm = float(err.rsplit(":", 1)[1])
        assert norm == pytest.approx(1.0, abs=1e-3)

    def test_excited_state_has_one_node(self, capsys, spec_file, tmp_path):
        out_path = tmp_path / "excited.csv"
        code, _, _ = run_cli(
            capsys, "sample", spec_file, "--state", "excited", "--out", str(out_path)
        )
        assert code == 0
        table = np.loadtxt(str(out_path), delimiter=",", skiprows=1)
        signs = np.sign(table[:, 1])
        signs = signs[signs != 0]
        assert int(np.sum(signs[1:] != signs[:-1])) == 1

    def test_ground_state_has_no_node(self, capsys, spec_file, tmp_path):
        out_path = tmp_path / "ground.csv"
        code, _, _ = run_cli(capsys, "sample", spec_file, "--out", str(out_path))
        assert code == 0
        table = np.loadtxt(str(out_path), delimiter=",", skiprows=1)
        assert np.all(table[:, 1] > 0.0) or np.all(table[:, 1] < 0.0)

    def test_explicit_range_and_points(self, capsys, spec_file, tmp_path):
        out_path = tmp_path / "two.csv"
        code, _, _ = run_cli(
            capsys, "sample", spec_file,
            "--range", "0.0", "9.4", "--points", "2", "--out", str(out_path),
        )
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert len(lines) == 3
        assert lines[1].startswith("0,") or lines[1].startswith("0.0,")

    def test_reversed_range_rejected(self, capsys, spec_file, tmp_path):
        code, _, err = run_cli(
            capsys, "sample", spec_file,
            "--range", "5.0", "1.0", "--out", str(tmp_path / "x.csv"),
        )
        assert code == 2
        assert "error:" in err

    def test_single_point_rejected(self, capsys, spec_file, tmp_path):
        code, _, _ = run_cli(
            capsys, "sample", spec_file, "--points", "1", "--out", str(tmp_path / "x.csv")
        )
        assert code == 2

    def test_unwritable_destination(self, capsys, spec_file, tmp_path):
        dest = tmp_path / "missing_dir" / "x.csv"
        code, _, err = run_cli(capsys, "sample", spec_file, "--out", str(dest))
        assert code == 6
        assert "cannot write" in err


class TestPaperExample:
    def test_all_reference_rows_pass(self, capsys):
        code, out, err = run_cli(capsys, "paper-example")
        assert code == 0
        lines = [line for line in out.splitlines() if line]
        assert len(lines) == 31
        assert all(line.startswith("PASS ") for line in lines)
        assert err == ""


class TestParsing:
    def test_no_arguments(self, capsys):
        assert run_cli(capsys)[0] == 2

    def test_unknown_subcommand(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == 2

    def test_help_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "--help")
        assert code == 0
        assert "solve" in out and "perturb" in out


class TestInstalledEntryPoints:
    def test_module_invocation(self, spec_file):
        proc = subprocess.run(
            [sys.executable, "-m", "doublewell.cli", "solve", spec_file],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["splitting"]["e_bar"] == pytest.approx(0.25)

    def test_package_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "doublewell", "paper-example"],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert proc.returncode == 0
        assert "FAIL" not in proc.stdout

    def test_console_script(self):
        try:
            import tomllib
        except ModuleNotFoundError:  # Python 3.10
            tomllib = pytest.importorskip("tomli")
        with PYPROJECT.open("rb") as fh:
            scripts = tomllib.load(fh)["project"]["scripts"]
        assert "doublewell" in scripts
        proc = subprocess.run(
            [
                sys.executable, "-c", CONSOLE_SCRIPT_WRAPPER,
                "doublewell", scripts["doublewell"], "paper-example",
            ],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert proc.returncode == 0
        assert "FAIL" not in proc.stdout

    @pytest.mark.skipif(
        shutil.which("doublewell") is None, reason="doublewell console script not on PATH"
    )
    def test_installed_console_script(self):
        exe = shutil.which("doublewell")
        proc = subprocess.run([exe, "paper-example"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert "FAIL" not in proc.stdout
