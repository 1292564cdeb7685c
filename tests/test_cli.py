"""Command-line interface: JSON reports, CSV output, exit codes."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from doublewell import cli, errors, tunneling
from doublewell.cli import main
from genspecs import EXAMPLE_SPEC, child_env

EXACT_E0 = 0.24999999823189692
# The worked example behind 21 times its barrier with the right floors
# lowered by 1e-12: p underflows to 0 and the wavefunction overflows float64.
DETUNED_OPAQUE = {"w_0": 21.0 * EXAMPLE_SPEC.w_0, "v_2": -1e-12, "v_4": 1.0 - 1e-12}
# The worked example with mass 1e300: the energy scales stay inside float64,
# but the coupling P and the half-splitting underflow to 0.
HEAVY = {"mass": 1e300}
# Valid specs whose barrier quantities underflow to 0: beta = sqrt(K_0 / W),
# and b (so P and p) behind a barrier far thinner than the wells.
BETA_UNDERFLOW = dict(
    hbar=1.0, mass=1.0, v_m4=1e25, v_m2=0.0, v_0=1e25, v_2=0.0, v_4=1e25,
    w_m2=1.0, w_0=1e150, w_2=1.0,
)
B_UNDERFLOW = dict(
    hbar=1.0, mass=1.0, v_m4=1.0, v_m2=0.0, v_0=1.0, v_2=0.0, v_4=1.0,
    w_m2=1e100, w_0=1e-150, w_2=1e100,
)
# Valid specs at the edges of float64 that the closed form solves: every
# 2 m |E - V| underflows to 0 at the levels, or overflows in the wells and
# the barrier at the band top, where the shot's phase becomes infinite.
WAVENUMBER_UNDERFLOW = dict(
    hbar=5.850175020285839e-82, mass=8.265066892422095e-155, v_m4=2.572479528449615e-187,
    v_m2=0.0, v_0=3.171613675936049e-166, v_2=0.0, v_4=2.572479528449615e-187,
    w_m2=7.267212473876286e94, w_0=2.5727080190749545e57, w_2=7.267212473876286e94,
)
WAVENUMBER_OVERFLOW = dict(
    hbar=6.056573106756008e116, mass=4.0980544923841734e133, v_m4=4.6838946297290186e182,
    v_m2=7.104432341997065e-29, v_0=4.5498175852314566e192, v_2=7.104432341997065e-29,
    v_4=4.6838946297290186e182, w_m2=1.8430637254727472e-07, w_0=3.184816202304822e-20,
    w_2=1.8430637254727472e-07,
)
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

# Runs ``python -m doublewell`` with the given arguments and reports on stderr,
# after every other exit handler, the sorted ``doublewell`` modules loaded,
# which of ``dataclasses`` and ``inspect`` the run imported (not ``site``,
# which ran before the snapshot) and whether numpy was imported.
IMPORT_PROBE = """
import atexit
import runpy
import sys
before = set(sys.modules)
def report():
    loaded = sorted(m for m in sys.modules if m.startswith("doublewell."))
    fresh = [m for m in ("dataclasses", "inspect") if m in sys.modules and m not in before]
    sys.stderr.write(f"\\ndoublewell modules: {' '.join(loaded)}")
    sys.stderr.write(f"\\nnewly imported: {' '.join(fresh)}")
    sys.stderr.write(f"\\nnumpy imported: {'numpy' in sys.modules}\\n")
atexit.register(report)
sys.argv = ["doublewell", *sys.argv[1:]]
runpy.run_module("doublewell", run_name="__main__", alter_sys=True)
"""


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

    @pytest.mark.parametrize(
        "argv", [["solve"], ["oracle"], ["perturb", "--v", "1"], ["sample", "--out", "o.csv"]],
        ids=" ".join,
    )
    def test_spec_that_is_not_utf8_exits_2(self, capsys, tmp_path, argv):
        path = tmp_path / "bin.spec"
        path.write_bytes(b"\xff\xfe\x00bad")
        code, out, err = run_cli(capsys, argv[0], str(path), *argv[1:])
        assert (code, out) == (2, "")
        assert err == f"error: {path}: not UTF-8 text: byte 0xff at offset 0\n"

    def test_spec_with_a_byte_order_mark_solves_as_without(self, capsys, tmp_path, spec_file):
        path = tmp_path / "bom.spec"
        path.write_bytes(b"\xef\xbb\xbf" + Path(spec_file).read_bytes())
        code, out, err = run_cli(capsys, "solve", str(path))
        assert (code, err) == (0, "")
        assert out == run_cli(capsys, "solve", spec_file)[1]

    def test_out_of_regime_spec_suggests_oracle(self, capsys, tmp_path):
        path = tmp_path / "thin.spec"
        path.write_text(spec_text(w_0=EXAMPLE_SPEC.w_2 / 10.0))
        code, _, err = run_cli(capsys, "solve", str(path))
        assert code == 3
        assert "oracle" in err

    def test_non_finite_report_exits_3(self, capsys, tmp_path):
        # p underflows to 0, so z_asym, r_asym and the coefficient ratio are
        # infinite: no strict JSON parser reads such a report.
        path = tmp_path / "opaque.spec"
        path.write_text(spec_text(**DETUNED_OPAQUE))
        code, out, err = run_cli(capsys, "solve", str(path))
        assert code == 3
        assert out == ""
        assert "non-finite" in err
        assert "oracle" in err

    def test_unbound_well_spec(self, capsys, tmp_path):
        path = tmp_path / "unbound.spec"
        path.write_text(
            spec_text(v_m4=2.25, v_0=0.09, v_4=2.25, w_m2=EXAMPLE_SPEC.w_0)
        )
        code, _, err = run_cli(capsys, "solve", str(path))
        assert code == 2
        assert "right" in err

    def test_fixed_point_step_limit_exits_3(self, capsys, monkeypatch, spec_file):
        monkeypatch.setattr(tunneling, "MAX_ITER_R", 1)
        code, out, err = run_cli(capsys, "solve", spec_file)
        assert code == 3
        assert out == ""
        assert "barrier fixed point did not converge" in err
        assert err.endswith(HINT_3)


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

    @pytest.mark.parametrize("flag", [["--v", "1.5"], ["--ratio", "3"], ["--delta-v", "1e-12"]])
    def test_closed_form_refusal_comes_before_the_shift_check(self, capsys, tmp_path, flag):
        # The ground state's sqrt(p)/b is 0.096, the excited level's eps 0.103:
        # the pipeline refuses the spec, whatever shift would be derived.
        path = tmp_path / "edge.spec"
        path.write_text(spec_text(w_0=0.57))
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

    @pytest.mark.parametrize("flag", ["--v", "--delta-v"])
    def test_nan_shift(self, capsys, spec_file, flag):
        code, out, err = run_cli(capsys, "perturb", spec_file, flag, "nan")
        assert code == 2
        assert out == ""
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
        # resolution, so the ground level has its neighbour within --tol.
        path = tmp_path / "opaque.spec"
        path.write_text(spec_text(w_0=5.0 * EXAMPLE_SPEC.w_0))
        code, _, err = run_cli(capsys, "oracle", str(path))
        assert code == 5
        assert "within tol_rel" in err
        assert "degenerate at float64 resolution" in err.split("hint:", 1)[1]
        assert "binds no level" not in err

    def test_overflowing_exact_state_exits_3(self, capsys, tmp_path):
        path = tmp_path / "opaque.spec"
        path.write_text(spec_text(**DETUNED_OPAQUE))
        code, out, err = run_cli(capsys, "oracle", str(path))
        assert code == 3
        assert out == ""
        assert err.startswith("error: the wavefunction leaves the float64 range")

    @pytest.mark.parametrize("overrides", [DETUNED_OPAQUE, {"w_0": EXAMPLE_SPEC.w_2 / 10.0}])
    def test_exit_3_hint_does_not_point_to_itself(self, capsys, tmp_path, overrides):
        # solve points a failing spec to the oracle subcommand; oracle
        # fails the same way on it and must not point to itself.
        path = tmp_path / "failing.spec"
        path.write_text(spec_text(**overrides))
        solve_code, _, solve_err = run_cli(capsys, "solve", str(path))
        code, out, err = run_cli(capsys, "oracle", str(path))
        assert (solve_code, code, out) == (3, 3, "")
        assert solve_err.endswith(HINT_3)
        assert err.endswith(ORACLE_HINT_3)
        assert "subcommand" not in err

    @pytest.mark.parametrize("tol", ["nan", "-1", "inf", "1"])
    def test_tolerance_outside_the_unit_interval_exits_2(self, capsys, spec_file, tol):
        code, out, err = run_cli(capsys, "oracle", spec_file, "--tol", tol)
        assert code == 2
        assert out == ""
        assert "tol_rel" in err

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

    @pytest.mark.parametrize(
        "overrides", [{"w_0": 40.0 * EXAMPLE_SPEC.w_0}, DETUNED_OPAQUE], ids=["x40", "x21-detuned"]
    )
    @pytest.mark.parametrize("state", ["ground", "excited"])
    def test_overflowing_wavefunction_exits_3(self, capsys, tmp_path, overrides, state):
        path = tmp_path / "opaque.spec"
        path.write_text(spec_text(**overrides))
        out_path = tmp_path / "x.csv"
        code, out, err = run_cli(
            capsys, "sample", str(path), "--state", state, "--out", str(out_path)
        )
        assert code == 3
        assert out == ""
        assert not out_path.exists()
        assert err.startswith("error: the wavefunction leaves the float64 range")

    def test_unallocatable_point_count_exits_2(self, capsys, spec_file, tmp_path):
        # 10**15 points is 7 PiB per column, beyond any 64-bit address space.
        dest = tmp_path / "x.csv"
        code, out, err = run_cli(
            capsys, "sample", spec_file, "--points", str(10**15), "--out", str(dest)
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot allocate a table of 1000000000000000 points")
        assert not dest.exists()

    @pytest.mark.parametrize("points", [2**63 - 1, 10**20])
    def test_unindexable_point_count_exits_2(self, capsys, spec_file, tmp_path, points):
        # numpy refuses these counts with IndexError or ValueError, not MemoryError.
        dest = tmp_path / "x.csv"
        code, out, err = run_cli(
            capsys, "sample", spec_file, "--points", str(points), "--out", str(dest)
        )
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot allocate a table of {points} points")
        assert not dest.exists()

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

    def test_failing_reference_row_exits_7(self, capsys, monkeypatch):
        real_rows = cli._example_rows

        def rows_with_a_wrong_reference():
            rows = real_rows()
            name, got, expected, tol, mode = rows[0]
            rows[0] = (name, got, 2.0 * expected, tol, mode)
            return rows

        monkeypatch.setattr(cli, "_example_rows", rows_with_a_wrong_reference)
        code, out, err = run_cli(capsys, "paper-example")
        assert code == 7
        lines = [line for line in out.splitlines() if line]
        assert len(lines) == 31
        assert lines[0].startswith("FAIL gamma = ")
        assert all(line.startswith("PASS ") for line in lines[1:])
        assert err == "failing quantities: gamma\n"


class TestParsing:
    def test_no_arguments(self, capsys):
        assert run_cli(capsys)[0] == 2

    def test_unknown_subcommand(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == 2

    def test_help_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "--help")
        assert code == 0
        assert "solve" in out and "perturb" in out


HINT_3 = (
    "hint: the closed-form approximation does not apply to this potential; "
    "use the `oracle` subcommand for exact energies.\n"
)
# The exit-3 hint of ``oracle``, which must not send it back to itself.
ORACLE_HINT_3 = (
    "hint: the closed-form approximation does not apply to this potential, "
    "and `oracle` compares the exact energies against it.\n"
)
HINT_5 = (
    "hint: LevelNotFound means the level's phase target lies outside the "
    "exact solver's phases at the band ends; DegeneracyUnresolved means the "
    "neighbouring level lies within --tol times the level's energy: the two "
    "levels are degenerate at float64 resolution, or --tol is coarser than the "
    "level splitting.\n"
)

# Exit code and stderr hint of every error the package raises on purpose.
EXPECTED_EXITS = {
    "InvalidSpec": (2, ""),
    "DomainError": (2, ""),
    "PerturbationTooLarge": (2, ""),
    "EnergyOutOfBand": (2, ""),
    "BadRange": (2, ""),
    "NoConvergence": (3, HINT_3),
    "ExcitedBelowZero": (3, HINT_3),
    "AssumptionViolated": (3, HINT_3),
    "MatchingResidualTooLarge": (3, HINT_3),
    "NotSymmetric": (4, ""),
    "LevelNotFound": (5, HINT_5),
    "DegeneracyUnresolved": (5, HINT_5),
}


class TestExitCodes:
    def _raise_from_load_spec(self, monkeypatch, exc):
        def load_spec(path):
            raise exc

        monkeypatch.setattr("doublewell.cli.load_spec", load_spec)

    def test_every_error_class_is_listed(self):
        defined = {
            name for name, obj in vars(errors).items()
            if isinstance(obj, type) and issubclass(obj, errors.DoubleWellError)
            and obj.__module__ == errors.__name__
        }
        assert set(EXPECTED_EXITS) == defined - {"DoubleWellError"}

    @pytest.mark.parametrize("name", sorted(EXPECTED_EXITS))
    def test_error_reaches_its_exit_code(self, capsys, monkeypatch, name):
        cls = getattr(errors, name)
        exc = cls("boom", 0.0, 0.0) if cls is errors.NoConvergence else cls("boom")
        self._raise_from_load_spec(monkeypatch, exc)
        code, out, err = run_cli(capsys, "solve", "any.spec")
        want_code, hint = EXPECTED_EXITS[name]
        assert (code, out, err) == (want_code, "", f"error: {exc}\n{hint}")

    @pytest.mark.parametrize("name", sorted(EXPECTED_EXITS))
    @pytest.mark.parametrize(
        "argv", [["perturb", "--v", "1"], ["sample", "--out", "psi.csv"], ["oracle"]], ids=" ".join
    )
    def test_error_hint_per_subcommand(self, capsys, monkeypatch, argv, name):
        # Every subcommand prints the same hints as solve, except that
        # oracle is not told to use the oracle subcommand.
        cls = getattr(errors, name)
        exc = cls("boom", 0.0, 0.0) if cls is errors.NoConvergence else cls("boom")
        self._raise_from_load_spec(monkeypatch, exc)
        code, out, err = run_cli(capsys, argv[0], "any.spec", *argv[1:])
        want_code, hint = EXPECTED_EXITS[name]
        if argv[0] == "oracle" and want_code == 3:
            hint = ORACLE_HINT_3
        assert (code, out, err) == (want_code, "", f"error: {exc}\n{hint}")

    def test_os_error_exits_2(self, capsys, monkeypatch):
        self._raise_from_load_spec(monkeypatch, FileNotFoundError("no such file"))
        assert run_cli(capsys, "solve", "any.spec") == (2, "", "error: no such file\n")

    def test_bare_base_class_propagates(self, capsys, monkeypatch):
        self._raise_from_load_spec(monkeypatch, errors.DoubleWellError("boom"))
        with pytest.raises(errors.DoubleWellError):
            main(["solve", "any.spec"])

    @pytest.mark.parametrize("argv", [["solve"], ["perturb", "--v", "1"], ["oracle"]])
    def test_unbound_well_exits_2_for_every_subcommand(self, capsys, tmp_path, argv):
        # The left well's outer wall is too low for the well to bind a level.
        path = tmp_path / "unbound.spec"
        path.write_text(
            spec_text(v_m4=0.001, v_4=0.001, w_m2=1.0, w_0=10.0, w_2=1.0)
        )
        code, out, err = run_cli(capsys, argv[0], str(path), *argv[1:])
        assert (code, out) == (2, "")
        assert err.startswith("error: left well supports no bound level")

    @pytest.mark.parametrize("argv,message", [
        (["solve"], "coupling P"),
        (["oracle"], "coupling P"),
        (["sample"], "coupling P"),
        (["perturb", "--v", "1"], "half-splitting delta_e underflowed"),
    ], ids=["solve", "oracle", "sample", "perturb"])
    def test_underflowed_coupling_exits_3(self, capsys, tmp_path, argv, message):
        # A zero coupling must not reach coefficient_ratio, where it divides
        # by zero (exit 1).
        path = tmp_path / "heavy.spec"
        path.write_text(spec_text(**HEAVY))
        csv = tmp_path / "psi.csv"
        extra = ["--out", str(csv)] if argv[0] == "sample" else []
        code, out, err = run_cli(capsys, argv[0], str(path), *argv[1:], *extra)
        assert (code, out) == (3, "")
        assert err.startswith(f"error: the {message}")
        assert "underflowed to 0" in err
        assert not csv.exists()


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


# The submodules ``import doublewell.cli`` loads, and those each command adds.
CLI_MODULES = {"cli", "errors", "isolated", "params", "tunneling"}
COMMAND_MODULES = {
    "solve": set(),
    "perturb": {"perturb"},
    "paper-example": {"perturb"},
    "oracle": {"oracle", "wavefunc"},
    "sample": {"wavefunc"},
}


def probe_line(stderr, prefix, back):
    """The names IMPORT_PROBE reports after ``prefix`` on the ``back``-th last
    line of ``stderr``."""
    found, _, names = stderr.splitlines()[-back].partition(": ")
    assert found == prefix
    return set(names.split())


def loaded_modules(stderr):
    """The ``doublewell`` submodules IMPORT_PROBE reports on ``stderr``."""
    names = probe_line(stderr, "doublewell modules", 3)
    return {name.removeprefix("doublewell.") for name in names}


class TestColdStart:
    """Each subcommand loads only the modules it runs; only ``sample`` and the
    array evaluators pay for importing numpy.  No subcommand imports
    ``dataclasses``, and only ``sample`` imports ``inspect`` (numpy does)."""

    def probe(self, *argv):
        return subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, *argv],
            capture_output=True,
            text=True,
            env=child_env(),
        )

    def assert_loads(self, proc, command):
        assert loaded_modules(proc.stderr) == CLI_MODULES | COMMAND_MODULES[command]
        # Fails while a record is built by the dataclass machinery.
        allowed = {"inspect"} if command == "sample" else set()
        assert probe_line(proc.stderr, "newly imported", 2) <= allowed

    def test_import_loads_no_numpy(self):
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, doublewell; print('numpy' in sys.modules)"],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"

    def test_cli_import_loads_closed_form_only(self):
        code = (
            "import sys, doublewell.cli\n"
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'doublewell'))\n"
            "print('numpy' in sys.modules)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=child_env()
        )
        assert proc.returncode == 0, proc.stderr
        modules = sorted(["doublewell", *(f"doublewell.{name}" for name in CLI_MODULES)])
        assert proc.stdout == f"{modules}\nFalse\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve"],
            ["solve", "--verbose"],
            ["perturb", "--v", "1"],
            ["perturb", "--ratio", "2"],
            ["perturb", "--delta-v", "1e-9"],
            ["oracle"],
        ],
        ids=" ".join,
    )
    def test_spec_commands_load_no_numpy(self, spec_file, argv):
        proc = self.probe(argv[0], spec_file, *argv[1:])
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["splitting"]["e_bar"] == pytest.approx(0.25)
        assert proc.stderr.endswith("\nnumpy imported: False\n")
        self.assert_loads(proc, argv[0])

    def test_paper_example_loads_no_numpy(self):
        proc = self.probe("paper-example")
        assert proc.returncode == 0, proc.stderr
        assert "FAIL" not in proc.stdout
        assert proc.stderr.endswith("\nnumpy imported: False\n")
        self.assert_loads(proc, "paper-example")

    def test_error_exit_loads_no_numpy(self, tmp_path):
        path = tmp_path / "thin.spec"
        path.write_text(spec_text(w_0=EXAMPLE_SPEC.w_2 / 10.0))
        proc = self.probe("solve", str(path))
        assert proc.returncode == 3
        assert "oracle" in proc.stderr
        assert proc.stderr.endswith("\nnumpy imported: False\n")
        self.assert_loads(proc, "solve")

    @pytest.mark.parametrize(
        "argv, text, code",
        [
            (["solve"], "hbar = 1.0\nnot a valid line\n", 2),
            (["perturb", "--v", "1"], spec_text(v_2=-1e-4, v_4=1.0 - 1e-4), 4),
        ],
        ids=["solve-malformed", "perturb-asymmetric"],
    )
    def test_refusal_loads_only_its_command(self, tmp_path, argv, text, code):
        path = tmp_path / "refused.spec"
        path.write_text(text)
        proc = self.probe(argv[0], str(path), *argv[1:])
        assert proc.returncode == code
        assert proc.stderr.startswith("error: ")
        assert proc.stderr.endswith("\nnumpy imported: False\n")
        self.assert_loads(proc, argv[0])

    def test_sample_loads_numpy(self, spec_file, tmp_path):
        out = tmp_path / "psi.csv"
        proc = self.probe("sample", spec_file, "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert out.read_text().startswith("x,psi,dpsi\n")
        assert proc.stderr.endswith("\nnumpy imported: True\n")
        self.assert_loads(proc, "sample")


class TestUnderflowedBarrier:
    @pytest.mark.parametrize("argv", [["solve"], ["perturb", "--v", "1"], ["oracle"]])
    def test_underflowed_beta_exits_3(self, capsys, tmp_path, argv):
        # beta = 0 must not reach derive_well, which divides by it (exit 1).
        path = tmp_path / "beta.spec"
        path.write_text(spec_text(**BETA_UNDERFLOW))
        code, out, err = run_cli(capsys, argv[0], str(path), *argv[1:])
        assert (code, out) == (3, "")
        assert err.startswith("error: a barrier scale beta = sqrt(K_0 / W) underflows to 0")

    def test_underflowed_b_exits_3_from_perturb(self, capsys, tmp_path):
        # p = 0 must be refused before the trust check divides sqrt(p) by b = 0.
        path = tmp_path / "thin.spec"
        path.write_text(spec_text(**B_UNDERFLOW))
        code, out, err = run_cli(capsys, "perturb", str(path), "--v", "1")
        assert (code, out) == (3, "")
        assert err.startswith("error: the half-splitting delta_e underflowed to 0")


class TestFloatRangeShots:
    @pytest.mark.parametrize("command", ["oracle", "sample"])
    def test_underflowed_wavenumber_exits_3(self, capsys, tmp_path, command):
        # A wavenumber of 0 must not reach shoot or assemble, which divide by it (exit 1).
        path = tmp_path / "tiny.spec"
        path.write_text(spec_text(**WAVENUMBER_UNDERFLOW))
        extra = ["--out", str(tmp_path / "psi.csv")] if command == "sample" else []
        code, out, err = run_cli(capsys, command, str(path), *extra)
        assert (code, out) == (3, "")
        assert err.startswith("error: a wavenumber sqrt(2 m |E - V|) / hbar underflows to 0")
        assert not (tmp_path / "psi.csv").exists()

    def test_overflowed_wavenumber_exits_3_from_oracle(self, capsys, tmp_path):
        # An infinite wavenumber once made an infinite phase, and sin of it
        # raised ValueError: math domain error (exit 1).
        path = tmp_path / "huge.spec"
        path.write_text(spec_text(**WAVENUMBER_OVERFLOW))
        code, out, err = run_cli(capsys, "oracle", str(path))
        assert (code, out) == (3, "")
        assert err.startswith("error: a wavenumber sqrt(2 m |E - V|) / hbar overflows")
