"""The four benchmark workloads: one timed operation each, plus its checks.

Every workload turns generator entries into prepared items during set-up,
then the loop times ``op(item)`` and afterwards, untimed, runs
``check(item, output)``.  A check failure raises :class:`CheckFailed`;
:func:`classify` sorts any exception into the failure taxonomy

* ``refused`` -- the library raised a documented ``DoubleWellError``;
* ``crashed`` -- any other exception;
* ``wrong``   -- an output check failed.

Library functions are always looked up on their module at call time
(``tunneling.solve_double_well``), so the traced run's wrappers see every
call the benchmark makes.
"""

from __future__ import annotations

import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field

from doublewell import cli, errors, oracle, params, perturb, tunneling, wavefunc

# Frozen mpmath eigenvalues of the worked example (copied from
# tests/oracles.py so test edits cannot move the benchmark).
EXAMPLE_E0_EXACT = 0.24999999823189692
EXAMPLE_E1_EXACT = 0.25000000176810315

PROB_SUM_TOL = 1e-12
MIRROR_TOL = 1e-12
CONTINUITY_TOL = 1e-10
ROUND_TRIP_TOL = 1e-9
ORACLE_TOL_REL = 1e-13
V_GRID = (0.5, 1.0, 2.0)
SAMPLE_ROWS = 1001


class CheckFailed(Exception):
    """An output check failed; ``cause`` is a short stable label."""

    def __init__(self, cause: str, detail: str = ""):
        super().__init__(f"{cause}: {detail}" if detail else cause)
        self.cause = cause


def classify(exc: BaseException) -> tuple[str, str]:
    """(category, cause) of a failed operation."""
    if isinstance(exc, CheckFailed):
        return "wrong", exc.cause
    if isinstance(exc, errors.DoubleWellError):
        return "refused", type(exc).__name__
    return "crashed", type(exc).__name__


def _require(ok: bool, cause: str, detail: str = "") -> None:
    if not ok:
        raise CheckFailed(cause, detail)


def _finite(*values: float) -> bool:
    return all(math.isfinite(v) for v in values)


@dataclass
class Item:
    """One prepared input."""

    kind: str
    opacity: float
    spec: params.WellSpec
    extra: dict = field(default_factory=dict)


def _item(entry: dict) -> Item:
    extra = {k: v for k, v in entry.items() if k not in ("kind", "opacity", "spec")}
    return Item(entry["kind"], entry["opacity"], params.WellSpec(**entry["spec"]), extra)


# --------------------------------------------------------------------------
# closed_form_sweep


class ClosedFormSweep:
    """solve_double_well; on symmetric specs also the perturbation layer."""


    def warmup(self, items: list) -> list:
        # One generator block: every kind in its share.
        return items[:24]

    def prepare(self, entry: dict, workdir: str) -> Item:
        return _item(entry)

    def op(self, item: Item):
        result = tunneling.solve_double_well(item.spec)
        if item.kind != "symmetric":
            return result, None
        base = perturb.symmetric_base(item.spec)
        rows = []
        for v in V_GRID:
            delta_v = v * base.delta_e
            levels = perturb.perturbed_levels(base, delta_v)
            rows.append(
                (
                    delta_v,
                    levels,
                    perturb.invert_ratio(base, levels.prob_ratio),
                    perturb.delta_ledger(base, result.reduced, delta_v),
                    perturb.two_level_check(base, delta_v),
                )
            )
        return result, (base, rows)

    def check(self, item: Item, output) -> None:
        result, perturbation = output
        split = result.splitting
        levels = (result.ground, result.excited)
        _require(
            _finite(split.e0, split.e1, split.delta_e, split.e_bar,
                    *(p for s in levels for p in (s.prob_left, s.prob_right, s.r0))),
            "non_finite_output",
        )
        _require(split.delta_e > 0.0, "delta_e_not_positive", repr(split.delta_e))
        _require(split.e0 < split.e1, "levels_not_ordered")
        for s in levels:
            _require(abs(s.prob_left + s.prob_right - 1.0) <= PROB_SUM_TOL, "prob_sum")
        if perturbation is None:
            return
        base, rows = perturbation
        _require(_finite(base.delta_e, base.e_bar) and base.delta_e > 0.0, "base_delta_e")
        for delta_v, lv, back, ledger, residuals in rows:
            _require(_finite(lv.e0, lv.e1, lv.prob_ratio, *residuals), "non_finite_perturbed")
            _require(
                abs(back - delta_v) <= ROUND_TRIP_TOL * abs(delta_v),
                "invert_ratio_round_trip",
                f"{back!r} vs {delta_v!r}",
            )
            _require(_finite(*(getattr(ledger, f) for f in ledger.__dataclass_fields__)),
                     "non_finite_ledger")


# --------------------------------------------------------------------------
# oracle_validate


class OracleValidate:
    """compare(spec, tol_rel=1e-13) against the closed form's error bound."""


    def warmup(self, items: list) -> list:
        return items[:1]  # the worked example

    def prepare(self, entry: dict, workdir: str) -> Item:
        return _item(entry)

    def op(self, item: Item):
        return oracle.compare(item.spec, tol_rel=ORACLE_TOL_REL)

    def check(self, item: Item, c) -> None:
        """Energy errors within the a-priori bound 10 e^{-2 r0} plus the
        oracle's resolution.  The bound is relative to the level's height
        above the well floor; ``compare``'s own err_e0/err_e1 divide by
        |e_bar| instead, which is not shift-invariant and grows without
        limit as e_bar nears 0, so the check uses the absolute errors."""
        spec = item.spec
        r0 = tunneling.solve_double_well(spec).ground.r0
        _require(_finite(c.e0_exact, c.e1_exact, c.e0_approx, c.e1_approx), "non_finite_output")
        floor = max(spec.v_m2, spec.v_2)
        height = 0.5 * (c.e0_exact + c.e1_exact) - floor
        float_resolution = 4.0 * math.ulp(max(abs(floor), abs(min(spec.v_m4, spec.v_0, spec.v_4))))
        for label, approx, exact in (("e0", c.e0_approx, c.e0_exact), ("e1", c.e1_approx, c.e1_exact)):
            allowed = (10.0 * math.exp(-2.0 * r0) * height + ORACLE_TOL_REL * abs(exact)
                       + float_resolution)
            error = abs(approx - exact)
            _require(error <= allowed, f"{label}_error_over_bound", f"{error!r} > {allowed!r}")
        if item.kind == "example":
            for got, want in ((c.e0_exact, EXAMPLE_E0_EXACT), (c.e1_exact, EXAMPLE_E1_EXACT)):
                _require(abs(got - want) <= ORACLE_TOL_REL * want, "example_mismatch",
                         f"{got!r} vs {want!r}")


def example_entry() -> dict:
    """The worked example as a generator entry (first oracle input)."""
    spec = cli.EXAMPLE_SPEC
    return {"kind": "example", "opacity": float("nan"),
            "spec": {f: getattr(spec, f) for f in spec.__dataclass_fields__}}


# --------------------------------------------------------------------------
# wavefunction_export


class WavefunctionExport:
    """Both parities assembled, evaluated on a grid, sampled and written."""


    def warmup(self, items: list) -> list:
        """The first input of each grid size, so warm-up costs the same
        whatever the seed."""
        first = {}
        for item in items:
            first.setdefault(item.extra["grid_points"], item)
        return list(first.values())

    def __init__(self):
        # Imported after the library, so set-up still records the
        # library's own numpy import; the grid itself is a numpy array.
        import numpy

        self.np = numpy

    def prepare(self, entry: dict, workdir: str) -> Item:
        return _item(entry)

    def op(self, item: Item):
        spec = item.spec
        result = tunneling.solve_double_well(spec)
        models = [wavefunc.assemble(spec, result.reduced, s) for s in (result.ground, result.excited)]
        ground = models[0]
        x_min = ground.x_m3 - 5.0 / ground.kappa_m4
        x_max = ground.x_3 + 5.0 / ground.kappa_4
        xs = self.np.linspace(x_min, x_max, item.extra["grid_points"])
        fields = [
            (wavefunc.evaluate(m, xs), wavefunc.derivative(m, xs), wavefunc.probabilities(m))
            for m in models
        ]
        table = wavefunc.sample(ground, x_min, x_max, SAMPLE_ROWS)
        buffer = io.StringIO()
        wavefunc.write_sample_csv(table, buffer)
        return models, fields, buffer.getvalue()

    def check(self, item: Item, output) -> None:
        models, fields, csv_text = output
        for model, (psi, dpsi, (p_left, p_right)) in zip(models, fields):
            check_continuity(model, float(abs(psi).max()), float(abs(dpsi).max()))
            _require(abs(p_left + p_right - 1.0) <= PROB_SUM_TOL, "prob_sum",
                     f"{p_left!r} + {p_right!r}")
            if item.kind == "symmetric":
                _require(abs(p_left - 0.5) <= MIRROR_TOL, "mirror_symmetry_drift",
                         f"P_L - 1/2 = {p_left - 0.5!r}")
        lines = csv_text.splitlines()
        _require(lines[0] == "x,psi,dpsi" and len(lines) == SAMPLE_ROWS + 1, "csv_shape")


def check_continuity(model, peak_value: float, peak_slope: float) -> None:
    """Value and slope continuous at the four boundaries within
    CONTINUITY_TOL of their peaks on the evaluated grid."""
    for x in (model.x_m3, model.x_m1, model.x_1, model.x_3):
        before = math.nextafter(x, -math.inf)
        jump_v = abs(wavefunc.evaluate(model, x) - wavefunc.evaluate(model, before))
        jump_s = abs(wavefunc.derivative(model, x) - wavefunc.derivative(model, before))
        _require(jump_v <= CONTINUITY_TOL * peak_value, "psi_discontinuous", f"at x={x!r}")
        _require(jump_s <= CONTINUITY_TOL * peak_slope, "dpsi_discontinuous", f"at x={x!r}")


# --------------------------------------------------------------------------
# cli_cold

# Expected exit code of each generated command.
EXIT_CODES = {
    "solve": 0, "solve_verbose": 0, "perturb_v": 0, "perturb_ratio": 0, "sample": 0,
    "paper_example": 0, "oracle": 0, "bad_malformed": 2, "bad_thin": 3, "bad_asym_perturb": 4,
}
JSON_COMMANDS = ("solve", "solve_verbose", "perturb_v", "perturb_ratio", "oracle")


def write_spec(path: str, spec_fields: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{key} = {value!r}\n" for key, value in spec_fields.items())


def cli_argv(item: Item) -> list[str]:
    """Arguments after ``python -m doublewell.cli`` for one command."""
    command, path = item.extra["command"], item.extra["path"]
    if command in ("solve", "bad_malformed", "bad_thin"):
        return ["solve", path]
    if command == "solve_verbose":
        return ["solve", path, "--verbose"]
    if command in ("perturb_v", "bad_asym_perturb"):
        return ["perturb", path, "--v", repr(item.extra["v"])]
    if command == "perturb_ratio":
        return ["perturb", path, "--ratio", repr(item.extra["ratio"])]
    if command == "sample":
        return ["sample", path, "--state", item.extra["state"], "--out", item.extra["out"]]
    if command == "paper_example":
        return ["paper-example"]
    if command == "oracle":
        return ["oracle", path]
    raise ValueError(f"unknown command {command!r}")


def run_in_process(argv: list[str]) -> tuple[int, str]:
    """(exit code, stdout) of ``cli.main(argv)`` inside this process."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def child_env(root: str) -> dict:
    """Environment of a CLI child: this process's (which carries the BLAS
    thread limits set by run.py) with the checkout's sources on the path."""
    return dict(os.environ, PYTHONPATH=os.path.join(root, "src"))


class CliCold:
    """One cold ``python -m doublewell.cli`` process per op, run in turn."""

    in_process = False

    def __init__(self, root: str):
        self.root = root
        self.env = child_env(root)
        self.expected: dict[tuple, tuple[int, str]] = {}

    def warmup(self, items: list) -> list:
        """One plain ``solve``, so warm-up costs the same whatever the seed."""
        return [next(item for item in items if item.extra["command"] == "solve")]

    def prepare(self, entry: dict, workdir: str) -> Item:
        item = _item(entry)
        index = len(os.listdir(workdir))
        path = os.path.join(workdir, f"spec_{index}.txt")
        if entry["command"] == "bad_malformed":
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("hbar = 1.0\nmass = heavy\n")
        else:
            write_spec(path, entry["spec"])
        item.extra["path"] = path
        item.extra["out"] = os.path.join(workdir, f"sample_{index}.csv")
        return item

    def op(self, item: Item):
        return subprocess.run(
            [sys.executable, "-m", "doublewell.cli", *cli_argv(item)],
            cwd=self.root, env=self.env, capture_output=True, text=True, timeout=120,
        )

    def check(self, item: Item, proc) -> None:
        command = item.extra["command"]
        want = EXIT_CODES[command]
        _require(proc.returncode == want, "wrong_exit_code",
                 f"{command}: {proc.returncode} != {want}")
        if want != 0:
            _require(proc.stderr.startswith("error:"), "missing_error_message")
            return
        if command in JSON_COMMANDS or command == "paper_example":
            argv = cli_argv(item)
            key = tuple(argv)
            if key not in self.expected:
                self.expected[key] = run_in_process(argv)
            code, stdout = self.expected[key]
            if command == "paper_example":
                _require(proc.stdout == stdout, "stdout_differs_from_in_process")
            else:
                _require(json.loads(proc.stdout) == json.loads(stdout),
                         "json_differs_from_in_process")
        if command == "sample":
            with open(item.extra["out"], encoding="utf-8") as fh:
                lines = fh.read().splitlines()
            _require(lines[:1] == ["x,psi,dpsi"] and len(lines) == SAMPLE_ROWS + 1, "csv_shape")


def make(name: str, root: str):
    """The workload object of a name."""
    if name == "closed_form_sweep":
        return ClosedFormSweep()
    if name == "oracle_validate":
        return OracleValidate()
    if name == "wavefunction_export":
        return WavefunctionExport()
    if name == "cli_cold":
        return CliCold(root)
    raise ValueError(f"unknown workload {name!r}")

