"""Per-layer tracing for the benchmark's traced run.

Spans are recorded from the benchmark's side only: :class:`Tracer` swaps
each traced public function for a timing wrapper in every ``doublewell``
submodule that binds it (the defining module and the modules that
imported it by name), so calls between layers are seen too.  The
library's code is not touched.  Spans stay in memory as per-name duration
arrays and call counters and are summarised when the run ends.

Self times come from replay rather than from nested spans: after the
traced loop the benchmark calls the children of ``solve_double_well`` and
``compare`` one by one with the same arguments and subtracts their summed
time from the parent's.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from array import array
from collections import Counter

from doublewell import cli, isolated, oracle, params, perturb, tunneling, wavefunc

import workloads as wl

# (module, public function) pairs that get a span.  ``oracle.shoot`` is
# wrapped under its public name only; a scan that stops calling that name
# reads 0 calls per compare.
TRACED = (
    (params, "reduce"),
    (isolated, "solve_wells"),
    (isolated, "coupling"),
    (tunneling, "solve_r0"),
    (tunneling, "correct_energy"),
    (tunneling, "splitting"),
    (tunneling, "solve_double_well"),
    (perturb, "symmetric_base"),
    (perturb, "perturbed_levels"),
    (perturb, "delta_ledger"),
    (perturb, "invert_ratio"),
    (perturb, "two_level_check"),
    (wavefunc, "assemble"),
    (wavefunc, "evaluate"),
    (wavefunc, "derivative"),
    (wavefunc, "probabilities"),
    (wavefunc, "sample"),
    (wavefunc, "write_sample_csv"),
    (oracle, "shoot"),
    (oracle, "find_level"),
    (oracle, "compare"),
)

# Enough samples for a stable median while bounding memory (8 B each).
MAX_SAMPLES = 400_000
CLI_SUBCOMMANDS = ("solve", "perturb", "sample", "paper-example", "oracle")


def _short(module) -> str:
    return module.__name__.rsplit(".", 1)[-1]


class Tracer:
    """Timing wrappers around the traced functions, with their records."""

    def __init__(self):
        self.durations: dict[str, array] = {}
        self.calls: Counter = Counter()
        self.points = 0  # grid points passed to wavefunc.evaluate
        self.shoots_in_compare = 0
        self.active = True
        self._saved: list[tuple[object, str, object]] = []

    def _record(self, key: str, seconds: float) -> None:
        self.calls[key] += 1
        samples = self.durations.get(key)
        if samples is None:
            samples = self.durations[key] = array("d")
        if len(samples) < MAX_SAMPLES:
            samples.append(seconds)

    def _wrap(self, layer: str, name: str, fn):
        key = f"{layer}.{name}"
        record = self._record
        clock = time.perf_counter
        tracer = self

        if name in ("evaluate", "derivative"):
            def wrapper(model, x):
                if not tracer.active:
                    return fn(model, x)
                n = len(x) if hasattr(x, "__len__") else 1
                t0 = clock()
                out = fn(model, x)
                record(f"{key}.n{n}", clock() - t0)
                if name == "evaluate":
                    tracer.points += n
                    tracer.calls[key] += 1
                return out
        elif name == "write_sample_csv":
            def wrapper(table, destination):
                if not tracer.active:
                    return fn(table, destination)
                t0 = clock()
                out = fn(table, destination)
                record(f"{key}.per_row", (clock() - t0) / max(1, len(table)))
                return out
        elif name == "find_level":
            def wrapper(spec, which, *args, **kwargs):
                if not tracer.active:
                    return fn(spec, which, *args, **kwargs)
                t0 = clock()
                try:
                    return fn(spec, which, *args, **kwargs)
                finally:
                    record(f"{key}.{tunneling.Parity(which).value}", clock() - t0)
        elif name == "compare":
            def wrapper(*args, **kwargs):
                if not tracer.active:
                    return fn(*args, **kwargs)
                before = tracer.calls["oracle.shoot"]
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    record(key, clock() - t0)
                    tracer.shoots_in_compare += tracer.calls["oracle.shoot"] - before
        else:
            def wrapper(*args, **kwargs):
                if not tracer.active:
                    return fn(*args, **kwargs)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    record(key, clock() - t0)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items()) if n.startswith("doublewell.")]
        for module, name in TRACED:
            fn = getattr(module, name)
            wrapper = self._wrap(_short(module), name, fn)
            targets = [module] if name == "shoot" else modules
            for target in targets:
                if getattr(target, name, None) is fn:
                    self._saved.append((target, name, fn))
                    setattr(target, name, wrapper)

    def uninstall(self) -> None:
        for target, name, fn in reversed(self._saved):
            setattr(target, name, fn)
        self._saved.clear()

    def median_s(self, key: str):
        samples = self.durations.get(key)
        return statistics.median(samples) if samples else None


def _scaled(value, factor):
    return None if value is None else value * factor


def span_metrics(t: Tracer) -> dict:
    """Per-layer metrics derivable from one tracer's spans (None if absent)."""
    us = 1e6
    out = {}
    for module, name in TRACED:
        if name in ("evaluate", "derivative", "write_sample_csv", "find_level", "shoot", "compare"):
            continue
        key = f"{_short(module)}.{name}"
        out[f"{key}.us"] = _scaled(t.median_s(key), us)
    for name in ("evaluate", "derivative"):
        for label, n in (("n1e4", 10_000), ("n1e6", 1_000_000)):
            out[f"wavefunc.{name}.ns_per_point.{label}"] = _scaled(
                t.median_s(f"wavefunc.{name}.n{n}"), 1e9 / n
            )
    out["wavefunc.write_sample_csv.us_per_row"] = _scaled(
        t.median_s("wavefunc.write_sample_csv.per_row"), us
    )
    evaluations = t.calls["wavefunc.evaluate"]
    # Computed, not measured: one float64 read (x) and one write (psi) per point.
    out["wavefunc.evaluate.bytes_computed"] = 16.0 * t.points / evaluations if evaluations else None
    out["oracle.shoot.us"] = _scaled(t.median_s("oracle.shoot"), us)
    compares = t.calls["oracle.compare"]
    out["oracle.shoot.calls_per_compare"] = t.shoots_in_compare / compares if compares else None
    out["oracle.find_level.ground.ms"] = _scaled(t.median_s("oracle.find_level.ground"), 1e3)
    out["oracle.find_level.excited.ms"] = _scaled(t.median_s("oracle.find_level.excited"), 1e3)
    out["oracle.compare.ms"] = _scaled(t.median_s("oracle.compare"), 1e3)
    return out


# --------------------------------------------------------------------------
# Replay of the children of solve_double_well and compare.


def _time(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


def replay_solve(spec, reps: int = 5) -> float:
    """Median self time (s) of solve_double_well on one spec: the whole
    call minus its children replayed one by one in the same order."""
    selves = []
    for _ in range(reps):
        _, total = _time(tunneling.solve_double_well, spec)
        reduced, children = _time(params.reduce, spec)
        for inner, outer in ((reduced.alpha_m1, reduced.alpha_m3), (reduced.alpha_1, reduced.alpha_3)):
            children += _time(params.bound_state_exists, inner, outer)[1]
        (left, right), dt = _time(isolated.solve_wells, reduced)
        children += dt
        coup, dt = _time(isolated.coupling, left, right)
        children += dt
        levels = []
        for parity in (tunneling.Parity.GROUND, tunneling.Parity.EXCITED):
            (r0, p_small), dt = _time(tunneling.solve_r0, parity, left.a_coef, right.a_coef, coup.p_cap)
            children += dt
            level, dt = _time(tunneling.correct_energy, parity, left, right, r0, p_small, reduced, spec)
            children += dt
            levels.append(level)
        children += _time(tunneling.splitting, *levels)[1]
        selves.append(total - children)
    return statistics.median(selves)


def replay_compare(spec, tol_rel: float, reps: int = 3) -> float:
    """Median time (s) of compare on one spec not covered by its children
    replayed in turn."""
    gaps = []
    for _ in range(reps):
        _, total = _time(oracle.compare, spec, tol_rel)
        approx, children = _time(tunneling.solve_double_well, spec)
        e0, dt = _time(oracle.find_level, spec, tunneling.Parity.GROUND, tol_rel)
        children += dt
        children += _time(oracle.find_level, spec, tunneling.Parity.EXCITED, tol_rel)[1]
        model, dt = _time(
            wavefunc.assemble_at_energy, spec, approx.reduced, tunneling.Parity.GROUND, e0
        )
        children += dt
        children += _time(wavefunc.probabilities, model)[1]
        gaps.append(total - children)
    return statistics.median(gaps)


# --------------------------------------------------------------------------
# CLI layer: interpreter start, import cost, and warm in-process main().


def _wall(argv, env, cwd) -> tuple[float, subprocess.CompletedProcess]:
    t0 = time.perf_counter()
    proc = subprocess.run(argv, env=env, cwd=cwd, capture_output=True, text=True, timeout=120)
    return time.perf_counter() - t0, proc


def import_times_ms(importtime_stderr: str) -> dict:
    """Cumulative import time (ms) of each module in ``-X importtime`` output."""
    out = {}
    for line in importtime_stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue
        out[fields[2].strip()] = int(fields[1]) / 1000.0
    return out


def cli_probes(root: str, workdir: str) -> dict:
    """cli.* metrics: bare interpreter, import costs, warm main() per subcommand."""
    env = wl.child_env(root)
    interp = [_wall([sys.executable, "-c", "pass"], env, root)[0] for _ in range(5)]
    imports = []
    for _ in range(3):
        _, proc = _wall([sys.executable, "-X", "importtime", "-c", "import doublewell"], env, root)
        if proc.returncode != 0:
            raise RuntimeError(f"import doublewell failed: {proc.stderr[-400:]}")
        imports.append(import_times_ms(proc.stderr))
    out = {
        "cli.interp_ms": statistics.median(interp) * 1e3,
        "cli.import_doublewell_ms": statistics.median(i["doublewell"] for i in imports),
        "cli.import_numpy_ms": statistics.median(i.get("numpy", 0.0) for i in imports),
    }
    spec_path = os.path.join(workdir, "cli_probe_spec.txt")
    wl.write_spec(spec_path, {f: getattr(cli.EXAMPLE_SPEC, f) for f in cli.EXAMPLE_SPEC.__dataclass_fields__})
    argvs = {
        "solve": ["solve", spec_path],
        "perturb": ["perturb", spec_path, "--v", "1.0"],
        "sample": ["sample", spec_path, "--out", os.path.join(workdir, "cli_probe.csv")],
        "paper-example": ["paper-example"],
        "oracle": ["oracle", spec_path],
    }
    for sub in CLI_SUBCOMMANDS:
        times = []
        for _ in range(2 if sub == "oracle" else 5):
            (code, _), dt = _time(wl.run_in_process, argvs[sub])
            if code != 0:
                raise RuntimeError(f"in-process cli {sub} exited {code}")
            times.append(dt)
        out[f"cli.main_warm_ms.{sub}"] = statistics.median(times) * 1e3
    return out
