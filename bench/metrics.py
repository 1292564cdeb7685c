"""Names, units and directions of every metric the benchmark reports.

``BENCHMARK.json`` lists the same metrics; ``bench/selftest.py`` checks
that the two agree.  For each per-layer metric, ``moves`` names the
end-to-end metrics a change to that layer should move, ``on`` the
workload where they should move, and ``flat_on`` the workloads where they
should stay put.
"""

from __future__ import annotations

import math
import statistics
import subprocess
import sys
import time

# (name, unit, better)
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("op_tail_ms", "ms", "lower"),
    ("cpu_ms_per_op", "ms", "lower"),
    ("ok_share", "1", "higher"),
    ("peak_rss_mib", "MiB", "lower"),
)

_CF, _OV, _WE, _CC = "closed_form_sweep", "oracle_validate", "wavefunction_export", "cli_cold"
_RATE = ("ops_per_s", "op_p50_ms")

# (name, unit, better, moves, on, flat_on)
PER_LAYER = (
    ("params.reduce.us", "us", "lower", _RATE, _CF, (_OV,)),
    ("isolated.solve_wells.us", "us", "lower", ("ops_per_s",), _CF, (_OV,)),
    ("isolated.coupling.us", "us", "lower", ("ops_per_s",), _CF, (_OV,)),
    ("tunneling.solve_r0.us", "us", "lower", _RATE, _CF, (_WE, _OV)),
    ("tunneling.correct_energy.us", "us", "lower", _RATE, _CF, (_WE, _OV)),
    ("tunneling.splitting.us", "us", "lower", _RATE, _CF, (_WE, _OV)),
    ("tunneling.solve_double_well.us", "us", "lower", _RATE, _CF, (_WE, _OV)),
    ("tunneling.solve_double_well.self_us", "us", "lower", _RATE, _CF, (_WE, _OV)),
    ("perturb.symmetric_base.us", "us", "lower", ("ops_per_s",), _CF, (_OV, _WE, _CC)),
    ("perturb.perturbed_levels.us", "us", "lower", ("ops_per_s",), _CF, (_OV, _WE, _CC)),
    ("perturb.delta_ledger.us", "us", "lower", ("ops_per_s",), _CF, (_OV, _WE, _CC)),
    ("perturb.invert_ratio.us", "us", "lower", ("ops_per_s",), _CF, (_OV, _WE, _CC)),
    ("perturb.two_level_check.us", "us", "lower", ("ops_per_s",), _CF, (_OV, _WE, _CC)),
) + tuple(
    (name, unit, "lower", ("ops_per_s", "op_tail_ms", "peak_rss_mib"), _WE, (_CF,))
    for name, unit in (
        ("wavefunc.assemble.us", "us"),
        ("wavefunc.evaluate.ns_per_point.n1e4", "ns"),
        ("wavefunc.evaluate.ns_per_point.n1e6", "ns"),
        ("wavefunc.derivative.ns_per_point.n1e4", "ns"),
        ("wavefunc.derivative.ns_per_point.n1e6", "ns"),
        ("wavefunc.probabilities.us", "us"),
        ("wavefunc.sample.us", "us"),
        ("wavefunc.write_sample_csv.us_per_row", "us"),
        ("wavefunc.evaluate.bytes_computed", "B"),
    )
) + tuple(
    (name, unit, "lower", ("ops_per_s", "op_p50_ms", "cpu_ms_per_op"), _OV, (_CF,))
    for name, unit in (
        ("oracle.shoot.us", "us"),
        ("oracle.shoot.calls_per_compare", "count"),
        ("oracle.find_level.ground.ms", "ms"),
        ("oracle.find_level.excited.ms", "ms"),
        ("oracle.compare.ms", "ms"),
        ("oracle.compare.unaccounted_ms", "ms"),
    )
) + tuple(
    (name, "ms", "lower", ("op_p50_ms", "cpu_ms_per_op", "setup_s"), _CC, (_CF, _OV, _WE))
    for name in (
        "cli.interp_ms",
        "cli.import_doublewell_ms",
        "cli.import_numpy_ms",
        "cli.main_warm_ms.solve",
        "cli.main_warm_ms.perturb",
        "cli.main_warm_ms.sample",
        "cli.main_warm_ms.paper-example",
        "cli.main_warm_ms.oracle",
    )
) + tuple(
    (name, "count", "lower", ("ok_share",), "all", ())
    for name in ("checks.refused", "checks.crashed", "checks.wrong")
) + (
    ("trace.ops_per_s.untraced", "1/s", "higher", ("ops_per_s",), "all", ()),
    ("trace.ops_per_s.traced", "1/s", "higher", ("ops_per_s",), "all", ()),
    ("trace.overhead_ops_per_s", "1/s", "lower", (), "all", ()),
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}

# Fixed per workload, so a faster change (more samples) is not measured at
# a higher percentile.  Each leaves at least 10 samples beyond it in a run
# at the parent commit's speed.  closed_form_sweep could afford p99.9, but
# there single preemptions by other tenants of the machine decide it.
TAIL_PERCENTILE = {
    "closed_form_sweep": 99.0,
    "oracle_validate": 90.0,
    "wavefunction_export": 97.0,
    "cli_cold": 80.0,
}


def percentile(ordered, p: float) -> float:
    """Linear-interpolated percentile of an ascending sequence."""
    pos = (len(ordered) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


# The shared machine the bounds were set on changes speed by up to 2x in
# phases lasting seconds to minutes, and the slowdown hits all code alike
# (interpreted, numpy, process start).  Each worker therefore times a
# fixed pure-Python reference loop every REFERENCE_EVERY_S between ops and
# scales each op's times by REFERENCE_S / (running median of the latest
# reference timings): seconds at the speed where the loop takes
# REFERENCE_S, about the machine's undisturbed speed.  Unscaled figures are
# kept beside the scaled ones.
REFERENCE_ITERATIONS = 4000
REFERENCE_S = 0.00035
REFERENCE_EVERY_S = 0.1


def _reference_loop() -> float:
    total = 0.0
    for k in range(REFERENCE_ITERATIONS):
        total += math.sin(k * 1e-3)
    return total


def time_reference() -> float:
    """Median of three timings of the reference loop, in seconds."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        _reference_loop()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


# cli_cold's ops are child processes.  Their start-up (exec, dynamic
# loading, page faults) follows the machine's phases far more closely than
# the in-process loop does, so that workload is scaled by a bare
# interpreter start instead, which never loads the library.
PROCESS_REFERENCE_ARGV = (sys.executable, "-I", "-S", "-c", "pass")
PROCESS_REFERENCE_S = 0.011


def time_process_reference() -> float:
    """One timing of a bare interpreter start and exit, in seconds."""
    t0 = time.perf_counter()
    subprocess.run(PROCESS_REFERENCE_ARGV, stdin=subprocess.DEVNULL, check=True)
    return time.perf_counter() - t0


def reference(in_process: bool) -> tuple:
    """(timing function, reference seconds) of a workload's scaling."""
    if in_process:
        return time_reference, REFERENCE_S
    return time_process_reference, PROCESS_REFERENCE_S


def summarize(loops: list, tail_percentile: float, setups: list | None = None) -> dict:
    """Loop metrics over one or more workers' raw loop records.

    Times are scaled to the reference speed op by op (set-up time by the
    worker's median scale).  Rates, medians, CPU per op, set-up time and
    peak memory are the median over workers, so one disturbed worker moves
    them little; the tail is taken over the pooled latencies, which need
    the samples.
    ``raw`` holds the same figures unscaled.
    """
    setups = setups or [None] * len(loops)

    def figures(scaled: bool) -> dict:
        workers, pooled = [], []
        for loop, setup in zip(loops, setups):
            scales = loop["scales"] if scaled else [1.0] * len(loop["scales"])
            times = [t * s for t, s in zip(loop["latencies_s"], scales)]
            cpu = loop["cpu_scaled_s"] if scaled else loop["cpu_s"]
            worker = {
                "ops_per_s": (len(times) - loop["failed"]) / sum(times),
                "op_p50_ms": statistics.median(times) * 1e3,
                "cpu_ms_per_op": cpu / len(times) * 1e3,
            }
            if setup is not None:
                worker["setup_s"] = setup * statistics.median(scales)
            workers.append(worker)
            pooled.extend(times)
        out = {name: statistics.median(w[name] for w in workers) for name in workers[0]}
        pooled.sort()
        tail = percentile(pooled, tail_percentile)
        out["op_tail_ms"] = tail * 1e3
        out["op_tail_beyond"] = sum(1 for v in pooled if v > tail)
        return out

    attempted = sum(len(loop["latencies_s"]) for loop in loops)
    failed = sum(loop["failed"] for loop in loops)
    categories, causes = {}, {}
    for loop in loops:
        for total, part in ((categories, loop["categories"]), (causes, loop["causes"])):
            for key, count in part.items():
                total[key] = total.get(key, 0) + count
    out = figures(scaled=True)
    out.update(
        op_tail_percentile=tail_percentile,
        attempted=attempted,
        failed=failed,
        ok_share=(attempted - failed) / attempted,
        fail_share=failed / attempted,
        peak_rss_mib=statistics.median(loop["peak_rss_mib"] for loop in loops),
        categories=categories,
        causes=causes,
        speed_scales=[statistics.median(loop["scales"]) for loop in loops],
        raw=figures(scaled=False),
    )
    return out
