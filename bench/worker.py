"""One benchmark process: set up a workload, then time it or trace it.

Started by ``run.py``; not meant to be run by hand.  After set-up
(interpreter start, ``import doublewell``, input generation, warm-up) the
worker records the monotonic time it became ready, so the parent can time
set-up from process start.  ``--mode measure`` then runs the closed loop
for ``--seconds`` and, with ``--census``, the known-defect census;
``--mode trace`` runs the loop untraced and traced for half the time
each, and adds per-layer metrics.  The result is one JSON line on stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import sys
import tempfile
import time
from array import array
from collections import Counter, deque


import doublewell

import metrics as catalogue
import specgen
import tracer as tracing
import workloads as wl

# Layer of a per-layer metric -> the workload whose traced pass measures
# it when the traced workload never calls that layer.
PROBE_WORKLOAD = {
    "params": "closed_form_sweep",
    "isolated": "closed_form_sweep",
    "tunneling": "closed_form_sweep",
    "perturb": "closed_form_sweep",
    "wavefunc": "wavefunction_export",
    "oracle": "oracle_validate",
}


def _parse() -> argparse.Namespace:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("measure", "trace"), required=True)
    parser.add_argument("--start", type=int, default=0, help="index of the first input timed")
    parser.add_argument("--census", action="store_true", help="also run the known-defect census")
    return parser.parse_args()


def _cpu_clock(in_process: bool):
    if in_process:
        return time.process_time

    def children() -> float:
        usage = resource.getrusage(resource.RUSAGE_CHILDREN)
        return usage.ru_utime + usage.ru_stime

    return children


def run_loop(workload, items, seconds: float, tracer=None, start: int = 0) -> dict:
    """Closed loop, one client: op after op over the items, in order,
    beginning at ``items[start]``."""
    in_process = getattr(workload, "in_process", True)
    cpu_clock = _cpu_clock(in_process)
    time_reference, reference_s = catalogue.reference(in_process)
    clock = time.perf_counter
    latencies = array("d")
    scales = array("d")
    recent_references: deque = deque(maxlen=5)
    cpu = cpu_scaled = 0.0
    failures: Counter = Counter()
    categories: Counter = Counter()
    i = start
    deadline = clock() + seconds
    next_reference = clock()
    while True:
        if clock() >= next_reference:
            # Each op is scaled by the running median of the latest
            # reference timings, so a slow phase of the machine is
            # compensated where it happens.
            recent_references.append(time_reference())
            scale = reference_s / statistics.median(recent_references)
            next_reference = clock() + catalogue.REFERENCE_EVERY_S
        item = items[i % len(items)]
        i += 1
        error = None
        c0 = cpu_clock()
        t0 = clock()
        try:
            output = workload.op(item)
        except Exception as exc:  # every failure is counted, none aborts the run
            error = exc
        t1 = clock()
        op_cpu = cpu_clock() - c0
        cpu += op_cpu
        cpu_scaled += op_cpu * scale
        latencies.append(t1 - t0)
        scales.append(scale)
        if error is None:
            error = _check(workload, item, output, tracer)
        output = None
        if error is not None:
            category, cause = wl.classify(error)
            categories[category] += 1
            failures[f"{category}:{cause}"] += 1
        if t1 >= deadline:
            break
    usage = resource.getrusage(resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN)
    return {
        "latencies_s": latencies.tolist(),
        "scales": scales.tolist(),
        "cpu_s": cpu,
        "cpu_scaled_s": cpu_scaled,
        "failed": sum(categories.values()),
        "categories": dict(categories),
        "causes": dict(failures),
        "peak_rss_mib": usage.ru_maxrss / 1024.0,
    }


def _check(workload, item, output, tracer=None) -> Exception | None:
    """The output check's exception, if any.  The tracer is paused, so
    only ops leave spans."""
    if tracer is not None:
        tracer.active = False
    try:
        workload.check(item, output)
    except Exception as exc:
        return exc
    finally:
        if tracer is not None:
            tracer.active = True
    return None


def run_once(workload, item, tracer=None) -> tuple[str, str] | None:
    """(category, cause) if the op or its check fails, else None."""
    try:
        output = workload.op(item)
    except Exception as exc:
        return wl.classify(exc)
    error = _check(workload, item, output, tracer)
    return None if error is None else wl.classify(error)


def run_census(workload, items, tracer=None) -> dict:
    """Each known-defect input once through the same op and checks."""
    causes: Counter = Counter()
    categories: Counter = Counter()
    for item in items:
        outcome = run_once(workload, item, tracer)
        if outcome is not None:
            categories[outcome[0]] += 1
            causes[f"{outcome[0]}:{outcome[1]}"] += 1
    return {
        "attempted": len(items),
        "failed": sum(categories.values()),
        "fail_share": sum(categories.values()) / len(items) if items else 0.0,
        "categories": dict(categories),
        "causes": dict(causes),
    }


def _solves(spec) -> bool:
    try:
        doublewell.solve_double_well(spec)
    except Exception:
        return False
    return True


def core_entries(name: str, generated: dict) -> list:
    if name == "oracle_validate":
        return [wl.example_entry()] + generated["core"]
    return generated["core"]


def probe(name: str, seed: int, root: str, workdir: str) -> dict:
    """Span metrics of a short traced pass of another workload, used for
    layers the traced workload itself never calls."""
    workload = wl.make(name, root)
    entries = specgen.generate(name, seed)["core"]
    if name == "closed_form_sweep":
        entries = entries[:48]
    elif name == "oracle_validate":
        entries = entries[:2]
    else:
        entries = [dict(e, grid_points=n) for e, n in zip(entries[:4], (10_000, 10_000, 1_000_000, 1_000_000))]
    items = [workload.prepare(e, workdir) for e in entries]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for item in items:
            run_once(workload, item, tracer)
    finally:
        tracer.uninstall()
    return tracing.span_metrics(tracer)


def trace_run(args, workload, items, census_items, workdir) -> dict:
    root = os.path.abspath(args.root)
    half = args.seconds / 2.0
    untraced = run_loop(workload, items, half)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = run_loop(workload, items, half, tracer)
        census = run_census(workload, census_items, tracer)
    finally:
        tracer.uninstall()
    layers = tracing.span_metrics(tracer)
    sources = {k: args.workload for k, v in layers.items() if v is not None}
    missing = {PROBE_WORKLOAD[k.split(".", 1)[0]] for k, v in layers.items() if v is None}
    for group in sorted(missing):
        probed = probe(group, args.seed, root, workdir)
        for key, value in probed.items():
            if layers[key] is None and PROBE_WORKLOAD[key.split(".", 1)[0]] == group:
                layers[key] = value
                sources[key] = f"probe:{group}"

    specs = [item.spec for item in items if item.kind != "example"]
    solvable = [s for s in specs[:64] if _solves(s)]
    layers["tunneling.solve_double_well.self_us"] = statistics.median(
        tracing.replay_solve(s) for s in solvable
    ) * 1e6
    sources["tunneling.solve_double_well.self_us"] = "replay"
    oracle_entries = specgen.generate("oracle_validate", args.seed)["core"][:2]
    layers["oracle.compare.unaccounted_ms"] = statistics.median(
        tracing.replay_compare(doublewell.WellSpec(**e["spec"]), wl.ORACLE_TOL_REL)
        for e in oracle_entries
    ) * 1e3
    sources["oracle.compare.unaccounted_ms"] = "replay:oracle_validate"

    layers.update(tracing.cli_probes(root, workdir))
    categories = Counter(traced["categories"]) + Counter(census["categories"])
    for category in ("refused", "crashed", "wrong"):
        layers[f"checks.{category}"] = categories.get(category, 0)
    tail_p = catalogue.TAIL_PERCENTILE[args.workload]
    untraced = catalogue.summarize([untraced], tail_p)
    traced = catalogue.summarize([traced], tail_p)
    layers["trace.ops_per_s.untraced"] = untraced["ops_per_s"]
    layers["trace.ops_per_s.traced"] = traced["ops_per_s"]
    layers["trace.overhead_ops_per_s"] = untraced["ops_per_s"] - traced["ops_per_s"]
    return {"per_layer": layers, "sources": sources, "traced": traced, "census": census}


def main() -> int:
    args = _parse()
    root = os.path.abspath(args.root)
    expected = os.path.join(root, "src", "doublewell")
    if os.path.dirname(os.path.abspath(doublewell.__file__)) != expected:
        print(f"doublewell imported from {doublewell.__file__}, not {expected}", file=sys.stderr)
        return 2
    generated = specgen.generate(args.workload, args.seed)
    workload = wl.make(args.workload, root)
    with tempfile.TemporaryDirectory(prefix=".bench_tmp_", dir=root) as workdir:
        items = [workload.prepare(e, workdir) for e in core_entries(args.workload, generated)]
        census_items = [workload.prepare(e, workdir) for e in generated["census"]]
        for item in workload.warmup(items):
            run_once(workload, item)
        ready = time.monotonic()
        result = {"ready": ready}
        if args.mode == "measure":
            result["loop"] = run_loop(workload, items, args.seconds, start=args.start)
            if args.census:
                result["census"] = run_census(workload, census_items)
        else:
            result.update(trace_run(args, workload, items, census_items, workdir))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    # SIGTERM unwinds like an exception, so subprocess.run kills and
    # reaps the child it is waiting for.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main())
