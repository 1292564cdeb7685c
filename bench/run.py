"""Benchmark of the doublewell library and CLI.

Run from the root of a checkout::

    python3 bench/run.py --workload closed_form_sweep --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 10 --trace 0

Workloads (see ``BENCHMARK.json`` and ``bench/README.md``):
``closed_form_sweep``, ``oracle_validate``, ``wavefunction_export`` and
``cli_cold``, each a closed loop with one client.  With ``--trace 0`` the
result holds the end-to-end metrics, measured with tracing off; with
``--trace 1`` it holds the per-layer metrics of a separate traced run.

Each workload runs in fresh worker processes (``bench/worker.py``) that
import the library from ``src/`` of the checkout.  Set-up time is taken
from process start to the first timed op, as the median of several
workers.  The last line of stdout is the result as one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it is a JSON record of the inputs, environment, failure causes and
the known-defect census.  A missing library or a failed worker exits
non-zero without a result.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import signal
import subprocess
import sys
import time

import metrics as catalogue
import specgen

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("closed_form_sweep", "oracle_validate", "wavefunction_export", "cli_cold")
# Worker processes per run, one after the other: each is set up (and
# timed) from scratch and measures for an equal share of --seconds.
WORKERS = 5
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
WORKER_TIMEOUT_S = 150

class BenchError(Exception):
    """The benchmark could not produce a result."""


def _worker(workload: str, seed: int, seconds: float, mode: str, *extra: str):
    """Run one worker; returns (monotonic spawn time, its JSON result)."""
    argv = [
        sys.executable, os.path.join(BENCH_DIR, "worker.py"), "--root", ROOT,
        "--workload", workload, "--seed", str(seed), "--seconds", repr(seconds), "--mode", mode,
        *extra,
    ]
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), **BLAS_THREADS)
    spawned = time.monotonic()
    with subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{workload} worker ({mode}) timed out") from exc
        finally:
            if proc.poll() is None:
                # SIGTERM first, so the worker removes its temporary directory.
                proc.terminate()
                try:
                    proc.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    proc.kill()
    if proc.returncode != 0 or not stdout.strip():
        raise BenchError(f"{workload} worker ({mode}) exited {proc.returncode}:\n{stderr[-2000:]}")
    return spawned, json.loads(stdout.strip().splitlines()[-1])


def environment() -> dict:
    """Machine, interpreter and source facts recorded with every result."""
    cpu_model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    src_lines = 0
    for dirpath, _, files in os.walk(os.path.join(ROOT, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), encoding="utf-8") as fh:
                    src_lines += sum(1 for _ in fh)
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "git_commit": _git_commit(),
        "blas_threads_env": BLAS_THREADS,
        "src_lines": src_lines,
    }


def _git_commit() -> str:
    """HEAD of the checkout read from ``.git`` directly, or "unknown"."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One workload's result record (metrics plus the detail behind them)."""
    if trace:
        _, result = _worker(workload, seed, seconds, "trace")
        loop = result["traced"]
        measured = result["per_layer"]
        names = [name for name, *_ in catalogue.PER_LAYER]
        setups = []
    else:
        setups, loops = [], []
        pool = specgen.PLANS[workload]["pool"]
        for index in range(WORKERS):
            # Each worker starts at its own share of the inputs; the last
            # one also runs the census.
            extra = ["--start", str(index * pool // WORKERS)]
            if index == WORKERS - 1:
                extra.append("--census")
            spawned, result = _worker(workload, seed, seconds / WORKERS, "measure", *extra)
            setups.append(result["ready"] - spawned)
            loops.append(result["loop"])
        loop = catalogue.summarize(loops, catalogue.TAIL_PERCENTILE[workload], setups)
        measured = loop
        names = [name for name, *_ in catalogue.END_TO_END]
    missing = [name for name in names if measured.get(name) is None]
    if missing:
        raise BenchError(f"{workload}: no value for {', '.join(missing)}")
    metrics = {name: measured[name] for name in names}
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "metrics": metrics,
        "loop": {k: v for k, v in loop.items() if k not in metrics},
        "census": result["census"],
        "setup_runs_s": setups,
        "sources": result.get("sources", {}),
    }


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def row(record: dict) -> str:
    """Printed rows of a workload: every metric with its unit, then checks."""
    loop, census = record["loop"], record["census"]
    indent = " " * 21
    if record["trace"]:
        lines = ["  ".join(f"{k}={_fmt(v)} {catalogue.UNITS[k]}" for k, v in record["metrics"].items())]
    else:
        cells = []
        for name, unit, _ in catalogue.END_TO_END:
            cell = f"{name}={_fmt(record['metrics'][name])} {unit}"
            if name == "op_tail_ms":
                cell += (f" (p{loop['op_tail_percentile']:g}, N={loop['attempted']},"
                         f" {loop['op_tail_beyond']} beyond)")
            cells.append(cell)
        cells.append(f"fail_share={_fmt(loop['fail_share'])} 1")
        raw = loop["raw"]
        scales = ", ".join(f"{s:.3f}" for s in loop["speed_scales"])
        lines = [
            "  ".join(cells),
            indent + "unscaled: " + "  ".join(
                f"{name}={_fmt(raw[name])} {catalogue.UNITS[name]}"
                for name in sorted(raw) if name in catalogue.UNITS
            ) + f"  (speed scales {scales})",
        ]
    causes = ", ".join(f"{k} {v}" for k, v in sorted(census["causes"].items())) or "none"
    lines.append(
        f"{indent}checks: {loop['attempted'] - loop['failed']}/{loop['attempted']} ops passed "
        f"{_fmt(loop['causes'] or 'all')}; known-defect census: {census['failed']}/"
        f"{census['attempted']} failed ({causes})"
    )
    return f"{record['workload']:<20} " + "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "doublewell", "__init__.py")):
        print(f"error: no library sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        records = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    env = environment()
    for record in records:
        print(row(record))
    for record in records:
        record["inputs"] = specgen.describe(record["workload"])
        record["environment"] = env
        print(json.dumps(record, sort_keys=True))
    prefix = len(records) > 1
    metrics = {
        (f"{r['workload']}.{name}" if prefix else name): {"value": value, "unit": catalogue.UNITS[name]}
        for r in records
        for name, value in r["metrics"].items()
    }
    print(json.dumps({
        "correct": all(r["loop"]["failed"] == 0 for r in records),
        "attempted": sum(r["loop"]["attempted"] for r in records),
        "failed": sum(r["loop"]["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    # SIGTERM unwinds like an exception, so subprocess.run kills and
    # reaps the child it is waiting for.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main())
