"""Tests of the benchmark itself (not of the library).

Run from the root of a checkout::

    python3 bench/selftest.py

They check that the generator is deterministic, that each output check
rejects a planted wrong result, and that every metric named in
``BENCHMARK.json`` appears in the output of an untraced and a traced run.
The file name keeps it out of the repository's own pytest collection.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
import tempfile
import unittest
from unittest import mock

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [BENCH_DIR, os.path.join(ROOT, "src")]

import metrics as catalogue  # noqa: E402
import specgen  # noqa: E402
import workloads as wl  # noqa: E402
from doublewell import perturb, tunneling, wavefunc  # noqa: E402


def first(workload: str, kind: str, **fields) -> dict:
    """First core entry of a workload (seed 3) of a kind and given fields."""
    for entry in specgen.generate(workload, 3)["core"]:
        if entry["kind"] == kind and all(entry.get(k) == v for k, v in fields.items()):
            return entry
    raise LookupError(kind)


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for name in specgen.PLANS:
            self.assertEqual(specgen.generate(name, 11), specgen.generate(name, 11))
            self.assertNotEqual(specgen.generate(name, 11), specgen.generate(name, 12))

    def test_kinds_in_equal_shares_per_block(self):
        core = specgen.generate("closed_form_sweep", 5)["core"]
        for start in range(0, len(core), specgen.BLOCK):
            kinds = [e["kind"] for e in core[start:start + specgen.BLOCK]]
            self.assertEqual({k: kinds.count(k) for k in specgen.KINDS},
                             dict.fromkeys(specgen.KINDS, specgen.BLOCK // 3))

    def test_core_opacities_inside_their_plan(self):
        for name, plan in specgen.PLANS.items():
            for entry in specgen.generate(name, 2)["core"]:
                if entry.get("command", "").startswith("bad_"):
                    continue
                if entry.get("command", "").startswith("perturb_"):
                    lo, hi = specgen.PERTURB_OPACITY
                else:
                    lo, hi = plan["core"][entry["kind"]]
                self.assertTrue(lo <= entry["opacity"] <= hi, (name, entry["opacity"]))

    def test_phase_root_solves_the_phase_equation(self):
        import math

        y = specgen.phase_root(0.8, 0.5)
        residual = math.asin(0.8 * y) + math.asin(0.5 * y) + math.pi * y - math.pi
        self.assertLess(abs(residual), 1e-14)


class PlantedDefectTest(unittest.TestCase):
    """Each check passes the real output and rejects a planted wrong one."""

    def run_op(self, workload, entry):
        with tempfile.TemporaryDirectory() as workdir:
            item = workload.prepare(entry, workdir)
            workload.check(item, workload.op(item))

    def assert_rejects(self, workload, entry, cause):
        with self.assertRaises(wl.CheckFailed) as ctx:
            self.run_op(workload, entry)
        self.assertEqual(ctx.exception.cause, cause)

    def test_zero_splitting(self):
        entry = first("closed_form_sweep", "asymmetric")
        self.run_op(wl.ClosedFormSweep(), entry)
        real = tunneling.splitting

        def zero(ground, excited):
            return dataclasses.replace(real(ground, excited), delta_e=0.0)

        with mock.patch.object(tunneling, "splitting", zero):
            self.assert_rejects(wl.ClosedFormSweep(), entry, "delta_e_not_positive")

    def test_swapped_localization(self):
        entry = first("closed_form_sweep", "symmetric")
        self.run_op(wl.ClosedFormSweep(), entry)
        real = perturb.perturbed_levels

        def swapped(base, delta_v):
            levels = real(base, delta_v)
            return dataclasses.replace(levels, prob_ratio=1.0 / levels.prob_ratio)

        with mock.patch.object(perturb, "perturbed_levels", swapped):
            self.assert_rejects(wl.ClosedFormSweep(), entry, "invert_ratio_round_trip")

    def test_discontinuous_psi(self):
        entry = first("wavefunction_export", "asymmetric", grid_points=1_000)
        workload = wl.WavefunctionExport()
        self.run_op(workload, entry)
        real = wavefunc.assemble

        def broken(spec, reduced, solution):
            model = real(spec, reduced, solution)
            return dataclasses.replace(model, amp_4=model.amp_4 * 1.001)

        with mock.patch.object(wavefunc, "assemble", broken):
            self.assert_rejects(workload, entry, "psi_discontinuous")

    def test_mirror_drift(self):
        entry = first("wavefunction_export", "symmetric", grid_points=1_000)
        workload = wl.WavefunctionExport()
        self.run_op(workload, entry)

        with mock.patch.object(wavefunc, "probabilities", lambda m: (0.5 + 1e-9, 0.5 - 1e-9)):
            self.assert_rejects(workload, entry, "mirror_symmetry_drift")

    def test_oracle_example_mismatch(self):
        workload = wl.OracleValidate()
        item = workload.prepare(wl.example_entry(), "")
        good = workload.op(item)
        workload.check(item, good)
        # Both levels moved together: only the frozen mpmath values catch it.
        shift = 1e-12 * good.e1_exact
        bad = dataclasses.replace(good, e1_exact=good.e1_exact + shift,
                                  e1_approx=good.e1_approx + shift)
        with self.assertRaises(wl.CheckFailed) as ctx:
            workload.check(item, bad)
        self.assertEqual(ctx.exception.cause, "example_mismatch")

    def test_wrong_exit_code(self):
        workload = wl.CliCold(ROOT)
        with tempfile.TemporaryDirectory() as workdir:
            for command, code in (("bad_thin", 0), ("solve", 3)):
                entry = first("cli_cold", "symmetric", command=command)
                item = workload.prepare(entry, workdir)
                proc = subprocess.CompletedProcess([], code, stdout="", stderr="error: x")
                with self.assertRaises(wl.CheckFailed) as ctx:
                    workload.check(item, proc)
                self.assertEqual(ctx.exception.cause, "wrong_exit_code")

    def test_classify(self):
        from doublewell import LevelNotFound

        self.assertEqual(wl.classify(LevelNotFound("x")), ("refused", "LevelNotFound"))
        self.assertEqual(wl.classify(OverflowError()), ("crashed", "OverflowError"))
        self.assertEqual(wl.classify(wl.CheckFailed("c")), ("wrong", "c"))


class OutputTest(unittest.TestCase):
    """Every metric of BENCHMARK.json appears in a short run's result."""

    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            cls.manifest = json.load(fh)

    def test_manifest_matches_catalogue(self):
        for key, table in (("end_to_end", catalogue.END_TO_END), ("per_layer", catalogue.PER_LAYER)):
            listed = [(m["name"], m["unit"], m["better"]) for m in self.manifest[key]]
            self.assertEqual(listed, [row[:3] for row in table])
        self.assertEqual([w["name"] for w in self.manifest["workloads"]], list(specgen.PLANS))

    def test_every_metric_in_both_runs(self):
        for workload in specgen.PLANS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    proc = subprocess.run(
                        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
                         "--seed", "4", "--seconds", "0.5", "--trace", str(trace)],
                        cwd=ROOT, capture_output=True, text=True, timeout=300,
                    )
                    self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                    result = json.loads(proc.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(list(result["metrics"]), [m["name"] for m in self.manifest[key]])
                    for name, metric in result["metrics"].items():
                        self.assertEqual(metric["unit"], catalogue.UNITS[name])


if __name__ == "__main__":
    unittest.main()
