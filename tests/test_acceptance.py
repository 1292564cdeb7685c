"""End-to-end acceptance gate.

Each test prints exactly one PASS/FAIL line for its criterion (visible
even under capture) and then asserts, so a failing criterion is both
human-readable in the run log and fatal to the suite.
"""

import math
import random
import time
from dataclasses import replace

import numpy as np

from doublewell import (
    Parity,
    assemble,
    coupling,
    evaluate,
    find_level,
    compare,
    newton_step,
    newton_initial,
    perturbed_levels,
    probabilities,
    reduce,
    series_y,
    solve_double_well,
    solve_r0,
    solve_wells,
    solve_y,
    symmetric_base,
    tunneling,
    two_level_check,
    delta_ledger,
)
from doublewell.wavefunc import _boundary_pairs
from genspecs import EXAMPLE_SPEC, mixed_spec_batch, random_symmetric_spec
from test_perturb import _finite_difference_shifts


def announce(capsys, number, ok, detail):
    with capsys.disabled():
        print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def rel_err(got, expected):
    return abs(got - expected) / abs(expected)


class TestAcceptance:
    def test_criterion_1_example_constants(self, capsys):
        def compute():
            red = reduce(EXAMPLE_SPEC)
            left, right = solve_wells(red)
            joint = coupling(left, right)
            base = symmetric_base(EXAMPLE_SPEC)
            return red, left, joint, base

        compute()  # warm-up
        start = time.perf_counter()
        red, left, joint, base = compute()
        elapsed = time.perf_counter() - start

        checks = [
            ("a", rel_err(left.a_coef, 18.1379936423) < 1e-10),
            ("b", rel_err(left.b_coef, 6.04599788078) < 1e-10),
            ("U", rel_err(left.u_cap, 0.96691295084) < 1e-10),
            # the printed reference rounds one digit wrong; the closed form
            # 3*sqrt(3)/(4*(pi+sqrt(3))) fixes the 10th decimal
            ("c", rel_err(left.c_coef, 0.266543524579) < 1e-10),
            ("P", rel_err(joint.p_cap, 2.59700181808) < 1e-10),
            ("gamma", rel_err(red.gamma_m1, 0.507626296843) < 1e-10),
            ("G", rel_err(base.g_coef, 0.911152158473) < 1e-10),
            ("F", abs(base.f_coef) < 1e-12),
            ("runtime", elapsed < 1e-3),
        ]
        failing = [name for name, ok in checks if not ok]
        announce(
            capsys, 1, not failing,
            f"worked-example constants to 1e-10 in {elapsed * 1e3:.3f} ms"
            + (f" (failing: {', '.join(failing)})" if failing else ""),
        )

    def test_criterion_2_fixed_point(self, capsys, monkeypatch):
        red = reduce(EXAMPLE_SPEC)
        left, right = solve_wells(red)
        joint = coupling(left, right)
        # A step limit of 4 makes the iteration-count bound a hard failure mode
        monkeypatch.setattr(tunneling, "MAX_ITER_R", 4)
        r0, p_small = solve_r0(Parity.GROUND, left.a_coef, right.a_coef, joint.p_cap)
        ok = (
            rel_err(r0, 18.1379936637) < 1e-9
            and rel_err(p_small, 4.57099905795e-16) < 1e-9
            and rel_err(math.sqrt(p_small), 2.13798948967e-8) < 1e-9
        )
        announce(
            capsys, 2, ok,
            f"fixed point r0={r0:.12g}, p={p_small:.12g} within 1e-9 in <= 4 iterations",
        )

    def test_criterion_3_splitting(self, capsys):
        base = symmetric_base(EXAMPLE_SPEC)
        res = solve_double_well(EXAMPLE_SPEC)
        e0_ratio = res.splitting.e0 / base.e_bar
        e1_ratio = res.splitting.e1 / base.e_bar
        ok = (
            rel_err(base.delta_e, 1.76810307565e-9) < 1e-9
            and rel_err(base.delta_e / base.e_bar, 7.07241230258e-9) < 1e-9
            and abs(e0_ratio - 0.999999992928) < 1e-11
            and abs(e1_ratio - 1.000000007072) < 1e-11
        )
        announce(
            capsys, 3, ok,
            f"half-splitting {base.delta_e:.12g} and level ratios "
            f"{e0_ratio:.12f}/{e1_ratio:.12f}",
        )

    def test_criterion_4_perturbation(self, capsys):
        base = symmetric_base(EXAMPLE_SPEC)
        one = perturbed_levels(base, 1.0 * base.delta_e)
        two = perturbed_levels(base, 2.0 * base.delta_e)
        micro = perturbed_levels(base, 1e-6 * base.e_bar)
        sqrt_term = math.hypot(1.0, micro.z_asym)
        ok = (
            rel_err(one.prob_ratio, 5.12569762924) < 1e-9
            and rel_err(one.e0 / base.e_bar, 0.999999990432) < 1e-9
            and rel_err(two.prob_ratio, 15.2174580971) < 1e-9
            and rel_err(sqrt_term, 128.835758903) < 1e-9
            and abs(micro.prob_ratio - 66393.0) <= 1.0
        )
        announce(
            capsys, 4, ok,
            f"localization ratios {one.prob_ratio:.12g} / {two.prob_ratio:.12g} / "
            f"{micro.prob_ratio:.12g}",
        )

    def test_criterion_5_newton_trace(self, capsys):
        red = reduce(EXAMPLE_SPEC)
        alpha_i, alpha_o = red.alpha_m1, red.alpha_m3
        gamma_i, gamma_o = red.gamma_m1, red.gamma_m3
        y = newton_initial(alpha_i, alpha_o, gamma_i, gamma_o)
        iterates = [alpha_i * y]
        for _ in range(2):
            y = newton_step(y, alpha_i, alpha_o)
            iterates.append(alpha_i * y)
        series_s = alpha_i * series_y(alpha_i, alpha_o, gamma_i, gamma_o)
        exact_s = alpha_i * solve_y(alpha_i, alpha_o)
        series_rel_err = rel_err(series_s, exact_s)
        ok = (
            rel_err(iterates[0], 0.500580902268) < 1e-9
            and rel_err(iterates[1], 0.500000040032) < 1e-9
            and rel_err(iterates[2], 0.5) < 1e-12
            and rel_err(series_s, 0.500008388946) < 1e-9
            # the reference for the series error itself carries only seven
            # significant digits, so it is matched at print precision
            and abs(series_rel_err - 1.677789e-5) < 1e-11
        )
        announce(
            capsys, 5, ok,
            f"arcsine iterates {iterates[0]:.12f} -> {iterates[1]:.12f} -> "
            f"{iterates[2]:.12f}; series value {series_s:.12f} "
            f"(rel err {series_rel_err:.6e})",
        )

    def test_criterion_6_oracle_agreement(self, capsys):
        start = time.perf_counter()
        report = compare(EXAMPLE_SPEC, tol_rel=1e-13)
        example_ok = report.err_e0 < 1e-9 and report.err_e1 < 1e-9

        family_errs = []
        family_bounds = []
        for mult in (2.0, 3.0, 4.0):
            spec = replace(EXAMPLE_SPEC, w_0=mult * EXAMPLE_SPEC.w_2)
            res = solve_double_well(spec)
            e0 = find_level(spec, Parity.GROUND)
            e1 = find_level(spec, Parity.EXCITED)
            scale = abs(0.5 * (e0 + e1))
            err = max(
                abs(res.splitting.e0 - e0), abs(res.splitting.e1 - e1)
            ) / scale
            family_errs.append(err)
            family_bounds.append(10.0 * math.exp(-2.0 * res.ground.r0))
        elapsed = time.perf_counter() - start
        family_ok = all(
            err < bound for err, bound in zip(family_errs, family_bounds)
        ) and all(b < a for a, b in zip(family_errs, family_errs[1:]))
        ok = example_ok and family_ok and elapsed < 10.0
        announce(
            capsys, 6, ok,
            f"oracle errors e0={report.err_e0:.3g}, e1={report.err_e1:.3g}; "
            f"thin-barrier errors {', '.join(f'{e:.3g}' for e in family_errs)} "
            f"under bounds {', '.join(f'{b:.3g}' for b in family_bounds)} "
            f"in {elapsed:.2f} s",
        )

    def test_criterion_7_invariant_suites(self, capsys):
        start = time.perf_counter()
        problems = []

        # continuity, node counts, and probability sums on 20 random specs
        for index, spec in enumerate(mixed_spec_batch(seed=71, count=20)):
            red = reduce(spec)
            res = solve_double_well(spec)
            for level, expected_nodes in ((res.ground, 0), (res.excited, 1)):
                model = assemble(spec, red, level)
                value_scale = max(model.amp_m2, model.amp_2)
                slope_scale = max(
                    model.amp_m2 * model.k_m2, model.amp_2 * model.k_2
                )
                for x, (v_l, s_l), (v_r, s_r) in _boundary_pairs(model):
                    if (
                        abs(v_l - v_r) > 1e-10 * value_scale
                        or abs(s_l - s_r) > 1e-10 * slope_scale
                    ):
                        problems.append(f"continuity spec {index} at x={x:.3g}")
                xs = np.linspace(spec.x_m3, spec.x_3, 4001)
                signs = np.sign(evaluate(model, xs))
                signs = signs[signs != 0]
                if int(np.sum(signs[1:] != signs[:-1])) != expected_nodes:
                    problems.append(f"node count spec {index}")
                p_left, p_right = probabilities(model)
                if abs(p_left + p_right - 1.0) > 1e-12:
                    problems.append(f"probability sum spec {index}")

        # localization-ratio reciprocity and two-level residuals on a v grid
        base = symmetric_base(EXAMPLE_SPEC)
        v_grid = (0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 50.0, 100.0, 141.394471534)
        for v in v_grid:
            plus = perturbed_levels(base, v * base.delta_e)
            minus = perturbed_levels(base, -v * base.delta_e)
            if abs(plus.prob_ratio * minus.prob_ratio - 1.0) > 1e-10:
                problems.append(f"ratio reciprocity v={v}")
            for delta_v in (v * base.delta_e, -v * base.delta_e):
                res0, res1 = two_level_check(base, delta_v)
                if max(res0, res1) > 1e-9:
                    problems.append(f"two-level residual v={v}")

        # first-order ledger against central finite differences
        rng = random.Random(72)
        for index in range(5):
            spec = random_symmetric_spec(rng)
            spec_base = symmetric_base(spec)
            red = reduce(spec)
            h = 1e-8 * spec_base.min_depth
            ledger = delta_ledger(spec_base, red, h)
            fd = _finite_difference_shifts(spec, h)
            for key, expected in fd.items():
                if abs(getattr(ledger, key) - expected) > 1e-4 * abs(expected):
                    problems.append(f"ledger {key} spec {index}")

        elapsed = time.perf_counter() - start
        ok = not problems and elapsed < 60.0
        announce(
            capsys, 7, ok,
            f"continuity/node/probability/reciprocity/two-level/ledger checks "
            f"on 20+5 random specs and a 9-point grid in {elapsed:.2f} s"
            + (f" (problems: {'; '.join(problems[:4])})" if problems else ""),
        )
