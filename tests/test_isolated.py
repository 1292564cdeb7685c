"""Single-well phase equation: Newton solver, series, derived constants."""

import math
import random
import warnings

import pytest

from doublewell import (
    DomainError,
    NoConvergence,
    SeriesUnreliable,
    coupling,
    derive_well,
    newton_initial,
    newton_step,
    reduce,
    series_y,
    solve_double_well,
    solve_wells,
    solve_y,
)
from doublewell import isolated
from genspecs import EXAMPLE_SPEC, mixed_spec_batch, symmetric_spec
from oracles import bisect_phase_root, example_constants


def gamma_of(alpha_inner, alpha_outer, alpha):
    return math.pi * alpha / (math.pi + alpha_inner + alpha_outer)


COEFFICIENT_GRID = [
    (0.0, 0.0),
    (0.1, 0.05),
    (0.3, 0.3),
    (0.75, 0.75),
    (0.9, 0.2),
    (0.95, 0.95),
    (1.2, 0.4),
    (1.5, 1.5),      # binding only marginally (sum exactly at the threshold)
    (1.9, 0.05),
]


class TestSolveY:
    @pytest.mark.parametrize("alpha_inner,alpha_outer", COEFFICIENT_GRID)
    def test_matches_independent_bisection(self, alpha_inner, alpha_outer):
        y = solve_y(alpha_inner, alpha_outer)
        y_ref = bisect_phase_root(alpha_inner, alpha_outer)
        assert y == pytest.approx(y_ref, rel=1e-12)

    @pytest.mark.parametrize("alpha_inner,alpha_outer", COEFFICIENT_GRID)
    def test_residual_vanishes(self, alpha_inner, alpha_outer):
        y = solve_y(alpha_inner, alpha_outer)
        residual = (
            math.asin(min(1.0, alpha_inner * y))
            + math.asin(min(1.0, alpha_outer * y))
            + math.pi * y
            - math.pi
        )
        assert abs(residual) <= 1e-12 * math.pi

    def test_free_box_root_is_exactly_one(self):
        assert solve_y(0.0, 0.0) == 1.0

    def test_asymmetric_coefficients_are_order_independent(self):
        assert solve_y(0.9, 0.2) == pytest.approx(solve_y(0.2, 0.9), rel=1e-13)

    def test_no_root_raises_with_diagnostics(self):
        with pytest.raises(NoConvergence) as info:
            solve_y(3.0, 0.1)
        assert info.value.last_iterate is not None
        assert info.value.residual is not None

    def test_step_that_lands_at_zero_is_halved(self):
        # With both coefficients near the float64 maximum the step's
        # denominator pi + a_i / C_i + a_o / C_o overflows, so the first
        # Newton step lands at 0: solve_y halves the iterate instead, and
        # the halved point solves nothing.
        alpha = 1e308
        start = newton_initial(alpha, alpha)
        assert newton_step(start, alpha, alpha) == 0.0
        with pytest.raises(NoConvergence) as info:
            solve_y(alpha, alpha)
        assert info.value.last_iterate == 0.5 * start

    def test_random_specs_converge_and_match_bisection(self):
        for spec in mixed_spec_batch(seed=21, count=9):
            red = reduce(spec)
            for inner, outer in ((red.alpha_m1, red.alpha_m3), (red.alpha_1, red.alpha_3)):
                assert solve_y(inner, outer) == pytest.approx(
                    bisect_phase_root(inner, outer), rel=1e-12
                )


class TestNewtonIteration:
    def test_example_iterates_match_reference_sequence(self, example_spec):
        red = reduce(example_spec)
        alpha = red.alpha_m1
        y1 = newton_initial(alpha, alpha)
        y2 = newton_step(y1, alpha, alpha)
        y3 = newton_step(y2, alpha, alpha)
        assert alpha * y1 == pytest.approx(0.500580902268, rel=1e-9)
        assert alpha * y2 == pytest.approx(0.500000040032, rel=1e-9)
        assert alpha * y3 == pytest.approx(0.5, rel=1e-9)

    def test_initial_guess_is_inside_the_domain(self):
        rng = random.Random(5)
        for _ in range(50):
            ai = rng.uniform(0.0, 1.9)
            ao = rng.uniform(0.0, min(1.9, 2.0 - ai))
            y = newton_initial(ai, ao)
            assert 0.0 < y <= 1.0
            assert max(ai, ao) * y < 1.0 or max(ai, ao) == 0.0

    def test_step_rejects_out_of_domain_iterates(self):
        with pytest.raises(DomainError):
            newton_step(1.5, 0.9, 0.9)
        with pytest.raises(DomainError):
            newton_step(-0.1, 0.9, 0.9)


class TestSeries:
    def test_example_series_value(self, example_spec):
        red = reduce(example_spec)
        y = series_y(red.alpha_m1, red.alpha_m3)
        assert red.alpha_m1 * y == pytest.approx(0.500008388946, rel=1e-9)

    def test_example_series_error_scale(self, example_spec):
        red = reduce(example_spec)
        y_series = series_y(red.alpha_m1, red.alpha_m3)
        y_exact = solve_y(red.alpha_m1, red.alpha_m3)
        rel_err = abs(y_series - y_exact) / y_exact
        assert 1e-5 < rel_err < 2e-5

    def test_small_coefficients_are_very_accurate(self):
        ai = ao = 0.3
        y_series = series_y(ai, ao)
        y_exact = solve_y(ai, ao)
        assert y_series == pytest.approx(y_exact, rel=1e-6)

    def test_large_gamma_warns(self):
        ai = ao = 2.5  # marginally unbound shape: gamma > 0.9
        g = gamma_of(ai, ao, ai)
        assert g > 0.9
        with pytest.warns(SeriesUnreliable):
            series_y(ai, ao)

    def test_moderate_gamma_does_not_warn(self, example_spec):
        red = reduce(example_spec)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            series_y(red.alpha_m1, red.alpha_m3)


class TestDeriveWell:
    def test_example_constants(self, example_spec):
        red = reduce(example_spec)
        y = solve_y(red.alpha_m1, red.alpha_m3)
        well = derive_well(y, red.alpha_m1, red.alpha_m3, red.beta_m1)
        ref = example_constants()
        assert well.y_cap == pytest.approx(ref["y"], rel=1e-12)
        assert well.s_inner == pytest.approx(ref["s"], rel=1e-12)
        assert well.u_cap == pytest.approx(ref["u"], rel=1e-12)
        assert well.a_coef == pytest.approx(ref["a"], rel=1e-12)
        assert well.b_coef == pytest.approx(ref["b"], rel=1e-12)
        assert well.c_coef == pytest.approx(ref["c"], rel=1e-12)

    def test_internal_identities_on_random_specs(self):
        for spec in mixed_spec_batch(seed=22, count=9):
            red = reduce(spec)
            for inner, outer, beta in (
                (red.alpha_m1, red.alpha_m3, red.beta_m1),
                (red.alpha_1, red.alpha_3, red.beta_1),
            ):
                y = solve_y(inner, outer)
                w = derive_well(y, inner, outer, beta)
                assert w.s_inner == pytest.approx(inner * y, rel=1e-14)
                assert w.s_outer == pytest.approx(outer * y, rel=1e-14)
                assert w.phi_inner == pytest.approx(math.asin(w.s_inner), rel=1e-13)
                assert w.c_inner == pytest.approx(math.sqrt(1 - w.s_inner**2), rel=1e-13)
                assert w.u_cap * (w.t_outer + w.t_inner + math.pi * y) == pytest.approx(
                    math.pi, rel=1e-12
                )
                assert w.b_coef == pytest.approx(w.t_inner**2 * w.a_coef, rel=1e-12)
                assert w.c_coef == pytest.approx(
                    (2.0 / math.pi) * w.s_inner * w.c_inner * w.u_cap, rel=1e-12
                )

    def test_rejects_sine_argument_above_one(self):
        with pytest.raises(DomainError):
            derive_well(1.0, 1.2, 0.3, 0.1)

    @pytest.mark.parametrize("y", [1.0, math.nan])
    def test_rejects_sine_argument_of_exactly_one_or_nan(self, y):
        # At 1 the edge cosine is 0, and the edge tangent divides by it; a
        # NaN phase would give a record of NaNs.
        with pytest.raises(DomainError, match="must be below 1"):
            derive_well(y, 1.0, 0.5, 0.15)


class TestCoupling:
    def test_product_of_well_coefficients(self, example_spec):
        red = reduce(example_spec)
        left, right = solve_wells(red)
        joint = coupling(left, right)
        assert joint.p_cap == pytest.approx(
            left.b_coef * right.b_coef * left.c_coef * right.c_coef, rel=1e-14
        )
        assert joint.p_cap == pytest.approx(example_constants()["p"], rel=1e-12)

    def test_zero_inner_sine_gives_zero_coupling(self):
        red = reduce(EXAMPLE_SPEC)
        left, _ = solve_wells(red)
        # a free-box well (zero arcsine coefficients) has s_inner = 0: no overlap
        fake = derive_well(1.0, 0.0, 0.0, red.beta_m1)
        assert fake.s_inner == 0.0
        assert coupling(left, fake).p_cap == 0.0


class TestSolveWells:
    @pytest.mark.parametrize(
        "spec, solves",
        [
            (EXAMPLE_SPEC, 1),
            (symmetric_spec(a_target=20.0, x_m3=-1.5), 1),
            (symmetric_spec(a_target=20.0, detune=1e-3), 2),
        ],
        ids=["example", "mirror", "floor-detuned"],
    )
    def test_mirror_image_well_is_solved_once(self, monkeypatch, spec, solves):
        calls = []

        def counting_solve_y(alpha_inner, alpha_outer):
            calls.append((alpha_inner, alpha_outer))
            return solve_y(alpha_inner, alpha_outer)

        monkeypatch.setattr(isolated, "solve_y", counting_solve_y)
        result = solve_double_well(spec)
        assert len(calls) == solves
        red = result.reduced
        expected = derive_well(
            solve_y(red.alpha_1, red.alpha_3), red.alpha_1, red.alpha_3, red.beta_1
        )
        for name in expected.__slots__:
            assert getattr(result.right, name).hex() == getattr(expected, name).hex(), name
        assert result.left is not result.right
