"""Coupled-level fixed point, energy correction, and localization."""

import math
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doublewell import (
    AssumptionViolated,
    DomainError,
    ExcitedBelowZero,
    NoConvergence,
    Parity,
    coefficient_ratio,
    solve_double_well,
    solve_r0,
    tunneling,
)
from genspecs import (
    EXAMPLE_SPEC, asymmetric_spec, dyadic_images, mixed_spec_batch, random_symmetric_spec,
)
from oracles import damped_fixed_point

# The worked example and a mixed batch, for the exact symmetries of a spec.
BATCH = [EXAMPLE_SPEC, *mixed_spec_batch(7, 200)]
BATCH_IDS = ["example", *map(str, range(200))]


class TestFixedPoint:
    @pytest.mark.parametrize("a_left,a_right,p_cap", [
        (18.0, 18.0, 2.6),
        (15.0, 15.0 + 1e-12, 0.5),
        (5.0, 5.5, 10.0),
        (25.0, 20.0, 1.0),
        (8.0, 8.0 + 1e-6, 3.0),
    ])
    def test_matches_damped_relaxation(self, a_left, a_right, p_cap):
        for parity, sign in ((Parity.GROUND, 1.0), (Parity.EXCITED, -1.0)):
            r0, _ = solve_r0(parity, a_left, a_right, p_cap)
            ref = damped_fixed_point(a_left, a_right, p_cap, sign)
            assert r0 == pytest.approx(ref, rel=1e-10)

    def test_residual_is_bit_exact(self):
        rng = random.Random(17)
        for _ in range(25):
            a_l = rng.uniform(5.0, 25.0)
            a_r = a_l + rng.choice([0.0, 1e-12, 1e-7, 0.05]) * rng.choice([-1.0, 1.0])
            p_cap = rng.uniform(0.3, 8.0)
            for parity, sign in ((Parity.GROUND, 1.0), (Parity.EXCITED, -1.0)):
                r0, p_small = solve_r0(parity, a_l, a_r, p_cap)
                mean = 0.5 * (a_l + a_r)
                diff = 0.5 * (a_r - a_l)
                assert r0 == mean + sign * math.sqrt(diff * diff + p_small)

    def test_ground_above_max_and_excited_below_min(self):
        rng = random.Random(18)
        for _ in range(25):
            a_l = rng.uniform(5.0, 25.0)
            a_r = a_l + rng.uniform(-0.1, 0.1)
            p_cap = rng.uniform(0.3, 8.0)
            r_g, _ = solve_r0(Parity.GROUND, a_l, a_r, p_cap)
            r_e, _ = solve_r0(Parity.EXCITED, a_l, a_r, p_cap)
            assert r_g >= max(a_l, a_r) - 1e-12
            assert r_e <= min(a_l, a_r) + 1e-12
            assert r_e < r_g

    def test_converges_within_four_iterations_in_regime(self, monkeypatch):
        monkeypatch.setattr(tunneling, "MAX_ITER_R", 4)
        rng = random.Random(19)
        for _ in range(20):
            a_l = rng.uniform(15.0, 22.0)
            a_r = a_l + rng.uniform(-1e-6, 1e-6)
            solve_r0(Parity.GROUND, a_l, a_r, rng.uniform(0.5, 8.0))
            solve_r0(Parity.EXCITED, a_l, a_r, rng.uniform(0.5, 8.0))

    def test_negative_coupling_rejected(self):
        with pytest.raises(DomainError):
            solve_r0(Parity.GROUND, 18.0, 18.0, -1.0)

    @pytest.mark.parametrize(
        "parity,a_left,a_right,p_cap",
        [
            # exp(-2 r) overflows at r = -400 before the loop could settle.
            (Parity.GROUND, -400.0, -400.0, 1.0),
            (Parity.GROUND, 18.0, -1.0, 1.0),
            (Parity.GROUND, math.nan, 18.0, 1.0),
            # A NaN coupling never settles: MAX_ITER_R steps to NoConvergence.
            (Parity.EXCITED, 5.0, 5.0, math.nan),
        ],
    )
    def test_negative_or_nan_inputs_rejected_before_the_loop(
        self, parity, a_left, a_right, p_cap
    ):
        with pytest.raises(DomainError, match="must be >= 0"):
            solve_r0(parity, a_left, a_right, p_cap)

    @pytest.mark.parametrize(
        "parity,a_left,a_right,p_cap",
        [
            # An infinite coupling gives r0 = inf and p = inf * 0 = NaN.
            (Parity.GROUND, 5.0, 5.0, math.inf),
            # An infinite a never settles: MAX_ITER_R steps of NaN.
            (Parity.GROUND, math.inf, 5.0, 1.0),
            (Parity.EXCITED, 5.0, math.inf, 1.0),
        ],
    )
    def test_infinite_inputs_rejected_before_the_loop(self, parity, a_left, a_right, p_cap):
        with pytest.raises(DomainError, match="must be >= 0 and finite"):
            solve_r0(parity, a_left, a_right, p_cap)

    def test_step_limit_raises_no_convergence(self, monkeypatch, example_spec):
        # From the worked example's a = 18.1379936423 one step lands within
        # 1e-15 of r0 = 18.1379936637, but the step itself, r0 - a, is far
        # above the tolerance; the error carries that iterate and step.
        monkeypatch.setattr(tunneling, "MAX_ITER_R", 1)
        with pytest.raises(NoConvergence) as info:
            solve_double_well(example_spec)
        assert info.value.last_iterate == pytest.approx(18.1379936637, rel=1e-11)
        assert info.value.residual == pytest.approx(2.13798934e-8, rel=1e-6)

    def test_excited_below_zero_raises(self):
        with pytest.raises(ExcitedBelowZero):
            solve_r0(Parity.EXCITED, 0.5, 0.5, 10.0)

    def test_excited_start_at_zero_raises_before_the_loop(self):
        # The loop's own check cannot replace this one: with p_cap = 0 and
        # both a below ~1e-162, diff^2 underflows, so the excited step
        # r_next = mean - sqrt(diff^2) is the mean, > 0 (0.0, 1e-162 gives 5e-163).
        with pytest.raises(ExcitedBelowZero, match="start 0.0 <= 0"):
            solve_r0(Parity.EXCITED, 0.0, 5.0, 1.0)


class TestExampleValues:
    def test_ground_fixed_point(self, example_spec):
        res = solve_double_well(example_spec)
        assert res.ground.r0 == pytest.approx(18.1379936637, rel=1e-9)
        assert res.ground.p_small == pytest.approx(4.57099905795e-16, rel=1e-9)
        assert math.sqrt(res.ground.p_small) == pytest.approx(2.13798948967e-8, rel=1e-9)

    def test_level_energies(self, example_spec):
        res = solve_double_well(example_spec)
        e_bar = res.splitting.e_bar
        assert e_bar == pytest.approx(0.25, rel=1e-12)
        assert res.ground.energy / e_bar == pytest.approx(0.999999992928, abs=1e-11)
        assert res.excited.energy / e_bar == pytest.approx(1.000000007072, abs=1e-11)
        assert res.splitting.e1 > res.splitting.e0

    def test_balanced_localization(self, example_spec):
        res = solve_double_well(example_spec)
        for level in (res.ground, res.excited):
            assert level.z_asym == 0.0
            assert level.prob_left == 0.5
            assert level.prob_right == 0.5


class TestCorrectionInvariants:
    def test_gap_product_and_r_decomposition(self):
        for spec in mixed_spec_batch(seed=31, count=12):
            res = solve_double_well(spec)
            for level in (res.ground, res.excited):
                gap_left = level.eps_left * res.left.b_coef
                gap_right = level.eps_right * res.right.b_coef
                assert gap_left * gap_right == pytest.approx(level.p_small, rel=1e-12)
                if level.eps_left > 0.0 and level.eps_right > 0.0:
                    assert level.r_left + level.r_right == pytest.approx(
                        level.r0, rel=1e-12
                    )

    def test_probabilities_complement_exactly(self):
        for spec in mixed_spec_batch(seed=32, count=12):
            res = solve_double_well(spec)
            for level in (res.ground, res.excited):
                assert level.prob_left + level.prob_right == 1.0
                assert 0.0 <= level.prob_left <= 1.0

    def test_probability_ratio_is_z_closed_form(self):
        for spec in mixed_spec_batch(seed=33, count=12):
            res = solve_double_well(spec)
            for level in (res.ground, res.excited):
                z = level.z_asym
                if not math.isfinite(z) or level.prob_left == 0.0 or level.prob_right == 0.0:
                    continue
                sq = math.hypot(1.0, z)
                # stable evaluation of 2*log(sq + z) on both signs of z,
                # using (sq + z)(sq - z) = 1
                log_expected = 2.0 * math.log(sq + z) if z >= 0.0 else -2.0 * math.log(sq - z)
                if level.parity == Parity.GROUND:
                    got = level.prob_right / level.prob_left
                else:
                    got = level.prob_left / level.prob_right
                assert math.log(got) == pytest.approx(log_expected, abs=1e-10)

    def test_excited_swaps_localization(self):
        # the two parities carry slightly different barrier attenuation, so
        # the swap is exact only to the splitting scale, not bitwise
        rng = random.Random(34)
        spec = asymmetric_spec(rng, eta=1e-9)
        res = solve_double_well(spec)
        assert res.ground.prob_left == pytest.approx(res.excited.prob_right, rel=1e-6)
        assert res.ground.prob_right == pytest.approx(res.excited.prob_left, rel=1e-6)
        assert (res.ground.prob_right - res.ground.prob_left) * (
            res.excited.prob_right - res.excited.prob_left
        ) < 0.0

    def test_asymmetry_measure_is_log_stable(self):
        for spec in mixed_spec_batch(seed=35, count=9):
            res = solve_double_well(spec)
            level = res.ground
            if level.z_asym != 0.0 and math.isfinite(level.z_asym):
                assert level.r_asym == pytest.approx(math.asinh(level.z_asym), rel=1e-12)

    def test_near_degenerate_side_energies_agree(self):
        rng = random.Random(36)
        for _ in range(6):
            spec = random_symmetric_spec(rng, detune_scale=1e-13)
            res = solve_double_well(spec)
            floor = min(spec.v_m2, spec.v_2)
            for level in (res.ground, res.excited):
                scale = level.energy - floor
                assert abs(level.energy_left_estimate - level.energy_right_estimate) <= 1e-6 * scale


class TestSplitting:
    def test_mean_and_half_gap_are_consistent(self):
        for spec in mixed_spec_batch(seed=37, count=9):
            res = solve_double_well(spec)
            s = res.splitting
            assert s.e1 - s.e0 == pytest.approx(2.0 * s.delta_e, rel=1e-10)
            assert 0.5 * (s.e0 + s.e1) == pytest.approx(s.e_bar, rel=1e-12)
            assert s.e0 == pytest.approx(res.ground.energy, rel=1e-14)
            assert s.e1 == pytest.approx(res.excited.energy, rel=1e-14)

    def test_splitting_decays_exponentially_with_barrier_width(self, example_spec):
        kappa = math.sqrt(2.0 * example_spec.mass * (example_spec.v_0 - 0.25)) / example_spec.hbar
        widths = [2.0, 2.5, 3.0, 3.5, 4.0]
        deltas = []
        for mult in widths:
            spec = replace(example_spec, w_0=mult * example_spec.w_2)
            deltas.append(solve_double_well(spec).splitting.delta_e)
        for d_small, d_big in zip(deltas, deltas[1:]):
            assert d_big < d_small
        for (w1, d1), (w2, d2) in zip(zip(widths, deltas), zip(widths[1:], deltas[1:])):
            step = (w2 - w1) * example_spec.w_2
            assert d2 / d1 == pytest.approx(math.exp(-kappa * step), rel=1e-3)

    @pytest.mark.parametrize("spec", BATCH, ids=BATCH_IDS)
    def test_mirror_image_keeps_levels_and_swaps_sides(self, spec):
        # Swapping the outer walls, the floors and the well widths swaps the
        # wells, which the closed form treats alike: the energies keep every
        # bit, and the side probabilities swap up to rounding.
        mirror = replace(
            spec, v_m4=spec.v_4, v_m2=spec.v_2, v_2=spec.v_m2, v_4=spec.v_m4,
            w_m2=spec.w_2, w_2=spec.w_m2,
        )
        res, image = solve_double_well(spec), solve_double_well(mirror)
        assert image.splitting.e0 == res.splitting.e0
        assert image.splitting.e1 == res.splitting.e1
        assert image.splitting.delta_e == res.splitting.delta_e
        for level, seen in ((res.ground, image.ground), (res.excited, image.excited)):
            assert abs(seen.prob_left - level.prob_right) <= 4.0 * math.ulp(level.prob_right)
            assert abs(seen.prob_right - level.prob_left) <= 4.0 * math.ulp(level.prob_left)


    @pytest.mark.parametrize("spec", BATCH, ids=BATCH_IDS)
    def test_dyadic_scalings_scale_levels_exactly(self, spec):
        # The levels scale by the map's power of 2, bit for bit.  (For hbar,
        # reduce squares pi hbar as a product: ** 2 can round it differently
        # and move alpha by one ulp, as on batch index 131.)
        res = solve_double_well(spec)
        for image_spec, power in dyadic_images(spec):
            image = solve_double_well(image_spec).splitting
            assert image.e0 == math.ldexp(res.splitting.e0, power)
            assert image.e1 == math.ldexp(res.splitting.e1, power)
            assert image.delta_e == math.ldexp(res.splitting.delta_e, power)

    @pytest.mark.parametrize("spec", BATCH, ids=BATCH_IDS)
    def test_translation_keeps_levels(self, spec):
        res = solve_double_well(spec)
        for shift in (-1e3, -0.3, 2.5):
            image = solve_double_well(replace(spec, x_m3=spec.x_m3 + shift)).splitting
            assert image.e0 == res.splitting.e0
            assert image.e1 == res.splitting.e1
            assert image.delta_e == res.splitting.delta_e


class TestCoefficientRatio:
    def test_symmetric_spec_ratio_is_one(self, example_spec):
        res = solve_double_well(example_spec)
        for level in (res.ground, res.excited):
            ratio = coefficient_ratio(level, res.left, res.right)
            assert ratio == pytest.approx(1.0, rel=1e-12)

    def test_vanished_coupling_with_equal_wells_gives_the_prefactor(self, example_spec):
        res = solve_double_well(example_spec)
        for level in (res.ground, res.excited):
            assert coefficient_ratio(replace(level, p_small=0.0), res.left, res.right) == 1.0

    def test_detuned_example_reference_values(self, example_spec):
        delta = 1.7681030756044489e-09  # one half-splitting of depth detuning
        spec = replace(example_spec, v_m2=example_spec.v_m2 + delta, v_2=example_spec.v_2 - delta)
        res = solve_double_well(spec)
        ground = coefficient_ratio(res.ground, res.left, res.right)
        excited = coefficient_ratio(res.excited, res.left, res.right)
        assert ground == pytest.approx(0.19509541665478597, rel=1e-9)
        assert excited == pytest.approx(5.125696634490155, rel=1e-9)

    def test_ground_excited_ratios_are_reciprocal_up_to_prefactor(self):
        rng = random.Random(38)
        for _ in range(4):
            spec = asymmetric_spec(rng, a_target=rng.uniform(26.0, 30.0),
                                   eta=rng.choice([-1.0, 1.0]) * 1e-12)
            res = solve_double_well(spec)
            ground = coefficient_ratio(res.ground, res.left, res.right)
            excited = coefficient_ratio(res.excited, res.left, res.right)
            pref = (res.right.s_inner**2 * res.left.b_coef * res.left.c_coef) / (
                res.left.s_inner**2 * res.right.b_coef * res.right.c_coef
            )
            assert ground * excited == pytest.approx(pref**2, rel=1e-9)


class TestRegimeGuards:
    def test_thin_barrier_raises(self, example_spec):
        spec = replace(example_spec, w_0=example_spec.w_2 / 10.0)
        with pytest.raises(AssumptionViolated):
            solve_double_well(spec)

    def test_strongly_detuned_wells_raise(self):
        rng = random.Random(39)
        spec = asymmetric_spec(rng, eta=0.1)
        with pytest.raises(AssumptionViolated):
            solve_double_well(spec)

    def test_underflowed_coupling_raises(self, example_spec):
        # The energy scales stay inside float64, but P = b b c c underflows
        # to 0, which would leave the levels degenerate with delta_e = 0.
        with pytest.raises(AssumptionViolated, match="coupling P .* underflowed to 0"):
            solve_double_well(replace(example_spec, mass=1e300))

    def test_unbound_well_raises(self, example_spec):
        # a shallow inner step with a tall outer wall leaves the narrow
        # right well with no phase root while the wide left well stays bound
        spec = replace(example_spec, v_m4=2.25, v_0=0.09, v_4=2.25,
                       w_m2=example_spec.w_0)
        with pytest.raises(DomainError, match="right"):
            solve_double_well(spec)


@settings(max_examples=60, deadline=None)
@given(z=st.floats(min_value=-1e8, max_value=1e8, allow_nan=False))
def test_probability_split_identities(z):
    # the stable complement split must satisfy P_R/P_L = (sq + z)^2 for any z
    sq = math.hypot(1.0, z)
    if z >= 0.0:
        p_left = 1.0 / (2.0 * sq * (sq + z))
        p_right = 1.0 - p_left
    else:
        p_right = 1.0 / (2.0 * sq * (sq - z))
        p_left = 1.0 - p_right
    assert p_left + p_right == 1.0
    assert 0.0 < p_left <= 1.0  # the larger share may round to exactly 1.0
    assert 0.0 < p_right <= 1.0
    ratio = p_right / p_left
    log_expected = 2.0 * math.log(sq + z) if z >= 0.0 else -2.0 * math.log(sq - z)
    assert math.log(ratio) == pytest.approx(log_expected, abs=1e-9)
