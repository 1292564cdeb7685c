"""Independent shooting solver: node counting, level finding, comparison."""

import math
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doublewell import (
    DegeneracyUnresolved,
    DomainError,
    EnergyOutOfBand,
    LevelNotFound,
    Parity,
    ShootResult,
    WellSpec,
    compare,
    find_level,
    oracle,
    shoot,
    solve_double_well,
)
from doublewell.params import wavenumbers
from genspecs import asymmetric_spec, random_symmetric_spec
from oracles import (
    EXAMPLE_E0_EXACT,
    EXAMPLE_E1_EXACT,
    mp_example_levels,
)

UNBOUND_SPEC = WellSpec(
    hbar=1.0,
    mass=2.0,
    v_m4=2.25,
    v_m2=0.0,
    v_0=0.09,
    v_2=0.0,
    v_4=2.25,
    w_m2=10.0 * math.pi / 3.0,
    w_0=10.0 * math.pi / 3.0,
    w_2=2.0 * math.pi / 3.0,
)

# Both wells bind a level, but the wide left well is already three nodes deep
# at the right floor (the bottom of the band), so no band energy has 0 or 1.
NO_WINDOW_SPEC = WellSpec(
    hbar=1.0, mass=2.0, v_m4=1.0, v_m2=0.0, v_0=1.0, v_2=0.6, v_4=1.0,
    w_m2=6.0, w_0=10.0, w_2=2.0,
)


def stub_shoot(window_lo, window_hi, root):
    """A shoot with 0 nodes below window_lo, 1 up to window_hi and 2 above,
    and a mismatch that changes sign at root."""

    def stub(spec, energy):
        nodes = 0 if energy < window_lo else 1 if energy < window_hi else 2
        return ShootResult(energy=energy, mismatch=energy - root, node_count=nodes)

    return stub


@st.composite
def core_specs(draw):
    """Specs of the oracle benchmark's core inputs: mirror-symmetric and
    floor-detuned at barrier opacity 8-15, geometrically asymmetric at 8-12."""
    kind = draw(st.sampled_from(["symmetric", "floor_detuned", "asymmetric"]))
    opacity = draw(st.floats(8.0, 12.0 if kind == "asymmetric" else 15.0))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if kind == "asymmetric":
        eta = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-12.0, -6.0)
        return asymmetric_spec(rng, a_target=opacity, eta=eta)
    detune = 10.0 ** rng.uniform(-13.0, -9.0) if kind == "floor_detuned" else 0.0
    return random_symmetric_spec(rng, a_range=(opacity, opacity), detune_scale=detune)


class TestShoot:
    def test_rejects_energy_outside_band(self, example_spec):
        for energy in (-0.5, 0.0, 1.0, 1.5, math.nan, math.inf):
            with pytest.raises(EnergyOutOfBand):
                shoot(example_spec, energy)

    def test_node_count_is_nondecreasing(self, example_spec):
        counts = [
            shoot(example_spec, 1e-6 + i * (1.0 - 2e-6) / 2000).node_count
            for i in range(2001)
        ]
        assert all(b >= a for a, b in zip(counts, counts[1:]))
        assert counts[0] == 0
        assert counts[-1] >= 2

    def test_levels_have_expected_node_counts(self, example_spec):
        for parity, nodes in ((Parity.GROUND, 0), (Parity.EXCITED, 1)):
            energy = find_level(example_spec, parity)
            result = shoot(example_spec, energy)
            assert result.node_count == nodes
            assert abs(result.mismatch) < 1e-4

    def test_mismatch_changes_sign_across_a_level(self, example_spec):
        e0 = find_level(example_spec, Parity.GROUND)
        below = shoot(example_spec, e0 - 1e-11)
        above = shoot(example_spec, e0 + 1e-11)
        assert below.node_count == above.node_count == 0
        assert (below.mismatch > 0.0) != (above.mismatch > 0.0)

    def test_opaque_barrier_does_not_overflow(self, example_spec):
        wide = replace(example_spec, w_0=400.0)  # kappa_0 w_0 ~ 300
        result = shoot(wide, 0.25)
        assert math.isfinite(result.mismatch)
        assert math.isfinite(result.wall)
        assert math.isfinite(result.residual)
        assert result.node_count in (0, 1)

    def test_wall_changes_sign_where_the_node_count_steps(self, example_spec):
        # Bisect the step from 0 to 1 nodes between the doublet's levels down
        # to adjacent floats; the wall value u = psi(x_3) must change sign
        # within one float of it on either side.
        lo = find_level(example_spec, Parity.GROUND)
        hi = find_level(example_spec, Parity.EXCITED)
        while math.nextafter(lo, math.inf) < hi:
            mid = 0.5 * (lo + hi)
            if shoot(example_spec, mid).node_count >= 1:
                hi = mid
            else:
                lo = mid
        assert shoot(example_spec, lo).node_count == 0
        assert shoot(example_spec, hi).node_count == 1
        assert shoot(example_spec, math.nextafter(lo, -math.inf)).wall > 0.0
        assert shoot(example_spec, math.nextafter(hi, math.inf)).wall < 0.0

    def test_mismatch_is_residual_over_wall(self, example_spec):
        # mismatch = residual / (wall * kappa_4): inside a node window the wall
        # keeps its sign, so the residual's zero is the mismatch's.
        for i in range(1, 400):
            result = shoot(example_spec, i / 400.0)
            kappa_4 = wavenumbers(example_spec, i / 400.0)[4]
            assert result.mismatch == pytest.approx(
                result.residual / (result.wall * kappa_4), rel=1e-9, abs=1e-12
            )

    def test_fields_default_to_nan(self):
        result = ShootResult(energy=0.5, mismatch=1.0, node_count=0)
        assert math.isnan(result.wall)
        assert math.isnan(result.residual)


class TestFindLevel:
    def test_example_levels_match_frozen_exact_values(self, example_spec):
        e0 = find_level(example_spec, Parity.GROUND)
        e1 = find_level(example_spec, Parity.EXCITED)
        assert abs(e0 - EXAMPLE_E0_EXACT) <= 1e-13 * 0.25
        assert abs(e1 - EXAMPLE_E1_EXACT) <= 1e-13 * 0.25
        assert e1 > e0

    def test_frozen_values_reproduced_by_live_high_precision_run(self):
        e0, e1 = mp_example_levels(dps=40)
        assert float(e0) == pytest.approx(EXAMPLE_E0_EXACT, rel=1e-14)
        assert float(e1) == pytest.approx(EXAMPLE_E1_EXACT, rel=1e-14)

    def test_loose_tolerance_cannot_separate_the_doublet(self, example_spec):
        with pytest.raises(DegeneracyUnresolved):
            find_level(example_spec, Parity.GROUND, tol_rel=1e-3)

    def test_unbound_well_reports_no_level(self):
        with pytest.raises(LevelNotFound):
            find_level(UNBOUND_SPEC, Parity.GROUND)

    @pytest.mark.parametrize("parity", list(Parity))
    def test_no_band_energy_with_the_node_count(self, parity):
        with pytest.raises(LevelNotFound):
            find_level(NO_WINDOW_SPEC, parity)

    def test_window_between_grid_points_is_sharpened(self, monkeypatch, example_spec):
        # The band is (0, 1) and the one-node window is 2e-5 wide inside it:
        # both its edges are bisected from the band ends.
        monkeypatch.setattr(oracle, "shoot", stub_shoot(0.50001, 0.50003, 0.50002))
        assert find_level(example_spec, Parity.EXCITED) == pytest.approx(0.50002, rel=1e-13)

    def test_window_opening_at_the_band_bottom_has_no_pole(self, monkeypatch, example_spec):
        # The band bottom (0, shot at 1e-9) already has one node, so it is no
        # node-count pole and a root right on it is not refused as one.
        monkeypatch.setattr(oracle, "shoot", stub_shoot(0.0, 0.5, 1e-9))
        assert find_level(example_spec, Parity.EXCITED) == 1e-9

    def test_window_closing_at_the_band_top_has_no_pole(self, monkeypatch, example_spec):
        # The band top (1, shot at 1 - 1e-9) still has one node.
        monkeypatch.setattr(oracle, "shoot", stub_shoot(0.5, 2.0, 1.0 - 1e-9))
        assert find_level(example_spec, Parity.EXCITED) == 1.0 - 1e-9

    def test_band_top_below_the_node_count(self, monkeypatch, example_spec):
        monkeypatch.setattr(oracle, "shoot", stub_shoot(2.0, 3.0, 0.5))
        with pytest.raises(LevelNotFound):
            find_level(example_spec, Parity.EXCITED)

    def test_window_closed_at_float_resolution_is_degenerate(self, monkeypatch, example_spec):
        monkeypatch.setattr(oracle, "shoot", stub_shoot(0.50002, 0.50002, 0.50002))
        with pytest.raises(DegeneracyUnresolved):
            find_level(example_spec, Parity.EXCITED)

    @pytest.mark.parametrize("parity", list(Parity))
    @pytest.mark.parametrize("scale", [2.0, 5.0, 20.0])
    def test_float64_degenerate_doublet_is_unresolved(self, example_spec, scale, parity):
        # The mismatch is ~1e-15 on both floats straddling the node-count pole
        # at 0.25, so each window keeps the sign of its other edge.
        spec = replace(example_spec, w_0=scale * example_spec.w_0)
        with pytest.raises(DegeneracyUnresolved, match="no sign change"):
            find_level(spec, parity)

    def test_band_end_window_without_sign_change(self, monkeypatch, example_spec):
        # The whole band (0, 1) has one node and the root lies above it.
        monkeypatch.setattr(oracle, "shoot", stub_shoot(0.0, 2.0, 1.5))
        with pytest.raises(LevelNotFound, match="no sign change"):
            find_level(example_spec, Parity.EXCITED)

    def test_agrees_with_pipeline_on_random_specs(self):
        rng = random.Random(61)
        for _ in range(3):
            spec = random_symmetric_spec(rng, a_range=(12.5, 15.0))
            res = solve_double_well(spec)
            bound = 10.0 * math.exp(-2.0 * res.ground.r0) + 1e-12
            for parity, approx in (
                (Parity.GROUND, res.splitting.e0),
                (Parity.EXCITED, res.splitting.e1),
            ):
                exact = find_level(spec, parity)
                assert abs(approx - exact) <= bound * abs(exact)

    @pytest.mark.parametrize("tol_rel", [math.nan, math.inf, -math.inf, -1e-13, 1.0, 2.0])
    def test_tolerance_outside_the_unit_interval_is_refused(
        self, monkeypatch, example_spec, tol_rel
    ):
        def no_shoot(spec, energy):
            raise AssertionError("shot before the tolerance was checked")

        monkeypatch.setattr(oracle, "shoot", no_shoot)
        for parity in Parity:
            with pytest.raises(DomainError, match="tol_rel"):
                find_level(example_spec, parity, tol_rel)
        with pytest.raises(DomainError, match="tol_rel"):
            compare(example_spec, tol_rel)

    @pytest.mark.parametrize("parity", list(Parity))
    def test_zero_tolerance_ends_on_adjacent_floats(self, example_spec, parity):
        # The root is the midpoint of two adjacent floats, so it is one of
        # them and its neighbours on either side carry opposite mismatches.
        root = find_level(example_spec, parity, tol_rel=0.0)
        below = shoot(example_spec, math.nextafter(root, -math.inf))
        above = shoot(example_spec, math.nextafter(root, math.inf))
        assert below.node_count == above.node_count == (0 if parity == Parity.GROUND else 1)
        assert (below.mismatch > 0.0) != (above.mismatch > 0.0)
        exact = EXAMPLE_E0_EXACT if parity == Parity.GROUND else EXAMPLE_E1_EXACT
        assert abs(root - exact) <= 4.0 * math.ulp(exact)

    def test_zero_tolerance_bisection_ends_on_adjacent_floats(self, monkeypatch, example_spec):
        # A stub without wall values falls back to bisection; its mismatch
        # changes sign between 0.5 and the next float up.
        def stub(spec, energy):
            nodes = 0 if energy < 0.25 else 1 if energy < 0.75 else 2
            return ShootResult(energy=energy, mismatch=(energy - 0.5) - 2.0**-60, node_count=nodes)

        monkeypatch.setattr(oracle, "shoot", stub)
        root = find_level(example_spec, Parity.EXCITED, tol_rel=0.0)
        assert root in (0.5, math.nextafter(0.5, 1.0))

    def test_crawling_interpolation_falls_back_to_bisection(self, monkeypatch, example_spec):
        # Wall values with flat eleventh-order zeros at the node-count steps:
        # interpolation alone creeps up on them from one side (435 shoots
        # without the fallback), so bisection must take over whenever two
        # steps have not halved the bracket.
        calls = []

        def stub(spec, energy):
            calls.append(energy)
            nodes = 0 if energy < 0.3 else 1 if energy < 0.7 else 2
            wall = (0.3 - energy) ** 11 if energy < 0.5 else (energy - 0.7) ** 11
            return ShootResult(energy, energy - 0.5, nodes, wall)

        monkeypatch.setattr(oracle, "shoot", stub)
        assert find_level(example_spec, Parity.EXCITED) == pytest.approx(0.5, rel=1e-13)
        assert len(calls) <= 300

    @settings(max_examples=150, deadline=None)
    @given(spec=core_specs())
    def test_every_root_is_bracketed(self, spec):
        tol_rel = 1e-13
        for nodes, parity in enumerate((Parity.GROUND, Parity.EXCITED)):
            root = find_level(spec, parity, tol_rel)
            below = shoot(spec, root * (1.0 - 2.0 * tol_rel))
            above = shoot(spec, root * (1.0 + 2.0 * tol_rel))
            assert below.node_count == above.node_count == nodes
            assert (below.mismatch > 0.0) != (above.mismatch > 0.0)

    def test_resolves_detuned_doublet(self):
        rng = random.Random(62)
        spec = random_symmetric_spec(rng, detune_scale=1e-10)
        e0 = find_level(spec, Parity.GROUND)
        e1 = find_level(spec, Parity.EXCITED)
        assert e1 > e0


class TestCompare:
    def test_shoot_budget(self, monkeypatch, example_spec):
        # compare finds each level once, through the module's find_level and
        # shoot, within a shoot budget per level and in total.
        calls = []
        real_shoot = oracle.shoot

        def counting_shoot(spec, energy):
            calls.append(energy)
            return real_shoot(spec, energy)

        per_level = []
        real_find_level = oracle.find_level

        def counting_find_level(spec, which, tol_rel):
            before = len(calls)
            root = real_find_level(spec, which, tol_rel)
            per_level.append((which, len(calls) - before))
            return root

        monkeypatch.setattr(oracle, "shoot", counting_shoot)
        monkeypatch.setattr(oracle, "find_level", counting_find_level)
        compare(example_spec)
        assert [which for which, _ in per_level] == [Parity.GROUND, Parity.EXCITED]
        (_, ground), (_, excited) = per_level
        assert ground <= 60
        assert excited <= 70
        assert len(calls) <= 130

    def test_exact_levels_are_find_level_bit_for_bit(self, example_spec):
        rng = random.Random(71)
        specs = [
            example_spec,
            random_symmetric_spec(rng, a_range=(8.0, 15.0)),
            random_symmetric_spec(rng, a_range=(8.0, 15.0), detune_scale=1e-11),
            asymmetric_spec(rng, a_target=10.0, eta=1e-8),
        ]
        for spec in specs:
            report = compare(spec)
            assert report.e0_exact == find_level(spec, Parity.GROUND)
            assert report.e1_exact == find_level(spec, Parity.EXCITED)

    def test_example_errors_are_small(self, example_spec):
        report = compare(example_spec)
        assert report.err_e0 <= 1e-9
        assert report.err_e1 <= 1e-9
        assert report.err_delta_e <= 1e-4
        assert report.err_ratio <= 1e-4

    def test_fields_are_mutually_consistent(self, example_spec):
        report = compare(example_spec)
        res = solve_double_well(example_spec)
        assert report.e0_approx == res.splitting.e0
        assert report.e1_approx == res.splitting.e1
        assert report.delta_e_approx == res.splitting.delta_e
        assert report.delta_e_exact == pytest.approx(
            0.5 * (report.e1_exact - report.e0_exact), rel=1e-12
        )
        assert report.e0_exact < report.e1_exact
        assert report.tol_rel == 1e-13
        assert report.ratio_exact == pytest.approx(1.0, abs=1e-4)
        assert report.ratio_approx == 1.0
