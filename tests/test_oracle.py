"""Independent shooting solver: node counting, level finding, comparison."""

import math
import random
from dataclasses import replace

import pytest

from doublewell import (
    DegeneracyUnresolved,
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
from genspecs import random_symmetric_spec
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
        assert result.node_count in (0, 1)


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

    def test_resolves_detuned_doublet(self):
        rng = random.Random(62)
        spec = random_symmetric_spec(rng, detune_scale=1e-10)
        e0 = find_level(spec, Parity.GROUND)
        e1 = find_level(spec, Parity.EXCITED)
        assert e1 > e0


class TestCompare:
    def test_shoot_budget(self, monkeypatch, example_spec):
        calls = []
        real_shoot = oracle.shoot

        def counting_shoot(spec, energy):
            calls.append(energy)
            return real_shoot(spec, energy)

        monkeypatch.setattr(oracle, "shoot", counting_shoot)
        compare(example_spec)
        assert len(calls) <= 300

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
