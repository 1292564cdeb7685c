"""Independent shooting solver: node counting, level finding, comparison."""

import math
import random
import sys
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doublewell import (
    AssumptionViolated,
    DegeneracyUnresolved,
    DomainError,
    DoubleWellError,
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
from doublewell import params
from doublewell.params import band
from genspecs import (
    EXAMPLE_SPEC, asymmetric_spec, dyadic_images, mixed_spec_batch, random_symmetric_spec,
)
from oracles import EXAMPLE_E0_EXACT, EXAMPLE_E1_EXACT, mp_levels

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

# Narrow wells under a low barrier: the phase at the band top is 1.27,
# below the ground target 3 pi / 4, so the band holds neither level.
LOW_TOP_SPEC = WellSpec(
    hbar=1.0, mass=2.0, v_m4=1.0, v_m2=0.0, v_0=0.01, v_2=0.0, v_4=1.0,
    w_m2=0.05, w_0=1.0, w_2=0.05,
)

# Asymmetric at barrier opacity 53.4: the ground state's barrier extremum
# lies near the right edge, so the left tail's ratio tanh(kappa_0 d) reads
# 1 + 2e-13 in float64 while the right tail's reads 1 - 1.4e-6.
RIGHT_EXTREMUM_SPEC = WellSpec(
    hbar=1.8349862747981738, mass=0.8583845659041568, v_m4=6.37671010192158,
    v_m2=0.6460288887276975, v_0=2.334003199521126, v_2=0.8135286606517531,
    v_4=6.7904881820215195, w_m2=4.514751435400115, w_0=68.45479914807018,
    w_2=5.918056606892832, x_m3=-1.5452520765617859,
)


WAVENUMBER_OVERFLOW_SPEC = WellSpec(
    hbar=6.056573106756008e116, mass=4.0980544923841734e133, v_m4=4.6838946297290186e182,
    v_m2=7.104432341997065e-29, v_0=4.5498175852314566e192, v_2=7.104432341997065e-29,
    v_4=4.6838946297290186e182, w_m2=1.8430637254727472e-07, w_0=3.184816202304822e-20,
    w_2=1.8430637254727472e-07,
)

# Unguided levels (ground, excited) at tol_rel 1e-13, as the band-end bracket
# gave them before find_level took a guess: the worked example, then
# core-range symmetric, floor-detuned and asymmetric specs drawn from
# random.Random(83) in that order.
UNGUIDED_LEVELS = (
    (0.24999999823189076, 0.25000000176810955),
    (-0.6835551418223859, -0.6835549530941022),
    (0.8803781741723863, 0.8803885251726332),
    (1.17926622046643, 1.1792799497189796),
)


def phase_stub(phase, residual=None):
    """A shoot whose right-wall phase is ``phase(energy)`` and whose decay
    residual is ``residual(energy)`` (NaN without one, so every trial
    energy is a bisection)."""

    def stub(spec, energy):
        return ShootResult(energy, phase(energy), residual(energy) if residual else math.nan)

    return stub


def nodes(shot):
    """Interior node count of a shot, read from its phase."""
    return math.floor(shot.phase / math.pi)


def doublet_phase(centre, split):
    """Phase rising from 0.5 pi to 2 pi through the two level targets,
    0.75 pi and 1.75 pi, which it crosses at ``centre`` -+ ``split`` / 2."""
    slope = 2.0 * math.sqrt(3.0) / split
    return lambda energy: 1.25 * math.pi + 1.5 * math.atan((energy - centre) * slope)


@st.composite
def core_specs(draw, opacities=None):
    """Specs of the oracle benchmark's core inputs: mirror-symmetric and
    floor-detuned at barrier opacity 8-15, geometrically asymmetric at 8-12
    (all three kinds in ``opacities`` when it is given)."""
    kind = draw(st.sampled_from(["symmetric", "floor_detuned", "asymmetric"]))
    if opacities is None:
        opacities = (8.0, 12.0 if kind == "asymmetric" else 15.0)
    opacity = draw(st.floats(*opacities))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if kind == "asymmetric":
        eta = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-12.0, -6.0)
        return asymmetric_spec(rng, a_target=opacity, eta=eta)
    detune = 10.0 ** rng.uniform(-13.0, -9.0) if kind == "floor_detuned" else 0.0
    return random_symmetric_spec(rng, a_range=(opacity, opacity), detune_scale=detune)


class TestShoot:
    @settings(max_examples=100, deadline=None)
    @given(
        spec=st.one_of(core_specs(), core_specs(opacities=(20.0, 50.0))),
        points=st.integers(16, 512),
        offset=st.floats(0.0, 1.0),
    )
    def test_phase_is_nondecreasing_across_the_band(self, spec, points, offset):
        # find_level's one bracket per level rests on this.
        lo, hi = band(spec)
        inset = 1e-9 * (hi - lo)
        energies = [
            min(max(lo + (hi - lo) * (i + offset) / points, lo + inset), hi - inset)
            for i in range(points)
        ]
        phases = [shoot(spec, energy).phase for energy in energies]
        assert all(b >= a for a, b in zip(phases, phases[1:]))

    def test_rejects_energy_outside_band(self, example_spec):
        for energy in (-0.5, 0.0, 1.0, 1.5, math.nan, math.inf):
            with pytest.raises(EnergyOutOfBand):
                shoot(example_spec, energy)

    def test_node_count_is_nondecreasing(self, example_spec):
        counts = [nodes(shoot(example_spec, 1e-6 + i * (1.0 - 2e-6) / 2000)) for i in range(2001)]
        assert all(b >= a for a, b in zip(counts, counts[1:]))
        assert counts[0] == 0
        assert counts[-1] >= 2

    def test_node_count_holds_across_region_junctions(self, example_spec):
        # Nine consecutive floats where a node passes a region junction: the
        # count must not fall back (per-region counts read 1, 2, 2, 2, 1, ...).
        energy, counts = 0.3566569504182004, []
        for _ in range(9):
            counts.append(nodes(shoot(example_spec, energy)))
            energy = math.nextafter(energy, math.inf)
        assert all(b >= a for a, b in zip(counts, counts[1:]))

    def test_levels_have_expected_node_counts(self, example_spec):
        for parity, count in ((Parity.GROUND, 0), (Parity.EXCITED, 1)):
            energy = find_level(example_spec, parity)
            result = shoot(example_spec, energy)
            assert nodes(result) == count
            # u'/(kappa_4 u) + 1 = cot(Theta) + 1 vanishes at the level target.
            assert abs(1.0 / math.tan(result.phase) + 1.0) < 1e-4

    def test_mismatch_changes_sign_across_a_level(self, example_spec):
        e0 = find_level(example_spec, Parity.GROUND)
        below = shoot(example_spec, e0 - 1e-11)
        above = shoot(example_spec, e0 + 1e-11)
        assert nodes(below) == nodes(above) == 0
        assert (below.residual > 0.0) != (above.residual > 0.0)

    def test_opaque_barrier_does_not_overflow(self, example_spec):
        wide = replace(example_spec, w_0=400.0)  # kappa_0 w_0 ~ 300
        result = shoot(wide, 0.25)
        assert math.isfinite(result.phase)
        assert math.isfinite(result.residual)
        assert nodes(result) in (0, 1)

    def test_overflowing_wavenumber_is_refused(self):
        # Valid, but 2 m |E - V| overflows in the walls and the barrier at the
        # closed-form ground level, and in the wells and the barrier at the
        # band top.  A shot at e0 once read residual inf with no error.
        lo, hi = band(WAVENUMBER_OVERFLOW_SPEC)
        e0 = solve_double_well(WAVENUMBER_OVERFLOW_SPEC).splitting.e0
        for energy in (e0, hi - 1e-9 * (hi - lo)):
            with pytest.raises(AssumptionViolated, match="wavenumber .* overflows"):
                shoot(WAVENUMBER_OVERFLOW_SPEC, energy)
        with pytest.raises(AssumptionViolated, match="wavenumber .* overflows"):
            find_level(WAVENUMBER_OVERFLOW_SPEC, Parity.GROUND)

    def test_overflowing_phase_is_refused(self, example_spec):
        # Every wavenumber is finite, but k w overflows in wells 1e308 wide.
        wide = replace(example_spec, w_m2=1e308, w_2=1e308)
        lo, hi = band(wide)
        with pytest.raises(AssumptionViolated, match="phase leaves the float64 range"):
            shoot(wide, hi - 1e-9 * (hi - lo))
        with pytest.raises(AssumptionViolated, match="phase leaves the float64 range"):
            find_level(wide, Parity.GROUND)

    def test_wall_changes_sign_where_the_node_count_steps(self, example_spec):
        # Bisect the step from 0 to 1 nodes between the doublet's levels down
        # to adjacent floats; the wall value u = psi(x_3) = R sin(Theta) must
        # change sign within one float of it on either side.
        lo = find_level(example_spec, Parity.GROUND)
        hi = find_level(example_spec, Parity.EXCITED)
        while math.nextafter(lo, math.inf) < hi:
            mid = 0.5 * (lo + hi)
            if nodes(shoot(example_spec, mid)) >= 1:
                hi = mid
            else:
                lo = mid
        assert nodes(shoot(example_spec, lo)) == 0
        assert nodes(shoot(example_spec, hi)) == 1
        assert math.sin(shoot(example_spec, math.nextafter(lo, -math.inf)).phase) > 0.0
        assert math.sin(shoot(example_spec, math.nextafter(hi, math.inf)).phase) < 0.0


class TestFindLevel:
    def test_example_levels_match_frozen_exact_values(self, example_spec):
        e0 = find_level(example_spec, Parity.GROUND)
        e1 = find_level(example_spec, Parity.EXCITED)
        assert abs(e0 - EXAMPLE_E0_EXACT) <= 1e-13 * 0.25
        assert abs(e1 - EXAMPLE_E1_EXACT) <= 1e-13 * 0.25
        assert e1 > e0

    def test_frozen_values_reproduced_by_live_high_precision_run(self, example_spec):
        e0, e1 = mp_levels(example_spec, dps=40)
        assert float(e0) == pytest.approx(EXAMPLE_E0_EXACT, rel=1e-14)
        assert float(e1) == pytest.approx(EXAMPLE_E1_EXACT, rel=1e-14)

    def test_loose_tolerance_cannot_separate_the_doublet(self, example_spec):
        with pytest.raises(DegeneracyUnresolved):
            find_level(example_spec, Parity.GROUND, tol_rel=1e-3)

    def test_levels_of_a_spec_with_an_unbound_well(self):
        # The right well alone binds no level, so the closed form (and with
        # it compare) refuses the spec; the double well still has both
        # levels, and find_level needs no closed-form test to find them.
        for parity, exact in zip(Parity, mp_levels(UNBOUND_SPEC, dps=40)):
            assert find_level(UNBOUND_SPEC, parity) == pytest.approx(exact, rel=1e-13)
        with pytest.raises(DomainError, match="right well supports no bound level"):
            compare(UNBOUND_SPEC)

    @pytest.mark.parametrize("parity", list(Parity))
    def test_no_band_energy_with_the_node_count(self, parity):
        with pytest.raises(LevelNotFound):
            find_level(NO_WINDOW_SPEC, parity)

    @pytest.mark.parametrize("parity", list(Parity))
    def test_search_stops_at_the_band_top(self, monkeypatch, parity):
        # From mid-band the search widens upward until it shoots the band
        # top, short of the target, and refuses on that last pair: the
        # band top is shot once and the band bottom never.
        shots = []

        def recording_shoot(spec, energy):
            shots.append(shoot(spec, energy))
            return shots[-1]

        monkeypatch.setattr(oracle, "shoot", recording_shoot)
        lo, hi = band(LOW_TOP_SPEC)
        bottom, top = lo + 1e-9 * (hi - lo), hi - 1e-9 * (hi - lo)
        with pytest.raises(LevelNotFound, match="phase") as info:
            find_level(LOW_TOP_SPEC, parity, guess=0.5 * (lo + hi))
        energies = [shot.energy for shot in shots]
        assert energies.count(top) == 1 and energies[-1] == top
        assert bottom not in energies
        assert 1.26 < shots[-1].phase < 1.28
        assert repr(top) in str(info.value)

    @pytest.mark.parametrize(
        "phase, reaches",
        [
            # Linear: the secant hits the crossing at 0.3, and the first
            # widening lands an eighth of the way farther.
            (lambda e: 0.75 * math.pi + 1e3 * (e - 0.3), [1.125]),
            # Concave below the crossing: the secant (a Newton step) reaches
            # half way, so the next end goes sixteen times as far again.
            (
                lambda e: 0.75 * math.pi + (1e3 * (e - 0.3) if e > 0.3 else -1e6 * (0.3 - e) ** 2),
                [0.5625, 9.0],
            ),
        ],
        ids=["linear", "concave"],
    )
    def test_first_widening_jumps_past_the_secant_crossing(
        self, monkeypatch, example_spec, phase, reaches
    ):
        # The guess misses the ground level at 0.3 by 1e-6, millions of
        # opening half-widths; each end after the opening pair lies the given
        # multiple of that miss above the guess, and the last straddles.
        shots = []

        def recording_shoot(spec, energy):
            shots.append(ShootResult(energy, phase(energy), math.nan))
            return shots[-1]

        monkeypatch.setattr(oracle, "shoot", recording_shoot)
        guess = 0.3 - 1e-6
        h = 1e-12 * guess
        below, above = oracle._bracket(example_spec, guess, 1e-9, 1.0 - 1e-9, 0.75 * math.pi)
        energies = [shot.energy for shot in shots]
        assert energies[:2] == [guess - h, guess + h]
        assert energies[2:] == pytest.approx([guess + r * 1e-6 for r in reaches], rel=1e-12)
        assert (below, above) == (shots[-2], shots[-1])
        assert below.phase <= 0.75 * math.pi < above.phase

    def test_flat_opening_pair_widens_sixteenfold(self, monkeypatch, example_spec):
        # The phase is flat around the guess, so the pair gives no secant.
        shots = []

        def recording_shoot(spec, energy):
            shots.append(ShootResult(energy, 0.5 * math.pi + max(0.0, energy - 0.5), math.nan))
            return shots[-1]

        monkeypatch.setattr(oracle, "shoot", recording_shoot)
        guess = 0.25
        h = 1e-12 * guess
        oracle._bracket(example_spec, guess, 1e-9, 1.0 - 1e-9, 0.75 * math.pi)
        assert [shot.energy for shot in shots[:5]] == [
            guess - h, guess + h, guess + 16.0 * h, guess + 256.0 * h, guess + 4096.0 * h
        ]

    def test_steep_phase_step_is_sharpened(self, monkeypatch, example_spec):
        # The band is (0, 1) and the phase climbs through the one-node target
        # within about 1e-5 of 0.50002; one bracket from the band ends finds it.
        step = phase_stub(
            lambda e: 1.75 * math.pi + math.atan((e - 0.50002) / 1e-5),
            lambda e: 0.50002 - e,
        )
        monkeypatch.setattr(oracle, "shoot", step)
        assert find_level(example_spec, Parity.EXCITED) == pytest.approx(0.50002, rel=1e-13)

    def test_level_beside_the_band_bottom_is_checked_inside_the_band(
        self, monkeypatch, example_spec
    ):
        # The level sits right on the band-bottom shot at 1e-9, so root -
        # tol_abs lies below it: the resolution check shoots at the band end.
        def phase(energy):
            assert 1e-9 <= energy <= 1.0 - 1e-9
            return 0.75 * math.pi + (energy - 1e-9) * 1e12

        monkeypatch.setattr(oracle, "shoot", phase_stub(phase))
        assert find_level(example_spec, Parity.GROUND) == pytest.approx(1e-9, rel=1e-12)

    def test_level_beside_the_band_top_is_checked_inside_the_band(
        self, monkeypatch, example_spec
    ):
        # The level sits 2e-14 below the band-top shot at 1 - 1e-9.
        top = 1.0 - 1e-9

        def phase(energy):
            assert 1e-9 <= energy <= top
            return 1.75 * math.pi + (energy - (top - 2e-14)) * 1e6

        monkeypatch.setattr(oracle, "shoot", phase_stub(phase))
        assert find_level(example_spec, Parity.EXCITED) == pytest.approx(top, rel=1e-13)

    def test_band_top_below_the_node_count(self, monkeypatch, example_spec):
        # The phase at the band top has not reached the one-node target.
        monkeypatch.setattr(oracle, "shoot", phase_stub(lambda e: 0.5 * math.pi + e))
        with pytest.raises(LevelNotFound, match="phase"):
            find_level(example_spec, Parity.EXCITED)

    def test_band_bottom_above_the_target(self, monkeypatch, example_spec):
        # The phase at the band bottom is already past the ground target.
        monkeypatch.setattr(oracle, "shoot", phase_stub(lambda e: 0.8 * math.pi + e))
        with pytest.raises(LevelNotFound, match="phase"):
            find_level(example_spec, Parity.GROUND)

    @pytest.mark.parametrize("parity", list(Parity))
    def test_neighbour_within_tolerance_is_degenerate(self, monkeypatch, example_spec, parity):
        # The two targets are crossed 4e-14 apart around 0.5: each level has
        # its neighbour within tol_rel |E| = 5e-14.
        monkeypatch.setattr(oracle, "shoot", phase_stub(doublet_phase(0.5, 4e-14)))
        with pytest.raises(DegeneracyUnresolved, match="within tol_rel"):
            find_level(example_spec, parity)

    @pytest.mark.parametrize("parity", list(Parity))
    def test_neighbour_beyond_tolerance_is_resolved(self, monkeypatch, example_spec, parity):
        # The same doublet split by 2e-12, forty times tol_rel |E|.
        monkeypatch.setattr(oracle, "shoot", phase_stub(doublet_phase(0.5, 2e-12)))
        sign = -1.0 if parity == Parity.GROUND else 1.0
        assert find_level(example_spec, parity) == pytest.approx(0.5 + sign * 1e-12, abs=1e-13)

    @pytest.mark.parametrize("parity", list(Parity))
    @pytest.mark.parametrize("scale", [2.0, 5.0, 20.0])
    def test_float64_degenerate_doublet_is_unresolved(self, example_spec, scale, parity):
        # The splitting is below tol_rel |E| (zero in float64 from x2 on), so
        # each level finds its neighbour within the tolerance.
        spec = replace(example_spec, w_0=scale * example_spec.w_0)
        with pytest.raises(DegeneracyUnresolved, match="within tol_rel"):
            find_level(spec, parity)

    def test_matches_high_precision_levels_of_opaque_specs(self):
        # Asymmetric (eta 1e-6) and floor-detuned (1e-9) specs at opacity
        # 20-50 whose doublets float64 resolves, though a node-count oracle
        # refused one level of each as degenerate.
        rng = random.Random(5)
        specs = []
        for _ in range(4):
            specs.append(asymmetric_spec(rng, a_target=rng.uniform(20.0, 50.0), eta=1e-6))
            specs.append(random_symmetric_spec(rng, a_range=(20.0, 50.0), detune_scale=1e-9))
        for spec in (specs[0], specs[3], specs[6], specs[7]):
            for parity, exact in zip(Parity, mp_levels(spec, dps=80)):
                assert find_level(spec, parity) == pytest.approx(exact, rel=1e-13)

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
        # them and its neighbours on either side carry opposite residuals.
        root = find_level(example_spec, parity, tol_rel=0.0)
        below = shoot(example_spec, math.nextafter(root, -math.inf))
        above = shoot(example_spec, math.nextafter(root, math.inf))
        assert nodes(below) == nodes(above) == (0 if parity == Parity.GROUND else 1)
        assert (below.residual > 0.0) != (above.residual > 0.0)
        exact = EXAMPLE_E0_EXACT if parity == Parity.GROUND else EXAMPLE_E1_EXACT
        assert abs(root - exact) <= 4.0 * math.ulp(exact)

    def test_zero_tolerance_bisection_ends_on_adjacent_floats(self, monkeypatch, example_spec):
        # A phase stub without residuals falls back to bisection; its phase
        # crosses the one-node target between 0.5 and the next float up.
        phase = phase_stub(lambda e: 1.75 * math.pi + ((e - 0.5) - 2.0**-60) * 1e10)
        monkeypatch.setattr(oracle, "shoot", phase)
        root = find_level(example_spec, Parity.EXCITED, tol_rel=0.0)
        assert root in (0.5, math.nextafter(0.5, 1.0))

    def test_crawling_interpolation_falls_back_to_bisection(self, monkeypatch, example_spec):
        # A residual with a flat eleventh-order zero at the level: interpolation
        # alone creeps up on it from one side, so bisection must take over
        # whenever two steps have not halved the bracket.
        calls = []

        def phase(energy):
            calls.append(energy)
            return 1.75 * math.pi + (energy - 0.3)

        monkeypatch.setattr(oracle, "shoot", phase_stub(phase, lambda e: (0.3 - e) ** 11))
        assert find_level(example_spec, Parity.EXCITED) == pytest.approx(0.3, rel=1e-13)
        assert len(calls) <= 150

    @settings(max_examples=150, deadline=None)
    @given(spec=core_specs())
    def test_every_root_is_bracketed(self, spec):
        tol_rel = 1e-13
        for count, parity in enumerate((Parity.GROUND, Parity.EXCITED)):
            root = find_level(spec, parity, tol_rel)
            below = shoot(spec, root * (1.0 - 2.0 * tol_rel))
            above = shoot(spec, root * (1.0 + 2.0 * tol_rel))
            assert nodes(below) == nodes(above) == count
            assert (below.residual > 0.0) != (above.residual > 0.0)

    @settings(max_examples=60, deadline=None)
    @given(spec=core_specs())
    def test_no_accepted_root_hides_a_neighbour(self, spec):
        # find_level may settle its resolution rule from an opening bracket
        # end instead of a shot; direct shots at root -+ tol_abs must agree,
        # from the closed-form guess and from the band ends alike.
        tol_rel = 1e-13
        split = solve_double_well(spec).splitting
        lo, hi = band(spec)
        bottom, top = lo + 1e-9 * (hi - lo), hi - 1e-9 * (hi - lo)
        for count, (parity, level) in enumerate(zip(Parity, (split.e0, split.e1))):
            target = (count + 0.75) * math.pi
            for guess in (level, math.nan):
                root = find_level(spec, parity, tol_rel, guess=guess)
                tol_abs = tol_rel * (abs(root) or hi - lo)
                assert shoot(spec, max(root - tol_abs, bottom)).phase > target - math.pi
                assert shoot(spec, min(root + tol_abs, top)).phase <= target + math.pi

    @pytest.mark.parametrize("parity", list(Parity))
    def test_bracket_end_past_the_neighbour_settles_nothing(
        self, monkeypatch, example_spec, parity
    ):
        # The targets are crossed 4e-14 apart around 0.5, within tol_rel |E|
        # = 5e-14.  A guess at 0.5 opens the bracket 5e-13 either side, so
        # the end toward the neighbour lies beyond root -+ tol_abs but also
        # past the neighbour's target: the rule must shoot there.
        shots = []
        phase = doublet_phase(0.5, 4e-14)

        def recording_shoot(spec, energy):
            shots.append(ShootResult(energy, phase(energy), math.nan))
            return shots[-1]

        monkeypatch.setattr(oracle, "shoot", recording_shoot)
        with pytest.raises(DegeneracyUnresolved, match="within tol_rel"):
            find_level(example_spec, parity, guess=0.5)
        below, above = shots[:2]
        if parity == Parity.GROUND:
            assert above.energy >= 0.5 + 1e-13 and above.phase > 1.75 * math.pi
        else:
            assert below.energy <= 0.5 - 1e-13 and below.phase <= 0.75 * math.pi

    @pytest.mark.parametrize("parity", list(Parity))
    def test_settled_bracket_ends_take_no_resolution_shot(
        self, monkeypatch, example_spec, parity
    ):
        # A doublet split by 0.1 around 0.5.  Guessed at its own level, the
        # bracket opens 1e-12 |E| either side of it, beyond root -+ tol_abs
        # and short of both neighbours' targets, so nothing is shot after
        # _refine.  From the band ends, the end toward the neighbour lies
        # past its target, and that side alone is shot.
        calls, refined = [], []
        phase = doublet_phase(0.5, 0.1)
        real_refine = oracle._refine

        def counting_refine(*args):
            bracket = real_refine(*args)
            refined.append(len(calls))
            return bracket

        def counting_shoot(spec, energy):
            calls.append(energy)
            return ShootResult(energy, phase(energy), math.nan)

        monkeypatch.setattr(oracle, "shoot", counting_shoot)
        monkeypatch.setattr(oracle, "_refine", counting_refine)
        level = 0.45 if parity == Parity.GROUND else 0.55
        assert find_level(example_spec, parity, guess=level) == pytest.approx(level, rel=1e-13)
        assert len(calls) == refined[-1]
        assert find_level(example_spec, parity) == pytest.approx(level, rel=1e-13)
        assert len(calls) == refined[-1] + 1

    def test_resolves_detuned_doublet(self):
        rng = random.Random(62)
        spec = random_symmetric_spec(rng, detune_scale=1e-10)
        e0 = find_level(spec, Parity.GROUND)
        e1 = find_level(spec, Parity.EXCITED)
        assert e1 > e0


def level_or_refusal(spec, parity, **kwargs):
    """find_level's level, or the class of the error it raised."""
    try:
        return find_level(spec, parity, **kwargs)
    except DoubleWellError as exc:
        return type(exc)


def bad_guesses(spec):
    """Guesses that carry no knowledge of the levels: both inset band ends
    and the floats just inside them, NaN, both infinities, and energies
    below and above the band."""
    lo, hi = band(spec)
    bottom, top = lo + 1e-9 * (hi - lo), hi - 1e-9 * (hi - lo)
    return [
        bottom, math.nextafter(bottom, math.inf), top, math.nextafter(top, -math.inf),
        math.nan, math.inf, -math.inf, lo - (hi - lo), hi + (hi - lo),
    ]


def assert_guess_independent(spec, guesses_by_parity):
    """Every guess gives the unguided level to tol_rel |E|, or its refusal."""
    tol_rel = 1e-13
    for parity, guesses in guesses_by_parity.items():
        want = level_or_refusal(spec, parity, tol_rel=tol_rel)
        for guess in guesses:
            got = level_or_refusal(spec, parity, tol_rel=tol_rel, guess=guess)
            if isinstance(want, float):
                assert isinstance(got, float), (parity, guess, got)
                assert abs(got - want) <= tol_rel * abs(want), (parity, guess)
            else:
                assert got is want, (parity, guess, got)


def closed_form_guesses(spec):
    """Per level: the bad guesses, the closed-form level itself, 1e-3 |E|
    off it on either side, and the other level's closed-form energy."""
    split = solve_double_well(spec).splitting
    own = {Parity.GROUND: split.e0, Parity.EXCITED: split.e1}
    other = {Parity.GROUND: split.e1, Parity.EXCITED: split.e0}
    return {
        parity: bad_guesses(spec)
        + [e, e - 1e-3 * abs(e), e + 1e-3 * abs(e), other[parity]]
        for parity, e in own.items()
    }


class TestGuess:
    @settings(max_examples=40, deadline=None)
    @given(spec=core_specs())
    def test_guess_cannot_change_a_core_level(self, spec):
        assert_guess_independent(spec, closed_form_guesses(spec))

    @pytest.mark.parametrize("seed", range(4))
    def test_guess_cannot_change_a_refusal(self, seed):
        # Symmetric specs past the oracle's resolution: every level is
        # refused as degenerate, guess or none.
        spec = random_symmetric_spec(random.Random(seed), a_range=(30.0, 60.0))
        assert level_or_refusal(spec, Parity.GROUND) is DegeneracyUnresolved
        assert_guess_independent(spec, closed_form_guesses(spec))

    @pytest.mark.parametrize("seed", range(4))
    def test_guess_cannot_change_a_census_level(self, seed):
        # The oracle benchmark's census bands past the core: floor-detuned
        # at opacity 15-26, asymmetric at 12-26.
        rng = random.Random(seed)
        for spec in (
            random_symmetric_spec(rng, a_range=(15.0, 26.0), detune_scale=1e-11),
            asymmetric_spec(rng, a_target=rng.uniform(12.0, 26.0), eta=1e-8),
        ):
            assert_guess_independent(spec, closed_form_guesses(spec))

    def test_guess_cannot_find_a_level_outside_the_band(self):
        # No band energy has the node count; guesses across the band widen
        # to a band end and refuse as the band-end bracket does.
        lo, hi = band(NO_WINDOW_SPEC)
        inside = [lo + f * (hi - lo) for f in (0.01, 0.25, 0.5, 0.75, 0.99)]
        guesses = bad_guesses(NO_WINDOW_SPEC) + inside
        assert level_or_refusal(NO_WINDOW_SPEC, Parity.GROUND) is LevelNotFound
        assert_guess_independent(NO_WINDOW_SPEC, dict.fromkeys(Parity, guesses))

    @pytest.mark.parametrize("parity", list(Parity))
    def test_guess_cannot_separate_a_doublet_within_tolerance(
        self, monkeypatch, example_spec, parity
    ):
        # The targets are crossed 2e-14 apart around 0.5, within half of
        # tol_rel |E| = 5e-14: the root lies within half that of its
        # crossing, however the bracket starts, so the resolution rule
        # finds the neighbour.  (A neighbour 0.5-1.5 tol_rel |E| away is
        # found or not as the root falls inside its final bracket.)
        monkeypatch.setattr(oracle, "shoot", phase_stub(doublet_phase(0.5, 2e-14)))
        for guess in (0.5, 0.5 - 2e-14, 0.5 + 2e-14, 0.25, 0.75):
            with pytest.raises(DegeneracyUnresolved, match="within tol_rel"):
                find_level(example_spec, parity, guess=guess)

    def test_unguided_levels_keep_the_band_end_bits(self, example_spec):
        rng = random.Random(83)
        specs = [
            example_spec,
            random_symmetric_spec(rng, a_range=(8.0, 15.0)),
            random_symmetric_spec(rng, a_range=(8.0, 15.0), detune_scale=1e-11),
            asymmetric_spec(rng, a_target=10.0, eta=1e-8),
        ]
        for spec, levels in zip(specs, UNGUIDED_LEVELS):
            assert tuple(find_level(spec, parity, 1e-13) for parity in Parity) == levels
            assert tuple(find_level(spec, parity) for parity in Parity) == levels


# The worked example and a mixed batch, for the exact maps of a spec.
BATCH = [EXAMPLE_SPEC, *mixed_spec_batch(7, 40)]
BATCH_IDS = ["example", *map(str, range(40))]
# compare's fields that are energies.
LEVELS = ("e0_approx", "e1_approx", "delta_e_approx", "e0_exact", "e1_exact", "delta_e_exact")


class TestCompare:
    @pytest.mark.parametrize("spec", BATCH, ids=BATCH_IDS)
    def test_dyadic_scalings_scale_levels_exactly(self, spec):
        # The levels scale by the map's power of 2, bit for bit.  The exact
        # ratio need not keep its bits: the state is normalised by the square
        # root of a norm that the map scales (within 2 ulps seen).
        report = compare(spec)
        for image_spec, power in dyadic_images(spec):
            image = compare(image_spec)
            for name in LEVELS:
                assert getattr(image, name) == math.ldexp(getattr(report, name), power), name
            assert abs(image.ratio_exact - report.ratio_exact) <= 4 * math.ulp(report.ratio_exact)

    @pytest.mark.parametrize("spec", BATCH, ids=BATCH_IDS)
    def test_translation_keeps_levels(self, spec):
        # The levels keep their bits; the exact ratio moves with the rounding
        # of the shifted positions.
        report = compare(spec)
        for shift in (-1e3, -0.3, 2.5):
            image = compare(replace(spec, x_m3=spec.x_m3 + shift))
            for name in LEVELS:
                assert getattr(image, name) == getattr(report, name), name
            assert image.ratio_exact == pytest.approx(report.ratio_exact, rel=1e-12, abs=0.0)

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

        def counting_find_level(spec, which, tol_rel, guess=math.nan):
            before = len(calls)
            root = real_find_level(spec, which, tol_rel, guess=guess)
            per_level.append((which, len(calls) - before))
            return root

        monkeypatch.setattr(oracle, "shoot", counting_shoot)
        monkeypatch.setattr(oracle, "find_level", counting_find_level)
        compare(example_spec)
        assert [which for which, _ in per_level] == [Parity.GROUND, Parity.EXCITED]
        (_, ground), (_, excited) = per_level
        assert ground <= 5
        assert excited <= 5
        assert len(calls) <= 10

    def test_shoot_budget_over_a_core_sample(self, monkeypatch):
        # Eight specs of each kind in the oracle benchmark's core ranges,
        # where the closed-form levels miss by up to ~1e5 opening half-widths.
        calls = []
        real_shoot = oracle.shoot

        def counting_shoot(spec, energy):
            calls.append(energy)
            return real_shoot(spec, energy)

        monkeypatch.setattr(oracle, "shoot", counting_shoot)
        rng = random.Random(0)
        counts = []
        for _ in range(8):
            for spec in (
                random_symmetric_spec(rng, a_range=(8.0, 15.0)),
                random_symmetric_spec(
                    rng, a_range=(8.0, 15.0), detune_scale=10.0 ** rng.uniform(-13.0, -9.0)
                ),
                asymmetric_spec(
                    rng,
                    a_target=rng.uniform(8.0, 12.0),
                    eta=rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-12.0, -6.0),
                ),
            ):
                before = len(calls)
                compare(spec)
                counts.append(len(calls) - before)
        assert sum(counts) / len(counts) <= 9.5
        assert max(counts) <= 12

    def test_spec_is_reduced_once(self, monkeypatch, example_spec):
        # Only the closed form reduces the spec; find_level works from the
        # spec alone.  Every module binding of params.reduce is counted.
        calls = []
        real_reduce = params.reduce

        def counting_reduce(spec):
            calls.append(spec)
            return real_reduce(spec)

        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("doublewell."):
                for name, value in list(vars(module).items()):
                    if value is real_reduce:
                        monkeypatch.setattr(module, name, counting_reduce)
        compare(example_spec)
        assert len(calls) == 1
        find_level(example_spec, Parity.GROUND)
        find_level(example_spec, Parity.EXCITED, guess=0.25)
        assert len(calls) == 1

    def test_exact_levels_are_find_level_bit_for_bit(self, example_spec):
        rng = random.Random(71)
        specs = [
            example_spec,
            random_symmetric_spec(rng, a_range=(8.0, 15.0)),
            random_symmetric_spec(rng, a_range=(8.0, 15.0), detune_scale=1e-11),
            asymmetric_spec(rng, a_target=10.0, eta=1e-8),
        ]
        tol_rel = 1e-13
        for spec in specs:
            report = compare(spec, tol_rel)
            split = solve_double_well(spec).splitting
            # The excited search starts from e1 moved by the ground level's miss.
            shifted = split.e1 + (report.e0_exact - split.e0)
            for parity, exact, guess in (
                (Parity.GROUND, report.e0_exact, split.e0),
                (Parity.EXCITED, report.e1_exact, shifted),
            ):
                assert exact == find_level(spec, parity, tol_rel, guess=guess)
                unguided = find_level(spec, parity, tol_rel)
                assert abs(exact - unguided) <= tol_rel * abs(unguided)

    def test_extremum_near_the_right_edge_is_read_from_the_right_tail(self):
        report = compare(RIGHT_EXTREMUM_SPEC)
        assert report.ratio_exact == pytest.approx(1.5925907567771588e-34, rel=1e-6)
        assert report.err_ratio < 1e-5

    def test_overflowing_exact_state_is_refused(self, example_spec):
        # Both levels resolve, but the exact state's unscaled barrier piece
        # leaves the float64 range.
        spec = replace(example_spec, w_0=21.0 * example_spec.w_0, v_2=-1e-12, v_4=1.0 - 1e-12)
        with pytest.raises(AssumptionViolated, match="float64 range"):
            compare(spec)

    def test_underflowed_coupling_is_refused(self, example_spec):
        with pytest.raises(AssumptionViolated, match="coupling P .* underflowed to 0"):
            compare(replace(example_spec, mass=1e300))

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
