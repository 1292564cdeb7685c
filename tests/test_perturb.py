"""Antisymmetric floor shift: response coefficients, levels, and ledger."""

import math
import pickle
import random
import struct
import sys
import threading
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doublewell import (
    AssumptionViolated,
    DomainError,
    NotSymmetric,
    PerturbationTooLarge,
    WellSpec,
    delta_ledger,
    derive_well,
    invert_ratio,
    perturbed_levels,
    reduce,
    solve_double_well,
    solve_y,
    symmetric_base,
    two_level_check,
)
from doublewell import isolated, params, tunneling
from doublewell.cli import main
from genspecs import (
    EXAMPLE_SPEC, asymmetric_spec, dyadic_images, mixed_spec_batch, random_symmetric_spec,
)
from oracles import example_constants, ref_two_level_check


def _has_symmetric_base(spec):
    try:
        symmetric_base(spec)
    except NotSymmetric:
        return False
    return True


# The worked example and the specs of a mixed batch that symmetric_base
# takes (within its 1e-9 detuning tolerance), for the exact maps of a spec.
BATCH = [EXAMPLE_SPEC, *mixed_spec_batch(7, 200)]
SYMMETRIC = [
    pytest.param(spec, id=name)
    for name, spec in zip(["example", *map(str, range(200))], BATCH)
    if _has_symmetric_base(spec)
]


@pytest.fixture(scope="module")
def example_base():
    return symmetric_base(EXAMPLE_SPEC)


class TestSymmetricBase:
    def test_example_coefficients(self, example_base):
        consts = example_constants()
        assert example_base.f_coef == 0.0
        assert example_base.g_coef == pytest.approx(consts["g"], rel=1e-12)
        assert example_base.e_bar == pytest.approx(0.25, rel=1e-12)
        assert example_base.delta_e == pytest.approx(1.7681030756044489e-09, rel=1e-12)

    def test_drift_vanishes_by_mirror_symmetry(self):
        rng = random.Random(41)
        for _ in range(5):
            base = symmetric_base(random_symmetric_spec(rng))
            assert base.f_coef == 0.0
            assert 0.0 < base.g_coef < 1.0

    def test_opacity_matches_mean_energy(self):
        # a_sym and the mean level satisfy V_0 - E = (a hbar)^2 / (2 m w_0^2),
        # i.e. a_sym = pi * sqrt((V_0 - E) / K_0)
        rng = random.Random(42)
        for _ in range(5):
            spec = random_symmetric_spec(rng)
            base = symmetric_base(spec)
            red = reduce(spec)
            expected = math.pi * math.sqrt((spec.v_0 - base.e_bar) / red.k_0)
            assert base.a_sym == pytest.approx(expected, rel=1e-9)
            assert base.a_sym == pytest.approx(base.wells[0].a_coef, rel=1e-12)

    def test_matches_full_pipeline_splitting(self, example_base):
        res = solve_double_well(EXAMPLE_SPEC)
        assert example_base.delta_e == pytest.approx(res.splitting.delta_e, rel=1e-8)
        assert example_base.e_bar == pytest.approx(res.splitting.e_bar, rel=1e-12)
        assert example_base.p_small == res.ground.p_small

    def test_rejects_detuned_wells(self):
        rng = random.Random(43)
        with pytest.raises(NotSymmetric):
            symmetric_base(asymmetric_spec(rng, eta=1e-4))

    def test_unbound_well_is_refused(self):
        # Outer walls too low for either well to bind a level: the same
        # refusal as the full pipeline's, before any phase solve.
        low_walls = replace(EXAMPLE_SPEC, v_m4=0.001, v_4=0.001, w_m2=1.0, w_0=10.0, w_2=1.0)
        for solver in (solve_double_well, symmetric_base):
            with pytest.raises(DomainError, match="left well supports no bound level"):
                solver(low_walls)

    def test_underflowed_splitting_is_refused(self):
        # At 25 times the example barrier r0 ~ 453, so p = P e^{-2 r0} is 0.
        thick = replace(EXAMPLE_SPEC, w_0=25.0 * EXAMPLE_SPEC.w_0)
        with pytest.raises(AssumptionViolated, match="underflowed"):
            symmetric_base(thick)

    def test_underflowed_b_is_refused_before_the_trust_check(self):
        # A barrier 1e250 times thinner than the wells: b, P and p are all 0,
        # and the trust check would divide sqrt(p) = 0 by b = 0.
        thin = WellSpec(
            hbar=1.0, mass=1.0, v_m4=1.0, v_m2=0.0, v_0=1.0, v_2=0.0, v_4=1.0,
            w_m2=1e100, w_0=1e-150, w_2=1e100,
        )
        with pytest.raises(AssumptionViolated, match="half-splitting delta_e underflowed"):
            symmetric_base(thin)

    def test_thin_barrier_is_refused_at_the_trust_threshold(self):
        # At w_0 = w_2 / 10, eps = sqrt(p) / b is ~0.18 per side, above 0.1:
        # the same refusal as the full pipeline's.
        thin = replace(EXAMPLE_SPEC, w_0=EXAMPLE_SPEC.w_2 / 10.0)
        with pytest.raises(AssumptionViolated, match="phase correction too large"):
            solve_double_well(thin)
        with pytest.raises(AssumptionViolated, match="phase correction too large"):
            symmetric_base(thin)


class TestPerturbedLevels:
    def test_zero_shift_is_unperturbed_splitting(self, example_base):
        levels = perturbed_levels(example_base, 0.0)
        assert levels.z_asym == 0.0
        assert levels.prob_ratio == 1.0
        assert levels.e0 == example_base.e_bar - example_base.delta_e
        assert levels.e1 == example_base.e_bar + example_base.delta_e
        assert levels.e_left == levels.e_right == example_base.e_bar

    @pytest.mark.parametrize("v,ratio,e0_over_ebar", [
        (1.0, 5.1256976292748355, 0.9999999904320998),
        (2.0, 15.21745809698306, 0.9999999852989179),
        (141.394471534, 66392.61107342326, 0.9999990888203938),
    ])
    def test_reference_values(self, example_base, v, ratio, e0_over_ebar):
        levels = perturbed_levels(example_base, v * example_base.delta_e)
        assert levels.v_ratio == pytest.approx(v, rel=1e-12)
        assert levels.prob_ratio == pytest.approx(ratio, rel=1e-9)
        assert levels.e0 / example_base.e_bar == pytest.approx(e0_over_ebar, abs=1e-11)
        # zero drift makes the levels repel symmetrically about the mean
        mirrored = 2.0 - levels.e0 / example_base.e_bar
        assert levels.e1 / example_base.e_bar == pytest.approx(mirrored, abs=1e-13)

    def test_level_gap_and_side_energies(self, example_base):
        for v in (-5.0, -0.25, 0.5, 3.0, 40.0):
            delta_v = v * example_base.delta_e
            levels = perturbed_levels(example_base, delta_v)
            sq = math.hypot(1.0, levels.z_asym)
            assert levels.e1 - levels.e0 == pytest.approx(
                2.0 * example_base.delta_e * sq, rel=1e-12
            )
            assert levels.e_left - levels.e_right == pytest.approx(
                2.0 * example_base.g_coef * delta_v, rel=1e-12
            )

    def test_ground_level_repels_downward(self, example_base):
        energies = [
            perturbed_levels(example_base, v * example_base.delta_e).e0
            for v in (0.0, 0.5, 1.0, 2.0, 8.0)
        ]
        for higher, lower in zip(energies, energies[1:]):
            assert lower < higher

    def test_ratio_reciprocity_under_sign_flip(self, example_base):
        for v in (0.1, 0.7, 1.0, 2.0, 17.0, 141.394471534):
            plus = perturbed_levels(example_base, v * example_base.delta_e)
            minus = perturbed_levels(example_base, -v * example_base.delta_e)
            assert plus.prob_ratio * minus.prob_ratio == pytest.approx(1.0, rel=1e-10)

    def test_too_large_shift_rejected(self, example_base):
        with pytest.raises(PerturbationTooLarge):
            perturbed_levels(example_base, 0.02 * example_base.min_depth)

    def test_nan_shift_rejected(self, example_base):
        with pytest.raises(PerturbationTooLarge, match="nan"):
            perturbed_levels(example_base, math.nan)
        with pytest.raises(PerturbationTooLarge, match="nan"):
            two_level_check(example_base, math.nan)


class TestInvertRatio:
    def test_balanced_ratio_needs_no_shift(self, example_base):
        assert invert_ratio(example_base, 1.0) == 0.0

    @pytest.mark.parametrize("bad", [0.0, -2.5, math.nan])
    def test_nonpositive_ratio_rejected(self, example_base, bad):
        with pytest.raises(DomainError):
            invert_ratio(example_base, bad)

    def test_roundtrip_at_reference_points(self, example_base):
        for v in (1.0, 2.0, 141.394471534):
            delta_v = v * example_base.delta_e
            levels = perturbed_levels(example_base, delta_v)
            assert invert_ratio(example_base, levels.prob_ratio) == pytest.approx(
                delta_v, rel=1e-9
            )

    @settings(max_examples=50, deadline=None)
    @given(v=st.floats(min_value=-150.0, max_value=150.0, allow_nan=False))
    def test_roundtrip_property(self, v):
        base = symmetric_base(EXAMPLE_SPEC)
        delta_v = v * base.delta_e
        levels = perturbed_levels(base, delta_v)
        recovered = invert_ratio(base, levels.prob_ratio)
        assert recovered == pytest.approx(delta_v, rel=1e-9, abs=1e-12 * base.delta_e)


class TestTwoLevelCheck:
    def test_residuals_vanish_across_shift_grid(self, example_base):
        for v in (0.0, -0.5, 0.5, -1.0, 1.0, 2.0, -10.0, 10.0, 141.394471534):
            res0, res1 = two_level_check(example_base, v * example_base.delta_e)
            assert res0 < 1e-12
            assert res1 < 1e-12

    def test_residuals_vanish_on_random_specs(self):
        rng = random.Random(44)
        for _ in range(3):
            base = symmetric_base(random_symmetric_spec(rng))
            for v in (-3.0, 0.0, 7.5):
                res0, res1 = two_level_check(base, v * base.delta_e)
                assert max(res0, res1) < 1e-12

    @pytest.mark.parametrize("spec", SYMMETRIC)
    def test_gives_the_loop_form_bits(self, spec):
        # Shifts in units of delta_e, and just under the 0.01 min(W) limit;
        # a shift past the limit must be refused with the loop form's message.
        base = symmetric_base(spec)
        limit = math.nextafter(0.01 * base.min_depth, 0.0)
        shifts = [v * base.delta_e for v in (0.5, -0.5, 1.0, -1.0, 2.0, -2.0, 1e3, -1e3, 1e-9)]
        computed = 0
        for delta_v in [*shifts, limit, -limit]:
            try:
                expected = ref_two_level_check(base, delta_v)
            except PerturbationTooLarge as exc:
                with pytest.raises(PerturbationTooLarge) as got:
                    two_level_check(base, delta_v)
                assert str(got.value) == str(exc)
                continue
            got = two_level_check(base, delta_v)
            assert struct.pack("<2d", *got) == struct.pack("<2d", *expected), delta_v
            computed += 1
        assert computed >= 3

    @pytest.mark.parametrize("factor", [1.0, -2.0, math.nan])
    def test_too_large_shift_keeps_its_message(self, example_base, factor):
        delta_v = factor * 0.01 * example_base.min_depth
        with pytest.raises(PerturbationTooLarge) as expected:
            ref_two_level_check(example_base, delta_v)
        with pytest.raises(PerturbationTooLarge) as got:
            two_level_check(example_base, delta_v)
        assert str(got.value) == str(expected.value)
        assert "first-order response requires |delta_v| < 0.01 * min(W)" in str(got.value)


@pytest.fixture
def pass_counts(monkeypatch):
    """Calls of reduce and solve_wells through every module binding of them."""
    counts = Counter()
    for real in (params.reduce, isolated.solve_wells):

        def counted(*args, real=real):
            counts[real.__name__] += 1
            return real(*args)

        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("doublewell."):
                for name, value in list(vars(module).items()):
                    if value is real:
                        monkeypatch.setattr(module, name, counted)
    return counts


# reduce refuses it (beta underflows to 0); solve_wells refuses the other
# (neither well binds a level).
REDUCE_REFUSES = WellSpec(
    hbar=1.0, mass=1.0, v_m4=1e25, v_m2=0.0, v_0=1e25, v_2=0.0, v_4=1e25,
    w_m2=1.0, w_0=1e150, w_2=1.0,
)
WELLS_REFUSE = replace(EXAMPLE_SPEC, v_m4=0.001, v_4=0.001, w_m2=1.0, w_0=10.0, w_2=1.0)


class TestSharedPass:
    """solve_double_well and symmetric_base share one isolated-wells pass
    for the last spec object: whichever runs second on it skips the pass."""

    @pytest.mark.parametrize("first", [solve_double_well, symmetric_base])
    def test_second_call_on_the_same_spec_skips_the_pass(self, pass_counts, first):
        fresh_result = repr(solve_double_well(EXAMPLE_SPEC))
        fresh_base = repr(symmetric_base(replace(EXAMPLE_SPEC)))
        tunneling._last = (object(),)
        pass_counts.clear()
        if first is solve_double_well:
            result = solve_double_well(EXAMPLE_SPEC)
            base = symmetric_base(EXAMPLE_SPEC)
        else:
            base = symmetric_base(EXAMPLE_SPEC)
            result = solve_double_well(EXAMPLE_SPEC)
        assert pass_counts == {"reduce": 1, "solve_wells": 1}
        assert (repr(result), repr(base)) == (fresh_result, fresh_base)
        assert base.wells[0] is result.left and base.wells[1] is result.right

    def test_equal_but_distinct_spec_runs_the_pass_again(self, pass_counts):
        # The key is the spec object: the twin misses, then hits, and the
        # example misses again after it.
        twin = replace(EXAMPLE_SPEC)
        assert twin == EXAMPLE_SPEC and twin is not EXAMPLE_SPEC
        solve_double_well(EXAMPLE_SPEC)
        symmetric_base(twin)
        solve_double_well(twin)
        symmetric_base(EXAMPLE_SPEC)
        assert pass_counts == {"reduce": 3, "solve_wells": 3}

    @pytest.mark.parametrize(
        "refused, error",
        [(REDUCE_REFUSES, AssumptionViolated), (WELLS_REFUSE, DomainError)],
        ids=["reduce", "solve_wells"],
    )
    def test_refused_spec_leaves_the_slot_on_the_previous_spec(self, pass_counts, refused, error):
        solve_double_well(EXAMPLE_SPEC)
        for solver in (solve_double_well, symmetric_base):
            with pytest.raises(error):
                solver(refused)
        symmetric_base(EXAMPLE_SPEC)
        assert pass_counts["reduce"] == 3
        assert pass_counts["solve_wells"] == 1 + 2 * (error is DomainError)
        assert tunneling._last[0] is EXAMPLE_SPEC

    @pytest.mark.parametrize(
        "argv",
        [["perturb", "SPEC", "--v", "1"], ["paper-example"], ["oracle", "SPEC"]],
        ids=["perturb", "paper-example", "oracle"],
    )
    def test_cli_call_reduces_once(self, pass_counts, capsys, tmp_path, argv):
        path = tmp_path / "example.spec"
        path.write_text("".join(
            f"{name} = {getattr(EXAMPLE_SPEC, name)!r}\n"
            for name in ("hbar", "mass", "v_m4", "v_m2", "v_0", "v_2", "v_4", "w_m2", "w_0", "w_2")
        ))
        argv = [str(path) if arg == "SPEC" else arg for arg in argv]
        for calls in (1, 2):
            tunneling._last = (object(),)
            assert main(argv) == 0
            assert pass_counts["reduce"] == calls
        capsys.readouterr()

    def test_pass_held_while_another_thread_passes_keeps_whole_entries(self, monkeypatch):
        # A worker's pass on one spec is held inside coupling while this
        # thread runs a whole pass on the other.  Each gets its own bits,
        # and whichever entry the slot is left with is whole.
        one, other = EXAMPLE_SPEC, next(p.values[0] for p in SYMMETRIC if p.id != "example")
        fresh = {}
        for spec in (one, other):
            tunneling._last = (object(),)
            fresh[id(spec)] = pickle.dumps(solve_double_well(spec))
        entered, release = threading.Event(), threading.Event()
        real = tunneling.coupling
        main_thread = threading.current_thread()

        def held(left, right):
            if threading.current_thread() is not main_thread:
                entered.set()
                release.wait(60.0)
            return real(left, right)

        monkeypatch.setattr(tunneling, "coupling", held)
        found = []
        worker = threading.Thread(target=lambda: found.append(solve_double_well(one)))
        worker.start()
        try:
            assert entered.wait(60.0)
            assert pickle.dumps(solve_double_well(other)) == fresh[id(other)]
        finally:
            release.set()
            worker.join(60.0)
        assert not worker.is_alive()
        assert [pickle.dumps(r) for r in found] == [fresh[id(one)]]
        for spec in (other, one, other):
            assert pickle.dumps(solve_double_well(spec)) == fresh[id(spec)]

    def test_threads_alternating_two_specs_get_fresh_bits(self):
        # Four threads, more than most test machines have cores, each
        # alternating the two specs 1,000 times in both call orders.
        # Records pickle every float as its 8 bytes.
        specs = [EXAMPLE_SPEC, next(p.values[0] for p in SYMMETRIC if p.id != "example")]
        expected = []
        for spec in specs:
            tunneling._last = (object(),)
            result = pickle.dumps(solve_double_well(spec))
            tunneling._last = (object(),)
            expected.append((result, pickle.dumps(symmetric_base(spec))))
        found = [[] for _ in range(4)]

        def work(offset):
            for i in range(1000):
                k = (i + offset) % 2
                spec = specs[k]
                if i % 4 < 2:
                    result = solve_double_well(spec)
                    base = symmetric_base(spec)
                else:
                    base = symmetric_base(spec)
                    result = solve_double_well(spec)
                found[offset].append((k, result, base))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(offset,)) for offset in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(120.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for calls in found:
            assert len(calls) == 1000
            for k, result, base in calls:
                assert (pickle.dumps(result), pickle.dumps(base)) == expected[k]


def _finite_difference_shifts(spec, h):
    """Relative central-difference shifts of every derived quantity under
    (v_m2 + h, v_2 - h), re-deriving each perturbed configuration from
    scratch.  Returns a dict keyed like DeltaLedger's fields."""
    def derived(dv):
        shifted = replace(spec, v_m2=spec.v_m2 + dv, v_2=spec.v_2 - dv)
        red = reduce(shifted)
        y_left = solve_y(red.alpha_m1, red.alpha_m3)
        y_right = solve_y(red.alpha_1, red.alpha_3)
        left = derive_well(y_left, red.alpha_m1, red.alpha_m3, red.beta_m1)
        right = derive_well(y_right, red.alpha_1, red.alpha_3, red.beta_1)
        return {
            "alpha_m3": red.alpha_m3,
            "alpha_m1": red.alpha_m1,
            "alpha_1": red.alpha_1,
            "alpha_3": red.alpha_3,
            "y_m2": y_left,
            "y_2": y_right,
            "s_m3": red.alpha_m3 * y_left,
            "s_m1": red.alpha_m1 * y_left,
            "s_1": red.alpha_1 * y_right,
            "s_3": red.alpha_3 * y_right,
            "a_m1": left.a_coef,
            "a_1": right.a_coef,
        }

    plus, minus, center = derived(h), derived(-h), derived(0.0)
    return {
        key: (plus[key] - minus[key]) / (2.0 * h) * h / center[key] for key in center
    }


class TestDyadicScalings:
    @pytest.mark.parametrize("spec", SYMMETRIC)
    def test_energies_scale_and_ratios_keep_their_bits(self, spec):
        # Every energy of the layer scales by the map's power of 2, bit for
        # bit, and every dimensionless quantity keeps its bits.
        base = symmetric_base(spec)
        for image_spec, power in dyadic_images(spec):
            image = symmetric_base(image_spec)
            for name in ("delta_e", "e_bar", "min_depth"):
                assert getattr(image, name) == math.ldexp(getattr(base, name), power), name
            for name in ("f_coef", "g_coef", "a_sym", "p_small"):
                assert getattr(image, name) == getattr(base, name), name
            for v in (0.5, 1.0, 2.0):
                levels = perturbed_levels(base, v * base.delta_e)
                seen = perturbed_levels(image, v * image.delta_e)
                for name in ("delta_v", "e_left", "e_right", "e0", "e1"):
                    assert getattr(seen, name) == math.ldexp(getattr(levels, name), power), name
                for name in ("v_ratio", "z_asym", "prob_ratio"):
                    assert getattr(seen, name) == getattr(levels, name), name
            assert invert_ratio(image, 3.0) == math.ldexp(invert_ratio(base, 3.0), power)


class TestDeltaLedger:
    def test_matches_finite_differences(self):
        rng = random.Random(45)
        for _ in range(5):
            spec = random_symmetric_spec(rng)
            base = symmetric_base(spec)
            red = reduce(spec)
            h = 1e-8 * base.min_depth
            ledger = delta_ledger(base, red, h)
            fd = _finite_difference_shifts(spec, h)
            for key, expected in fd.items():
                got = getattr(ledger, key)
                assert got == pytest.approx(expected, rel=1e-4, abs=1e-20), key

    def test_linearity_in_shift(self, example_base):
        red = reduce(EXAMPLE_SPEC)
        one = delta_ledger(example_base, red, 1e-6)
        two = delta_ledger(example_base, red, 2e-6)
        for key in ("alpha_m3", "y_m2", "s_1", "a_1"):
            assert getattr(two, key) == pytest.approx(2.0 * getattr(one, key), rel=1e-12)

    def test_mirror_antisymmetry_on_example(self, example_base):
        # raising the left floor and lowering the right floor shifts the two
        # mirror-image wells oppositely
        red = reduce(EXAMPLE_SPEC)
        ledger = delta_ledger(example_base, red, 1e-6)
        assert ledger.alpha_m3 == -ledger.alpha_3
        assert ledger.alpha_m1 == -ledger.alpha_1
        assert ledger.y_m2 == -ledger.y_2
        assert ledger.s_m1 == -ledger.s_1
        assert ledger.s_m3 == -ledger.s_3
        assert ledger.a_m1 == -ledger.a_1

    def test_too_large_shift_rejected(self, example_base):
        red = reduce(EXAMPLE_SPEC)
        with pytest.raises(PerturbationTooLarge):
            delta_ledger(example_base, red, 0.02 * example_base.min_depth)

    def test_nan_shift_rejected(self, example_base):
        with pytest.raises(PerturbationTooLarge, match="nan"):
            delta_ledger(example_base, reduce(EXAMPLE_SPEC), math.nan)
