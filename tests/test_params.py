"""Spec validation, parsing, and the derived constant reduction."""

import math
import random
from dataclasses import replace

import pytest

from doublewell import (
    AssumptionViolated, DomainError, InvalidSpec, WellSpec, bound_state_exists, load_spec,
    parse_spec, reduce,
)
from doublewell.params import wavenumbers
from genspecs import EXAMPLE_SPEC, mixed_spec_batch


class TestWellSpecValidation:
    def test_boundary_positions_are_derived(self):
        spec = WellSpec(
            hbar=1.0, mass=1.0, v_m4=2.0, v_m2=0.0, v_0=3.0, v_2=1.0, v_4=2.0,
            w_m2=1.5, w_0=2.5, w_2=0.5, x_m3=-1.0,
        )
        assert spec.x_m1 == -1.0 + 1.5
        assert spec.x_1 == -1.0 + 1.5 + 2.5
        assert spec.x_3 == -1.0 + 1.5 + 2.5 + 0.5

    def test_default_left_edge_is_zero(self):
        assert EXAMPLE_SPEC.x_m3 == 0.0

    @pytest.mark.parametrize(
        "field,value,constraint",
        [
            ("v_m4", -0.5, "v_m4 > v_m2"),
            ("v_0", -0.5, "v_0 > v_m2"),
            ("v_2", 1.5, "v_0 > v_2"),
            ("v_4", -0.5, "v_4 > v_2"),
            ("w_m2", 0.0, "w_m2 > 0"),
            ("w_0", -1.0, "w_0 > 0"),
            ("w_2", 0.0, "w_2 > 0"),
            ("hbar", 0.0, "hbar > 0"),
            ("mass", -2.0, "mass > 0"),
        ],
    )
    def test_constraint_violations_name_the_constraint(self, field, value, constraint):
        kwargs = dict(
            hbar=1.0, mass=2.0, v_m4=1.0, v_m2=0.0, v_0=1.0, v_2=0.0, v_4=1.0,
            w_m2=2.0, w_0=10.0, w_2=2.0,
        )
        kwargs[field] = value
        with pytest.raises(InvalidSpec, match=constraint.replace(">", ".")):
            WellSpec(**kwargs)

    @pytest.mark.parametrize("bad", ["1", True, None, 1 + 0j])
    def test_values_that_are_not_real_numbers_rejected(self, bad):
        with pytest.raises(InvalidSpec, match="hbar must be a real number"):
            WellSpec(
                hbar=bad, mass=2.0, v_m4=1.0, v_m2=0.0, v_0=1.0, v_2=0.0, v_4=1.0,
                w_m2=2.0, w_0=10.0, w_2=2.0,
            )

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_rejected(self, bad):
        with pytest.raises(InvalidSpec):
            WellSpec(
                hbar=1.0, mass=2.0, v_m4=1.0, v_m2=bad, v_0=1.0, v_2=0.0, v_4=1.0,
                w_m2=2.0, w_0=10.0, w_2=2.0,
            )


class TestReduce:
    def test_example_constants_are_exact_rationals(self, example_spec):
        red = reduce(example_spec)
        # (pi hbar)^2 / (2 m w^2) with w = 2pi/3 and 10pi/3 collapses to 9/16 and 9/400
        assert red.k_m2 == pytest.approx(9.0 / 16.0, rel=1e-14)
        assert red.k_2 == pytest.approx(9.0 / 16.0, rel=1e-14)
        assert red.k_0 == pytest.approx(9.0 / 400.0, rel=1e-14)
        for w in (red.w_m3, red.w_m1, red.w_1, red.w_3):
            assert w == 1.0
        assert red.alpha_m1 == pytest.approx(0.75, rel=1e-14)
        assert red.alpha_1 == pytest.approx(0.75, rel=1e-14)
        assert red.beta_m1 == pytest.approx(0.15, rel=1e-14)
        assert red.beta_1 == pytest.approx(0.15, rel=1e-14)
        assert red.gamma_m1 == pytest.approx(3 * math.pi / (4 * math.pi + 6), rel=1e-13)

    def test_beta_is_width_scaled_alpha(self):
        for spec in mixed_spec_batch(seed=11, count=8):
            red = reduce(spec)
            assert red.beta_m1 == pytest.approx(
                (spec.w_m2 / spec.w_0) * red.alpha_m1, rel=1e-12
            )
            assert red.beta_1 == pytest.approx(
                (spec.w_2 / spec.w_0) * red.alpha_1, rel=1e-12
            )

    def test_gamma_below_alpha_and_all_positive(self):
        for spec in mixed_spec_batch(seed=12, count=8):
            red = reduce(spec)
            pairs = [
                (red.gamma_m3, red.alpha_m3),
                (red.gamma_m1, red.alpha_m1),
                (red.gamma_1, red.alpha_1),
                (red.gamma_3, red.alpha_3),
            ]
            for gamma, alpha in pairs:
                assert 0.0 < gamma < alpha
            for value in (
                red.w_m3, red.w_m1, red.w_1, red.w_3,
                red.k_m2, red.k_0, red.k_2,
                red.beta_m1, red.beta_1,
            ):
                assert value > 0.0

    def test_scaling_invariance_of_dimensionless_constants(self):
        rng = random.Random(3)
        spec = EXAMPLE_SPEC
        scale_e = 10.0 ** rng.uniform(-2, 2)
        scale_x = 10.0 ** rng.uniform(-2, 2)
        # E -> s E and x -> L x with hbar -> hbar L sqrt(s) leaves alphas alone
        scaled = WellSpec(
            hbar=spec.hbar * scale_x * math.sqrt(scale_e),
            mass=spec.mass,
            v_m4=spec.v_m4 * scale_e, v_m2=spec.v_m2 * scale_e, v_0=spec.v_0 * scale_e,
            v_2=spec.v_2 * scale_e, v_4=spec.v_4 * scale_e,
            w_m2=spec.w_m2 * scale_x, w_0=spec.w_0 * scale_x, w_2=spec.w_2 * scale_x,
        )
        red0, red1 = reduce(spec), reduce(scaled)
        for name in ("alpha_m3", "alpha_m1", "alpha_1", "alpha_3", "beta_m1", "beta_1",
                     "gamma_m3", "gamma_m1", "gamma_1", "gamma_3"):
            assert getattr(red1, name) == pytest.approx(getattr(red0, name), rel=1e-12)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"w_0": 1e308}, {"w_m2": 1e-300}, {"hbar": 1e-200},
            # Finite and nonzero, but subnormal: lost digits every level inherits.
            {"hbar": 1e-158, "mass": 1e-200}, {"hbar": 1e-5, "mass": 1e300},
            {"mass": 1e290, "w_0": 1e10}, {"hbar": 1e-150, "w_0": 1e-160},
        ],
        ids=[
            "square-overflows", "square-underflows", "scale-underflows",
            "hbar-square-subnormal", "scale-subnormal", "k-0-subnormal", "width-square-subnormal",
        ],
    )
    def test_energy_scale_outside_float64_is_refused(self, overrides):
        with pytest.raises(AssumptionViolated, match="leaves the float64 range"):
            reduce(replace(EXAMPLE_SPEC, **overrides))

    def test_underflowed_barrier_scale_is_refused(self):
        # K_0 ~ 5e-300 over steps of 1e25: beta = sqrt(K_0 / W) is 0 in float64,
        # and every barrier coefficient divides by it.
        spec = WellSpec(
            hbar=1.0, mass=1.0, v_m4=1e25, v_m2=0.0, v_0=1e25, v_2=0.0, v_4=1e25,
            w_m2=1.0, w_0=1e150, w_2=1.0,
        )
        with pytest.raises(AssumptionViolated, match="beta = sqrt"):
            reduce(spec)


class TestWavenumbers:
    def test_example_at_the_mean_level(self, example_spec):
        # 2 m |E - V| / hbar^2 is 3 under the walls and barrier, 1 in the wells.
        root3 = math.sqrt(3.0)
        assert wavenumbers(example_spec, 0.25) == (root3, 1.0, root3, 1.0, root3)

    @pytest.mark.parametrize(
        "overrides, energy",
        [
            # 2 m (E - V) underflows to 0 in every region.
            (dict(hbar=5.85e-82, mass=8.27e-155, v_m4=2.57e-187, v_0=3.17e-166,
                  v_4=2.57e-187, w_m2=7.27e94, w_0=2.57e57, w_2=7.27e94), 3.87e-198),
            # sqrt(2 m (E - V)) is positive, but dividing it by hbar underflows.
            (dict(hbar=1e308, mass=1e-300), 0.25),
        ],
    )
    def test_wavenumber_underflowing_to_zero_is_refused(self, example_spec, overrides, energy):
        with pytest.raises(AssumptionViolated, match="underflows to 0"):
            wavenumbers(replace(example_spec, **overrides), energy)

    @pytest.mark.parametrize(
        "overrides, energy",
        [
            # 2 m (E - V) overflows under the walls and the barrier.
            (dict(hbar=6.06e116, mass=4.10e133, v_m4=4.68e182, v_0=4.55e192, v_4=4.68e182),
             1.30e114),
            # sqrt(2 m (E - V)) is finite, but dividing it by a subnormal hbar overflows.
            (dict(hbar=1e-310), 0.25),
        ],
    )
    def test_wavenumber_overflowing_to_inf_is_refused(self, example_spec, overrides, energy):
        with pytest.raises(AssumptionViolated, match="overflows at energy"):
            wavenumbers(replace(example_spec, **overrides), energy)


class TestBoundStateExists:
    def test_small_coefficients_always_bind(self):
        assert bound_state_exists(0.9, 0.9)
        assert bound_state_exists(2.0, 0.0)
        assert bound_state_exists(0.0, 0.0)

    def test_large_sum_needs_the_cosine_condition(self):
        # sum 3.0, smaller 1.5 >= 3 cos(pi/3) = 1.5: marginally bound
        assert bound_state_exists(1.5, 1.5)
        # sum 3.1, smaller 0.1 < 3.1 cos(pi/3.1): unbound
        assert not bound_state_exists(3.0, 0.1)
        assert not bound_state_exists(4.0, 1.0)

    @pytest.mark.parametrize(
        "alphas", [(-1.0, 0.5), (0.5, -1e-300), (math.nan, 0.5), (0.5, math.nan)]
    )
    def test_negative_alpha_is_a_domain_error(self, alphas):
        # No spec is involved, so the refusal is not InvalidSpec.  A NaN
        # alpha used to read as unbound on the inner side, bound on the outer.
        with pytest.raises(DomainError, match="alpha >= 0") as info:
            bound_state_exists(*alphas)
        assert not isinstance(info.value, InvalidSpec)


SPEC_TEXT = """\
# symmetric layout
hbar = 1.0
mass = 2.0   # particle mass
v_m4 = 1.0
v_m2 = 0.0
v_0  = 1.0
v_2  = 0.0
v_4  = 1.0

w_m2 = 2.0943951023931953
w_0  = 10.471975511965976
w_2  = 2.0943951023931953
"""


class TestParseSpec:
    def test_comments_blanks_and_defaults(self):
        spec = parse_spec(SPEC_TEXT)
        assert spec.mass == 2.0
        assert spec.w_0 == 10.471975511965976
        assert spec.x_m3 == 0.0

    def test_optional_left_edge(self):
        spec = parse_spec(SPEC_TEXT + "x_m3 = -3.5\n")
        assert spec.x_m3 == -3.5

    def test_unknown_key_rejected_with_line_number(self):
        with pytest.raises(InvalidSpec, match="(?s)line 13.*unknown.*v_6"):
            parse_spec(SPEC_TEXT + "v_6 = 1.0\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(InvalidSpec, match="duplicate"):
            parse_spec(SPEC_TEXT + "mass = 3.0\n")

    def test_missing_key_rejected(self):
        text = SPEC_TEXT.replace("v_4  = 1.0\n", "")
        with pytest.raises(InvalidSpec, match="v_4"):
            parse_spec(text)

    def test_non_numeric_value_rejected(self):
        with pytest.raises(InvalidSpec, match="number"):
            parse_spec(SPEC_TEXT.replace("mass = 2.0   # particle mass", "mass = heavy"))

    def test_malformed_line_rejected(self):
        with pytest.raises(InvalidSpec):
            parse_spec(SPEC_TEXT + "just some words\n")

    def test_load_spec_roundtrip(self, tmp_path):
        path = tmp_path / "well.spec"
        path.write_text(SPEC_TEXT)
        spec = load_spec(str(path))
        assert spec == parse_spec(SPEC_TEXT)

    def test_load_spec_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_spec(str(tmp_path / "nope.spec"))

    def test_load_spec_not_utf8_raises_invalid_spec(self, tmp_path):
        path = tmp_path / "bin.spec"
        path.write_bytes(SPEC_TEXT.encode() + b"\xff\xfe\x00bad")
        offset = len(SPEC_TEXT.encode())
        want = f"bin.spec: not UTF-8 text: byte 0xff at offset {offset}$"
        with pytest.raises(InvalidSpec, match=want):
            load_spec(str(path))
