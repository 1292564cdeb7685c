"""Seeded sweep over extreme specs: every layer returns or refuses.

Each drawn spec is valid, but its scales span most of float64: hbar and
mass log-uniform in 1e±200, widths in 1e±150, potential steps from 1e-300
up to 1e308, and three draws in ten a mirror-symmetric pair of wells
(``genspecs.EXTREME_EXPONENTS``).  Wherever an intermediate overflows or
underflows there, the closed form, the perturbation layer, the assembled
and sampled states and the oracle must refuse with a package error (a
``DoubleWellError``) rather than crash, and the CLI's ``sample`` and
``oracle`` must exit 0 or with a documented code (2-7).  A state that
assembles splits its probability as P_left + P_right = 1.
``tests/census_extreme.py`` counts the same layers' refusals over many
more draws.
"""

import io
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import asdict

import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from doublewell import (
    AssumptionViolated, DoubleWellError, InvalidSpec, WellSpec, assemble, compare,
    perturbed_levels, probabilities, sample, shoot, solve_double_well, symmetric_base,
)
from doublewell.cli import main
from genspecs import EXTREME_EXPONENTS, extreme_fields

EXTREME_FIELDS = st.tuples(
    st.tuples(*(st.floats(lo, hi).map(lambda e: 10.0**e) for lo, hi in EXTREME_EXPONENTS)),
    st.sampled_from([True] * 3 + [False] * 7),  # EXTREME_MIRROR_SHARE
).map(lambda draw: extreme_fields(*draw))

# Valid specs that the closed form solves, but whose float rounding defeats
# a later layer: pi - k w cancels an inner phase to below 0, the barrier is
# narrower than an ulp of its position, and the shot's amplitude overflows
# at the closed-form e0 (where the last one's inner phase also rounds to 0).
PHASE_CANCELLED = dict(
    hbar=217.59123085878235, mass=1.4757619462400663e164, v_m4=2.621693020564781e35, v_m2=0.0,
    v_0=3.5292020290176065e-146, v_2=0.0, v_4=2.621693020564781e35,
    w_m2=2.932650496542412e16, w_0=1.8337828643295054e36, w_2=2.932650496542412e16,
)
BARRIER_BELOW_ULP = dict(
    hbar=2.857099717862214e-29, mass=9.46362319485338e-103, v_m4=4.066654838224296e21, v_m2=0.0,
    v_0=5.221957739441159e-97, v_2=0.0, v_4=4.066654838224296e21,
    w_m2=7.146999476758136e114, w_0=9.017771846759434e58, w_2=7.146999476758136e114,
)
AMPLITUDE_OVERFLOW = dict(
    hbar=9.540931035440227e-60, mass=1.3852209883670121e111, v_m4=4.487993062256203e83, v_m2=0.0,
    v_0=9.302244753529048e-178, v_2=0.0, v_4=4.487993062256203e83,
    w_m2=514484343.6919823, w_0=2.04046076552649e33, w_2=514484343.6919823,
)


def _exit_code(spec: WellSpec, command: str, *options: str) -> int:
    """Exit code of ``doublewell <command> <spec file> <options>``, with
    sample's CSV written to a scratch directory and both streams dropped."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "extreme.spec")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("".join(f"{name} = {value!r}\n" for name, value in asdict(spec).items()))
        if command == "sample":
            options += ("--out", os.path.join(tmp, "psi.csv"))
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            return main([command, path, *options])


@seed(1)
@settings(max_examples=300, deadline=None, database=None)
@given(fields=EXTREME_FIELDS)
def test_closed_form_returns_or_refuses(fields):
    try:
        spec = WellSpec(**fields)
    except InvalidSpec:
        assume(False)  # rounding merged two potentials, or one overflowed
    for command in ("sample", "oracle"):
        assert _exit_code(spec, command) in (0, 2, 3, 4, 5, 6, 7)
    try:
        perturbed_levels(symmetric_base(spec), 0.0)
    except DoubleWellError:
        pass
    try:
        result = solve_double_well(spec)
    except DoubleWellError:
        return
    for level in (result.ground, result.excited):
        try:
            model = assemble(spec, result.reduced, level)
        except DoubleWellError:
            continue
        left, right = probabilities(model)
        assert left + right == pytest.approx(1.0, rel=0.0, abs=1e-12)
        try:
            sample(model, model.x_m3, model.x_3, 101)
        except DoubleWellError:
            pass
    try:
        compare(spec)
    except DoubleWellError:
        pass


@pytest.mark.parametrize(
    "fields", [PHASE_CANCELLED, BARRIER_BELOW_ULP, AMPLITUDE_OVERFLOW],
    ids=["phase-cancelled", "barrier-below-ulp", "amplitude-overflow"],
)
def test_rounded_away_state_is_refused_as_float_range(fields):
    # Float rounding, not an inconsistent input: AssumptionViolated (exit 3),
    # not DomainError (exit 2) or MatchingResidualTooLarge's blame.
    spec = WellSpec(**fields)
    result = solve_double_well(spec)
    for level in (result.ground, result.excited):
        with pytest.raises(AssumptionViolated, match="float64"):
            assemble(spec, result.reduced, level)
    for state in ("ground", "excited"):
        assert _exit_code(spec, "sample", "--state", state) == 3


def test_overflowing_amplitude_is_refused_by_the_shot():
    # Finite wavenumbers, but the shot's radius overflows: residual inf.
    spec = WellSpec(**AMPLITUDE_OVERFLOW)
    with pytest.raises(AssumptionViolated, match="amplitude leaves the float64 range"):
        shoot(spec, solve_double_well(spec).splitting.e0)
