"""Seeded sweep over extreme specs: every layer returns or refuses.

Each drawn spec is valid, but its scales span most of float64: hbar and
mass log-uniform in 1e±200, widths in 1e±150, potential steps from 1e-300
up to 1e308, and three draws in ten a mirror-symmetric pair of wells.
Wherever an intermediate overflows or underflows there, the closed form,
the perturbation layer, the assembled states and the oracle must refuse
with a package error (a ``DoubleWellError``) rather than crash.  A state
that assembles splits its probability as P_left + P_right = 1.
"""

import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from doublewell import (
    DoubleWellError, InvalidSpec, WellSpec, assemble, compare, perturbed_levels, probabilities,
    solve_double_well, symmetric_base,
)


def _log_uniform(lo: float, hi: float, count: int) -> list:
    return [st.floats(min_value=lo, max_value=hi).map(lambda e: 10.0**e)] * count


def _fields(draw: tuple) -> dict:
    """Spec fields from (hbar, mass, three widths, four steps) and whether
    the right well mirrors the left; the left floor is 0."""
    (hbar, mass, w_m2, w_0, w_2, w_m3, w_m1, w_1, w_3), mirror = draw
    if mirror:
        v_2, v_4, w_2 = 0.0, w_m3, w_m2
    else:
        v_2 = w_m1 - w_1
        v_4 = v_2 + w_3
    return dict(
        hbar=hbar, mass=mass, v_m4=w_m3, v_m2=0.0, v_0=w_m1, v_2=v_2, v_4=v_4,
        w_m2=w_m2, w_0=w_0, w_2=w_2,
    )


EXTREME_FIELDS = st.tuples(
    st.tuples(
        *_log_uniform(-200.0, 200.0, 2), *_log_uniform(-150.0, 150.0, 3),
        *_log_uniform(-300.0, 308.0, 4),
    ),
    st.sampled_from([True] * 3 + [False] * 7),
).map(_fields)


@seed(1)
@settings(max_examples=300, deadline=None, database=None)
@given(fields=EXTREME_FIELDS)
def test_closed_form_returns_or_refuses(fields):
    try:
        spec = WellSpec(**fields)
    except InvalidSpec:
        assume(False)  # rounding merged two potentials, or one overflowed
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
            left, right = probabilities(assemble(spec, result.reduced, level))
        except DoubleWellError:
            continue
        assert left + right == pytest.approx(1.0, rel=0.0, abs=1e-12)
    try:
        compare(spec)
    except DoubleWellError:
        pass
