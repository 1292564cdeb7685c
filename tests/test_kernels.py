"""The straight-line scalar kernels against the table-driven references.

``oracle.shoot``, ``wavefunc.probabilities`` and ``wavefunc._boundary_pairs``
are written out region by region.  Here they must give the bits of the
table-driven per-region dispatch in ``tests/oracles.py``, for both
parities, for every barrier-node position the model record admits, at shots
across each band and through the refusals.  The last test checks that
``compare`` calls the public names that ``bench/tracer.py`` wraps.
"""

import math
import struct
from dataclasses import replace

import pytest

from doublewell import (
    AssumptionViolated,
    DoubleWellError,
    MatchingResidualTooLarge,
    Parity,
    WellSpec,
    assemble,
    compare,
    oracle,
    shoot,
    solve_double_well,
    wavefunc,
)
from doublewell.params import band
from doublewell.wavefunc import _boundary_pairs, _check_matching
from genspecs import EXAMPLE_SPEC, mixed_spec_batch
from oracles import ref_boundary_pairs, ref_probabilities, ref_shoot

SPECS = [EXAMPLE_SPEC, *mixed_spec_batch(7, 200)]

# Finite wavenumbers, but the shot's radius overflows (tests/test_extreme_specs.py).
AMPLITUDE_OVERFLOW_SPEC = WellSpec(
    hbar=9.540931035440227e-60, mass=1.3852209883670121e111, v_m4=4.487993062256203e83,
    v_m2=0.0, v_0=9.302244753529048e-178, v_2=0.0, v_4=4.487993062256203e83,
    w_m2=514484343.6919823, w_0=2.04046076552649e33, w_2=514484343.6919823,
)


def bits(value):
    """A float, or nested tuples and lists of floats, as exact bytes."""
    if isinstance(value, float):
        return struct.pack("<d", value)
    return tuple(bits(item) for item in value)


def models(parity):
    """Every model of ``parity`` that SPECS assemble."""
    found = []
    for spec in SPECS:
        solution = solve_double_well(spec)
        level = solution.ground if parity == Parity.GROUND else solution.excited
        try:
            found.append(assemble(spec, solution.reduced, level))
        except DoubleWellError:
            continue
    return found


def node_positions(model):
    """The assembled node, then one inside each of the five regions, one on
    each of the four edges, -inf, inf and NaN."""
    x_m3, x_m1, x_1, x_3 = model.x_m3, model.x_m1, model.x_1, model.x_3
    return [
        model.barrier_node,
        x_m3 - (x_m1 - x_m3), 0.5 * (x_m3 + x_m1), 0.25 * x_m1 + 0.75 * x_1,
        0.5 * (x_1 + x_3), x_3 + (x_3 - x_1),
        x_m3, x_m1, x_1, x_3,
        -math.inf, math.inf, math.nan,
    ]


@pytest.mark.parametrize("parity", [Parity.GROUND, Parity.EXCITED], ids=["ground", "excited"])
def test_probabilities_and_boundary_pairs_give_the_reference_bits(parity):
    checked = models(parity)
    # The worked example and most of the batch assemble.
    assert len(checked) > 150 and checked[0].parity == parity
    for model in checked:
        for node in node_positions(model):
            moved = replace(model, barrier_node=node)
            assert bits(wavefunc.probabilities(moved)) == bits(ref_probabilities(moved)), node
            assert bits(_boundary_pairs(moved)) == bits(ref_boundary_pairs(moved)), node


def test_a_node_outside_the_barrier_counts_each_region_once_per_side_it_reaches():
    # A node inside the left well splits that well: its left part joins the
    # left tail.  A node inside a tail counts that tail whole on both sides,
    # so the far side's tail is all that the near side holds.
    solution = solve_double_well(EXAMPLE_SPEC)
    model = assemble(EXAMPLE_SPEC, solution.reduced, solution.excited)
    tail_left = model.amp_m4**2 / (2.0 * model.kappa_m4)
    tail_right = model.amp_4**2 / (2.0 * model.kappa_4)
    in_well = replace(model, barrier_node=0.5 * (model.x_m3 + model.x_m1))
    assert wavefunc.probabilities(in_well)[0] > tail_left
    assert wavefunc.probabilities(replace(model, barrier_node=model.x_m3 - 1.0))[0] == tail_left
    assert wavefunc.probabilities(replace(model, barrier_node=model.x_3 + 1.0))[1] == tail_right
    assert wavefunc.probabilities(replace(model, barrier_node=math.nan)) == (0.0, 0.0)


def across(spec, count=20):
    """``count`` energies evenly inside ``band(spec)``."""
    lo, hi = band(spec)
    return [lo + (hi - lo) * i / (count + 1.0) for i in range(1, count + 1)]


def test_shoot_gives_the_reference_bits_across_the_band():
    for spec in SPECS:
        for energy in across(spec):
            shot = shoot(spec, energy)
            want = (energy, *ref_shoot(spec, energy))
            assert bits((shot.energy, shot.phase, shot.residual)) == bits(want), (spec, energy)


@pytest.mark.parametrize(
    "spec, refusal",
    [
        (replace(EXAMPLE_SPEC, w_m2=1e308, w_2=1e308), "phase"),
        (AMPLITUDE_OVERFLOW_SPEC, "amplitude"),
    ],
    ids=["phase-overflow", "amplitude-overflow"],
)
def test_shoot_refuses_where_the_reference_leaves_the_float64_range(spec, refusal):
    # The amplitude overflows only near the levels of its opaque barrier.
    extra = [solve_double_well(spec).splitting.e0] if refusal == "amplitude" else []
    refused = 0
    for energy in [*across(spec), *extra]:
        try:
            phase, residual = ref_shoot(spec, energy)
        except ValueError:  # sin or cos of an infinite phase
            phase = residual = math.nan
        if math.isfinite(residual):
            shot = shoot(spec, energy)
            assert bits((shot.phase, shot.residual)) == bits((phase, residual)), energy
            continue
        with pytest.raises(AssumptionViolated, match=f"{refusal} leaves the float64 range"):
            shoot(spec, energy)
        refused += 1
    assert refused > 0


@pytest.mark.parametrize("parity", [Parity.GROUND, Parity.EXCITED], ids=["ground", "excited"])
@pytest.mark.parametrize("field", ["amp_m4", "amp_m2", "amp_2", "amp_4"])
def test_matching_refusal_names_the_reference_worst_residual(parity, field):
    solution = solve_double_well(EXAMPLE_SPEC)
    level = solution.ground if parity == Parity.GROUND else solution.excited
    model = assemble(EXAMPLE_SPEC, solution.reduced, level)
    nudged = replace(model, **{field: getattr(model, field) * (1.0 + 1e-5)})
    value_scale = max(nudged.amp_m2, nudged.amp_2)
    slope_scale = max(nudged.amp_m2 * nudged.k_m2, nudged.amp_2 * nudged.k_2)
    worst, worst_at = 0.0, nudged.x_m3
    for x, (v_left, s_left), (v_right, s_right) in ref_boundary_pairs(nudged):
        residual = max(abs(v_left - v_right) / value_scale, abs(s_left - s_right) / slope_scale)
        if residual > worst:
            worst, worst_at = residual, x
    assert worst > 1e-6
    with pytest.raises(MatchingResidualTooLarge) as refusal:
        _check_matching(nudged)
    assert str(refusal.value) == (
        f"continuity residual {worst!r} at x={worst_at!r} exceeds 1e-6 of the "
        "peak amplitude; inputs are inconsistent"
    )


def test_compare_calls_the_traced_names(monkeypatch):
    # bench/tracer.py swaps these module globals for timing wrappers; CI gates
    # on its shoots per compare, which reads 0 if the oracle stops calling them.
    counts = {"shoot": 0, "find_level": 0, "probabilities": 0}

    def counting(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counting(oracle, "shoot")
    counting(oracle, "find_level")
    counting(wavefunc, "probabilities")
    compare(EXAMPLE_SPEC)
    assert counts == {"shoot": 8, "find_level": 2, "probabilities": 2}
