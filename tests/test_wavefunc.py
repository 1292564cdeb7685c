"""Piecewise wavefunction assembly, normalization, sampling, CSV output."""

import _thread
import io
import math
import os
import random
import sys
import threading
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from doublewell import (
    AssumptionViolated,
    BadRange,
    DomainError,
    EnergyOutOfBand,
    MatchingResidualTooLarge,
    Parity,
    assemble,
    assemble_at_energy,
    derivative,
    evaluate,
    probabilities,
    reduce,
    sample,
    solve_double_well,
    write_sample_csv,
)
from doublewell import wavefunc
from doublewell.wavefunc import _CSV_BLOCK_ROWS, _boundary_pairs
from genspecs import EXAMPLE_SPEC, dyadic_images, mixed_spec_batch

trapezoid = getattr(np, "trapezoid", None) or np.trapz

# The worked example and a mixed batch, for the exact dyadic maps of a table.
MAP_BATCH = [EXAMPLE_SPEC, *mixed_spec_batch(7, 40)]
MAP_IDS = ["example", *map(str, range(40))]


def _models(spec):
    red = reduce(spec)
    res = solve_double_well(spec)
    return res, assemble(spec, red, res.ground), assemble(spec, red, res.excited)


def _reference_csv(table):
    """The CSV one f-string per row, as the writer's output is specified."""
    lines = ["x,psi,dpsi\n"]
    for x, psi, dpsi in table:
        lines.append(f"{x:.17g},{psi:.17g},{dpsi:.17g}\n")
    return "".join(lines)


def _edge_table():
    values = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324,
              1.7976931348623157e308, -1.7976931348623157e308, 0.1]
    return np.array(values).reshape(3, 3)


def _wide_table():
    # Two full blocks and a partial third; magnitudes 1e-300..1e300.
    rng = np.random.default_rng(2500)
    shape = (2500, 3)
    return rng.standard_normal(shape) * 10.0 ** rng.uniform(-300.0, 300.0, shape)


def _block_edge_table():
    """Two full blocks and one row of ordinary values, with the values the
    exact integers cannot decide as the first and the last values of every
    block, so on both sides of each block edge."""
    undecided = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e-251, 1e250,
                 1.7976931348623157e308, -1.7976931348623157e308,
                 1000000000000000.25, 1000000000000000.75]
    values = np.random.default_rng(2049).standard_normal(3 * (2 * _CSV_BLOCK_ROWS + 1))
    for start in range(0, len(values), 3 * _CSV_BLOCK_ROWS):
        block = values[start : start + 3 * _CSV_BLOCK_ROWS]
        block[: len(undecided)] = undecided[: len(block)]
        block[-len(undecided) :] = undecided[-len(block) :]
    return values.reshape(-1, 3)


def _switch_table():
    """Values where %.17g's layout or rounding switches, both signs: zeros,
    NaN, infinities, the subnormal, normal and finite ends, the integer
    writer's range ends 1e-250 and 1e250 and every power of ten from 1e-5
    (exponent notation below) to 1e17 (exponent notation from), each with
    its float neighbours; three-digit exponents; exact 17-digit ties."""
    values = [0.0, math.nan, math.inf, 5e-324, 1.7976931348623157e308,
              1000000000000000.25, 1000000000000000.75, 1.5e100, 2.5e-100,
              1.2345678901234567e-123, 9.8700000000000001e299]
    edges = [2.2250738585072014e-308, 1e-250, 1e250, *(float(f"1e{e}") for e in range(-5, 18))]
    for edge in edges:
        values += [math.nextafter(edge, 0.0), edge, math.nextafter(edge, math.inf)]
    values += [-value for value in values]
    values += [0.0] * (-len(values) % 3)
    return np.array(values).reshape(-1, 3)


# Any float64: raw bit patterns (every exponent alike) or hypothesis's
# floats (biased to edge cases).
_ANY_FLOAT = st.one_of(
    st.integers(0, 2**64 - 1).map(lambda bits: float(np.uint64(bits).view(np.float64))),
    st.floats(),
)


def _states():
    """Both doublet levels of the worked example, each with its region
    edges."""
    _, ground, excited = _models(EXAMPLE_SPEC)
    edges = (ground.x_m3, ground.x_m1, ground.x_1, ground.x_3)
    return [(ground, edges), (excited, edges)]


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


# A grid is split among threads of at least 2^18 points each, so the least
# grid split holds 2^19.  The sizes about it: one point short, it, one past.
PART = 2**18
SPLIT_SIZES = [2 * PART - 1, 2 * PART, 2 * PART + 1]

# Most split cases run with the three split thresholds patched down by SCALE,
# on grids of a few thousand points; one case per path keeps the real ones.
SCALE = 2**8
_THRESHOLDS = {name: getattr(wavefunc, name) for name in ("_SPLIT", "_SHARE", "_CHUNK")}


def _small_split(monkeypatch, n=0):
    """Patches the split thresholds down by SCALE and returns the grid size
    that sits against them as ``n`` sits against the real ones: k shares
    of 2^18 points, give or take one, become k shares of 2^10."""
    for name, value in _THRESHOLDS.items():
        monkeypatch.setattr(wavefunc, name, value // SCALE)
    shares = round(n / PART)
    return shares * (PART // SCALE) + n - shares * PART

# How a split fill starts each helper thread: _thread.start_new_thread.
_START = _thread.start_new_thread


def _threads_per_call(n, cpus):
    """Helper threads one field call starts on a grid of n points with
    ``cpus``, at the split thresholds in force."""
    share = wavefunc._SHARE
    return min(cpus, n // share) - 1 if n >= 2 * share else 0


def _one_cpu_then_split(monkeypatch, compute, cpus=2, start=_START):
    """``compute()`` with the CPU count patched to 1, then to ``cpus`` with
    each helper started by ``start``, and the number of helpers the second
    call asked ``start`` for."""
    started = []

    def counted(function, args):
        started.append(function)
        return start(function, args)

    monkeypatch.setattr(_thread, "start_new_thread", counted)
    monkeypatch.setattr(wavefunc, "_cpus", lambda: 1)
    reference = compute()
    assert not started
    monkeypatch.setattr(wavefunc, "_cpus", lambda: cpus)
    return reference, compute(), len(started)


def _start_first(function, args):
    """Runs the helper to its end before returning, so the helpers fill
    every chunk, or find the disorder, before the calling thread takes one."""
    helper = threading.Thread(target=function, args=args)
    helper.start()
    helper.join(60.0)
    assert not helper.is_alive()


def _held(ran):
    """A helper start that holds each helper back until the calling thread
    has emptied the queue on its own (a split fill of 2^19 points takes a
    few ms), then notes the helper in ``ran`` and lets it go on."""

    def start(function, args):
        def late(*args):
            time.sleep(0.05)
            ran.append(function)
            function(*args)

        return _START(late, args)

    return start


def _start_failing(function, args):
    raise RuntimeError("can't start new thread")


def _no_start(function, args):
    raise AssertionError("a helper thread was asked for")


def _potential(spec, x):
    if x < spec.x_m3:
        return spec.v_m4
    if x < spec.x_m1:
        return spec.v_m2
    if x < spec.x_1:
        return spec.v_0
    if x < spec.x_3:
        return spec.v_2
    return spec.v_4


class TestContinuity:
    @pytest.mark.parametrize("index", range(20))
    def test_value_and_slope_match_at_every_boundary(self, index):
        spec = mixed_spec_batch(seed=51, count=20)[index]
        _, ground, excited = _models(spec)
        for model in (ground, excited):
            value_scale = max(model.amp_m2, model.amp_2)
            slope_scale = max(model.amp_m2 * model.k_m2, model.amp_2 * model.k_2)
            for x, (v_l, s_l), (v_r, s_r) in _boundary_pairs(model):
                assert abs(v_l - v_r) <= 1e-10 * value_scale, x
                assert abs(s_l - s_r) <= 1e-10 * slope_scale, x


class TestShape:
    def test_node_counts(self, example_spec):
        _, ground, excited = _models(example_spec)
        xs = np.linspace(example_spec.x_m3, example_spec.x_3, 20001)
        for model, expected_nodes in ((ground, 0), (excited, 1)):
            vals = evaluate(model, xs)
            signs = np.sign(vals)
            signs = signs[signs != 0]
            assert int(np.sum(signs[1:] != signs[:-1])) == expected_nodes

    def test_extrema_and_barrier_node(self, example_spec):
        _, ground, excited = _models(example_spec)
        for model in (ground, excited):
            assert derivative(model, model.extremum_left) == pytest.approx(
                0.0, abs=1e-12 * model.amp_m2 * model.k_m2
            )
            assert derivative(model, model.extremum_right) == pytest.approx(
                0.0, abs=1e-12 * model.amp_2 * model.k_2
            )
        assert evaluate(excited, excited.barrier_node) == 0.0
        # the ground state instead peaks nowhere in the barrier: its hyperbolic
        # profile has zero slope at the same center point
        assert derivative(ground, ground.barrier_node) == pytest.approx(
            0.0, abs=1e-12 * ground.amp_0 * ground.kappa_0
        )

    def test_far_tails_decay_without_overflow(self):
        for spec in mixed_spec_batch(seed=52, count=6):
            _, ground, excited = _models(spec)
            for model in (ground, excited):
                far_left = spec.x_m3 - 50.0 / model.kappa_m4
                far_right = spec.x_3 + 50.0 / model.kappa_4
                for x in (far_left, far_right):
                    val = evaluate(model, x)
                    assert math.isfinite(val)
                    assert abs(val) < 1e-18 * max(model.amp_m2, model.amp_2)

    @pytest.mark.parametrize(
        "scale, floors",
        [
            (40.0, {}),  # a piece mass overflows
            (80.0, {}),  # cosh of the barrier offset overflows
            (21.0, {"v_2": -1e-12, "v_4": 1.0 - 1e-12}),  # the deeper side's barrier mass
        ],
    )
    def test_float64_overflow_is_refused(self, scale, floors):
        spec = replace(EXAMPLE_SPEC, w_0=scale * EXAMPLE_SPEC.w_0, **floors)
        res = solve_double_well(spec)
        for level in (res.ground, res.excited):
            with pytest.raises(AssumptionViolated, match="float64 range"):
                assemble(spec, res.reduced, level)

    def test_derivative_consistent_with_finite_differences(self, example_spec):
        _, ground, _ = _models(example_spec)
        rng = random.Random(53)
        h = 1e-7
        for _ in range(40):
            x = rng.uniform(example_spec.x_m3 + 0.01, example_spec.x_3 - 0.01)
            fd = (evaluate(ground, x + h) - evaluate(ground, x - h)) / (2.0 * h)
            assert derivative(ground, x) == pytest.approx(
                fd, abs=1e-6 * ground.amp_m2 * ground.k_m2
            )

    def test_satisfies_schrodinger_equation_pointwise(self):
        for spec in mixed_spec_batch(seed=54, count=4):
            res, ground, excited = _models(spec)
            pref = spec.hbar**2 / (2.0 * spec.mass)
            for model in (ground, excited):
                h = 1e-4 * 2.0 * math.pi / max(model.k_m2, model.k_2)
                scale = max(model.amp_m2, model.amp_2) * max(model.k_m2, model.k_2) ** 2
                rng = random.Random(55)
                boundaries = (spec.x_m3, spec.x_m1, spec.x_1, spec.x_3)
                checked = 0
                while checked < 30:
                    x = rng.uniform(spec.x_m3 - 0.3 * spec.w_m2, spec.x_3 + 0.3 * spec.w_2)
                    if any(abs(x - b) < 2.0 * h for b in boundaries):
                        continue
                    psi = evaluate(model, x)
                    lap = (
                        evaluate(model, x + h) - 2.0 * psi + evaluate(model, x - h)
                    ) / h**2
                    residual = -pref * lap + (_potential(spec, x) - model.energy) * psi
                    assert abs(residual) < 1e-4 * pref * scale, (x, residual)
                    checked += 1


class TestNaNPositions:
    def test_nan_in_gives_nan_out(self, example_spec):
        _, ground, excited = _models(example_spec)
        for model in (ground, excited):
            assert math.isnan(evaluate(model, math.nan))
            assert math.isnan(derivative(model, math.nan))
            xs = np.array([math.nan, model.x_m1, math.nan, model.x_3])
            for field in (evaluate, derivative):
                values = field(model, xs)
                assert np.isnan(values[[0, 2]]).all()
                assert values[1] == field(model, model.x_m1)
                assert values[3] == field(model, model.x_3)

    def test_nan_anywhere_in_a_sorted_grid(self):
        # The holed grid fails the order check; so does any permutation of it.
        perm = np.random.default_rng(196).permutation(41)
        for state, edges in _states():
            xs = np.linspace(edges[0] - 2.0, edges[-1] + 2.0, 41)
            for field in (evaluate, derivative):
                clean = field(state, xs)
                for i in (0, 7, 20, 40):
                    holed = xs.copy()
                    holed[i] = math.nan
                    keep = np.arange(len(xs)) != i
                    for order in (np.arange(len(xs)), perm):
                        values = field(state, holed[order])
                        assert (np.isnan(values) == ~keep[order]).all()
                        assert _bits(values[keep[order]]) == _bits(clean[order][keep[order]])


@st.composite
def _grids(draw, edges):
    """A sorted grid of edges, their float neighbours, duplicates, +-inf and
    uniform points around the edges."""
    specials = [-math.inf, math.inf, *edges]
    specials += [math.nextafter(e, d) for e in edges for d in (-math.inf, math.inf)]
    span = edges[-1] - edges[0]
    uniform = st.floats(min_value=edges[0] - span, max_value=edges[-1] + span)
    points = draw(st.lists(st.sampled_from(specials) | uniform, min_size=1, max_size=40))
    return np.sort(np.array(points + draw(st.lists(st.sampled_from(points), max_size=5))))


class TestGridPaths:
    """Every grid is cut into one slice per region; a grid that is not
    non-decreasing is first sorted by position.  Either way each point
    gets the same bits."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), index=st.integers(min_value=0, max_value=1))
    def test_permuted_grid_gives_the_same_bits(self, data, index):
        state, edges = _states()[index]
        xs = data.draw(_grids(edges))
        perm = np.array(data.draw(st.permutations(range(len(xs)))))
        for field in (evaluate, derivative):
            assert _bits(field(state, xs[perm])) == _bits(field(state, xs)[perm])

    def test_caller_array_is_left_unchanged_and_may_be_read_only(self, monkeypatch):
        states = _states()
        edges = states[0][1]
        for n in [101, *(_small_split(monkeypatch, n) for n in SPLIT_SIZES)]:
            grid = np.linspace(edges[0] - 2.0, edges[-1] + 2.0, n)
            grids = (grid, grid[::-1].copy())
            before = [_bits(xs) for xs in grids]
            for xs in grids:
                xs.flags.writeable = False

            def compute():
                return [
                    _bits(field(state, xs))
                    for state, _ in states for xs in grids for field in (evaluate, derivative)
                ]

            reference, split, threads = _one_cpu_then_split(monkeypatch, compute)
            assert split == reference, n
            assert threads == 8 * _threads_per_call(n, 2), n
            assert [_bits(xs) for xs in grids] == before, n

    def test_two_dimensional_input_keeps_its_shape(self, monkeypatch):
        states = _states()
        edges = states[0][1]
        for n in [60, *(_small_split(monkeypatch, n) for n in SPLIT_SIZES)]:
            rows = next(d for d in (6, 3, 2, 1) if n % d == 0)
            # Row-major keeps the grid sorted; the transpose does not (unless
            # one row is all there is).
            shapes = (lambda a: a.reshape(rows, -1), lambda a: a.reshape(-1, rows).T)
            xs = np.linspace(edges[0] - 2.0, edges[-1] + 2.0, n)

            def compute():
                found = []
                for state, _ in states:
                    for field in (evaluate, derivative):
                        flat = field(state, xs)
                        for shaped in shapes:
                            values = field(state, shaped(xs))
                            assert values.shape == shaped(xs).shape
                            assert _bits(values) == _bits(shaped(flat))
                            found.append(_bits(values))
                return found

            reference, split, threads = _one_cpu_then_split(monkeypatch, compute)
            assert split == reference, n
            assert threads == 12 * _threads_per_call(n, 2), n


def _large_grid(kind, n, edges):
    """An n-point grid over every region: sorted, randomly permuted, sorted
    with NaN at both ends and in the middle, or sorted but for one pair out
    of order.  That pair straddles the boundary of the grid's fifth chunk
    (its last point moved to the right tail), or ends the grid (the last
    point moved to the left tail), so an unnoticed disorder would fill
    either point with the wrong region's piece.  The chunk is the one in
    force."""
    grid = np.linspace(edges[0] - 2.0, edges[-1] + 2.0, n)
    if kind == "permuted":
        return grid[np.random.default_rng(n).permutation(n)]
    if kind == "nan":
        grid[[0, n // 2, n - 1]] = math.nan
    if kind == "straddle":
        grid[4 * wavefunc._CHUNK - 1] = grid[-1]
    if kind == "late":
        grid[-1] = grid[0]
    return grid


class TestSplitGrids:
    """A grid of at least two shares of 2^18 points is filled by up to one
    thread per CPU, all but the calling thread started for the call, from
    one queue of chunks that each check their own order.  Each point gets
    the bits of the one-CPU fill whichever thread fills which chunk, a
    disorder anywhere sorts the grid, and a chunk fails as the one-CPU fill
    does, in the calling thread.  Most cases run with the thresholds
    patched down (``_small_split``); the ids keep the real sizes."""

    @pytest.mark.parametrize("n", SPLIT_SIZES)
    @pytest.mark.parametrize("kind", ["sorted", "permuted", "nan", "straddle", "late"])
    def test_split_grid_gives_the_one_cpu_bits(self, monkeypatch, kind, n):
        # Helpers started as usual, run to their end before the calling
        # thread works, held back until it has emptied the queue, or not
        # started at all: the call returns only after every helper has run.
        # Each kind but "late" also runs at full size, on the least grid split.
        if n != 2 * PART or kind == "late":
            n = _small_split(monkeypatch, n)
        states = _states()
        xs = _large_grid(kind, n, states[0][1])

        def compute():
            return [_bits(f(state, xs)) for state, _ in states for f in (evaluate, derivative)]

        reference, split, threads = _one_cpu_then_split(monkeypatch, compute)
        assert split == reference
        assert threads == 4 * _threads_per_call(n, 2)
        ran = []
        for start in (_start_first, _start_failing, _held(ran)):
            monkeypatch.setattr(_thread, "start_new_thread", start)
            assert compute() == reference, start
        assert len(ran) == threads

    @pytest.mark.parametrize("n, cpus", [(n, 2) for n in SPLIT_SIZES] + [(3 * PART, 8)])
    def test_split_sample_gives_the_one_cpu_bits(self, monkeypatch, n, cpus):
        if (n, cpus) != (2 * PART, 2):  # the one case at full size
            n = _small_split(monkeypatch, n)
        states = _states()
        edges = states[0][1]

        def compute():
            return [_bits(sample(state, edges[0] - 2.0, edges[-1] + 2.0, n)) for state, _ in states]

        # Threads switched as often as the interpreter allows, and with 8
        # CPUs more threads than most machines have cores: a chunk that the
        # shared queue lost would show in the bits.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            reference, split, threads = _one_cpu_then_split(monkeypatch, compute, cpus)
        finally:
            sys.setswitchinterval(interval)
        assert split == reference
        assert threads == 4 * _threads_per_call(n, cpus)

    @pytest.mark.parametrize("mode", ["raise", "call"])
    @pytest.mark.parametrize("field", [evaluate, derivative])
    def test_caller_error_state_holds_in_the_second_range(self, monkeypatch, field, mode):
        # Scaled to a quarter of the float64 maximum, the barrier piece
        # overflows wherever cosh or sinh exceeds 4.  The first half of the
        # chunks holds the outer and left-well regions only, the second half
        # the barrier.  Started first, the helper fills every chunk, so only
        # a helper meets the overflow.
        if (field, mode) != (evaluate, "call"):  # the one case at full size
            _small_split(monkeypatch)
        ground, edges = _states()[0]
        state = replace(ground, amp_0=sys.float_info.max / 4.0)
        n = 2 * wavefunc._SHARE
        xs = np.concatenate((
            np.linspace(edges[0] - 2.0, edges[1], n // 2, endpoint=False),
            np.linspace(edges[1], edges[2], n // 2, endpoint=False),
        ))
        monkeypatch.setattr(wavefunc, "_cpus", lambda: 2)
        for start in (_START, _start_first):
            monkeypatch.setattr(_thread, "start_new_thread", start)
            calls = []
            # A thread on numpy's default error state would only warn.
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                if mode == "raise":
                    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
                        field(state, xs)
                else:
                    with np.errstate(over="call", call=lambda kind, flag: calls.append(kind)):
                        values = field(state, xs)
                    assert calls and set(calls) == {"overflow"}
                    assert np.isinf(values[n // 2 :]).any()
                    assert np.isfinite(values[: n // 2]).all()

    def test_one_cpu_starts_no_thread(self, monkeypatch):
        monkeypatch.setattr(wavefunc, "_cpus", lambda: 1)
        monkeypatch.setattr(_thread, "start_new_thread", _no_start)
        state, edges = _states()[0]
        xs = np.linspace(edges[0] - 2.0, edges[-1] + 2.0, _small_split(monkeypatch, 4 * PART))
        for field in (evaluate, derivative):
            assert field(state, xs).shape == xs.shape
        assert sample(state, xs[0], xs[-1], len(xs)).shape == (len(xs), 3)

    def test_cpu_count_is_the_affinity_else_the_cpu_count(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
        assert wavefunc._cpus() == 3
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert wavefunc._cpus() == 6
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert wavefunc._cpus() == 1


class TestNormalization:
    def test_split_masses_sum_to_one(self):
        for spec in mixed_spec_batch(seed=56, count=12):
            _, ground, excited = _models(spec)
            for model in (ground, excited):
                p_left, p_right = probabilities(model)
                assert p_left + p_right == pytest.approx(1.0, rel=1e-12)
                assert p_left > 0.0 and p_right > 0.0

    def test_quadrature_confirms_unit_norm(self, example_spec):
        _, ground, excited = _models(example_spec)
        for model in (ground, excited):
            xs = np.linspace(
                example_spec.x_m3 - 40.0 / model.kappa_m4,
                example_spec.x_3 + 40.0 / model.kappa_4,
                40001,
            )
            norm = trapezoid(evaluate(model, xs) ** 2, xs)
            assert norm == pytest.approx(1.0, abs=1e-5)

    def test_split_masses_match_solution_probabilities(self):
        for spec in mixed_spec_batch(seed=57, count=6):
            red = reduce(spec)
            res = solve_double_well(spec)
            for level in (res.ground, res.excited):
                model = assemble(spec, red, level)
                p_left, p_right = probabilities(model)
                assert p_left == pytest.approx(level.prob_left, rel=1e-6, abs=1e-9)
                assert p_right == pytest.approx(level.prob_right, rel=1e-6, abs=1e-9)


class TestAssembleAtEnergy:
    def test_reproduces_pipeline_state_at_its_energy(self, example_spec):
        red = reduce(example_spec)
        res = solve_double_well(example_spec)
        for parity, level in ((Parity.GROUND, res.ground), (Parity.EXCITED, res.excited)):
            direct = assemble(example_spec, red, level)
            refit = assemble_at_energy(example_spec, red, parity, level.energy)
            assert refit.amp_m2 == pytest.approx(direct.amp_m2, rel=1e-6)
            assert refit.amp_2 == pytest.approx(direct.amp_2, rel=1e-6)
            assert refit.barrier_node == pytest.approx(direct.barrier_node, abs=1e-6)

    def test_rejects_energy_outside_band(self, example_spec):
        red = reduce(example_spec)
        floor = min(example_spec.v_m2, example_spec.v_2)
        top = example_spec.v_0
        for energy in (floor - 0.1, top + 0.1):
            with pytest.raises(EnergyOutOfBand):
                assemble_at_energy(example_spec, red, Parity.GROUND, energy)

    @pytest.mark.parametrize("wall", ["v_m4", "v_4"])
    def test_outer_edge_sine_rounding_to_one_is_a_domain_error(self, wall):
        # An ulp below the outer wall, sqrt((E - V_well) / (V_wall - V_well))
        # rounds to 1.
        spec = replace(EXAMPLE_SPEC, **{wall: 0.5})
        energy = math.nextafter(0.5, 0.0)
        with pytest.raises(DomainError, match="outer-edge sine >= 1"):
            assemble_at_energy(spec, reduce(spec), Parity.GROUND, energy)

    def test_inner_phase_well_below_zero_is_a_domain_error(self, example_spec):
        # At 0.7625 each well holds more than half a wavelength: k w > pi.
        with pytest.raises(DomainError, match="inner phase out of range"):
            assemble_at_energy(example_spec, reduce(example_spec), Parity.GROUND, 0.7625)

    def test_rejects_non_eigenvalues(self, example_spec):
        red = reduce(example_spec)
        res = solve_double_well(example_spec)
        for factor in (0.9, 0.99, 1.01, 1.2):
            with pytest.raises((DomainError, MatchingResidualTooLarge)):
                assemble_at_energy(
                    example_spec, red, Parity.GROUND, res.ground.energy * factor
                )


class TestSampleTable:
    def test_table_layout_and_endpoints(self, example_spec):
        _, ground, _ = _models(example_spec)
        table = sample(ground, -1.0, 9.0, 101)
        assert table.shape == (101, 3)
        assert table[0, 0] == -1.0
        assert table[-1, 0] == 9.0
        assert np.all(np.diff(table[:, 0]) > 0)
        xs = table[:, 0]
        assert table[:, 1] == pytest.approx(evaluate(ground, xs))
        assert table[:, 2] == pytest.approx(derivative(ground, xs))

    @pytest.mark.parametrize("spec", MAP_BATCH, ids=MAP_IDS)
    @pytest.mark.parametrize("state", ["ground", "excited"])
    def test_dyadic_maps_scale_the_table_exactly(self, spec, state):
        # Mass x 2^j with energies / 2^j and hbar x 2^j with energies x 4^j
        # keep every wavenumber, so the table over the same range keeps its
        # bits.  Lengths x 2^j with energies / 4^j scale x by 2^j, psi by
        # 2^(-j/2) and dpsi by 2^(-3j/2); only even j keeps those exact.
        def table(image, j=0):
            result = solve_double_well(image)
            model = assemble(image, result.reduced, getattr(result, state))
            return sample(model, math.ldexp(x_min, j), math.ldexp(x_max, j), 201)

        result = solve_double_well(spec)
        model = assemble(spec, result.reduced, getattr(result, state))
        x_min = model.x_m3 - 5.0 / model.kappa_m4
        x_max = model.x_3 + 5.0 / model.kappa_4
        base = table(spec)
        kept = [image for image, _ in dyadic_images(spec) if image.w_0 == spec.w_0]
        assert len(kept) == 8
        for image in kept:
            assert _bits(table(image)) == _bits(base)
        scaled = [
            (image, -power // 2)
            for image, power in dyadic_images(spec, (-4, -2, 2))
            if image.w_0 != spec.w_0
        ]
        assert [j for _, j in scaled] == [-4, -2, 2]
        for image, j in scaled:
            expected = base * np.ldexp(1.0, [j, -j // 2, -3 * j // 2])
            assert _bits(table(image, j)) == _bits(expected)

    def test_two_point_table(self, example_spec):
        _, ground, _ = _models(example_spec)
        table = sample(ground, 0.0, 1.0, 2)
        assert table.shape == (2, 3)

    @pytest.mark.parametrize("bad_range", [
        (1.0, 1.0, 10),
        (2.0, -1.0, 10),
        (math.nan, 1.0, 10),
        (0.0, math.inf, 10),
        (0.0, 1.0, 1),
        (0.0, 1.0, 2.5),
        (0.0, 1.0, math.inf),
        (0.0, 1.0, -math.inf),
        (0.0, 1.0, math.nan),
        (0.0, 1.0, 10**15),  # 7 PiB per column, beyond any 64-bit address space
        (-1e308, 1e308, 3),  # finite ends, but the width overflows
        (0.0, 1.0, 2**60),  # numpy: ValueError "array is too big"
        (0.0, 1.0, 2**63 - 1),  # numpy: IndexError
        (0.0, 1.0, 10**20),  # numpy: ValueError "Maximum allowed size exceeded"
    ])
    def test_bad_ranges_rejected(self, example_spec, bad_range):
        _, ground, _ = _models(example_spec)
        with pytest.raises(BadRange):
            sample(ground, *bad_range)

    def test_csv_roundtrip_and_line_endings(self, example_spec, tmp_path):
        _, ground, _ = _models(example_spec)
        table = sample(ground, -0.5, 8.5, 37)
        out = tmp_path / "state.csv"
        write_sample_csv(table, str(out))
        raw = out.read_bytes()
        assert b"\r" not in raw
        lines = raw.decode("ascii").split("\n")
        assert lines[0] == "x,psi,dpsi"
        assert lines[-1] == ""  # trailing newline
        rows = lines[1:-1]
        assert len(rows) == 37
        for row, (x, psi, dpsi) in zip(rows, table):
            fx, fp, fd = (float(part) for part in row.split(","))
            assert fx == x and fp == psi and fd == dpsi

    def test_csv_accepts_open_stream(self, example_spec):
        _, ground, _ = _models(example_spec)
        table = sample(ground, 0.0, 1.0, 3)
        buf = io.StringIO()
        write_sample_csv(table, buf)
        assert buf.getvalue().startswith("x,psi,dpsi\n")
        assert buf.getvalue().count("\n") == 4

    @pytest.mark.parametrize(
        "make_table", [_edge_table, _wide_table, _block_edge_table, lambda: np.empty((0, 3))],
        ids=["edge-values", "three-blocks", "undecided-at-block-edges", "empty"],
    )
    def test_csv_matches_per_row_reference(self, make_table):
        table = make_table()
        buf = io.StringIO()
        write_sample_csv(table, buf)
        assert buf.getvalue() == _reference_csv(table)

    def test_csv_matches_per_row_reference_at_switch_points(self):
        table = _switch_table()
        buf = io.StringIO()
        write_sample_csv(table, buf)
        assert buf.getvalue() == _reference_csv(table)

    @seed(2800)
    @settings(max_examples=300, deadline=None, database=None)
    @given(rows=st.lists(st.tuples(_ANY_FLOAT, _ANY_FLOAT, _ANY_FLOAT), max_size=40))
    def test_csv_matches_per_row_reference_on_any_floats(self, rows):
        table = np.array(rows, dtype=float).reshape(-1, 3)
        buf = io.StringIO()
        write_sample_csv(table, buf)
        assert buf.getvalue() == _reference_csv(table)

    def test_wide_table_crosses_two_block_boundaries(self):
        rows = len(_wide_table())
        assert 2 * _CSV_BLOCK_ROWS < rows < 3 * _CSV_BLOCK_ROWS

    def test_csv_path_and_stream_give_same_bytes(self, tmp_path):
        table = _wide_table()
        out = tmp_path / "wide.csv"
        write_sample_csv(table, str(out))
        buf = io.StringIO()
        write_sample_csv(table, buf)
        assert out.read_bytes() == buf.getvalue().encode("ascii")

    @pytest.mark.parametrize("table", [np.zeros((4, 2)), np.zeros(3)], ids=["n-by-2", "1-d"])
    def test_malformed_table_rejected_before_writing(self, table, tmp_path):
        out = tmp_path / "bad.csv"
        with pytest.raises(BadRange):
            write_sample_csv(table, str(out))
        assert not out.exists()
