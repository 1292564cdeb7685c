"""Piecewise wavefunctions of the two lowest double-well levels.

Each level is sinusoidal inside the wells, hyperbolic inside the barrier
(cosh about its interior extremum for the ground state, sinh about its
node for the excited state), and exponentially decaying under the outer
walls.  ``assemble`` turns a coupled solution into an explicit normalized
:class:`WavefunctionModel`; ``assemble_at_energy`` does the same for an
externally supplied eigenvalue (e.g. from the exact matching solver) by
propagating the left tail to the barrier edge and reading off the
hyperbolic offset there.

Positions and phases: with y = k w / pi the phase of a well at this
energy, the outer phase offsets are phi_outer = arcsin(alpha_outer y) and
the inner ones phi_inner = pi - pi y - phi_outer; the sinusoid extremum of
the left well sits at x_-3 + (pi/2 - phi_-3)/k, mirrored on the right.
Amplitudes are chained across boundaries by value continuity from a
provisional barrier amplitude of 1, then rescaled to unit L2 norm using
the analytic piecewise integrals.
"""

from __future__ import annotations

import math
import os
import sys
from functools import cache
from typing import TYPE_CHECKING, IO

from .errors import AssumptionViolated, BadRange, DomainError, MatchingResidualTooLarge
from .params import _EXCITED, _GROUND, Parity, ReducedParams, WellSpec, record, wavenumbers

# numpy is imported inside the array paths only, so the scalar paths
# (assemble, probabilities, and the oracle through them) never load it.
if TYPE_CHECKING:
    import numpy as np

    from .tunneling import CoupledSolution


@record
class WavefunctionModel:
    """Normalized five-region wavefunction of one coupled level.

    Amplitudes are stored positive; for the excited state the two left
    regions carry an overall minus sign applied during evaluation, so the
    single node sits at ``barrier_node``.
    """

    parity: Parity
    energy: float
    x_m3: float
    x_m1: float
    x_1: float
    x_3: float
    extremum_left: float
    extremum_right: float
    barrier_node: float
    kappa_m4: float
    kappa_0: float
    kappa_4: float
    k_m2: float
    k_2: float
    amp_m4: float
    amp_m2: float
    amp_0: float
    amp_2: float
    amp_4: float


# Continuity residual allowed at a boundary, relative to the peak amplitude.
_MATCHING_GATE = 1e-6

# Rounding error of an inner phase pi - pi y - phi_outer, y = k w / pi: a
# few ulps of pi from each rounded operation behind k w.
_PHASE_ROUNDING = 16.0 * math.ulp(math.pi)


def _assemble_core(
    spec: WellSpec,
    reduced: ReducedParams,
    parity: Parity,
    energy: float,
    r_left: float,
    waves: tuple[float, float, float, float, float],
) -> WavefunctionModel:
    """Normalized model of a level at ``energy`` whose barrier extremum
    (node, when excited) lies ``r_left / kappa_0`` past the left barrier
    edge; ``waves`` are the :func:`wavenumbers` at ``energy``, which the
    caller has already computed.  The parity is read once; the model is
    built positionally and its five amplitudes are scaled in place."""
    kappa_m4, k_m2, kappa_0, k_2, kappa_4 = waves
    x_m3, x_m1, x_1, x_3 = spec.x_m3, spec.x_m1, spec.x_1, spec.x_3
    y_left = k_m2 * spec.w_m2 / math.pi
    y_right = k_2 * spec.w_2 / math.pi
    s_m3 = reduced.alpha_m3 * y_left
    s_3 = reduced.alpha_3 * y_right
    if s_m3 >= 1.0 or s_3 >= 1.0:
        raise DomainError(f"outer-edge sine >= 1: s_m3={s_m3!r}, s_3={s_3!r}")
    phase_m3 = math.asin(s_m3)
    phase_m1 = math.pi - math.pi * y_left - phase_m3
    phase_3 = math.asin(s_3)
    phase_1 = math.pi - math.pi * y_right - phase_3
    extremum_left = x_m3 + (0.5 * math.pi - phase_m3) / k_m2
    extremum_right = x_3 - (0.5 * math.pi - phase_3) / k_2
    barrier_node = x_m1 + r_left / kappa_0
    if not (x_m1 < barrier_node < x_1):
        # An offset inside (0, kappa_0 w_0) puts the extremum inside the
        # barrier, so only rounding of the positions moves it out; a barrier
        # narrower than an ulp of its position holds no float at all.
        if 0.0 < r_left < kappa_0 * spec.w_0 or not x_m1 < x_1:
            raise AssumptionViolated(
                f"the barrier ({x_m1!r}, {x_1!r}) is too narrow for float64 at its "
                f"position to hold its extremum {r_left / kappa_0!r} past x_m1"
            )
        raise MatchingResidualTooLarge(
            f"barrier extremum {barrier_node!r} falls outside the barrier "
            f"({x_m1!r}, {x_1!r}); inputs are inconsistent"
        )
    sin_m1 = math.sin(phase_m1)
    sin_1 = math.sin(phase_1)
    if sin_m1 <= 0.0 or sin_1 <= 0.0:
        # pi - pi y cancels: an inner phase within a few ulps of pi below 0
        # is a small positive phase that rounding lost, not a bad energy.
        if min(phase_m1, phase_1) >= -_PHASE_ROUNDING:
            raise AssumptionViolated(
                f"an inner phase rounds to 0 or below: phase_m1={phase_m1!r}, "
                f"phase_1={phase_1!r}: pi - k w cancels in float64"
            )
        raise DomainError(
            f"inner phase out of range: phase_m1={phase_m1!r}, phase_1={phase_1!r}"
        )
    hyp = math.sinh if parity == _EXCITED else math.cosh
    try:
        amp_m2 = hyp(r_left) / sin_m1
        amp_2 = hyp(kappa_0 * spec.w_0 - r_left) / sin_1
        # Positional, in field order: keywords cost a dict per call.
        model = WavefunctionModel(
            parity, energy, x_m3, x_m1, x_1, x_3, extremum_left, extremum_right,
            barrier_node, kappa_m4, kappa_0, kappa_4, k_m2, k_2,
            amp_m2 * s_m3, amp_m2, 1.0, amp_2, amp_2 * s_3,
        )
        norm = sum(probabilities(model))
    except OverflowError:
        norm = math.inf
    if not math.isfinite(norm):
        raise AssumptionViolated(
            f"the wavefunction leaves the float64 range (norm {norm!r}) behind a "
            f"barrier of opacity kappa_0 w_0 = {kappa_0 * spec.w_0!r}"
        )
    scale = 1.0 / math.sqrt(norm)
    model.amp_m4 *= scale
    model.amp_m2 *= scale
    model.amp_0 *= scale
    model.amp_2 *= scale
    model.amp_4 *= scale
    # An ulp of the barrier's position moves the state there by kappa_0
    # times that ulp, relative to its peak: past the matching gate, float64
    # cannot place the state at the barrier, whatever the inputs.
    spacing = max(math.ulp(x_m1), math.ulp(x_1))
    if spacing * kappa_0 > _MATCHING_GATE:
        raise AssumptionViolated(
            f"float64 spacing {spacing!r} at the barrier ({x_m1!r}, {x_1!r}) is too "
            f"coarse to place the state: kappa_0 times it exceeds {_MATCHING_GATE!r}"
        )
    _check_matching(model)
    return model


# A piece is psi = amp f(rate (x - origin)) on one constant-potential region.
# Per kind: the numpy name of f, of the function g in its slope
# dpsi/dx = (sign amp) rate g(...), and that sign.
_KINDS = {
    "exp": ("exp", "exp", 1.0),
    "cos": ("cos", "sin", -1.0),
    "cosh": ("cosh", "sinh", 1.0),
    "sinh": ("sinh", "cosh", 1.0),
}

Piece = tuple[str, float, float, float]


def _pieces(model: WavefunctionModel) -> tuple[tuple[float, ...], tuple[Piece, ...]]:
    """Region table of a doublet level: ``(edges, pieces)``.

    ``edges`` are the four boundaries between regions in increasing order;
    ``pieces`` holds one (kind, amp, rate, origin) per region, one more than
    there are edges.  A boundary belongs to the region on its right.  The
    excited state's overall minus sign on the two left regions is folded
    into their amplitudes.
    """
    excited = model.parity == _EXCITED
    sign = -1.0 if excited else 1.0
    return (model.x_m3, model.x_m1, model.x_1, model.x_3), (
        ("exp", sign * model.amp_m4, model.kappa_m4, model.x_m3),
        ("cos", sign * model.amp_m2, model.k_m2, model.extremum_left),
        ("sinh" if excited else "cosh", model.amp_0, model.kappa_0, model.barrier_node),
        ("cos", model.amp_2, model.k_2, model.extremum_right),
        ("exp", model.amp_4, -model.kappa_4, model.x_3),
    )


def _fill(piece: Piece, xs, out, slope: bool) -> None:
    """One piece's psi, or dpsi/dx when ``slope``, at an array xs in numpy,
    written into ``out`` (may be xs)."""
    import numpy as np

    kind, amp, rate, origin = piece
    f, g, sign = _KINDS[kind]
    np.subtract(xs, origin, out=out)
    out *= rate
    getattr(np, g if slope else f)(out, out=out)
    out *= (sign * amp) * rate if slope else amp


def _cpus() -> int:
    """How many CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


# Points per chunk of a split fill: a chunk's input is 512 KB, so the four
# passes that fill one region's share of it stay in a core's L2 cache.
_CHUNK = 2**16
# A grid is split from _SPLIT points on, into threads of _SHARE points or
# more each: a smaller share saves less than its thread costs.
_SPLIT = 2**19
_SHARE = 2**18


def _field(model: WavefunctionModel, x, slope: bool, split: bool = True):
    """psi, or dpsi/dx when ``slope``, of a doublet level at a scalar or an
    array of positions of any shape, which is only read; NaN gives NaN.
    Each region is one slice, written in place, and a boundary belongs to
    the region on its right: every grid is cut by one searchsorted of the
    edges.  A grid that is not non-decreasing (NaN fails the order check)
    is first sorted by position, filled in that sorted copy and scattered
    back; NaN sorts past every edge into the last region.

    When ``split``, a grid of ``_SPLIT`` (2^19) points or more is filled by
    up to one thread per CPU the process may use, each with at least
    ``_SHARE`` (2^18) points of the grid: this thread and helpers started
    for the call claim chunks of ``_CHUNK`` points in turn from one shared
    iterator.  Each chunk first checks that it is non-decreasing from the
    point before it, so every adjacent pair is checked once, and there is
    no whole-grid check.  Each thread runs under this thread's numpy error
    state (a new thread would start from numpy's defaults).  The helpers are started without waiting
    for them to be scheduled; this thread works on the queue at once, and
    once it finds the queue empty waits for each helper to signal its end,
    so none outlives the call.  A helper that cannot be started leaves its
    chunks to the others.  Every value is elementwise, so the bits do not
    depend on which thread fills which chunk.  When a chunk is out of
    order or fails, the grid is filled again in one unsplit pass, which
    sorts it or raises the error here: a grid whose first disorder lies
    late is filled about twice before its sort."""
    import numpy as np

    xs = np.asarray(x, dtype=float)
    points = xs.ravel()
    n = len(points)
    edges, pieces = _pieces(model)
    # Threads of _SHARE points or more, up to one per CPU the process may use.
    threads = min(_cpus(), n // _SHARE) if split and n >= _SPLIT else 1
    order = None
    if threads > 1 or (points[1:] >= points[:-1]).all():
        # A lone NaN passes the check, lands in the last region and stays NaN.
        out = np.empty_like(points)
    else:
        # Equal positions give equal values, so the sort need not be stable.
        order = np.argsort(points)
        points = out = points[order]
    cuts = np.searchsorted(points, edges, side="left").tolist()

    def fill(start: int, stop: int) -> None:
        for piece, lo, hi in zip(pieces, (0, *cuts), (*cuts, n)):
            lo, hi = max(lo, start), min(hi, stop)
            if lo < hi:
                _fill(piece, points[lo:hi], out[lo:hi], slope)

    if threads < 2:
        fill(0, n)
    else:
        import _thread
        import threading

        chunks = iter(range(0, n, _CHUNK))
        failed = []
        done = threading.Semaphore(0)

        # The defaults are read here, so every thread that runs work gets
        # this thread's numpy error state.
        def work(call=np.geterrcall(), err=np.geterr()) -> None:
            try:
                with np.errstate(call=call, divide=err["divide"], over=err["over"],
                                 under=err["under"], invalid=err["invalid"]):
                    for start in chunks:
                        chunk = points[max(start - 1, 0) : start + _CHUNK]
                        if failed or not (chunk[1:] >= chunk[:-1]).all():
                            failed.append(True)
                            break
                        fill(start, start + _CHUNK)
            except Exception:
                failed.append(True)
            finally:
                done.release()

        for _ in range(1, threads):
            try:
                _thread.start_new_thread(work, ())
            except RuntimeError:  # no thread to spare: the others fill its chunks
                done.release()
        work()
        for _ in range(threads):
            done.acquire()
        if failed:
            return _field(model, x, slope, False)
    if order is not None:
        out = np.empty_like(points)
        out[order] = points
    return float(out[0]) if xs.ndim == 0 else out.reshape(xs.shape)


def _boundary_pairs(
    model: WavefunctionModel,
) -> list[tuple[float, tuple[float, float], tuple[float, float]]]:
    """(boundary x, (value, slope) from the left region, same from the
    right), left to right.  Each region's psi = amp f(rate (x - origin)) has
    slope amp rate f'(...), the excited state's minus sign on the two left
    amplitudes; a tail at its own edge reads amp exp(0) = amp."""
    excited = model.parity == _EXCITED
    f, g, sign = (math.sinh, math.cosh, -1.0) if excited else (math.cosh, math.sinh, 1.0)
    cos, sin, node = math.cos, math.sin, model.barrier_node
    x_m3, x_m1, x_1, x_3 = model.x_m3, model.x_m1, model.x_1, model.x_3
    amp_m4, amp_l, amp_r = sign * model.amp_m4, sign * model.amp_m2, model.amp_2
    amp_0, k_l, kappa_0, k_r = model.amp_0, model.k_m2, model.kappa_0, model.k_2
    # A well's slope is (-amp k) sin(...), the barrier's (amp kappa_0) g(...).
    slope_l, slope_0, slope_r = -amp_l * k_l, amp_0 * kappa_0, -amp_r * k_r
    t_m3, t_m1 = (x_m3 - model.extremum_left) * k_l, (x_m1 - model.extremum_left) * k_l
    t_1, t_3 = (x_1 - model.extremum_right) * k_r, (x_3 - model.extremum_right) * k_r
    b_m1, b_1 = (x_m1 - node) * kappa_0, (x_1 - node) * kappa_0
    return [
        (x_m3, (amp_m4, amp_m4 * model.kappa_m4), (amp_l * cos(t_m3), slope_l * sin(t_m3))),
        (x_m1, (amp_l * cos(t_m1), slope_l * sin(t_m1)), (amp_0 * f(b_m1), slope_0 * g(b_m1))),
        (x_1, (amp_0 * f(b_1), slope_0 * g(b_1)), (amp_r * cos(t_1), slope_r * sin(t_1))),
        (x_3, (amp_r * cos(t_3), slope_r * sin(t_3)), (model.amp_4, model.amp_4 * -model.kappa_4)),
    ]


def _check_matching(model: WavefunctionModel) -> None:
    value_scale = max(model.amp_m2, model.amp_2)
    slope_scale = max(model.amp_m2 * model.k_m2, model.amp_2 * model.k_2)
    worst = 0.0
    worst_at = model.x_m3
    for x, (v_left, s_left), (v_right, s_right) in _boundary_pairs(model):
        residual = max(
            abs(v_left - v_right) / value_scale, abs(s_left - s_right) / slope_scale
        )
        if residual > worst:
            worst, worst_at = residual, x
    if worst > _MATCHING_GATE:
        raise MatchingResidualTooLarge(
            f"continuity residual {worst!r} at x={worst_at!r} exceeds 1e-6 of the "
            "peak amplitude; inputs are inconsistent"
        )


def assemble(
    spec: WellSpec, reduced: ReducedParams, solution: CoupledSolution
) -> WavefunctionModel:
    """Explicit normalized wavefunction of a coupled solution."""
    energy = solution.energy
    return _assemble_core(
        spec, reduced, solution.parity, energy, solution.r_left, wavenumbers(spec, energy)
    )


def _tail_ratio(ground: bool, kappa_out: float, k: float, width: float, kappa_0: float) -> float:
    """tanh of kappa_0 times the distance from a barrier edge to the
    barrier's extremum (``ground``) or node (excited), read from the
    decaying outer tail carried through the well on that side."""
    theta = k * width
    u = math.cos(theta) + (kappa_out / k) * math.sin(theta)
    u_prime = -k * math.sin(theta) + kappa_out * math.cos(theta)
    return -u_prime / (kappa_0 * u) if ground else -kappa_0 * u / u_prime


def assemble_at_energy(
    spec: WellSpec, reduced: ReducedParams, parity: Parity, energy: float
) -> WavefunctionModel:
    """Wavefunction at an externally supplied eigenvalue.

    Propagates the exact decaying tails from both outer walls to the
    barrier edges and reads the hyperbolic offset at the edge with the
    smaller tail ratio (atanh loses all accuracy as it nears 1), so the
    state is the true eigenfunction whenever ``energy`` is a true
    eigenvalue.  Raises :class:`MatchingResidualTooLarge` when that ratio
    admits no interior barrier extremum (``energy`` is not an eigenvalue
    of ``parity``, or its state has no extremum in the barrier).
    """
    waves = wavenumbers(spec, energy)
    kappa_m4, k_m2, kappa_0, k_2, kappa_4 = waves
    ground = parity == _GROUND
    rho_left = _tail_ratio(ground, kappa_m4, k_m2, spec.w_m2, kappa_0)
    rho_right = _tail_ratio(ground, kappa_4, k_2, spec.w_2, kappa_0)
    # |ratio| >= 1 has no extremum at all; NaN puts it outside the barrier.
    if abs(rho_right) < abs(rho_left) or not -1.0 < rho_left < 1.0:
        r_right = math.atanh(rho_right) if -1.0 < rho_right < 1.0 else math.nan
        r_left = kappa_0 * spec.w_0 - r_right
    else:
        r_left = math.atanh(rho_left)
    return _assemble_core(spec, reduced, parity, energy, r_left, waves)


def evaluate(model: WavefunctionModel, x):
    """psi(x) of a doublet level; accepts a scalar or an array of any shape.

    Each region is evaluated as one slice, in place in the result: every
    grid is cut into slices by one searchsorted of the edges, after any
    grid that is not non-decreasing is sorted by position.  Region dispatch
    is half-open with each boundary belonging to the region on its right;
    continuity makes the choice observationally irrelevant.

    A grid of 2^19 points or more is filled by the calling thread and up to
    one helper thread per further CPU the process may use (at least 2^18
    points per thread), which claim chunks of 2^16 points in turn from one
    shared queue; each chunk checks its own order on the way, in place of
    a whole-grid check first.  The helpers are started within the call and
    have ended when it returns.  The values are bit for bit those of a
    one-CPU fill, every chunk runs under the caller's numpy error state,
    and an error in any chunk is raised from the caller's thread.
    """
    return _field(model, x, False)


def derivative(model: WavefunctionModel, x):
    """d psi / dx at x; accepts a scalar or an array, and fills a grid of
    2^19 points or more from one queue of chunks on up to one thread per
    CPU, as :func:`evaluate` does."""
    return _field(model, x, True)


def probabilities(model: WavefunctionModel) -> tuple[float, float]:
    """Exact analytic probability masses left and right of the barrier
    extremum (node, when excited).  For a normalized model the two sum to 1
    up to rounding.

    Each region's psi^2 integrates in closed form.  A tail amp^2 e^{-2 kappa
    |x - edge|} holds amp^2 / (2 kappa) in all.  Over [a, b], a well
    amp^2 cos^2(k (x - c)) about its extremum c holds amp^2 [(b - a)/2 +
    (sin 2k(b - c) - sin 2k(a - c)) / (4k)], and the barrier amp^2 cosh^2
    (ground) or sinh^2 (excited) of kappa_0 (x - node) holds amp^2 [+-(b -
    a)/2 + (sinh 2 kappa_0 (b - node) - sinh 2 kappa_0 (a - node)) /
    (4 kappa_0)].  Each of these three inner regions [a, b] is cut at the
    node clamped into it: the part below the cut counts left when a < node,
    the part above it counts right when b > node, so a region wholly on one
    side of the node counts whole on that side.  The left tail counts left
    unless the node is -inf, and right too when the node lies inside it;
    the right tail mirrors that.  Each side sums its regions from left to
    right, and a NaN node counts none.
    """
    node, x_m3, x_m1, x_1, x_3 = model.barrier_node, model.x_m3, model.x_m1, model.x_1, model.x_3
    sin, sinh = math.sin, math.sinh
    # Per inner region: amp^2, twice the rate (so 2 k_l = 4 k_m2 exactly), the
    # cut, and sin or sinh of twice the rate times x - origin at a, the cut, b.
    p_l, k_l, o_l = model.amp_m2 * model.amp_m2, 2.0 * model.k_m2, model.extremum_left
    c_l = (node if node < x_m1 else x_m1) if x_m3 < node else x_m3
    a_l, m_l, b_l = sin(k_l * (x_m3 - o_l)), sin(k_l * (c_l - o_l)), sin(k_l * (x_m1 - o_l))
    p_0, k_0 = model.amp_0 * model.amp_0, 2.0 * model.kappa_0
    half = -0.5 if model.parity == _EXCITED else 0.5
    c_0 = (node if node < x_1 else x_1) if x_m1 < node else x_m1
    a_0, m_0, b_0 = sinh(k_0 * (x_m1 - node)), sinh(k_0 * (c_0 - node)), sinh(k_0 * (x_1 - node))
    p_r, k_r, o_r = model.amp_2 * model.amp_2, 2.0 * model.k_2, model.extremum_right
    c_r = (node if node < x_3 else x_3) if x_1 < node else x_1
    a_r, m_r, b_r = sin(k_r * (x_1 - o_r)), sin(k_r * (c_r - o_r)), sin(k_r * (x_3 - o_r))
    # Each side is a sum from 0.0; an excluded region adds 0.0, which leaves it as it was.
    left = 0.0 + (model.amp_m4**2 / (2.0 * model.kappa_m4) if -math.inf < node else 0.0)
    left += p_l * (0.5 * (c_l - x_m3) + (m_l - a_l) / (2.0 * k_l)) if x_m3 < node else 0.0
    left += p_0 * (half * (c_0 - x_m1) + (m_0 - a_0) / (2.0 * k_0)) if x_m1 < node else 0.0
    left += p_r * (0.5 * (c_r - x_1) + (m_r - a_r) / (2.0 * k_r)) if x_1 < node else 0.0
    left += model.amp_4**2 / (2.0 * model.kappa_4) if x_3 < node else 0.0
    right = 0.0 + (model.amp_m4**2 / (2.0 * model.kappa_m4) if x_m3 > node else 0.0)
    right += p_l * (0.5 * (x_m1 - c_l) + (b_l - m_l) / (2.0 * k_l)) if x_m1 > node else 0.0
    right += p_0 * (half * (x_1 - c_0) + (b_0 - m_0) / (2.0 * k_0)) if x_1 > node else 0.0
    right += p_r * (0.5 * (x_3 - c_r) + (b_r - m_r) / (2.0 * k_r)) if x_3 > node else 0.0
    right += model.amp_4**2 / (2.0 * model.kappa_4) if math.inf > node else 0.0
    return left, right


def sample(
    model: WavefunctionModel, x_min: float, x_max: float, n_points: int
) -> np.ndarray:
    """Uniform endpoint-inclusive table of (x, psi, dpsi), shape (n, 3).

    psi and dpsi are :func:`evaluate` and :func:`derivative` on the x
    column, so 2^19 points or more are filled from one queue of chunks on
    up to one thread per CPU, with the one-CPU bits.  Raises :class:`BadRange` for a malformed range or
    point count, or one too large to allocate."""
    # An infinite or NaN end, or a width that overflows, leaves the width non-finite.
    if not (x_min < x_max and math.isfinite(x_max - x_min)):
        raise BadRange(f"need finite x_min < x_max and x_max - x_min, got {x_min!r}, {x_max!r}")
    try:
        count = int(n_points)
    except (OverflowError, ValueError):  # inf, nan, a non-numeric string
        count = 0
    if count != n_points or count < 2:
        raise BadRange(f"need an integer n_points >= 2, got {n_points!r}")
    # numpy refuses an array of more than sys.maxsize bytes with ValueError
    # or IndexError, not MemoryError: cap the 24-byte rows before it is asked.
    if count > sys.maxsize // 24:
        raise BadRange(f"cannot allocate a table of {count} points")
    import numpy as np

    try:
        xs = np.linspace(x_min, x_max, count)
        return np.column_stack((xs, _field(model, xs, False), _field(model, xs, True)))
    except MemoryError:
        raise BadRange(f"cannot allocate a table of {count} points") from None


# Rows per formatted block: bounds the text and the argument tuple held at
# once for long tables.
_CSV_BLOCK_ROWS = 1024

# Each value's text is %.17g's layout rebuilt from exact integers.  N, its
# 17 significant digits round(|x| 10^(16-E)) for decimal exponent E, is cut
# at the point into leading digits and a fraction, whose trailing zeros are
# stripped.  The text is a head template, filled from those integers, then
# a tail: the separator, after "e%+03d" % E in exponent notation.  A head's
# kind is base + c, where c = 2 (fraction > 0) + (fraction starts with 0)
# picks integer, fraction or zero-padded fraction.  Fixed notation holds at
# -4 <= E < 17, with base 0 from E = 0 and max(2, -E) below, where the
# fraction is all of N (c = 2 at -1, 3 below); exponent notation takes base
# 4 + 3 d, whose one leading digit d is written into the head.  Kind 0 takes
# no integers: it stands for values the integers cannot decide, whose text
# is %.17g's own.  A head takes the leading digits when it starts with %d,
# the fraction width at *, and the fraction after the point; every kind is
# repeated after "-".
_CSV_HEADS = (
    "", "%d", "%d.%d", "%d.%0*d", "0.%d", "0.0%d", "0.00%d", "0.000%d",
    *(digit + point for digit in "123456789" for point in ("", ".%d", ".%0*d")),
)
# Exponents with an exact 10^(16-E) pair: both halves stay normal, and
# Veltkamp's split of 10^(16-E) stays finite.  Values take the integer path
# from 1e-250 to 1e250, whose floor(log10) lies inside this range.
_CSV_MIN_EXP, _CSV_MAX_EXP = -251, 250


@cache
def _csv_tables():
    """The writer's constants as arrays, built on first use: for each E
    from ``_CSV_MAX_EXP`` down, 10^(16-E) as the pair hi + lo (hi correctly
    rounded, lo the rounded rest, both from Python ints) with hi's Veltkamp
    halves; the int64 powers 10^0..10^18; the heads, unsigned then signed,
    with the integers each takes (leading digits, fraction width,
    fraction); the tails, "," and "\\n" then each exponent's pair."""
    import numpy as np

    pairs = []
    for k in range(16 - _CSV_MAX_EXP, 17 - _CSV_MIN_EXP):
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        hi = num / den
        p, q = hi.as_integer_ratio()
        split = hi * 134217729.0
        hi_top = split - (split - hi)
        pairs.append((hi, hi_top, hi - hi_top, (num * q - p * den) / (den * q)))
    slots = [(h.startswith("%d"), "*" in h, "%" in h.partition(".")[2]) for h in _CSV_HEADS]
    exps = ("", *("e%+03d" % e for e in range(_CSV_MIN_EXP, _CSV_MAX_EXP + 1)))
    return (
        np.array(pairs).T.copy(),
        np.array([10**j for j in range(19)], dtype=np.int64),
        np.array([sign + head for sign in ("", "-") for head in _CSV_HEADS], dtype=object),
        np.array(slots * 2, dtype=bool),
        np.array([e + end for e in exps for end in ",\n"], dtype=object),
    )


def _csv_digits(values, pairs, pow10):
    """For a flat float64 array: the indices of the values whose 17
    significant digits the integers cannot decide, and per value its
    decimal exponent E and those digits as the int64 N = round(|x|
    10^(16-E)) in [10^16, 10^17) (10^16 and E = 0 where undecided)."""
    import numpy as np

    mag = np.abs(values)
    exact = (mag >= 1e-250) & (mag < 1e250)  # False on 0, NaN and inf
    mag[~exact] = 1.0
    exp = np.floor(np.log10(mag)).astype(np.int64)
    hi, hi_top, hi_low, lo = (row.take(_CSV_MAX_EXP - exp) for row in pairs)
    # Dekker's product: mag * hi is prod plus its rounding error, exactly.
    # prod is an integer (>= 2^53); rest, that error plus mag * lo, is good
    # to ~1e-14 at a magnitude of ~20 at most.
    prod = mag * hi
    split = mag * 134217729.0
    top = split - (split - mag)
    low = mag - top
    rest = ((top * hi_top - prod) + top * hi_low + low * hi_top) + low * hi_low + mag * lo
    near = np.rint(rest)
    digits = prod.astype(np.int64) + near.astype(np.int64)
    # A misjudged log10 puts the product outside [10^16, 10^17); a near-tie
    # needs more than rest's accuracy to round.
    exact &= ((prod - 1e16) + rest >= 0.0) & (digits < pow10[17])
    exact &= np.abs(np.abs(rest - near) - 0.5) > 1e-6
    undecided = np.flatnonzero(~exact)
    digits[undecided] = pow10[16]
    exp[undecided] = 0
    return undecided, exp, digits


def _csv_block(values) -> str:
    """CSV text of a flat float64 array of whole rows, byte for byte
    ``%.17g`` joined by commas with a newline after every third value."""
    import numpy as np

    pairs, pow10, heads, slots, tails = _csv_tables()
    undecided, exp, digits = _csv_digits(values, pairs, pow10)
    fixed = (exp >= -4) & (exp < 17)
    width = np.where(fixed, 16 - exp, 16)
    cut = pow10.take(width, mode="clip")
    lead, frac = np.divmod(digits, cut)
    base = np.where(fixed, np.where(exp < 0, np.maximum(2, -exp), 0), 4 + 3 * lead)
    kind = base + 2 * (frac > 0) + (frac * 10 < cut) + np.signbit(values) * len(_CSV_HEADS)
    kind[undecided] = 0
    ends = np.flatnonzero(frac // 10 * 10 == frac)
    if len(ends):  # strip the fraction's trailing zeros
        kept = frac[ends]
        zeros = np.zeros_like(kept)
        for step in (16, 8, 4, 2, 1):
            shorter = kept // pow10[step]
            whole = shorter * pow10[step] == kept
            kept = np.where(whole, shorter, kept)
            zeros += step * whole
        frac[ends] = kept
        width[ends] -= zeros
    used = slots.take(kind, axis=0)
    args = np.stack((lead, width, frac), axis=1).ravel().compress(used.ravel()).tolist()
    ending = np.where(fixed, 0, 2 * (exp - _CSV_MIN_EXP) + 2)
    ending[2::3] += 1
    text = np.stack((heads.take(kind), tails.take(ending)), axis=1).ravel().tolist()
    # Kind 0's head is replaced by the value's own text, which holds no %.
    for at, value in zip(undecided.tolist(), values[undecided].tolist()):
        text[2 * at] = format(value, ".17g")
    return "".join(text) % tuple(args)


def write_sample_csv(table: np.ndarray, destination: str | IO[str]) -> None:
    """Write a sample table as CSV: header ``x,psi,dpsi``, 17 significant
    digits, LF line endings.

    Rows are formatted ``_CSV_BLOCK_ROWS`` at a time and written with one
    ``write`` per block, so memory stays flat however long the table is.
    A block is one ``%`` call on Python ints.  numpy forms each value's
    decimal exponent E and its 17 significant digits as an exact integer
    (a Dekker product with 10^(16-E) held as a pair of floats), and picks
    a printf template that lays them out as ``%.17g`` does: ``%d``,
    ``%d.%d``, ``%d.%0*d`` or ``0.00%d`` in fixed notation; in exponent
    notation the leading digit, then ``.%d`` or ``.%0*d``, then the exponent
    as text (``e-05``); each optionally after ``-``.  Zeros, NaN,
    infinities, magnitudes outside 1e-250..1e250 and products too near a
    rounding tie are written as their own ``format(x, ".17g")`` text, so
    every value has those bytes.  Raises :class:`BadRange` for a
    table that is not of shape (n, 3), before ``destination`` is opened or
    written.
    """
    if table.ndim != 2 or table.shape[1] != 3:
        raise BadRange(f"need a sample table of shape (n, 3), got {table.shape!r}")
    import numpy as np

    def _write(fh: IO[str]) -> None:
        fh.write("x,psi,dpsi\n")
        for start in range(0, len(table), _CSV_BLOCK_ROWS):
            block = table[start : start + _CSV_BLOCK_ROWS]
            fh.write(_csv_block(np.ascontiguousarray(block, dtype=np.float64).ravel()))

    if isinstance(destination, str):
        with open(destination, "w", encoding="utf-8", newline="") as fh:
            _write(fh)
    else:
        _write(destination)
