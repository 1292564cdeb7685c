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
from dataclasses import dataclass, replace
from typing import Callable, IO

import numpy as np

from .errors import BadRange, DomainError, GridTooCoarse, MatchingResidualTooLarge
from .isolated import IsolatedWellSolution, derive_well, solve_y
from .params import ReducedParams, WellSpec, wavenumbers
from .tunneling import CoupledSolution, Parity

__all__ = [
    "WavefunctionModel",
    "SingleWellModel",
    "assemble",
    "assemble_at_energy",
    "evaluate",
    "derivative",
    "probabilities",
    "closed_form_probabilities",
    "single_well_model",
    "evaluate_single",
    "superpose",
    "sample",
    "write_sample_csv",
]


@dataclass(frozen=True, slots=True)
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
    phase_m3: float
    phase_m1: float
    phase_1: float
    phase_3: float


@dataclass(frozen=True, slots=True)
class SingleWellModel:
    """One well solved in isolation: three-region normalized state.

    The barrier side continues as a pure decaying exponential to infinity
    (the infinitely-thick-barrier limit).  ``side`` is "left" or "right";
    ``x_outer``/``x_inner`` are the outer-wall and barrier boundaries.
    """

    side: str
    energy: float
    x_outer: float
    x_inner: float
    extremum: float
    k: float
    kappa_outer: float
    kappa_barrier: float
    amp: float
    amp_outer: float
    amp_barrier: float


def _wavenumber(spec: WellSpec, energy: float, potential: float) -> float:
    # For single_well_model only: an isolated level need not lie inside the
    # two-well band that params.wavenumbers checks.
    return math.sqrt(2.0 * spec.mass * abs(energy - potential)) / spec.hbar


def _assemble_core(
    spec: WellSpec,
    reduced: ReducedParams,
    parity: Parity,
    energy: float,
    r_left: float,
) -> WavefunctionModel:
    excited = parity == Parity.EXCITED
    kappa_m4, k_m2, kappa_0, k_2, kappa_4 = wavenumbers(spec, energy)
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
    extremum_left = spec.x_m3 + (0.5 * math.pi - phase_m3) / k_m2
    extremum_right = spec.x_3 - (0.5 * math.pi - phase_3) / k_2
    barrier_node = spec.x_m1 + r_left / kappa_0
    if not (spec.x_m1 < barrier_node < spec.x_1):
        raise MatchingResidualTooLarge(
            f"barrier extremum {barrier_node!r} falls outside the barrier "
            f"({spec.x_m1!r}, {spec.x_1!r}); inputs are inconsistent"
        )
    hyp = math.sinh if excited else math.cosh
    edge_left = hyp(r_left)
    edge_right = hyp(kappa_0 * spec.w_0 - r_left)
    sin_m1 = math.sin(phase_m1)
    sin_1 = math.sin(phase_1)
    if sin_m1 <= 0.0 or sin_1 <= 0.0:
        raise DomainError(
            f"inner phase out of range: phase_m1={phase_m1!r}, phase_1={phase_1!r}"
        )
    amp_m2 = edge_left / sin_m1
    amp_2 = edge_right / sin_1
    amps = dict(amp_m4=amp_m2 * s_m3, amp_m2=amp_m2, amp_0=1.0, amp_2=amp_2, amp_4=amp_2 * s_3)
    model = WavefunctionModel(
        parity=parity,
        energy=energy,
        x_m3=spec.x_m3,
        x_m1=spec.x_m1,
        x_1=spec.x_1,
        x_3=spec.x_3,
        extremum_left=extremum_left,
        extremum_right=extremum_right,
        barrier_node=barrier_node,
        kappa_m4=kappa_m4,
        kappa_0=kappa_0,
        kappa_4=kappa_4,
        k_m2=k_m2,
        k_2=k_2,
        phase_m3=phase_m3,
        phase_m1=phase_m1,
        phase_1=phase_1,
        phase_3=phase_3,
        **amps,
    )
    scale = 1.0 / math.sqrt(sum(probabilities(model)))
    model = replace(model, **{name: amp * scale for name, amp in amps.items()})
    _check_matching(model)
    return model


# A piece is psi = amp f(rate (x - origin)) on one constant-potential region.
# Per kind: the name of f and of the function g in its slope
# dpsi/dx = (sign amp) rate g(...), that sign, and what its mass needs: None
# for exp (always a semi-infinite tail decaying away from its origin), else
# (s, h) with the integral of [amp f(rate (x - origin))]^2 over [a, b] equal to
# amp^2 [s (b - a)/2 + (h(2 rate (b - origin)) - h(2 rate (a - origin))) / (4 rate)].
# The names resolve in numpy for arrays and in math for single floats.
_KINDS = {
    "exp": ("exp", "exp", 1.0, None),
    "cos": ("cos", "sin", -1.0, (1.0, math.sin)),
    "cosh": ("cosh", "sinh", 1.0, (1.0, math.sinh)),
    "sinh": ("sinh", "cosh", 1.0, (-1.0, math.sinh)),
}

Piece = tuple[str, float, float, float]


def _pieces(
    model: WavefunctionModel | SingleWellModel,
) -> tuple[tuple[float, ...], tuple[Piece, ...], bool]:
    """Region table of a piecewise state: ``(edges, pieces, left_owned)``.

    ``edges`` are the boundaries between regions in increasing order;
    ``pieces`` holds one (kind, amp, rate, origin) per region, one more than
    there are edges.  A boundary belongs to the region on its right, or to
    the one on its left when ``left_owned``.  The excited state's overall
    minus sign on the two left regions is folded into their amplitudes.
    """
    if isinstance(model, SingleWellModel):
        if model.side == "left":
            return (model.x_outer, model.x_inner), (
                ("exp", model.amp_outer, model.kappa_outer, model.x_outer),
                ("cos", model.amp, model.k, model.extremum),
                ("exp", model.amp_barrier, -model.kappa_barrier, model.x_inner),
            ), False
        return (model.x_inner, model.x_outer), (
            ("exp", model.amp_barrier, model.kappa_barrier, model.x_inner),
            ("cos", model.amp, model.k, model.extremum),
            ("exp", model.amp_outer, -model.kappa_outer, model.x_outer),
        ), True
    excited = model.parity == Parity.EXCITED
    sign = -1.0 if excited else 1.0
    return (model.x_m3, model.x_m1, model.x_1, model.x_3), (
        ("exp", sign * model.amp_m4, model.kappa_m4, model.x_m3),
        ("cos", sign * model.amp_m2, model.k_m2, model.extremum_left),
        ("sinh" if excited else "cosh", model.amp_0, model.kappa_0, model.barrier_node),
        ("cos", model.amp_2, model.k_2, model.extremum_right),
        ("exp", model.amp_4, -model.kappa_4, model.x_3),
    ), False


def _piece(piece: Piece, xs, slope: bool, lib):
    """One piece's psi, or dpsi/dx when ``slope``, at xs; ``lib`` is numpy
    for arrays or math for a float.  An array xs is overwritten: working in
    place keeps one temporary array per region besides the result."""
    kind, amp, rate, origin = piece
    f, g, sign, _ = _KINDS[kind]
    xs -= origin
    xs *= rate
    return (sign * amp) * rate * getattr(lib, g)(xs) if slope else amp * getattr(lib, f)(xs)


def _field(model: WavefunctionModel | SingleWellModel, x, slope: bool):
    """psi, or dpsi/dx when ``slope``, of a piecewise state at a scalar or an
    array of positions.  NaN lies in no region and gives NaN."""
    xs = np.asarray(x, dtype=float)
    points = np.atleast_1d(xs)
    edges, pieces, left_owned = _pieces(model)
    above = np.greater if left_owned else np.greater_equal
    below = np.less_equal if left_owned else np.less
    out = np.full_like(points, np.nan)
    for i, piece in enumerate(pieces):
        # The outer regions reach out to -inf and +inf.
        if i == 0:
            mask = below(points, edges[0])
        elif i == len(edges):
            mask = above(points, edges[-1])
        else:
            mask = above(points, edges[i - 1]) & below(points, edges[i])
        out[mask] = _piece(piece, points[mask], slope, np)
    return float(out[0]) if xs.ndim == 0 else out


def _mass(piece: Piece, a: float, b: float) -> float:
    """Integral of the piece's psi^2 over [a, b] (over its whole tail for exp)."""
    kind, amp, rate, origin = piece
    wave = _KINDS[kind][3]
    if wave is None:
        return amp**2 / (2.0 * abs(rate))
    s, h = wave
    return amp * amp * (
        s * 0.5 * (b - a)
        + (h(2.0 * rate * (b - origin)) - h(2.0 * rate * (a - origin))) / (4.0 * rate)
    )


def _boundary_pairs(
    model: WavefunctionModel,
) -> list[tuple[float, tuple[float, float], tuple[float, float]]]:
    """(boundary x, (value, slope) from the left region, same from the right)."""
    edges, pieces, _ = _pieces(model)
    return [
        (x, *[(_piece(p, x, False, math), _piece(p, x, True, math)) for p in (left, right)])
        for x, left, right in zip(edges, pieces, pieces[1:])
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
    if worst > 1e-6:
        raise MatchingResidualTooLarge(
            f"continuity residual {worst!r} at x={worst_at!r} exceeds 1e-6 of the "
            "peak amplitude; inputs are inconsistent"
        )


def assemble(
    spec: WellSpec, reduced: ReducedParams, solution: CoupledSolution
) -> WavefunctionModel:
    """Explicit normalized wavefunction of a coupled solution."""
    return _assemble_core(
        spec, reduced, solution.parity, solution.energy, solution.r_left
    )


def assemble_at_energy(
    spec: WellSpec, reduced: ReducedParams, parity: Parity, energy: float
) -> WavefunctionModel:
    """Wavefunction at an externally supplied eigenvalue.

    Propagates the exact decaying tail from the left wall to the barrier
    edge and reads the hyperbolic offset from the logarithmic derivative
    there, so the assembled state is the true eigenfunction whenever
    ``energy`` is a true eigenvalue.  Raises :class:`DomainError` when the
    logarithmic derivative admits no interior barrier extremum (i.e. the
    energy is not an eigenvalue of the requested parity).
    """
    kappa_m4, k_m2, kappa_0, _, _ = wavenumbers(spec, energy)
    theta = k_m2 * spec.w_m2
    u = math.cos(theta) + (kappa_m4 / k_m2) * math.sin(theta)
    u_prime = -k_m2 * math.sin(theta) + kappa_m4 * math.cos(theta)
    if parity == Parity.GROUND:
        ratio = -u_prime / (kappa_0 * u)
    else:
        ratio = -kappa_0 * u / u_prime
    if not -1.0 < ratio < 1.0:
        raise DomainError(
            f"no interior barrier extremum at energy {energy!r} for parity "
            f"{parity.value}: log-derivative ratio {ratio!r} outside (-1, 1)"
        )
    return _assemble_core(spec, reduced, parity, energy, math.atanh(ratio))


def evaluate(model: WavefunctionModel, x):
    """psi(x); accepts a scalar or an array.

    Region dispatch is half-open with each boundary belonging to the
    region on its right; continuity makes the choice observationally
    irrelevant.
    """
    return _field(model, x, False)


def derivative(model: WavefunctionModel, x):
    """d psi / dx at x; accepts a scalar or an array."""
    return _field(model, x, True)


def probabilities(model: WavefunctionModel) -> tuple[float, float]:
    """Exact analytic probability masses left and right of the barrier
    extremum.  For a normalized model the two sum to 1 up to rounding."""
    edges, pieces, _ = _pieces(model)
    node = model.barrier_node
    left = right = 0.0
    for a, b, piece in zip((-math.inf, *edges), (*edges, math.inf), pieces):
        if a < node:
            left += _mass(piece, a, min(b, node))
        if b > node:
            right += _mass(piece, max(a, node), b)
    return left, right


def closed_form_probabilities(
    model: WavefunctionModel,
    spec: WellSpec,
    left_well: IsolatedWellSolution,
    right_well: IsolatedWellSolution,
) -> tuple[float, float]:
    """Infinite-barrier closed form P_side = A^2 w / (2 U Y) per side.

    Exact only in the decoupled limit; reported alongside the analytic
    integrals rather than reconciled with them.
    """
    p_left = 0.5 * model.amp_m2**2 * spec.w_m2 / (left_well.u_cap * left_well.y_cap)
    p_right = 0.5 * model.amp_2**2 * spec.w_2 / (right_well.u_cap * right_well.y_cap)
    return p_left, p_right


def single_well_model(spec: WellSpec, reduced: ReducedParams, side: str) -> SingleWellModel:
    """One well solved in isolation, normalized, barrier side continued.

    ``side`` is "left" or "right".  The state is exactly continuous in
    value and slope at both of its boundaries (the isolated solution is
    exact), and has unit norm through the closed form A = sqrt(2 U Y / w).
    """
    if side == "left":
        alpha_inner, alpha_outer, beta = reduced.alpha_m1, reduced.alpha_m3, reduced.beta_m1
        v_well, v_outer, k_cap, width = spec.v_m2, spec.v_m4, reduced.k_m2, spec.w_m2
        x_outer, x_inner = spec.x_m3, spec.x_m1
    elif side == "right":
        alpha_inner, alpha_outer, beta = reduced.alpha_1, reduced.alpha_3, reduced.beta_1
        v_well, v_outer, k_cap, width = spec.v_2, spec.v_4, reduced.k_2, spec.w_2
        x_outer, x_inner = spec.x_3, spec.x_1
    else:
        raise DomainError(f"side must be 'left' or 'right', got {side!r}")
    y = solve_y(alpha_inner, alpha_outer)
    well = derive_well(y, alpha_inner, alpha_outer, beta)
    energy = v_well + k_cap * y * y
    k = _wavenumber(spec, energy, v_well)
    kappa_outer = _wavenumber(spec, energy, v_outer)
    kappa_barrier = _wavenumber(spec, energy, spec.v_0)
    amp = math.sqrt(2.0 * well.u_cap * y / width)
    offset = (0.5 * math.pi - well.phi_outer) / k
    extremum = x_outer + offset if side == "left" else x_outer - offset
    return SingleWellModel(
        side=side,
        energy=energy,
        x_outer=x_outer,
        x_inner=x_inner,
        extremum=extremum,
        k=k,
        kappa_outer=kappa_outer,
        kappa_barrier=kappa_barrier,
        amp=amp,
        amp_outer=amp * well.s_outer,
        amp_barrier=amp * well.s_inner,
    )


def evaluate_single(state: SingleWellModel, x) -> np.ndarray:
    """psi(x) of a single-well state; accepts a scalar or an array."""
    return _field(state, x, False)


def superpose(
    left_state: SingleWellModel,
    right_state: SingleWellModel,
    prob_left: float,
    prob_right: float,
    parity: Parity,
) -> Callable[[np.ndarray], np.ndarray]:
    """Two-level superposition of single-well states as a sampled function.

    Returns a function of a caller-supplied grid evaluating

        sqrt(P_L) psi_L + sqrt(P_R) psi_R          (ground)
        -sqrt(P_R) psi_L + sqrt(P_L) psi_R         (excited)

    with the ground-state localization probabilities in both cases.  The
    returned function raises :class:`GridTooCoarse` when the grid resolves
    the shortest wavelength 2 pi / max(k) with fewer than 16 points.
    """
    weight_left = math.sqrt(prob_left)
    weight_right = math.sqrt(prob_right)
    if parity == Parity.EXCITED:
        weight_left, weight_right = -weight_right, weight_left
    shortest_wavelength = 2.0 * math.pi / max(left_state.k, right_state.k)

    def sampled(x: np.ndarray) -> np.ndarray:
        xs = np.asarray(x, dtype=float)
        if xs.ndim != 1 or xs.size < 2:
            raise GridTooCoarse("superposition sampling needs a 1-D grid of >= 2 points")
        max_step = float(np.max(np.diff(xs)))
        if max_step > shortest_wavelength / 16.0:
            raise GridTooCoarse(
                f"grid step {max_step!r} resolves the shortest wavelength "
                f"{shortest_wavelength!r} with fewer than 16 samples per period"
            )
        return weight_left * evaluate_single(left_state, xs) + weight_right * evaluate_single(
            right_state, xs
        )

    return sampled


def sample(
    model: WavefunctionModel, x_min: float, x_max: float, n_points: int
) -> np.ndarray:
    """Uniform endpoint-inclusive table of (x, psi, dpsi), shape (n, 3)."""
    if not (math.isfinite(x_min) and math.isfinite(x_max)) or not x_min < x_max:
        raise BadRange(f"need finite x_min < x_max, got {x_min!r}, {x_max!r}")
    if int(n_points) != n_points or n_points < 2:
        raise BadRange(f"need an integer n_points >= 2, got {n_points!r}")
    xs = np.linspace(x_min, x_max, int(n_points))
    return np.column_stack((xs, _field(model, xs, False), _field(model, xs, True)))


def write_sample_csv(table: np.ndarray, destination: str | IO[str]) -> None:
    """Write a sample table as CSV: header ``x,psi,dpsi``, 17 significant
    digits, LF line endings."""

    def _write(fh: IO[str]) -> None:
        fh.write("x,psi,dpsi\n")
        for x, psi, dpsi in table:
            fh.write(f"{x:.17g},{psi:.17g},{dpsi:.17g}\n")

    if isinstance(destination, str):
        with open(destination, "w", encoding="utf-8", newline="") as fh:
            _write(fh)
    else:
        _write(destination)
