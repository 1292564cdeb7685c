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
from typing import TYPE_CHECKING, Callable, IO

from .errors import BadRange, DomainError, GridTooCoarse, MatchingResidualTooLarge
from .isolated import IsolatedWellSolution, derive_well, solve_y
from .params import ReducedParams, WellSpec, wavenumbers
from .tunneling import CoupledSolution, Parity

# numpy is imported inside the array paths only, so the scalar paths
# (assemble, probabilities, and the oracle through them) never load it.
if TYPE_CHECKING:
    import numpy as np

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
# The names resolve in math for _piece and in numpy for _fill.
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


def _piece(piece: Piece, x: float, slope: bool) -> float:
    """One piece's psi, or dpsi/dx when ``slope``, at one float x, in math."""
    kind, amp, rate, origin = piece
    f, g, sign, _ = _KINDS[kind]
    t = (x - origin) * rate
    return (sign * amp) * rate * getattr(math, g)(t) if slope else amp * getattr(math, f)(t)


def _fill(piece: Piece, xs, out, slope: bool) -> None:
    """_piece at an array xs in numpy, written into ``out`` (may be xs)."""
    import numpy as np

    kind, amp, rate, origin = piece
    f, g, sign, _ = _KINDS[kind]
    np.subtract(xs, origin, out=out)
    out *= rate
    getattr(np, g if slope else f)(out, out=out)
    out *= (sign * amp) * rate if slope else amp


def _field(model: WavefunctionModel | SingleWellModel, x, slope: bool):
    """psi, or dpsi/dx when ``slope``, of a piecewise state at a scalar or an
    array of positions of any shape, which is only read; NaN gives NaN.  A
    non-decreasing grid is cut into one slice per region by one
    searchsorted; any other (NaN fails the order check and lies in no
    mask) is split by region masks, each computed on its gathered copy."""
    import numpy as np

    xs = np.asarray(x, dtype=float)
    points = xs.ravel()
    edges, pieces, left_owned = _pieces(model)
    if (points[1:] >= points[:-1]).all():
        # A lone NaN passes the check, lands in the last region and stays NaN.
        out = np.empty_like(points)
        cuts = np.searchsorted(points, edges, side="right" if left_owned else "left")
        for piece, lo, hi in zip(pieces, (0, *cuts), (*cuts, len(points))):
            if lo < hi:
                _fill(piece, points[lo:hi], out[lo:hi], slope)
    else:
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
            region = points[mask]
            _fill(piece, region, region, slope)
            out[mask] = region
    return float(out[0]) if xs.ndim == 0 else out.reshape(xs.shape)


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
        (x, *[(_piece(p, x, False), _piece(p, x, True)) for p in (left, right)])
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


def _tail_ratio(parity: Parity, kappa_out: float, k: float, width: float, kappa_0: float) -> float:
    """tanh of kappa_0 times the distance from a barrier edge to the
    barrier's extremum (ground) or node (excited), read from the decaying
    outer tail carried through the well on that side."""
    theta = k * width
    u = math.cos(theta) + (kappa_out / k) * math.sin(theta)
    u_prime = -k * math.sin(theta) + kappa_out * math.cos(theta)
    return -u_prime / (kappa_0 * u) if parity == Parity.GROUND else -kappa_0 * u / u_prime


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
    kappa_m4, k_m2, kappa_0, k_2, kappa_4 = wavenumbers(spec, energy)
    rho_left = _tail_ratio(parity, kappa_m4, k_m2, spec.w_m2, kappa_0)
    rho_right = _tail_ratio(parity, kappa_4, k_2, spec.w_2, kappa_0)
    # |ratio| >= 1 has no extremum at all; NaN puts it outside the barrier.
    if abs(rho_right) < abs(rho_left) or not -1.0 < rho_left < 1.0:
        r_right = math.atanh(rho_right) if -1.0 < rho_right < 1.0 else math.nan
        r_left = kappa_0 * spec.w_0 - r_right
    else:
        r_left = math.atanh(rho_left)
    return _assemble_core(spec, reduced, parity, energy, r_left)


def evaluate(model: WavefunctionModel, x):
    """psi(x); accepts a scalar or an array of any shape.

    A non-decreasing grid is evaluated slice by slice, in place in the
    result; any other grid goes through one mask per region.  Region
    dispatch is half-open with each boundary belonging to the region on
    its right; continuity makes the choice observationally irrelevant.
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
        import numpy as np

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
    try:
        count = int(n_points)
    except (OverflowError, ValueError):  # inf, nan, a non-numeric string
        count = 0
    if count != n_points or count < 2:
        raise BadRange(f"need an integer n_points >= 2, got {n_points!r}")
    import numpy as np

    xs = np.linspace(x_min, x_max, count)
    return np.column_stack((xs, _field(model, xs, False), _field(model, xs, True)))


# Rows per formatted block: bounds the text and the argument tuple held at
# once for long tables.
_CSV_BLOCK_ROWS = 1024


def write_sample_csv(table: np.ndarray, destination: str | IO[str]) -> None:
    """Write a sample table as CSV: header ``x,psi,dpsi``, 17 significant
    digits, LF line endings.

    Rows are formatted ``_CSV_BLOCK_ROWS`` at a time by one ``%`` call on
    Python floats and written with one ``write`` per block, so memory stays
    flat however long the table is; ``%.17g`` gives the same bytes as
    ``format(x, ".17g")``.  Raises :class:`BadRange` for a table that is not
    of shape (n, 3), before ``destination`` is opened or written.
    """
    if table.ndim != 2 or table.shape[1] != 3:
        raise BadRange(f"need a sample table of shape (n, 3), got {table.shape!r}")

    def _write(fh: IO[str]) -> None:
        fh.write("x,psi,dpsi\n")
        for start in range(0, len(table), _CSV_BLOCK_ROWS):
            block = table[start : start + _CSV_BLOCK_ROWS]
            fh.write(("%.17g,%.17g,%.17g\n" * len(block)) % tuple(block.ravel().tolist()))

    if isinstance(destination, str):
        with open(destination, "w", encoding="utf-8", newline="") as fh:
            _write(fh)
    else:
        _write(destination)
