"""Exact transcendental solver for the double square well.

No thick-barrier expansion: follow the decaying left-wall solution across
the five regions with closed-form constant-potential propagators, as one
continuous Pruefer phase theta with u = R sin(theta) and u'/k = R cos(theta)
in each region's own scale k (H. Pruefer, Math. Ann. 95, 499, 1926; exact
for piecewise-constant potentials, as in S. Pruess and C. T. Fulton,
ACM TOMS 19, 360, 1993).  Read in the right wall's scale kappa_4, the
phase Theta(E) at the right wall crosses every multiple of pi (a node
reaching the wall) and every level target (n + 3/4) pi, where
u' + kappa_4 u = 0, upward only, so level n is the one energy at which
Theta crosses (n + 3/4) pi and it has n interior nodes.

Each level is one bracket search, judged by the phase alone: its first
pair is the closed-form level -+ h when :func:`compare` passes it as a
guess, else the two band ends.  A pair that misses the level jumps past
the crossing of the secant on the phase through it, then widens until it
straddles the level or reaches a band end.  Its trial energies come from
Muller steps on the smooth decay residual u' + kappa_4 u, safeguarded by
bisection.  The resolution rule then reuses the shots that opened the
bracket wherever they settle it: about 9 shoots per :func:`compare`
(about 48 from the band ends).

Used to quantify the error of the closed-form approximation via
:func:`compare`.
"""

from __future__ import annotations

import math

from .errors import AssumptionViolated, DegeneracyUnresolved, DomainError, LevelNotFound
from .params import _EXCITED, _GROUND, Parity, WellSpec, band, record, wavenumbers


@record
class ShootResult:
    """One propagation: the energy, the phase Theta at the right wall (the
    interior node count is floor(Theta / pi)) and the decay residual
    u' + kappa_4 u there."""

    energy: float
    phase: float
    residual: float


@record
class OracleComparison:
    """Approximation-vs-exact error report.

    Energy errors are relative to the exact mean level energy (or to the
    band width when that mean is exactly zero).
    """

    tol_rel: float
    e0_approx: float
    e1_approx: float
    delta_e_approx: float
    ratio_approx: float
    e0_exact: float
    e1_exact: float
    delta_e_exact: float
    ratio_exact: float
    err_e0: float
    err_e1: float
    err_delta_e: float
    err_ratio: float


def _rescale(theta: float, radius: float, ratio: float) -> tuple[float, float]:
    """Re-read u = R sin(theta), u'/k = R cos(theta) in the scale k/ratio,
    keeping theta's quadrant."""
    s, c = math.sin(theta), math.cos(theta)
    return theta - math.atan2(s, c) + math.atan2(s, c * ratio), radius * math.hypot(s, c * ratio)


def shoot(spec: WellSpec, energy: float) -> ShootResult:
    """Propagate the left-decaying solution across all five regions.

    Each well adds exactly k w to the phase.  In the barrier the phase
    moves toward its attractor pi/4 + m pi without crossing the repellers
    -pi/4 + m pi, so less than pi/2: the end angle of the barrier-rescaled
    pair (the growing exponential e^{kappa_0 w_0} factored out, so
    arbitrarily opaque barriers cannot overflow) is read into that range.
    The shot has floor(phase / pi) interior nodes.

    Raises :class:`AssumptionViolated` when a wavenumber underflows to 0
    or overflows (from :func:`wavenumbers`), or the phase or the amplitude
    (so the residual) overflows.
    """
    kappa_m4, k_m2, kappa_0, k_2, kappa_4 = wavenumbers(spec, energy)
    try:
        # u = 1, u' = kappa_m4 at the left wall; the left well turns the phase.
        ratio = kappa_m4 / k_m2
        theta = math.atan2(1.0, ratio) + k_m2 * spec.w_m2
        theta, radius = _rescale(theta, math.hypot(1.0, ratio), k_m2 / kappa_0)

        # Barrier: u = grow e^{kappa_0 t} + decay e^{-kappa_0 t}, times e^{-kappa_0 w_0}.
        u, v = math.sin(theta), math.cos(theta)
        grow = 0.5 * (u + v)
        decay = 0.5 * (u - v) * math.exp(-2.0 * kappa_0 * spec.w_0)
        u, v = grow + decay, grow - decay
        theta += math.remainder(math.atan2(u, v) - theta, 2.0 * math.pi)
        theta, radius = _rescale(theta, radius * math.hypot(u, v), kappa_0 / k_2)

        theta, radius = _rescale(theta + k_2 * spec.w_2, radius, k_2 / kappa_4)
        u, v = radius * math.sin(theta), radius * math.cos(theta)
    except ValueError:  # sin, cos or remainder of an infinite phase
        raise AssumptionViolated(
            f"the phase leaves the float64 range at energy {energy!r}: wavenumbers "
            f"{(kappa_m4, k_m2, kappa_0, k_2, kappa_4)!r}"
        ) from None
    residual = kappa_4 * (v + u)
    if not math.isfinite(residual):
        raise AssumptionViolated(
            f"the amplitude leaves the float64 range at energy {energy!r}: residual "
            f"{residual!r} with wavenumbers {(kappa_m4, k_m2, kappa_0, k_2, kappa_4)!r}"
        )
    return ShootResult(energy, theta, residual)


def _muller(points: list[tuple[float, float]]) -> float:
    """Zero, nearest the last point, of the parabola through three (energy,
    value) points (a line when the first two coincide); a Newton step on it
    when it has no real zero, NaN when that is undefined."""
    (x0, f0), (x1, f1), (x2, f2) = points
    d2 = (f2 - f1) / (x2 - x1)
    curve = (d2 - (f1 - f0) / (x1 - x0)) / (x2 - x0) if x0 != x1 else 0.0
    slope = d2 + curve * (x2 - x1)
    disc = slope * slope - 4.0 * curve * f2
    q = slope + math.copysign(math.sqrt(disc), slope) if disc >= 0.0 else 2.0 * slope
    return x2 - 2.0 * f2 / q if q else math.nan


def _refine(
    spec: WellSpec, lo: ShootResult, hi: ShootResult, target: float, tol_rel: float
) -> tuple[ShootResult, ShootResult]:
    """Shrink the bracket ``lo.energy < hi.energy`` until it is at most
    ``tol_rel`` relative wide or no float lies inside; a shot belongs with
    ``hi`` when its phase exceeds ``target``.

    Trials are Muller steps through the zero of the residual on the latest
    three shots, kept strictly inside the bracket and at least half the
    final width (one ulp of the latest shot at tolerance 0) from its ends.
    A bisection follows whenever two steps have not halved the bracket or
    the step lands farther outside it (as it does on NaN residuals).
    """
    points = [(lo.energy, lo.residual)] * 2 + [(hi.energy, hi.residual)]
    widths = [math.inf, math.inf, hi.energy - lo.energy]
    while True:
        a, b = lo.energy, hi.energy
        mid, width = 0.5 * (a + b), tol_rel * max(abs(a), abs(b))
        if b - a <= width or not a < mid < b:
            return lo, hi
        trial = mid
        if widths[-1] <= 0.5 * widths[-3]:
            x, step = _muller(points[-3:]), max(0.5 * width, math.ulp(points[-1][0]))
            if a - step < x < b + step:
                trial = min(max(x, a + step), b - step)
            if not a < trial < b:
                trial = mid
        shot = shoot(spec, trial)
        if shot.phase > target:
            hi = shot
        else:
            lo = shot
        points.append((trial, shot.residual))
        widths.append(hi.energy - lo.energy)


def _bracket(
    spec: WellSpec, guess: float, bottom: float, top: float, target: float
) -> tuple[ShootResult, ShootResult]:
    """The last two shots of one search for a pair that straddles the
    ``target`` phase crossing.  A ``guess`` strictly inside (bottom, top)
    starts at guess -+ h, h = max(1e-12 |guess|, 1e-15 (top - bottom)),
    clipped to [bottom, top].  A failing end is replaced by a shot farther
    from the guess, so the failing shot becomes the other end: first an
    eighth past the crossing of the secant on Theta through the opening
    pair (a Newton step on the phase), then sixteen times farther per step
    (sixteen times h at once when the pair's phases do not rise).  Any
    other guess starts at the band ends.  A failing end at a band end
    stops the search: Theta only rises, so no pair in the band straddles
    the crossing then.
    """
    if not bottom < guess < top:
        return shoot(spec, bottom), shoot(spec, top)
    h = max(1e-12 * abs(guess), 1e-15 * (top - bottom))
    below = shoot(spec, max(guess - h, bottom))
    above = shoot(spec, min(guess + h, top))
    rise = above.phase - below.phase
    if rise > 0.0:
        crossing = below.energy + (target - below.phase) * (above.energy - below.energy) / rise
        # The secant lands within a few percent of the level from a
        # closed-form guess; an eighth more makes the jump straddle it.
        reach = 1.125 * abs(crossing - guess)
    else:
        reach = 16.0 * h
    while True:
        if not below.phase <= target and below.energy > bottom:
            below, above = shoot(spec, max(guess - reach, bottom)), below
        elif below.phase <= target and not above.phase > target and above.energy < top:
            below, above = above, shoot(spec, min(guess + reach, top))
        else:
            return below, above
        reach *= 16.0


def find_level(
    spec: WellSpec, which: Parity, tol_rel: float = 1e-13, guess: float = math.nan
) -> float:
    """Exact eigenvalue of the requested level to relative tolerance.

    Level n (0 for the ground state, 1 for the excited) is the energy at
    which the phase Theta crosses (n + 3/4) pi.  Theta only rises there, so
    any two shots on either side of that crossing bracket the level, and
    one :func:`_refine` call shrinks the bracket to ``tol_rel``, judging
    each shot by Theta > (n + 3/4) pi alone and stepping by the decay
    residual.

    One bracket search finds the pair to refine.  A ``guess`` strictly
    inside the band (inset by 1e-9 of its width) only decides where it
    starts: shots at guess -+ h, then a failing end jumps just past the
    crossing of the secant on Theta through them and widens sixteen times
    per step after that, until they straddle the crossing (about 4.5
    shoots per level from a closed-form guess) or a failing end reaches a
    band end.  Any other guess (NaN, infinite or outside the band) starts
    at the two band ends (about 24 shoots per level).  Either way the
    level is the same crossing, to ``tol_rel``.  Theta only rises, so a
    pair in the band straddles the crossing exactly when the band ends do,
    and every start refuses the same inputs with :class:`LevelNotFound`.

    Resolution rule: a level is refused when a neighbouring level lies
    within ``tol_rel`` |E| of it, that is when Theta at root -+ ``tol_rel``
    |root| (clamped to the inset band) reaches the neighbour's target; a
    doublet split by less than that cannot be separated at this tolerance.
    The root lies within half that tolerance of the crossing, so a
    neighbour closer than half of it is always refused and one farther
    than 1.5 times it never is, whichever bracket was refined.  Theta only
    rises, so a shot that opened the bracket at or beyond root -+
    ``tol_rel`` |root|, short of the neighbour's target, settles its side
    with no new shot and the same verdict; from a closed-form guess both
    sides are usually settled so.

    Raises :class:`DomainError` before any shoot unless ``tol_rel`` is
    finite with 0 <= tol_rel < 1; :class:`AssumptionViolated` when a shot
    leaves the float64 range (see :func:`shoot`); :class:`LevelNotFound`
    when the target lies outside the phases of the last pair the search
    shot, so outside [Theta(bottom), Theta(top)); and
    :class:`DegeneracyUnresolved` by the resolution rule.
    """
    if not 0.0 <= tol_rel < 1.0:
        raise DomainError(f"tol_rel must be finite with 0 <= tol_rel < 1, got {tol_rel!r}")
    nodes = 0 if which == _GROUND else 1
    target = (nodes + 0.75) * math.pi
    lo, hi = band(spec)
    inset = 1e-9 * (hi - lo)
    bottom, top = lo + inset, hi - inset
    below, above = _bracket(spec, guess, bottom, top, target)
    if not below.phase <= target < above.phase:
        raise LevelNotFound(
            f"the {nodes}-node level's phase target {target!r} lies outside the phases "
            f"[{below.phase!r}, {above.phase!r}) shot at {below.energy!r} and {above.energy!r}"
        )
    low, high = _refine(spec, below, above, target, tol_rel)
    root = 0.5 * (low.energy + high.energy)
    tol_abs = tol_rel * abs(root) if root != 0.0 else tol_rel * (hi - lo)
    # Theta rises, so an opening bracket end at or beyond root -+ tol_abs
    # on the near side of the neighbour's target settles that side unshot.
    check_lo, check_hi = max(root - tol_abs, bottom), min(root + tol_abs, top)
    if not (
        (below.energy <= check_lo and below.phase > target - math.pi)
        or shoot(spec, check_lo).phase > target - math.pi
    ) or not (
        (above.energy >= check_hi and above.phase <= target + math.pi)
        or shoot(spec, check_hi).phase <= target + math.pi
    ):
        raise DegeneracyUnresolved(
            f"a neighbouring level lies within tol_rel={tol_rel!r} of the {nodes}-node "
            f"level at {root!r}; tighten tol_rel below the level splitting, if float64 "
            "resolves it"
        )
    return root


def compare(spec: WellSpec, tol_rel: float = 1e-13) -> OracleComparison:
    """Run the approximation pipeline and the exact solver side by side,
    with :func:`find_level`'s ``tol_rel``.  The ground search starts from
    the closed-form e0; the excited one from the closed-form e1 moved by
    the ground level's measured miss, since the closed form misses both
    levels of a doublet by nearly the same amount.  Only this function
    reaches the closed form, so importing the oracle loads none of it."""
    from . import tunneling, wavefunc

    approx = tunneling.solve_double_well(spec)
    e0_approx, e1_approx, delta_e_approx = (
        approx.splitting.e0, approx.splitting.e1, approx.splitting.delta_e
    )
    e0_exact = find_level(spec, _GROUND, tol_rel, guess=e0_approx)
    e1_exact = find_level(spec, _EXCITED, tol_rel, guess=e1_approx + (e0_exact - e0_approx))
    delta_exact = 0.5 * (e1_exact - e0_exact)
    e_bar_exact = 0.5 * (e1_exact + e0_exact)
    lo, hi = band(spec)
    scale = abs(e_bar_exact) or hi - lo
    exact_model = wavefunc.assemble_at_energy(spec, approx.reduced, _GROUND, e0_exact)
    prob_left, prob_right = wavefunc.probabilities(exact_model)
    ratio_exact = prob_right / prob_left
    ratio_approx = approx.ground.prob_right / approx.ground.prob_left
    # Positional, in field order: keywords cost a dict per call.
    return OracleComparison(
        tol_rel, e0_approx, e1_approx, delta_e_approx, ratio_approx,
        e0_exact, e1_exact, delta_exact, ratio_exact,
        abs(e0_approx - e0_exact) / scale,
        abs(e1_approx - e1_exact) / scale,
        abs(delta_e_approx - delta_exact) / max(delta_exact, 5e-324),
        abs(ratio_approx - ratio_exact) / ratio_exact,
    )
