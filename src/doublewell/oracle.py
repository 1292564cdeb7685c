"""Exact transcendental solver for the double square well.

No thick-barrier expansion: propagate the decaying left-wall solution
(psi, psi') across the five regions with closed-form constant-potential
propagators and root-find the energies at which it also decays under the
right wall.  The dimensionless mismatch

    mu(E) = psi'(x_3) / (psi(x_3) kappa_4) + 1

vanishes exactly at eigenvalues, is O(1) away from them, and has poles
where psi(x_3) = 0; those pole energies are precisely where the interior
node count steps up, so node counts label the root brackets.

Brackets are judged by node counts and mismatch signs alone, but their
trial energies come from Muller steps on the smooth, barrier-rescaled
wall value u = psi(x_3) and decay residual u' + kappa_4 u, safeguarded by
bisection: about 70 shoots per :func:`compare` where bisection took 250.

Used to quantify the error of the closed-form approximation via
:func:`compare`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DegeneracyUnresolved, DomainError, LevelNotFound
from .params import WellSpec, band, first_unbound_well, reduce, wavenumbers
from .tunneling import Parity, solve_double_well
from .wavefunc import assemble_at_energy, probabilities

__all__ = ["ShootResult", "OracleComparison", "shoot", "find_level", "compare"]


@dataclass(frozen=True, slots=True)
class ShootResult:
    """One propagation: energy, right-wall mismatch, interior node count,
    and the barrier-rescaled wall value u = psi(x_3) and decay residual
    u' + kappa_4 u, whose zeros are the node-count steps and the levels."""

    energy: float
    mismatch: float
    node_count: int
    wall: float = math.nan
    residual: float = math.nan


@dataclass(frozen=True, slots=True)
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


def _trig_zeros(c: float, d: float, theta: float) -> int:
    """Zeros of u(t) = c cos(k t) + d sin(k t) = R cos(k t - delta) for
    k t in the open interval (0, theta)."""
    delta = math.atan2(d, c)
    return math.floor((theta - delta - 0.5 * math.pi) / math.pi) - math.floor(
        (-delta - 0.5 * math.pi) / math.pi
    )


def shoot(spec: WellSpec, energy: float) -> ShootResult:
    """Propagate the left-decaying solution across all five regions.

    The barrier segment factors out the growing exponential e^{kappa_0 w_0}
    (the mismatch is scale invariant and node counts ignore positive
    rescaling), so arbitrarily opaque barriers cannot overflow.  A node
    exactly at the right wall makes the mismatch a signed infinity (its
    pole convention).
    """
    kappa_m4, k_m2, kappa_0, k_2, kappa_4 = wavenumbers(spec, energy)

    nodes = 0
    # Region -2 (left well): u = c cos + d sin in the local coordinate.
    u, u_prime = 1.0, kappa_m4
    c, d = u, u_prime / k_m2
    theta = k_m2 * spec.w_m2
    nodes += _trig_zeros(c, d, theta)
    u = c * math.cos(theta) + d * math.sin(theta)
    u_prime = -c * k_m2 * math.sin(theta) + d * k_m2 * math.cos(theta)

    # Region 0 (barrier): u = c cosh + d sinh, rescaled by e^{-kappa_0 w_0}.
    c, d = u, u_prime / kappa_0
    if d != 0.0:
        ratio = -c / d
        if 0.0 < ratio < 1.0 and math.atanh(ratio) < kappa_0 * spec.w_0:
            nodes += 1
    grow = 0.5 * (c + d)
    decay = 0.5 * (c - d)
    shrink = math.exp(-2.0 * kappa_0 * spec.w_0)
    u = grow + decay * shrink
    u_prime = kappa_0 * (grow - decay * shrink)

    # Region 2 (right well).
    c, d = u, u_prime / k_2
    theta = k_2 * spec.w_2
    nodes += _trig_zeros(c, d, theta)
    u = c * math.cos(theta) + d * math.sin(theta)
    u_prime = -c * k_2 * math.sin(theta) + d * k_2 * math.cos(theta)

    mismatch = u_prime / (u * kappa_4) + 1.0 if u else math.copysign(math.inf, u_prime)
    return ShootResult(energy, mismatch, nodes, u, u_prime + kappa_4 * u)


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
    spec: WellSpec, lo: ShootResult, hi: ShootResult, upper, field: str, tol_rel: float
) -> tuple[ShootResult, ShootResult]:
    """Shrink the bracket ``lo.energy < hi.energy`` until it is at most
    ``tol_rel`` relative wide or no float lies inside; ``upper(shot)``
    tells whether a shot belongs with ``hi``.

    Trials are Muller steps through the zero of ``field`` on the latest
    three shots, kept strictly inside the bracket and at least half the
    target width (one ulp of the latest shot at tolerance 0) from its ends.
    A bisection follows whenever two steps have not halved the bracket or
    the step lands farther outside it (as it does on NaN fields).
    """
    points = [(lo.energy, getattr(lo, field))] * 2 + [(hi.energy, getattr(hi, field))]
    widths = [math.inf, math.inf, hi.energy - lo.energy]
    while True:
        a, b = lo.energy, hi.energy
        mid, target = 0.5 * (a + b), tol_rel * max(abs(a), abs(b))
        if b - a <= target or not a < mid < b:
            return lo, hi
        trial = mid
        if widths[-1] <= 0.5 * widths[-3]:
            x, step = _muller(points[-3:]), max(0.5 * target, math.ulp(points[-1][0]))
            if a - step < x < b + step:
                trial = min(max(x, a + step), b - step)
            if not a < trial < b:
                trial = mid
        shot = shoot(spec, trial)
        if upper(shot):
            hi = shot
        else:
            lo = shot
        points.append((trial, getattr(shot, field)))
        widths.append(hi.energy - lo.energy)


def find_level(spec: WellSpec, which: Parity, tol_rel: float = 1e-13) -> float:
    """Exact eigenvalue of the requested level to relative tolerance.

    Labels the level by its interior node count (0 for the ground state, 1
    for the excited).  The count never decreases with energy, so the edges
    of the window holding exactly that count are found straight from the
    two band ends, to adjacent floats, and the mismatch root inside it to
    ``tol_rel``.  Each bracket is judged by the node count or the mismatch
    sign alone; :func:`_refine` picks its trial energies by interpolating
    the wall value or the decay residual, about 15 shoots per bracket where
    bisection takes about 50.

    Raises :class:`DomainError` before any shoot unless ``tol_rel`` is
    finite with 0 <= tol_rel < 1; :class:`LevelNotFound` when no band
    energy has the level's node count or the mismatch has no sign change in
    a window bounded by both band ends; and :class:`DegeneracyUnresolved`
    when the doublet is below float resolution (the window is narrower than
    one float, or the mismatch has no sign change in a window with a
    node-count pole edge) or the found root cannot be separated from a
    neighbouring one at ``tol_rel``.
    """
    if not 0.0 <= tol_rel < 1.0:
        raise DomainError(f"tol_rel must be finite with 0 <= tol_rel < 1, got {tol_rel!r}")
    unbound = first_unbound_well(reduce(spec))
    if unbound:
        raise LevelNotFound(
            "{} well binds no level (alpha_inner={!r}, alpha_outer={!r})".format(*unbound)
        )
    target = 0 if which == Parity.GROUND else 1
    lo, hi = band(spec)
    inset = 1e-9 * (hi - lo)
    bottom = shoot(spec, lo + inset)
    top = shoot(spec, hi - inset)
    if bottom.node_count > target or top.node_count < target:
        raise LevelNotFound(f"no band energy has {target} interior nodes")

    # The window of exactly ``target`` nodes opens at the band bottom or at
    # the first float with that many, and closes at the band top or at the
    # last float before the count exceeds it.
    poles: list[float] = []
    opening = bottom
    if bottom.node_count < target:
        _, opening = _refine(spec, bottom, top, lambda s: s.node_count >= target, "wall", 0.0)
        if opening.node_count != target:
            raise DegeneracyUnresolved(
                f"the {target}-node window is narrower than floating-point resolution; "
                "the two lowest levels are numerically degenerate"
            )
        poles.append(opening.energy)
    closing = top
    if top.node_count > target:
        closing, _ = _refine(spec, opening, top, lambda s: s.node_count > target, "wall", 0.0)
        poles.append(closing.energy)

    m_lo, m_hi = opening.mismatch, closing.mismatch
    if m_lo == 0.0 or m_hi == 0.0:
        root = opening.energy if m_lo == 0.0 else closing.energy
    elif (m_lo > 0.0) == (m_hi > 0.0):
        # Beside a node-count pole, no sign change means the level sits within
        # float resolution of the pole: the doublet is degenerate in float64.
        if poles:
            raise DegeneracyUnresolved(
                f"mismatch has no sign change inside the {target}-node window; "
                "the two lowest levels are numerically degenerate"
            )
        raise LevelNotFound(
            f"mismatch has no sign change inside the {target}-node window"
        )
    else:
        below, above = _refine(
            spec, opening, closing, lambda s: (s.mismatch > 0) == (m_hi > 0), "residual", tol_rel
        )
        root = 0.5 * (below.energy + above.energy)
    tol_abs = tol_rel * abs(root) if root != 0.0 else tol_rel * (hi - lo)
    for pole in poles:
        if abs(root - pole) < tol_abs:
            raise DegeneracyUnresolved(
                f"found root {root!r} within tolerance of the node-count pole "
                f"{pole!r}; tighten tol_rel below the expected level splitting"
            )
    return root


def compare(spec: WellSpec, tol_rel: float = 1e-13) -> OracleComparison:
    """Run the approximation pipeline and the exact solver side by side,
    with :func:`find_level`'s ``tol_rel``."""
    approx = solve_double_well(spec)
    e0_exact = find_level(spec, Parity.GROUND, tol_rel)
    e1_exact = find_level(spec, Parity.EXCITED, tol_rel)
    delta_exact = 0.5 * (e1_exact - e0_exact)
    e_bar_exact = 0.5 * (e1_exact + e0_exact)
    lo, hi = band(spec)
    scale = abs(e_bar_exact) or hi - lo
    exact_model = assemble_at_energy(spec, approx.reduced, Parity.GROUND, e0_exact)
    prob_left, prob_right = probabilities(exact_model)
    ratio_exact = prob_right / prob_left
    ratio_approx = approx.ground.prob_right / approx.ground.prob_left
    return OracleComparison(
        tol_rel=tol_rel,
        e0_approx=approx.splitting.e0,
        e1_approx=approx.splitting.e1,
        delta_e_approx=approx.splitting.delta_e,
        ratio_approx=ratio_approx,
        e0_exact=e0_exact,
        e1_exact=e1_exact,
        delta_e_exact=delta_exact,
        ratio_exact=ratio_exact,
        err_e0=abs(approx.splitting.e0 - e0_exact) / scale,
        err_e1=abs(approx.splitting.e1 - e1_exact) / scale,
        err_delta_e=abs(approx.splitting.delta_e - delta_exact) / max(delta_exact, 5e-324),
        err_ratio=abs(ratio_approx - ratio_exact) / ratio_exact,
    )
