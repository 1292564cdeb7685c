"""Exact transcendental solver for the double square well.

No thick-barrier expansion: propagate the decaying left-wall solution
(psi, psi') across the five regions with closed-form constant-potential
propagators and root-find the energies at which it also decays under the
right wall.  The dimensionless mismatch

    mu(E) = psi'(x_3) / (psi(x_3) kappa_4) + 1

vanishes exactly at eigenvalues, is O(1) away from them, and has poles
where psi(x_3) = 0; those pole energies are precisely where the interior
node count steps up, so node counts label the root brackets.

Used to quantify the error of the closed-form approximation via
:func:`compare`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DegeneracyUnresolved, LevelNotFound
from .params import WellSpec, band, first_unbound_well, reduce, wavenumbers
from .tunneling import Parity, solve_double_well
from .wavefunc import assemble_at_energy, probabilities

__all__ = ["ShootResult", "OracleComparison", "shoot", "find_level", "compare"]


@dataclass(frozen=True, slots=True)
class ShootResult:
    """One propagation: energy, right-wall mismatch, interior node count."""

    energy: float
    mismatch: float
    node_count: int


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

    if u == 0.0:
        return ShootResult(energy=energy, mismatch=math.copysign(math.inf, u_prime), node_count=nodes)
    return ShootResult(
        energy=energy, mismatch=u_prime / (u * kappa_4) + 1.0, node_count=nodes
    )


def _node_transition(
    spec: WellSpec, e_lo: float, e_hi: float, threshold: int
) -> tuple[float, float]:
    """Bisect the energy at which the node count first reaches
    ``threshold``; returns adjacent floats straddling the transition."""
    while e_hi - e_lo > 2.0 * math.ulp(max(abs(e_lo), abs(e_hi))):
        mid = 0.5 * (e_lo + e_hi)
        if mid <= e_lo or mid >= e_hi:
            break
        if shoot(spec, mid).node_count >= threshold:
            e_hi = mid
        else:
            e_lo = mid
    return e_lo, e_hi


def _bisect_mismatch(
    spec: WellSpec, e_lo: float, m_lo: float, e_hi: float, m_hi: float, tol_rel: float
) -> float:
    """Standard sign bisection of the mismatch inside one node plateau."""
    if m_lo == 0.0:
        return e_lo
    if m_hi == 0.0:
        return e_hi
    for _ in range(200):
        mid = 0.5 * (e_lo + e_hi)
        if mid <= e_lo or mid >= e_hi:
            break
        m_mid = shoot(spec, mid).mismatch
        if m_mid == 0.0:
            return mid
        if (m_mid > 0.0) == (m_lo > 0.0):
            e_lo, m_lo = mid, m_mid
        else:
            e_hi, m_hi = mid, m_mid
        if e_hi - e_lo <= tol_rel * max(abs(e_lo), abs(e_hi)):
            break
    return 0.5 * (e_lo + e_hi)


def find_level(spec: WellSpec, which: Parity, tol_rel: float = 1e-13) -> float:
    """Exact eigenvalue of the requested level to relative tolerance.

    Labels the level by its interior node count (0 for the ground state, 1
    for the excited).  The count never decreases with energy, so the window
    holding exactly that count is bisected to float resolution straight from
    the two band ends, and the mismatch is sign-bisected inside it.  Raises
    :class:`LevelNotFound` when no band energy has the level's node count or
    the mismatch has no sign change in a window bounded by both band ends,
    and :class:`DegeneracyUnresolved` when the doublet is below float
    resolution (the window is narrower than one float, or the mismatch has
    no sign change in a window with a node-count pole edge) or the found
    root cannot be separated from a neighbouring one at ``tol_rel``.
    """
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
        _, above = _node_transition(spec, bottom.energy, top.energy, target)
        opening = shoot(spec, above)
        if opening.node_count != target:
            raise DegeneracyUnresolved(
                f"the {target}-node window is narrower than floating-point resolution; "
                "the two lowest levels are numerically degenerate"
            )
        poles.append(above)
    closing = top
    if top.node_count > target:
        below, _ = _node_transition(spec, opening.energy, top.energy, target + 1)
        closing = shoot(spec, below)
        poles.append(below)

    m_lo, m_hi = opening.mismatch, closing.mismatch
    if m_lo != 0.0 and m_hi != 0.0 and (m_lo > 0.0) == (m_hi > 0.0):
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
    root = _bisect_mismatch(spec, opening.energy, m_lo, closing.energy, m_hi, tol_rel)
    tol_abs = tol_rel * abs(root) if root != 0.0 else tol_rel * (hi - lo)
    for pole in poles:
        if abs(root - pole) < tol_abs:
            raise DegeneracyUnresolved(
                f"found root {root!r} within tolerance of the node-count pole "
                f"{pole!r}; tighten tol_rel below the expected level splitting"
            )
    return root


def compare(spec: WellSpec, tol_rel: float = 1e-13) -> OracleComparison:
    """Run the approximation pipeline and the exact solver side by side."""
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
