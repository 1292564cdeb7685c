"""Antisymmetric depth perturbation of a symmetric double well.

About a left-right symmetric configuration, perturb the well floors in
opposite directions,

    V_-2 -> V_-2 + delta_v,     V_2 -> V_2 - delta_v,

and track the response to first order.  With v = delta_v / delta_e the
perturbation measured in units of the half-splitting, the two levels are

    e0 = e_bar + delta_e (F v - sqrt(1 + G^2 v^2))
    e1 = e_bar + delta_e (F v + sqrt(1 + G^2 v^2))

where F collects the antisymmetric and G the symmetric combination of the
well-edge responses.  The decoupled-well energies are
E_L/R = e_bar + delta_e (F v +- G v), and the right/left localization
probability ratio of the ground state is

    P_R / P_L = (sqrt(1 + G^2 v^2) + G v) / (sqrt(1 + G^2 v^2) - G v),

valid for v >> 1 as well; the only smallness requirement is
|delta_v| << potential steps W.
"""

from __future__ import annotations

import math

from .errors import AssumptionViolated, DomainError, NotSymmetric, PerturbationTooLarge
from .isolated import IsolatedWellSolution
from .params import ReducedParams, WellSpec, record
from .tunneling import _GROUND, _check_trust, _probability_split, _wells, solve_r0


@record
class SymmetricBase:
    """Symmetric reference configuration for the perturbation formulas.

    ``min_depth`` is the smallest of the four potential steps; first-order
    validity requires |delta_v| well below it.
    """

    a_sym: float
    e_bar: float
    delta_e: float
    f_coef: float
    g_coef: float
    p_small: float
    wells: tuple[IsolatedWellSolution, IsolatedWellSolution]
    min_depth: float


@record
class PerturbedLevels:
    """Level energies and localization for one perturbation strength."""

    v_ratio: float
    delta_v: float
    e_left: float
    e_right: float
    e0: float
    e1: float
    z_asym: float
    prob_ratio: float


@record
class DeltaLedger:
    """Relative first-order shifts delta_X / X per unit of the applied
    antisymmetric perturbation (left floor raised by delta_v, right floor
    lowered by delta_v).

    The barrier-side shifts ``beta`` equal the corresponding inner-edge
    ``alpha`` shifts (both scale as the inverse square root of the same
    step), so only the twelve independent quantities are recorded.  The
    ``a_m1``/``a_1`` entries are relative to the symmetric ``a``.
    """

    alpha_m3: float
    alpha_m1: float
    alpha_1: float
    alpha_3: float
    y_m2: float
    y_2: float
    s_m3: float
    s_m1: float
    s_1: float
    s_3: float
    a_m1: float
    a_1: float


def symmetric_base(spec: WellSpec) -> SymmetricBase:
    """Solve the symmetric configuration and package its response inputs.

    The reduced params, wells and coupling come from the pass
    :func:`doublewell.tunneling.solve_double_well` shares: called right
    after it on the same spec object, this call reuses its records (which
    must not be changed), so ``wells`` may be the result's ``left`` and
    ``right`` objects.  Raises :class:`NotSymmetric` when the derived well
    coefficients a_left, a_right differ by more than 1e-9 relative, and
    :class:`AssumptionViolated` when a phase correction sqrt(p)/b exceeds
    the 0.1 trust threshold or the half-splitting underflows to 0.
    """
    _, reduced_params, left, right, coup = _wells(spec)
    a_scale = max(abs(left.a_coef), abs(right.a_coef))
    if abs(right.a_coef - left.a_coef) > 1e-9 * a_scale:
        raise NotSymmetric(
            f"wells are detuned: a_left={left.a_coef!r}, a_right={right.a_coef!r} "
            "differ by more than 1e-9 relative; the antisymmetric-perturbation "
            "formulas require a symmetric base"
        )
    sum_left = left.u_cap * (
        left.s_inner**2 * left.t_inner + left.s_outer**2 * left.t_outer
    )
    sum_right = right.u_cap * (
        right.s_inner**2 * right.t_inner + right.s_outer**2 * right.t_outer
    )
    f_coef = (sum_right - sum_left) / (2.0 * math.pi)
    g_coef = 1.0 - (sum_right + sum_left) / (2.0 * math.pi)
    r0, p_small = solve_r0(_GROUND, left.a_coef, right.a_coef, coup.p_cap)
    root_p = math.sqrt(p_small)
    a_sym = 0.5 * (left.a_coef + right.a_coef)
    delta_e = (2.0 * a_sym * reduced_params.k_0 / math.pi**2) * root_p
    if delta_e == 0.0:
        # Every response formula is in units of delta_e; refused before the
        # trust check, which divides by b, itself 0 when p is.
        raise AssumptionViolated(
            f"the half-splitting delta_e underflowed to 0: p = P e^(-2 r0) = {p_small!r} "
            f"at r0 = {r0!r}; the barrier is too opaque for the perturbation formulas"
        )
    _check_trust(root_p / left.b_coef, root_p / right.b_coef)
    e_bar = 0.5 * (
        spec.v_m2
        + reduced_params.k_m2 * left.y_cap**2
        + spec.v_2
        + reduced_params.k_2 * right.y_cap**2
    )
    min_depth = min(
        reduced_params.w_m3, reduced_params.w_m1, reduced_params.w_1, reduced_params.w_3
    )
    return SymmetricBase(a_sym, e_bar, delta_e, f_coef, g_coef, p_small, (left, right), min_depth)


def _require_small(delta_v: float, min_depth: float) -> None:
    if not abs(delta_v) < 0.01 * min_depth:  # NaN fails too
        raise PerturbationTooLarge(
            f"|delta_v| = {abs(delta_v)!r} is not small against the potential "
            f"steps (smallest step {min_depth!r}); first-order response requires "
            "|delta_v| < 0.01 * min(W)"
        )


def _well_shifts(
    well: IsolatedWellSolution, w_inner: float, w_outer: float, sign: float, delta_v: float
) -> tuple[float, float, float, float, float, float]:
    """``(alpha_outer, alpha_inner, y, s_outer, s_inner, a)`` shifts of one
    well whose floor moves by ``sign * delta_v`` (sign +1.0 raises it)."""
    scale = -sign * (well.u_cap / (2.0 * math.pi))
    pi_y = math.pi * well.y_cap
    return (
        sign * delta_v / (2.0 * w_outer),
        sign * delta_v / (2.0 * w_inner),
        scale * (well.t_inner / w_inner + well.t_outer / w_outer) * delta_v,
        scale * (well.t_inner / w_inner - (well.t_inner + pi_y) / w_outer) * delta_v,
        scale * (well.t_outer / w_outer - (well.t_outer + pi_y) / w_inner) * delta_v,
        scale
        * (
            (well.s_inner * well.c_inner + well.t_outer + pi_y) / (well.c_inner**2 * w_inner)
            - well.t_inner**2 * well.t_outer / w_outer
        )
        * delta_v,
    )


def delta_ledger(
    base: SymmetricBase, reduced: ReducedParams, delta_v: float
) -> DeltaLedger:
    """All twelve first-order relative shifts for the perturbation delta_v.

    Each entry is delta_X / X (the ``a`` entries delta_a / a_sym).  Signs
    follow from raising the left floor (which shrinks the left well's
    steps) and lowering the right floor (which deepens the right well's).
    """
    _require_small(delta_v, base.min_depth)
    left, right = base.wells
    alpha_m3, alpha_m1, y_m2, s_m3, s_m1, a_m1 = _well_shifts(
        left, reduced.w_m1, reduced.w_m3, 1.0, delta_v
    )
    alpha_3, alpha_1, y_2, s_3, s_1, a_1 = _well_shifts(
        right, reduced.w_1, reduced.w_3, -1.0, delta_v
    )
    return DeltaLedger(
        alpha_m3, alpha_m1, alpha_1, alpha_3, y_m2, y_2, s_m3, s_m1, s_1, s_3, a_m1, a_1
    )


def perturbed_levels(base: SymmetricBase, delta_v: float) -> PerturbedLevels:
    """Levels, decoupled energies, and localization ratio at delta_v."""
    _require_small(delta_v, base.min_depth)
    v = delta_v / base.delta_e
    z = base.g_coef * v
    sq = math.hypot(1.0, z)
    drift = base.f_coef * v
    # (sq - z)(sq + z) = 1 exactly, so the ratio has the stable square form.
    ratio = (sq + z) ** 2 if z >= 0.0 else 1.0 / (sq - z) ** 2
    e_bar, delta_e = base.e_bar, base.delta_e
    e_left = e_bar + delta_e * (drift + z)
    e_right = e_bar + delta_e * (drift - z)
    e0 = e_bar + delta_e * (drift - sq)
    e1 = e_bar + delta_e * (drift + sq)
    return PerturbedLevels(v, delta_v, e_left, e_right, e0, e1, z, ratio)


def invert_ratio(base: SymmetricBase, prob_ratio: float) -> float:
    """The delta_v that produces a given ground-state P_R / P_L.

    Inverts the ratio formula: delta_v = (delta_e / 2G) (sqrt(ratio) -
    1/sqrt(ratio)).
    """
    if not prob_ratio > 0.0:
        raise DomainError(f"prob_ratio must be > 0, got {prob_ratio!r}")
    root = math.sqrt(prob_ratio)
    return (base.delta_e / (2.0 * base.g_coef)) * (root - 1.0 / root)


def two_level_check(base: SymmetricBase, delta_v: float) -> tuple[float, float]:
    """Residuals of the closed-form levels in the two-state matrix.

    Builds H = [[E_L, -delta_e], [-delta_e, E_R]], applies it to the
    localization eigenvectors (sqrt(P_L), sqrt(P_R)) and
    (-sqrt(P_R), sqrt(P_L)), and returns the two relative residual norms
    ||H psi - E psi|| / |E| against the closed-form e0, e1.
    """
    levels = perturbed_levels(base, delta_v)
    p_left, p_right = _probability_split(levels.z_asym)
    cos_half = math.sqrt(p_left)
    sin_half = math.sqrt(p_right)
    e_left, e_right, delta_e = levels.e_left, levels.e_right, base.delta_e
    e0, e1 = levels.e0, levels.e1
    # Each component is (H psi)_i - E psi_i, summed left to right.
    ground = math.hypot(
        e_left * cos_half - delta_e * sin_half - e0 * cos_half,
        -delta_e * cos_half + e_right * sin_half - e0 * sin_half,
    )
    excited = math.hypot(
        e_left * -sin_half - delta_e * cos_half - e1 * -sin_half,
        -delta_e * -sin_half + e_right * cos_half - e1 * cos_half,
    )
    return ground / abs(e0), excited / abs(e1)
