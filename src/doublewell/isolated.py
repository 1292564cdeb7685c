"""Single finite well between two high walls: the phase equation.

With Y the well phase in units of pi, a bound level of one well satisfies

    arcsin(alpha_inner Y) + arcsin(alpha_outer Y) + pi Y = pi.        (*)

``solve_y`` finds Y by a damped Newton iteration, ``series_y`` evaluates a
closed-form expansion in the small parameters gamma, and ``derive_well``
converts Y into the derived constants used by the coupled problem:

    S = alpha Y (per edge),  Phi = arcsin S,  C = sqrt(1 - S^2),
    T = S / C,               U = pi / (T_outer + T_inner + pi Y),
    a = pi C_inner / beta,   b = pi S_inner T_inner / beta,
    c = (2/pi) S_inner C_inner U.

``a`` and ``b`` control the barrier fixed point r0 = mean(a) + O(e^-2r),
``c`` the size of the first-order level shift, and the product

    P = b_left b_right c_left c_right

is the squared coupling strength of the two wells through the barrier.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .errors import DomainError, NoConvergence, SeriesUnreliable
from .params import ReducedParams, bound_state_exists

__all__ = [
    "IsolatedWellSolution",
    "BarrierCoupling",
    "newton_initial",
    "newton_step",
    "solve_y",
    "series_y",
    "derive_well",
    "coupling",
    "solve_wells",
]

#: Relative step tolerance of the phase Newton solve and the barrier fixed point.
TOL = 1e-13
#: Newton step limit of ``solve_y``.
MAX_ITER_Y = 50


@dataclass(slots=True)
class IsolatedWellSolution:
    """Converged phase and derived constants of one well in isolation."""

    y_cap: float
    s_outer: float
    s_inner: float
    phi_outer: float
    phi_inner: float
    c_inner: float
    t_outer: float
    t_inner: float
    u_cap: float
    a_coef: float
    b_coef: float
    c_coef: float


@dataclass(slots=True)
class BarrierCoupling:
    """Squared through-barrier coupling P of two isolated wells."""

    p_cap: float


def newton_initial(alpha_inner: float, alpha_outer: float) -> float:
    """Starting guess for the Newton iteration on the phase equation.

    Uses the leading series estimate

        Y ~ [pi / (pi + a_i + a_o)] * [1 - (g_i^3 + g_o^3) / (6 pi)]

    with g = pi a / (pi + a_i + a_o) per edge, and falls back to just below
    min(1, 1/alpha_max) whenever that estimate leaves the admissible
    interval (both arcsine arguments must stay <= 1 and Y <= 1).
    """
    denom = math.pi + alpha_inner + alpha_outer
    gamma_inner, gamma_outer = math.pi * alpha_inner / denom, math.pi * alpha_outer / denom
    estimate = (math.pi / denom) * (
        1.0 - (gamma_inner**3 + gamma_outer**3) / (6.0 * math.pi)
    )
    hi = max(alpha_inner, alpha_outer)
    if estimate > 0.0 and estimate * hi < 1.0 and estimate <= 1.0:
        return estimate
    return min(1.0, 1.0 / hi) * (1.0 - 1e-9)


def newton_step(y: float, alpha_inner: float, alpha_outer: float) -> float:
    """One Newton update for the phase equation residual

        f(Y) = arcsin(a_i Y) + arcsin(a_o Y) + pi Y - pi.

    Rearranged so the update is evaluated as a single quotient:

        Y' = [pi + T_i + T_o - arcsin(a_i Y) - arcsin(a_o Y)]
             / [pi + a_i / C_i + a_o / C_o]

    with S = a Y, C = sqrt(1 - S^2), T = S / C at the current Y.
    """
    s_i = alpha_inner * y
    s_o = alpha_outer * y
    if s_i >= 1.0 or s_o >= 1.0 or y < 0.0:
        raise DomainError(f"phase out of domain: y={y!r}, arguments {s_i!r}, {s_o!r}")
    c_i = math.sqrt(1.0 - s_i * s_i)
    c_o = math.sqrt(1.0 - s_o * s_o)
    numer = math.pi + s_i / c_i + s_o / c_o - math.asin(s_i) - math.asin(s_o)
    denom = math.pi + alpha_inner / c_i + alpha_outer / c_o
    return numer / denom


def solve_y(alpha_inner: float, alpha_outer: float) -> float:
    """Solve the phase equation for Y in (0, min(1, 1/alpha_max)].

    Newton steps that overshoot the admissible interval are pulled back by
    interval halving (towards the upper end for overshoots above, towards
    zero for overshoots below).  Raises :class:`NoConvergence` carrying the
    last iterate when ``MAX_ITER_Y`` steps do not settle to ``TOL`` or when
    the converged point does not actually satisfy the equation (which
    happens when no bound state exists for these alphas).
    """
    if alpha_inner == 0.0 and alpha_outer == 0.0:
        return 1.0
    hi = max(alpha_inner, alpha_outer)
    upper = min(1.0, 1.0 / hi) if hi > 0.0 else 1.0
    y = newton_initial(alpha_inner, alpha_outer)
    last_residual = math.inf
    for _iteration in range(MAX_ITER_Y):
        y_next = newton_step(y, alpha_inner, alpha_outer)
        if y_next >= upper:
            y_next = 0.5 * (y + upper)
        elif y_next <= 0.0:
            y_next = 0.5 * y
        done = abs(y_next - y) <= TOL * max(1.0, abs(y_next))
        y = y_next
        if done:
            last_residual = (
                math.asin(min(1.0, alpha_inner * y))
                + math.asin(min(1.0, alpha_outer * y))
                + math.pi * y
                - math.pi
            )
            if abs(last_residual) <= 10.0 * TOL * math.pi:
                return y
            break
    raise NoConvergence(
        "phase equation did not converge (no bound state for these alphas?)",
        last_iterate=y,
        residual=last_residual,
    )


def series_y(alpha_inner: float, alpha_outer: float) -> float:
    """Closed-form series solution of the phase equation.

    Expansion in the per-edge parameters gamma = pi alpha / (pi + a_i +
    a_o) through tenth order; with c_n = gamma_inner^n + gamma_outer^n,

        Y = pi/(pi+a_i+a_o) * [ 1 - c3/(6 pi) - 3 c5/(40 pi)
            + c3^2/(12 pi^2) - 5 c7/(112 pi) + c3 c5/(10 pi^2)
            - 35 c9/(1152 pi) - c3^3/(18 pi^3) + 25 c3 c7/(336 pi^2)
            + 9 c5^2/(320 pi^2) ].

    Emits a :class:`SeriesUnreliable` warning (and still returns the value)
    when max(gamma) exceeds 0.9, where truncation error is no longer small.
    """
    pi = math.pi
    denom = pi + alpha_inner + alpha_outer
    gamma_inner, gamma_outer = pi * alpha_inner / denom, pi * alpha_outer / denom
    if max(gamma_inner, gamma_outer) > 0.9:
        warnings.warn(
            f"series expansion parameter {max(gamma_inner, gamma_outer)!r} exceeds 0.9; "
            "the truncated series is unreliable here",
            SeriesUnreliable,
            stacklevel=2,
        )
    c3 = gamma_inner**3 + gamma_outer**3
    c5 = gamma_inner**5 + gamma_outer**5
    c7 = gamma_inner**7 + gamma_outer**7
    c9 = gamma_inner**9 + gamma_outer**9
    bracket = (
        1.0
        - c3 / (6.0 * pi)
        - 3.0 * c5 / (40.0 * pi)
        + c3 * c3 / (12.0 * pi * pi)
        - 5.0 * c7 / (112.0 * pi)
        + c3 * c5 / (10.0 * pi * pi)
        - 35.0 * c9 / (1152.0 * pi)
        - c3**3 / (18.0 * pi**3)
        + 25.0 * c3 * c7 / (336.0 * pi * pi)
        + 9.0 * c5 * c5 / (320.0 * pi * pi)
    )
    return (pi / denom) * bracket


def derive_well(
    y: float, alpha_inner: float, alpha_outer: float, beta: float
) -> IsolatedWellSolution:
    """Derived constants of one well at its converged phase Y."""
    s_inner = alpha_inner * y
    s_outer = alpha_outer * y
    if s_inner > 1.0 or s_outer > 1.0:
        raise DomainError(
            f"arcsine argument exceeds 1: inner {s_inner!r}, outer {s_outer!r}"
        )
    c_inner = math.sqrt(1.0 - s_inner * s_inner)
    c_outer = math.sqrt(1.0 - s_outer * s_outer)
    t_inner = s_inner / c_inner
    t_outer = s_outer / c_outer
    u_cap = math.pi / (t_outer + t_inner + math.pi * y)
    a_coef = math.pi * c_inner / beta
    b_coef = math.pi * s_inner * t_inner / beta
    c_coef = (2.0 / math.pi) * s_inner * c_inner * u_cap
    return IsolatedWellSolution(
        y, s_outer, s_inner, math.asin(s_outer), math.asin(s_inner), c_inner,
        t_outer, t_inner, u_cap, a_coef, b_coef, c_coef,
    )


def coupling(left: IsolatedWellSolution, right: IsolatedWellSolution) -> BarrierCoupling:
    """Through-barrier coupling P = b_left b_right c_left c_right."""
    return BarrierCoupling(left.b_coef * right.b_coef * left.c_coef * right.c_coef)


def solve_wells(reduced: ReducedParams) -> tuple[IsolatedWellSolution, IsolatedWellSolution]:
    """Solve both wells of a reduced spec in isolation; :class:`DomainError`
    names the first well, left before right, that binds no level.

    A mirror-image right well (the same alphas as the left) reuses the
    left phase Y, the same root ``solve_y`` would return, instead of
    solving it again; each well still gets its own record."""
    alpha_m1, alpha_m3 = reduced.alpha_m1, reduced.alpha_m3
    alpha_1, alpha_3 = reduced.alpha_1, reduced.alpha_3
    for side, inner, outer in (("left", alpha_m1, alpha_m3), ("right", alpha_1, alpha_3)):
        if not bound_state_exists(inner, outer):
            raise DomainError(
                f"{side} well supports no bound level "
                f"(alpha_inner={inner!r}, alpha_outer={outer!r})"
            )
    y_left = solve_y(alpha_m1, alpha_m3)
    mirror = alpha_1 == alpha_m1 and alpha_3 == alpha_m3
    y_right = y_left if mirror else solve_y(alpha_1, alpha_3)
    left = derive_well(y_left, alpha_m1, alpha_m3, reduced.beta_m1)
    right = derive_well(y_right, alpha_1, alpha_3, reduced.beta_1)
    return left, right
