"""Two wells coupled through the barrier: fixed points, energies, splitting.

With a_left, a_right the wells' barrier coefficients and
P the coupling from :mod:`doublewell.isolated`, the node/extremum position
of the symmetric (ground) combination inside the barrier satisfies

    r0 = (a_left + a_right)/2 + sqrt(((a_right - a_left)/2)^2 + P e^{-2 r0})

and the antisymmetric (excited) combination the same with a minus sign in
front of the square root.  The code carries that sign as s = +1 (ground)
or -1 (excited) and evaluates each excited formula as the ground one at
-(a_right - a_left).  Writing p = P e^{-2 r0}, the per-well phase
corrections are epsilon = s (r0 - a)/b per side, which shift each well's
phase Y -> Y (1 - s epsilon) and hence its energy estimate
V_well + K_well [Y (1 - s epsilon)]^2.

The asymmetry variable z = (a_right - a_left) / (2 sqrt(p)) controls the
left/right localization probabilities

    P_left = (sqrt(1+z^2) - s z) / (2 sqrt(1+z^2)),   P_right = 1 - P_left.
"""

from __future__ import annotations

import math

from .errors import AssumptionViolated, DomainError, ExcitedBelowZero, NoConvergence
from .isolated import TOL, BarrierCoupling, IsolatedWellSolution, coupling, solve_wells
from .params import _EXCITED, _GROUND, Parity, ReducedParams, WellSpec, record, reduce

#: Step limit of ``solve_r0``.
MAX_ITER_R = 100


@record
class CoupledSolution:
    """One coupled level: fixed point, phase corrections, energy, localization."""

    parity: Parity
    r0: float
    p_small: float
    eps_left: float
    eps_right: float
    y_left: float
    y_right: float
    r_left: float
    r_right: float
    energy_left_estimate: float
    energy_right_estimate: float
    energy: float
    z_asym: float
    r_asym: float
    prob_left: float
    prob_right: float


@record
class SplittingResult:
    """Mean energy and half-splitting of the two coupled levels."""

    e_bar: float
    delta_e: float
    e0: float
    e1: float


@record
class DoubleWellResult:
    """Full approximation pipeline output for one spec."""

    spec: WellSpec
    reduced: ReducedParams
    left: IsolatedWellSolution
    right: IsolatedWellSolution
    coupling: BarrierCoupling
    ground: CoupledSolution
    excited: CoupledSolution
    splitting: SplittingResult


def solve_r0(parity: Parity, a_left: float, a_right: float, p_cap: float) -> tuple[float, float]:
    """Solve the barrier fixed point; returns ``(r0, p_small)``.

    The iteration map is a strong contraction (its derivative is of order
    p itself), so convergence to the relative step ``isolated.TOL`` from
    the start value max(a) (ground) or min(a) (excited) takes only a few
    steps.  The returned pair is finalized as p = P e^{-2 r_last},
    r0 = mean + sqrt(diff^2 + p), making the fixed-point residual evaluate
    to exactly zero in floating point.
    The parity is read once, as its sign, which the loop tests.
    Raises :class:`DomainError` unless a_left, a_right and p_cap are >= 0
    and finite, :class:`ExcitedBelowZero` when the antisymmetric fixed
    point collapses to r0 <= 0, and :class:`NoConvergence` when
    ``MAX_ITER_R`` steps do not settle.
    """
    if not (0.0 <= a_left < math.inf and 0.0 <= a_right < math.inf and 0.0 <= p_cap < math.inf):
        raise DomainError(
            f"a_left, a_right, p_cap must be >= 0 and finite: {a_left!r} {a_right!r} {p_cap!r}"
        )
    mean = 0.5 * (a_left + a_right)
    diff = 0.5 * (a_right - a_left)
    if parity == _GROUND:
        sign, r = 1.0, max(a_left, a_right)
    else:
        sign, r = -1.0, min(a_left, a_right)
        if r <= 0.0:
            raise ExcitedBelowZero(f"antisymmetric fixed point start {r!r} <= 0")
    r_next = r
    for _ in range(MAX_ITER_R):
        r = r_next
        p = p_cap * math.exp(-2.0 * r)
        r_next = mean + sign * math.sqrt(diff * diff + p)
        if sign < 0.0 and r_next <= 0.0:
            raise ExcitedBelowZero(
                f"antisymmetric fixed point fell to {r_next!r} <= 0: "
                "barrier too weak for a distinct upper level"
            )
        if abs(r_next - r) <= TOL * max(1.0, abs(r_next)):
            p = p_cap * math.exp(-2.0 * r_next)
            return mean + sign * math.sqrt(diff * diff + p), p
    raise NoConvergence(
        "barrier fixed point did not converge", last_iterate=r_next, residual=abs(r_next - r)
    )


def _stable_gaps(d: float, p: float) -> tuple[float, float]:
    """Ground-state distances r0 - a_left and r0 - a_right, cancellation-free.

    They are h + d and h - d with h = sqrt(d^2 + p), d = (a_right - a_left)/2;
    whichever suffers cancellation is replaced by p / (other), exact as
    (h + d)(h - d) = p.  The excited gaps a - r0 are these at -d.
    """
    h = math.sqrt(d * d + p)
    gap_left = h + d if d >= 0.0 else p / (h - d)
    gap_right = h - d if d <= 0.0 else p / (h + d)
    return gap_left, gap_right


def _probability_split(z: float) -> tuple[float, float]:
    """(P_left, P_right) for asymmetry z, computed complement-stably.

    The smaller share is evaluated as 1 / (2 sq (sq + |z|)) with
    sq = sqrt(1 + z^2), which is the cancellation-free rewriting of
    (sq - |z|) / (2 sq); the larger share is its exact complement.
    """
    sq = math.hypot(1.0, z)
    if z >= 0.0:
        small = 1.0 / (2.0 * sq * (sq + z))
        return small, 1.0 - small
    small = 1.0 / (2.0 * sq * (sq - z))
    return 1.0 - small, small


def _check_trust(eps_left: float, eps_right: float) -> None:
    """Raise :class:`AssumptionViolated` when either phase correction
    exceeds 0.1, the trust boundary of the first-order expansion."""
    if max(eps_left, eps_right) > 0.1:
        raise AssumptionViolated(
            f"phase correction too large: eps_left={eps_left!r}, eps_right={eps_right!r} "
            "(> 0.1); the barrier is too thin or the wells too detuned for the "
            "first-order approximation"
        )


def correct_energy(
    parity: Parity,
    left_well: IsolatedWellSolution,
    right_well: IsolatedWellSolution,
    r0: float,
    p_small: float,
    reduced: ReducedParams,
    spec: WellSpec,
) -> CoupledSolution:
    """First-order phase corrections and the coupled level's energy.

    The level enters only as its sign s (+1 ground, -1 excited), which
    turns each ground formula into the excited one at -d.  Raises
    :class:`AssumptionViolated` when either epsilon exceeds 0.1.
    """
    s = 1.0 if parity == _GROUND else -1.0
    d = 0.5 * (right_well.a_coef - left_well.a_coef)
    gap_left, gap_right = _stable_gaps(s * d, p_small)
    eps_left = gap_left / left_well.b_coef
    eps_right = gap_right / right_well.b_coef
    _check_trust(eps_left, eps_right)
    y_left = left_well.y_cap * (1.0 - s * eps_left)
    y_right = right_well.y_cap * (1.0 - s * eps_right)
    energy_left = spec.v_m2 + reduced.k_m2 * y_left * y_left
    energy_right = spec.v_2 + reduced.k_2 * y_right * y_right
    energy = 0.5 * (energy_left + energy_right)

    # Per-side barrier depths r_side from eps = c e^{-2 r_side}; an exactly
    # vanishing eps (possible only with p = 0) defaults to the complement,
    # or to r0/2 in the fully degenerate case.
    r_left = -0.5 * math.log(eps_left / left_well.c_coef) if eps_left > 0.0 else None
    r_right = -0.5 * math.log(eps_right / right_well.c_coef) if eps_right > 0.0 else None
    if r_left is None and r_right is None:
        r_left = r_right = 0.5 * r0
    elif r_left is None:
        r_left = r0 - r_right
    elif r_right is None:
        r_right = r0 - r_left

    if p_small > 0.0:
        z = d / math.sqrt(p_small)
    else:
        z = 0.0 if d == 0.0 else math.copysign(math.inf, d)
    prob_left, prob_right = _probability_split(s * z)
    # Positional, in field order: keywords cost a dict per call.
    return CoupledSolution(
        parity, r0, p_small, eps_left, eps_right, y_left, y_right, r_left, r_right,
        energy_left, energy_right, energy, z, math.asinh(z), prob_left, prob_right,
    )


def splitting(ground: CoupledSolution, excited: CoupledSolution) -> SplittingResult:
    """Mean energy and half-splitting of the two coupled levels."""
    e0 = ground.energy
    e1 = excited.energy
    return SplittingResult(0.5 * (e0 + e1), 0.5 * (e1 - e0), e0, e1)


def coefficient_ratio(
    solution: CoupledSolution,
    left_well: IsolatedWellSolution,
    right_well: IsolatedWellSolution,
) -> float:
    """Squared left/right well amplitude ratio (A_left / A_right)^2.

    The ratio factorizes into a well-shape prefactor and a detuning
    bracket (R - s dA) / (R + s dA), with dA = a_right - a_left,
    R = sqrt(dA^2 + 4p) and s the level's sign.  As (R - dA)(R + dA) = 4p,
    it is 4p / big when dA >= 0 matches the ground level and big / (4p)
    otherwise, with the cancellation-free big = (R + |dA|)^2.  The excited
    bracket uses that state's own p_small.
    """
    d_a = right_well.a_coef - left_well.a_coef
    p = solution.p_small
    ground = solution.parity == _GROUND
    prefactor = (
        right_well.s_inner**2 * left_well.b_coef * left_well.c_coef
    ) / (left_well.s_inner**2 * right_well.b_coef * right_well.c_coef)
    if p == 0.0:
        if d_a == 0.0:
            return prefactor
        return 0.0 if (d_a > 0.0) == ground else math.inf
    r_cap = math.hypot(d_a, 2.0 * math.sqrt(p))
    big = (d_a + r_cap) ** 2 if d_a >= 0.0 else (r_cap - d_a) ** 2
    return prefactor * (4.0 * p / big if (d_a >= 0.0) == ground else big / (4.0 * p))


def solve_double_well(spec: WellSpec) -> DoubleWellResult:
    """Full approximation pipeline: reduce, solve wells, couple, split.

    Raises :class:`AssumptionViolated` when the coupling P underflows to 0,
    which would leave the two levels silently degenerate."""
    reduced_params = reduce(spec)
    left, right = solve_wells(reduced_params)
    coup = coupling(left, right)
    if coup.p_cap == 0.0:
        raise AssumptionViolated(
            f"the coupling P = b_left b_right c_left c_right underflowed to 0 "
            f"(b = {left.b_coef!r}, {right.b_coef!r}; c = {left.c_coef!r}, {right.c_coef!r}); "
            "the splitting cannot be resolved in float64"
        )
    r0, p_small = solve_r0(_GROUND, left.a_coef, right.a_coef, coup.p_cap)
    ground = correct_energy(_GROUND, left, right, r0, p_small, reduced_params, spec)
    r0, p_small = solve_r0(_EXCITED, left.a_coef, right.a_coef, coup.p_cap)
    excited = correct_energy(_EXCITED, left, right, r0, p_small, reduced_params, spec)
    return DoubleWellResult(
        spec, reduced_params, left, right, coup, ground, excited, splitting(ground, excited)
    )
