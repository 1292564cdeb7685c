"""Independent reference implementations used to validate the package.

Everything here deliberately uses different algorithms from the library
(bisection instead of Newton, damped relaxation instead of direct
fixed-point evaluation, arbitrary-precision propagation instead of
float64, closed forms instead of pipelines), so agreement between the
two is meaningful evidence of correctness rather than a tautology.

The exceptions are the table-driven kernels at the end
(:func:`ref_shoot`, :func:`ref_boundary_pairs`, :func:`ref_probabilities`,
:func:`ref_field`): a per-region table dispatch that does the library's
floating-point operations in the same order, so that the library's
straight-line kernels and chunked grid fill can be held to its bits, and :func:`ref_two_level_check`, the loop over
the two eigenvectors that ``perturb.two_level_check`` writes out.
"""

from __future__ import annotations

import math

import mpmath as mp

# Exact eigenvalues of the standard example layout (hbar=1, mass=2, unit
# outer walls and barrier, wells at zero, widths 2*pi/3 / 10*pi/3 / 2*pi/3),
# frozen from a 40-digit run with the widths in closed form, and re-checked
# by the tests against mp_levels(EXAMPLE_SPEC) below.
EXAMPLE_E0_EXACT = 0.24999999823189692
EXAMPLE_E1_EXACT = 0.25000000176810315


def bisect_phase_root(alpha_inner: float, alpha_outer: float, iters: int = 200) -> float:
    """Solve asin(ai*y) + asin(ao*y) + pi*y = pi by pure bisection."""

    def residual(y: float) -> float:
        return (
            math.asin(min(1.0, alpha_inner * y))
            + math.asin(min(1.0, alpha_outer * y))
            + math.pi * y
            - math.pi
        )

    top = max(alpha_inner, alpha_outer)
    hi = 1.0 if top <= 1.0 else 1.0 / top
    if residual(hi) < 0.0:
        raise ValueError("no root in (0, hi]: the well binds no level")
    lo = 0.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if residual(mid) >= 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def damped_fixed_point(
    a_left: float, a_right: float, p_cap: float, sign: float, iters: int = 400
) -> float:
    """Relax r = mean(a) + sign*sqrt(d^2 + P e^{-2r}) with under-relaxation."""
    mean = 0.5 * (a_left + a_right)
    diff = 0.5 * (a_right - a_left)
    r = max(a_left, a_right) if sign > 0 else min(a_left, a_right)
    for _ in range(iters):
        target = mean + sign * math.sqrt(diff * diff + p_cap * math.exp(-2.0 * r))
        r = 0.5 * (r + target)
    return r


def eig_sym_2x2(h11: float, h12: float, h22: float) -> tuple[float, float]:
    """Eigenvalues (ascending) of [[h11, h12], [h12, h22]], closed form."""
    mean = 0.5 * (h11 + h22)
    rad = math.hypot(0.5 * (h11 - h22), h12)
    return mean - rad, mean + rad


def central_difference(f, x: float, h: float) -> float:
    return (f(x + h) - f(x - h)) / (2.0 * h)


def example_constants() -> dict[str, float]:
    """Closed forms for the standard example layout, at 40 digits.

    With alpha = 3/4, beta = 3/20 the phase root is exactly Y = 2/3, so
    every derived constant collapses to a surd in pi and sqrt(3).
    """
    with mp.workdps(40):
        pi = mp.pi
        s3 = mp.sqrt(3)
        a = 10 * pi / s3
        b = 10 * pi / (3 * s3)
        u = 3 * pi / (2 * pi + 2 * s3)
        c = 3 * s3 / (4 * (pi + s3))
        return {
            "y": float(mp.mpf(2) / 3),
            "s": 0.5,
            "u": float(u),
            "a": float(a),
            "b": float(b),
            "c": float(c),
            "p": float((b * c) ** 2),
            "gamma": float(3 * pi / (4 * pi + 6)),
            "g": float((4 * pi + 3 * s3) / (4 * pi + 4 * s3)),
        }


def _mp_propagate(spec, e: mp.mpf) -> tuple[int, mp.mpf]:
    """Interior nodes of the decaying left solution u at energy ``e`` and
    its right-wall mismatch u'/(u kappa_4) + 1, in the current mpmath
    precision: across the five regions, counting the nodes region by
    region."""
    mass, hbar = mp.mpf(spec.mass), mp.mpf(spec.hbar)
    walls = [mp.mpf(v) for v in (spec.v_m4, spec.v_m2, spec.v_0, spec.v_2, spec.v_4)]
    widths = [mp.mpf(w) for w in (spec.w_m2, spec.w_0, spec.w_2)]
    kap_m4, k_m2, kap_0, k_2, kap_4 = (mp.sqrt(2 * mass * abs(e - v)) / hbar for v in walls)
    u, up, nodes = mp.mpf(1), kap_m4, 0
    for k, w, well in ((k_m2, widths[0], True), (kap_0, widths[1], False),
                       (k_2, widths[2], True)):
        c, d = u, up / k
        if well:  # u = c cos(kt) + d sin(kt) = r sin(kt + phi)
            phi = mp.atan2(c, d)
            nodes += int(mp.floor((k * w + phi) / mp.pi) - mp.floor(phi / mp.pi))
            u = c * mp.cos(k * w) + d * mp.sin(k * w)
            up = k * (-c * mp.sin(k * w) + d * mp.cos(k * w))
        else:  # u = c cosh(kt) + d sinh(kt)
            nodes += int(d != 0 and 0 < -c / d < mp.tanh(k * w))
            u = c * mp.cosh(k * w) + d * mp.sinh(k * w)
            up = k * (c * mp.sinh(k * w) + d * mp.cosh(k * w))
    return nodes, up / (u * kap_4) + 1 if u else mp.sign(up) * mp.inf


def mp_shoot(spec, energy: float, dps: int = 40) -> tuple[int, float]:
    """``(nodes, mismatch)`` of one arbitrary-precision shot at ``energy``
    (see :func:`mp_levels`); within a level's node window the mismatch is
    positive below the level and negative above it.  ``dps`` obeys the
    same opacity bound as in :func:`mp_levels`."""
    with mp.workdps(dps):
        nodes, mismatch = _mp_propagate(spec, mp.mpf(energy))
        return nodes, float(mismatch)


def mp_levels(spec, dps: int = 40) -> tuple[float, float]:
    """Exact two lowest eigenvalues of any spec via mpmath.

    Propagates the decaying left solution (u, u') across the five regions
    in arbitrary precision, counting the interior nodes of u region by
    region, and bisects three things between the band ends: the energies
    where the node count passes the level's (the poles of the right-wall
    mismatch u'/(u kappa_4) + 1), and inside that node window the sign of
    the mismatch, which falls from +inf to -inf through the level.
    ``dps`` must exceed 2 a / ln 10 + 15 at barrier opacity a = kappa_0 w_0,
    so that the decaying barrier solution survives beside the growing one.
    """
    with mp.workdps(dps):
        walls = [mp.mpf(v) for v in (spec.v_m4, spec.v_m2, spec.v_0, spec.v_2, spec.v_4)]

        def bisect(lo: mp.mpf, hi: mp.mpf, upper) -> tuple[mp.mpf, mp.mpf]:
            for _ in range(int(3.4 * dps) + 20):
                mid = (lo + hi) / 2
                lo, hi = (lo, mid) if upper(mid) else (mid, hi)
            return lo, hi

        floor, top = max(walls[1], walls[3]), min(walls[0], walls[2], walls[4])
        inset = (top - floor) / 10**12
        bottom, top = floor + inset, top - inset
        levels = []
        for n in (0, 1):
            lo, hi = bottom, top
            if _mp_propagate(spec, lo)[0] < n:
                lo = bisect(lo, hi, lambda e: _mp_propagate(spec, e)[0] >= n)[1]
            if _mp_propagate(spec, hi)[0] > n:
                hi = bisect(lo, hi, lambda e: _mp_propagate(spec, e)[0] > n)[0]
            below, above = bisect(lo, hi, lambda e: _mp_propagate(spec, e)[1] < 0)
            levels.append(float((below + above) / 2))
        return levels[0], levels[1]


# Table-driven kernels: each region is one (kind, amp, rate, origin) piece,
# psi = amp f(rate (x - origin)) with slope (sign amp) rate g(...), looked up
# per kind.  Its mass over [a, b] is amp^2 [s (b - a)/2 + (h(2 rate (b -
# origin)) - h(2 rate (a - origin))) / (4 rate)], or amp^2 / (2 |rate|) over
# a whole exp tail.
_REF_KINDS = {
    "exp": (math.exp, math.exp, 1.0, None),
    "cos": (math.cos, math.sin, -1.0, (1.0, math.sin)),
    "cosh": (math.cosh, math.sinh, 1.0, (1.0, math.sinh)),
    "sinh": (math.sinh, math.cosh, 1.0, (-1.0, math.sinh)),
}


def _ref_pieces(model):
    """``(edges, pieces)`` of a model, the excited sign folded into the
    two left amplitudes; a boundary belongs to the region on its right."""
    excited = model.parity.value == "excited"
    sign = -1.0 if excited else 1.0
    return (model.x_m3, model.x_m1, model.x_1, model.x_3), (
        ("exp", sign * model.amp_m4, model.kappa_m4, model.x_m3),
        ("cos", sign * model.amp_m2, model.k_m2, model.extremum_left),
        ("sinh" if excited else "cosh", model.amp_0, model.kappa_0, model.barrier_node),
        ("cos", model.amp_2, model.k_2, model.extremum_right),
        ("exp", model.amp_4, -model.kappa_4, model.x_3),
    )


def _ref_piece(piece, x: float) -> tuple[float, float]:
    kind, amp, rate, origin = piece
    f, g, sign, _ = _REF_KINDS[kind]
    t = (x - origin) * rate
    return amp * f(t), (sign * amp) * rate * g(t)


def _ref_mass(piece, a: float, b: float) -> float:
    kind, amp, rate, origin = piece
    wave = _REF_KINDS[kind][3]
    if wave is None:
        return amp**2 / (2.0 * abs(rate))
    s, h = wave
    return amp * amp * (
        s * 0.5 * (b - a)
        + (h(2.0 * rate * (b - origin)) - h(2.0 * rate * (a - origin))) / (4.0 * rate)
    )


def _ref_rescale(theta: float, radius: float, ratio: float) -> tuple[float, float]:
    s, c = math.sin(theta), math.cos(theta)
    return theta - math.atan2(s, c) + math.atan2(s, c * ratio), radius * math.hypot(s, c * ratio)


def ref_boundary_pairs(model):
    """(x, (value, slope) left of x, same right of x) at the four edges."""
    edges, pieces = _ref_pieces(model)
    return [
        (x, _ref_piece(left, x), _ref_piece(right, x))
        for x, left, right in zip(edges, pieces, pieces[1:])
    ]


def ref_probabilities(model) -> tuple[float, float]:
    """Masses left and right of ``barrier_node``, region by region."""
    edges, pieces = _ref_pieces(model)
    node = model.barrier_node
    left = right = 0.0
    for a, b, piece in zip((-math.inf, *edges), (*edges, math.inf), pieces):
        if a < node:
            left += _ref_mass(piece, a, min(b, node))
        if b > node:
            right += _ref_mass(piece, max(a, node), b)
    return left, right


def ref_field(model, xs, slope: bool):
    """psi, or dpsi/dx when ``slope``, at a float array of any shape: one
    boolean mask per region, each filled with the library's operations in
    its order.  A boundary belongs to the region on its right, and NaN and
    +inf fall in the last region."""
    import numpy as np

    edges, pieces = _ref_pieces(model)
    xs = np.asarray(xs, dtype=float)
    out = np.empty_like(xs)
    below = [xs < edge for edge in edges]
    masks = [below[0], *(right & ~left for left, right in zip(below, below[1:])), ~below[-1]]
    for mask, (kind, amp, rate, origin) in zip(masks, pieces):
        f, g, sign, _ = _REF_KINDS[kind]
        t = (xs[mask] - origin) * rate
        if slope:
            out[mask] = getattr(np, g.__name__)(t) * ((sign * amp) * rate)
        else:
            out[mask] = getattr(np, f.__name__)(t) * amp
    return out


def ref_shoot(spec, energy: float) -> tuple[float, float]:
    """``(phase, residual)`` of one float64 shot, rescaled region by region;
    raises ``ValueError`` where the phase leaves the float64 range and
    returns a non-finite residual where the amplitude does."""
    from doublewell.params import wavenumbers

    kappa_m4, k_m2, kappa_0, k_2, kappa_4 = wavenumbers(spec, energy)
    ratio = kappa_m4 / k_m2
    theta = math.atan2(1.0, ratio) + k_m2 * spec.w_m2
    theta, radius = _ref_rescale(theta, math.hypot(1.0, ratio), k_m2 / kappa_0)
    u, v = math.sin(theta), math.cos(theta)
    grow = 0.5 * (u + v)
    decay = 0.5 * (u - v) * math.exp(-2.0 * kappa_0 * spec.w_0)
    u, v = grow + decay, grow - decay
    theta += math.remainder(math.atan2(u, v) - theta, 2.0 * math.pi)
    theta, radius = _ref_rescale(theta, radius * math.hypot(u, v), kappa_0 / k_2)
    theta, radius = _ref_rescale(theta + k_2 * spec.w_2, radius, k_2 / kappa_4)
    u, v = radius * math.sin(theta), radius * math.cos(theta)
    return theta, kappa_4 * (v + u)


def ref_two_level_check(base, delta_v: float) -> tuple[float, float]:
    """Residuals of the closed-form levels in the two-state matrix, one
    eigenvector per loop pass."""
    from doublewell.perturb import perturbed_levels
    from doublewell.tunneling import _probability_split

    levels = perturbed_levels(base, delta_v)
    p_left, p_right = _probability_split(levels.z_asym)
    cos_half = math.sqrt(p_left)
    sin_half = math.sqrt(p_right)
    residuals = []
    for e_value, vec in (
        (levels.e0, (cos_half, sin_half)),
        (levels.e1, (-sin_half, cos_half)),
    ):
        h_vec = (
            levels.e_left * vec[0] - base.delta_e * vec[1],
            -base.delta_e * vec[0] + levels.e_right * vec[1],
        )
        residual = math.hypot(h_vec[0] - e_value * vec[0], h_vec[1] - e_value * vec[1])
        residuals.append(residual / abs(e_value))
    return residuals[0], residuals[1]
