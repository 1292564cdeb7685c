"""Independent reference implementations used to validate the package.

Everything here deliberately uses different algorithms from the library
(bisection instead of Newton, damped relaxation instead of direct
fixed-point evaluation, arbitrary-precision propagation instead of
float64, closed forms instead of pipelines), so agreement between the
two is meaningful evidence of correctness rather than a tautology.
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
        mass, hbar = mp.mpf(spec.mass), mp.mpf(spec.hbar)
        walls = [mp.mpf(v) for v in (spec.v_m4, spec.v_m2, spec.v_0, spec.v_2, spec.v_4)]
        widths = [mp.mpf(w) for w in (spec.w_m2, spec.w_0, spec.w_2)]

        def propagate(e: mp.mpf) -> tuple[int, mp.mpf]:
            kap_m4, k_m2, kap_0, k_2, kap_4 = (
                mp.sqrt(2 * mass * abs(e - v)) / hbar for v in walls
            )
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
            if propagate(lo)[0] < n:
                lo = bisect(lo, hi, lambda e: propagate(e)[0] >= n)[1]
            if propagate(hi)[0] > n:
                hi = bisect(lo, hi, lambda e: propagate(e)[0] > n)[0]
            below, above = bisect(lo, hi, lambda e: propagate(e)[1] < 0)
            levels.append(float((below + above) / 2))
        return levels[0], levels[1]
