"""Shared fixtures and spec generators.

The generators work backwards from target dimensionless parameters:
pick the arcsine coefficients (which fix the phase root and therefore
the in-well shape), then size the well width to realize them and the
barrier width to realize a target barrier opacity a ~= kappa_0 * w_0.
That keeps every generated spec inside the regime the closed-form
approximation is built for, with both wells bound and eps << 0.1.

For a shared barrier top, a well's barrier opacity and its isolated
level sit in exact correspondence (V_0 - E = (a * hbar)^2 / (2 m w_0^2)),
so tuning the right well's depth to match opacities up to a factor
(1 + eta)^2 detunes the levels by O(eta) in a controlled way.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import replace
from pathlib import Path

import doublewell
from doublewell import WellSpec, solve_y

EXAMPLE_SPEC = WellSpec(
    hbar=1.0,
    mass=2.0,
    v_m4=1.0,
    v_m2=0.0,
    v_0=1.0,
    v_2=0.0,
    v_4=1.0,
    w_m2=2.0 * math.pi / 3.0,
    w_0=10.0 * math.pi / 3.0,
    w_2=2.0 * math.pi / 3.0,
)


def child_env():
    """Environment whose PYTHONPATH finds the doublewell package imported here,
    so a child interpreter runs the same code without an install."""
    src = str(Path(doublewell.__file__).resolve().parents[1])
    rest = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + rest if rest else "")}


# Decimal exponent ranges of an extreme spec's nine scales (hbar and mass,
# the three widths, then the four potential steps), and the share of
# extreme specs whose right well mirrors the left.
EXTREME_EXPONENTS = ((-200.0, 200.0),) * 2 + ((-150.0, 150.0),) * 3 + ((-300.0, 308.0),) * 4
EXTREME_MIRROR_SHARE = 0.3


def extreme_fields(scales: tuple, mirror: bool) -> dict:
    """Spec fields from the nine scales of ``EXTREME_EXPONENTS`` and whether
    the right well mirrors the left; the left floor is 0."""
    hbar, mass, w_m2, w_0, w_2, w_m3, w_m1, w_1, w_3 = scales
    if mirror:
        v_2, v_4, w_2 = 0.0, w_m3, w_m2
    else:
        v_2 = w_m1 - w_1
        v_4 = v_2 + w_3
    return dict(
        hbar=hbar, mass=mass, v_m4=w_m3, v_m2=0.0, v_0=w_m1, v_2=v_2, v_4=v_4,
        w_m2=w_m2, w_0=w_0, w_2=w_2,
    )


def random_extreme_fields(rng: random.Random) -> dict:
    """``extreme_fields`` with every scale log-uniform in its range."""
    scales = tuple(10.0 ** rng.uniform(lo, hi) for lo, hi in EXTREME_EXPONENTS)
    return extreme_fields(scales, rng.random() < EXTREME_MIRROR_SHARE)


def _well_shape(alpha_inner: float, ratio_outer: float) -> tuple[float, float, float]:
    """Phase root and its cosine for arcsine coefficients (ai, ai/sqrt(ro))."""
    alpha_outer = alpha_inner / math.sqrt(ratio_outer)
    y = solve_y(alpha_inner, alpha_outer)
    c = math.sqrt(1.0 - (alpha_inner * y) ** 2)
    return alpha_outer, y, c


def symmetric_spec(
    *,
    a_target: float = 18.0,
    hbar: float = 1.0,
    mass: float = 1.0,
    v_well: float = 0.0,
    depth: float = 1.0,
    ratio_outer: float = 2.0,
    alpha_inner: float = 0.8,
    x_m3: float = 0.0,
    detune: float = 0.0,
) -> WellSpec:
    """Mirror-symmetric layout, optionally with the right well floor
    dropped by ``detune`` (which perturbs the right opacity only)."""
    _, _, c = _well_shape(alpha_inner, ratio_outer)
    root = math.sqrt(2.0 * mass * depth)
    w_well = math.pi * hbar / (alpha_inner * root)
    w_barrier = a_target * hbar / (c * root)
    return WellSpec(
        hbar=hbar,
        mass=mass,
        v_m4=v_well + depth * ratio_outer,
        v_m2=v_well,
        v_0=v_well + depth,
        v_2=v_well - detune,
        v_4=v_well + depth * ratio_outer - detune,
        w_m2=w_well,
        w_0=w_barrier,
        w_2=w_well,
        x_m3=x_m3,
    )


def random_symmetric_spec(
    rng: random.Random,
    *,
    a_range: tuple[float, float] = (15.0, 22.0),
    detune_scale: float = 0.0,
) -> WellSpec:
    depth = 10.0 ** rng.uniform(-0.5, 0.5)
    return symmetric_spec(
        a_target=rng.uniform(*a_range),
        hbar=10.0 ** rng.uniform(-0.3, 0.3),
        mass=10.0 ** rng.uniform(-0.3, 0.3),
        v_well=rng.uniform(-1.0, 1.0),
        depth=depth,
        ratio_outer=10.0 ** rng.uniform(0.05, 0.6),
        alpha_inner=rng.uniform(0.55, 0.95),
        x_m3=rng.uniform(-2.0, 2.0),
        detune=detune_scale * rng.choice([-1.0, 1.0]) * depth,
    )


def asymmetric_spec(
    rng: random.Random,
    *,
    a_target: float = 18.0,
    eta: float = 1e-6,
) -> WellSpec:
    """Geometrically different wells whose barrier opacities differ by a
    factor (1 + eta); eta also sets the level detuning."""
    hbar = 10.0 ** rng.uniform(-0.3, 0.3)
    mass = 10.0 ** rng.uniform(-0.3, 0.3)
    v_well = rng.uniform(-1.0, 1.0)
    depth_left = 10.0 ** rng.uniform(-0.5, 0.5)
    alpha_left = rng.uniform(0.55, 0.95)
    ratio_left = 10.0 ** rng.uniform(0.05, 0.6)
    _, _, c_left = _well_shape(alpha_left, ratio_left)
    root_left = math.sqrt(2.0 * mass * depth_left)
    w_m2 = math.pi * hbar / (alpha_left * root_left)
    w_0 = a_target * hbar / (c_left * root_left)

    alpha_right = rng.uniform(0.55, 0.95)
    ratio_right = 10.0 ** rng.uniform(0.05, 0.6)
    _, _, c_right = _well_shape(alpha_right, ratio_right)
    depth_right = depth_left * (c_left / c_right) ** 2 * (1.0 + eta) ** 2
    w_2 = math.pi * hbar / (alpha_right * math.sqrt(2.0 * mass * depth_right))
    v_0 = v_well + depth_left
    v_2 = v_0 - depth_right
    return WellSpec(
        hbar=hbar,
        mass=mass,
        v_m4=v_well + depth_left * ratio_left,
        v_m2=v_well,
        v_0=v_0,
        v_2=v_2,
        v_4=v_2 + depth_right * ratio_right,
        w_m2=w_m2,
        w_0=w_0,
        w_2=w_2,
        x_m3=rng.uniform(-2.0, 2.0),
    )


def dyadic_images(spec: WellSpec, js: tuple = (-5, -1, 1, 3)) -> list[tuple[WellSpec, int]]:
    """Exact dyadic maps of a spec, each with the power of 2 that scales
    its energies: lengths x 2^j with energies / 4^j, mass x 2^j with
    energies / 2^j, and hbar x 2^j with energies x 4^j, for each j in
    ``js``.  Each leaves every dimensionless input of the closed form as it
    was, and a power of 2 scales a float exactly."""
    images = []
    for j in js:
        lengths = {
            name: math.ldexp(getattr(spec, name), j) for name in ("w_m2", "w_0", "w_2", "x_m3")
        }
        for scaled, power in (
            (lengths, -2 * j),
            ({"mass": math.ldexp(spec.mass, j)}, -j),
            ({"hbar": math.ldexp(spec.hbar, j)}, 2 * j),
        ):
            energies = {
                name: math.ldexp(getattr(spec, name), power)
                for name in ("v_m4", "v_m2", "v_0", "v_2", "v_4")
            }
            images.append((replace(spec, **scaled, **energies), power))
    return images


def mixed_spec_batch(seed: int, count: int) -> list[WellSpec]:
    """Deterministic batch mixing symmetric, detuned, and asymmetric specs.

    The asymmetry knob stays at or below 1e-6: the first-order solution's
    boundary-matching residual grows quadratically with the detuning
    (about 1.4e-11 of peak amplitude at eta = 1e-6) and the batch must
    stay comfortably inside the 1e-10 continuity contract.  Even 1e-6
    detunes the example-scale splitting by z ~ 1e3, so the range still
    spans near-degenerate through strongly localized regimes.
    """
    rng = random.Random(seed)
    specs: list[WellSpec] = []
    for i in range(count):
        kind = i % 3
        if kind == 0:
            specs.append(random_symmetric_spec(rng))
        elif kind == 1:
            specs.append(random_symmetric_spec(rng, detune_scale=10.0 ** rng.uniform(-13, -9)))
        else:
            sign = rng.choice([-1.0, 1.0])
            specs.append(
                asymmetric_spec(rng, a_target=rng.uniform(15.0, 22.0), eta=sign * 10.0 ** rng.uniform(-12, -6))
            )
    return specs
