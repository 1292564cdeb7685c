"""Seeded input generator for the doublewell benchmark.

Specs are built backwards from a target barrier opacity a ~= kappa_0 * w_0,
the input property the library's behaviour depends on: pick a well shape
(arcsine coefficients), solve its phase equation here by bisection, then
size the barrier to realise the opacity.  The construction follows
``tests/genspecs.py`` but shares no code with it or with the library, so
edits to either cannot move the benchmark's inputs.  Only ``math`` and
``random`` are imported: the harness must not pull in numpy itself, so
that ``setup_s`` shows the library's own import cost.

Every workload draws two sets from one seed:

* ``core``   -- the timed inputs, on which no operation fails at the
  parent commit;
* ``census`` -- the known-defect tail (thick barriers, opacities past the
  oracle's resolution, overflowing wavefunctions), run through the same
  operation and checks once per run and reported with failure causes.

Kinds come in equal shares inside every block of 24 consecutive core
inputs, so any window of the op stream has the same mix.
"""

from __future__ import annotations

import math
import random

KINDS = ("symmetric", "floor_detuned", "asymmetric")
BLOCK = 24

# Per workload: the core opacity range of each kind (uniform); census
# bands as (kinds, opacity range (log-uniform), count relative to the core
# pool); core pool size.  Core ranges stop where an input would fail at the
# parent commit; every input beyond them goes to a census band, so the
# known defects still show in every run.
PERTURB_OPACITY = (12.0, 26.0)
# The oracle resolves the coupling term e^{-2a} only while it stays well
# above rounding: symmetric and floor-detuned specs lose their ground
# level (LevelNotFound) at a ~ 15.7-19 on a few inputs in a thousand.
ORACLE_CORE = {"symmetric": (8.0, 15.0), "floor_detuned": (8.0, 15.0), "asymmetric": (8.0, 12.0)}
PLANS = {
    "closed_form_sweep": {
        "core": dict.fromkeys(KINDS, (8.0, 30.0)),
        # delta_e == 0 for symmetric specs from a ~ 40 on.
        "census": ((KINDS, (30.0, 1000.0), 1.0 / 8.0),),
        "pool": 960,
    },
    "oracle_validate": {
        "core": ORACLE_CORE,
        # Past the oracle's resolution for every kind; symmetric and
        # floor-detuned specs lose their level (LevelNotFound,
        # DegeneracyUnresolved) from a ~ 15.7 on, and asymmetric ones
        # exceed the 10 e^{-2 r0} bound from a ~ 12.
        "census": (
            (KINDS, (30.0, 60.0), 1.0 / 8.0),
            (("symmetric", "floor_detuned"), (15.0, 26.0), 1.0 / 8.0),
            (("asymmetric",), (12.0, 26.0), 1.0 / 8.0),
        ),
        "pool": 48,
    },
    "wavefunction_export": {
        "core": dict.fromkeys(KINDS, (16.0, 345.0)),
        # Mirror-symmetry drift below a ~ 14; bare OverflowError in
        # assemble from a ~ 360 (detuned) or ~ 725 (symmetric).
        "census": ((KINDS, (8.0, 16.0), 1.0 / 16.0), (KINDS, (360.0, 1000.0), 1.0 / 16.0)),
        "pool": 96,
        # Points per grid and their count in each block of 24.  The shares
        # put the median op inside the 1e4 class, not on a class boundary.
        "grid_points": ((1_000, 6), (10_000, 9), (100_000, 6), (1_000_000, 3)),
    },
    "cli_cold": {
        # The oracle subcommand runs on these too.
        "core": ORACLE_CORE,
        "census": (),
        "pool": 48,
        # One block of 16 invocations; "oracle" is 2 of 16 = 1 in 8.
        "commands": (
            ("solve", 2), ("solve_verbose", 2), ("perturb_v", 2), ("perturb_ratio", 2),
            ("sample", 2), ("paper_example", 1), ("oracle", 2),
            ("bad_malformed", 1), ("bad_thin", 1), ("bad_asym_perturb", 1),
        ),
    },
}


def phase_root(alpha_inner: float, alpha_outer: float) -> float:
    """Y solving asin(ai Y) + asin(ao Y) + pi Y = pi, by plain bisection."""
    hi = 1.0 / max(1.0, alpha_inner, alpha_outer)
    lo = 0.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return mid
        f = math.asin(alpha_inner * mid) + math.asin(alpha_outer * mid) + math.pi * (mid - 1.0)
        if f < 0.0:
            lo = mid
        else:
            hi = mid


def _inner_cosine(alpha_inner: float, ratio_outer: float) -> float:
    y = phase_root(alpha_inner, alpha_inner / math.sqrt(ratio_outer))
    return math.sqrt(1.0 - (alpha_inner * y) ** 2)


def _symmetric_layout(rng: random.Random, opacity: float, detune_scale: float) -> dict:
    hbar = 10.0 ** rng.uniform(-0.3, 0.3)
    mass = 10.0 ** rng.uniform(-0.3, 0.3)
    v_well = rng.uniform(-1.0, 1.0)
    depth = 10.0 ** rng.uniform(-0.5, 0.5)
    ratio_outer = 10.0 ** rng.uniform(0.05, 0.6)
    alpha_inner = rng.uniform(0.55, 0.95)
    x_m3 = rng.uniform(-2.0, 2.0)
    detune = detune_scale * rng.choice((-1.0, 1.0)) * depth
    c = _inner_cosine(alpha_inner, ratio_outer)
    root = math.sqrt(2.0 * mass * depth)
    w_well = math.pi * hbar / (alpha_inner * root)
    return {
        "hbar": hbar, "mass": mass,
        "v_m4": v_well + depth * ratio_outer, "v_m2": v_well, "v_0": v_well + depth,
        "v_2": v_well - detune, "v_4": v_well + depth * ratio_outer - detune,
        "w_m2": w_well, "w_0": opacity * hbar / (c * root), "w_2": w_well, "x_m3": x_m3,
    }


def _asymmetric_layout(rng: random.Random, opacity: float, log_eta: tuple) -> dict:
    """Different well shapes whose barrier opacities differ by (1 + eta)."""
    eta = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(*log_eta)
    hbar = 10.0 ** rng.uniform(-0.3, 0.3)
    mass = 10.0 ** rng.uniform(-0.3, 0.3)
    v_well = rng.uniform(-1.0, 1.0)
    depth_left = 10.0 ** rng.uniform(-0.5, 0.5)
    alpha_left = rng.uniform(0.55, 0.95)
    ratio_left = 10.0 ** rng.uniform(0.05, 0.6)
    c_left = _inner_cosine(alpha_left, ratio_left)
    root_left = math.sqrt(2.0 * mass * depth_left)
    alpha_right = rng.uniform(0.55, 0.95)
    ratio_right = 10.0 ** rng.uniform(0.05, 0.6)
    c_right = _inner_cosine(alpha_right, ratio_right)
    depth_right = depth_left * (c_left / c_right) ** 2 * (1.0 + eta) ** 2
    v_0 = v_well + depth_left
    v_2 = v_0 - depth_right
    return {
        "hbar": hbar, "mass": mass,
        "v_m4": v_well + depth_left * ratio_left, "v_m2": v_well, "v_0": v_0,
        "v_2": v_2, "v_4": v_2 + depth_right * ratio_right,
        "w_m2": math.pi * hbar / (alpha_left * root_left),
        "w_0": opacity * hbar / (c_left * root_left),
        "w_2": math.pi * hbar / (alpha_right * math.sqrt(2.0 * mass * depth_right)),
        "x_m3": rng.uniform(-2.0, 2.0),
    }


def make_spec(
    rng: random.Random, kind: str, opacity: float, log_eta: tuple = (-12.0, -6.0)
) -> dict:
    """Spec fields (a plain dict) of one kind at a target opacity; the
    asymmetric kind's opacities differ by a factor 1 + 10^U(log_eta)."""
    if kind == "symmetric":
        return _symmetric_layout(rng, opacity, 0.0)
    if kind == "floor_detuned":
        return _symmetric_layout(rng, opacity, 10.0 ** rng.uniform(-13.0, -9.0))
    if kind == "asymmetric":
        return _asymmetric_layout(rng, opacity, log_eta)
    raise ValueError(f"unknown kind {kind!r}")


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _entry(rng: random.Random, kind: str, opacity: float) -> dict:
    return {"kind": kind, "opacity": opacity, "spec": make_spec(rng, kind, opacity)}


def _blocked(rng: random.Random, count: int, labels: list) -> list:
    """``count`` labels cycling through ``labels`` in exact shares per
    block of ``len(labels)``, shuffled inside each block."""
    out = []
    while len(out) < count:
        block = list(labels)
        rng.shuffle(block)
        out.extend(block)
    return out[:count]


def generate(workload: str, seed: int) -> dict:
    """Deterministic core and census inputs of one workload."""
    plan = PLANS[workload]
    rng = random.Random(f"{workload}:{seed}")
    kinds = _blocked(rng, plan["pool"], [k for k in KINDS for _ in range(BLOCK // len(KINDS))])
    core = [_entry(rng, kind, rng.uniform(*plan["core"][kind])) for kind in kinds]
    census = []
    for band_kinds, (lo, hi), share in plan["census"]:
        for kind in _blocked(rng, round(plan["pool"] * share), list(band_kinds)):
            census.append(_entry(rng, kind, _log_uniform(rng, lo, hi)))
    if "grid_points" in plan:
        sizes = [n for n, count in plan["grid_points"] for _ in range(count)]
        for entry, n in zip(core, _blocked(rng, len(core), sizes)):
            entry["grid_points"] = n
        for i, entry in enumerate(census):
            entry["grid_points"] = plan["grid_points"][i % len(plan["grid_points"])][0]
    if "commands" in plan:
        labels = [name for name, weight in plan["commands"] for _ in range(weight)]
        for entry, command in zip(core, _blocked(rng, len(core), labels)):
            entry["command"] = command
            if command in ("perturb_v", "perturb_ratio"):
                # Symmetric, and opaque enough that |delta_v| stays below
                # 1% of the smallest step (else the documented exit 2).
                entry.update(_entry(rng, "symmetric", rng.uniform(*PERTURB_OPACITY)),
                             v=rng.choice((0.5, 1.0, 2.0)), ratio=rng.choice((0.2, 2.0, 5.0)))
            elif command == "bad_asym_perturb":
                # Opacities 1e-4..1e-2 apart: clearly not symmetric.
                entry.update(kind="asymmetric", v=1.0)
                entry["spec"] = make_spec(rng, "asymmetric", entry["opacity"], (-4.0, -2.0))
            elif command == "bad_thin":
                # Too thin for the first-order expansion (eps > 0.1).
                entry.update(kind="symmetric", opacity=rng.uniform(0.1, 0.8))
                entry["spec"] = make_spec(rng, "symmetric", entry["opacity"])
            elif command == "sample":
                entry["state"] = rng.choice(("ground", "excited"))
    return {"workload": workload, "seed": seed, "core": core, "census": census}


def describe(workload: str) -> dict:
    """The input distribution of a workload, recorded in every result."""
    plan = PLANS[workload]
    out = {
        "kind_shares": {k: round(1.0 / len(KINDS), 4) for k in KINDS},
        "core_opacity_uniform": {k: list(r) for k, r in plan["core"].items()},
        "census_bands_log_uniform": [
            {"kinds": list(kinds), "opacity": list(r), "share_of_core": share}
            for kinds, r, share in plan["census"]
        ],
        "core_pool": plan["pool"],
    }
    if "grid_points" in plan:
        out["grid_points_per_24"] = dict(plan["grid_points"])
    if "commands" in plan:
        out["command_mix_per_16"] = dict(plan["commands"])
    return out
