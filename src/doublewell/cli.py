"""Command-line surface for the double-well solver.

Subcommands:

* ``solve``         -- full approximation pipeline, JSON report on stdout.
* ``perturb``       -- add an antisymmetric well-depth perturbation block.
* ``oracle``        -- compare the approximation against the exact solver.
* ``sample``        -- write a CSV of one eigenstate's wavefunction.
* ``paper-example`` -- run the built-in worked example against its
  embedded reference values.

``perturb``, ``oracle``, ``wavefunc`` and numpy are imported inside the functions
that use them, so a cold call loads only the modules its subcommand runs.

Reports are deterministic: fixed key order, floats serialized with
``repr`` (lossless round-trip), and no timestamps, so identical inputs
produce byte-identical output.  A report never carries a non-finite float:
one that would exits 3 with nothing on stdout, so stdout is strict JSON.
Exit codes: 0 success; 2 bad flags or an invalid/unreadable spec; 3 the
closed-form approximation does not apply; 4 perturbation of a non-symmetric
spec; 5 oracle root finding failed; 6 unwritable output path; 7
worked-example mismatch.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections.abc import Sequence
from dataclasses import fields

from .errors import (
    AssumptionViolated, DegeneracyUnresolved, DoubleWellError, LevelNotFound, NotSymmetric,
)
from .isolated import newton_initial, newton_step, series_y
from .params import WellSpec, load_spec
from .tunneling import DoubleWellResult, Parity, coefficient_ratio, solve_double_well

__all__ = ["EXAMPLE_SPEC", "main"]

# Symmetric two-well layout whose reference values are embedded below:
# unit outer walls and barrier, wells at zero, quarter-depth levels.
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


# Report keys that differ from the dataclass field they come from.
RENAMED = {
    "y_cap": "y", "u_cap": "u", "a_coef": "a", "b_coef": "b", "c_coef": "c",
    "p_cap": "p", "v_ratio": "v",
}


def _section(obj, names: Sequence[str] | None = None) -> dict:
    """Report section of a result dataclass: the named attributes (default:
    every field in declaration order) under their report keys."""
    if names is None:
        names = [f.name for f in fields(obj)]
    section = {}
    for name in names:
        section[RENAMED.get(name, name)] = getattr(obj, name)
    return section


def build_report(result: DoubleWellResult) -> dict:
    spec_names = [f.name for f in fields(result.spec)] + ["x_m1", "x_1", "x_3"]
    report = {
        "spec": _section(result.spec, spec_names),
        "reduced": _section(result.reduced),
        "wells": {"left": _section(result.left), "right": _section(result.right)},
        "coupling": _section(result.coupling),
    }
    for solution in (result.ground, result.excited):
        ratio = coefficient_ratio(solution, result.left, result.right)
        report[solution.parity.value] = _section(solution) | {"coefficient_ratio": ratio}
    report["splitting"] = _section(result.splitting)
    return report


def _emit(report: dict) -> None:
    try:
        text = json.dumps(report, indent=2, allow_nan=False)
    except ValueError as exc:
        raise AssumptionViolated(
            f"the report holds a non-finite float ({exc}); the closed form "
            "leaves the float64 range for this potential"
        ) from None
    sys.stdout.write(text + "\n")


# (label, field) rows of the --verbose table for each well and each level.
VERBOSE_WELL = (
    ("Y", "y_cap"), ("S_inner", "s_inner"), ("U", "u_cap"), ("a", "a_coef"), ("b", "b_coef"),
    ("c", "c_coef"),
)
VERBOSE_LEVEL = (
    ("r0", "r0"), ("p", "p_small"), ("energy", "energy"), ("prob_left", "prob_left"),
    ("prob_right", "prob_right"),
)


def _verbose_table(result: DoubleWellResult) -> None:
    rows = [
        (f"{side}.{label}", getattr(well, name))
        for side, well in (("left", result.left), ("right", result.right))
        for label, name in VERBOSE_WELL
    ]
    rows.append(("P", result.coupling.p_cap))
    rows += [
        (f"{side}.{label}", getattr(level, name))
        for side, level in (("ground", result.ground), ("excited", result.excited))
        for label, name in VERBOSE_LEVEL
    ]
    rows += _section(result.splitting).items()
    for name, value in rows:
        sys.stderr.write(f"{name:<20} {value:.12g}\n")


def cmd_solve(args: argparse.Namespace) -> int:
    spec = load_spec(args.spec)
    result = solve_double_well(spec)
    _emit(build_report(result))
    if args.verbose:
        _verbose_table(result)
    return 0


def cmd_perturb(args: argparse.Namespace) -> int:
    from .perturb import invert_ratio, perturbed_levels, symmetric_base
    spec = load_spec(args.spec)
    base = symmetric_base(spec)
    # Every closed-form refusal (exit 3) comes before the shift is judged (exit 2).
    result = solve_double_well(spec)
    if args.delta_v is not None:
        delta_v = args.delta_v
    elif args.v is not None:
        delta_v = args.v * base.delta_e
    else:
        delta_v = invert_ratio(base, args.ratio)
    levels = perturbed_levels(base, delta_v)
    report = build_report(result)
    report["perturbation"] = _section(
        base, ("a_sym", "e_bar", "delta_e", "f_coef", "g_coef")
    ) | _section(levels)
    _emit(report)
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    from .oracle import compare
    spec = load_spec(args.spec)
    comparison = compare(spec, args.tol)
    report = build_report(solve_double_well(spec))
    report["oracle"] = _section(comparison)
    _emit(report)
    return 0


def cmd_sample(args: argparse.Namespace) -> int:
    from .wavefunc import assemble, sample, write_sample_csv
    spec = load_spec(args.spec)
    result = solve_double_well(spec)
    parity = Parity(args.state)
    solution = result.ground if parity == Parity.GROUND else result.excited
    model = assemble(spec, result.reduced, solution)
    if args.range is not None:
        x_min, x_max = args.range
    else:
        x_min = model.x_m3 - 5.0 / model.kappa_m4
        x_max = model.x_3 + 5.0 / model.kappa_4
    table = sample(model, x_min, x_max, args.points)
    try:
        write_sample_csv(table, args.out)
    except OSError as exc:
        sys.stderr.write(f"error: cannot write {args.out!r}: {exc}\n")
        return 6
    import numpy as np

    trapezoid = getattr(np, "trapezoid", None) or np.trapz
    norm = float(trapezoid(table[:, 1] ** 2, table[:, 0]))
    sys.stderr.write(
        f"integral of psi^2 over [{x_min:.12g}, {x_max:.12g}]: {norm:.12g}\n"
    )
    return 0


def _example_rows() -> list[tuple[str, float, float, float, str]]:
    """(name, got, expected, tolerance, mode) for every reference value."""
    from .perturb import perturbed_levels, symmetric_base
    spec = EXAMPLE_SPEC
    result = solve_double_well(spec)
    reduced = result.reduced
    base = symmetric_base(spec)
    well = result.left
    ground, excited = result.ground, result.excited

    alpha = reduced.alpha_m1
    y1 = newton_initial(alpha, alpha)
    y2 = newton_step(y1, alpha, alpha)
    y3 = newton_step(y2, alpha, alpha)
    y_series = series_y(alpha, alpha)

    e_bar = base.e_bar
    rows = [
        ("gamma", reduced.gamma_m1, 0.507626296843, 1e-10, "rel"),
        ("S_iter_1", alpha * y1, 0.500580902268, 1e-9, "rel"),
        ("S_iter_2", alpha * y2, 0.500000040032, 1e-9, "rel"),
        ("S_iter_3", alpha * y3, 0.5, 1e-9, "rel"),
        ("S_series", alpha * y_series, 0.500008388946, 1e-9, "rel"),
        ("a", well.a_coef, 18.1379936423, 1e-10, "rel"),
        ("b", well.b_coef, 6.04599788078, 1e-10, "rel"),
        ("U", well.u_cap, 0.96691295084, 1e-10, "rel"),
        ("c", well.c_coef, 0.266543524579, 1e-10, "rel"),
        ("P", result.coupling.p_cap, 2.59700181808, 1e-10, "rel"),
        ("r0", ground.r0, 18.1379936637, 1e-9, "rel"),
        ("p", ground.p_small, 4.57099905795e-16, 1e-9, "rel"),
        ("sqrt_p", math.sqrt(ground.p_small), 2.13798948967e-8, 1e-9, "rel"),
        ("F", base.f_coef, 0.0, 1e-12, "abs"),
        ("G", base.g_coef, 0.911152158473, 1e-10, "rel"),
        ("delta_e", base.delta_e, 1.76810307565e-9, 1e-9, "rel"),
        ("E0_over_Ebar", ground.energy / e_bar, 0.999999992928, 1e-11, "abs"),
        ("E1_over_Ebar", excited.energy / e_bar, 1.000000007072, 1e-11, "abs"),
    ]
    for v, ratio_ref, e0_ref, e1_ref in (
        (0.0, 1.0, 0.999999992928, 1.000000007072),
        (1.0, 5.12569762924, 0.999999990432, 1.000000009568),
        (2.0, 15.2174580971, 0.999999985299, 1.000000014701),
        (141.394471534, None, 0.999999088820, 1.000000911180),
    ):
        levels = perturbed_levels(base, v * base.delta_e)
        tag = f"v={v!r}"
        if ratio_ref is not None:
            rows.append((f"{tag}.prob_ratio", levels.prob_ratio, ratio_ref, 1e-9, "rel"))
        rows.append((f"{tag}.E0_over_Ebar", levels.e0 / e_bar, e0_ref, 1e-11, "abs"))
        rows.append((f"{tag}.E1_over_Ebar", levels.e1 / e_bar, e1_ref, 1e-11, "abs"))
        if v > 2.0:
            z = levels.z_asym
            rows.append((f"{tag}.sqrt_term", math.hypot(1.0, z), 128.835758903, 1e-9, "rel"))
            rows.append((f"{tag}.prob_ratio", levels.prob_ratio, 66393.0, 1.0, "abs"))
    return rows


def cmd_paper_example(args: argparse.Namespace) -> int:
    failures: list[str] = []
    for name, got, expected, tol, mode in _example_rows():
        if mode == "rel":
            error = abs(got - expected) / abs(expected)
        else:
            error = abs(got - expected)
        ok = error <= tol
        if not ok:
            failures.append(name)
        sys.stdout.write(
            f"{'PASS' if ok else 'FAIL'} {name} = {got!r} "
            f"(expected {expected!r}, {mode} tol {tol:g})\n"
        )
    if failures:
        sys.stderr.write("failing quantities: " + ", ".join(failures) + "\n")
        return 7
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="doublewell",
        description=(
            "Closed-form two-level approximations for the one-dimensional "
            "double square well, with an exact matching oracle."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run the approximation pipeline on a spec file")
    p_solve.add_argument("spec", help="path to a key = value spec file")
    p_solve.add_argument(
        "--verbose", action="store_true", help="print a 12-digit summary table to stderr"
    )
    p_solve.set_defaults(func=cmd_solve)

    p_pert = sub.add_parser(
        "perturb", help="antisymmetric well-depth perturbation of a symmetric spec"
    )
    p_pert.add_argument("spec", help="path to a key = value spec file")
    group = p_pert.add_mutually_exclusive_group(required=True)
    group.add_argument("--delta-v", type=float, dest="delta_v", help="depth shift (energy units)")
    group.add_argument("--v", type=float, dest="v", help="depth shift over half-splitting")
    group.add_argument(
        "--ratio", type=float, dest="ratio", help="target ground-state P_R/P_L to invert"
    )
    p_pert.set_defaults(func=cmd_perturb)

    p_oracle = sub.add_parser(
        "oracle", help="compare the approximation against the exact transcendental solver"
    )
    p_oracle.add_argument("spec", help="path to a key = value spec file")
    p_oracle.add_argument(
        "--tol", type=float, default=1e-13, help="relative tolerance on exact energies"
    )
    p_oracle.set_defaults(func=cmd_oracle)

    p_sample = sub.add_parser("sample", help="write one eigenstate's wavefunction as CSV")
    p_sample.add_argument("spec", help="path to a key = value spec file")
    p_sample.add_argument(
        "--state", choices=("ground", "excited"), default="ground", help="which level"
    )
    p_sample.add_argument(
        "--range",
        nargs=2,
        type=float,
        metavar=("XMIN", "XMAX"),
        help="sampling interval (default: wells plus five decay lengths each side)",
    )
    p_sample.add_argument("--points", type=int, default=1001, help="number of samples")
    p_sample.add_argument("--out", required=True, help="destination CSV path")
    p_sample.set_defaults(func=cmd_sample)

    p_example = sub.add_parser(
        "paper-example",
        help="run the built-in worked example and check embedded reference values",
    )
    p_example.set_defaults(func=cmd_paper_example)
    return parser


# Exit code and stderr hint per exception, first match wins. Past NotSymmetric
# and the oracle's two errors, a package error's code follows its base in
# ``errors``: RuntimeError-like solver trouble 3, ValueError-like bad input 2.
# See the module docstring for what each code means.
EXIT_CODES = (
    (NotSymmetric, 4, ""),
    (
        (LevelNotFound, DegeneracyUnresolved),
        5,
        "hint: LevelNotFound means the level's phase target lies outside the "
        "exact solver's phases at the band ends; DegeneracyUnresolved means the "
        "neighbouring level lies within --tol times the level's energy: the two "
        "levels are degenerate at float64 resolution, or --tol is coarser than the "
        "level splitting.\n",
    ),
    (
        RuntimeError,
        3,
        "hint: the closed-form approximation does not apply to this potential; "
        "use the `oracle` subcommand for exact energies.\n",
    ),
    ((ValueError, OSError), 2, ""),
)
# The exit-3 hint of ``oracle`` itself, which must not send it back to itself.
_ORACLE_HINT_3 = (
    "hint: the closed-form approximation does not apply to this potential, "
    "and `oracle` compares the exact energies against it.\n"
)


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (DoubleWellError, OSError) as exc:
        for errors, code, hint in EXIT_CODES:
            if isinstance(exc, errors):
                if code == 3 and args.func is cmd_oracle:
                    hint = _ORACLE_HINT_3
                sys.stderr.write(f"error: {exc}\n{hint}")
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
