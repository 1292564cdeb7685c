"""Census of extreme specs: how each layer answers, and where it refuses.

Draws specs from ``genspecs.random_extreme_fields`` (the distribution of
``test_extreme_specs``) with ``random.Random(seed)``.  For every valid
spec it runs ``solve_double_well``; for every solved one, ``assemble`` on
both levels, one ``shoot`` at the closed-form e0 and ``compare``.  It
prints, per stage, the count of each outcome: ``ok``, a non-finite shot
residual, or an exception's class and the ``module.function`` that raised
it (a class that is not a ``DoubleWellError`` is a crash).

Not a test module, so pytest does not collect it.  Run it as::

    PYTHONPATH=src:tests python tests/census_extreme.py --draws 40000 --seed 5
"""

from __future__ import annotations

import argparse
import math
import random
from collections import Counter

from doublewell import (
    DoubleWellError, InvalidSpec, WellSpec, assemble, compare, shoot, solve_double_well,
)
from genspecs import random_extreme_fields


def _refusal(exc: Exception) -> str:
    """``refused`` (or ``crashed``) with the class and the raising site."""
    tb = exc.__traceback__
    while tb.tb_next is not None:
        tb = tb.tb_next
    module = tb.tb_frame.f_globals.get("__name__", "?").removeprefix("doublewell.")
    verdict = "refused" if isinstance(exc, DoubleWellError) else "crashed"
    return f"{verdict} {type(exc).__name__} at {module}.{tb.tb_frame.f_code.co_name}"


def _outcome(call, *args) -> tuple[str, object]:
    try:
        return "ok", call(*args)
    except Exception as exc:  # a crash is counted, not raised
        return _refusal(exc), None


def census(draws: int, seed: int) -> dict[str, Counter]:
    """Outcome counts per stage over ``draws`` extreme draws."""
    rng = random.Random(seed)
    stages = {
        name: Counter()
        for name in ("spec", "solve_double_well", "assemble", "shoot at e0", "compare")
    }
    for _ in range(draws):
        try:
            spec = WellSpec(**random_extreme_fields(rng))
        except InvalidSpec:
            stages["spec"]["invalid"] += 1
            continue
        stages["spec"]["valid"] += 1
        verdict, result = _outcome(solve_double_well, spec)
        stages["solve_double_well"][verdict] += 1
        if result is None:
            continue
        for level in (result.ground, result.excited):
            verdict = _outcome(assemble, spec, result.reduced, level)[0]
            stages["assemble"][f"{level.parity.value}: {verdict}"] += 1
        verdict, shot = _outcome(shoot, spec, result.splitting.e0)
        if shot is not None and not math.isfinite(shot.residual):
            verdict = "non-finite residual"
        stages["shoot at e0"][verdict] += 1
        stages["compare"][_outcome(compare, spec)[0]] += 1
    return stages


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--draws", type=int, default=40000, help="specs to draw")
    parser.add_argument("--seed", type=int, default=5, help="seed of the draws")
    args = parser.parse_args()
    print(f"extreme census: {args.draws} draws, seed {args.seed}")
    for stage, counts in census(args.draws, args.seed).items():
        print(f"{stage}: {sum(counts.values())}")
        for verdict, count in sorted(counts.items()):
            print(f"  {count:6d}  {verdict}")


if __name__ == "__main__":
    main()
