"""Closed-form two-level solver for the one-dimensional double square well.

The library computes the two lowest bound levels of a five-region
piecewise-constant potential (outer wall, left well, barrier, right well,
outer wall) in the thick-barrier approximation: isolated-well phase
solutions, the tunneling fixed point and level splitting, left/right
localization probabilities, piecewise wavefunctions, and the response to
a small antisymmetric shift of the two well depths.  An independent exact
transcendental solver (:mod:`doublewell.oracle`) quantifies the
approximation error.

The public names below are re-exported lazily (PEP 562): ``import
doublewell`` loads no submodule, and the first access to a name imports
the submodule that defines it.  numpy is imported only by the array
evaluators and sampling of :mod:`doublewell.wavefunc`.
"""

import importlib

__version__ = "1.0.0"

# The one list of the library's public names, per defining submodule: the
# loader finds a name's module here without importing any.
_EXPORTS = {
    "errors": (
        "DoubleWellError", "InvalidSpec", "DomainError", "NotSymmetric",
        "PerturbationTooLarge", "EnergyOutOfBand", "BadRange", "NoConvergence",
        "ExcitedBelowZero", "AssumptionViolated", "MatchingResidualTooLarge",
        "LevelNotFound", "DegeneracyUnresolved", "SeriesUnreliable",
    ),
    "params": (
        "WellSpec", "ReducedParams", "Parity", "reduce", "bound_state_exists",
        "parse_spec", "load_spec",
    ),
    "isolated": (
        "IsolatedWellSolution", "BarrierCoupling", "newton_initial", "newton_step",
        "solve_y", "series_y", "derive_well", "coupling", "solve_wells",
    ),
    "tunneling": (
        "CoupledSolution", "SplittingResult", "DoubleWellResult", "solve_r0",
        "correct_energy", "splitting", "coefficient_ratio", "solve_double_well",
    ),
    "perturb": (
        "SymmetricBase", "PerturbedLevels", "DeltaLedger", "symmetric_base",
        "delta_ledger", "perturbed_levels", "invert_ratio", "two_level_check",
    ),
    "wavefunc": (
        "WavefunctionModel", "assemble", "assemble_at_energy", "evaluate",
        "derivative", "probabilities", "sample", "write_sample_csv",
    ),
    "oracle": (
        "ShootResult", "OracleComparison", "shoot", "find_level", "compare",
    ),
}

_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_SOURCE]


def __getattr__(name: str):
    try:
        module = _SOURCE[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
