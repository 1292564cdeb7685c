"""Exception taxonomy for the double-well solvers.

Every error raised on purpose by this package derives from
:class:`DoubleWellError`, so callers can catch one base class.  The split
into ``ValueError``-like (bad inputs) and ``RuntimeError``-like (solver
trouble) mirrors how the conditions arise, and the CLI picks a class's exit
code by that base (``cli.EXIT_CODES``).
"""

from __future__ import annotations


class DoubleWellError(Exception):
    """Base class for all errors raised by this package."""


class InvalidSpec(DoubleWellError, ValueError):
    """A potential specification violates a structural constraint.

    The message names the violated constraint (e.g. ``"v_0 > v_2"``).
    """


class DomainError(DoubleWellError, ValueError):
    """An argument left the mathematical domain of a formula
    (for example an arcsine argument above 1)."""


class NoConvergence(DoubleWellError, RuntimeError):
    """An iteration exhausted its step limit (``isolated.MAX_ITER_Y`` or
    ``tunneling.MAX_ITER_R``) without meeting its tolerance.

    Carries the last iterate and the residual at that iterate so callers
    can diagnose near-misses.
    """

    def __init__(self, message: str, last_iterate: float, residual: float):
        super().__init__(f"{message} (last iterate {last_iterate!r}, residual {residual!r})")
        self.last_iterate = last_iterate
        self.residual = residual


class ExcitedBelowZero(DoubleWellError, RuntimeError):
    """The antisymmetric fixed point fell to zero or below: the barrier is
    too thin/low for a distinct upper level in this approximation."""


class AssumptionViolated(DoubleWellError, RuntimeError):
    """The closed form does not apply to this input: a first-order
    correction epsilon exceeded the trust threshold 0.1, or a result left
    the float64 range (an energy scale of ``params.reduce``, a report value,
    a wavenumber of ``params.wavenumbers``, an assembled wavefunction or an
    oracle shot's phase or amplitude that overflows, a barrier scale of
    ``params.reduce``, a wavenumber, a coupling P or a half-splitting that
    underflows to 0), or float64 rounding lost what an assembled state
    needs (an inner phase that cancels to 0 or below, or a barrier too
    narrow at its position to hold the state's extremum)."""


class NotSymmetric(DoubleWellError, ValueError):
    """A left-right symmetric configuration was required but the two wells'
    derived ``a`` coefficients differ beyond tolerance."""


class PerturbationTooLarge(DoubleWellError, ValueError):
    """|delta_v| is not small against the potential steps, so the
    first-order response formulas do not apply."""


class EnergyOutOfBand(DoubleWellError, ValueError):
    """An energy lies outside (max(V-2, V2), min(V-4, V0, V4)), where no
    two-sided bound state of the five-region potential can exist."""


class MatchingResidualTooLarge(DoubleWellError, RuntimeError):
    """Assembled wavefunction pieces fail continuity beyond 1e-6 of the
    peak amplitude, signalling inconsistent inputs."""


class BadRange(DoubleWellError, ValueError):
    """A sampling range or point count is malformed."""


class LevelNotFound(DoubleWellError, RuntimeError):
    """The exact matching solver could not bracket the requested level
    inside the allowed energy band."""


class DegeneracyUnresolved(DoubleWellError, RuntimeError):
    """Two nearly degenerate exact levels cannot be told apart at the
    requested relative tolerance; tighten the tolerance below the expected
    splitting."""


class SeriesUnreliable(UserWarning):
    """Warning category: the closed-form series for the phase equation was
    evaluated where its expansion parameter exceeds 0.9."""
