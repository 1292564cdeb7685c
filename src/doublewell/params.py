"""Potential specification and dimensionless reduction.

The potential is piecewise constant over five regions,

    V(x) = V_-4 | V_-2 | V_0 | V_2 | V_4

with finite wells V_-2 and V_2 separated by the central barrier V_0 and
closed off by the outer walls V_-4 and V_4.  Region boundaries sit at
x_-3 (left outer wall), x_-1 = x_-3 + w_-2, x_1 = x_-1 + w_0 and
x_3 = x_1 + w_2.  Everything downstream works with the dimensionless
combinations computed by :func:`reduce`:

    K_i     = pi^2 hbar^2 / (2 m w_i^2)        (energy scale of region i)
    alpha_j = sqrt(K_well / W_j)               (well scale over step W_j)
    beta    = sqrt(K_0 / W_inner)              (barrier scale over inner step)
    gamma_j = pi alpha_j / (pi + alpha_in + alpha_out)

where W_-3 = V_-4 - V_-2, W_-1 = V_0 - V_-2 are the left well's outer and
inner steps and W_1 = V_0 - V_2, W_3 = V_4 - V_2 the right well's.
"""

from __future__ import annotations

import enum
import math
import sys

from .errors import AssumptionViolated, DomainError, EnergyOutOfBand, InvalidSpec


class _Record:
    """Base of every record: prints and compares by its field values, in
    field order, and is unhashable, as an ``eq=True`` dataclass is."""

    __slots__ = ()
    __hash__ = None

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__match_args__])
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented


class _Metadata:
    """A record's class-level ``__dataclass_fields__`` or ``__dataclass_params__``.

    On first read it builds a ``make_dataclass`` twin with the record's field
    names, annotation strings, the defaults of its ``__init__``, and
    ``frozen`` when the record defines ``__setattr__``; it stores the twin's
    two attributes on the record in place of both descriptors, so only a
    process that asks for the metadata imports the dataclass module."""

    def __set_name__(self, owner: type, attr: str) -> None:
        self.attr = attr

    def __get__(self, obj, owner: type):
        from dataclasses import make_dataclass

        names, kinds = owner.__match_args__, owner.__annotations__
        defaults = dict(zip(reversed(names), reversed(owner.__init__.__defaults__ or ())))
        fields = [(n, kinds[n], defaults[n]) if n in defaults else (n, kinds[n]) for n in names]
        frozen = "__setattr__" in vars(owner)
        twin = make_dataclass(owner.__name__, fields, frozen=frozen, slots=True)
        owner.__dataclass_fields__ = twin.__dataclass_fields__
        owner.__dataclass_params__ = twin.__dataclass_params__
        return getattr(owner, self.attr)


def record(cls: type) -> type:
    """Class decorator that builds what ``@dataclass(slots=True)`` builds.

    The fields are the annotated class attributes, in order.  The class is
    rebuilt as a subclass of :class:`_Record` (``__repr__``, ``__eq__``,
    ``__hash__ = None``) with ``__slots__``, ``__match_args__`` and, unless
    it defines its own, a positional ``__init__`` with one store per field.
    The dataclass metadata is built on demand (:class:`_Metadata`), so
    ``fields``, ``replace``, ``asdict`` and ``is_dataclass`` accept records.
    """
    names = tuple(cls.__annotations__)
    body = {k: v for k, v in vars(cls).items() if k not in ("__dict__", "__weakref__")}
    body.update(
        __qualname__=cls.__qualname__, __slots__=names, __match_args__=names,
        __dataclass_fields__=_Metadata(), __dataclass_params__=_Metadata(),
    )
    if "__init__" not in body:
        stores = "".join(f"\n    self.{name} = {name}" for name in names)
        exec(f"def __init__(self, {', '.join(names)}):{stores}", {}, body)
        body["__init__"].__qualname__ = f"{cls.__qualname__}.__init__"
    return type(cls)(cls.__name__, (_Record,), body)


class Parity(str, enum.Enum):
    """Which of the two lowest coupled levels is meant."""

    GROUND = "ground"
    EXCITED = "excited"


# Read once here: each Parity.X lookup is slow on Python 3.11.
_GROUND, _EXCITED = Parity.GROUND, Parity.EXCITED


@record
class WellSpec:
    """Physical description of the five-region double square well.

    ``v_*`` are the region potentials, ``w_*`` the widths of the two wells
    and the barrier, ``x_m3`` the position of the left outer wall.
    Validation happens on construction and raises :class:`InvalidSpec`
    naming the violated constraint.  A spec is frozen and hashable, as a
    frozen dataclass is: assignment would bypass the validation.
    """

    hbar: float
    mass: float
    v_m4: float
    v_m2: float
    v_0: float
    v_2: float
    v_4: float
    w_m2: float
    w_0: float
    w_2: float
    x_m3: float

    def __init__(
        self, hbar: float, mass: float, v_m4: float, v_m2: float, v_0: float, v_2: float,
        v_4: float, w_m2: float, w_0: float, w_2: float, x_m3: float = 0.0,
    ) -> None:
        values = (hbar, mass, v_m4, v_m2, v_0, v_2, v_4, w_m2, w_0, w_2, x_m3)
        for key, value in zip(self.__match_args__, values):
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise InvalidSpec(f"{key} must be a real number")
            if not math.isfinite(value):
                raise InvalidSpec(f"{key} must be finite")
            object.__setattr__(self, key, float(value))
        for name in ("hbar", "mass", "w_m2", "w_0", "w_2"):
            if getattr(self, name) <= 0.0:
                raise InvalidSpec(f"violated constraint: {name} > 0")
        for lhs, rhs in (("v_m4", "v_m2"), ("v_0", "v_m2"), ("v_0", "v_2"), ("v_4", "v_2")):
            if getattr(self, lhs) <= getattr(self, rhs):
                raise InvalidSpec(f"violated constraint: {lhs} > {rhs}")

    def __hash__(self) -> int:
        return hash(self._values())

    # dataclasses' frozen contract: FrozenInstanceError is an AttributeError.
    def __setattr__(self, name: str, value) -> None:
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")

    # Pickled as a list of the field values, as a frozen slotted dataclass is.
    def __getstate__(self) -> list:
        return list(self._values())

    def __setstate__(self, state: list) -> None:
        for name, value in zip(self.__match_args__, state):
            object.__setattr__(self, name, value)

    @property
    def x_m1(self) -> float:
        """Left inner boundary (left well / barrier)."""
        return self.x_m3 + self.w_m2

    @property
    def x_1(self) -> float:
        """Right inner boundary (barrier / right well)."""
        return self.x_m1 + self.w_0

    @property
    def x_3(self) -> float:
        """Right outer boundary (right well / outer wall)."""
        return self.x_1 + self.w_2


#: Recognized keys of the flat ``key = value`` spec file, in canonical order.
SPEC_KEYS = WellSpec.__match_args__
# The keys without a default, which a spec file must give.
_REQUIRED_KEYS = SPEC_KEYS[: len(SPEC_KEYS) - len(WellSpec.__init__.__defaults__)]


@record
class ReducedParams:
    """Dimensionless reduction of a :class:`WellSpec`.

    ``w_m3 .. w_3`` are the four potential steps (energies).  ``k_m2``,
    ``k_0``, ``k_2`` are the region energy scales K_i; the wavenumbers at
    a given energy come from :func:`wavenumbers`, not from here.
    """

    w_m3: float
    w_m1: float
    w_1: float
    w_3: float
    k_m2: float
    k_0: float
    k_2: float
    alpha_m3: float
    alpha_m1: float
    alpha_1: float
    alpha_3: float
    beta_m1: float
    beta_1: float
    gamma_m3: float
    gamma_m1: float
    gamma_1: float
    gamma_3: float


# The least normal float64: a subnormal result carries fewer than 53 bits.
_NORMAL_MIN = sys.float_info.min


def reduce(spec: WellSpec) -> ReducedParams:
    """Compute all dimensionless parameters of the two wells.

    Raises :class:`AssumptionViolated` when an energy scale K_i leaves the
    float64 range, or it, the scale (pi hbar)^2 / (2 m) or a square behind
    them is subnormal (lost digits every level inherits), or a barrier
    scale beta underflows to 0.  Squares are products, so hbar x 2^j scales
    every K_i by 4^j exactly."""
    w_m3 = spec.v_m4 - spec.v_m2
    w_m1 = spec.v_0 - spec.v_m2
    w_1 = spec.v_0 - spec.v_2
    w_3 = spec.v_4 - spec.v_2
    pi_hbar = math.pi * spec.hbar
    sq_hbar = pi_hbar * pi_hbar
    sq_m2 = spec.w_m2 * spec.w_m2
    sq_0 = spec.w_0 * spec.w_0
    sq_2 = spec.w_2 * spec.w_2
    try:
        scale = sq_hbar / (2.0 * spec.mass)
        k_m2 = scale / sq_m2
        k_0 = scale / sq_0
        k_2 = scale / sq_2
    except ZeroDivisionError:  # a width's square underflowed to 0
        scale = k_m2 = k_0 = k_2 = math.inf
    if not (
        _NORMAL_MIN <= min(sq_hbar, sq_m2, sq_0, sq_2, scale, k_m2, k_0, k_2)
        and max(scale, k_m2, k_0, k_2) < math.inf
    ):
        raise AssumptionViolated(
            f"an energy scale pi^2 hbar^2 / (2 m w^2) is subnormal or leaves the float64 range: "
            f"hbar={spec.hbar!r}, mass={spec.mass!r}, "
            f"w_m2={spec.w_m2!r}, w_0={spec.w_0!r}, w_2={spec.w_2!r}"
        )
    alpha_m3 = math.sqrt(k_m2 / w_m3)
    alpha_m1 = math.sqrt(k_m2 / w_m1)
    alpha_1 = math.sqrt(k_2 / w_1)
    alpha_3 = math.sqrt(k_2 / w_3)
    beta_m1 = math.sqrt(k_0 / w_m1)
    beta_1 = math.sqrt(k_0 / w_1)
    if beta_m1 == 0.0 or beta_1 == 0.0:  # every barrier coefficient divides by beta
        raise AssumptionViolated(
            f"a barrier scale beta = sqrt(K_0 / W) underflows to 0: K_0={k_0!r}, "
            f"W_m1={w_m1!r}, W_1={w_1!r}"
        )
    denom_left = math.pi + alpha_m1 + alpha_m3
    denom_right = math.pi + alpha_1 + alpha_3
    gamma_m3 = math.pi * alpha_m3 / denom_left
    gamma_m1 = math.pi * alpha_m1 / denom_left
    gamma_1 = math.pi * alpha_1 / denom_right
    gamma_3 = math.pi * alpha_3 / denom_right
    # Positional, in field order: keywords cost a dict per call.
    return ReducedParams(
        w_m3, w_m1, w_1, w_3, k_m2, k_0, k_2, alpha_m3, alpha_m1, alpha_1, alpha_3,
        beta_m1, beta_1, gamma_m3, gamma_m1, gamma_1, gamma_3,
    )


def band(spec: WellSpec) -> tuple[float, float]:
    """The open energy band (max well floor, min wall) that holds both
    levels: above both well floors and below the barrier and outer walls."""
    return max(spec.v_m2, spec.v_2), min(spec.v_m4, spec.v_0, spec.v_4)


def wavenumbers(spec: WellSpec, energy: float) -> tuple[float, float, float, float, float]:
    """``(kappa_m4, k_m2, kappa_0, k_2, kappa_4)``: sqrt(2 m |E - V|) / hbar
    in each region, left to right, at an energy inside :func:`band`.

    The band check is that all five kinetic terms are positive (NaN fails
    it); :class:`EnergyOutOfBand` is raised otherwise.  The least of them
    gives the smallest wavenumber, which callers divide by:
    :class:`AssumptionViolated` is raised when it underflows to 0, or
    when any wavenumber overflows to inf.
    """
    kinetic = (
        spec.v_m4 - energy,
        energy - spec.v_m2,
        spec.v_0 - energy,
        energy - spec.v_2,
        spec.v_4 - energy,
    )
    least = min(kinetic)
    if not least > 0.0:
        lo, hi = band(spec)
        raise EnergyOutOfBand(f"energy {energy!r} outside the bound band ({lo!r}, {hi!r})")
    two_m = 2.0 * spec.mass
    if not math.sqrt(two_m * least) / spec.hbar > 0.0:
        raise AssumptionViolated(
            f"a wavenumber sqrt(2 m |E - V|) / hbar underflows to 0 at energy {energy!r}: "
            f"hbar={spec.hbar!r}, mass={spec.mass!r}"
        )
    t_m4, t_m2, t_0, t_2, t_4 = kinetic
    # Written out: a comprehension here slows each oracle shoot by ~10%.
    waves = (
        math.sqrt(two_m * t_m4) / spec.hbar,
        math.sqrt(two_m * t_m2) / spec.hbar,
        math.sqrt(two_m * t_0) / spec.hbar,
        math.sqrt(two_m * t_2) / spec.hbar,
        math.sqrt(two_m * t_4) / spec.hbar,
    )
    if math.inf in waves:
        raise AssumptionViolated(
            f"a wavenumber sqrt(2 m |E - V|) / hbar overflows at energy {energy!r}: "
            f"{waves!r} with hbar={spec.hbar!r}, mass={spec.mass!r}"
        )
    return waves


def bound_state_exists(alpha_inner: float, alpha_outer: float) -> bool:
    """Whether a finite well with the given edge parameters binds a state.

    The phase equation  arcsin(a_i Y) + arcsin(a_o Y) + pi Y = pi  has a
    solution with both arcsine arguments at most 1 exactly when either
    both alphas are small (max <= 2) or the smaller alpha clears
    ``alpha_max * cos(pi / alpha_max)``.  A negative or NaN alpha raises
    :class:`DomainError`.
    """
    if not (alpha_inner >= 0.0 and alpha_outer >= 0.0):
        raise DomainError("violated constraint: alpha >= 0")
    hi = max(alpha_inner, alpha_outer)
    if hi <= 2.0:
        return True
    return min(alpha_inner, alpha_outer) >= hi * math.cos(math.pi / hi)


def parse_spec(text: str) -> WellSpec:
    """Parse the flat ``key = value`` spec format.

    Blank lines and ``#`` comments (full-line or trailing) are ignored.
    Unknown or repeated keys raise :class:`InvalidSpec`; all keys except
    the optional ``x_m3`` are required.
    """
    values: dict[str, float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidSpec(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, rhs = line.partition("=")
        key = key.strip()
        if key not in SPEC_KEYS:
            raise InvalidSpec(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise InvalidSpec(f"line {lineno}: duplicate key {key!r}")
        try:
            values[key] = float(rhs.strip())
        except ValueError:
            raise InvalidSpec(f"line {lineno}: {key} is not a number: {rhs.strip()!r}") from None
    missing = [key for key in _REQUIRED_KEYS if key not in values]
    if missing:
        raise InvalidSpec(f"missing keys: {', '.join(missing)}")
    return WellSpec(**values)


def load_spec(path: str) -> WellSpec:
    """Read and parse a UTF-8 spec file, which may start with a byte-order
    mark; one that is not UTF-8 raises :class:`InvalidSpec` naming its
    first undecodable byte and that byte's offset in the file."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        # Plain UTF-8, not utf-8-sig: that codec reports offsets past a mark 3 bytes early.
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InvalidSpec(
            f"{path}: not UTF-8 text: byte 0x{data[exc.start]:02x} at offset {exc.start}"
        ) from None
    return parse_spec(text.removeprefix("\ufeff"))
