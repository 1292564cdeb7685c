"""Result records: slotted classes that compare, print and pickle by value
but are neither frozen nor hashable; the input WellSpec stays frozen.  They
are built without the dataclass module, yet ``dataclasses.fields``,
``replace``, ``asdict`` and ``is_dataclass`` read them as dataclasses."""

import copy
import dataclasses
import inspect
import pickle
import subprocess
import sys

import pytest
from genspecs import child_env

import doublewell
from doublewell import (
    Parity,
    WavefunctionModel,
    WellSpec,
    assemble,
    assemble_at_energy,
    compare,
    delta_ledger,
    perturbed_levels,
    shoot,
    solve_double_well,
    symmetric_base,
)
from doublewell.params import record

RECORDS = (
    "ReducedParams", "IsolatedWellSolution", "BarrierCoupling", "CoupledSolution",
    "SplittingResult", "DoubleWellResult", "SymmetricBase", "PerturbedLevels",
    "DeltaLedger", "WavefunctionModel", "ShootResult", "OracleComparison",
)
SPEC_AND_RECORDS = ("WellSpec", *RECORDS)

# Annotation strings of the fields not annotated "float".
NOT_FLOAT = {
    ("CoupledSolution", "parity"): "Parity",
    ("WavefunctionModel", "parity"): "Parity",
    ("SymmetricBase", "wells"): "tuple[IsolatedWellSolution, IsolatedWellSolution]",
    ("DoubleWellResult", "spec"): "WellSpec",
    ("DoubleWellResult", "reduced"): "ReducedParams",
    ("DoubleWellResult", "left"): "IsolatedWellSolution",
    ("DoubleWellResult", "right"): "IsolatedWellSolution",
    ("DoubleWellResult", "coupling"): "BarrierCoupling",
    ("DoubleWellResult", "ground"): "CoupledSolution",
    ("DoubleWellResult", "excited"): "CoupledSolution",
    ("DoubleWellResult", "splitting"): "SplittingResult",
}

# repr(EXAMPLE_SPEC) and protocol-4 pickles of EXAMPLE_SPEC and of its
# SplittingResult, as the dataclass-built records wrote them.
EXAMPLE_SPEC_REPR = (
    "WellSpec(hbar=1.0, mass=2.0, v_m4=1.0, v_m2=0.0, v_0=1.0, v_2=0.0, v_4=1.0, "
    "w_m2=2.0943951023931953, w_0=10.471975511965978, w_2=2.0943951023931953, x_m3=0.0)"
)
EXAMPLE_SPEC_PICKLE = (
    b"\x80\x04\x95\x8d\x00\x00\x00\x00\x00\x00\x00\x8c\x11doublewell.params\x94"
    b"\x8c\x08WellSpec\x94\x93\x94)\x81\x94]\x94(G?\xf0\x00\x00\x00\x00\x00\x00"
    b"G@\x00\x00\x00\x00\x00\x00\x00G?\xf0\x00\x00\x00\x00\x00\x00"
    b"G\x00\x00\x00\x00\x00\x00\x00\x00G?\xf0\x00\x00\x00\x00\x00\x00"
    b"G\x00\x00\x00\x00\x00\x00\x00\x00G?\xf0\x00\x00\x00\x00\x00\x00"
    b"G@\x00\xc1R8-seG@$\xf1\xa6\xc68\xd0?G@\x00\xc1R8-seG\x00\x00\x00\x00\x00\x00\x00\x00eb."
)
EXAMPLE_SPLITTING_PICKLE = (
    b"\x80\x04\x95w\x00\x00\x00\x00\x00\x00\x00\x8c\x14doublewell.tunneling\x94"
    b"\x8c\x0fSplittingResult\x94\x93\x94)\x81\x94N}\x94(\x8c\x05e_bar\x94"
    b"G?\xcf\xff\xff\xff\xff\xff\xfe\x8c\x07delta_e\x94G>\x1e`3\x14\x00\x00\x00"
    b"\x8c\x02e0\x94G?\xcf\xff\xff\xfc3\xf9\x9b\x8c\x02e1\x94G?\xd0\x00\x00\x01\xe6\x030u\x86\x94b."
)

# Protocol-4 pickle of Parity.EXCITED from before Parity moved to params.
PARITY_PICKLE_NAMING_TUNNELING = (
    b"\x80\x04\x951\x00\x00\x00\x00\x00\x00\x00\x8c\x14doublewell.tunneling\x94"
    b"\x8c\x06Parity\x94\x93\x94\x8c\x07excited\x94\x85\x94R\x94."
)


def test_parity_pickles_by_params_and_reads_pickles_that_name_tunneling():
    excited = pickle.dumps(Parity.EXCITED, protocol=4)
    assert b"\x8c\x11doublewell.params\x94\x8c\x06Parity" in excited
    assert pickle.loads(excited) is Parity.EXCITED
    assert pickle.loads(PARITY_PICKLE_NAMING_TUNNELING) is Parity.EXCITED


def test_every_exported_dataclass_is_a_record_or_the_spec():
    exported = {
        name for name in doublewell.__all__
        if dataclasses.is_dataclass(getattr(doublewell, name))
    }
    assert exported == {*RECORDS, "WellSpec"}


@pytest.mark.parametrize("name", RECORDS)
def test_record_is_a_plain_slotted_dataclass(name):
    # Fails while the records are frozen: a frozen __init__ stores each field
    # through object.__setattr__.
    cls = getattr(doublewell, name)
    assert dataclasses.is_dataclass(cls)
    assert "__slots__" in vars(cls)
    assert cls.__dictoffset__ == 0  # instances carry no __dict__
    assert not cls.__dataclass_params__.frozen
    assert cls.__hash__ is None


def test_record_takes_no_attribute_outside_its_fields(example_spec):
    # Fails while the records are frozen.
    record = solve_double_well(example_spec).splitting
    record.delta_e = 0.0
    assert record.delta_e == 0.0
    with pytest.raises(AttributeError):
        record.not_a_field = 1.0


def test_record_equals_only_a_record_of_its_own_class(example_spec):
    shot = shoot(example_spec, 0.25)
    values = (shot.energy, shot.phase, shot.residual)

    @record
    class ShootResult:  # the same name, fields and values, another class
        energy: float
        phase: float
        residual: float

    twin = ShootResult(*values)
    for other in (values, twin):
        assert shot.__eq__(other) is NotImplemented
        assert shot != other and other != shot
    assert shot == type(shot)(*values)


def test_well_spec_stays_frozen_and_hashable(example_spec):
    assert example_spec.__dataclass_params__.frozen
    with pytest.raises(dataclasses.FrozenInstanceError):
        example_spec.mass = 3.0
    with pytest.raises(dataclasses.FrozenInstanceError, match=r"^cannot delete field 'mass'$"):
        del example_spec.mass
    with pytest.raises(
        dataclasses.FrozenInstanceError, match=r"^cannot assign to field 'not_a_field'$"
    ):
        example_spec.not_a_field = 1
    assert example_spec.mass == 2.0
    assert hash(example_spec) == hash(WellSpec(**dataclasses.asdict(example_spec)))
    assert {example_spec: 1}[dataclasses.replace(example_spec)] == 1


def test_shifted_spec_round_trips_with_its_hash(example_spec):
    spec = dataclasses.replace(example_spec, x_m3=-1.25)
    assert spec.x_m3 == -1.25 and spec != example_spec
    clones = (pickle.loads(pickle.dumps(spec)), copy.deepcopy(spec), dataclasses.replace(spec))
    for clone in clones:
        assert clone is not spec
        assert clone == spec
        assert hash(clone) == hash(spec)
        assert clone.x_m3 == -1.25


def test_well_spec_signature_lists_the_fields():
    params = inspect.signature(WellSpec).parameters
    assert tuple(params) == WellSpec.__match_args__
    assert len(params) == 11
    defaults = {name: p.default for name, p in params.items() if p.default is not p.empty}
    assert defaults == {"x_m3": 0.0}


def example_records(spec):
    """The worked example's spec and one instance of every record."""
    result = solve_double_well(spec)
    base = symmetric_base(spec)
    return {
        "WellSpec": spec,
        "ReducedParams": result.reduced,
        "IsolatedWellSolution": result.left,
        "BarrierCoupling": result.coupling,
        "CoupledSolution": result.excited,
        "SplittingResult": result.splitting,
        "DoubleWellResult": result,
        "SymmetricBase": base,
        "PerturbedLevels": perturbed_levels(base, 1e-9),
        "DeltaLedger": delta_ledger(base, result.reduced, 1e-9),
        "WavefunctionModel": assemble(spec, result.reduced, result.excited),
        "ShootResult": shoot(spec, result.ground.energy),
        "OracleComparison": compare(spec),
    }


@pytest.mark.parametrize("name", SPEC_AND_RECORDS)
def test_dataclass_metadata_matches_the_record(name):
    cls = getattr(doublewell, name)
    fields = dataclasses.fields(cls)
    assert tuple(f.name for f in fields) == cls.__match_args__
    for f in fields:
        assert f.type == NOT_FLOAT.get((name, f.name), "float")
        assert f.default_factory is dataclasses.MISSING
    defaults = {f.name: f.default for f in fields if f.default is not dataclasses.MISSING}
    assert defaults == ({"x_m3": 0.0} if name == "WellSpec" else {})
    params = cls.__dataclass_params__
    assert (params.init, params.repr, params.eq, params.order, params.unsafe_hash) == (
        True, True, True, False, False,
    )
    assert params.frozen == (name == "WellSpec")
    assert getattr(params, "slots", True)  # recorded from Python 3.12 on


# Reads one record's metadata first, then prints every record's field names,
# defaults and frozen flag, and whether a base class holds dataclass metadata.
METADATA_PROBE = """
import dataclasses, sys
import doublewell
getattr(doublewell, sys.argv[1]).__dataclass_fields__
for name in sys.argv[2:]:
    cls = getattr(doublewell, name)
    fields = dataclasses.fields(cls)
    defaults = {f.name: f.default for f in fields if f.default is not dataclasses.MISSING}
    shared = any("__dataclass_fields__" in vars(base) for base in cls.__mro__[1:])
    print(name, [f.name for f in fields] == list(cls.__match_args__), defaults,
          cls.__dataclass_params__.frozen, shared)
"""


@pytest.mark.parametrize("first", SPEC_AND_RECORDS)
def test_reading_one_records_metadata_leaves_the_others_intact(first):
    # A fresh interpreter per case: the metadata is built once per process.
    proc = subprocess.run(
        [sys.executable, "-c", METADATA_PROBE, first, *SPEC_AND_RECORDS],
        capture_output=True, text=True, env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        f"{name} True {{'x_m3': 0.0}} True False" if name == "WellSpec"
        else f"{name} True {{}} False False"
        for name in SPEC_AND_RECORDS
    ]


def test_example_spec_prints_and_pickles_as_before(example_spec):
    assert repr(example_spec) == EXAMPLE_SPEC_REPR
    splitting = solve_double_well(example_spec).splitting
    pairs = ((example_spec, EXAMPLE_SPEC_PICKLE), (splitting, EXAMPLE_SPLITTING_PICKLE))
    for record, data in pairs:
        assert pickle.loads(data) == record
        assert pickle.dumps(record, protocol=4) == data


@pytest.mark.parametrize("name", SPEC_AND_RECORDS)
def test_record_round_trips_by_value(example_spec, name):
    record = example_records(example_spec)[name]
    assert type(record).__name__ == name
    clones = (
        pickle.loads(pickle.dumps(record)), copy.deepcopy(record), dataclasses.replace(record),
    )
    for clone in clones:
        assert clone is not record
        assert type(clone) is type(record)
        assert clone == record
        assert repr(clone) == repr(record)
    data = dataclasses.asdict(record)
    assert tuple(data) == record.__match_args__
    # asdict turns nested records into dicts; a record of plain values rebuilds.
    values = [getattr(record, key) for key in data]
    if not any(isinstance(v, tuple) or dataclasses.is_dataclass(v) for v in values):
        assert type(record)(**data) == record


@pytest.mark.parametrize("parity", list(Parity))
def test_assembly_builds_one_model(monkeypatch, example_spec, parity):
    # Fails while the normalized amplitudes go into a second model.
    builds = []
    init = WavefunctionModel.__init__

    def counting_init(self, *args, **kwargs):
        builds.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(WavefunctionModel, "__init__", counting_init)
    result = solve_double_well(example_spec)
    solution = result.ground if parity == Parity.GROUND else result.excited
    assemble(example_spec, result.reduced, solution)
    assert len(builds) == 1
    assemble_at_energy(example_spec, result.reduced, parity, solution.energy)
    assert len(builds) == 2
