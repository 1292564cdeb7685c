"""Result records: slotted dataclasses that compare, print and pickle by
value but are neither frozen nor hashable; the input WellSpec stays frozen."""

import copy
import dataclasses
import pickle

import pytest

import doublewell
from doublewell import (
    Parity,
    WavefunctionModel,
    WellSpec,
    assemble,
    assemble_at_energy,
    compare,
    solve_double_well,
)

RECORDS = (
    "ReducedParams", "IsolatedWellSolution", "BarrierCoupling", "CoupledSolution",
    "SplittingResult", "DoubleWellResult", "SymmetricBase", "PerturbedLevels",
    "DeltaLedger", "WavefunctionModel", "ShootResult", "OracleComparison",
)


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


def test_well_spec_stays_frozen_and_hashable(example_spec):
    assert example_spec.__dataclass_params__.frozen
    with pytest.raises(dataclasses.FrozenInstanceError):
        example_spec.mass = 3.0
    assert hash(example_spec) == hash(WellSpec(**dataclasses.asdict(example_spec)))
    assert {example_spec: 1}[dataclasses.replace(example_spec)] == 1


def _excited_model(spec):
    result = solve_double_well(spec)
    return assemble(spec, result.reduced, result.excited)


BUILDERS = {
    "DoubleWellResult": solve_double_well,
    "WavefunctionModel": _excited_model,
    "OracleComparison": compare,
}


@pytest.mark.parametrize("name", BUILDERS)
def test_record_round_trips_by_value(example_spec, name):
    record = BUILDERS[name](example_spec)
    assert type(record).__name__ == name
    for clone in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
        assert clone is not record
        assert type(clone) is type(record)
        assert clone == record
        assert repr(clone) == repr(record)


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
