"""The frozen records: read-only fields, value equality and hashing, a repr of
every field in order, validated copies through ``replace``, and copy and
pickle round trips."""

import copy
import pickle

import pytest

from mwoptical.cli import ConfigError, ScenarioConfig, SweepSpec
from mwoptical.ensemble import EnsembleConfig
from mwoptical.hydrogen import HydrogenMode, mode
from mwoptical.units import _Record

# record type -> its fields, in constructor order
FIELDS = {
    HydrogenMode: ("label", "n", "l", "omega"),
    EnsembleConfig: ("length", "area", "gas_density", "rho22_0", "ratio"),
    ScenarioConfig: ("channel", "flux_w_cm2", "detuning_mhz", "vessel_length_cm",
                     "vessel_area_cm2", "gas_density_g_cm3", "rho22_initial", "ratio_mode",
                     "ratio_value", "time_start_s", "time_stop_s", "time_steps"),
    SweepSpec: ("parameter", "minimum", "maximum", "steps", "log", "objective"),
}

VESSEL = EnsembleConfig(10.0, 1.0, 0.9e-4, 1.0e-4, 1.0)
RECORDS = [mode("2s1/2"), VESSEL, ScenarioConfig("lamb_shift", ratio_mode="custom", ratio_value=2.5),
           SweepSpec("flux_w_cm2", 0.5, 2.0, 5, log=True)]


def _name(record):
    return type(record).__name__


def _values(record):
    return [getattr(record, name) for name in FIELDS[type(record)]]


def test_every_record_type_is_covered():
    assert {type(record) for record in RECORDS} == set(FIELDS)
    assert set(_Record.__subclasses__()) == set(FIELDS)


@pytest.mark.parametrize("record", RECORDS, ids=_name)
def test_fields_cannot_be_assigned_or_deleted(record):
    name = FIELDS[type(record)][0]
    value = getattr(record, name)
    with pytest.raises(AttributeError, match="cannot assign"):
        setattr(record, name, value)
    with pytest.raises(AttributeError, match="cannot assign"):
        record.extra = 1
    with pytest.raises(AttributeError, match="cannot delete"):
        delattr(record, name)
    assert getattr(record, name) is value


@pytest.mark.parametrize("record", RECORDS, ids=_name)
def test_equal_fields_make_equal_records_with_equal_hashes(record):
    twin = type(record)(*_values(record))   # positional order is field order
    assert twin is not record
    assert twin == record and not twin != record
    assert hash(twin) == hash(record) == hash(tuple(_values(record)))
    assert record != tuple(_values(record))


def test_records_differing_in_one_field_are_unequal():
    assert SweepSpec("flux_w_cm2", 0.5, 2.0, 5) != SweepSpec("flux_w_cm2", 0.5, 2.0, 6)
    assert VESSEL != VESSEL.replace(ratio=2.0)


@pytest.mark.parametrize("record", RECORDS, ids=_name)
def test_repr_shows_every_field_in_order(record):
    fields = ", ".join(f"{name}={value!r}"
                       for name, value in zip(FIELDS[type(record)], _values(record)))
    assert repr(record) == f"{type(record).__qualname__}({fields})"


def test_replace_changes_the_named_fields_only():
    shorter = VESSEL.replace(length=3.0, ratio=2.0)
    assert _values(shorter) == [3.0, 1.0, 0.9e-4, 1.0e-4, 2.0]
    assert VESSEL.length == 10.0 and VESSEL.ratio == 1.0
    assert VESSEL.replace() == VESSEL
    with pytest.raises(TypeError):
        VESSEL.replace(volume=1.0)


def test_replace_validates_the_copy():
    with pytest.raises(ValueError, match="length: must be finite and positive"):
        VESSEL.replace(length=0.0)
    with pytest.raises(ConfigError, match="flux_w_cm2"):
        ScenarioConfig("fine_structure").replace(flux_w_cm2=-1.0)


@pytest.mark.parametrize("record", RECORDS, ids=_name)
def test_copy_deepcopy_and_pickle_round_trip(record):
    copies = [copy.copy(record), copy.deepcopy(record)]
    copies += [pickle.loads(pickle.dumps(record, protocol))
               for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for twin in copies:
        assert type(twin) is type(record)
        assert twin == record and repr(twin) == repr(record)
        with pytest.raises(AttributeError, match="cannot assign"):
            setattr(twin, FIELDS[type(record)][0], None)
