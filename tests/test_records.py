"""Every record that holds an array keeps a read-only copy of what it checked.

The rule lives in `signal_io.ArrayRecord`: a caller's later edit of an array
it passed in cannot reach the record, no array field accepts writes, and a
pickle or copy goes back through the constructor.
"""

import copy
import dataclasses
import importlib
import pickle
import pkgutil

import numpy as np
import pytest

import psverify
from psverify.decision import DistanceReport, DistanceWeights
from psverify.features import CepstralVector
from psverify.modeling import SpeakerModel
from psverify.pitch import HalfPeaks, PitchMarks
from psverify.signal_io import ArrayRecord, SampleBuffer

# fresh, small, valid constructor arguments per record; arrays come in with
# the dtype the record stores, so a record that kept one would share it
ARGS = {
    SampleBuffer: lambda: (np.array([0.5, -0.25, 1.0]), 16000),
    HalfPeaks: lambda: (np.array([1, -1], dtype=np.int8), np.array([1, 4]),
                        np.array([0.5, -0.25]), np.array([0.75, 0.0])),
    PitchMarks: lambda: (np.array([3, 40, 81]), -1),
    CepstralVector: lambda: (np.linspace(-1.0, 1.0, 12),),
    SpeakerModel: lambda: ("s01", "e", np.linspace(0.5, 2.0, 16), 3),
    DistanceWeights: lambda: (np.arange(1.0, 13.0), np.full(4, 0.5)),
    DistanceReport: lambda: (np.array([1.5, 0.25]), np.array([2.0, 3.0]), "b", "a", ("a", "b")),
}


def array_fields(cls) -> list[str]:
    return [f.name for f in dataclasses.fields(cls) if f.type is np.ndarray]


def arrays_of(record) -> dict[str, np.ndarray]:
    return {name: getattr(record, name) for name in array_fields(type(record))}


def test_every_dataclass_holding_an_array_is_an_array_record():
    holders = set()
    for info in pkgutil.iter_modules(psverify.__path__):
        module = importlib.import_module(f"psverify.{info.name}")
        for obj in vars(module).values():
            if (isinstance(obj, type) and obj.__module__ == module.__name__
                    and dataclasses.is_dataclass(obj) and array_fields(obj)):
                holders.add(obj)
    strays = sorted(cls.__qualname__ for cls in holders if not issubclass(cls, ArrayRecord))
    assert not strays, f"dataclasses with np.ndarray fields outside ArrayRecord: {strays}"
    # and every one of them is covered by the tests below
    assert holders == set(ARGS)


@pytest.mark.parametrize("cls", ARGS, ids=lambda cls: cls.__name__)
def test_a_callers_later_edit_does_not_reach_the_record(cls):
    args = ARGS[cls]()
    record = cls(*args)
    before = {name: arr.copy() for name, arr in arrays_of(record).items()}
    for value in args:
        if isinstance(value, np.ndarray):
            value[...] = 99
    for name, arr in arrays_of(record).items():
        assert np.array_equal(arr, before[name]), name


@pytest.mark.parametrize("cls", ARGS, ids=lambda cls: cls.__name__)
def test_every_array_field_refuses_writes(cls):
    for name, arr in arrays_of(cls(*ARGS[cls]())).items():
        assert not arr.flags.writeable, name
        with pytest.raises(ValueError, match="read-only"):
            arr[:1] = 0


@pytest.mark.parametrize("duplicate", [lambda r: pickle.loads(pickle.dumps(r)), copy.copy, copy.deepcopy],
                         ids=["pickle", "copy", "deepcopy"])
@pytest.mark.parametrize("cls", ARGS, ids=lambda cls: cls.__name__)
def test_a_duplicate_holds_equal_read_only_arrays(cls, duplicate):
    record = cls(*ARGS[cls]())
    twin = duplicate(record)
    assert type(twin) is cls
    for f in dataclasses.fields(cls):
        mine, theirs = getattr(record, f.name), getattr(twin, f.name)
        if f.type is np.ndarray:
            assert theirs.dtype == mine.dtype and np.array_equal(theirs, mine), f.name
            assert not theirs.flags.writeable, f.name
        else:
            assert theirs == mine, f.name
