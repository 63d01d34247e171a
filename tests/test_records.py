"""The contract of the package's immutable records: construction with
today's signatures and defaults, equality only within one class, hashing,
repr, immutability, and pickle/deepcopy round trips."""
import copy
import pickle

import pytest

from acmchar import (
    Codim3Decomposition,
    CurveInvariants,
    DGEntry,
    DGTable,
    Decomposition,
    IntFun,
    MacaulayExpansion,
    MacaulayFn,
    NecessaryCheck,
    QuadricCheck,
    SurfaceInvariants,
    enumerate_acm_curves,
)

F = IntFun(0, (-1, 1))
G = IntFun(2, (1,))
W = Codim3Decomposition((F, G))

# (record built positionally, the same built by keyword, its repr)
CASES = [
    (IntFun(0, (-1, 0, 1)), IntFun(offset=0, values=(-1, 0, 1)),
     "IntFun(offset=0, values=(-1, 0, 1))"),
    (MacaulayExpansion(((4, 2), (1, 1))), MacaulayExpansion(terms=((4, 2), (1, 1))),
     "MacaulayExpansion(terms=((4, 2), (1, 1)))"),
    (NecessaryCheck(True, 2), NecessaryCheck(ok=True, s0=2, failure=None),
     "NecessaryCheck(ok=True, s0=2, failure=None)"),
    (CurveInvariants(4, 0), CurveInvariants(d=4, g=0),
     "CurveInvariants(d=4, g=0)"),
    (SurfaceInvariants(3, -3, 1), SurfaceInvariants(d=3, delta=-3, p_a=1),
     "SurfaceInvariants(d=3, delta=-3, p_a=1)"),
    (MacaulayFn(IntFun(0, (1, 2))), MacaulayFn(h=IntFun(0, (1, 2))),
     "MacaulayFn(h=IntFun(offset=0, values=(1, 2)))"),
    (Decomposition((F,)), Decomposition(parts=(F,)),
     "Decomposition(parts=(IntFun(offset=0, values=(-1, 1)),))"),
    (W, Codim3Decomposition(parts=(F, G)),
     "Codim3Decomposition(parts=(IntFun(offset=0, values=(-1, 1)), "
     "IntFun(offset=2, values=(1,))))"),
    (QuadricCheck(True, 3, 4), QuadricCheck(valid=True, t=3, s=4),
     "QuadricCheck(valid=True, t=3, s=4)"),
    (DGEntry(4, 0, (W,)), DGEntry(d=4, g=0, witnesses=(W,)),
     "DGEntry(d=4, g=0, witnesses=(Codim3Decomposition(parts=("
     "IntFun(offset=0, values=(-1, 1)), IntFun(offset=2, values=(1,)))),))"),
    (DGTable(()), DGTable(entries=()), "DGTable(entries=())"),
]
IDS = [type(c[0]).__name__ for c in CASES]


def test_defaults():
    assert IntFun() == IntFun(0, ()) == IntFun(values=())
    assert IntFun(values=(0, 5)) == IntFun(1, (5,))
    assert NecessaryCheck(False, None).failure is None


@pytest.mark.parametrize("record, by_keyword, text", CASES, ids=IDS)
def test_keyword_construction_and_repr(record, by_keyword, text):
    assert record == by_keyword
    assert not record != by_keyword
    assert repr(record) == repr(by_keyword) == text


@pytest.mark.parametrize("record, by_keyword, text", CASES, ids=IDS)
def test_equal_records_hash_equal(record, by_keyword, text):
    assert hash(record) == hash(by_keyword)
    assert len({record, by_keyword}) == 1


def test_equality_needs_the_same_class():
    c, d = Codim3Decomposition((F, G)), Decomposition((F, G))
    assert c.parts == d.parts
    assert c != d and d != c
    assert not c == d
    assert CurveInvariants(4, 0) != (4, 0)
    assert CurveInvariants(4, 0) != SurfaceInvariants(4, 0, 0)
    assert IntFun(0, (1,)) != MacaulayFn(IntFun(0, (1,)))


@pytest.mark.parametrize("record, by_keyword, text", CASES, ids=IDS)
def test_fields_cannot_change(record, by_keyword, text):
    name = text[text.index("(") + 1:text.index("=")]
    value = getattr(record, name)
    with pytest.raises(AttributeError):
        setattr(record, name, value)
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.other = 1
    assert getattr(record, name) is value


@pytest.mark.parametrize("record, by_keyword, text", CASES, ids=IDS)
def test_records_carry_no_instance_dict(record, by_keyword, text):
    """The fields live in __slots__: 14,558 witnesses at D = 32 would
    otherwise carry a dict each."""
    assert not hasattr(record, "__dict__")


def _round_trips(record):
    for other in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record),
                  copy.copy(record)):
        assert type(other) is type(record)
        assert other == record
        assert hash(other) == hash(record)
        assert repr(other) == repr(record)


@pytest.mark.parametrize("record, by_keyword, text", CASES, ids=IDS)
def test_pickle_and_deepcopy_round_trip(record, by_keyword, text):
    _round_trips(record)


def test_enumeration_table_round_trips():
    table = enumerate_acm_curves(6)
    assert table.entries
    _round_trips(table)
    restored = pickle.loads(pickle.dumps(table))
    assert restored.to_json() == table.to_json()
