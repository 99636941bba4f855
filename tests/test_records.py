"""Record semantics: every rsl record is a frozen slotted class on
``shapes.Record`` whose equality, hash and repr read its fields in order."""

import copy
import pickle

import pytest

from rsl import bars
from rsl.bars import BarInsertion, CoverLabel, DescentWord
from rsl.core import ChainType, enumerate_facet_orbits
from rsl.flags import FlagTable, full_table
from rsl.orders import BlockOrder, length_lex
from rsl.partitioning import PartitionFailure, order_facets
from rsl.shapes import RankSet, Record, Shape
from rsl.vanishing import RankSetShape, WitnessChain

CHAIN = enumerate_facet_orbits(4, Shape((4,)))[0]
TABLE = full_table(4, (4,))

# (class, constructor arguments); each call builds a new, equal record
CASES = [
    (Shape, ((4, 4),)),
    (RankSet, (6, {2})),
    (ChainType, tuple(getattr(CHAIN, name) for name in ChainType.__slots__)),
    (FlagTable, (TABLE.n, TABLE.shape, TABLE.f, TABLE.h)),
    (BlockOrder, ("length-lex", length_lex().key)),
    (PartitionFailure, (3, "coverage", "detail")),
    (BarInsertion, (2, (0, 2), (2, 0), 0)),
    (CoverLabel, (2, 1, (1, 2), (1,), ((2,), (1,)), 1)),
    (DescentWord, ("ADA",)),
    (RankSetShape, ("initial-plus-tail", 1, (4,))),
    (WitnessChain, (CHAIN, 2)),
    (bars._Steps, (((1,), (1,)), ((0, (2,)),), ((),), (None,))),
]
IDS = [cls.__name__ for cls, _ in CASES]


@pytest.mark.parametrize("cls, args", CASES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls, args):
    record = cls(*args)
    assert isinstance(record, Record)
    for name in cls.__slots__:
        value = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is value
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("cls, args", CASES, ids=IDS)
def test_equal_fields_are_equal_records_of_one_class(cls, args):
    record, again = cls(*args), cls(*args)
    assert record == again and not record != again
    if cls is FlagTable:  # its f and h are dicts
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(again)
        assert len({record, again}) == 1

    # another record class with the same fields and values
    twin_cls = type("Twin", (Record,), {"__slots__": cls.__slots__})
    twin = object.__new__(twin_cls)
    for name in cls.__slots__:
        object.__setattr__(twin, name, getattr(record, name))
    assert record != twin and twin != record
    assert record != tuple(getattr(record, name) for name in cls.__slots__)


@pytest.mark.parametrize("cls, args", CASES, ids=IDS)
def test_copies_are_equal_records(cls, args):
    record = cls(*args)
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(twin) is cls and twin == record


def test_block_order_equality_ignores_the_key():
    one = BlockOrder("custom", lambda c: (sum(c),))
    other = BlockOrder("custom", lambda c: (-sum(c),))
    assert one == other and hash(one) == hash(other)
    assert one != BlockOrder("custom", one.key, s=0)
    assert one != BlockOrder("other", one.key)


def test_repr_lists_the_fields_in_order():
    assert repr(Shape((4, 4))) == "Shape(parts=(4, 4))"
    assert repr(RankSet(6, {2})) == "RankSet(n=6, ranks=frozenset({2}), dual=False)"
    assert repr(BarInsertion(2, (0, 2), (2, 0), 0)) == (
        "BarInsertion(position=2, left=(0, 2), right=(2, 0), parent_rank=0)"
    )


def test_constructor_checks_still_fire():
    with pytest.raises(ValueError, match="weakly decreasing"):
        Shape((1, 2))
    with pytest.raises(ValueError, match=r"ranks \[4\] outside \[1, 3\]"):
        RankSet(5, {4})
    with pytest.raises(ValueError, match="descent word"):
        DescentWord("AX")
    assert RankSet(5, [1, 3]).ranks == frozenset({1, 3})


def test_partition_scheme_fields_stay_assignable():
    scheme = order_facets(4, (4,))
    assert scheme.status == "ordered" and scheme.failures == () and scheme.minimal_faces is None
    scheme.status = "failed"
    scheme.failures = (PartitionFailure(-1, "coverage", "detail"),)
    assert scheme.status == "failed" and scheme.failures[0].reason == "coverage"
    with pytest.raises(AttributeError):
        scheme.extra = 1  # slotted
