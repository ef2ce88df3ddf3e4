"""A grown or replayed oracle is freed by reference counting alone.

The records of grown steps read their distances from the oracle's rows; if
they held the oracle itself, every oracle would sit in a reference cycle
and stay in memory until the cyclic collector ran.
"""
import gc
import weakref
from random import Random

from urysohn.files import oracle_file, parse_structure_file, replay_oracle, serialize_structure

from test_grow_reference import grown_rel_oracle
from test_validate_reference import decorated_oracle


def _freed_without_the_collector(make):
    gc.collect()
    gc.disable()
    try:
        o = make()
        assert serialize_structure("ORACLE", oracle_file(o))
        ref = weakref.ref(o)
        del o
        return ref() is None
    finally:
        gc.enable()


def test_rel_oracle_is_freed_by_reference_counting():
    assert _freed_without_the_collector(lambda: grown_rel_oracle(Random(3), 12))


def test_prod_lip_oracle_is_freed_by_reference_counting():
    assert _freed_without_the_collector(lambda: decorated_oracle(Random(5), ("prod", "lip")))


def test_replayed_oracle_is_freed_by_reference_counting():
    grown = decorated_oracle(Random(7), ("prod", "lip"))
    text = serialize_structure("ORACLE", oracle_file(grown))

    def replayed():
        o = replay_oracle(parse_structure_file(text).value, grown.compact, grown.polish)
        o.grow({o.points[-1]: o.distance(o.points[0], o.points[-1]) or 1},
               suitable=o.suitable_at(o.points[-1]), lip_index=o.lip_index_at(o.points[-1]))
        return o

    assert _freed_without_the_collector(replayed)
