"""Bounded memory on the write and rescale paths, with unchanged bytes.

A rescale rewrites the oracle's rows in place, one row at a time, and keeps
each distance one int object shared by both orders.  A log is written one
growth block at a time, and its bytes are the serialized log's.
"""
import tracemalloc
from fractions import Fraction as F
from random import Random

import pytest

from urysohn import cli
from urysohn.engine import LimitOracle
from urysohn.files import (
    oracle_chunks,
    oracle_file,
    parse_structure_file,
    replay_oracle,
    serialize_structure,
)

from test_grow_reference import grown_rel_oracle
from test_validate_reference import decorated_oracle

ORACLES = {
    "rel": lambda: grown_rel_oracle(Random(3), 20),
    "prod+lip": lambda: decorated_oracle(Random(5), ("prod", "lip")),
    "lip": lambda: decorated_oracle(Random(9), ("lip",)),
}


def plain_oracle(rng, points):
    """Points at random distances from one earlier point each; the
    denominators 3, 5 and 7 force rescales along the way."""
    o = LimitOracle()
    o.grow({})
    while len(o) < points:
        o.grow({rng.choice(o.points): F(rng.randint(1, 12), rng.choice([1, 2, 3, 5, 7]))})
    return o


def wide_oracle(rng, points):
    """Points whose base is every earlier point, each at r beyond a random
    centre c: e_b = d(c, b) + r is Katetov on the base, and every block of
    the log holds one line per earlier point, so the log is quadratic."""
    o = LimitOracle()
    o.grow({})
    while len(o) < points:
        c = rng.choice(o.points)
        r = F(rng.randint(1, 12), rng.choice([1, 2, 3, 5, 7]))
        o.grow({b: o.distance(c, b) + r for b in o.points})
    return o


def shares_each_distance(o):
    rows = o._rows
    return all(rows[i][j] is rows[j][i] for i in range(len(rows)) for j in range(i))


@pytest.mark.parametrize("kind", sorted(ORACLES))
def test_streamed_log_equals_the_serialized_log(tmp_path, kind):
    o = ORACLES[kind]()
    assert o.log
    path = tmp_path / "o.log"
    cli._save_oracle(o, str(path))
    text = serialize_structure("ORACLE", oracle_file(o))
    assert path.read_bytes() == text.encode("utf-8")
    chunks = list(oracle_chunks(oracle_file(o)))
    assert len(chunks) == len(o) + 1
    assert all(c.endswith("\n") for c in chunks)
    assert [c.split(None, 2)[1] for c in chunks[1:]] == list(o.points)


def test_saving_a_log_holds_one_block_not_the_log(tmp_path):
    o = wide_oracle(Random(1), 150)
    path = tmp_path / "o.log"
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        cli._save_oracle(o, str(path))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert size > 150_000
    assert peak < size / 2, (peak, size)


def test_a_rescale_keeps_the_rows_and_shares_each_distance():
    o = plain_oracle(Random(4), 30)
    rows, inner = o._rows, list(o._rows)
    want = [dict(rec.dists) for rec in o.log]
    den = o.den
    o.grow({o.points[0]: F(1, 11)})
    assert o.den % 11 == 0 and o.den != den
    assert o._rows is rows
    assert all(a is b for a, b in zip(o._rows, inner))
    assert [dict(rec.dists) for rec in o.log[:-1]] == want
    assert shares_each_distance(o)
    assert o.validate_state() == []
    replayed = replay_oracle(parse_structure_file(serialize_structure("ORACLE", oracle_file(o))).value)
    assert replayed.den == o.den and replayed._rows == o._rows
    assert shares_each_distance(replayed)
