"""Differential tests of the batched envelope read, LimitOracle.predicate_values.

The reference is the scan each cache miss made before misses were read in
batches (``oracle_state.full_scan_value``): one row gather of every pin
column per coordinate of the tuple, summed, and one ``min``.  The batch must
give its values on random batches of arity 1 to 3, with repeated tuples,
shared prefixes and a mix of cached and uncached tuples; refuse an
unrealized slot, a wrong arity and an unknown point with the messages
predicate_value gave; and cache nothing from a refused batch.  grow caches
the values its walk decided only once the step is committed, and replay
caches nothing.
"""
import re
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from urysohn.engine import LimitOracle, OracleGrowthError, RelExtension
from urysohn.files import oracle_file, parse_structure_file, replay_oracle, serialize_structure
from urysohn.metric import fin_metric, single_point
from urysohn.relational import indexed_structure, tuples_over

from oracle_state import full_scan_value, stale_cache_entries, walked_keys
from test_grow_reference import grown_rel_oracle

F = Fraction


def random_batch(rng, o, n, size):
    """``size`` arity-``n`` tuples: most share one of a few prefixes and one
    of a few last points, some repeat an earlier tuple, the rest are free."""
    pts = list(o.points)
    # prefixes over two points, so that distinct prefixes share points too
    few = [rng.choice(pts) for _ in range(2)]
    heads = [tuple(rng.choice(few) for _ in range(n - 1)) for _ in range(rng.randint(1, 3))]
    lasts = [rng.choice(pts) for _ in range(rng.randint(1, 3))]
    batch = []
    for _ in range(size):
        r = rng.random()
        if r < 0.5:
            batch.append(rng.choice(heads) + (rng.choice(lasts),))
        elif r < 0.7 and batch:
            batch.append(rng.choice(batch))
        else:
            batch.append(tuple(rng.choice(pts) for _ in range(n)))
    return batch


def check_batches(rng, o, seen):
    """Random batches on the realized slots of ``o`` against the full scan;
    ``seen`` counts what they covered."""
    slots = sorted(o._pins)
    for _ in range(8 if slots else 0):
        n = rng.choice(sorted({n for n, _ in slots}))
        g = rng.choice([g for m, g in slots if m == n])
        batch = random_batch(rng, o, n, rng.randint(1, 12))
        # forget part of the cache, then read part of the batch one by one
        for key in rng.sample(sorted(o._value_cache), len(o._value_cache) // 2):
            del o._value_cache[key]
        for t in batch:
            if rng.random() < 0.3:
                o.predicate_value(n, g, t)
        cached = [(n, g, t) in o._value_cache for t in batch]
        want = [full_scan_value(o, n, g, t) for t in batch]
        assert o.predicate_values(n, g, batch) == want
        assert [o._value_cache[(n, g, t)] for t in batch] == want
        seen[f"arity {n}"] += 1
        seen["pinned"] += bool(o._pins[(n, g)].neg)
        seen["repeats"] += len(set(batch)) < len(batch)
        seen["shared prefix"] += n > 1 and len({t[:-1] for t in batch}) < len(set(batch))
        seen["hits and misses"] += any(cached) and not all(cached)
    assert stale_cache_entries(o) == {}


def test_whole_tables_match_the_full_scan():
    """Every tuple of every realized slot in one uncached batch: every
    prefix and every last point, on arities 1 to 3."""
    arities = set()
    for seed in range(20):
        o = grown_rel_oracle(Random(seed), 10, max_arity=3)
        o._value_cache.clear()
        for n, g in sorted(o._pins):
            tups = list(tuples_over(o.points, n))
            assert o.predicate_values(n, g, tups) == [full_scan_value(o, n, g, t) for t in tups]
            arities.add(n)
    assert arities == {1, 2, 3}


@given(st.integers(min_value=0, max_value=2**32))
@settings(max_examples=40, deadline=None)
def test_batched_reads_match_the_full_scan(seed):
    rng = Random(seed)
    o = grown_rel_oracle(rng, rng.randint(3, 10), max_arity=3)
    check_batches(rng, o, dict.fromkeys(
        ["arity 1", "arity 2", "arity 3", "pinned", "repeats", "shared prefix",
         "hits and misses"], 0))


def test_batches_reach_every_case():
    seen = dict.fromkeys(
        ["arity 1", "arity 2", "arity 3", "pinned", "repeats", "shared prefix",
         "hits and misses"], 0)
    for seed in range(20):
        rng = Random(seed)
        check_batches(rng, grown_rel_oracle(rng, 10, max_arity=3), seen)
    assert all(count >= 5 for count in seen.values()), seen


def pinned_oracle():
    """u1 pinned at 1/2 on slot (1, 1), and u2 at distance 1 from it."""
    o = LimitOracle()
    one = indexed_structure(single_point("x"), pred={(1, 1, ("x",)): F(1, 2)}, bound=1)
    o.grow({}, rel=RelExtension(one, {}, {(1, 1): None}))
    o.grow({"u1": F(1)})
    return o


@pytest.mark.parametrize(
    "n, g, batch, message",
    [
        (1, 2, [("u1",)], "global slot (1, 2) not realized"),
        (2, 1, [("u1", "u2")], "global slot (2, 1) not realized"),
        (1, 1, [("u2",), ("u1", "u2")], "tuple ('u1', 'u2') has arity 2, slot (1, 1) wants 1"),
        (1, 1, [("u2",), ()], "tuple () has arity 0, slot (1, 1) wants 1"),
        (1, 1, [("u2",), ("u9",)], "tuple ('u9',) has a point outside the oracle"),
    ],
)
def test_a_refused_batch_names_the_fault_and_caches_nothing(n, g, batch, message):
    o = pinned_oracle()
    o._value_cache.clear()
    with pytest.raises(KeyError, match=re.escape(message)):
        o.predicate_values(n, g, batch)
    assert o._value_cache == {}
    with pytest.raises(KeyError, match=re.escape(message)):
        o.predicate_value(n, g, batch[-1])
    assert o._value_cache == {}
    assert o.predicate_values(1, 1, [("u2",), ("u1",), ("u2",)]) == [0, F(1, 2), 0]


def test_grow_caches_its_walk_only_after_the_commit():
    # the non-Lipschitz extension the CI step feeds `urysohn grow`: a fresh
    # slot at 0 on u1 and at 2 on a point 1/2 away
    o = LimitOracle()
    x = indexed_structure(single_point("x"), pred={(1, 1, ("x",)): F(0)}, bound=1)
    result = o.grow({}, rel=RelExtension(x, {}, {(1, 1): None}))
    assert o._value_cache == {(1, 1, ("u1",)): 0}
    bad = indexed_structure(
        fin_metric(["x", "y"], {("x", "y"): F(1, 2)}),
        pred={(1, 1, ("x",)): F(0), (1, 1, ("y",)): F(2)},
        bound=1,
    )
    before = dict(o._value_cache)
    with pytest.raises(OracleGrowthError, match="born inconsistent"):
        o.grow({"u1": F(1, 2)}, rel=RelExtension(bad, {"x": "u1"}, {(1, 1): None}))
    assert o._value_cache == before
    assert result.slot_globals == {(1, 1): 1}


@pytest.mark.parametrize(
    "at_base, at_x, fault",
    [(F(1), F(0), "disagrees on base"), (F(1, 2), F(3), "overshoots")],
)
def test_a_refused_request_on_a_realized_slot_caches_no_base_value(at_base, at_x, fault):
    # the walk reads E(u1) = 1/2 before it refuses; that read is not cached
    o = pinned_oracle()
    o._value_cache.clear()
    ext = indexed_structure(
        fin_metric(["b", "x"], {("b", "x"): F(1)}),
        pred={(1, 1, ("b",)): at_base, (1, 1, ("x",)): at_x},
        bound=1,
    )
    with pytest.raises(OracleGrowthError, match=fault):
        o.grow({"u1": F(1)}, rel=RelExtension(ext, {"b": "u1"}, {(1, 1): 1}))
    assert o._value_cache == {}
    ext = indexed_structure(
        fin_metric(["b", "x"], {("b", "x"): F(1)}),
        pred={(1, 1, ("b",)): F(1, 2), (1, 1, ("x",)): F(1)},
        bound=1,
    )
    rel = RelExtension(ext, {"b": "u1"}, {(1, 1): 1})
    result = o.grow({"u1": F(1)}, rel=rel)
    assert o._value_cache == walked_keys(rel, result) == {
        (1, 1, ("u1",)): F(1, 2), (1, 1, ("u3",)): F(1)
    }
    assert stale_cache_entries(o) == {}


@given(st.integers(min_value=0, max_value=2**32))
@settings(max_examples=20, deadline=None)
def test_replay_caches_nothing(seed):
    o = grown_rel_oracle(Random(seed), 8, max_arity=3)
    text = serialize_structure("ORACLE", oracle_file(o))
    r = replay_oracle(parse_structure_file(text).value)
    assert r._value_cache == {}
    for key, v in o._value_cache.items():
        assert r.predicate_value(*key) == v
