"""Stateful model test of LimitOracle: one long mixed run of valid and refused
growth requests against a rel oracle and a prod+lip oracle.

After every step, every distance, predicate value, profile and label read
earlier must read the same, in the oracle and in a replay of its serialized
log; the replay must have the same points, denominator and log bytes; and
validate_state must find nothing.  A refused request must leave the log
bytes, the denominator and the envelope cache as they were.  After each rel
growth the cache holds the values the step's walk decided, and every cached
value is what a full scan of the pins reads; a replay caches nothing.
"""
from fractions import Fraction
from random import Random

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from urysohn.engine import LimitOracle, OracleGrowthError, RelExtension
from urysohn.files import oracle_file, parse_structure_file, replay_oracle, serialize_structure
from urysohn.metric import fin_metric
from urysohn.randgen import compatible_profile
from urysohn.relational import IndexedStructure, pattern_indices, pattern_slots, tuples_over
from urysohn.spaces import CompactPresentation, PolishPresentation, suitable

from oracle_state import stale_cache_entries, walked_keys

F = Fraction

K = CompactPresentation(
    fin_metric(["q1", "q2", "q3"], {("q1", "q2"): F(1), ("q1", "q3"): F(1, 2), ("q2", "q3"): F(3, 4)})
)
Z = PolishPresentation(
    fin_metric(["z1", "z2", "z3"], {("z1", "z2"): F(1), ("z1", "z3"): F(2), ("z2", "z3"): F(3, 2)})
)
LIP = F(2)
seeds = st.integers(0, 2**32)


def log_bytes(o) -> str:
    return serialize_structure("ORACLE", oracle_file(o))


def replay(o):
    return replay_oracle(parse_structure_file(log_bytes(o)).value, compact=K, polish=Z)


def reads(o) -> dict:
    """Every value the oracle answers for: distances, predicate values on all
    tuples of the realized slots, profiles and labels."""
    pts = o.points
    out = {("d", x, y): o.distance(x, y) for x in pts for y in pts}
    for n in (1, 2):
        for g in range(1, o.realized_count(n) + 1):
            for tup in tuples_over(pts, n):
                out[("p", n, g, tup)] = o.predicate_value(n, g, tup)
    if "prod" in o.modes:
        out.update({("f", x): o.suitable_at(x) for x in pts})
    if "lip" in o.modes:
        out.update({("z", x): o.lip_index_at(x) for x in pts})
    return out


def hanging_row(rng, o):
    """A random base and the distances of a point placed r away from a random
    old point c, d(x, b) = d(c, b) + r: always feasible.  Also the path-rule
    row to every point, which grow derives from it."""
    pts = list(o.points)
    if not pts:
        return {}, {}
    base = rng.sample(pts, rng.randint(1, min(3, len(pts))))
    c = rng.choice(pts)
    r = F(rng.randint(1, 8), rng.choice([1, 2, 3, 4]))
    e = {b: o.distance(c, b) + r for b in base}
    full = {q: e.get(q, min(e[b] + o.distance(b, q) for b in base)) for q in pts}
    return e, full


def window(target, defined, tup, dist):
    """``target`` moved into the Katetov window of the values defined so far."""
    lo = max([F(0)] + [w - dist(t, tup) for t, w in defined.items()])
    hi = min([w + dist(t, tup) for t, w in defined.items()], default=None)
    v = max(target, lo)
    return v if hi is None else min(v, hi)


def rel_request(rng, o):
    """A valid one-point rel extension over a hanging row."""
    e, _ = hanging_row(rng, o)
    names = {b: f"b{i}" for i, b in enumerate(e)}
    base = list(e)
    entries = {
        (names[p], names[q]): o.distance(p, q) for i, p in enumerate(base) for q in base[i + 1 :]
    }
    entries.update({(names[b], "x"): v for b, v in e.items()})
    metric = fin_metric(list(names.values()) + ["x"], entries)
    inv = {v: k for k, v in names.items()}

    def dist(a, b):
        return sum((metric.d(x, y) for x, y in zip(a, b)), start=F(0))

    n_a = rng.randint(1, min(2, len(metric.points)))
    slot_map, fresh = {}, {}
    for n, m in pattern_slots(n_a):
        used = {g for (n2, _), g in slot_map.items() if n2 == n}
        free = [g for g in range(1, o.realized_count(n) + 1) if g not in used]
        room = o.realized_count(n) + fresh.get(n, 0) + 1 <= len(o) + 2 - n
        if free and (not room or rng.random() < 0.7):
            slot_map[(n, m)] = rng.choice(free)
        else:
            slot_map[(n, m)] = None
            fresh[n] = fresh.get(n, 0) + 1
    pred = {}
    for n, m in pattern_slots(n_a):
        g = slot_map[(n, m)]
        defined = {}
        for tup in sorted(tuples_over(metric.points, n), key=lambda t: ("x" in t, t)):
            if g is not None and "x" not in tup:
                v = o.predicate_value(n, g, tuple(inv[p] for p in tup))
            else:
                target = F(rng.randint(0, 12), rng.choice([1, 2, 3, 4, 8]))
                v = window(target, defined, tup, dist)
            defined[tup] = pred[(n, m, tup)] = v
    ext = IndexedStructure(metric, n_a, pattern_indices(n_a), pred)
    return e, RelExtension(ext, dict(inv), slot_map)


def plain_request(rng, o):
    """A valid plain request on the prod+lip oracle: a hanging row, a profile
    from compatible_profile and a label that keeps the Lipschitz bound."""
    e, full = hanging_row(rng, o)
    f = compatible_profile(rng, K, [(o.suitable_at(u), full[u]) for u in o.points])
    labels = [
        i
        for i in range(1, Z.size + 1)
        if all(Z.d_idx(i, o.lip_index_at(u)) <= LIP * full[u] for u in o.points)
    ]
    return e, f, rng.choice(labels), full


class OracleMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.oracles = {
            "rel": LimitOracle(),
            "prodlip": LimitOracle(modes=("prod", "lip"), compact=K, polish=Z, lip_const=LIP),
        }
        self.seen = {name: {} for name in self.oracles}

    @rule(seed=seeds)
    def grow_plain(self, seed):
        rng = Random(seed)
        o = self.oracles["prodlip"]
        e, f, label, _ = plain_request(rng, o)
        o.grow(e, suitable=f, lip_index=label)

    @rule(seed=seeds)
    def grow_rel(self, seed):
        rng = Random(seed)
        o = self.oracles["rel"]
        e, rel = rel_request(rng, o)
        result = o.grow(e, rel=rel)
        # grow caches the value its walk gave each entry, and every cached
        # value, read earlier or cached by grow, is the envelope's now
        walked = walked_keys(rel, result)
        assert {key: o._value_cache.get(key) for key in walked} == walked
        assert stale_cache_entries(o) == {}

    @rule(seed=seeds, which=st.sampled_from(["distance", "value", "profile", "label"]))
    def refused(self, seed, which):
        rng = Random(seed)
        o = self.oracles["rel" if which in ("distance", "value") else "prodlip"]
        before, den = log_bytes(o), o.den
        if o is self.oracles["rel"]:
            e, rel = rel_request(rng, o)
            kwargs = {"rel": rel}
        else:
            e, f, label, full = plain_request(rng, o)
            kwargs = {"suitable": f, "lip_index": label}
        if which == "distance":
            if len(e) >= 2:
                b1, b2 = list(e)[:2]
                e[b1] = e[b2] + o.distance(b1, b2) + 1  # breaks a triangle
            elif e:
                e[next(iter(e))] = F(0)
            else:
                e = {"u0": F(1)}  # a base point the oracle does not have
        elif which == "value":
            pred = dict(rel.ext.pred)
            realized = [
                key for key in pred
                if rel.slot_map[key[:2]] is not None and "x" not in key[2]
            ]
            if realized:
                key = rng.choice(realized)
                pred[key] += F(1, 2)  # disagrees with the oracle
            else:
                pred[rng.choice(sorted(pred))] = F(-1, 2)
            ext = IndexedStructure(rel.ext.metric, rel.ext.bound, rel.ext.indices, pred)
            kwargs = {"rel": RelExtension(ext, rel.base_map, rel.slot_map)}
        elif which == "profile":
            if o.points:
                u = rng.choice(o.points)
                i = rng.randint(1, K.size)
                fu = o.suitable_at(u)
                top = max((v for _, v in fu.pins), default=F(0)) + full[u] + 1
                kwargs["suitable"] = suitable({i: top})  # too far above u's profile
            else:
                kwargs["suitable"] = suitable({K.size + 1: F(1)})
        else:
            far = [
                i for i in range(1, Z.size + 1)
                if any(Z.d_idx(i, o.lip_index_at(u)) > LIP * full[u] for u in o.points)
            ]
            kwargs["lip_index"] = rng.choice(far) if far else Z.size + 1
        cache = dict(o._value_cache)
        with pytest.raises(OracleGrowthError):
            o.grow(e, **kwargs)
        assert log_bytes(o) == before
        assert o.den == den
        assert o._value_cache == cache

    @invariant()
    def realized_values_never_change(self):
        for name, o in self.oracles.items():
            now = reads(o)
            seen = self.seen[name]
            assert {key: now[key] for key in seen} == seen
            seen.update(now)

    @invariant()
    def state_is_valid(self):
        for o in self.oracles.values():
            assert o.validate_state() == []

    @invariant()
    def replay_gives_the_same_oracle(self):
        for o in self.oracles.values():
            r = replay(o)
            assert r._value_cache == {}
            assert r.points == o.points
            assert r.den == o.den
            assert log_bytes(r) == log_bytes(o)
            assert reads(r) == reads(o)


OracleMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=15, deadline=None
)
test_oracle_model = OracleMachine.TestCase
