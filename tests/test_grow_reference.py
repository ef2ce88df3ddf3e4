"""Differential tests of LimitOracle.grow against the whole-oracle reference.

The reference is the growth step as it ran before the local envelope: every
distance a rational, each new tuple on a realized slot checked 1-Lipschitz
against every stored pin of its slot in both directions, and enveloped over
all stored pins.  The oracle must agree with it on the new distance row,
the denominator, the envelope values, the stored pins and the decision to
accept or refuse; a refused request must leave the oracle unchanged.
"""
from copy import deepcopy
from fractions import Fraction
from math import lcm
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from urysohn import engine
from urysohn.engine import LimitOracle, OracleGrowthError, RelExtension
from urysohn.metric import fin_metric
from urysohn.relational import StructureK, pattern_slots, tuples_over

F = Fraction


class Refused(Exception):
    pass


def reference_growth(o, base_dists, rel):
    """Row, denominator, pins and envelope values of a rel request, or Refused."""
    base = list(base_dists)
    for i, p in enumerate(base):
        if base_dists[p] <= 0:
            raise Refused
        for q in base[i + 1 :]:
            ep, eq, dpq = base_dists[p], base_dists[q], o.distance(p, q)
            if abs(ep - eq) > dpq or dpq > ep + eq:
                raise Refused
    try:
        slot_assign, _ = o._check_rel(rel, base, base_dists)
    except OracleGrowthError:
        raise Refused from None

    full = dict(base_dists)
    others = [q for q in o.points if q not in base_dists]
    if base:
        for q in others:
            full[q] = min(base_dists[p] + o.distance(p, q) for p in base)
    elif others:
        full.update({q: o._gap(rel, None, None) for q in others})
    incoming = list(full.values()) + list(rel.ext.pred.values())
    for pins in rel.birth_pins.values():
        incoming += pins.values()
    den = lcm(o.den, *(v.denominator for v in incoming))
    if den != o.den:
        den *= 2**12

    new_id = f"u{len(o) + 1}"
    new_pt = next(p for p in rel.ext.points if p not in rel.base_map)
    trans = dict(rel.base_map)
    trans[new_pt] = new_id

    def d(x, y):
        if x == y:
            return F(0)
        if x == new_id:
            return full[y]
        if y == new_id:
            return full[x]
        return o.distance(x, y)

    def tdist(a, b):
        return sum((d(x, y) for x, y in zip(a, b)), start=F(0))

    def env(entries, t):
        return max([F(0)] + [w - tdist(p, t) for p, w in entries])

    delta, envs = {}, []
    for n, m in sorted(rel.ext.slots()):
        g = slot_assign[(n, m)]
        fresh_slot = (n, g) not in o._pins_i
        existing = [(t, F(w, o.den)) for t, w in o._pins_i.get((n, g), {}).items()]
        entries = sorted(rel.birth_pins.get((n, m), {}).items())
        for tup in sorted(tuples_over(rel.ext.points, n), key=lambda t: (new_pt in t, t)):
            entries.append((tuple(trans[p] for p in tup), rel.ext.pred[(n, m, tup)]))
        if fresh_slot:
            for i, (ta, va) in enumerate(entries):
                for tb, vb in entries[i + 1 :]:
                    if abs(va - vb) > tdist(ta, tb):
                        raise Refused
        added = {}
        for mt, v in entries:
            if fresh_slot or new_id in mt:
                if not fresh_slot:
                    # the scan the local envelope's proof replaces
                    for p, w in existing:
                        if abs(v - w) > tdist(mt, p):
                            raise Refused
                e = env(existing + list(added.items()), mt)
                envs.append((mt, e))
            else:
                e = o.predicate_value(n, g, mt)
            if v < e:
                raise Refused
            if v > e:
                added[mt] = v
        if added:
            delta[(n, g)] = added
    return full, den, delta, envs


def state_of(o):
    return (
        list(o.points),
        dict(o._dist_i),
        deepcopy(o._pins_i),
        o.den,
        dict(o.registry),
        dict(o._counts),
        len(o.log),
    )


def grow_and_compare(o, base_dists, rel):
    """Grow ``o`` by one request and check it against the reference."""
    try:
        want = reference_growth(o, base_dists, rel)
    except Refused:
        want = None
    before = state_of(o)
    envs = []

    def recording_envelope(entries, tup, dist):
        value = real_envelope(entries, tup, dist)
        if dist is not o._dist_i:  # the request's local envelopes only
            envs.append((tup, value))
        return value

    real_envelope = engine._envelope
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "_envelope", recording_envelope)
        try:
            o.grow(base_dists, rel=rel)
        except OracleGrowthError:
            assert want is None, "the oracle refused a request the reference accepts"
            assert state_of(o) == before, "a refused request changed the oracle"
            return False
    assert want is not None, "the oracle accepted a request the reference refuses"
    full, den, delta, want_envs = want
    rec = o.log[-1]
    assert rec.dists == full
    assert o.den == den
    assert rec.pins == delta
    assert [(t, F(v, den)) for t, v in envs] == want_envs
    return True


def window(target, defined, tup, dist):
    """``target`` moved into the Katetov window of the values defined so far."""
    lo = max([F(0)] + [w - dist(t, tup) for t, w in defined.items()])
    hi = min([w + dist(t, tup) for t, w in defined.items()], default=None)
    v = max(target, lo)
    return v if hi is None else min(v, hi)


def random_request(rng, o):
    """A rel request over a random base; some are refused on purpose."""
    pts = list(o.points)
    k = rng.randint(1, min(3, len(pts))) if pts and rng.random() < 0.85 else 0
    base = rng.sample(pts, k)
    if pts and rng.random() < 0.85:
        # distances from a point placed next to a random old point: feasible
        c, r = rng.choice(pts), F(rng.randint(1, 8), rng.choice([1, 2, 3, 4]))
        e = {b: (o.distance(c, b) if b != c else F(0)) + r for b in base}
    else:
        e = {b: F(rng.randint(1, 8), 4) for b in base}
    names = {b: f"b{i}" for i, b in enumerate(base)}
    entries = {
        (names[p], names[q]): o.distance(p, q) for i, p in enumerate(base) for q in base[i + 1 :]
    }
    entries.update({(names[b], "x"): v for b, v in e.items()})
    metric = fin_metric(list(names.values()) + ["x"], entries)
    inv = {v: k for k, v in names.items()}

    def dist(a, b):
        return sum((metric.d(x, y) for x, y in zip(a, b)), start=F(0))

    n_a = rng.randint(1, min(2, len(metric.points)))
    slot_map, used = {}, set()
    for n, m in pattern_slots(n_a):
        free = [g for g in range(1, o.realized_count(n) + 1) if (n, g) not in used]
        if free and rng.random() < 0.7:
            g = rng.choice(free)
            used.add((n, g))
            slot_map[(n, m)] = g
        else:
            slot_map[(n, m)] = None
    sloppy = rng.random() < 0.15
    pred, birth = {}, {}
    for n, m in pattern_slots(n_a):
        g = slot_map[(n, m)]
        defined = {}
        for tup in sorted(tuples_over(metric.points, n), key=lambda t: ("x" in t, t)):
            target = F(rng.randint(0, 12), rng.choice([1, 2, 4, 8]))
            if g is not None and "x" not in tup:
                v = o.predicate_value(n, g, tuple(inv[p] for p in tup))
            else:
                v = target if sloppy else window(target, defined, tup, dist)
            defined[tup] = pred[(n, m, tup)] = v
        if g is None and pts and rng.random() < 0.5:
            tups = [tuple(rng.choice(pts) for _ in range(n)) for _ in range(rng.randint(1, 3))]
            birth[(n, m)] = {t: F(rng.randint(0, 12), 4) for t in tups}
    if sloppy and base and rng.random() < 0.5:
        # break agreement with the oracle on one base tuple
        key = rng.choice([k for k in pred if "x" not in k[2]])
        pred[key] += F(1, 2)
    ext = StructureK(metric, n_a, pred)
    return e, RelExtension(ext, dict(inv), slot_map, birth)


@given(st.integers(min_value=0, max_value=2**32))
@settings(max_examples=60, deadline=None)
def test_grow_matches_whole_oracle_reference(seed):
    rng = Random(seed)
    o = LimitOracle()
    for _ in range(10):
        if o.points and rng.random() < 0.2:
            c = rng.choice(o.points)
            o.grow({c: F(rng.randint(1, 6), 2)})
            continue
        base_dists, rel = random_request(rng, o)
        grow_and_compare(o, base_dists, rel)
    assert o.validate_state() == []


def test_reference_sees_accepted_and_refused_requests():
    """The random requests reach every branch the differential test needs."""
    seen = {"accepted": 0, "refused": 0, "realized": 0, "birth": 0, "empty base": 0}
    for seed in range(40):
        rng = Random(seed)
        o = LimitOracle()
        for _ in range(10):
            base_dists, rel = random_request(rng, o)
            if grow_and_compare(o, base_dists, rel):
                seen["accepted"] += 1
                seen["realized"] += any(g is not None for g in rel.slot_map.values())
                seen["birth"] += bool(rel.birth_pins)
                seen["empty base"] += not base_dists
            else:
                seen["refused"] += 1
    assert all(count >= 5 for count in seen.values()), seen


def test_refused_grow_keeps_denominator_and_state():
    o = LimitOracle()
    o.grow({})
    o.grow({"u1": F(1)})
    before = state_of(o)
    # a fresh slot pinned at 5 on u2 cannot sit at 0 on a point 8/7 away;
    # the request's sevenths would have rescaled the oracle
    ext = StructureK(
        fin_metric(["b", "x"], {("b", "x"): F(1, 7)}),
        1,
        {(1, 1, ("b",)): F(0), (1, 1, ("x",)): F(0)},
    )
    rel = RelExtension(ext, {"b": "u1"}, {(1, 1): None}, {(1, 1): {("u2",): F(5)}})
    with pytest.raises(OracleGrowthError, match="born inconsistent"):
        o.grow({"u1": F(1, 7)}, rel=rel)
    assert state_of(o) == before
    assert o.den == 1
