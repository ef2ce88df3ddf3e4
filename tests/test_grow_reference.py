"""Differential tests of LimitOracle.grow against the whole-oracle reference.

The reference is the growth step as it ran before the local envelope: every
distance a rational, the extension checked whole by ``validate_k`` and
against the oracle on every base tuple of a realized slot, each new tuple on
a realized slot checked 1-Lipschitz against every stored pin of its slot in
both directions, and enveloped over all stored pins.  The oracle must agree
with it on the new distance row, the denominator, the envelope values, the
stored pins and the decision to accept or refuse; a refused request must
leave the oracle unchanged.
"""
from dataclasses import replace
from fractions import Fraction
from math import lcm
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from urysohn import engine
from urysohn.engine import LimitOracle, OracleGrowthError, RelExtension
from urysohn.metric import FinMetric, MetricTableError, _envelope, fin_metric, validate_metric
from urysohn.rationals import scaled
from urysohn.relational import (
    IndexedStructure,
    pattern_indices,
    pattern_slots,
    tuples_over,
    validate_k,
    validate_pattern,
)

from oracle_state import int_pins, int_table, stale_cache_entries, walked_keys

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
    if validate_k(rel.ext):
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
    stored = int_pins(o)
    for n, m in sorted(rel.ext.slots()):
        g = slot_assign[(n, m)]
        fresh_slot = (n, g) not in stored
        existing = [(t, F(w, o.den)) for t, w in stored.get((n, g), {}).items()]
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
                if v != e:
                    raise Refused
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
        int_table(o),
        int_pins(o),
        o.den,
        dict(o.registry),
        dict(o._counts),
        len(o.log),
    )


def grow_and_compare(o, base_dists, rel):
    """Grow ``o`` by one request and check it against the reference; the
    oracle's refusal message, or None when it accepts."""
    try:
        want = reference_growth(o, base_dists, rel)
    except Refused:
        want = None
    before = state_of(o)
    envs = []

    def recording_envelope(entries, tup, dist):
        # predicate_value gathers rows, so these are the request's local
        # envelopes only
        value = real_envelope(entries, tup, dist)
        envs.append((tup, value))
        return value

    real_envelope = engine._envelope
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "_envelope", recording_envelope)
        try:
            o.grow(base_dists, rel=rel)
        except OracleGrowthError as exc:
            assert want is None, "the oracle refused a request the reference accepts"
            assert state_of(o) == before, "a refused request changed the oracle"
            return str(exc)
    assert want is not None, "the oracle accepted a request the reference refuses"
    full, den, delta, want_envs = want
    rec = o.log[-1]
    assert rec.dists == full
    assert o.den == den
    assert rec.pins == delta
    assert [(t, F(v, den)) for t, v in envs] == want_envs
    return None


def window(target, defined, tup, dist):
    """``target`` moved into the Katetov window of the values defined so far."""
    lo = max([F(0)] + [w - dist(t, tup) for t, w in defined.items()])
    hi = min([w + dist(t, tup) for t, w in defined.items()], default=None)
    v = max(target, lo)
    return v if hi is None else min(v, hi)


def random_request(rng, o, max_arity=2):
    """A rel request of arity bound at most ``max_arity`` over a random base;
    some are refused on purpose."""
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

    n_a = rng.randint(1, min(max_arity, len(metric.points)))
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
    ext = IndexedStructure(metric, n_a, pattern_indices(n_a), pred)
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
    """The random requests reach every branch the differential test needs,
    and every refusal the window walk of _rel_pins can make."""
    walk_faults = {
        "fresh slot inconsistent": "born inconsistent",
        "realized undershoot": "undershoots the envelope",
        "realized overshoot": "overshoots the ceiling",
        "base disagreement": "disagrees on base",
    }
    seen = dict.fromkeys(["accepted", "refused", "realized", "birth", "empty base"], 0)
    seen.update(dict.fromkeys(walk_faults, 0))
    for seed in range(40):
        rng = Random(seed)
        o = LimitOracle()
        for _ in range(10):
            base_dists, rel = random_request(rng, o)
            refusal = grow_and_compare(o, base_dists, rel)
            if refusal is None:
                seen["accepted"] += 1
                seen["realized"] += any(g is not None for g in rel.slot_map.values())
                seen["birth"] += bool(rel.birth_pins)
                seen["empty base"] += not base_dists
                continue
            seen["refused"] += 1
            # a fresh slot's faults all read "born inconsistent" first
            kind = next((k for k, text in walk_faults.items() if text in refusal), None)
            if kind is not None:
                seen[kind] += 1
    assert all(count >= 5 for count in seen.values()), seen


def test_refused_grow_keeps_denominator_and_state():
    o = LimitOracle()
    o.grow({})
    o.grow({"u1": F(1)})
    before = state_of(o)
    # a fresh slot pinned at 5 on u2 cannot sit at 0 on a point 8/7 away;
    # the request's sevenths would have rescaled the oracle
    ext = IndexedStructure(
        fin_metric(["b", "x"], {("b", "x"): F(1, 7)}),
        1,
        pattern_indices(1),
        {(1, 1, ("b",)): F(0), (1, 1, ("x",)): F(0)},
    )
    rel = RelExtension(ext, {"b": "u1"}, {(1, 1): None}, {(1, 1): {("u2",): F(5)}})
    with pytest.raises(OracleGrowthError, match="born inconsistent"):
        o.grow({"u1": F(1, 7)}, rel=rel)
    assert state_of(o) == before
    assert o.den == 1


def grown_rel_oracle(rng, steps, max_arity=2):
    """An oracle grown by ``steps`` random requests.  After each accepted
    one, the cache holds the value grow's walk gave each entry of the
    request, and every cache entry is what a full scan of the pins reads; a
    refused one leaves the cache as it was."""
    o = LimitOracle()
    for _ in range(steps):
        base_dists, rel = random_request(rng, o, max_arity)
        before = dict(o._value_cache)
        try:
            result = o.grow(base_dists, rel=rel)
        except OracleGrowthError:
            assert o._value_cache == before
            continue
        walked = walked_keys(rel, result)
        assert {key: o._value_cache.get(key) for key in walked} == walked
        assert stale_cache_entries(o) == {}
    return o


@given(st.integers(min_value=0, max_value=2**32))
@settings(max_examples=60, deadline=None)
def test_predicate_gather_matches_the_pruned_envelope(seed):
    """predicate_value's row gather against metric._envelope over a
    (str, str) table of the same integers, on pins and on random tuples."""
    rng = Random(seed)
    o = grown_rel_oracle(rng, 10)
    table = int_table(o)
    o._value_cache.clear()
    for (n, g), pins in int_pins(o).items():
        tups = list(pins) + [tuple(rng.choice(o.points) for _ in range(n)) for _ in range(6)]
        for tup in tups:
            want = F(_envelope(pins.items(), tup, table), o.den)
            assert o.predicate_value(n, g, tup) == want


def reference_row(o, base_dists, gap, den):
    """The new distance row by the old per-point scan over a (str, str) table."""
    row = {p: scaled(e, den) for p, e in base_dists.items()}
    if gap is not None:
        for q in o.points:
            row[q] = scaled(gap, den)
    table, factor = int_table(o), den // o.den
    via = list(row.items())
    for q in o.points:
        if q not in row:
            row[q] = min([e + table[(p, q)] * factor for p, e in via])
    return [row[q] for q in o.points]


@given(st.integers(min_value=0, max_value=2**32))
@settings(max_examples=60, deadline=None)
def test_extended_row_matches_the_per_point_scan(seed):
    """The map(min) row against the old scan: feasible bases, empty bases
    with and without earlier points, and denominators that rescale."""
    rng = Random(seed)
    o = grown_rel_oracle(rng, rng.randint(0, 6))
    for _ in range(6):
        base = {}
        if o.points and rng.random() < 0.8:
            c, r = rng.choice(o.points), F(rng.randint(1, 8), rng.choice([1, 2, 3, 4]))
            for b in rng.sample(o.points, rng.randint(1, min(3, len(o)))):
                base[b] = o.distance(c, b) + r
        gap = o._gap(None, None, None) if not base and o.points else None
        incoming = list(base.values()) + [gap or F(0), F(1, rng.choice([1, 3, 5]))]
        den = o._den_with({v.denominator for v in incoming})
        assert o._extended_row(base, gap, den) == reference_row(o, base, gap, den)
        o.grow(base)


def test_extended_row_of_an_empty_base():
    o = LimitOracle()
    assert o._extended_row({}, None, 1) == []
    o.grow({})
    o.grow({"u1": F(1, 2)})
    gap = o._gap(None, None, None)
    assert gap == 1
    assert o._extended_row({}, gap, 2) == reference_row(o, {}, gap, 2) == [2, 2]


class ParentOracle(LimitOracle):
    """The oracle with _check_rel as it was: the extension's metric
    validated whole (validate_metric) before the request checks, the
    agreement and distortion checks reading one order of each pair."""

    def _check_rel(self, rel, base, base_dists):
        ext, bm = rel.ext, rel.base_map
        report = [f"metric: {msg}" for msg in validate_metric(ext.metric)]
        report += validate_pattern(ext)
        if report:
            raise OracleGrowthError(f"extension structure invalid: {report[0]}")
        new_pts = [p for p in ext.points if p not in bm]
        if len(new_pts) != 1:
            raise OracleGrowthError("extension must have exactly one unmapped point")
        if len(set(bm.values())) != len(bm):
            raise OracleGrowthError("base map is not injective")
        if set(bm.values()) != set(base):
            raise OracleGrowthError("base map image must equal the base")
        new_pt = new_pts[0]
        for p in bm:
            if ext.metric.d(new_pt, p) != base_dists[bm[p]]:
                raise OracleGrowthError(f"distance to {bm[p]!r} disagrees with the request")
        for p in bm:
            for q in bm:
                if p < q and ext.metric.d(p, q) != self.distance(bm[p], bm[q]):
                    raise OracleGrowthError(
                        f"extension distorts the base pair ({bm[p]!r}, {bm[q]!r})"
                    )
        if set(rel.slot_map.keys()) != set(ext.slots()):
            raise OracleGrowthError("slot map must cover exactly the extension slots")
        for slot, pins in rel.birth_pins.items():
            if rel.slot_map.get(slot, 0) is not None:
                raise OracleGrowthError(
                    f"birth pins are only allowed on fresh slots, got {slot}"
                )
            for tup in pins:
                if len(tup) != slot[0]:
                    raise OracleGrowthError(f"birth pin arity mismatch at {tup}")
                if any(p not in self._pos for p in tup):
                    raise OracleGrowthError(f"birth pin on unknown points {tup}")
        slot_assign = {}
        fresh = []
        taken = dict(self._counts)
        used = {}
        for (n, m), g in sorted(rel.slot_map.items()):
            if g is None:
                g_new = self._fresh_slot(n, taken)
                slot_assign[(n, m)] = g_new
                fresh.append((n, g_new))
            else:
                if not 1 <= g <= self._counts.get(n, 0):
                    raise OracleGrowthError(f"global slot ({n}, {g}) not realized")
                if g in used.setdefault(n, set()):
                    raise OracleGrowthError(f"global slot ({n}, {g}) used twice")
                used[n].add(g)
                slot_assign[(n, m)] = g
        return slot_assign, fresh


def exit_code(exc):
    """What ``urysohn grow`` exits with on ``exc``: 1 for a refusal it
    reports, None for one that would end in a traceback."""
    return 1 if isinstance(exc, (OracleGrowthError, MetricTableError, ValueError)) else None


def grow_outcome(o, base_dists, rel):
    before = state_of(o)
    try:
        o.grow(base_dists, rel=rel)
    except Exception as exc:  # noqa: BLE001 - any refusal is compared
        assert state_of(o) == before, "a refused request changed the oracle"
        return exit_code(exc), type(exc).__name__
    return 0, None


def damaged(rng, e, rel):
    """(kind, request distances, extension) for one fault put into a
    feasible rel request over at least two base points."""
    ext, bm = rel.ext, rel.base_map
    x = next(p for p in ext.points if p not in bm)
    olds = [p for p in ext.points if p != x]
    a, b = rng.sample(olds, 2)
    table = dict(ext.metric.table)
    out = []

    def put(kind, entries, dists=e, points=None, base_map=bm):
        t = dict(table)
        for (p, q), v in entries.items():
            if v is None:
                t.pop((p, q), None)
            else:
                t[(p, q)] = v
        metric = FinMetric(tuple(points or ext.points), t)
        out.append((kind, dists, RelExtension(replace(ext, metric=metric), dict(base_map),
                                              rel.slot_map, rel.birth_pins)))

    dab, dxa = table[(a, b)], table[(x, a)]
    for v in (dab + F(1, 3), dab / 2):
        put("base pair", {(a, b): v, (b, a): v})
    for v in (dxa + F(1, 3), F(0), -dxa):
        put("new-point distance", {(x, a): v, (a, x): v})
        # as urysohn grow asks it: the request reads the damaged extension
        put("new-point distance in the request", {(x, a): v, (a, x): v},
            dists={**e, bm[a]: v})
    put("asymmetric base pair", {(a, b): dab + F(1, 3)})
    put("asymmetric new-point distance", {(a, x): dxa + F(1, 3)})
    put("missing base pair", {(b, a): None})
    put("missing new-point distance", {(x, a): None, (a, x): None})
    c = next((p for p in olds if p not in (a, b)), None)
    if c is not None:
        far = table[(a, c)] + table[(c, b)] + 1
        put("broken base triangle", {(a, b): far, (b, a): far})
    far = table[(x, b)] + dab + 1
    put("broken triangle at the new point", {(x, a): far, (a, x): far},
        dists={**e, bm[a]: far})
    put("two unmapped points", {}, base_map={p: q for p, q in bm.items() if p != a})
    put("repeated point", {}, points=ext.points + (a,))
    return out


def test_grow_refuses_damaged_extensions_as_the_full_metric_check_did():
    """grow without the extension's validate_metric against ParentOracle,
    the oracle with it, on twin oracles grown alike.  Each request is sent
    with every fault of ``damaged`` in turn, then intact: each is refused
    by both, with the same exit code and exception, or accepted by both
    into the same state, and a refusal leaves both unchanged."""
    refused = {}  # fault -> refusals of a request whose intact form was accepted
    for seed in range(20):
        twins = []
        for cls in (LimitOracle, ParentOracle):
            rng = Random(seed)
            o = cls()
            for _ in range(4):
                base_dists, rel = random_request(rng, o)
                try:
                    o.grow(base_dists, rel=rel)
                except OracleGrowthError:
                    pass
            twins.append(o)
        new, parent = twins
        assert state_of(new) == state_of(parent)
        rng = Random(seed)
        for _ in range(8):
            base_dists, rel = random_request(rng, new)
            if len(base_dists) < 2:
                continue
            outcomes = {}
            for kind, dists, bad in damaged(rng, base_dists, rel) + [("intact", base_dists, rel)]:
                got = grow_outcome(new, dists, bad)
                assert got == grow_outcome(parent, dists, bad), kind
                assert state_of(new) == state_of(parent), kind
                outcomes[kind] = got
            if outcomes.pop("intact") == (0, None):
                for kind, (code, _) in outcomes.items():
                    refused[kind] = refused.get(kind, 0) + (code == 1)
    assert len(refused) == 11 and min(refused.values()) >= 5, refused
