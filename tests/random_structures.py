"""Random structures, growth requests and solver cases, and a brute-force
reference, that only the tests use.

Like ``urysohn.randgen``, everything draws from a caller-supplied
random.Random.  Every generated structure is valid by construction; a
growth request (``random_request``, ``damaged``) may be refused on purpose.
"""
from __future__ import annotations

from dataclasses import replace
from fractions import Fraction
from random import Random
from typing import Sequence

from urysohn.cauchy import embed_structure, required_depth
from urysohn.engine import LimitOracle, OracleGrowthError, RelExtension
from urysohn.metric import FinMetric, fin_metric
from urysohn.product import StructureC
from urysohn.randgen import _random_row, compatible_profile, random_metric, random_table
from urysohn.relational import (
    IndexedStructure,
    indexed_structure,
    pattern_indices,
    pattern_slots,
    tuples_over,
)
from urysohn.spaces import CompactPresentation, eval_suitable

from oracle_state import stale_cache_entries, walked_keys

F = Fraction
GRIDS = (8, 16, 64, 256, 1024)


def random_structure_k(
    rng: Random,
    ids: Sequence[str],
    max_arity: int = 2,
    den: int = 8,
) -> IndexedStructure:
    metric = random_metric(rng, ids, den)
    bound = rng.randint(1, min(max_arity, len(metric)))
    pred = {}
    for n, m in pattern_slots(bound):
        for tup, v in random_table(rng, metric, n, den=den).items():
            pred[(n, m, tup)] = v
    return IndexedStructure(metric, bound, pattern_indices(bound), pred)


def random_slot_permutation(
    rng: Random, s: IndexedStructure
) -> tuple[IndexedStructure, dict[int, dict[int, int]]]:
    """Shuffle the slot indices per arity; returns the permuted copy and maps."""
    sigma: dict[int, dict[int, int]] = {}
    for n, ms in s.indices.items():
        targets = list(ms)
        rng.shuffle(targets)
        sigma[n] = dict(zip(ms, targets))
    pred = {(n, sigma[n][m], tup): v for (n, m, tup), v in s.pred.items()}
    return IndexedStructure(s.metric, s.bound, s.indices, pred), sigma


def random_extension_bark(
    rng: Random,
    x: IndexedStructure,
    new_id: str = "bnew",
    raise_bound: bool = False,
    den: int = 8,
) -> IndexedStructure:
    """Random one-point extension; a raised bound brings one fresh slot per arity."""
    pts = list(x.points)
    entries = {(a, b): x.metric.d(a, b) for a, b in x.metric.pairs()}
    row = _random_row(rng, pts, x.metric.d, den)
    entries.update({(a, new_id): v for a, v in row.items()})
    metric = fin_metric(pts + [new_id], entries)
    bound = min(x.bound + 1, len(pts) + 1) if raise_bound else x.bound
    indices = {}
    for n in range(1, bound + 1):
        old = x.indices.get(n, ())
        need = bound + 1 - n
        fresh = []
        nxt = max(old, default=0) + 1
        while len(old) + len(fresh) < need:
            fresh.append(nxt)
            nxt += 1
        indices[n] = tuple(old) + tuple(fresh)
    pred = {}
    for n in indices:
        for m in indices[n]:
            base = (
                {tup: x.pred[(n, m, tup)] for tup in tuples_over(x.points, n)}
                if m in x.indices.get(n, ())
                else {}
            )
            for tup, v in random_table(rng, metric, n, base, den=den).items():
                pred[(n, m, tup)] = v
    return IndexedStructure(metric, bound, indices, pred)


def random_structure_c(rng: Random, k: CompactPresentation, ids: Sequence[str], den: int = 8):
    """Random valid product-side structure: profiles built compatibly in order."""
    metric = random_metric(rng, ids, den)
    fns = {}
    done: list[str] = []
    for p in metric.points:
        fns[p] = compatible_profile(
            rng, k, [(fns[q], metric.d(p, q)) for q in done], den
        )
        done.append(p)
    return StructureC(metric, fns)


def random_target_bark(
    rng: Random,
    n_points: int,
    max_arity: int = 2,
    den: int = 8,
) -> IndexedStructure:
    """Initial-segment-indexed structure, the shape solvers consume directly."""
    ids = [f"b{i}" for i in range(1, n_points + 1)]
    metric = random_metric(rng, ids, den)
    bound = rng.randint(0, min(max_arity, n_points))
    pred = {}
    for n in range(1, bound + 1):
        for m in range(1, bound + 2 - n):
            for tup, v in random_table(rng, metric, n, den=den).items():
                pred[(n, m, tup)] = v
    return indexed_structure(metric, bound, pred)


def brute_force_cross_check(s: StructureC, k: CompactPresentation) -> bool:
    """Quadratic-in-indices reference check of the cross condition."""
    for a in s.points:
        for b in s.points:
            if a == b:
                continue
            d = s.metric.d(a, b)
            for n in range(1, k.size + 1):
                va = eval_suitable(s.fns[a], n, k)
                for m in range(1, k.size + 1):
                    if va > eval_suitable(s.fns[b], m, k) + k.d_idx(n, m) + d:
                        return False
    return True


# -- growth requests and solver cases, drawn against a live oracle ------------


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


def sparse_bark(rng, n_points, pden):
    """Random structure of bound 0..2, index sets drawn from 1..9, metric
    on the 1/8 grid and predicate values on the 1/pden grid."""
    ids = [f"x{i}" for i in range(1, n_points + 1)]
    metric = random_metric(rng, ids)
    bound = rng.randint(0, min(2, n_points))
    indices = {n: tuple(sorted(rng.sample(range(1, 10), bound + 1 - n)))
               for n in range(1, bound + 1)}
    pred = {}
    for n, ms in indices.items():
        for m in ms:
            table = random_table(rng, metric, n, den=pden, hi=2 * pden)
            pred.update(((n, m, t), v) for t, v in table.items())
    return IndexedStructure(metric, bound, indices, pred)


def extension(rng, x, pden):
    """x plus one point; a raised bound brings one new slot per arity, at a
    sparse index above the old ones."""
    pts = list(x.points)
    entries = {(a, b): x.metric.d(a, b) for a, b in x.metric.pairs()}
    entries.update({(a, "xn"): v for a, v in _random_row(rng, pts, x.metric.d).items()})
    metric = fin_metric(pts + ["xn"], entries)
    bound = min(x.bound + 1, 2) if rng.random() < 0.5 else x.bound
    indices = {}
    for n in range(1, bound + 1):
        ms = list(x.indices.get(n, ()))
        while len(ms) < bound + 1 - n:
            ms.append(max(ms, default=0) + rng.randint(1, 3))
        indices[n] = tuple(ms)
    pred = {}
    for n, ms in indices.items():
        for m in ms:
            base = ({t: x.pred[(n, m, t)] for t in tuples_over(x.points, n)}
                    if m in x.indices.get(n, ()) else {})
            table = random_table(rng, metric, n, base, den=pden, hi=2 * pden)
            pred.update(((n, m, t), v) for t, v in table.items())
    return IndexedStructure(metric, bound, indices, pred)


def case(seed, pden, depth):
    """An embedded x, a one-point extension of it and a random part of x's
    registrations as known: a function that makes fresh oracles and
    anchors, the target, the known slots and the depth.  In 30% of the
    cases with predicates the oracle holds x's values raised by a constant,
    still 1-Lipschitz, so the target disagrees with the realized base
    tuples: clamps move values and may break the deviation bound."""
    rng = Random(seed)
    x = sparse_bark(rng, rng.randint(1, 2), pden)
    target = extension(rng, x, pden)
    anchor_depth = required_depth(len(target), depth)
    registered = embed_structure(LimitOracle(), x, anchor_depth).slot_globals
    known = {s: g for s, g in registered.items() if s in target.slots() and rng.random() < 0.7}
    realized = x
    if x.bound and rng.random() < 0.3:
        c = F(rng.choice([1, 8, 16]), 4)
        realized = IndexedStructure(x.metric, x.bound, x.indices,
                                    {key: v + c for key, v in x.pred.items()})

    def build():
        o = LimitOracle()
        return o, list(embed_structure(o, realized, anchor_depth).points)

    return build, target, known, depth
