"""Random structures and a brute-force reference that only the tests use.

Like ``urysohn.randgen``, everything draws from a caller-supplied
random.Random, and every generated structure is valid by construction.
"""
from __future__ import annotations

from random import Random
from typing import Sequence

from urysohn.metric import fin_metric
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
