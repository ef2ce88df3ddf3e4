"""Finite rational metric spaces carrying indexed n-ary 1-Lipschitz predicate tables.

A structure of arity bound ``bound`` holds, for each arity 1 <= n <= bound,
bound + 1 - n indexed tables, one total table per slot (n, m).  K structures
index them by the initial segment 1..bound + 1 - n.  Every table obeys the
1-Lipschitz law in the sum metric:

    p(a_1..a_n) <= p(b_1..b_n) + d(a_1,b_1) + ... + d(a_n,b_n)

which makes each table behave like a distance function to a closed subset
of the n-th power.  Isomorphisms may permute the slot indices per arity.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product
from operator import add, itemgetter
from typing import Iterable, Mapping

from .metric import (
    FinMetric, IntRows, WitnessError, _getter, _katetov_gather, tuple_dist, validate_metric,
)
from .rationals import ZERO, scaled

PredTable = dict[tuple[int, int, tuple[str, ...]], Fraction]


@dataclass(frozen=True)
class IndexedStructure:
    """Finite metric space with predicate tables over finite index sets.

    For each arity n <= bound the index set has exactly bound - n + 1
    members; every indexed table is total and 1-Lipschitz in the sum metric.
    A bound of zero means a bare metric space.  A K structure is one whose
    index sets are the initial segments 1..bound + 1 - n.
    """

    metric: FinMetric
    bound: int
    indices: dict[int, tuple[int, ...]]
    pred: PredTable

    @property
    def points(self) -> tuple[str, ...]:
        return self.metric.points

    def slots(self) -> list[tuple[int, int]]:
        return [(n, m) for n in sorted(self.indices) for m in self.indices[n]]

    def __len__(self) -> int:
        return len(self.metric)


def pattern_indices(bound: int) -> dict[int, tuple[int, ...]]:
    """The initial-segment index sets 1..bound + 1 - n of an arity bound."""
    return {n: tuple(range(1, bound + 2 - n)) for n in range(1, bound + 1)}


def pattern_slots(bound: int) -> list[tuple[int, int]]:
    """All (arity, index) slots admitted by an arity bound."""
    return [(n, m) for n in range(1, bound + 1) for m in range(1, bound + 2 - n)]


def indexed_structure(
    metric: FinMetric,
    bound: int | None = None,
    pred: Mapping[tuple[int, int, tuple[str, ...]], Fraction] | None = None,
    indices: Mapping[int, Iterable[int]] | None = None,
) -> IndexedStructure:
    """Construct a structure; the arity bound defaults to the point count and
    the index sets to initial segments.

    Slots missing entirely from ``pred`` are filled with the zero table,
    which is always consistent.
    """
    if bound is None:
        bound = len(metric)
    if indices is None:
        idx = pattern_indices(bound)
    else:
        idx = {n: tuple(sorted(indices[n])) for n in indices}
    table: PredTable = dict(pred or {})
    for n in idx:
        for m in idx[n]:
            for tup in tuples_over(metric.points, n):
                table.setdefault((n, m, tup), ZERO)
    return IndexedStructure(metric, bound, idx, table)


EMPTY_STRUCTURE = IndexedStructure(FinMetric((), {}), 0, {}, {})


def tuples_over(points: tuple[str, ...], n: int) -> Iterable[tuple[str, ...]]:
    """All n-tuples in lexicographic order of the point list."""
    return product(points, repeat=n)


def validate_k(s: IndexedStructure) -> list[str]:
    """Full validity report: metric axioms, validate_pattern's, then the 1-Lipschitz law."""
    report = [f"metric: {msg}" for msg in validate_metric(s.metric)]
    pattern = validate_pattern(s)
    if pattern:
        return report + pattern
    for n, m in s.slots():
        values = {tup: s.pred[(n, m, tup)] for tup in tuples_over(s.points, n)}
        bad = find_lipschitz_violation(s.metric, values)
        if bad is not None:
            ta, tb, lhs, rhs = bad
            report.append(f"lipschitz: p_{m}^{n}{ta} = {lhs} > {rhs} = p_{m}^{n}{tb} + d")
    return report


def validate_pattern(s: IndexedStructure) -> list[str]:
    """Arity bound, index sets and totality: everything validate_k checks
    before the 1-Lipschitz law except the metric axioms."""
    if not 0 <= s.bound <= len(s):
        return [f"arity bound {s.bound} outside 0..{len(s)}"]
    if set(s.indices) != set(range(1, s.bound + 1)):
        return ["index sets must cover exactly the arities 1..bound"]
    shape = []
    for n, members in sorted(s.indices.items()):
        if len(set(members)) != len(members) or list(members) != sorted(members):
            shape.append(f"index set for arity {n} must be sorted and duplicate-free")
        if len(members) != s.bound - n + 1:
            shape.append(
                f"index set for arity {n} has {len(members)} members, "
                f"wants {s.bound - n + 1}"
            )
        if any(m < 1 for m in members):
            shape.append(f"index set for arity {n} has a non-positive member")
    if shape:
        return shape
    missing, stray = _totality(
        ((n, m, tup) for n, m in s.slots() for tup in tuples_over(s.points, n)), s.pred
    )
    return [f"totality: p_{m}^{n} missing on {tup}" for n, m, tup in missing] + [
        f"totality: p_{m}^{n} defined on {tup} outside the pattern" for n, m, tup in stray
    ]


def _totality(expected: Iterable, table: Mapping) -> tuple[list, list]:
    """The expected keys ``table`` lacks and its keys outside ``expected``,
    each in sorted order, so a report never depends on hash order."""
    expected = set(expected)
    return sorted(expected - table.keys()), sorted(table.keys() - expected)


def find_lipschitz_violation(
    metric: FinMetric, values: Mapping[tuple[str, ...], Fraction]
):
    """First pair breaking p(a) <= p(b) + d(a, b) in the sum metric, or None.

    A least value p(a) < 0 is reported as (a, a, p(a), 0).  Otherwise every
    point the tuples use must be known with every distance among them, or
    MetricTableError is raised before any scan (``FinMetric.d``,
    ``IntRows.of``).  A total table of arity n >= 2 is first decided along
    its coordinate lines (``_lines_hold``): when every line holds, the law
    holds for every pair.  Otherwise, or when a line fails, the rows are
    cleared in sorted order on integer rows over one common denominator: a
    row a is clear when p(a) <= min over b of p(b) + d(a, b)
    (``_katetov_gather``), and the first row that is not clear is scanned
    for its first b in sorted order.
    """
    items = sorted(values.items())
    ta, va = min(items, key=itemgetter(1, 0), default=((), ZERO))
    if va < 0:
        return ta, ta, va, ZERO
    used = sorted({p for t, _ in items for p in t})
    for p in used:
        metric.d(p, p)  # raises on a point the metric does not list
    ir = IntRows.of(used, metric.table, (v for _, v in items))
    vals = [scaled(v, ir.den) for _, v in items]
    n = len(items[0][0]) if items else 0
    total = len(items) == len(used) ** n and all(len(t) == n for t, _ in items)
    if n >= 2 and total and _lines_hold(ir.rows, vals, n):
        return None
    index, rows = ir.index, ir.rows
    tups = [tuple(index[p] for p in t) for t, _ in items]
    caps = _katetov_gather(rows, [_getter(col) for col in zip(*tups)], vals, tups)
    for (ta, va), a, vi, cap in zip(items, tups, vals, caps):
        if vi > cap:
            for (tb, vb), b, vj in zip(items, tups, vals):
                if vi > vj + sum(rows[x][y] for x, y in zip(a, b)):
                    return ta, tb, va, vb + tuple_dist(metric, ta, tb)
    return None


def _lines_hold(rows: list[list[int]], vals: list[int], n: int) -> bool:
    """The 1-Lipschitz law of a total table, checked along coordinate lines.

    ``vals`` holds p on every n-tuple of row indices, in lexicographic
    order.  p(a) <= p(b) + sum of d(a_i, b_i) holds for all pairs exactly
    when it holds for the pairs that differ in one coordinate.  Walk from a
    to b one coordinate at a time, through c_k = (b_1..b_k, a_(k+1)..a_n)
    with c_0 = a and c_n = b: the step from c_(k-1) to c_k differs in
    coordinate k alone, so it gives p(c_(k-1)) <= p(c_k) + d(a_k, b_k), and
    the n steps add up to the law for (a, b).  Conversely a pair that
    differs in one coordinate is at that one distance, since d(x, x) = 0.
    Nothing else about d is used, so this holds for asymmetric and
    non-metric distances too.
    A line fixes every coordinate but one; its values L obey the law when
    L[x] <= min over y of L[y] + d(x, y) for every x, one C-level ``min``
    per point of a line: n * N^(n+1) steps for N points, not N^(2n).
    """
    size = len(rows)
    for c in range(n):
        stride = size ** (n - 1 - c)
        block = stride * size
        for start in range(0, len(vals), block):
            for off in range(start, start + stride):
                line = vals[off : off + block : stride]
                for v, row in zip(line, rows):
                    if v > min(map(add, line, row)):
                        return False
    return True


@dataclass(frozen=True)
class EmbeddingWitness:
    """Point map plus per-arity index injections."""

    phi: dict[str, str]
    pi: dict[int, dict[int, int]]


def identity_witness(s: IndexedStructure) -> EmbeddingWitness:
    return EmbeddingWitness(
        {p: p for p in s.points},
        {n: {m: m for m in ms} for n, ms in s.indices.items()},
    )


def check_embedding_k(
    a: IndexedStructure, b: IndexedStructure, w: EmbeddingWitness
) -> tuple[bool, str | None]:
    """Does ``w`` embed a into b, transporting every predicate value exactly?"""
    for n, members in a.indices.items():
        pin = w.pi.get(n, {})
        if set(pin.keys()) != set(members):
            raise WitnessError(f"index map for arity {n} does not cover {members}")
        if len(set(pin.values())) != len(members):
            raise WitnessError(f"index map for arity {n} is not injective")
        if any(g not in b.indices.get(n, ()) for g in pin.values()):
            raise WitnessError(f"index map for arity {n} leaves the target range")
    if set(w.phi.keys()) != set(a.points):
        raise WitnessError("point map does not cover the source")
    if len(set(w.phi.values())) != len(a.points):
        raise WitnessError("point map is not injective")
    for p in a.points:
        if w.phi[p] not in b.points:
            raise WitnessError(f"point map sends {p!r} outside the target")
    for x, y in a.metric.pairs():
        if b.metric.d(w.phi[x], w.phi[y]) != a.metric.d(x, y):
            return False, (
                f"distance ({x},{y}): {a.metric.d(x, y)} != "
                f"{b.metric.d(w.phi[x], w.phi[y])}"
            )
    for n, m in a.slots():
        tm = w.pi[n][m]
        for tup in tuples_over(a.points, n):
            image = tuple(w.phi[p] for p in tup)
            if a.pred[(n, m, tup)] != b.pred[(n, tm, image)]:
                return False, (
                    f"p_{m}^{n}{tup} = {a.pred[(n, m, tup)]} != "
                    f"p_{tm}^{n}{image} = {b.pred[(n, tm, image)]}"
                )
    return True, None


def canonical_extend(
    metric: FinMetric,
    values: Mapping[tuple[str, ...], Fraction],
    arity: int,
) -> dict[tuple[str, ...], Fraction]:
    """Katetov extension of a partial table to every tuple of the given arity.

    Undefined tuples get the Katetov envelope max(0, max over defined of
    value - sum-distance), read on integer rows as max(0, -min over defined
    of (sum-distance - value)) (``_katetov_gather``).
    The result does not depend on the processing order, re-application is
    the identity, and the 1-Lipschitz law is preserved.
    """
    bad = find_lipschitz_violation(metric, values)
    if bad is not None:
        ta, tb, lhs, rhs = bad
        raise ValueError(f"partial table already inconsistent: {ta} vs {tb} ({lhs} > {rhs})")
    every = list(tuples_over(metric.points, arity))
    if not values:
        return dict.fromkeys(every, ZERO)
    ir = IntRows.of(metric.points, metric.table, values.values())
    index = ir.index
    pins = [tuple(index[p] for p in t) for t in values]
    neg = [-scaled(w, ir.den) for w in values.values()]
    todo = [t for t in every if t not in values]
    lows = _katetov_gather(ir.rows, [_getter(col) for col in zip(*pins)], neg,
                           [tuple(index[p] for p in t) for t in todo])
    env = {t: Fraction(max(0, -low), ir.den) for t, low in zip(todo, lows)}
    return {t: values[t] if t in values else env[t] for t in every}


def find_isomorphism(a: IndexedStructure, b: IndexedStructure) -> EmbeddingWitness | None:
    """Exhaustive isomorphism search; returns the lexicographically first witness.

    Candidate point bijections run in permutation order of b's point list,
    index bijections per arity in permutation order of b's index sets.
    """
    if len(a) != len(b) or a.bound != b.bound:
        return None
    arities = sorted(a.indices)
    index_choices = [list(permutations(b.indices.get(n, ()))) for n in arities]
    for target in permutations(b.points):
        phi = dict(zip(a.points, target))
        if any(
            b.metric.d(phi[x], phi[y]) != a.metric.d(x, y) for x, y in a.metric.pairs()
        ):
            continue
        for combo in product(*index_choices):
            pi = {n: dict(zip(a.indices[n], perm)) for n, perm in zip(arities, combo)}
            w = EmbeddingWitness(phi, pi)
            ok, _ = check_embedding_k(a, b, w)
            if ok:
                return w
    return None


def restrict_k(
    s: IndexedStructure, ids: Iterable[str], bound: int | None = None
) -> IndexedStructure:
    """Induced substructure on a subset of points.

    The arity bound is clipped to fit unless given, and each index set keeps
    its leading members.
    """
    wanted = set(ids)
    keep = tuple(p for p in s.points if p in wanted)
    new_bound = min(s.bound, len(keep)) if bound is None else bound
    if new_bound > min(s.bound, len(keep)):
        raise ValueError("restriction cannot raise the arity bound")
    idx = {n: s.indices[n][: new_bound + 1 - n] for n in range(1, new_bound + 1)}
    pred: PredTable = {}
    for n, ms in idx.items():
        for m in ms:
            for tup in tuples_over(keep, n):
                pred[(n, m, tup)] = s.pred[(n, m, tup)]
    return IndexedStructure(s.metric.restrict(keep), new_bound, idx, pred)


@dataclass(frozen=True)
class FixedArityConfig:
    """A fixed nondecreasing list of predicate arities, one symbol each.

    In this mode there are no index permutations: isomorphisms must match
    the i-th listed predicate to the i-th listed predicate.
    """

    arities: tuple[int, ...]

    def __post_init__(self):
        if any(b < a for a, b in zip(self.arities, self.arities[1:])):
            raise ValueError("arities must be nondecreasing")
        if any(n < 1 for n in self.arities):
            raise ValueError("arities must be positive")


@dataclass(frozen=True)
class FixedArityStructure:
    """Metric space with one total table per listed arity slot."""

    metric: FinMetric
    config: FixedArityConfig
    pred: dict[tuple[int, tuple[str, ...]], Fraction]  # (slot index, tuple) -> value


def validate_fixed(s: FixedArityStructure) -> list[str]:
    report = [f"metric: {msg}" for msg in validate_metric(s.metric)]
    missing, stray = _totality(
        (
            (i, tup)
            for i, n in enumerate(s.config.arities, start=1)
            for tup in tuples_over(s.metric.points, n)
        ),
        s.pred,
    )
    report += [f"totality: slot {i} missing on {tup}" for i, tup in missing]
    report += [f"totality: slot {i} defined on stray tuple {tup}" for i, tup in stray]
    if missing or stray:
        return report
    for i, n in enumerate(s.config.arities, start=1):
        values = {tup: s.pred[(i, tup)] for tup in tuples_over(s.metric.points, n)}
        bad = find_lipschitz_violation(s.metric, values)
        if bad is not None:
            ta, tb, lhs, rhs = bad
            report.append(f"lipschitz: slot {i} at {ta} vs {tb} ({lhs} > {rhs})")
    return report


def find_isomorphism_fixed(
    a: FixedArityStructure, b: FixedArityStructure
) -> dict[str, str] | None:
    """Point bijection matching every listed predicate slot exactly, or None."""
    if a.config != b.config or len(a.metric) != len(b.metric):
        return None
    for target in permutations(b.metric.points):
        phi = dict(zip(a.metric.points, target))
        if any(
            b.metric.d(phi[x], phi[y]) != a.metric.d(x, y)
            for x, y in a.metric.pairs()
        ):
            continue
        if all(
            b.pred[(i, tuple(phi[p] for p in tup))] == v
            for (i, tup), v in a.pred.items()
        ):
            return phi
    return None
