"""Finite rational metric spaces carrying indexed n-ary 1-Lipschitz predicate tables.

A structure of arity bound ``n_a`` holds one total table per slot (n, m)
with 1 <= n <= n_a and 1 <= m <= n_a + 1 - n.  Every table obeys the
1-Lipschitz law in the sum metric:

    p(a_1..a_n) <= p(b_1..b_n) + d(a_1,b_1) + ... + d(a_n,b_n)

which makes each table behave like a distance function to a closed subset
of the n-th power.  Isomorphisms may permute the slot indices per arity.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product
from math import lcm
from typing import Iterable, Mapping

from .metric import FinMetric, WitnessError, tuple_dist, validate_metric
from .rationals import ZERO, scaled

PredTable = dict[tuple[int, int, tuple[str, ...]], Fraction]


@dataclass(frozen=True)
class StructureK:
    """Finite metric space plus pattern-total indexed predicate tables."""

    metric: FinMetric
    n_a: int
    pred: PredTable

    @property
    def points(self) -> tuple[str, ...]:
        return self.metric.points

    def slots(self) -> list[tuple[int, int]]:
        return pattern_slots(self.n_a)

    def value(self, n: int, m: int, tup: tuple[str, ...]) -> Fraction:
        return self.pred[(n, m, tup)]

    def __len__(self) -> int:
        return len(self.metric)


def pattern_slots(n_a: int) -> list[tuple[int, int]]:
    """All (arity, index) slots admitted by an arity bound."""
    return [(n, m) for n in range(1, n_a + 1) for m in range(1, n_a + 2 - n)]


def make_structure(
    metric: FinMetric,
    pred: PredTable | None = None,
    n_a: int | None = None,
) -> StructureK:
    """Construct a structure; the arity bound defaults to the point count.

    Slots missing entirely from ``pred`` are filled with the zero table,
    which is always consistent.
    """
    if n_a is None:
        n_a = len(metric)
    table: PredTable = dict(pred or {})
    for n, m in pattern_slots(n_a):
        for tup in tuples_over(metric.points, n):
            table.setdefault((n, m, tup), ZERO)
    return StructureK(metric, n_a, table)


EMPTY_STRUCTURE = StructureK(FinMetric((), {}), 0, {})


def tuples_over(points: tuple[str, ...], n: int) -> Iterable[tuple[str, ...]]:
    """All n-tuples in lexicographic order of the point list."""
    return product(points, repeat=n)


def validate_k(s: StructureK) -> list[str]:
    """Full validity report: metric axioms, totality pattern, 1-Lipschitz law."""
    report = [f"metric: {msg}" for msg in validate_metric(s.metric)]
    k = len(s)
    if k == 0:
        if s.n_a != 0 or s.pred:
            report.append("empty structure must have n_a = 0 and no predicates")
        return report
    if not 0 < s.n_a <= k:
        report.append(f"arity bound {s.n_a} outside 1..{k}")
        return report
    expected = set()
    for n, m in s.slots():
        for tup in tuples_over(s.points, n):
            expected.add((n, m, tup))
    for key in expected:
        if key not in s.pred:
            n, m, tup = key
            report.append(f"totality: p_{m}^{n} missing on {tup}")
    for key in s.pred:
        if key not in expected:
            n, m, tup = key
            report.append(f"totality: p_{m}^{n} defined on {tup} outside the pattern")
    if any(msg.startswith("totality") for msg in report):
        return report
    for n, m in s.slots():
        values = {tup: s.pred[(n, m, tup)] for tup in tuples_over(s.points, n)}
        bad = find_lipschitz_violation(s.metric, values)
        if bad is not None:
            ta, tb, lhs, rhs = bad
            report.append(
                f"lipschitz: p_{m}^{n}{ta} = {lhs} > {rhs} = p_{m}^{n}{tb} + d"
            )
    return report


def find_lipschitz_violation(
    metric: FinMetric, values: Mapping[tuple[str, ...], Fraction]
):
    """First pair breaking p(a) <= p(b) + d(a, b) in the sum metric, or None.

    Pairs are scanned in sorted order of (a, b).  When every point the
    tuples use is known and every distance among them is present and
    nonnegative, the scan runs in integers over one common denominator;
    otherwise it runs in rationals and raises MetricTableError at the first
    missing entry it reaches.  Both give the same answer.
    """
    items = sorted(values.items())
    lo = min((v for _, v in items), default=ZERO)
    hi = max((v for _, v in items), default=ZERO)
    if lo < 0:
        ta = min(items, key=lambda kv: (kv[1], kv[0]))[0]
        return ta, ta, values[ta], ZERO
    if lo == hi:
        return None  # constant tables always satisfy the law
    scan = _scaled_scan(metric, items)
    if scan is None:
        for ta, va in items:
            if va <= lo:
                continue  # the global minimum can never be the violating side
            for tb, vb in items:
                if va > vb + tuple_dist(metric, ta, tb):
                    return ta, tb, va, vb + tuple_dist(metric, ta, tb)
        return None
    lo_i = min(v for _, v, _, _ in scan)
    for ta, va, _, rows in scan:
        if va <= lo_i:
            continue
        for tb, vb, idx, _ in scan:
            need = va - vb
            if need > 0 and sum(r[j] for r, j in zip(rows, idx)) < need:
                return ta, tb, values[ta], values[tb] + tuple_dist(metric, ta, tb)
    return None


def _scaled_scan(metric, items):
    """Scan rows (tuple, value, point indices, distance rows) in integers.

    None when some point is unknown or some distance among the used points
    is missing or negative, so that the rational scan decides instead.
    """
    used = sorted({p for t, _ in items for p in t})
    known = set(metric.points)
    if any(p not in known for p in used):
        return None
    index = {p: i for i, p in enumerate(used)}
    table = metric.table
    pairs = {}
    for x in used:
        for y in used:
            if x != y:
                d = table.get((x, y))
                if d is None or d < 0:
                    return None
                pairs[(index[x], index[y])] = d
    scale = lcm(*{v.denominator for _, v in items}, *{d.denominator for d in pairs.values()})
    mat = [[0] * len(used) for _ in used]
    for (i, j), d in pairs.items():
        mat[i][j] = scaled(d, scale)
    scan = []
    for t, v in items:
        idx = tuple(index[p] for p in t)
        scan.append((t, scaled(v, scale), idx, [mat[i] for i in idx]))
    return scan


@dataclass(frozen=True)
class EmbeddingWitness:
    """Point map plus per-arity index injections."""

    phi: dict[str, str]
    pi: dict[int, dict[int, int]]


def identity_witness(s: StructureK) -> EmbeddingWitness:
    return EmbeddingWitness(
        {p: p for p in s.points},
        {n: {m: m for m in range(1, s.n_a + 2 - n)} for n in range(1, s.n_a + 1)},
    )


def check_embedding_k(
    a: StructureK, b: StructureK, w: EmbeddingWitness
) -> tuple[bool, str | None]:
    """Does ``w`` embed a into b, transporting every predicate value exactly?"""
    for n in range(1, a.n_a + 1):
        pin = w.pi.get(n, {})
        dom = set(range(1, a.n_a + 2 - n))
        if set(pin.keys()) != dom:
            raise WitnessError(f"index map for arity {n} does not cover 1..{len(dom)}")
        if len(set(pin.values())) != len(dom):
            raise WitnessError(f"index map for arity {n} is not injective")
        if any(not 1 <= g <= b.n_a + 1 - n for g in pin.values()):
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

    Undefined tuples get max(0, max over defined of value - sum-distance).
    The result does not depend on the processing order, re-application is
    the identity, and the 1-Lipschitz law is preserved.
    """
    bad = find_lipschitz_violation(metric, values)
    if bad is not None:
        ta, tb, lhs, rhs = bad
        raise ValueError(f"partial table already inconsistent: {ta} vs {tb} ({lhs} > {rhs})")
    pins = list(values.items())
    out: dict[tuple[str, ...], Fraction] = {}
    for tup in tuples_over(metric.points, arity):
        if tup in values:
            out[tup] = values[tup]
            continue
        best = ZERO
        for ptup, v in pins:
            if v <= best:
                continue
            cand = v - tuple_dist(metric, ptup, tup)
            if cand > best:
                best = cand
        out[tup] = best
    return out


def find_isomorphism(a: StructureK, b: StructureK) -> EmbeddingWitness | None:
    """Exhaustive isomorphism search; returns the lexicographically first witness.

    Candidate point bijections run in permutation order of b's point list,
    index permutations per arity likewise.
    """
    if len(a) != len(b) or a.n_a != b.n_a:
        return None
    index_choices = [
        list(permutations(range(1, a.n_a + 2 - n))) for n in range(1, a.n_a + 1)
    ]
    for target in permutations(b.points):
        phi = dict(zip(a.points, target))
        if any(
            b.metric.d(phi[x], phi[y]) != a.metric.d(x, y) for x, y in a.metric.pairs()
        ):
            continue
        for combo in product(*index_choices):
            pi = {
                n: {m: combo[n - 1][m - 1] for m in range(1, a.n_a + 2 - n)}
                for n in range(1, a.n_a + 1)
            }
            w = EmbeddingWitness(phi, pi)
            ok, _ = check_embedding_k(a, b, w)
            if ok:
                return w
    return None


def restrict_k(s: StructureK, ids: Iterable[str], n_a: int | None = None) -> StructureK:
    """Induced substructure on a subset of points, arity bound clipped to fit."""
    keep = tuple(p for p in s.points if p in set(ids))
    new_na = min(s.n_a, len(keep)) if n_a is None else n_a
    if new_na > min(s.n_a, len(keep)):
        raise ValueError("restriction cannot raise the arity bound")
    metric = s.metric.restrict(keep)
    pred: PredTable = {}
    for n, m in pattern_slots(new_na):
        for tup in tuples_over(keep, n):
            pred[(n, m, tup)] = s.pred[(n, m, tup)]
    return StructureK(metric, new_na, pred)


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
    expected = set()
    for i, n in enumerate(s.config.arities, start=1):
        for tup in tuples_over(s.metric.points, n):
            expected.add((i, tup))
    for key in expected:
        if key not in s.pred:
            report.append(f"totality: slot {key[0]} missing on {key[1]}")
    for key in s.pred:
        if key not in expected:
            report.append(f"totality: slot {key[0]} defined on stray tuple {key[1]}")
    if any(msg.startswith("totality") for msg in report):
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
