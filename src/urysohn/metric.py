"""Finite rational metric spaces: validation, amalgamation, one-point feasibility."""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import inf, lcm
from operator import add, itemgetter, sub
from typing import Iterable, Iterator, Mapping, Sequence, TypeVar

from .rationals import ZERO

T = TypeVar("T")


class MetricTableError(Exception):
    """Structural defect in a distance table (missing or ill-typed entry).

    Distinct from an axiom violation, which is reported, not raised.
    """


class WitnessError(Exception):
    """A supplied embedding witness is not what it claims to be."""


@dataclass(frozen=True)
class FinMetric:
    """Finite metric space with exact rational distances.

    The order of ``points`` is significant: all tuple enumeration
    downstream follows it.  Treated as immutable.
    """

    points: tuple[str, ...]
    table: dict[tuple[str, str], Fraction]

    def d(self, x: str, y: str) -> Fraction:
        if x == y:
            if x not in self.points:
                raise MetricTableError(f"unknown point {x!r}")
            return ZERO
        try:
            return self.table[(x, y)]
        except KeyError:
            raise MetricTableError(f"no distance entry for ({x!r}, {y!r})") from None

    def pairs(self) -> Iterable[tuple[str, str]]:
        return combinations(self.points, 2)

    def diam(self) -> Fraction:
        return max((self.d(x, y) for x, y in self.pairs()), default=ZERO)

    def restrict(self, ids: Iterable[str]) -> "FinMetric":
        keep = tuple(p for p in self.points if p in set(ids))
        return FinMetric(
            keep,
            {
                (x, y): v
                for (x, y), v in self.table.items()
                if x in keep and y in keep
            },
        )

    def __len__(self) -> int:
        return len(self.points)


def fin_metric(points: Iterable[str], entries: Mapping[tuple[str, str], Fraction]) -> FinMetric:
    """Build a FinMetric from one-sided pair entries; symmetric closure is implied."""
    pts = tuple(points)
    if len(set(pts)) != len(pts):
        raise MetricTableError("duplicate point ids")
    table: dict[tuple[str, str], Fraction] = {}
    for (x, y), v in entries.items():
        if x == y:
            raise MetricTableError(f"diagonal entry for {x!r}")
        if (x, y) in table and table[(x, y)] != v:
            raise MetricTableError(f"conflicting entries for ({x!r}, {y!r})")
        table[(x, y)] = v
        table[(y, x)] = v
    return FinMetric(pts, table)


def single_point(pid: str) -> FinMetric:
    return FinMetric((pid,), {})


class IntRows:
    """Distances among ``points`` as integer rows over one common denominator.

    ``rows[i][j]`` is ``d(points[i], points[j]) * den`` exactly, with a zero
    diagonal; ``index`` maps each point to its row.  Every validator scan
    is built from C-level row operations on them.
    """

    __slots__ = ("index", "rows", "den")

    def __init__(self, points: Sequence[str], rows: list[list[int]], den: int):
        self.index = {p: i for i, p in enumerate(points)}
        self.rows = rows
        self.den = den

    @classmethod
    def of(cls, points: Sequence[str], table, values: Iterable = ()) -> IntRows:
        """Rows of ``points`` read from a ``(str, str)`` table of ints and
        Fractions.

        ``values`` join the common denominator, so ``rationals.scaled``
        takes them to ``den`` as well.  A missing entry raises
        MetricTableError in ``FinMetric.d``'s words, at the first pair of
        ``points`` in ``combinations`` order, d(x, y) before d(y, x).
        """
        try:
            raw = [[0 if x == y else table[(x, y)] for y in points] for x in points]
        except KeyError:
            x, y = next(
                p for x, y in combinations(points, 2) for p in ((x, y), (y, x)) if p not in table
            )
            raise MetricTableError(f"no distance entry for ({x!r}, {y!r})") from None
        flat = [v for row in raw for v in row]
        flat += values
        den = lcm(*{v.denominator for v in flat})
        # rationals.scaled, inlined without its divisibility check: den is the
        # lcm of these very denominators, and this runs per entry on every call
        rows = [[v.numerator * (den // v.denominator) for v in row] for row in raw]
        return cls(points, rows, den)

    def symmetric_positive(self) -> bool:
        """Every pair of points at one positive distance both ways."""
        rows = self.rows
        cols = list(zip(*rows))
        return all(
            tuple(row) == cols[i] and min(row[i + 1 :], default=1) > 0
            for i, row in enumerate(rows)
        )

    def triangle_breaks(self) -> Iterator[tuple[int, int]]:
        """Index pairs i < j with d(x_i, x_j) > d(x_i, z) + d(z, x_j) for
        some z, in row order.

        One C-level ``min`` per pair; z = x_i and z = x_j add a zero
        diagonal entry, so they never decide it.
        """
        rows = self.rows
        cols = list(zip(*rows))
        for i, row in enumerate(rows):
            for j in range(i + 1, len(rows)):
                if row[j] > min(map(add, row, cols[j])):
                    yield i, j


def katetov_break(rows: list[list[int]], r: Sequence[int], handles: Sequence[int],
                  factor: int = 1) -> tuple[int, int] | None:
    """A pair (s, q) of the points ``handles`` at which the row ``r`` of a
    new point is not Katetov, |r_s - r_q| <= d(s, q) <= r_s + r_q failing,
    or None.

    ``r`` gives the new point's distance to each point of ``handles``, in
    their order, and the rows of ``rows`` at those handles must form a
    metric; each entry of ``rows`` times ``factor`` is on r's scale, and r
    must be >= 0.  Walk the points q in ascending (r_q, position), keep a
    support S, and gather d(q, S) with one getter to form m(q) = min over
    s in S of r_s + d(s, q):
    - r_q == m(q): q is explained by S;
    - r_q > m(q): r_q - r_s > d(s, q) at the s attaining m(q);
    - r_q < m(q): q joins S if d(s, q) <= r_s + r_q for every s in S.
    A failure returns the first s of S at which the pair (s, q) fails.
    If every step passes, r is Katetov on S: |r_s - r_q| <= d(s, q) holds by
    the ascending order and r_q < m(q), and d(s, q) <= r_s + r_q is the join
    check.  The path row f = min over s in S of r_s + d(s, .) extends a
    Katetov function on S, so it is Katetov on every point of ``handles``,
    and r = f: on S by the Katetov property; off S because r_q = m(q) >=
    f(q) when q was met, and no s gives less, the members then present by
    m(q) and the later ones by r_s >= r_q.  So those points and the new one
    form a metric exactly when this returns None.

    The cost is at most len(r) * |S| C-level steps: near linear for a row
    that a few points explain, as a one-point extension of a small base is,
    and quadratic for a constant row, which puts every point in S.
    """
    order = sorted(range(len(r)), key=r.__getitem__)
    if not order:
        return None
    supp, rs = [handles[order[0]]], [r[order[0]]]
    gather = _getter(supp)
    for i in order[1:]:
        q, rq = handles[i], r[i]
        g = gather(rows[q])
        if factor != 1:
            g = [v * factor for v in g]
        m = min(map(add, rs, g))
        if rq == m:
            continue
        if rq > m or max(map(sub, g, rs)) > rq:
            fails = (s for s, d, r_s in zip(supp, g, rs) if not abs(rq - r_s) <= d <= rq + r_s)
            return next(fails), q
        supp.append(q)
        rs.append(rq)
        gather = _getter(supp)
    return None


def _getter(idx: Sequence[int]):
    if len(idx) == 1:
        k = idx[0]
        return lambda row: (row[k],)
    return itemgetter(*idx)


def _katetov_gather(rows: list[list[int]], gets: list, vals: list[int],
                    targets: Iterable[tuple[int, ...]]) -> Iterator[int]:
    """For each index tuple a of ``targets``, in order, the least vals[b] +
    d(a, t_b) in the sum metric, gets[c] the getter of the c-th coordinates
    of the tuples t_b.  Split a = (h, z) and t_b = (t_b', y) at the last
    coordinate: vals[b] + d(a, t_b) = (vals[b] + d(h, t_b')) + d(z, y).  So
    a batch takes one summed gather per distinct h, one gather per distinct
    z, and one ``map(add)`` and one C-level ``min`` per tuple.  The kernel
    for integer rows; ``_katetov_window`` is the one over a distance dict.
    """
    heads: dict[tuple[int, ...], list[int]] = {(): vals}
    tails: dict[int, tuple[int, ...]] = {}
    for a in targets:
        h, z = a[:-1], a[-1]
        head = heads.get(h)
        if head is None:
            head = vals
            for get, i in zip(gets, h):
                head = map(add, head, get(rows[i]))
            head = heads[h] = list(head)
        tail = tails.get(z)
        if tail is None:
            tail = tails[z] = gets[-1](rows[z])
        yield min(map(add, head, tail))


def validate_metric(m: FinMetric) -> list[str]:
    """Check all four metric axioms; return one message per violation.

    A missing table entry raises MetricTableError instead of being reported.
    Each axiom is first decided on integer rows over one common denominator;
    the per-pair and per-triple loops run only to report what fails, and
    their messages show the table's own values.
    """
    pts = m.points
    ir = IntRows.of(pts, m.table)
    report = [] if ir.symmetric_positive() else _pair_report(m)
    if next(ir.triangle_breaks(), None) is None:
        return report
    rows = ir.rows
    for i, k, j in _ordered_triples(tuple(range(len(pts)))):
        if rows[i][j] > rows[i][k] + rows[k][j]:
            report.append(_triangle_msg(m, pts[i], pts[j], pts[k]))
    return report


def _pair_report(m: FinMetric) -> list[str]:
    report = []
    for x, y in m.pairs():
        dxy = m.d(x, y)
        dyx = m.d(y, x)
        if dxy != dyx:
            report.append(f"symmetry ({x},{y}): {dxy} != {dyx}")
        if dxy < 0:
            report.append(f"negativity ({x},{y}): {dxy} < 0")
        elif dxy == 0:
            report.append(f"identity ({x},{y}): distinct points at distance 0")
    return report


def _triangle_msg(m: FinMetric, x: str, y: str, z: str) -> str:
    return f"triangle ({x},{y},{z}): {m.d(x, y)} > {m.d(x, z)} + {m.d(z, y)}"


def _ordered_triples(points: tuple[str, ...]):
    for x, y, z in combinations(points, 3):
        yield x, y, z
        yield x, z, y
        yield y, x, z


def tuple_dist(m: FinMetric, a: tuple[str, ...], b: tuple[str, ...]) -> Fraction:
    """Sum metric on tuples: d(a, b) = sum_i d(a_i, b_i)."""
    return sum((m.d(x, y) for x, y in zip(a, b)), start=ZERO)


def _katetov_window(entries, tup, dist):
    """Both ends of the Katetov window the pins leave at ``tup``, in one pass:
    the envelope lo = max(0, max over pins (t, w) of w - d(t, tup)), the int
    0 when no pin lifts it, and hi = min over pins of w + d(t, tup), inf for
    none.  d is the sum metric over ``dist``, which maps ordered pairs of
    distinct coordinates to exact distances >= 0; a coordinate with x = y
    counts as 0.  A pin's distance is summed only while it can still move
    an end: w - d falls and w + d rises as d grows, so a candidate is cut
    once w - d <= lo and w + d >= hi.  The kernel for tuples over a
    distance dict; ``_katetov_gather`` is the one for integer rows."""
    lo, hi = 0, inf
    for ptup, w in entries:
        if w <= lo and w >= hi:
            continue
        d = 0
        for x, y in zip(ptup, tup):
            if x != y:
                d += dist[(x, y)]
                if w - d <= lo and w + d >= hi:
                    break
        else:
            if w - d > lo:
                lo = w - d
            if w + d < hi:
                hi = w + d
    return lo, hi


def path_amalgam_metric(
    b: FinMetric,
    c: FinMetric,
    a: FinMetric,
    map_b: Mapping[str, str],
    map_c: Mapping[str, str],
) -> FinMetric:
    """Shortest-path amalgam of b and c over the common subspace a.

    ``map_b``/``map_c`` send a's points into b/c and must be isometric.
    The result lives on a's ids, b's non-image ids and c's non-image ids;
    cross distances go through the cheapest common point.
    """
    _check_isometric(a, b, map_b, "map_b")
    _check_isometric(a, c, map_c, "map_c")
    img_b = {map_b[p]: p for p in a.points}
    img_c = {map_c[p]: p for p in a.points}
    rest_b = [p for p in b.points if p not in img_b]
    rest_c = [p for p in c.points if p not in img_c]
    if not a.points and rest_b and rest_c:
        raise WitnessError(
            "empty common part with both sides nonempty; use jep_gap_metric"
        )
    clash = (set(rest_b) & set(rest_c)) | (set(a.points) & set(rest_b + rest_c))
    if clash:
        raise MetricTableError(f"id collision outside the common part: {sorted(clash)}")

    points = tuple(a.points) + tuple(rest_b) + tuple(rest_c)
    back_b = {p: img_b.get(p, p) for p in b.points}  # b id -> output id
    back_c = {p: img_c.get(p, p) for p in c.points}
    entries: dict[tuple[str, str], Fraction] = {}
    for x, y in b.pairs():
        entries[(back_b[x], back_b[y])] = b.d(x, y)
    for x, y in c.pairs():
        key = (back_c[x], back_c[y])
        if key not in entries and (key[1], key[0]) not in entries:
            entries[key] = c.d(x, y)
    for x in rest_b:
        for y in rest_c:
            entries[(x, y)] = min(
                b.d(x, map_b[z]) + c.d(map_c[z], y) for z in a.points
            )
    return fin_metric(points, entries)


def path_amalgam_carry(
    b: FinMetric,
    c: FinMetric,
    a: FinMetric,
    map_b: Mapping[str, str],
    map_c: Mapping[str, str],
    data_b: Mapping[str, T],
    data_c: Mapping[str, T],
) -> tuple[FinMetric, dict[str, T]]:
    """``path_amalgam_metric`` plus one datum per point, carried over
    unchanged: a common point keeps b's, every other point its own side's."""
    metric = path_amalgam_metric(b, c, a, map_b, map_c)
    back_b = {map_b[p]: p for p in a.points}
    back_c = {map_c[p]: p for p in a.points}
    data = {back_b.get(p, p): data_b[p] for p in b.points}
    for p in c.points:
        data.setdefault(back_c.get(p, p), data_c[p])
    return metric, data


def _check_isometric(a: FinMetric, target: FinMetric, phi: Mapping[str, str], label: str):
    if set(phi.keys()) != set(a.points):
        raise WitnessError(f"{label} does not cover the common part")
    if len(set(phi.values())) != len(a.points):
        raise WitnessError(f"{label} is not injective")
    for p in a.points:
        if phi[p] not in target.points:
            raise WitnessError(f"{label} sends {p!r} outside the target")
    for x, y in a.pairs():
        if target.d(phi[x], phi[y]) != a.d(x, y):
            raise WitnessError(
                f"{label} distorts ({x},{y}): {target.d(phi[x], phi[y])} != {a.d(x, y)}"
            )


def jep_gap(values: Iterable[Fraction]) -> Fraction:
    """Joint-embedding gap: twice the largest of ``values``, or 1 if none is positive."""
    m = max(values, default=ZERO)
    return 2 * m if m > 0 else Fraction(1)


def jep_gap_metric(a: FinMetric, b: FinMetric, gap: Fraction) -> FinMetric:
    """Disjoint union of a and b with every cross distance equal to ``gap``.

    A constant cross distance is a metric iff 2*gap covers both diameters.
    """
    if not a.points:
        return b
    if not b.points:
        return a
    if set(a.points) & set(b.points):
        raise MetricTableError("point ids must be disjoint")
    if gap <= 0:
        raise ValueError("gap must be positive when both sides are nonempty")
    for side, name in ((a, "left"), (b, "right")):
        for x, y in side.pairs():
            if side.d(x, y) > 2 * gap:
                raise ValueError(
                    f"infeasible gap: triangle ({x},{y}) on the {name} side needs "
                    f"{side.d(x, y)} <= 2*{gap}"
                )
    entries = dict(a.table)
    entries.update(b.table)
    for x in a.points:
        for y in b.points:
            entries[(x, y)] = gap
    return fin_metric(tuple(a.points) + tuple(b.points), entries)


@dataclass(frozen=True)
class OnePointSpec:
    """Proposed distances from a new point to a base set of existing points."""

    base: tuple[str, ...]
    eta: dict[str, Fraction]


def one_point_feasible(m: FinMetric, spec: OnePointSpec) -> tuple[bool, str | None]:
    """Can a new point be adjoined to the base subspace at the eta distances?

    Returns (True, None) or (False, first violated inequality).  The check
    is exactly the triangle sandwich |eta_i - eta_j| <= d(i,j) <= eta_i + eta_j.
    """
    why = next((w for *_, w in _triangle_sandwich(spec.base, spec.eta, m.d, m.points) if w),
               None)
    return why is None, why


def _triangle_sandwich(base, eta, dist, space=None):
    """The sandwich |eta_x - eta_y| <= d(x, y) <= eta_x + eta_y of a new point
    at the distances ``eta`` to ``base``, pair by pair: x, y, |eta_x - eta_y|,
    d(x, y), eta_x + eta_y and the first inequality that fails, in words, or
    None.  A point outside ``space``, when given, or an eta <= 0 raises first."""
    for p in base:
        if space is not None and p not in space:
            raise MetricTableError(f"base point {p!r} not in the space")
        if eta[p] <= 0:
            raise ValueError(f"eta({p}) = 0: the new point must be distinct" if eta[p] == 0
                             else f"eta({p}) < 0")
    for x, y in combinations(base, 2):
        ex, ey, dxy = eta[x], eta[y], dist(x, y)
        gap, total = abs(ex - ey), ex + ey
        yield x, y, gap, dxy, total, (
            f"|eta({x}) - eta({y})| = {gap} > d = {dxy}" if gap > dxy
            else f"d({x},{y}) = {dxy} > eta({x}) + eta({y}) = {total}" if dxy > total else None)
