"""The Katetov envelope, the 1-Lipschitz scan and the canonical extension as
they were before each representation kept one kernel, copied verbatim.

``_envelope`` is the rational low end of the Katetov window over a distance
dict; ``find_lipschitz_violation`` cleared rows on integer rows when every
used point was known and every distance among them present, and otherwise
scanned in rationals, skipping constant tables and rows at the minimum when
no distance was negative; ``canonical_extend`` filled each undefined tuple
with ``_envelope``.  The differential tests hold the library to these
wherever the metric lists every used point with all distances among them.
The copies read ``IntRows.of``, which now raises on a missing entry where
it returned None, so only there do they differ from the code they copy.
``_clamped`` is the clamp of a rel solver step as it ran in ``cauchy``
before the oracle's walk clamped (``LimitOracle._walk_slot``), for the two
solver references.  ``_gather_min`` and ``_ceilings`` are the per-target
row gather of ``metric`` and the ``IntRows.ceilings`` method that read it,
as they were before the integer rows kept one batch kernel
(``metric._katetov_gather``).
"""
from fractions import Fraction
from operator import add
from typing import Iterable, Iterator, Mapping, Sequence

from urysohn.metric import FinMetric, IntRows, _getter, _katetov_window, tuple_dist
from urysohn.rationals import ZERO, scaled
from urysohn.relational import _lines_hold, tuples_over


def _envelope(entries, tup, dist):
    """Katetov envelope max(0, max over pins (t, w) of w - d(t, tup)).

    The one lower envelope of the package, and the floor of every clamp
    window (``_katetov_window``): the growth walk of
    ``LimitOracle._walk_slot``, tables of ``FinMetric.table`` and profiles
    (1-tuples of dense indices over a presentation's ``_d``).  ``dist``
    maps ordered pairs of distinct coordinates to exact distances.
    Each caller gets the value its own loop gave before:
    - ``tuple_dist`` and ``d_idx`` count a coordinate with x = y as 0, and
      the kernel skips it;
    - a candidate is cut once its partial sum falls to the running maximum,
      which is sound because distances are >= 0;
    - ``cauchy._clamped``, ``build_suitable`` and the profile windows of
      ``compatible_profile`` and ``extend_one_point_c`` had no floor at 0.
      The floor changes nothing there, because the value the bound is
      ``max``ed with is >= 0: ``validate_k`` refuses negative targets, and
      profile values and ``gamma`` are >= 0;
    - ``_ceilings`` forms the integer sums the validators' row
      gathers formed, so their batch tests decide the same.
    """
    env = 0
    for ptup, w in entries:
        if w <= env:
            continue
        s = w
        for x, y in zip(ptup, tup):
            if x != y:
                s -= dist[(x, y)]
                if s <= env:
                    break
        else:
            env = s
    return env


def find_lipschitz_violation(
    metric: FinMetric, values: Mapping[tuple[str, ...], Fraction]
):
    """First pair breaking p(a) <= p(b) + d(a, b) in the sum metric, or None.

    Pairs are scanned in sorted order of (a, b).  When every point the
    tuples use is known and every distance among them is present, rows are
    cleared on integer rows over one common denominator: a row a is clear
    when p(a) <= min over b of p(b) + d(a, b) (``_ceilings``), and
    only the first row that is not clear is scanned for its first b.
    Otherwise every row above the minimum is scanned in rationals, which
    raises MetricTableError at the first missing entry it reaches.  Both
    give the same answer.  Rows at the minimum, and constant tables, are
    passed over only when no distance among the used points is negative.
    A total table of arity n >= 2 is first decided along its coordinate
    lines (``_lines_hold``): when every line holds, the law holds for every
    pair and no scan could find one; otherwise the rows are cleared as above
    to name the first pair.
    """
    items = sorted(values.items())
    lo = min((v for _, v in items), default=ZERO)
    hi = max((v for _, v in items), default=ZERO)
    if lo < 0:
        ta = min(items, key=lambda kv: (kv[1], kv[0]))[0]
        return ta, ta, values[ta], ZERO
    used = sorted({p for t, _ in items for p in t})
    # a tuple at the minimum obeys the law, p(a) = lo <= p(b) + d(a, b), when
    # no distance among the used points is negative: only then may a
    # constant table pass unscanned and a row at the minimum be skipped
    on = set(used)
    if lo == hi and _nonnegative(metric, on):
        return None
    known = on <= set(metric.points)
    ir = IntRows.of(used, metric.table, (v for _, v in items)) if known else None
    if ir is None:
        floor = lo if _nonnegative(metric, on) else -1
        suspects = (item for item in items if item[1] > floor)
    else:
        vals = [scaled(v, ir.den) for _, v in items]
        n = len(items[0][0])
        total = len(items) == len(used) ** n and all(len(t) == n for t, _ in items)
        if n >= 2 and total and _lines_hold(ir.rows, vals, n):
            return None
        index = ir.index
        tups = [tuple(index[p] for p in t) for t, _ in items]
        # the values are >= 0 here, so a floor of -1 skips no row
        floor = min(vals) if min(map(min, ir.rows)) >= 0 else -1
        high = [(item, a, va) for item, a, va in zip(items, tups, vals) if va > floor]
        caps = _ceilings(ir, [a for _, a, _ in high], tups, vals)
        suspects = (item for (item, _, va), cap in zip(high, caps) if va > cap)
    for ta, va in suspects:
        for tb, vb in items:
            rhs = vb + tuple_dist(metric, ta, tb)
            if va > rhs:
                return ta, tb, va, rhs
    return None


def _ceilings(
    ir: IntRows, targets: Iterable[tuple[int, ...]], tups: Sequence[tuple[int, ...]], vals
) -> Iterator[int]:
    """For each index tuple a of ``targets``, the least vals[b] +
    d(a, tups[b]) in the sum metric: one getter per coordinate, summed
    with ``map(add, ...)``, and one C-level ``min`` per target."""
    rows = ir.rows
    gets = [_getter(col) for col in zip(*tups)]
    for a in targets:
        yield _gather_min(rows, gets, vals, a)


def _gather_min(rows: list[list[int]], gets: list, vals, a: tuple[int, ...]) -> int:
    """min over b of vals[b] + d(a, t_b) in the sum metric, where gets[c]
    is the getter of the c-th coordinates of the tuples t_b: one gather per
    coordinate of a, summed with ``map(add, ...)``, and one C-level ``min``.
    """
    out = map(add, vals, gets[0](rows[a[0]]))
    for get, i in zip(gets[1:], a[1:]):
        out = map(add, out, get(rows[i]))
    return min(out)


def _nonnegative(metric: FinMetric, pts: set[str]) -> bool:
    """No distance entry among ``pts`` is negative."""
    return all(v >= 0 for (x, y), v in metric.table.items() if x in pts and y in pts)


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
        out[tup] = values[tup] if tup in values else _envelope(pins, tup, metric.table) or ZERO
    return out


def _clamped(eps, defined, dist, tup, scale) -> tuple[Fraction, int]:
    """A target clamped into the window of the values ``defined``, as a solver
    step's walk clamps it; values, ``dist`` and the second result at ``scale``."""
    val = scaled(eps, scale)
    lo, hi = _katetov_window(defined.items(), tup, dist)
    v = min(max(val, lo), hi)
    return (eps if v == val else Fraction(v, scale)), v
