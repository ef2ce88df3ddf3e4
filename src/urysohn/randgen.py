"""Seeded random instance generators for experiments and acceptance drivers.

Everything draws from a caller-supplied random.Random, so a fixed seed
reproduces runs bit for bit.  Metrics are built incrementally with each new
distance clamped into its feasible triangle window; predicate tables are
built the same way inside their Katetov windows, which keeps every
generated object valid by construction.
"""
from __future__ import annotations

from fractions import Fraction
from operator import add
from random import Random
from typing import Sequence

from .metric import FinMetric, _katetov_window, fin_metric
from .rationals import ZERO
from .relational import IndexedStructure, tuples_over
from .spaces import CompactPresentation, PolishPresentation, SuitableFn, suitable


def rand_rat(rng: Random, den: int = 8, lo: int = 1, hi: int = 16) -> Fraction:
    return Fraction(rng.randint(lo, hi), den)


def _clamp(v: Fraction, lo: Fraction | None, hi: Fraction | None) -> Fraction:
    if lo is not None and v < lo:
        v = lo
    if hi is not None and v > hi:
        v = hi
    return v


def random_metric(rng: Random, ids: Sequence[str], den: int = 8, hi: int = 16) -> FinMetric:
    """Random rational metric; distances live on the grid k/den."""
    pts = list(ids)
    entries: dict[tuple[str, str], Fraction] = {}

    def d(x, y):
        return entries.get((x, y)) or entries[(y, x)]

    for i, x in enumerate(pts):
        for y in pts[i + 1 :]:
            lo, cap = _triangle_window([d(x, z) for z in pts[:i]], [d(y, z) for z in pts[:i]], den)
            entries[(x, y)] = _clamp(rand_rat(rng, den, 1, hi), lo, cap)
    return fin_metric(pts, entries)


def _triangle_window(dx, dy, den: int) -> tuple[Fraction, Fraction | None]:
    """The window the distances ``dx`` and ``dy`` from x and y to the same
    earlier points leave for d(x, y), raised to at least 1/den."""
    lo = max((abs(a - b) for a, b in zip(dx, dy)), default=ZERO)
    return max(lo, Fraction(1, den)), min(map(add, dx, dy), default=None)


def _random_row(rng: Random, pts: Sequence[str], dist, den: int = 8) -> dict[str, Fraction]:
    """Random distances from one new point to ``pts``, in order.

    ``dist(a, b)`` reads the existing distances; each entry is clamped into
    the triangle window the earlier entries leave.
    """
    row: dict[str, Fraction] = {}
    for i, a in enumerate(pts):
        lo, cap = _triangle_window([row[b] for b in pts[:i]], [dist(a, b) for b in pts[:i]], den)
        row[a] = _clamp(rand_rat(rng, den), lo, cap)
    return row


def random_table(
    rng: Random,
    metric: FinMetric,
    arity: int,
    base: dict[tuple[str, ...], Fraction] | None = None,
    den: int = 8,
    hi: int = 16,
) -> dict[tuple[str, ...], Fraction]:
    """Complete a partial 1-Lipschitz table with random in-window values."""
    out = dict(base or {})
    for tup in tuples_over(metric.points, arity):
        if tup in out:
            continue
        lo, cap = _katetov_window(out.items(), tup, metric.table)
        out[tup] = _clamp(rand_rat(rng, den, 0, hi), lo, cap)
    return out


def random_bark(
    rng: Random,
    ids: Sequence[str],
    bound: int | None = None,
    den: int = 8,
) -> IndexedStructure:
    """Random structure with arbitrary (possibly sparse) index sets."""
    metric = random_metric(rng, ids, den)
    if bound is None:
        bound = rng.randint(0, min(2, len(metric)))
    indices = {
        n: tuple(sorted(rng.sample(range(1, 10), bound - n + 1)))
        for n in range(1, bound + 1)
    }
    pred = {}
    for n in indices:
        for m in indices[n]:
            for tup, v in random_table(rng, metric, n, den=den).items():
                pred[(n, m, tup)] = v
    return IndexedStructure(metric, bound, indices, pred)


def random_suitable(rng: Random, k: CompactPresentation, den: int = 8, hi: int = 8) -> SuitableFn:
    """Random profile: random consistent values on a random support."""
    pins: dict[int, Fraction] = {}
    for i in range(1, k.size + 1):
        if rng.random() < 0.6:
            entries = [((j,), v) for j, v in pins.items()]
            lo, cap = _katetov_window(entries, (i,), k._d)
            pins[i] = _clamp(rand_rat(rng, den, 0, hi), lo, cap)
    return suitable(pins)


def compatible_profile(
    rng: Random,
    k: CompactPresentation,
    neighbours: Sequence[tuple[SuitableFn, Fraction]],
    den: int = 8,
    hi: int = 8,
) -> SuitableFn:
    """Random profile clamped between the envelopes the neighbours admit.

    The pointwise lower and upper envelopes of 1-Lipschitz functions are
    1-Lipschitz, so clamping a random profile between them stays valid.
    """
    from .spaces import _window, eval_suitable, suitable_from_values

    raw = random_suitable(rng, k, den, hi)
    values = {
        n: _window(eval_suitable(raw, n, k), n, neighbours, k) for n in range(1, k.size + 1)
    }
    return suitable_from_values(values, k)


def random_structure_l(
    rng: Random,
    z: PolishPresentation,
    ids: Sequence[str],
    lip: Fraction,
    den: int = 8,
    retries: int = 200,
):
    """Random valid Lipschitz-labelled structure over a Polish presentation.

    Label and triangle constraints can collide for tight metrics, so draws
    are rejected until a valid instance appears; small instances converge
    in a couple of tries.
    """
    from .lipschitz import StructureL, validate_l

    for _ in range(retries):
        labels = {p: rng.randint(1, z.size) for p in ids}
        pts = list(ids)
        entries: dict[tuple[str, str], Fraction] = {}

        def d(x, y):
            return entries.get((x, y)) or entries[(y, x)]

        feasible = True
        for i, x in enumerate(pts):
            for y in pts[i + 1 :]:
                ws = pts[:i]
                lo, cap = _triangle_window([d(x, w) for w in ws], [d(y, w) for w in ws], den)
                lo = max(lo, z.d_idx(labels[x], labels[y]) / lip)
                if cap is not None and lo > cap:
                    feasible = False
                    break
                entries[(x, y)] = _clamp(rand_rat(rng, den, 1, 4 * den), lo, cap)
            if not feasible:
                break
        if not feasible:
            continue
        s = StructureL(fin_metric(pts, entries), labels, lip)
        if validate_l(s, z) == []:
            return s
    raise RuntimeError("could not draw a valid labelled structure")


def random_compact(rng: Random, size: int, den: int = 8) -> CompactPresentation:
    ids = [f"q{i}" for i in range(1, size + 1)]
    return CompactPresentation(random_metric(rng, ids, den))


def random_polish(rng: Random, size: int, den: int = 8) -> PolishPresentation:
    ids = [f"z{i}" for i in range(1, size + 1)]
    return PolishPresentation(random_metric(rng, ids, den))


def random_wish_extension(
    rng: Random,
    o,
    side_points,
    x: IndexedStructure,
    side_globals: dict[tuple[int, int], int],
    build_depth: int,
    k: int,
    den: int = 8,
) -> IndexedStructure:
    """Random one-point extension of an embedded copy, measured in the oracle.

    The base part is the copy read at the deepest level the coming build will
    touch, so its metric and predicate rows are exact oracle data; the wish
    point's rows are random values clamped into their feasible windows.
    """
    from .cauchy import required_depth

    level = required_depth(k, build_depth)
    measured = [p.at(level) for p in side_points]
    entries = {
        (a, b): o.distance(a, b)
        for i, a in enumerate(measured)
        for b in measured[i + 1 :]
    }
    row = _random_row(rng, measured, o.distance, den)
    entries.update({(a, "wish"): v for a, v in row.items()})
    metric = fin_metric(measured + ["wish"], entries)
    pred = {}
    for n in x.indices:
        for m in x.indices[n]:
            tups = list(tuples_over(tuple(measured), n))
            base = dict(zip(tups, o.predicate_values(n, side_globals[(n, m)], tups)))
            for tup, v in random_table(rng, metric, n, base, den=den).items():
                pred[(n, m, tup)] = v
    return IndexedStructure(metric, x.bound, dict(x.indices), pred)
