"""Differential tests of the Katetov kernel in metric.py against the loops it
replaced.

Each reference below is the loop a caller ran before it called
the Katetov kernels, ``metric._katetov_window`` and ``metric._katetov_gather``:
profile evaluation and building, the canonical extension, the clamp windows
of the random generators and of the profile solver step, and the two
row-gather scans of the validators.  ``_Pins.unreproduced`` is checked
against the pairwise rule and the old per-pin gather.  Inputs are drawn
small, with zero values, ties, empty pin sets and targets that are pins
themselves.
"""
from fractions import Fraction
from itertools import product
from operator import add, itemgetter
from random import Random

import pytest
from hypothesis import example, given, settings, strategies as st

from urysohn.engine import _Pins
from urysohn.metric import (
    FinMetric,
    IntRows,
    MetricTableError,
    _getter,
    _katetov_gather,
    _katetov_window,
    tuple_dist,
)
from urysohn.randgen import (
    _clamp,
    compatible_profile,
    rand_rat,
    random_compact,
    random_metric,
    random_suitable,
    random_table,
)
from urysohn.rationals import ZERO, scaled
from urysohn.relational import canonical_extend, find_lipschitz_violation, tuples_over
from urysohn.spaces import (
    SuitableFn,
    _window,
    build_suitable,
    eval_suitable,
    suitable,
    suitable_from_values,
)

from katetov_reference import _gather_min
from oracle_state import walk_clamp

F = Fraction
PTS = ("a", "b", "c", "d")
# a small grid, so that zero values and ties come up often
VALUES = st.sampled_from([F(0), F(0), F(1, 4), F(1, 2), F(1), F(3, 2), F(2), F(3)])


def old_d_idx(k, i, j):
    pts = k.metric.points
    return k.metric.d(pts[i - 1], pts[j - 1])


# -- the replaced loops ---------------------------------------------------------


def old_eval_suitable(f, j, k):
    k.check_index(j)
    best = ZERO
    for i, v in f.pins:
        if v <= best:
            continue
        cand = v - old_d_idx(k, i, j)
        if cand > best:
            best = cand
    return best


def old_build_suitable(gamma, k):
    order = sorted(gamma, key=lambda i: (-gamma[i], i))
    out = {}
    for pos, i in enumerate(order):
        eta = max((gamma[j] - old_d_idx(k, j, i) for j in order[:pos]), default=ZERO)
        out[i] = eta if eta > gamma[i] else gamma[i]
    return suitable(out)


def old_canonical_extend(metric, values, arity):
    pins = list(values.items())
    out = {}
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


def old_clamped(eps, defined, dist, tup, scale):
    val = v = scaled(eps, scale)
    lo = hi = None
    for t2, w in defined.items():
        s = 0
        for x, y in zip(t2, tup):
            if x != y:
                s += dist[(x, y)]
        if lo is None or w - s > lo:
            lo = w - s
        if hi is None or w + s < hi:
            hi = w + s
    if lo is not None and v < lo:
        v = lo
    if hi is not None and v > hi:
        v = hi
    return (eps if v == val else Fraction(v, scale)), v


def old_random_table(rng, metric, arity, base=None, den=8, hi=16):
    out = dict(base or {})
    for tup in tuples_over(metric.points, arity):
        if tup in out:
            continue
        lo = max((w - tuple_dist(metric, t2, tup) for t2, w in out.items()), default=ZERO)
        cap = min((w + tuple_dist(metric, t2, tup) for t2, w in out.items()), default=None)
        out[tup] = _clamp(rand_rat(rng, den, 0, hi), max(lo, ZERO), cap)
    return out


def old_random_suitable(rng, k, den=8, hi=8):
    pins = {}
    for i in range(1, k.size + 1):
        if rng.random() < 0.6:
            lo = max((v - old_d_idx(k, j, i) for j, v in pins.items()), default=ZERO)
            cap = min((v + old_d_idx(k, j, i) for j, v in pins.items()), default=None)
            pins[i] = _clamp(rand_rat(rng, den, 0, hi), max(lo, ZERO), cap)
    return suitable(pins)


def old_compatible_profile(rng, k, neighbours, den=8, hi=8):
    raw = old_random_suitable(rng, k, den, hi)
    values = {}
    for n in range(1, k.size + 1):
        v = old_eval_suitable(raw, n, k)
        lo = max((old_eval_suitable(f, n, k) - d for f, d in neighbours), default=None)
        cap = min((old_eval_suitable(f, n, k) + d for f, d in neighbours), default=None)
        values[n] = _clamp(v, max(lo, ZERO) if lo is not None else ZERO, cap)
    return suitable_from_values(values, k)


def old_profile_window(eps, i, base, k):
    """The window of the profile solver step, each base profile read twice."""
    lo = max((old_eval_suitable(fu, i, k) - du for fu, du in base), default=None)
    hi = min((old_eval_suitable(fu, i, k) + du for fu, du in base), default=None)
    return eps if lo is None else min(max(eps, lo), hi)


def _getter(idx):
    if len(idx) == 1:
        k = idx[0]
        return lambda row: (row[k],)
    return itemgetter(*idx)


def old_sums(rows, a, gathers):
    out = gathers[0](rows[a[0]])
    for get, i in zip(gathers[1:], a[1:]):
        out = map(add, out, get(rows[i]))
    return out


def old_pin_clear(ir, pins):
    """validate_state's pin reproduction test, one row gather per pin."""
    index = ir.index
    tups = [tuple(index[p] for p in ptup) for ptup in pins]
    neg = [-w for w in pins.values()]
    gathers = [_getter(col) for col in zip(*tups)]
    return [
        v >= 0 and min(map(add, neg, old_sums(ir.rows, a, gathers))) + v >= 0
        for v, a in zip(pins.values(), tups)
    ]


def old_find_lipschitz_violation(metric, values):
    items = sorted(values.items())
    lo = min((v for _, v in items), default=ZERO)
    hi = max((v for _, v in items), default=ZERO)
    if lo < 0:
        ta = min(items, key=lambda kv: (kv[1], kv[0]))[0]
        return ta, ta, values[ta], ZERO
    used = sorted({p for t, _ in items for p in t})
    # with a negative distance the minimum and constant tables can break too
    nonneg = all(v >= 0 for (x, y), v in metric.table.items() if x in used and y in used)
    if lo == hi and nonneg:
        return None
    ir = None
    if all(p in metric.points for p in used):
        ir = IntRows.of(used, metric.table, (v for _, v in items))
    if ir is None:
        for ta, va in items:
            if va <= lo and nonneg:
                continue
            for tb, vb in items:
                if va > vb + tuple_dist(metric, ta, tb):
                    return ta, tb, va, vb + tuple_dist(metric, ta, tb)
        return None
    index = ir.index
    tups = [tuple(index[p] for p in t) for t, _ in items]
    vals = [scaled(v, ir.den) for _, v in items]
    gathers = [_getter(col) for col in zip(*tups)]
    lo_i = min(vals)
    for (ta, _), a, va in zip(items, tups, vals):
        if (va <= lo_i and nonneg) or va <= min(map(add, vals, old_sums(ir.rows, a, gathers))):
            continue
        for (tb, _), vb, d in zip(items, vals, old_sums(ir.rows, a, gathers)):
            if va > vb + d:
                return ta, tb, values[ta], values[tb] + tuple_dist(metric, ta, tb)
    return None


# -- strategies -----------------------------------------------------------------

seeds = st.integers(0, 10**6)


@st.composite
def tables(draw, partial=True):
    """A metric on PTS, an arity and a (possibly empty, possibly inconsistent)
    table on some of its tuples."""
    metric = random_metric(Random(draw(seeds)), PTS, den=4, hi=8)
    arity = draw(st.integers(1, 2))
    tups = list(tuples_over(PTS, arity))
    chosen = draw(st.lists(st.sampled_from(tups), unique=True, max_size=6 if partial else 0))
    return metric, arity, {t: draw(VALUES) for t in chosen}


@st.composite
def profiles(draw):
    """A compact presentation and a profile on it, not necessarily consistent."""
    k = random_compact(Random(draw(seeds)), draw(st.integers(1, 5)), den=4)
    support = draw(st.lists(st.integers(1, k.size), unique=True, max_size=k.size))
    return k, suitable({i: draw(VALUES) for i in support})


# -- the kernel on its own ------------------------------------------------------


def _brute(entries, tup, dist):
    ds = [
        sum((dist[(x, y)] for x, y in zip(t, tup) if x != y), start=0) for t, _ in entries
    ]
    lo = max([0] + [w - d for (_, w), d in zip(entries, ds)])
    hi = min([w + d for (_, w), d in zip(entries, ds)], default=None)
    return lo, hi


@settings(max_examples=200, deadline=None)
@given(tables(), st.data())
def test_envelope_and_ceiling_equal_the_unpruned_scan(table, data):
    metric, arity, values = table
    tup = data.draw(st.sampled_from(list(tuples_over(PTS, arity))))
    entries = list(values.items())
    lo, hi = _brute(entries, tup, metric.table)
    assert _katetov_window(entries, tup, metric.table) == (lo, float("inf") if hi is None else hi)


def test_envelope_of_no_pins_is_zero_and_a_pin_reads_its_own_value():
    table = {("a", "b"): F(1), ("b", "a"): F(1)}
    assert _katetov_window([], ("a",), table) == (0, float("inf"))
    pins = [(("a",), F(2)), (("b",), F(5, 2))]
    assert _katetov_window(pins, ("a",), table) == (F(2), F(2))
    assert _katetov_window([(("a",), F(0))], ("b",), table)[0] == 0


# -- the callers against their old loops ----------------------------------------


@settings(max_examples=200, deadline=None)
@given(profiles())
def test_eval_suitable_matches_the_old_loop(prof):
    k, f = prof
    for j in range(1, k.size + 1):
        got, want = eval_suitable(f, j, k), old_eval_suitable(f, j, k)
        assert got == want and type(got) is type(want)


@settings(max_examples=200, deadline=None)
@given(profiles())
def test_build_suitable_matches_the_old_loop(prof):
    k, f = prof
    gamma = dict(f.pins)
    assert build_suitable(gamma, k) == old_build_suitable(gamma, k)


@settings(max_examples=150, deadline=None)
@given(tables())
def test_canonical_extend_matches_the_old_loop(table):
    metric, arity, values = table
    if find_lipschitz_violation(metric, values) is not None:
        return  # both refuse an inconsistent table before extending
    got = canonical_extend(metric, values, arity)
    want = old_canonical_extend(metric, values, arity)
    assert got == want
    assert all(type(v) is Fraction for v in got.values())


@settings(max_examples=200, deadline=None)
@given(tables(), st.data())
def test_clamped_matches_the_old_loop_even_on_inconsistent_pins(table, data):
    # the random table need not be 1-Lipschitz, so the window may be empty
    metric, arity, values = table
    tup = data.draw(st.sampled_from(list(tuples_over(PTS, arity))))
    eps = data.draw(VALUES)
    scale = 8 * 3 * 4
    dist = {pair: scaled(v, scale) for pair, v in metric.table.items()}
    defined = {t: scaled(v, scale) for t, v in values.items()}
    assert walk_clamp(eps, defined, dist, tup, scale) == old_clamped(eps, defined, dist, tup, scale)


@settings(max_examples=200, deadline=None)
@given(tables())
def test_find_lipschitz_violation_matches_the_old_gather_scan(table):
    metric, _, values = table
    assert find_lipschitz_violation(metric, values) == old_find_lipschitz_violation(
        metric, values
    )


def test_find_lipschitz_violation_matches_on_unknown_points_and_ties():
    metric = random_metric(Random(3), PTS, den=4)
    cases = [
        {},
        {("a",): F(1), ("b",): F(1)},
        {("a",): F(0), ("b",): F(9), ("z",): F(1)},
        {("a",): F(5), ("b",): F(0)},
    ]
    for values in cases:
        if ("z",) in values:
            # a point the metric does not list raises before any scan, even
            # where the old scan found a pair before it reached the entry
            with pytest.raises(MetricTableError, match="unknown point 'z'"):
                find_lipschitz_violation(metric, values)
            continue
        assert find_lipschitz_violation(metric, values) == old_find_lipschitz_violation(
            metric, values
        )


@settings(max_examples=150, deadline=None)
@given(tables(), st.data())
def test_pin_reproduction_matches_the_old_gather_and_the_envelope(table, data):
    metric, _, values = table
    ir = IntRows.of(PTS, metric.table, values.values())
    pins = {t: scaled(v, ir.den) - data.draw(st.sampled_from([0, 0, 1])) for t, v in values.items()}
    if not pins:
        return
    index = ir.index
    tups = [tuple(index[p] for p in t) for t in pins]
    neg = [-w for w in pins.values()]
    lows = _katetov_gather(ir.rows, [_getter(col) for col in zip(*tups)], neg, tups)
    new = [v >= 0 and low + v >= 0 for v, low in zip(pins.values(), lows)]
    assert new == old_pin_clear(ir, pins)
    rows = {(x, y): ir.rows[index[x]][index[y]] for x in PTS for y in PTS if x != y}
    assert new == [_katetov_window(pins.items(), t, rows)[0] == v for t, v in pins.items()]


@st.composite
def gather_batches(draw):
    """Integer rows, pins and values, and a batch of index tuples at arity
    1-3.  The batch is drawn from a few prefixes and a few last points, so
    both repeat, with some pins among it, in drawn order.  The kernel reads
    sums alone, so the rows need not be a metric and may be negative."""
    size, n = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    ints, idx = st.integers(-4, 9), st.integers(0, size - 1)
    rows = [[draw(ints) for _ in range(size)] for _ in range(size)]
    pins = draw(st.lists(st.tuples(*[idx] * n), min_size=1, max_size=8))
    vals = [draw(ints) for _ in pins]
    heads = draw(st.lists(st.tuples(*[idx] * (n - 1)), min_size=1, max_size=3))
    lasts = draw(st.lists(idx, min_size=1, max_size=3))
    batch = draw(st.lists(st.builds(lambda h, z: (*h, z), st.sampled_from(heads),
                                    st.sampled_from(lasts)), max_size=12))
    batch += draw(st.lists(st.sampled_from(pins), max_size=2))
    return rows, pins, vals, draw(st.permutations(batch))


# arity 2, both prefixes and both last points repeated, out of sorted order
REPEATS_UNSORTED = (
    [[0, 3, 1], [3, 0, 2], [1, 2, 0]],
    [(0, 1), (2, 2), (1, 0)],
    [-2, 1, -5],
    [(2, 1), (0, 0), (2, 0), (0, 1), (2, 1), (1, 1)],
)
# arity 3, two prefixes that share their first point
SHARED_FIRST_POINT = (
    [[0, 3, 1], [3, 0, 2], [1, 2, 0]],
    [(0, 1, 2), (1, 2, 0)],
    [0, -4],
    [(0, 2, 2), (0, 1, 2), (0, 2, 1), (0, 1, 1)],
)


@settings(max_examples=300, deadline=None)
@given(gather_batches())
@example(REPEATS_UNSORTED)
@example(SHARED_FIRST_POINT)
def test_the_batch_gather_matches_the_per_target_gather(batch):
    rows, pins, vals, targets = batch
    gets = [_getter(col) for col in zip(*pins)]
    want = [_gather_min(rows, gets, vals, a) for a in targets]
    assert list(_katetov_gather(rows, gets, vals, targets)) == want


def brute_unreproduced(ir, pins):
    """The pins (t, v) that the pairwise rule refuses: v < 0, or some pin
    (s, w) with w - d(s, t) > v in the sum metric."""
    def d(s, t):
        return sum(ir.rows[ir.index[x]][ir.index[y]] for x, y in zip(s, t))

    return [t for t, v in pins.items() if v < 0 or any(w - d(s, t) > v for s, w in pins.items())]


@st.composite
def pin_slots(draw):
    """Integer rows of a metric on PTS and the pins of one slot of arity 1
    to 3, added one at a time, in column order.  They sit on few points, so
    that pins share heads and tails; equal weights, a negative pin, a tuple
    pinned twice and an empty slot come up."""
    metric = random_metric(Random(draw(seeds)), PTS, den=4, hi=8)
    arity = draw(st.integers(1, 3))
    pts = PTS[: draw(st.integers(1, len(PTS)))]
    tups = st.tuples(*[st.sampled_from(pts)] * arity)
    drawn = draw(st.lists(st.tuples(tups, st.one_of(VALUES, st.just(F(-1, 4)))), max_size=10))
    ir = IntRows.of(PTS, metric.table, [v for _, v in drawn])
    adds = [(t, scaled(v, ir.den) - draw(st.sampled_from([0, 0, 1]))) for t, v in drawn]
    return ir, adds


# a, c, b of weights 4 > 3 > 1, on a metric where c alone forces b above 1:
# the lightest of b's heavier pins decides it
FORCED_BY_THE_LAST_HEAVIER = (
    IntRows(PTS, [[0, 3, 2, 2], [3, 0, 1, 2], [2, 1, 0, 2], [2, 2, 2, 0]], 1),
    [(("a",), 4), (("c",), 3), (("b",), 1)],
)
# the head group of a holds (a, c) and its lightest pin (a, f); of the heads
# -4, -2, -2, -5, -3 of the pins heavier than (a, f), in column order, only
# the -5 of (f, c) refuses (a, c), and it is found once they are sorted
FORCED_PAST_A_LARGER_HEAD = (
    IntRows(
        ("a", "b", "c", "d", "e", "f"),
        [[0, 7, 5, 8, 8, 1], [7, 0, 6, 4, 6, 6], [5, 6, 0, 6, 3, 4],
         [8, 4, 6, 0, 6, 7], [8, 6, 3, 6, 0, 7], [1, 6, 4, 7, 7, 0]],
        4,
    ),
    [(("a", "c"), 3), (("a", "f"), 1), (("f", "c"), 6), (("b", "e"), 9), (("c", "e"), 7),
     (("b", "d"), 11)],
)


@settings(max_examples=300, deadline=None)
@given(pin_slots())
@example(FORCED_BY_THE_LAST_HEAVIER)
@example(FORCED_PAST_A_LARGER_HEAD)
def test_unreproduced_pins_match_the_pairwise_rule_and_the_old_gather(slot):
    ir, adds = slot
    pins, want = _Pins(), {}
    for t, w in adds:
        pins.add(ir.index, {t: w})
        want[t] = w
    ids = list(ir.index)
    got = [tuple(ids[h] for h in t) for t in pins.unreproduced(ir.rows)]
    assert got == brute_unreproduced(ir, want)
    assert got == [t for t, clear in zip(want, old_pin_clear(ir, want)) if not clear]
    assert _Pins().unreproduced(ir.rows) == []


@settings(max_examples=200, deadline=None)
@given(seeds, st.integers(1, 3), st.data())
def test_one_pin_lowered_in_a_consistent_slot_is_reported_alone(seed, arity, data):
    # a 1-Lipschitz table is reproduced by its own pins, and lowering one of
    # them leaves the others reproduced: only the lowered pin can be reported.
    # Its whole head group is pinned, so that it is often not the group's
    # lightest pin, and one heavier pin often decides it alone
    rng = Random(seed)
    metric = random_metric(rng, PTS, den=4, hi=8)
    table = random_table(rng, metric, arity, den=4, hi=24)
    head = data.draw(st.sampled_from(sorted({t[:-1] for t in table})))
    group = [t for t in sorted(table) if t[:-1] == head]
    others = data.draw(st.lists(st.sampled_from(sorted(table)), unique=True, max_size=12))
    chosen = list(dict.fromkeys(group + others))
    ir = IntRows.of(PTS, metric.table, [table[t] for t in chosen])
    want = {t: scaled(table[t], ir.den) for t in chosen}
    assert brute_unreproduced(ir, want) == []
    low = data.draw(st.sampled_from(group))
    want[low] -= data.draw(st.integers(1, ir.den))
    pins = _Pins()
    pins.add(ir.index, want)
    got = [tuple(PTS[h] for h in t) for t in pins.unreproduced(ir.rows)]
    assert got == brute_unreproduced(ir, want)
    assert got in ([], [low])


@settings(max_examples=100, deadline=None)
@given(seeds, st.integers(1, 2))
def test_random_table_draws_like_the_old_loop(seed, arity):
    metric = random_metric(Random(seed), PTS, den=4)
    base = {("a",) * arity: F(1)}
    for partial in (None, base):
        r1, r2 = Random(seed), Random(seed)
        assert random_table(r1, metric, arity, partial) == old_random_table(r2, metric, arity, partial)
        assert r1.random() == r2.random()
    # the same seed gives the same table
    assert random_table(Random(seed), metric, arity) == random_table(Random(seed), metric, arity)


@settings(max_examples=100, deadline=None)
@given(seeds)
def test_random_profiles_draw_like_the_old_loops(seed):
    k = random_compact(Random(seed), 5, den=4)
    r1, r2 = Random(seed), Random(seed)
    assert random_suitable(r1, k) == old_random_suitable(r2, k)
    neighbours = []
    for d in (F(1, 2), F(1), F(3, 4)):
        f1 = compatible_profile(r1, k, neighbours)
        f2 = old_compatible_profile(r2, k, neighbours)
        assert f1 == f2
        neighbours.append((f1, d))
    assert r1.random() == r2.random()


@settings(max_examples=150, deadline=None)
@given(profiles(), st.lists(st.tuples(profiles(), VALUES), max_size=3), VALUES)
def test_profile_window_matches_the_old_double_read(prof, others, eps):
    k, _ = prof
    base = []
    for (_, g), d in others:
        # the neighbours' profiles live on k, at positive distances
        base.append((SuitableFn(tuple((i, v) for i, v in g.pins if i <= k.size)), d + F(1, 4)))
    for i in range(1, k.size + 1):
        got, want = _window(eps, i, base, k), old_profile_window(eps, i, base, k)
        assert got == want


def test_every_window_is_met_on_a_full_grid():
    # exhaustive: every pin value in a small grid, every target, one metric
    metric = FinMetric(("a", "b"), {("a", "b"): F(1), ("b", "a"): F(1)})
    grid = [F(0), F(1, 2), F(1), F(2)]
    for wa, wb in product(grid, repeat=2):
        values = {("a",): wa, ("b",): wb}
        for tup in (("a",), ("b",)):
            for eps in grid:
                dist = {pair: scaled(v, 2) for pair, v in metric.table.items()}
                defined = {t: scaled(v, 2) for t, v in values.items()}
                assert walk_clamp(eps, defined, dist, tup, 2) == old_clamped(eps, defined, dist, tup, 2)
