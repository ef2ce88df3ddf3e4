"""Differential tests of the one Katetov kernel per representation against
the verbatim copies in ``katetov_reference``.

``find_lipschitz_violation`` and ``canonical_extend`` must return what the
copies return, value and type, wherever the metric lists every point the
table uses with every distance among them; elsewhere they raise
MetricTableError.  ``_katetov_window(...)[0]``, the profile loop of
``eval_suitable`` and ``build_suitable`` must give ``_envelope``'s values.
Tables are drawn over one to four points at arity 1 to 3, partial and
total, constant, broken at one tuple, with negative values, negative
distances, an unknown point, a missing entry and ties on a small grid.
"""
from fractions import Fraction
from random import Random

import pytest
from hypothesis import example, given, settings, strategies as st

from urysohn.metric import FinMetric, MetricTableError, _katetov_window, fin_metric
from urysohn.randgen import random_compact, random_metric
from urysohn.rationals import ZERO
from urysohn.relational import canonical_extend, find_lipschitz_violation, tuples_over
from urysohn.spaces import build_suitable, eval_suitable, suitable

from katetov_reference import _envelope
from katetov_reference import canonical_extend as ref_canonical_extend
from katetov_reference import find_lipschitz_violation as ref_find_lipschitz_violation

F = Fraction
PTS = ("a", "b", "c", "d")
# a small grid, so that ties and zero values come up often
VALUES = st.sampled_from([F(0), F(0), F(1, 4), F(1, 2), F(1), F(3, 2), F(2), F(3)])


def _listed(metric, pts) -> bool:
    """Every point of ``pts`` is in the metric, with every distance among
    them present."""
    return set(pts) <= set(metric.points) and all(
        (x, y) in metric.table for x in pts for y in pts if x != y
    )


def _used(values) -> set[str]:
    return {p for t in values for p in t}


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (MetricTableError, ValueError, KeyError) as exc:
        return type(exc), str(exc)


def _same(got, want):
    """Equal, and of the same type wherever a value is."""
    assert got == want
    if isinstance(want, tuple):
        assert [type(v) for v in got] == [type(v) for v in want]
    elif isinstance(want, dict):
        assert [type(v) for v in got.values()] == [type(v) for v in want.values()]


@st.composite
def metric_tables(draw, negative=True):
    """A metric on one to four points, an arity of 1 to 3 and a table on
    some of its tuples, partial or total.

    The metric may carry a negative distance, lose one entry, or be read
    by a tuple on the unknown point z; a table may be constant, the Katetov
    envelope of a few pins, such an envelope raised at one tuple, or drawn
    at random, and may hold a negative value."""
    pts = PTS[: draw(st.integers(1, len(PTS)))]
    table = dict(random_metric(Random(draw(st.integers(0, 10**6))), pts, den=4, hi=8).table)
    pairs = sorted(table)
    fault = draw(st.sampled_from(["none"] * 6 + ["negative", "missing", "unknown"]))
    if pairs and fault == "negative":
        x, y = draw(st.sampled_from(pairs))
        table[(x, y)] = table[(y, x)] = -draw(VALUES)
    elif pairs and fault == "missing":
        del table[draw(st.sampled_from(pairs))]
    metric = FinMetric(pts, table)
    arity = draw(st.integers(1, 3 if len(pts) <= 3 else 2))
    tups = list(tuples_over(pts, arity))
    if draw(st.booleans()):
        chosen = tups
    else:
        chosen = draw(st.lists(st.sampled_from(tups), unique=True, min_size=1, max_size=8))
    kind = draw(st.sampled_from(["constant", "envelope", "raised", "random"]))
    if kind == "constant":
        const = draw(VALUES)
        values = {t: const for t in chosen}
    elif kind == "random":
        values = {t: draw(VALUES) for t in chosen}
    else:
        def dist(s, t):
            return sum((table.get((x, y), F(1)) for x, y in zip(s, t) if x != y), start=ZERO)

        pins = {draw(st.sampled_from(tups)): draw(VALUES) for _ in range(draw(st.integers(1, 3)))}
        values = {t: max([ZERO] + [w - dist(p, t) for p, w in pins.items()]) for t in chosen}
        if kind == "raised":
            values[draw(st.sampled_from(chosen))] += draw(VALUES) + F(1, 4)
    if draw(st.integers(0, 7)) == 0:
        values[draw(st.sampled_from(chosen))] = -draw(VALUES) - F(1, 4)
    if fault == "unknown":
        values[("z",) * arity] = draw(VALUES)
    if not negative:
        metric = FinMetric(pts, {pair: abs(v) for pair, v in metric.table.items()})
    return metric, arity, values


# a negative distance lets equal values break the law, at the minimum too
NEGATIVE_TIE = (
    fin_metric(["a", "b", "c"], {("a", "b"): F(-1), ("a", "c"): F(1), ("b", "c"): F(1)}),
    1,
    {("a",): F(0), ("b",): F(0), ("c",): F(1)},
)


@settings(max_examples=400, deadline=None)
@given(metric_tables())
@example(NEGATIVE_TIE)
def test_find_lipschitz_violation_matches_the_verbatim_copy(case):
    metric, _, values = case
    got = _outcome(find_lipschitz_violation, metric, values)
    if _listed(metric, _used(values)) or min(values.values()) < 0:
        # a negative value is reported before the points are looked up
        _same(got, ref_find_lipschitz_violation(metric, values))
    else:
        assert got[0] is MetricTableError
        assert got[1].startswith(("unknown point", "no distance entry"))


@settings(max_examples=300, deadline=None)
@given(metric_tables(negative=False))
@example(NEGATIVE_TIE)
def test_canonical_extend_matches_the_verbatim_copy(case):
    # the copy's envelope cuts a pin at a weight or partial sum <= its running
    # maximum, which is sound only for distances >= 0; a negative distance is
    # drawn here only where a table is refused before extending
    metric, arity, values = case
    got = _outcome(canonical_extend, metric, values, arity)
    want = _outcome(ref_canonical_extend, metric, values, arity)
    # a table refused before extending is refused alike; an extension reads
    # every point of the metric
    refused = isinstance(want, tuple) and want[0] is ValueError
    if refused and (_listed(metric, _used(values)) or min(values.values()) < 0):
        _same(got, want)
    elif _listed(metric, _used(values) | set(metric.points)):
        _same(got, want)
    else:
        assert got[0] is MetricTableError


@settings(max_examples=300, deadline=None)
@given(metric_tables(negative=False))
def test_window_low_end_is_the_envelope(case):
    metric, arity, values = case
    if not _listed(metric, metric.points):
        return
    entries = [(t, v) for t, v in values.items() if "z" not in t]
    for tup in tuples_over(metric.points, arity):
        lo = _katetov_window(entries, tup, metric.table)[0]
        want = _envelope(entries, tup, metric.table)
        assert lo == want and type(lo) is type(want)


@st.composite
def profiles(draw):
    """A compact presentation and a profile on it, not necessarily consistent."""
    k = random_compact(Random(draw(st.integers(0, 10**6))), draw(st.integers(1, 5)), den=4)
    support = draw(st.lists(st.integers(1, k.size), unique=True, max_size=k.size))
    return k, suitable({i: draw(VALUES) for i in support})


@settings(max_examples=300, deadline=None)
@given(profiles())
def test_profile_kernels_match_the_envelope(prof):
    k, f = prof
    for j in range(1, k.size + 1):
        got = eval_suitable(f, j, k)
        want = _envelope((((i,), v) for i, v in f.pins), (j,), k._d) or ZERO
        assert got == want and type(got) is type(want)
    # build_suitable's lift, each step read by _envelope
    gamma = dict(f.pins)
    order = sorted(gamma, key=lambda i: (-gamma[i], i))
    out, pins = {}, []
    for i in order:
        eta = _envelope(pins, (i,), k._d)
        out[i] = eta if eta > gamma[i] else gamma[i]
        pins.append(((i,), gamma[i]))
    assert build_suitable(gamma, k) == suitable(out)


def test_an_unknown_point_or_a_missing_entry_raises_before_any_scan():
    m = fin_metric(["a", "b"], {("a", "b"): F(1)})
    # the verbatim copy finds (b, a) before it reaches the unknown point z
    values = {("a",): F(0), ("b",): F(3), ("z",): F(0)}
    assert ref_find_lipschitz_violation(m, values) == (("b",), ("a",), F(3), F(1))
    with pytest.raises(MetricTableError, match="unknown point 'z'"):
        find_lipschitz_violation(m, values)
    m = FinMetric(("a", "b", "c"), {("a", "b"): F(1), ("b", "a"): F(1)})
    with pytest.raises(MetricTableError, match=r"no distance entry for \('a', 'c'\)"):
        find_lipschitz_violation(m, {("a",): F(0), ("c",): F(0)})
    # canonical_extend reads every point of the metric, so a missing entry
    # raises even off the pins; the copy raised a bare KeyError on it
    with pytest.raises(MetricTableError, match="no distance entry"):
        canonical_extend(m, {("a",): F(1)}, 1)
    with pytest.raises(KeyError):
        ref_canonical_extend(m, {("a",): F(1)}, 1)


def test_canonical_extend_is_the_exact_envelope_under_a_negative_distance():
    # the copy skips the pin of weight 0, which lifts b to 0 - (-1/4)
    m = FinMetric(("a", "b"), {("a", "b"): F(-1, 4), ("b", "a"): F(-1, 4)})
    assert canonical_extend(m, {("a",): F(0)}, 1) == {("a",): F(0), ("b",): F(1, 4)}
    assert ref_canonical_extend(m, {("a",): F(0)}, 1) == {("a",): F(0), ("b",): F(0)}
