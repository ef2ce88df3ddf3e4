"""Differential tests of the one-step validators against the scans they replace.

``metric.katetov_break`` decides the triangle inequality one point at a
time, through the Katetov support of each row, and run on each row in turn,
over the handles of the rows before it, must agree with an empty
``IntRows.triangle_breaks`` on every symmetric table with entries >= 0.
Replay runs it through ``LimitOracle._check_base`` on each row a log gives
whole, as the base of every earlier point, so a damaged log is refused
exactly when the scan finds a broken triangle.
``relational._lines_hold`` decides the 1-Lipschitz law of a total table along
its coordinate lines and must agree with the law over all pairs; with it,
``find_lipschitz_violation`` must return what the row scan alone returned.
Tables are grown and replayed oracle rows, L1 grids, random metrics, constant
(gap) rows, ties and tables of one to three points, each possibly with one
pair damaged.
"""
from fractions import Fraction
from itertools import product
from random import Random

from hypothesis import given, settings, strategies as st

from urysohn import relational
from urysohn.engine import LimitOracle, OracleGrowthError
from urysohn.files import oracle_file, parse_structure_file, replay_oracle, serialize_structure
from urysohn.metric import FinMetric, IntRows, _getter, _katetov_gather, fin_metric, katetov_break
from urysohn.randgen import random_metric
from urysohn.rationals import fmt_rat, scaled
from urysohn.relational import find_lipschitz_violation, tuples_over

from reference_log import reference_oracle_text, unchecked_replay
from test_katetov_kernel import old_find_lipschitz_violation
from test_validate_reference import grown_oracle, reference_validate_state

F = Fraction
seeds = st.integers(0, 2**32)


def decide(rows):
    """(each row Katetov on the rows before it, by ``katetov_break`` in row
    order, as replay runs it; no pair from the cubic scan) on integer rows.
    The pair a break names must itself fail the Katetov condition."""
    pair = None
    for h, r in enumerate(rows):
        pair = katetov_break(rows, r[:h], range(h))
        if pair is not None:
            s, q = pair
            assert not abs(r[s] - r[q]) <= rows[s][q] <= r[s] + r[q]
            break
    return pair is None, next(IntRows(range(len(rows)), rows, 1).triangle_breaks(), None) is None


def damage_one_pair(rng, rows, unit):
    """Move one symmetric pair by +- a few units, keeping it >= 0."""
    i, j = rng.sample(range(len(rows)), 2)
    step = rng.choice([1, max(1, unit // 2), unit, 2 * unit, 3 * unit])
    rows[i][j] = rows[j][i] = max(0, rows[i][j] + rng.choice([-1, 1]) * step)


def replayed(o):
    return replay_oracle(parse_structure_file(serialize_structure("ORACLE", oracle_file(o))).value)


def set_gd(text, point, other, value):
    """The log ``text`` with the gd line of ``other`` in ``point``'s block
    set to ``value``."""
    lines = text.split("\n")
    i = lines.index(f"grow {point}") + 1
    while not lines[i].startswith(f"gd {other} "):
        i += 1
    lines[i] = f"gd {other} {fmt_rat(value)}"
    return "\n".join(lines)


def damaged_log(rng, o):
    """The all-gd log of ``o`` with one distance moved by one unit of its
    scale, by 1 or by 3, and kept positive."""
    x, y = sorted(rng.sample(o.points, 2), key=o.points.index)
    unit = F(1, o.den)
    v = o.distance(x, y) + rng.choice([-1, 1]) * rng.choice([unit, 1, 3])
    return set_gd(reference_oracle_text(oracle_file(o)), y, x, max(unit, v))


def replay_refusal(text):
    """replay's refusal of the log ``text``, or None."""
    try:
        replay_oracle(parse_structure_file(text).value)
    except OracleGrowthError as exc:
        return str(exc)
    return None


# -- the triangle inequality, one point at a time ---------------------------------


@given(seeds, st.booleans())
@settings(max_examples=60, deadline=None)
def test_steps_match_the_scan_on_grown_and_replayed_rows(seed, replay):
    rng = Random(seed)
    o = grown_oracle(rng, steps=rng.randint(1, 14))
    if replay:
        o = replayed(o)
    assert decide([list(r) for r in o._rows]) == (True, True)
    if len(o) < 2:
        return
    text = damaged_log(rng, o)
    ok, want = decide(unchecked_replay(parse_structure_file(text).value)._rows)
    assert ok == want
    refusal = replay_refusal(text)
    assert (refusal is None) == want
    assert want or "metric infeasible at the base pair" in refusal


def test_damaged_rows_reach_both_answers():
    """One damaged distance in the log of a grown oracle sometimes leaves a
    metric and sometimes not, so both branches of the differential test are
    driven."""
    seen = set()
    for seed in range(40):
        rng = Random(seed)
        o = grown_oracle(rng, steps=10)
        if len(o) > 2:
            text = damaged_log(rng, o)
            rows = unchecked_replay(parse_structure_file(text).value)._rows
            seen.add((*decide(rows), replay_refusal(text) is None))
    assert seen == {(True, True, True), (False, False, False)}


@st.composite
def symmetric_rows(draw):
    """Symmetric integer rows with a zero diagonal and entries >= 0."""
    rng = Random(draw(seeds))
    kind = draw(st.sampled_from(["grid", "metric", "gap", "constant", "ties", "tiny"]))
    unit = 1
    if kind == "grid":
        # an L1 grid: many geodesics, many ties
        dim = rng.randint(1, 3)
        side = rng.randint(1, 4)
        w = [rng.randint(1, 3) for _ in range(dim)]
        pts = list(product(range(side), repeat=dim))
        rng.shuffle(pts)
        pts = pts[: rng.randint(1, 30)]
        rows = [[sum(c * abs(a - b) for c, a, b in zip(w, p, q)) for q in pts] for p in pts]
    elif kind == "metric":
        m = random_metric(rng, [f"p{i}" for i in range(rng.randint(1, 12))], den=4, hi=12)
        rows = IntRows.of(m.points, m.table).rows
        unit = 4
    elif kind == "gap":
        # two metrics at a constant cross distance: joint-embedding gap rows
        a = random_metric(rng, [f"a{i}" for i in range(rng.randint(1, 8))], den=1, hi=6)
        b = random_metric(rng, [f"b{i}" for i in range(rng.randint(1, 8))], den=1, hi=6)
        gap = rng.choice([0, 1, 2]) + max(a.diam(), b.diam(), F(1))
        entries = {**a.table, **b.table}
        entries.update({(x, y): gap for x in a.points for y in b.points})
        m = fin_metric(a.points + b.points, entries)
        rows = IntRows.of(m.points, m.table).rows
        unit = 2
    elif kind == "constant":
        n, c = rng.randint(1, 25), rng.randint(1, 5)
        rows = [[0 if i == j else c for j in range(n)] for i in range(n)]
        unit = c
    else:
        n = rng.randint(1, 3) if kind == "tiny" else rng.randint(3, 12)
        vals = [0, 1, 2, 3, 4] if kind == "tiny" else [1, 2, 2, 3]
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                rows[i][j] = rows[j][i] = rng.choice(vals)
    if len(rows) > 1 and draw(st.booleans()):
        damage_one_pair(rng, rows, unit)
    return rows


@given(symmetric_rows())
@settings(max_examples=400, deadline=None)
def test_steps_match_the_scan_on_grids_gaps_ties_and_tiny_tables(rows):
    ok, want = decide(rows)
    assert ok == want


def test_equilateral_worst_case_passes_and_catches_one_long_pair():
    # every row is constant, so every earlier point joins every support
    o = LimitOracle()
    for _ in range(40):
        o.grow({p: F(1) for p in o.points})
    text = reference_oracle_text(oracle_file(o))
    assert replay_refusal(text) is None
    assert replay_refusal(set_gd(text, "u23", "u7", F(2))) is None  # 1 + 1: still a metric
    long = set_gd(text, "u23", "u7", F(2 * o.den + 1, o.den))
    assert replay_refusal(long) == "step 23: metric infeasible at the base pair ('u1', 'u7')"
    state = unchecked_replay(parse_structure_file(long).value)
    assert reference_validate_state(state) == ["metric: triangle (u7,u23) via u1"]


# -- the Lipschitz law along coordinate lines -------------------------------------


# clean envelopes twice as often as each kind of broken table
KINDS = ["envelope", "raised", "random", "envelope"]


def full_table(rng, n, size, kind, bent):
    """A total table of arity n on ``size`` points.

    ``bent`` distances are rewritten on one side only, so they may be
    asymmetric or negative; values are the envelope of a few pins, the
    envelope with one value raised, or random.
    """
    m = random_metric(rng, [f"p{i}" for i in range(size)], den=2, hi=8)
    table = dict(m.table)
    for _ in range(bent if size > 1 else 0):
        x, y = rng.sample(m.points, 2)
        table[(x, y)] = F(rng.randint(-3, 8), 2)
    metric = FinMetric(m.points, table)
    tups = list(tuples_over(metric.points, n))
    if kind == "random":
        return metric, n, {t: F(rng.randint(0, 12), 4) for t in tups}
    pins = {rng.choice(tups): F(rng.randint(0, 12), 4) for _ in range(rng.randint(1, 4))}

    def dist(a, b):
        return sum((F(0) if x == y else table[(x, y)] for x, y in zip(a, b)), start=F(0))

    values = {t: max([F(0)] + [w - dist(p, t) for p, w in pins.items()]) for t in tups}
    if kind == "raised":
        values[rng.choice(tups)] += F(rng.randint(1, 4), 4)
    return metric, n, values


@st.composite
def full_tables(draw):
    """Total tables of arity 2 or 3 on up to 7 points."""
    rng = Random(draw(seeds))
    return full_table(
        rng,
        draw(st.integers(2, 3)),
        draw(st.integers(1, 7)),
        draw(st.sampled_from(KINDS)),
        draw(st.integers(0, 2)),
    )


def all_pairs_hold(metric, values):
    """The law for every pair, on the same integer rows: one ceiling per tuple."""
    used = sorted({p for t in values for p in t})
    ir = IntRows.of(used, metric.table, values.values())
    items = sorted(values.items())
    tups = [tuple(ir.index[p] for p in t) for t, _ in items]
    vals = [scaled(v, ir.den) for _, v in items]
    caps = _katetov_gather(ir.rows, [_getter(col) for col in zip(*tups)], vals, tups)
    return all(v <= cap for v, cap in zip(vals, caps))


def lines_hold(metric, n, values):
    used = sorted({p for t in values for p in t})
    ir = IntRows.of(used, metric.table, values.values())
    vals = [scaled(v, ir.den) for _, v in sorted(values.items())]
    return relational._lines_hold(ir.rows, vals, n)


@given(full_tables())
@settings(max_examples=150, deadline=None)
def test_lines_decide_the_law_on_full_tables(case):
    metric, n, values = case
    assert lines_hold(metric, n, values) == all_pairs_hold(metric, values)
    assert find_lipschitz_violation(metric, values) == old_find_lipschitz_violation(
        metric, values
    )


def test_full_tables_reach_both_answers_of_the_lines():
    seen = set()
    for seed in range(60):
        rng = Random(seed)
        metric, n, values = full_table(rng, 2 + seed % 2, rng.randint(2, 5), KINDS[seed % 4], 0)
        seen.add((n, lines_hold(metric, n, values)))
    assert seen == {(2, True), (2, False), (3, True), (3, False)}


def test_only_total_tables_of_arity_two_and_up_take_the_lines(monkeypatch):
    calls = []
    inner = relational._lines_hold
    monkeypatch.setattr(
        relational, "_lines_hold", lambda *args: calls.append(args[2]) or inner(*args)
    )
    m = fin_metric(["a", "b", "c"], {("a", "b"): F(1), ("a", "c"): F(2), ("b", "c"): F(2)})
    full = {t: F(sum(p == "a" for p in t)) for t in tuples_over(m.points, 2)}
    partial = {("a", "a"): F(2), ("a", "b"): F(0), ("c", "b"): F(1, 2)}
    unary = {("a",): F(0), ("b",): F(1), ("c",): F(2)}
    for values in (full, partial, unary):
        assert find_lipschitz_violation(m, values) == old_find_lipschitz_violation(m, values)
    assert calls == [2]
    assert find_lipschitz_violation(m, full) is None
    assert find_lipschitz_violation(m, partial) == (("a", "a"), ("a", "b"), F(2), F(1))
