from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from urysohn.metric import WitnessError, fin_metric
from urysohn.relational import (
    EmbeddingWitness,
    FixedArityConfig,
    FixedArityStructure,
    IndexedStructure,
    canonical_extend,
    check_embedding_k,
    find_isomorphism,
    find_isomorphism_fixed,
    identity_witness,
    indexed_structure,
    pattern_indices,
    pattern_slots,
    restrict_k,
    tuples_over,
    validate_fixed,
    validate_k,
)

F = Fraction


def two_points(d=F(2)):
    return fin_metric(["a", "b"], {("a", "b"): d})


def test_pattern_slots():
    assert pattern_slots(2) == [(1, 1), (1, 2), (2, 1)]
    assert pattern_slots(0) == []


def test_totality_violation_reported():
    m = two_points()
    s = indexed_structure(m, bound=2)
    broken = dict(s.pred)
    del broken[(1, 2, ("a",))]
    report = validate_k(IndexedStructure(m, 2, pattern_indices(2), broken))
    assert any("totality" in msg and "p_2^1" in msg for msg in report)


def test_lipschitz_violation_reported():
    m = two_points()
    s = indexed_structure(m, pred={(1, 1, ("a",)): F(5), (1, 1, ("b",)): F(1)}, bound=1)
    report = validate_k(s)
    assert any("lipschitz" in msg and "5" in msg for msg in report)


def test_all_zero_tables_valid():
    m = two_points()
    assert validate_k(indexed_structure(m, bound=2)) == []


def swapped_pair():
    # two-point structures whose unary slots play switched roles
    q, h = F(3, 2), F(1, 2)
    m1 = fin_metric(["a1", "a2"], {("a1", "a2"): F(2)})
    m2 = fin_metric(["b1", "b2"], {("b1", "b2"): F(2)})
    s1 = indexed_structure(
        m1,
        pred={
            (1, 1, ("a1",)): q,
            (1, 1, ("a2",)): F(0),
            (1, 2, ("a1",)): h,
            (1, 2, ("a2",)): F(0),
        },
        bound=2,
    )
    s2 = indexed_structure(
        m2,
        pred={
            (1, 1, ("b1",)): h,
            (1, 1, ("b2",)): F(0),
            (1, 2, ("b1",)): q,
            (1, 2, ("b2",)): F(0),
        },
        bound=2,
    )
    return s1, s2


def test_swapped_slots_match_under_transposition():
    s1, s2 = swapped_pair()
    assert validate_k(s1) == [] and validate_k(s2) == []
    w = EmbeddingWitness(
        {"a1": "b1", "a2": "b2"},
        {1: {1: 2, 2: 1}, 2: {1: 1}},
    )
    ok, why = check_embedding_k(s1, s2, w)
    assert ok, why


def test_identity_witness_always_accepted():
    s1, _ = swapped_pair()
    ok, _ = check_embedding_k(s1, s1, identity_witness(s1))
    assert ok


def test_distorting_point_map_names_the_pair():
    m = two_points()
    s = indexed_structure(m, bound=1)
    bigger = indexed_structure(fin_metric(["a", "b"], {("a", "b"): F(3)}), bound=1)
    w = EmbeddingWitness({"a": "a", "b": "b"}, {1: {1: 1}})
    ok, why = check_embedding_k(s, bigger, w)
    assert not ok and "a" in why and "b" in why


def test_bad_index_map_raises():
    s1, s2 = swapped_pair()
    with pytest.raises(WitnessError):
        check_embedding_k(s1, s2, EmbeddingWitness({"a1": "b1", "a2": "b2"}, {1: {1: 1, 2: 1}, 2: {1: 1}}))


def test_canonical_extend_examples():
    m = fin_metric(["x", "y"], {("x", "y"): F(3)})
    out = canonical_extend(m, {("x",): F(2)}, 1)
    assert out[("y",)] == 0
    m2 = fin_metric(["x", "y"], {("x", "y"): F(1)})
    out2 = canonical_extend(m2, {("x",): F(2)}, 1)
    assert out2[("y",)] == 1


def test_canonical_extend_idempotent_and_consistent():
    m = fin_metric(["x", "y", "z"], {("x", "y"): F(1), ("x", "z"): F(2), ("y", "z"): F(3, 2)})
    partial = {("x", "y"): F(1, 2), ("z", "z"): F(3)}
    total = canonical_extend(m, partial, 2)
    again = canonical_extend(m, total, 2)
    assert again == total
    s = IndexedStructure(m, 2, pattern_indices(2), {(2, 1, t): v for t, v in total.items()}
                   | {(1, 1, t): F(0) for t in tuples_over(m.points, 1)}
                   | {(1, 2, t): F(0) for t in tuples_over(m.points, 1)})
    assert validate_k(s) == []


def test_canonical_extend_rejects_inconsistent_input():
    m = fin_metric(["x", "y"], {("x", "y"): F(1)})
    with pytest.raises(ValueError):
        canonical_extend(m, {("x",): F(5), ("y",): F(1)}, 1)


def test_find_isomorphism_swapped_pair():
    s1, s2 = swapped_pair()
    w = find_isomorphism(s1, s2)
    assert w is not None
    assert w.pi[1] == {1: 2, 2: 1}
    ok, _ = check_embedding_k(s1, s2, w)
    assert ok


def test_find_isomorphism_self_identity():
    s1, _ = swapped_pair()
    w = find_isomorphism(s1, s1)
    assert w == identity_witness(s1)


def test_find_isomorphism_distance_multiset_mismatch():
    a = indexed_structure(two_points(F(1)), bound=1)
    b = indexed_structure(fin_metric(["x", "y"], {("x", "y"): F(2)}), bound=1)
    assert find_isomorphism(a, b) is None


def test_find_isomorphism_symmetric_in_success():
    s1, s2 = swapped_pair()
    assert (find_isomorphism(s1, s2) is None) == (find_isomorphism(s2, s1) is None)


def test_restrict_keeps_values():
    s1, _ = swapped_pair()
    r = restrict_k(s1, ["a1"])
    assert r.bound == 1
    assert r.pred[(1, 1, ("a1",))] == s1.pred[(1, 1, ("a1",))]
    assert validate_k(r) == []


def test_fixed_arity_mode():
    cfg = FixedArityConfig((1, 1, 2))
    m = two_points()
    pred = {}
    for i, n in enumerate(cfg.arities, start=1):
        for tup in tuples_over(m.points, n):
            pred[(i, tup)] = F(0)
    pred[(1, ("a",))] = F(1)
    s = FixedArityStructure(m, cfg, pred)
    assert validate_fixed(s) == []
    bad = dict(pred)
    bad[(2, ("a",))] = F(5)
    assert validate_fixed(FixedArityStructure(m, cfg, bad)) != []


def test_validate_fixed_reports_totality_in_sorted_order_under_any_hash_seed():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import urysohn

    # slot 1 defined on ('a',) alone: every other tuple of both slots is missing
    code = (
        "from fractions import Fraction as F\n"
        "from urysohn.metric import fin_metric\n"
        "from urysohn.relational import FixedArityConfig, FixedArityStructure, validate_fixed\n"
        "m = fin_metric('abc', {('a', 'b'): F(1), ('a', 'c'): F(1), ('b', 'c'): F(1)})\n"
        "s = FixedArityStructure(m, FixedArityConfig((1, 2)), {(1, ('a',)): F(0)})\n"
        "print('\\n'.join(validate_fixed(s)))\n"
    )
    src = str(Path(urysohn.__file__).resolve().parents[1])
    outs = set()
    for seed in "1234":
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, timeout=60, check=True)
        outs.add(run.stdout)
    assert len(outs) == 1
    missing = [(1, (p,)) for p in "bc"] + [(2, (p, q)) for p in "abc" for q in "abc"]
    assert outs.pop().splitlines() == [
        f"totality: slot {i} missing on {tup}" for i, tup in missing
    ]


def test_fixed_arity_isomorphism_does_not_permute_slots():
    cfg = FixedArityConfig((1, 1))
    m1 = two_points()
    m2 = fin_metric(["x", "y"], {("x", "y"): F(2)})
    mk = lambda m, v1, v2: {
        (1, (m.points[0],)): v1, (1, (m.points[1],)): F(0),
        (2, (m.points[0],)): v2, (2, (m.points[1],)): F(0),
    }
    s1 = FixedArityStructure(m1, cfg, mk(m1, F(1), F(2)))
    swapped = FixedArityStructure(m2, cfg, mk(m2, F(2), F(1)))
    same = FixedArityStructure(m2, cfg, mk(m2, F(1), F(2)))
    assert find_isomorphism_fixed(s1, swapped) is None
    assert find_isomorphism_fixed(s1, same) == {"a": "x", "b": "y"}


# -- randomized laws ---------------------------------------------------------

from test_metric import random_metric, rat_eighths  # noqa: E402


@st.composite
def random_structure(draw, ids=("p", "q", "r"), max_arity=2):
    from urysohn.metric import tuple_dist

    m = draw(random_metric(ids=ids))
    n_a = draw(st.integers(min_value=1, max_value=min(max_arity, len(m.points))))
    pred = {}
    for n, idx in pattern_slots(n_a):
        pins = {}
        for tup in tuples_over(m.points, n):
            if draw(st.booleans()):
                raw = draw(rat_eighths)
                lo = max(
                    (w - tuple_dist(m, p, tup) for p, w in pins.items()),
                    default=F(0),
                )
                hi = min(
                    (w + tuple_dist(m, p, tup) for p, w in pins.items()),
                    default=None,
                )
                v = max(raw, lo, F(0))
                if hi is not None:
                    v = min(v, hi)
                pins[tup] = v
        for tup, v in canonical_extend(m, pins, n).items():
            pred[(n, idx, tup)] = v
    return IndexedStructure(m, n_a, pattern_indices(n_a), pred)


@given(random_structure())
@settings(max_examples=40, deadline=None)
def test_random_structures_validate(s):
    assert validate_k(s) == []


@given(random_structure())
@settings(max_examples=40, deadline=None)
def test_identity_embedding_law(s):
    ok, _ = check_embedding_k(s, s, identity_witness(s))
    assert ok


# -- integer scan of find_lipschitz_violation against the rational one ---------


def _rational_lipschitz_violation(metric, values):
    """The all-rational scan, kept as the reference for the integer path."""
    from urysohn.metric import tuple_dist

    items = sorted(values.items())
    lo = min((v for _, v in items), default=F(0))
    hi = max((v for _, v in items), default=F(0))
    if lo < 0:
        ta = min(items, key=lambda kv: (kv[1], kv[0]))[0]
        return ta, ta, values[ta], F(0)
    # with a negative distance the minimum and constant tables can break too
    used = {p for t, _ in items for p in t}
    nonneg = all(v >= 0 for (x, y), v in metric.table.items() if x in used and y in used)
    if lo == hi and nonneg:
        return None
    for ta, va in items:
        if va <= lo and nonneg:
            continue
        for tb, vb in items:
            if va > vb + tuple_dist(metric, ta, tb):
                return ta, tb, va, vb + tuple_dist(metric, ta, tb)
    return None


_small_rat = st.builds(
    F, st.integers(min_value=-2, max_value=12), st.sampled_from([1, 2, 3, 4, 8])
)


@st.composite
def lipschitz_tables(draw):
    """A table of arity 1 to 3 over a possibly broken distance table.

    Distances may be negative, asymmetric or missing, and the tuples may use
    a point the metric does not know; values may be negative or constant.
    Half the tables are the Katetov envelope of a few random pins, so that
    clean tables, and tables broken at one late tuple, are common too.
    """
    from urysohn.metric import FinMetric

    pts = ("p", "q", "r", "s", "t")[: draw(st.integers(min_value=1, max_value=5))]
    table = {}
    for x in pts:
        for y in pts:
            if x < y and draw(st.integers(min_value=0, max_value=15)):
                table[(x, y)] = draw(_small_rat)
                table[(y, x)] = (
                    draw(_small_rat) if draw(st.integers(0, 9)) == 0 else table[(x, y)]
                )
    used = pts + ("z",) if draw(st.integers(0, 9)) == 0 else pts
    n = draw(st.integers(min_value=1, max_value=3 if len(used) <= 4 else 2))
    tups = list(tuples_over(used, n))
    kind = draw(st.integers(0, 5))
    if kind == 0:
        const = draw(_small_rat)
        values = {tup: const for tup in tups}
    elif kind <= 2:
        values = {tup: draw(_small_rat) for tup in tups}
    else:
        def dist(a, b):
            return sum(F(0) if x == y else table.get((x, y), F(1)) for x, y in zip(a, b))

        count = draw(st.integers(1, 4))
        pins = {draw(st.sampled_from(tups)): draw(_small_rat) for _ in range(count)}
        values = {
            tup: max([F(0)] + [w - dist(p, tup) for p, w in pins.items()]) for tup in tups
        }
        if kind == 5:
            values[draw(st.sampled_from(tups))] += F(draw(st.integers(1, 8)), 4)
    return FinMetric(pts, table), values


def _outcome(fn, metric, values):
    from urysohn.metric import MetricTableError

    try:
        return fn(metric, values)
    except MetricTableError as exc:
        return ("raised", str(exc))


@given(lipschitz_tables())
@settings(max_examples=300, deadline=None)
def test_integer_lipschitz_scan_matches_rational(case):
    from urysohn.relational import find_lipschitz_violation

    metric, values = case
    got = _outcome(find_lipschitz_violation, metric, values)
    used = {p for t in values for p in t}
    listed = used <= set(metric.points) and all(
        (x, y) in metric.table for x in used for y in used if x != y
    )
    if not listed and min(values.values()) >= 0:
        # an unknown point or a missing distance raises before any scan,
        # even where the rational scan found a pair before it reached them
        assert got[0] == "raised"
        assert got[1].startswith(("unknown point", "no distance entry"))
        return
    want = _outcome(_rational_lipschitz_violation, metric, values)
    assert got == want
    if got is not None and got[0] != "raised":
        assert all(type(a) is type(b) for a, b in zip(got, want))


def test_integer_lipschitz_scan_reports_first_pair_exactly():
    from urysohn.relational import find_lipschitz_violation

    m = fin_metric(["a", "b", "c"], {("a", "b"): F(1, 3), ("a", "c"): F(1, 2), ("b", "c"): F(1, 2)})
    values = {("a",): F(0), ("b",): F(1, 2), ("c",): F(7, 6)}
    assert find_lipschitz_violation(m, values) == (("b",), ("a",), F(1, 2), F(1, 3))
    assert find_lipschitz_violation(m, values) == _rational_lipschitz_violation(m, values)


def test_integer_lipschitz_scan_defers_on_broken_tables():
    from urysohn.metric import FinMetric, MetricTableError
    from urysohn.relational import find_lipschitz_violation

    # a negative distance lets equal values violate the law
    m = FinMetric(
        ("a", "b", "c"),
        {("a", "b"): F(-1), ("b", "a"): F(-1), ("a", "c"): F(5), ("c", "a"): F(5),
         ("b", "c"): F(5), ("c", "b"): F(5)},
    )
    values = {("a",): F(1), ("b",): F(1), ("c",): F(0)}
    want = (("a",), ("b",), F(1), F(0))
    assert find_lipschitz_violation(m, values) == want
    assert _rational_lipschitz_violation(m, values) == want
    # distances to a point the metric does not list still make it unknown
    m = FinMetric(("p",), {("p", "z"): F(1), ("z", "p"): F(1)})
    values = {("p",): F(0), ("z",): F(1)}
    with pytest.raises(MetricTableError, match="unknown point"):
        find_lipschitz_violation(m, values)


def test_lipschitz_scan_checks_the_minimum_under_a_negative_distance():
    from urysohn.relational import find_lipschitz_violation

    # p(a) = p(b) = 0 is the minimum, and d(a, b) = -1 breaks it
    m = fin_metric(["a", "b", "c"], {("a", "b"): F(-1), ("a", "c"): F(1), ("b", "c"): F(1)})
    values = {("a",): F(0), ("b",): F(0), ("c",): F(1)}
    want = (("a",), ("b",), F(0), F(-1))
    assert find_lipschitz_violation(m, values) == want
    assert _rational_lipschitz_violation(m, values) == want


def test_lipschitz_scan_checks_a_constant_table_under_a_negative_distance():
    from urysohn.relational import find_lipschitz_violation

    m = fin_metric(["a", "b"], {("a", "b"): F(-1)})
    values = {("a",): F(1), ("b",): F(1)}
    want = (("a",), ("b",), F(1), F(0))
    assert find_lipschitz_violation(m, values) == want
    assert _rational_lipschitz_violation(m, values) == want
    # without the negative distance the constant table holds
    assert find_lipschitz_violation(fin_metric(["a", "b"], {("a", "b"): F(1)}), values) is None
