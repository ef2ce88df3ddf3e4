from fractions import Fraction

import pytest

from urysohn.cauchy import (
    CauchyPoint,
    IndexedStructure,
    SolverError,
    deviation_bound,
    embed_structure,
    extend_one_point,
    extend_partial_iso,
    extend_singleton,
    indexed_structure,
    required_depth,
    restrict_bark,
    solve_sandwich,
    stage_depths,
    tail_bound,
    validate_bark,
    validate_witness,
    verify_cauchy,
    PartialIso,
)
from urysohn.engine import LimitOracle
from urysohn.metric import FinMetric, fin_metric, validate_metric, OnePointSpec, one_point_feasible
from urysohn.rationals import pow2
from urysohn.relational import find_lipschitz_violation, tuples_over, validate_k

F = Fraction


def test_sandwich_single_anchor_band():
    # k = 2, level 1, target 1: offset band [1/8, 1/4], smallest band value taken
    sol = solve_sandwich(["a"], [F(1)], lambda x, y: F(0), 1)
    assert sol.gamma == (F(1, 8),)
    assert sol.eta == (F(9, 8),)
    assert sol.link is None


def test_sandwich_link_is_exact():
    dist = {("a", "p"): F(9, 8)}

    def d(x, y):
        if x == y:
            return F(0)
        return dist.get((x, y)) or dist[(y, x)]

    sol = solve_sandwich(["a"], [F(1)], d, 2, prev="p")
    assert sol.link == F(1, 4)
    assert all(c.holds for c in sol.checks)


def test_sandwich_no_anchor_cases():
    sol = solve_sandwich([], [], lambda x, y: F(0), 1)
    assert sol.eta == () and sol.link is None
    sol2 = solve_sandwich([], [], lambda x, y: F(0), 3, prev="p")
    assert sol2.link == F(1, 8)


def test_sandwich_chain_with_fixed_anchors_stays_feasible():
    """Run the step recursion against one fixed anchor set; every level must
    solve with all recorded inequalities holding exactly."""
    targets = {"a1": F(3, 2), "a2": F(2), "a3": F(5, 4)}
    base = fin_metric(
        ["a1", "a2", "a3"],
        {("a1", "a2"): F(1), ("a1", "a3"): F(3, 4), ("a2", "a3"): F(7, 4)},
    )
    assert validate_metric(base) == []
    anchors = list(targets)
    dists = {}

    def d(x, y):
        if x == y:
            return F(0)
        if (x, y) in dists:
            return dists[(x, y)]
        if (y, x) in dists:
            return dists[(y, x)]
        return base.d(x, y)

    prev = None
    for level in range(1, 9):
        sol = solve_sandwich(anchors, [targets[a] for a in anchors], d, level, prev)
        assert all(c.holds for c in sol.checks)
        if prev is not None:
            assert sol.link == pow2(-level)
        g = f"g{level}"
        for i, a in enumerate(anchors):
            dists[(g, a)] = sol.eta[i]
        if prev is not None:
            dists[(g, prev)] = sol.link
            for other in [f"g{j}" for j in range(1, level - 1)]:
                dists[(g, other)] = sol.link + d(prev, other)
        prev = g


def test_sandwich_brute_force_agreement():
    """Independent check over chains with one anchor, depth up to 4: whenever
    the solver succeeds, a denominator-64 grid sweep of the band also finds
    feasible distances and contains the solver's choice."""
    for target in (F(1), F(3, 8), F(7, 4)):
        anchors, dists, prev = ["a"], {}, None

        def d(x, y, _e=dists):
            if x == y:
                return F(0)
            return _e.get((x, y)) or _e.get((y, x), F(0))

        for level in range(1, 5):
            sol = solve_sandwich(anchors, [target], d, level, prev)
            lo = target + F(1, 2 * 2 ** (level + 1))
            hi = target + F(2, 2 * 2 ** (level + 1))
            feasible_grid = []
            num = lo.numerator * (64 // lo.denominator)
            while F(num, 64) <= hi:
                eta = F(num, 64)
                base_pts = anchors + ([prev] if prev else [])
                base = fin_metric(
                    base_pts,
                    {
                        (x, y): d(x, y)
                        for i, x in enumerate(base_pts)
                        for y in base_pts[i + 1 :]
                    },
                )
                spec_eta = {"a": eta}
                if prev:
                    spec_eta[prev] = pow2(-level)
                ok, _ = one_point_feasible(base, OnePointSpec(tuple(base_pts), spec_eta))
                if ok:
                    feasible_grid.append(eta)
                num += 1
            assert feasible_grid
            assert sol.eta[0] in feasible_grid
            g = f"g{level}"
            dists[(g, "a")] = sol.eta[0]
            if prev:
                dists[(g, prev)] = sol.link
                for other in [f"g{j}" for j in range(1, level - 1)]:
                    dists[(g, other)] = sol.link + d(prev, other)
            prev = g


def test_indexed_structure_validation():
    m = fin_metric(["x", "y"], {("x", "y"): F(1)})
    s = indexed_structure(m, bound=1, pred={(1, 1, ("x",)): F(0), (1, 1, ("y",)): F(1)})
    assert validate_bark(s) == []
    bad = IndexedStructure(m, 1, {1: (1, 2)}, s.pred)
    assert any("index set" in msg for msg in validate_bark(bad))


def test_restrict_bark_prefix():
    m = fin_metric(["x", "y"], {("x", "y"): F(1)})
    s = indexed_structure(m, bound=2, indices={1: (3, 7), 2: (4,)})
    r = restrict_bark(s, ["x"])
    assert r.bound == 1 and r.indices == {1: (3,)}
    assert validate_bark(r) == []


def test_extend_singleton_constant_value():
    o = LimitOracle()
    out = extend_singleton(o, F(3, 4), depth=5)
    p = out.point
    assert p.depth == 5
    assert verify_cauchy(o, p) == []
    assert p.certs == tuple(pow2(-(j + 1)) for j in range(1, 5))
    g = out.slot_globals[(1, 1)]
    for j in range(1, 6):
        assert o.predicate_value(1, g, (p.at(j),)) == F(3, 4)
    assert tail_bound(p, 1) < pow2(-1)


def test_extend_singleton_zero_set():
    o = LimitOracle()
    out = extend_singleton(o, F(0), depth=4)
    g = out.slot_globals[(1, 1)]
    assert all(o.predicate_value(1, g, (out.point.at(j),)) == 0 for j in range(1, 5))


def test_extend_singleton_plain_metric():
    o = LimitOracle()
    out = extend_singleton(o, None, depth=4)
    assert verify_cauchy(o, out.point) == []
    assert out.slot_globals == {}


def test_extend_one_point_pure_distance():
    o = LimitOracle()
    depth = 5
    a = extend_singleton(o, F(0), depth=required_depth(2, depth)).point
    m = fin_metric(["b1", "b2"], {("b1", "b2"): F(1)})
    target = indexed_structure(m, bound=1, pred={(1, 1, ("b1",)): F(0), (1, 1, ("b2",)): F(0)})
    out = extend_one_point(o, [a], target, {(1, 1): 1}, depth)
    p = out.point
    assert p.certs == tuple(pow2(-(j + 1)) for j in range(1, depth))
    assert verify_cauchy(o, p) == []
    # realized distance against the target, read from the certificates alone
    gap = abs(o.distance(a.at(depth), p.at(depth)) - F(1))
    assert gap <= pow2(-depth) + pow2(-depth)
    for sv in out.values:
        assert sv.deviation <= deviation_bound(sv.slot[0], sv.level)


def test_extend_one_point_shallow_anchor_rejected():
    o = LimitOracle()
    a = extend_singleton(o, F(0), depth=3).point
    m = fin_metric(["b1", "b2"], {("b1", "b2"): F(1)})
    target = indexed_structure(m, bound=1)
    with pytest.raises(SolverError, match="too shallow"):
        extend_one_point(o, [a], target, {(1, 1): 1}, 5)


def test_extend_one_point_unknown_anchor_point():
    o = LimitOracle()
    extend_singleton(o, F(0), depth=9)
    fake = CauchyPoint(tuple(f"w{i}" for i in range(9)), tuple(pow2(-(j + 1)) for j in range(1, 9)))
    m = fin_metric(["b1", "b2"], {("b1", "b2"): F(1)})
    target = indexed_structure(m, bound=1)
    with pytest.raises(Exception):
        extend_one_point(o, [fake], target, {(1, 1): 1}, 5)


def test_stage_depths_cover_anchor_needs():
    depths = stage_depths(3, 6)
    assert depths[-1] == 6
    for k in range(2, 4):
        assert depths[k - 2] >= required_depth(k, depths[k - 1])


def test_embed_two_point_zero_set():
    o = LimitOracle()
    depth = 6
    m = fin_metric(["x1", "x2"], {("x1", "x2"): F(1)})
    x = indexed_structure(
        m, bound=1, pred={(1, 1, ("x1",)): F(0), (1, 1, ("x2",)): F(1)}
    )
    out = embed_structure(o, x, depth)
    p1, p2 = out.points
    g = out.slot_globals[(1, 1)]
    # pairwise distance deviation, certificates only
    gap = abs(o.distance(p1.at(depth), p2.at(depth)) - F(1))
    assert gap <= 2 * pow2(-depth)
    # realized unary values approach (0, 1)
    v1 = o.predicate_value(1, g, (p1.at(p1.depth),))
    v2 = o.predicate_value(1, g, (p2.at(depth),))
    assert abs(v1 - F(0)) <= pow2(-(depth - 2))
    assert abs(v2 - F(1)) <= pow2(-(depth - 2))
    assert validate_k(o.snapshot()) == []


def test_embed_binary_predicate():
    o = LimitOracle()
    depth = 5
    m = fin_metric(["x1", "x2"], {("x1", "x2"): F(1)})
    x = indexed_structure(
        m,
        bound=2,
        pred={
            (2, 1, ("x1", "x2")): F(1, 2),
            (2, 1, ("x2", "x1")): F(1, 2),
        },
    )
    assert validate_bark(x) == []
    out = embed_structure(o, x, depth)
    p1, p2 = out.points
    g2 = out.slot_globals[(2, 1)]
    v = o.predicate_value(2, g2, (p1.at(depth), p2.at(depth)))
    assert abs(v - F(1, 2)) <= (2 * 2 + 1) * pow2(-depth) + 2 * pow2(-depth)
    for sv in out.values:
        assert sv.deviation <= deviation_bound(sv.slot[0], sv.level)


def test_back_and_forth_two_copies():
    o = LimitOracle()
    depth = 5
    m = fin_metric(["x1", "x2"], {("x1", "x2"): F(1)})
    x = indexed_structure(
        m, bound=1, pred={(1, 1, ("x1",)): F(0), (1, 1, ("x2",)): F(1, 2)}
    )
    # two independent realizations of the same structure, deep enough to
    # serve as anchors through two absorption rounds
    need = required_depth(4, stage_depths(4, depth)[0]) + 12
    left = embed_structure(o, x, need)
    right = embed_structure(o, x, need)
    g_l = left.slot_globals[(1, 1)]
    g_r = right.slot_globals[(1, 1)]
    iso = PartialIso(left.points, right.points, {(1, g_l): g_r})
    worst, failures = validate_witness(o, iso, depth, pow2(-depth))
    assert not failures, failures

    wish_m = fin_metric(
        ["x1", "x2", "w"],
        {("x1", "x2"): F(1), ("x1", "w"): F(1, 2), ("x2", "w"): F(3, 4)},
    )
    wish_x = indexed_structure(
        wish_m,
        bound=1,
        pred={
            (1, 1, ("x1",)): F(0),
            (1, 1, ("x2",)): F(1, 2),
            (1, 1, ("w",)): F(1, 4),
        },
    )
    assert validate_bark(wish_x) == []
    wish_out = extend_one_point(
        o,
        list(left.points),
        restrict_bark(wish_x, ["x1", "x2", "w"]),
        {(1, 1): g_l},
        need - 12,
    )
    result = extend_partial_iso(o, iso, [wish_out.point], [], depth)
    assert not result.failures, result.failures
    assert len(result.iso.dom) == 3
    assert result.worst_gap <= pow2(-(depth - 1))


def test_embed_empty_structure():
    o = LimitOracle()
    out = embed_structure(o, indexed_structure(FinMetric((), {}), bound=0), 4)
    assert out.points == () and len(o) == 0


def test_partial_iso_empty_wishlists_unchanged():
    o = LimitOracle()
    depth = 3
    need = required_depth(2, depth) + 1
    a = extend_singleton(o, F(1, 2), need)
    b = extend_singleton(o, F(1, 2), need)
    iso = PartialIso((a.point,), (b.point,), {(1, a.slot_globals[(1, 1)]): b.slot_globals[(1, 1)]})
    result = extend_partial_iso(o, iso, [], [], depth)
    assert result.iso.dom == iso.dom and result.iso.rng == iso.rng
    assert result.failures == ()


def test_partial_iso_rejects_mismatched_witness():
    o = LimitOracle()
    depth = 3
    need = required_depth(2, depth) + 1
    a = extend_singleton(o, F(0), need)
    b = extend_singleton(o, F(2), need)  # same metric role, different value
    iso = PartialIso((a.point,), (b.point,), {(1, a.slot_globals[(1, 1)]): b.slot_globals[(1, 1)]})
    with pytest.raises(SolverError, match="tolerance"):
        extend_partial_iso(o, iso, [], [], depth)


def test_deep_extension_bound_holds_at_depth_ten():
    """One deep run: the committed per-step clamp bound must survive well past
    the birth levels of every fresh slot."""
    from random import Random

    from urysohn.randgen import random_extension_bark, random_target_bark

    rng = Random(9)
    depth = 10
    x = random_target_bark(rng, 2, max_arity=2)
    o = LimitOracle()
    base = embed_structure(o, x, required_depth(3, depth))
    ext = random_extension_bark(rng, x, "xnew", raise_bound=x.bound < 3)
    out = extend_one_point(o, list(base.points), ext, base.slot_globals, depth)
    assert out.point.certs == tuple(pow2(-(j + 1)) for j in range(1, depth))
    for sv in out.values:
        assert sv.deviation <= (2 * sv.slot[0] + 1) * pow2(-sv.level)
    # full snapshots carry an arity-3 table here, quadratic validation over
    # all 44 points is out of reach; validate the realized data on the
    # final approximants plus the extension chain instead
    keep = [p.at(depth) for p in base.points] + list(out.point.ids[-4:])
    metric = o.metric().restrict(keep)
    pred = {}
    for (n, g) in o.registry:
        for tup in tuples_over(metric.points, n):
            pred[(n, g, tup)] = o.predicate_value(n, g, tup)
    for (n, g) in o.registry:
        vals = {tup: pred[(n, g, tup)] for tup in tuples_over(metric.points, n)}
        assert find_lipschitz_violation(metric, vals) is None


# -- integer clamp windows against the rational ones ---------------------------


def _rational_clamped(eps, defined, dist, tup):
    """The all-rational clamp, kept as the reference for the integer one."""
    val = eps
    lo = max((w - dist(t2, tup) for t2, w in defined.items()), default=None)
    hi = min((w + dist(t2, tup) for t2, w in defined.items()), default=None)
    if lo is not None and val < lo:
        val = lo
    if hi is not None and val > hi:
        val = hi
    return val


def test_integer_clamp_matches_rational():
    from math import lcm
    from random import Random

    from urysohn.cauchy import _clamped
    from urysohn.rationals import scaled

    rng = Random(5)
    pts = ("a", "b", "c", "d")
    for _ in range(400):
        d = {}
        for i, x in enumerate(pts):
            for y in pts[i + 1 :]:
                d[(x, y)] = d[(y, x)] = F(rng.randint(1, 9), rng.choice([1, 2, 3, 8]))
        n = rng.randint(1, 2)
        tups = list(tuples_over(pts, n))
        defined = {
            t: F(rng.randint(0, 12), rng.choice([1, 2, 4, 6]))
            for t in rng.sample(tups, rng.randint(0, min(5, len(tups))))
        }
        tup = rng.choice(tups)
        eps = F(rng.randint(0, 12), rng.choice([1, 3, 5, 8]))

        def rdist(a, b):
            return sum((d[(x, y)] for x, y in zip(a, b) if x != y), start=F(0))

        want = _rational_clamped(eps, defined, rdist, tup)
        scale = lcm(eps.denominator, *(v.denominator for v in list(d.values()) + list(defined.values())))
        got, got_i = _clamped(
            eps,
            {t: scaled(v, scale) for t, v in defined.items()},
            {k: scaled(v, scale) for k, v in d.items()},
            tup,
            scale,
        )
        assert got == want and got_i == scaled(want, scale)
