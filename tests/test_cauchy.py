from fractions import Fraction
from random import Random

import pytest

from urysohn.cauchy import (
    CauchyPoint,
    SolverError,
    deviation_bound,
    embed_structure,
    extend_one_point,
    extend_partial_iso,
    extend_singleton,
    required_depth,
    solve_sandwich,
    stage_depths,
    tail_bound,
    validate_witness,
    verify_cauchy,
    PartialIso,
    SandwichInfeasible,
    SandwichSolution,
)
from urysohn.certificates import Check
from urysohn.engine import LimitOracle
from urysohn.metric import FinMetric, fin_metric, validate_metric, OnePointSpec, one_point_feasible
from urysohn.rationals import pow2
from urysohn.relational import (
    IndexedStructure,
    find_lipschitz_violation,
    indexed_structure,
    restrict_k,
    tuples_over,
    validate_k,
)

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


def test_sandwich_refuses_a_previous_approximant_among_the_anchors():
    with pytest.raises(SolverError, match="anchors and prev must be distinct points"):
        solve_sandwich(["a"], [F(1)], lambda x, y: F(1), 1, prev="a")


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


def reference_solve_sandwich(anchors, targets, dist, level, prev=None):
    """solve_sandwich as it was: the sandwich decided by one_point_feasible
    on a FinMetric built for the call, then the triangle checks recorded
    over the same pairs."""
    if len(anchors) != len(targets):
        raise SolverError("anchor/target length mismatch")
    if len(set(anchors)) != len(anchors):
        raise SolverError(f"anchors must be distinct oracle points: {anchors}")
    k = len(anchors) + 1
    order = tuple(sorted(range(len(anchors)), key=lambda i: (-targets[i], i)))
    gamma = [F(0)] * len(anchors)
    eta = [F(0)] * len(anchors)
    checks = []
    for pos, i in enumerate(order, start=1):
        gamma[i] = F(2 * pos - 1, k * 2 ** (level + 1))
        eta[i] = targets[i] + gamma[i]
        checks.append(
            Check(f"band-lower-{anchors[i]}", targets[i] + F(2 * pos - 1, k * 2 ** (level + 1)), "<=", eta[i])
        )
        checks.append(
            Check(f"band-upper-{anchors[i]}", eta[i], "<=", targets[i] + F(2 * pos, k * 2 ** (level + 1)))
        )
    link = pow2(-level) if prev is not None else None
    base_pts = list(anchors) + ([prev] if prev is not None else [])
    spec_eta = {a: eta[i] for i, a in enumerate(anchors)}
    if prev is not None:
        spec_eta[prev] = link
        checks.append(Check("link", link, "=", pow2(-level)))
    if base_pts:
        entries = {
            (x, y): dist(x, y)
            for i, x in enumerate(base_pts)
            for y in base_pts[i + 1 :]
        }
        base = fin_metric(base_pts, entries)
        ok, why = one_point_feasible(base, OnePointSpec(tuple(base_pts), spec_eta))
        if not ok:
            raise SandwichInfeasible(
                f"no admissible point at level {level}: {why}; "
                f"targets={list(map(str, targets))} eta={list(map(str, eta))} "
                f"base={[(x, y, str(v)) for (x, y), v in entries.items()]}"
            )
        for x, y in base.pairs():
            checks.append(
                Check(f"triangle-gap-{x}-{y}", abs(spec_eta[x] - spec_eta[y]), "<=", base.d(x, y))
            )
            checks.append(
                Check(f"triangle-sum-{x}-{y}", base.d(x, y), "<=", spec_eta[x] + spec_eta[y])
            )
    return SandwichSolution(tuple(eta), tuple(gamma), link, order, tuple(checks))


def _outcome(solve, *args):
    try:
        return solve(*args)
    except (SandwichInfeasible, ValueError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("den", [8, 64, 1024])
def test_solve_sandwich_decides_as_one_point_feasible_did(den):
    """solve_sandwich against the reference on random bases: the same
    solution and recorded checks, or the same refusal with the same words.
    Half the bases are a metric with the target point in it, so the
    sandwich often holds; the rest are random distances, which it often
    does not.  Some targets are negative enough to reach eta = 0 or below."""
    rng = Random(den)
    seen = {"solved": 0, "gap": 0, "sum": 0, "eta = 0": 0, "eta < 0": 0}
    for _ in range(300):
        k = rng.randint(0, 4)
        anchors = [f"u{i}" for i in rng.sample(range(1, 40), k)]
        prev = "v" if rng.random() < 0.7 else None
        pts = anchors + ([prev] if prev else [])
        if rng.random() < 0.5:
            # points on a line, the target point among them
            pos = {p: F(rng.randint(0, 4 * den), den) for p in pts + ["t"]}
            d = {(x, y): abs(pos[x] - pos[y]) or F(1, den) for x in pts for y in pts}
            targets = [abs(pos[a] - pos["t"]) for a in anchors]
        else:
            d = {}
            for i, x in enumerate(pts):
                for y in pts[i + 1 :]:
                    d[(x, y)] = d[(y, x)] = F(rng.randint(1, 4 * den), den)
            targets = [F(rng.randint(0, 4 * den), den) for _ in anchors]
        level = rng.randint(1, 6)
        if anchors and rng.random() < 0.15:
            # the lowest target takes the widest offset (2k - 1) / ((k + 1) 2^(level + 1));
            # minus exactly that, its eta is 0
            low = F(2 * k - 1, (k + 1) * 2 ** (level + 1))
            targets[rng.randrange(k)] = -low - rng.choice([0, F(rng.randint(1, 2 * den), den)])
        args = (anchors, targets, lambda x, y: d[(x, y)], level, prev)
        got = _outcome(solve_sandwich, *args)
        assert got == _outcome(reference_solve_sandwich, *args)
        if isinstance(got, SandwichSolution):
            seen["solved"] += 1
        elif got[0] is ValueError:
            seen["eta = 0" if "= 0" in got[1] else "eta < 0"] += 1
        else:
            seen["gap" if ": |eta(" in got[1] else "sum"] += 1
    assert min(seen.values()) >= 5, seen


def test_indexed_structure_validation():
    m = fin_metric(["x", "y"], {("x", "y"): F(1)})
    s = indexed_structure(m, bound=1, pred={(1, 1, ("x",)): F(0), (1, 1, ("y",)): F(1)})
    assert validate_k(s) == []
    bad = IndexedStructure(m, 1, {1: (1, 2)}, s.pred)
    assert any("index set" in msg for msg in validate_k(bad))


def test_restrict_bark_prefix():
    m = fin_metric(["x", "y"], {("x", "y"): F(1)})
    s = indexed_structure(m, bound=2, indices={1: (3, 7), 2: (4,)})
    r = restrict_k(s, ["x"])
    assert r.bound == 1 and r.indices == {1: (3,)}
    assert validate_k(r) == []


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


def test_the_depth_plan_reads_one_level_budget():
    # the plan as it was written out before it read required_depth: every
    # build depth, input depth and homog plan is the same
    from urysohn.cauchy import absorption_build_depths, absorption_input_depth, homog_depth_plan

    def build(k0, n, depth):
        out = [depth] * n
        for r in range(n - 2, -1, -1):
            out[r] = out[r + 1] + (k0 + r + 2) + 2
        return out

    for k0 in range(8):
        for n in range(12):
            for depth in range(12):
                want = build(k0, n, depth)
                assert absorption_build_depths(k0, n, depth) == want
                assert absorption_input_depth(k0, n, depth) == (want[0] + k0 + 3 if n else depth)
                if k0 == 0:
                    assert stage_depths(n, depth) == want
                if n % 2 == 0:
                    wish = absorption_input_depth(k0, n, depth)
                    plan = homog_depth_plan(k0, n // 2, depth)
                    assert (plan.wish_depth, plan.copy_depth) == (wish, wish + k0 + 3)


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
    assert validate_k(x) == []
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
    assert validate_k(wish_x) == []
    wish_out = extend_one_point(
        o,
        list(left.points),
        restrict_k(wish_x, ["x1", "x2", "w"]),
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

    from random_structures import random_extension_bark, random_target_bark

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

    from oracle_state import walk_clamp
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
        got, got_i = walk_clamp(
            eps,
            {t: scaled(v, scale) for t, v in defined.items()},
            {k: scaled(v, scale) for k, v in d.items()},
            tup,
            scale,
        )
        assert got == want and got_i == scaled(want, scale)


def test_coinciding_anchors_are_refused_by_every_solver():
    # the shared driver refuses them before any drift check or growth
    from urysohn.lipschitz import extend_one_point_l
    from urysohn.product import embed_point_c, extend_one_point_c
    from urysohn.spaces import CompactPresentation, PolishPresentation, suitable

    m = fin_metric(
        ["b1", "b2", "b3"], {("b1", "b2"): F(1), ("b1", "b3"): F(1), ("b2", "b3"): F(1)}
    )
    depth = 2
    need = required_depth(3, depth)
    one = fin_metric(["q1"], {})

    o = LimitOracle()
    a = extend_singleton(o, None, need).point
    with pytest.raises(SolverError, match="anchors coincide"):
        extend_one_point(o, [a, a], indexed_structure(m, bound=0), {}, depth)

    o = LimitOracle(modes=("lip",), polish=PolishPresentation(one), lip_const=F(1))
    a = extend_one_point_l(o, [], fin_metric(["b1"], {}), 1, need).point
    with pytest.raises(SolverError, match="anchors coincide"):
        extend_one_point_l(o, [a, a], m, 1, depth)

    o = LimitOracle(modes=("prod",), compact=CompactPresentation(one))
    a = embed_point_c(o, suitable({1: F(1)}), need).point
    with pytest.raises(SolverError, match="anchors coincide"):
        extend_one_point_c(o, [a, a], m, suitable({1: F(1)}), depth)
    assert len(o) == need
