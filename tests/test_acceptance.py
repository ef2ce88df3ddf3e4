"""Acceptance suite: one test per advertised guarantee, at exact tolerances.

Run `pytest -s tests/test_acceptance.py` (or scripts/run_acceptance.py) to
see one PASS line per criterion.
"""
import time
from fractions import Fraction
from itertools import product as iproduct
from pathlib import Path
from random import Random

import pytest

from urysohn.cauchy import (
    PartialIso,
    embed_structure,
    extend_one_point,
    extend_partial_iso,
    homog_depth_plan,
    required_depth,
    solve_sandwich,
    stage_depths,
)
from urysohn.certificates import verify_certificate
from urysohn.cli import main as cli_main
from urysohn.engine import LimitOracle, amalgamate_k, joint_embed_k
from urysohn.lipschitz import (
    check_label_modulus,
    eval_limit_function,
    extend_one_point_l,
    joint_embed_l,
    validate_l,
)
from urysohn.metric import (
    FinMetric,
    OnePointSpec,
    fin_metric,
    one_point_feasible,
    single_point,
    tuple_dist,
    validate_metric,
)
from urysohn.product import (
    embed_point_c,
    extend_one_point_c,
    joint_embed_c,
    realize_zero_witness,
    validate_c,
)
from urysohn.randgen import (
    compatible_profile,
    random_compact,
    random_metric,
    random_polish,
    random_structure_l,
    random_suitable,
    random_table,
)
from urysohn.rationals import pow2
from urysohn.relational import (
    EmbeddingWitness,
    check_embedding_k,
    canonical_extend,
    indexed_structure,
    tuples_over,
    validate_k,
)
from urysohn.spaces import eval_suitable

from random_structures import (
    brute_force_cross_check,
    random_extension_bark,
    random_slot_permutation,
    random_structure_c,
    random_structure_k,
)

F = Fraction


def report(name, extra=""):
    suffix = f"  [{extra}]" if extra else ""
    print(f"\nACCEPTANCE PASS: {name}{suffix}")


def grow_side(rng, a, max_size, prefix):
    """Random extension of a plus a random slot permutation and its witness."""
    s = a
    for i in range(rng.randint(0, max_size - len(a))):
        raise_bound = s.bound < 2 and rng.random() < 0.5
        s = random_extension_bark(rng, s, f"{prefix}{i + 1}", raise_bound=raise_bound)
    s, sigma = random_slot_permutation(rng, s)
    pi = {
        n: {m: sigma[n][m] for m in range(1, a.bound + 2 - n)}
        for n in range(1, a.bound + 1)
    }
    return s, EmbeddingWitness({p: p for p in a.points}, pi)


def test_amalgamation_property_500():
    rng = Random(1001)
    start = time.time()
    for _ in range(500):
        a = random_structure_k(rng, [f"a{i}" for i in range(1, rng.randint(2, 4))])
        b, wab = grow_side(rng, a, 4, "b")
        c, wac = grow_side(rng, a, 4, "c")
        out = amalgamate_k(b, c, a, wab, wac)
        assert validate_k(out.result) == []
        ok, why = check_embedding_k(b, out.result, out.wit_b)
        assert ok, why
        ok, why = check_embedding_k(c, out.result, out.wit_c)
        assert ok, why
        for p in a.points:
            assert out.wit_b.phi[wab.phi[p]] == out.wit_c.phi[wac.phi[p]]
        for n in range(1, a.bound + 1):
            for m in range(1, a.bound + 2 - n):
                assert out.wit_b.pi[n][wab.pi[n][m]] == out.wit_c.pi[n][wac.pi[n][m]]
    elapsed = time.time() - start
    assert elapsed < 30.0
    report("amalgamation, 500 random triples", f"{elapsed:.1f} s")


def _cond3_brute(metric, values, arity):
    tups = list(tuples_over(metric.points, arity))
    for ta in tups:
        for tb in tups:
            if values[ta] > values[tb] + tuple_dist(metric, ta, tb):
                return False
    return True


def test_canonical_extension_500():
    rng = Random(1002)
    for _ in range(500):
        ids = [f"p{i}" for i in range(1, rng.randint(2, 5))]
        metric = random_metric(rng, ids)
        arity = rng.randint(1, 2)
        tups = list(tuples_over(metric.points, arity))
        pins = {}
        for tup in tups:
            if rng.random() < 0.4:
                lo = max(
                    (w - tuple_dist(metric, t2, tup) for t2, w in pins.items()),
                    default=F(0),
                )
                hi = min(
                    (w + tuple_dist(metric, t2, tup) for t2, w in pins.items()),
                    default=None,
                )
                v = max(F(rng.randint(0, 16), 8), lo, F(0))
                pins[tup] = min(v, hi) if hi is not None else v
        total = canonical_extend(metric, pins, arity)
        assert _cond3_brute(metric, total, arity)
        assert canonical_extend(metric, total, arity) == total
        for tup, v in pins.items():
            assert total[tup] == v
    report("canonical extension, 500 random partial tables")


def test_jep_200_per_class():
    rng = Random(1003)
    for _ in range(200):
        a = random_structure_k(rng, [f"a{i}" for i in range(1, rng.randint(2, 4))])
        b = random_structure_k(rng, [f"b{i}" for i in range(1, rng.randint(2, 4))])
        out = joint_embed_k(a, b)
        assert validate_k(out.result) == []
        assert check_embedding_k(a, out.result, out.wit_b)[0]
        assert check_embedding_k(b, out.result, out.wit_c)[0]
    for _ in range(200):
        k = random_compact(rng, rng.randint(2, 5))
        a = random_structure_c(rng, k, [f"a{i}" for i in range(1, rng.randint(2, 4))])
        b = random_structure_c(rng, k, [f"b{i}" for i in range(1, rng.randint(2, 4))])
        assert validate_c(joint_embed_c(a, b, k), k) == []
    for _ in range(200):
        z = random_polish(rng, rng.randint(2, 4))
        lip = rng.choice([F(1, 4), F(1, 2), F(2, 3), F(1), F(2)])
        a = random_structure_l(rng, z, [f"a{i}" for i in range(1, rng.randint(2, 4))], lip)
        b = random_structure_l(rng, z, [f"b{i}" for i in range(1, rng.randint(2, 4))], lip)
        assert validate_l(joint_embed_l(a, b, z), z) == []
    report("joint embedding, 200 random pairs per class")


def test_sandwich_200():
    rng = Random(1004)
    for _ in range(200):
        k = rng.randint(1, 4)
        top = rng.randint(1, 6)
        ids = [f"d{i}" for i in range(1, k + 1)]
        target_metric = random_metric(rng, ids) if k > 1 else single_point(ids[0])
        anchors = ids[:-1]
        dists = {}

        def d(x, y, _e=dists, _m=target_metric):
            if x == y:
                return F(0)
            if (x, y) in _e:
                return _e[(x, y)]
            if (y, x) in _e:
                return _e[(y, x)]
            return _m.d(x, y)

        prev = None
        for level in range(1, top + 1):
            sol = solve_sandwich(
                anchors,
                [target_metric.d(i, ids[-1]) for i in anchors],
                d,
                level,
                prev,
            )
            assert all(c.holds for c in sol.checks)
            for pos, i in enumerate(sol.order, start=1):
                lo = F(2 * pos - 1, k * 2 ** (level + 1))
                hi = F(2 * pos, k * 2 ** (level + 1))
                assert lo <= sol.gamma[i] <= hi
            if prev is not None:
                assert sol.link == pow2(-level)
            g = f"g{level}"
            for i, aid in enumerate(anchors):
                dists[(g, aid)] = sol.eta[i]
            if prev is not None:
                dists[(g, prev)] = sol.link
                for other in [f"g{j}" for j in range(1, level - 1)]:
                    dists[(g, other)] = sol.link + d(prev, other)
            prev = g
    report("sandwich extension, 200 chained instances, all inequalities exact")


def _random_target(rng, size, bound=None):
    ids = [f"x{i}" for i in range(1, size + 1)]
    metric = random_metric(rng, ids) if size > 1 else single_point(ids[0])
    if bound is None:
        bound = min(2, size)
    pred = {}
    for n in range(1, bound + 1):
        for m in range(1, bound + 2 - n):
            for tup, v in random_table(rng, metric, n).items():
                pred[(n, m, tup)] = v
    return indexed_structure(metric, bound, pred)


def test_one_point_convergence_50():
    rng = Random(1005)
    start = time.time()
    depth = 8
    for case in range(50):
        size = rng.randint(1, 3)
        x = _random_target(rng, size)
        o = LimitOracle()
        base = embed_structure(o, x, required_depth(size + 1, depth))
        raise_bound = x.bound < size + 1 and case % 5 == 0
        ext = random_extension_bark(rng, x, "xnew", raise_bound=raise_bound)
        out = extend_one_point(
            o, list(base.points), ext, base.slot_globals, depth
        )
        assert out.point.certs == tuple(pow2(-(j + 1)) for j in range(1, depth))
        for sv in out.values:
            n = sv.slot[0]
            assert sv.deviation <= (2 * n + 1) * pow2(-sv.level)
        for i, p in enumerate(base.points):
            gap = abs(
                o.distance(p.at(depth), out.point.at(depth))
                - ext.metric.d(x.points[i], "xnew")
            )
            assert gap < pow2(-(depth - 1))
    elapsed = time.time() - start
    assert elapsed < 120.0
    report("one-point convergence, 50 random extensions at depth 8", f"{elapsed:.1f} s")


def test_universality_30():
    rng = Random(1006)
    depth = 6
    for _ in range(30):
        size = rng.randint(1, 3)
        x = _random_target(rng, size)
        o = LimitOracle()
        out = embed_structure(o, x, depth)
        for i in range(size):
            for j in range(i + 1, size):
                gap = abs(
                    o.distance(out.points[i].at(depth), out.points[j].at(depth))
                    - x.metric.d(x.points[i], x.points[j])
                )
                assert gap <= pow2(-(depth - 1))
        for sv in out.values:
            n = sv.slot[0]
            assert sv.deviation <= (2 * n + 1) * pow2(-sv.level)
        # final readings: clamp bound plus one Lipschitz shift per coordinate
        for (n, m) in x.slots():
            g = out.slot_globals[(n, m)]
            for sel in iproduct(range(size), repeat=n):
                realized = o.predicate_value(
                    n, g, tuple(out.points[i].at(depth) for i in sel)
                )
                ideal = x.pred[(n, m, tuple(x.points[i] for i in sel))]
                assert abs(realized - ideal) <= (3 * n + 1) * pow2(-depth)
    report("universality, 30 random structures at depth 6")


def test_back_and_forth_30():
    rng = Random(1007)
    depth = 6
    start = time.time()
    for case in range(30):
        bound = 2 if case % 3 == 0 else 1
        x = _random_target(rng, 2, bound=bound)
        o = LimitOracle()
        plan = homog_depth_plan(2, 2, depth)
        left = embed_structure(o, x, plan.copy_depth)
        right = embed_structure(o, x, plan.copy_depth)
        slots = {
            (n, left.slot_globals[(n, m)]): right.slot_globals[(n, m)]
            for (n, m) in left.slot_globals
        }
        from urysohn.randgen import random_wish_extension

        wish_dom, wish_rng = [], []
        for side, bucket in ((left, wish_dom), (right, wish_rng)):
            for _ in range(2):
                target = random_wish_extension(
                    rng, o, side.points, x, side.slot_globals, plan.wish_depth, 3
                )
                outcome = extend_one_point(
                    o, list(side.points), target, side.slot_globals, plan.wish_depth
                )
                bucket.append(outcome.point)
        iso = PartialIso(left.points, right.points, slots)
        result = extend_partial_iso(o, iso, wish_dom, wish_rng, depth)
        assert result.failures == (), result.failures
        assert len(result.iso.dom) == 6
        assert result.worst_gap <= pow2(-(depth - 1))
    report(
        "back-and-forth, 30 partial isomorphisms absorbing 2 wishes per side",
        f"{time.time() - start:.1f} s",
    )


def test_zero_witness_50():
    rng = Random(1008)
    for _ in range(50):
        k = random_compact(rng, rng.randint(2, 5))
        o = LimitOracle(modes=("prod",), compact=k)
        fn = random_suitable(rng, k)
        out = embed_point_c(o, fn, depth=3)
        u = out.point.at(3)
        n = rng.randint(1, k.size)
        eps = F(rng.randint(1, 8), 8)
        q = eval_suitable(o.suitable_at(u), n, k)
        v, checks = realize_zero_witness(o, u, n, eps)
        assert o.distance(u, v) <= q + eps if v != u else q == 0
        assert eval_suitable(o.suitable_at(v), n, k) == 0
        assert all(c.holds for c in checks)
    report("zero witness, 50 cases, both identities exact")


def test_reduction_soundness_200():
    rng = Random(1009)
    seen = {True: 0, False: 0}
    for case in range(200):
        k = random_compact(rng, rng.randint(2, 6))
        ids = [f"a{i}" for i in range(1, rng.randint(2, 4))]
        if case % 2 == 0:
            s = random_structure_c(rng, k, ids)
        else:
            from urysohn.product import StructureC

            metric = random_metric(rng, ids)
            s = StructureC(metric, {p: random_suitable(rng, k) for p in ids})
        reduced = validate_c(s, k) == []
        brute = brute_force_cross_check(s, k)
        assert reduced == brute
        seen[reduced] += 1
    assert seen[True] > 0 and seen[False] > 0
    report(
        "cross-condition reduction, 200 cases",
        f"{seen[True]} valid / {seen[False]} invalid, verdicts agree",
    )


def test_step_bound_20():
    rng = Random(1010)
    depth = 6
    for case in range(20):
        k = random_compact(rng, rng.randint(2, 5))
        o = LimitOracle(modes=("prod",), compact=k)
        base_size = case % 3  # 0, 1 or 2 base points
        depths = stage_depths(base_size + 1, depth)
        built = []
        fns = []
        metric_ids = [f"b{i}" for i in range(1, base_size + 2)]
        metric = (
            random_metric(rng, metric_ids)
            if base_size + 1 > 1
            else single_point(metric_ids[0])
        )
        for stage in range(base_size):
            fn = compatible_profile(
                rng,
                k,
                [(fns[i], metric.d(metric_ids[i], metric_ids[stage])) for i in range(stage)],
            )
            fns.append(fn)
            built.append(
                extend_one_point_c(
                    o,
                    built[:],
                    metric.restrict(metric_ids[: stage + 1]),
                    fn,
                    depths[stage],
                ).point
            )
        new_fn = compatible_profile(
            rng,
            k,
            [(fns[i], metric.d(metric_ids[i], metric_ids[-1])) for i in range(base_size)],
        )
        out = extend_one_point_c(o, built, metric, new_fn, depth)
        for pv in out.values:
            assert pv.deviation <= pow2(-pv.level)
        assert all(c.holds for c in out.checks)
    report("profile step bound, 20 runs at depth 6, every step and index")


def test_lipschitz_limit_30():
    rng = Random(1011)
    depth = 6
    for case in range(30):
        z = random_polish(rng, rng.randint(2, 4))
        lip = rng.choice([F(1, 4), F(1, 2), F(1), F(2)])
        size = rng.randint(2, 3)
        s = random_structure_l(rng, z, [f"b{i}" for i in range(1, size + 1)], lip)
        o = LimitOracle(modes=("lip",), polish=z, lip_const=lip)
        depths = stage_depths(size, depth)
        built = []
        for stage in range(size):
            sub = s.metric.restrict(s.points[: stage + 1])
            out = extend_one_point_l(
                o, built[:], sub, s.labels[s.points[stage]], depths[stage]
            )
            assert all(c.holds for c in out.checks)
            built.append(out.point)
        for i in range(size):
            for j in range(i + 1, size):
                ia, ra = eval_limit_function(o, built[i], depth)
                ib, rb = eval_limit_function(o, built[j], depth)
                lhs = z.d_idx(ia, ib)
                rhs = lip * o.distance(built[i].at(depth), built[j].at(depth))
                assert lhs <= rhs + 2 * lip * pow2(-depth)
    # one run with a genuinely moving label sequence
    z = PolishFixture()
    o = LimitOracle(modes=("lip",), polish=z, lip_const=F(1))
    seq = [1, 2, 2, 2, 2, 2]
    assert all(c.holds for c in check_label_modulus(seq, 1, z, F(1)))
    out = extend_one_point_l(o, [], single_point("b1"), seq, depth=6)
    assert all(c.holds for c in out.checks)
    report("Lipschitz limit, 30 runs, modulus and pair checks exact")


def PolishFixture():
    from urysohn.spaces import PolishPresentation

    return PolishPresentation(
        fin_metric(["z1", "z2"], {("z1", "z2"): F(1, 16)})
    )


def _metric_from_grid(pts, combo):
    entries = {}
    idx = 0
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            entries[(pts[i], pts[j])] = combo[idx]
            idx += 1
    return fin_metric(pts, entries)


def test_feasibility_exhaustive():
    checked = 0
    for base_n, grid in ((1, 8), (2, 8), (3, 8), (4, 4)):
        pts = [f"v{i}" for i in range(1, base_n + 1)]
        vals = [F(n, grid // 2) for n in range(1, grid + 1)]
        pair_count = base_n * (base_n - 1) // 2
        for combo in iproduct(vals, repeat=pair_count):
            m = _metric_from_grid(pts, combo)
            if validate_metric(m):
                continue
            for eta in iproduct(vals, repeat=base_n):
                spec = OnePointSpec(tuple(pts), dict(zip(pts, eta)))
                fast, _ = one_point_feasible(m, spec)
                table = {(x, y): m.d(x, y) for x, y in m.pairs()}
                table.update({(p, "w"): eta[i] for i, p in enumerate(pts)})
                brute = validate_metric(fin_metric(pts + ["w"], table)) == []
                assert fast == brute
                checked += 1
    report("one-point feasibility vs brute force", f"{checked} instances, exhaustive")


FIXTURES = {
    "x.bark": "BARK\npoint x1\npoint x2\nnA 1\nd x1 x2 1/1\np 1 1 x1 0/1\np 1 1 x2 1/2\n",
    "good.k": "K\npoint a\npoint b\nnA 1\nd a b 3/4\np 1 1 a 0/1\np 1 1 b 1/2\n",
    "space.compact": "COMPACT\npoint q1\npoint q2\nd q1 q2 1/2\n",
    "z.polish": "POLISH\npoint z1\npoint z2\nd z1 z2 1/1\n",
    "s.c": "C\npoint a\npoint b\nd a b 1/1\nsuit a 1=1/2\nsuit b -\n",
    "s.l": "L\npoint a\npoint b\nL 1/1\nd a b 2/1\npz a 1\npz b 2\n",
}


def test_cli_contract(tmp_path):
    from urysohn.files import parse_structure_file, serialize_structure

    for name, text in FIXTURES.items():
        parsed = parse_structure_file(text)
        assert serialize_structure(parsed.kind, parsed.value) == text
        (tmp_path / name).write_text(text, encoding="utf-8")

    bark = str(tmp_path / "x.bark")
    c1, c2 = str(tmp_path / "c1.cert"), str(tmp_path / "c2.cert")
    assert cli_main(["embed", bark, "--depth", "6", "--seed", "7", "--out", c1]) == 0
    assert cli_main(["embed", bark, "--depth", "6", "--seed", "7", "--out", c2]) == 0
    assert Path(c1).read_bytes() == Path(c2).read_bytes()

    data = Path(c1).read_bytes()
    ok, problems = verify_certificate(data)
    assert ok, problems
    rng = Random(99)
    rejected = 0
    for _ in range(60):
        i = rng.randrange(len(data))
        flip = bytes([data[i] ^ 1])
        tampered = data[:i] + flip + data[i + 1 :]
        if tampered == data:
            continue
        ok, _ = verify_certificate(tampered)
        assert not ok
        rejected += 1
    h1, h2 = str(tmp_path / "h1.cert"), str(tmp_path / "h2.cert")
    args = ["homog", bark, "--depth", "4", "--wishes", "1", "--seed", "3"]
    assert cli_main(args + ["--out", h1]) == 0
    assert cli_main(args + ["--out", h2]) == 0
    assert Path(h1).read_bytes() == Path(h2).read_bytes()
    ok, problems = verify_certificate(Path(h1).read_bytes())
    assert ok, problems

    log = str(tmp_path / "x.log")
    assert cli_main(["embed", bark, "--depth", "4", "--out", str(tmp_path / "l.cert"), "--out-log", log]) == 0
    log_text = Path(log).read_text(encoding="utf-8")
    parsed = parse_structure_file(log_text)
    assert serialize_structure("ORACLE", parsed.value) == log_text
    assert cli_main(["validate", log]) == 0
    report("CLI round-trip, certificates, tamper rejection, seeded reruns", f"{rejected} tamperings rejected")
