from fractions import Fraction

import pytest

from urysohn.cauchy import SolverError, required_depth
from urysohn.engine import LimitOracle
from urysohn.lipschitz import (
    StructureL,
    amalgamate_l,
    eval_limit_function,
    extend_one_point_l,
    joint_embed_l,
    validate_l,
)
from urysohn.metric import fin_metric, single_point
from urysohn.rationals import pow2
from urysohn.spaces import PolishPresentation

F = Fraction


def polish2(d=F(3)):
    return PolishPresentation(fin_metric(["z1", "z2"], {("z1", "z2"): d}))


def test_validate_l_examples():
    z = polish2(F(3))
    m = fin_metric(["a", "b"], {("a", "b"): F(2)})
    s = StructureL(m, {"a": 1, "b": 2}, F(1))
    assert any("lipschitz" in msg for msg in validate_l(s, z))
    wide = StructureL(fin_metric(["a", "b"], {("a", "b"): F(4)}), {"a": 1, "b": 2}, F(1))
    assert validate_l(wide, z) == []
    const = StructureL(m, {"a": 1, "b": 1}, F(1, 100))
    assert validate_l(const, z) == []


def test_amalgamate_l():
    z = polish2(F(1))
    a = StructureL(single_point("a"), {"a": 1}, F(1))
    out = amalgamate_l(a, a, a, {"a": "a"}, {"a": "a"}, z)
    assert out.metric.points == ("a",)
    b = StructureL(fin_metric(["a", "b"], {("a", "b"): F(1)}), {"a": 1, "b": 2}, F(1))
    c = StructureL(fin_metric(["a", "c"], {("a", "c"): F(2)}), {"a": 1, "c": 1}, F(1))
    out = amalgamate_l(b, c, a, {"a": "a"}, {"a": "a"}, z)
    assert out.metric.d("b", "c") == 3
    assert validate_l(out, z) == []


def test_amalgamate_l_mismatched_constant():
    z = polish2()
    a = StructureL(single_point("a"), {"a": 1}, F(1))
    b = StructureL(single_point("a"), {"a": 1}, F(2))
    with pytest.raises(ValueError):
        amalgamate_l(b, a, a, {"a": "a"}, {"a": "a"}, z)


def test_joint_embed_l_small_constant():
    # with L = 1/2 the gap must come from d_Z / L, not L * d_Z
    z = polish2(F(1))
    a = StructureL(single_point("a"), {"a": 1}, F(1, 2))
    b = StructureL(single_point("b"), {"b": 2}, F(1, 2))
    out = joint_embed_l(a, b, z)
    assert validate_l(out, z) == []
    assert out.metric.d("a", "b") == 4  # 2 * (1 / (1/2))


def test_singleton_constant_target_exact():
    z = polish2()
    o = LimitOracle(modes=("lip",), polish=z, lip_const=F(1))
    out = extend_one_point_l(o, [], single_point("b1"), 2, depth=4)
    p = out.point
    for j in range(1, 5):
        assert o.lip_index_at(p.at(j)) == 2
    idx, bound = eval_limit_function(o, p, 4)
    assert idx == 2 and bound == pow2(-4)
    assert all(c.holds for c in out.checks)


def test_extension_one_dense_point_apart():
    z = polish2(F(1))
    o = LimitOracle(modes=("lip",), polish=z, lip_const=F(1))
    depth = 5
    a = extend_one_point_l(o, [], single_point("b1"), 1, depth=required_depth(2, depth)).point
    m = fin_metric(["b1", "b2"], {("b1", "b2"): F(1)})
    out = extend_one_point_l(o, [a], m, 2, depth=depth)
    assert all(c.holds for c in out.checks)
    ia, _ = eval_limit_function(o, a, depth)
    ib, _ = eval_limit_function(o, out.point, depth)
    lhs = z.d_idx(ia, ib)
    assert lhs <= F(1) * o.distance(a.at(depth), out.point.at(depth)) + 2 * F(1) * pow2(-depth)


def test_extension_rejects_lipschitz_violating_target():
    z = polish2(F(3))
    o = LimitOracle(modes=("lip",), polish=z, lip_const=F(1))
    depth = 3
    a = extend_one_point_l(o, [], single_point("b1"), 1, depth=required_depth(2, depth)).point
    m = fin_metric(["b1", "b2"], {("b1", "b2"): F(1)})
    size_before = len(o)
    with pytest.raises(SolverError):
        extend_one_point_l(o, [a], m, 2, depth=depth)
    assert len(o) == size_before  # error raised before any growth


def test_eval_limit_bound_monotone():
    z = polish2()
    o = LimitOracle(modes=("lip",), polish=z, lip_const=F(2))
    p = extend_one_point_l(o, [], single_point("b1"), 1, depth=5).point
    bounds = [eval_limit_function(o, p, d)[1] for d in range(1, 6)]
    assert bounds == sorted(bounds, reverse=True)


def test_label_path_bound_along_cauchy_point():
    z = polish2(F(1))
    o = LimitOracle(modes=("lip",), polish=z, lip_const=F(2))
    depth = 6
    a = extend_one_point_l(o, [], single_point("b1"), 1, depth=required_depth(2, depth)).point
    m = fin_metric(["b1", "b2"], {("b1", "b2"): F(1)})
    p = extend_one_point_l(o, [a], m, 2, depth=depth).point
    for j in range(1, p.depth + 1):
        for jj in range(j + 1, p.depth + 1):
            lhs = z.d_idx(o.lip_index_at(p.at(j)), o.lip_index_at(p.at(jj)))
            gaps = sum(p.certs[j - 1 : jj - 1], F(0))
            assert lhs <= F(2) * gaps


def test_jep_corrected_constant_exhaustive_two_point_sides():
    from urysohn.metric import fin_metric as fm

    z = polish2(F(1))
    lips = [F(1, 4), F(1, 2), F(1), F(2)]
    ds = [F(n, 8) for n in range(1, 17)]
    count = 0
    for lip in lips:
        for da in ds:
            for la in ((1, 1), (1, 2)):
                if z.d_idx(la[0], la[1]) > lip * da:
                    continue
                a = StructureL(fm(["a1", "a2"], {("a1", "a2"): da}), {"a1": la[0], "a2": la[1]}, lip)
                for db in ds[::3]:
                    for lb in ((2, 2), (1, 2)):
                        if z.d_idx(lb[0], lb[1]) > lip * db:
                            continue
                        b = StructureL(fm(["b1", "b2"], {("b1", "b2"): db}), {"b1": lb[0], "b2": lb[1]}, lip)
                        out = joint_embed_l(a, b, z)
                        assert validate_l(out, z) == []
                        count += 1
    assert count > 200


def test_amalgamate_l_random_triples():
    from random import Random

    from urysohn.randgen import random_polish, random_structure_l

    rng = Random(21)
    for _ in range(60):
        z = random_polish(rng, rng.randint(2, 4))
        lip = rng.choice([F(1, 2), F(1), F(2)])
        ids = ["a", "p", "q"][: rng.randint(2, 3)]
        b = random_structure_l(rng, z, ids, lip)
        c_ids = ["a"] + ["r", "s"][: len(ids) - 1]
        c = random_structure_l(rng, z, c_ids, lip)
        # force agreement on the shared point
        c = StructureL(c.metric, {**c.labels, "a": b.labels["a"]}, lip)
        if validate_l(c, z):
            continue
        a = StructureL(b.metric.restrict(["a"]), {"a": b.labels["a"]}, lip)
        out = amalgamate_l(b, c, a, {"a": "a"}, {"a": "a"}, z)
        assert validate_l(out, z) == []


def test_label_target_outside_the_presentation_is_a_solver_error():
    o = LimitOracle(modes=("lip",), polish=polish2(), lip_const=F(1))
    with pytest.raises(SolverError, match="dense index 9 outside 1..2"):
        extend_one_point_l(o, [], single_point("b1"), 9, depth=3)
    assert len(o) == 0
