from fractions import Fraction

import pytest

from urysohn.cauchy import required_depth
from urysohn.engine import LimitOracle
from urysohn.metric import fin_metric, single_point
from urysohn.product import (
    Membership,
    StructureC,
    amalgamate_c,
    embed_point_c,
    extend_one_point_c,
    joint_embed_c,
    membership_c,
    realize_zero_witness,
    validate_c,
)
from urysohn.rationals import pow2
from urysohn.spaces import (
    CompactPresentation,
    SuitableFn,
    build_suitable,
    eval_suitable,
    suitable,
    suitable_from_values,
    validate_suitable,
)

from random_structures import brute_force_cross_check

F = Fraction


def compact3():
    m = fin_metric(
        ["q1", "q2", "q3"],
        {("q1", "q2"): F(1), ("q1", "q3"): F(1, 2), ("q2", "q3"): F(3, 4)},
    )
    return CompactPresentation(m)


def test_eval_formula():
    k = compact3()
    f = suitable({1: F(2)})
    assert eval_suitable(f, 3, k) == F(3, 2)
    assert eval_suitable(f, 1, k) == F(2)
    assert eval_suitable(SuitableFn(()), 2, k) == 0


def test_eval_index_range():
    k = compact3()
    with pytest.raises(IndexError):
        eval_suitable(suitable({1: F(1)}), 4, k)


def test_build_suitable_lifts_when_needed():
    # two targets 2 and 0 at distance 1/2: the second gets lifted to 3/2
    k = CompactPresentation(fin_metric(["q1", "q2"], {("q1", "q2"): F(1, 2)}))
    f = build_suitable({1: F(2), 2: F(0)}, k)
    assert f.pin_value(2) == F(3, 2)
    assert validate_suitable(f, k) == []


def test_build_suitable_equal_targets_kept():
    k = compact3()
    f = build_suitable({1: F(1), 2: F(1), 3: F(1)}, k)
    assert [v for _, v in f.pins] == [F(1)] * 3


def test_suitable_from_values_prunes():
    k = compact3()
    vals = {1: F(2), 2: F(1), 3: F(3, 2)}  # 2 and 3 forced by pin 1
    f = suitable_from_values(vals, k)
    assert f.support == (1,)
    for i, v in vals.items():
        assert eval_suitable(f, i, k) == v


def test_validate_c_reduced_check():
    k = compact3()
    m = fin_metric(["a", "b"], {("a", "b"): F(1)})
    bad = StructureC(m, {"a": suitable({1: F(3)}), "b": suitable({1: F(1)})})
    assert any("cross condition" in msg for msg in validate_c(bad, k))
    good = StructureC(m, {"a": suitable({1: F(2)}), "b": suitable({1: F(1)})})
    assert validate_c(good, k) == []
    zero = StructureC(m, {"a": SuitableFn(()), "b": SuitableFn(())})
    assert validate_c(zero, k) == []


def test_reduced_check_agrees_with_brute_force():
    k = compact3()
    m = fin_metric(["a", "b"], {("a", "b"): F(1)})
    for ra, rb in [(F(3), F(1)), (F(2), F(1)), (F(0), F(5, 2))]:
        s = StructureC(m, {"a": suitable({1: ra}), "b": suitable({2: rb})})
        assert (validate_c(s, k) == []) == brute_force_cross_check(s, k)


def test_amalgamate_c_identity_and_three_point():
    k = compact3()
    a = StructureC(single_point("a"), {"a": suitable({1: F(1)})})
    out = amalgamate_c(a, a, a, {"a": "a"}, {"a": "a"}, k)
    assert out.metric.points == ("a",)
    b = StructureC(
        fin_metric(["a", "b"], {("a", "b"): F(1)}),
        {"a": suitable({1: F(1)}), "b": suitable({1: F(2)})},
    )
    c = StructureC(
        fin_metric(["a", "c"], {("a", "c"): F(2)}),
        {"a": suitable({1: F(1)}), "c": SuitableFn(())},
    )
    assert validate_c(b, k) == [] and validate_c(c, k) == []
    out = amalgamate_c(b, c, a, {"a": "a"}, {"a": "a"}, k)
    assert out.metric.d("b", "c") == 3
    assert validate_c(out, k) == []


def test_joint_embed_c_validates():
    k = compact3()
    a = StructureC(single_point("a"), {"a": suitable({1: F(3)})})
    b = StructureC(single_point("b"), {"b": SuitableFn(())})
    out = joint_embed_c(a, b, k)
    assert validate_c(out, k) == []
    assert out.metric.d("a", "b") == 6


def test_singleton_profile_tracks_distance_function():
    k = compact3()
    o = LimitOracle(modes=("prod",), compact=k)
    # profile of the distance function to the dense point q1
    target = suitable_from_values(
        {n: k.d_idx(n, 1) for n in range(1, k.size + 1)}, k
    )
    out = embed_point_c(o, target, depth=5)
    p = out.point
    for n in range(1, k.size + 1):
        realized = eval_suitable(o.suitable_at(p.at(5)), n, k)
        assert abs(realized - k.d_idx(n, 1)) <= pow2(-5)
    # the certified per-step guarantee is recorded
    assert all(c.holds for c in out.checks)


def test_extension_step_bound():
    k = compact3()
    o = LimitOracle(modes=("prod",), compact=k)
    base = embed_point_c(o, suitable({1: F(1)}), depth=required_depth(2, 6)).point
    target_metric = fin_metric(["b1", "b2"], {("b1", "b2"): F(1, 2)})
    out = extend_one_point_c(o, [base], target_metric, suitable({1: F(1, 2)}), depth=6)
    for pv in out.values:
        assert pv.deviation <= pow2(-pv.level)
    # realized distance approaches the target
    gap = abs(o.distance(base.at(6), out.point.at(6)) - F(1, 2))
    assert gap <= 2 * pow2(-6)


def test_extension_rejects_incompatible_target():
    k = compact3()
    o = LimitOracle(modes=("prod",), compact=k)
    base = embed_point_c(o, suitable({1: F(1)}), depth=required_depth(2, 4)).point
    target_metric = fin_metric(["b1", "b2"], {("b1", "b2"): F(1, 2)})
    size_before = len(o)
    with pytest.raises(Exception, match="too far from anchor"):
        extend_one_point_c(o, [base], target_metric, suitable({2: F(1)}), depth=4)
    assert len(o) == size_before


def test_zero_witness_exact():
    k = compact3()
    o = LimitOracle(modes=("prod",), compact=k)
    out = embed_point_c(o, suitable({1: F(1)}), depth=3)
    u = out.point.at(3)
    q = eval_suitable(o.suitable_at(u), 1, k)
    assert q == F(1)
    v, checks = realize_zero_witness(o, u, 1, F(1, 4))
    assert o.distance(u, v) <= q + F(1, 4)
    assert eval_suitable(o.suitable_at(v), 1, k) == 0
    assert all(c.holds for c in checks)


def test_zero_witness_trivial_when_inside():
    k = compact3()
    o = LimitOracle(modes=("prod",), compact=k)
    out = embed_point_c(o, SuitableFn(()), depth=2)
    u = out.point.at(2)
    v, _ = realize_zero_witness(o, u, 2, F(1, 8))
    assert v == u


def test_zero_witness_eps_positive():
    k = compact3()
    o = LimitOracle(modes=("prod",), compact=k)
    out = embed_point_c(o, suitable({1: F(1)}), depth=2)
    with pytest.raises(ValueError):
        realize_zero_witness(o, out.point.at(2), 1, F(0))


def test_membership_reads_certified_value():
    k = compact3()
    o = LimitOracle(modes=("prod",), compact=k)
    inside = embed_point_c(o, SuitableFn(()), depth=4).point
    outside = embed_point_c(o, suitable({2: F(1)}), depth=4).point
    assert membership_c(o, inside, 2, 4).state == "IN"
    assert membership_c(o, outside, 2, 4).state == "OUT"
    assert membership_c(o, outside, 2, 3).state == "OUT"
    assert membership_c(o, outside, 2, 9).state == "UNKNOWN"


def test_nested_nets():
    k = compact3()
    prev = k.net_chain(1)
    for level in range(2, 6):
        cur = k.net_chain(level)
        assert set(prev) <= set(cur)
        prev = cur
    # every dense point strictly within the scale of some net member
    for level in range(1, 4):
        net = k.net_chain(level)
        for j in range(1, k.size + 1):
            assert any(k.d_idx(j, i) < pow2(-(level + 2)) for i in net)


def test_eval_is_one_lipschitz_exhaustively():
    k = compact3()
    for pins in ({1: F(2)}, {1: F(1), 2: F(3, 2)}, {3: F(1, 4)}):
        f = suitable(pins)
        for n in range(1, k.size + 1):
            for m in range(1, k.size + 1):
                assert abs(eval_suitable(f, n, k) - eval_suitable(f, m, k)) <= k.d_idx(n, m)


def test_build_suitable_excess_is_witnessed():
    from random import Random

    from urysohn.randgen import random_compact

    rng = Random(77)
    for _ in range(60):
        k = random_compact(rng, rng.randint(2, 5))
        gamma = {i: F(rng.randint(0, 12), 8) for i in range(1, k.size + 1) if rng.random() < 0.7}
        if not gamma:
            continue
        f = build_suitable(gamma, k)
        for i, v in f.pins:
            assert v >= gamma[i]
            if v > gamma[i]:
                assert any(
                    j != i and v == gamma[j] - k.d_idx(j, i) for j in gamma
                ), "lift must come from another support index"
