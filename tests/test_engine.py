from fractions import Fraction

import pytest

from urysohn.engine import (
    EMPTY_STRUCTURE,
    LimitOracle,
    OracleGrowthError,
    RelExtension,
    amalgamate_k,
    joint_embed_k,
)
from urysohn.metric import fin_metric, single_point
from urysohn.relational import (
    EmbeddingWitness,
    StructureK,
    check_embedding_k,
    find_isomorphism,
    identity_witness,
    make_structure,
    restrict_k,
    validate_k,
)

F = Fraction


def unary_point(pid, value):
    return make_structure(single_point(pid), pred={(1, 1, (pid,)): F(value)}, n_a=1)


def test_joint_embed_gap_is_twice_the_max():
    a, b = unary_point("a", 1), unary_point("b", 2)
    out = joint_embed_k(a, b)
    assert out.result.metric.d("a", "b") == 4
    assert abs(F(1) - F(2)) <= 4
    assert validate_k(out.result) == []
    assert check_embedding_k(a, out.result, out.wit_b)[0]
    assert check_embedding_k(b, out.result, out.wit_c)[0]


def test_joint_embed_empty_side():
    b = unary_point("b", 2)
    out = joint_embed_k(EMPTY_STRUCTURE, b)
    assert out.result == b
    ok, _ = check_embedding_k(b, out.result, out.wit_c)
    assert ok


def test_joint_embed_all_zero_gap_one():
    a, b = unary_point("a", 0), unary_point("b", 0)
    out = joint_embed_k(a, b)
    assert out.result.metric.d("a", "b") == 1
    assert validate_k(out.result) == []


def test_joint_embed_fills_missing_slots_with_zero():
    a = unary_point("a", 1)
    m = fin_metric(["x", "y"], {("x", "y"): F(1)})
    b = make_structure(m, n_a=2)  # has slots (1,1), (1,2), (2,1)
    out = joint_embed_k(a, b)
    assert out.result.n_a == 2
    assert out.result.pred[(1, 2, ("a",))] == 0
    assert out.result.pred[(2, 1, ("a", "x"))] == 0
    assert validate_k(out.result) == []


def three_chain():
    """A = one point with one unary value; B, C extend it with n_a = 2."""
    a = unary_point("a", 1)
    mb = fin_metric(["a", "b"], {("a", "b"): F(2)})
    b = make_structure(
        mb,
        pred={
            (1, 1, ("a",)): F(1),
            (1, 1, ("b",)): F(2),
            (1, 2, ("b",)): F(1, 2),
            (2, 1, ("a", "b")): F(1),
        },
        n_a=2,
    )
    mc = fin_metric(["a", "c"], {("a", "c"): F(3)})
    c = make_structure(
        mc,
        pred={
            (1, 1, ("a",)): F(1),
            (1, 1, ("c",)): F(3),
            (1, 2, ("c",)): F(2),
        },
        n_a=2,
    )
    assert validate_k(b) == [] and validate_k(c) == []
    wab = EmbeddingWitness({"a": "a"}, {1: {1: 1}})
    wac = EmbeddingWitness({"a": "a"}, {1: {1: 1}})
    return a, b, c, wab, wac


def test_amalgamate_arity_arithmetic_and_shift():
    a, b, c, wab, wac = three_chain()
    out = amalgamate_k(b, c, a, wab, wac)
    d = out.result
    assert d.n_a == 2 + (2 - 1)
    # c's slot (1, 2) sits above the common pattern, so it shifts by n_b - n_a
    assert out.wit_c.pi[1][2] == 2 + (2 - 1)
    assert d.pred[(1, 3, ("c",))] == F(2)
    assert validate_k(d) == []
    ok, why = check_embedding_k(b, d, out.wit_b)
    assert ok, why
    ok, why = check_embedding_k(c, d, out.wit_c)
    assert ok, why
    # commutation over the common part, points and indices
    assert out.wit_b.phi[wab.phi["a"]] == out.wit_c.phi[wac.phi["a"]]
    assert out.wit_b.pi[1][wab.pi[1][1]] == out.wit_c.pi[1][wac.pi[1][1]]


def test_amalgamate_self_is_isomorphic_to_base():
    a = unary_point("a", 1)
    ident = identity_witness(a)
    out = amalgamate_k(a, a, a, ident, ident)
    assert find_isomorphism(out.result, a) is not None


def test_amalgamate_rejects_bad_witness():
    a, b, c, wab, _ = three_chain()
    bad = EmbeddingWitness({"a": "c"}, {1: {1: 1}})
    with pytest.raises(Exception):
        amalgamate_k(b, c, a, wab, bad)


# -- the oracle ---------------------------------------------------------------


def one_point_ext(value, slot_fresh=True):
    s = make_structure(single_point("x"), pred={(1, 1, ("x",)): F(value)}, n_a=1)
    return RelExtension(s, {}, {(1, 1): None if slot_fresh else 1})


def test_first_growth_registers_global():
    o = LimitOracle()
    res = o.grow({}, rel=one_point_ext(0))
    assert res.point == "u1"
    assert res.slot_globals == {(1, 1): 1}
    assert o.registry == {(1, 1): 1}
    assert o.predicate_value(1, 1, ("u1",)) == 0


def test_same_request_twice_gives_two_points():
    o = LimitOracle()
    r1 = o.grow({}, rel=one_point_ext(1))
    r2 = o.grow({}, rel=one_point_ext(1))
    assert r1.point != r2.point
    assert len(o) == 2
    assert o.distance("u1", "u2") == 2  # joint-embedding gap, twice the max value


def test_growth_rejecting_lipschitz_clash():
    o = LimitOracle()
    o.grow({}, rel=one_point_ext(5))
    m = fin_metric(["p", "q"], {("p", "q"): F(1)})
    ext = make_structure(
        m, pred={(1, 1, ("p",)): F(5), (1, 1, ("q",)): F(1)}, n_a=1
    )
    # 5 > 1 + 1 inside the extension itself
    with pytest.raises(OracleGrowthError):
        o.grow({"u1": F(1)}, rel=RelExtension(ext, {"p": "u1"}, {(1, 1): 1}))


def test_growth_rejects_base_disagreement():
    o = LimitOracle()
    o.grow({}, rel=one_point_ext(5))
    m = fin_metric(["p", "q"], {("p", "q"): F(1)})
    ext = make_structure(
        m, pred={(1, 1, ("p",)): F(4), (1, 1, ("q",)): F(4)}, n_a=1
    )
    with pytest.raises(OracleGrowthError, match="disagrees on base"):
        o.grow({"u1": F(1)}, rel=RelExtension(ext, {"p": "u1"}, {(1, 1): 1}))


def test_plain_growth_extends_predicates_canonically():
    o = LimitOracle()
    o.grow({}, rel=one_point_ext(3))
    o.grow({"u1": F(1)})  # no predicate payload
    assert o.predicate_value(1, 1, ("u2",)) == 2  # 3 - 1
    snap = o.snapshot()
    assert validate_k(snap) == []


def test_snapshot_counts_points():
    o = LimitOracle()
    assert o.snapshot() == EMPTY_STRUCTURE
    o.grow({}, rel=one_point_ext(0))
    o.grow({"u1": F(2)})
    snap = o.snapshot()
    assert len(snap) == 2


def test_monotone_restriction_is_exact():
    o = LimitOracle()
    o.grow({}, rel=one_point_ext(2))
    before = o.snapshot()
    m = fin_metric(["p", "q"], {("p", "q"): F(1)})
    ext = make_structure(m, pred={(1, 1, ("p",)): F(2), (1, 1, ("q",)): F(3)}, n_a=1)
    o.grow({"u1": F(1)}, rel=RelExtension(ext, {"p": "u1"}, {(1, 1): 1}))
    after = o.snapshot()
    restricted = restrict_k(after, ["u1"], n_a=before.n_a)
    assert restricted.pred == before.pred
    assert validate_k(after) == []


def test_fresh_slot_budget_enforced():
    o = LimitOracle()
    m = single_point("x")
    s = StructureK(
        m,
        1,
        {(1, 1, ("x",)): F(0)},
    )
    # two fresh unary slots cannot fit a one-point structure pattern
    two_slots = make_structure(
        fin_metric(["x", "y"], {("x", "y"): F(1)}), n_a=2
    )
    o.grow({}, rel=RelExtension(s, {}, {(1, 1): None}))
    with pytest.raises(OracleGrowthError, match="no room"):
        o.grow(
            {"u1": F(1)},
            rel=RelExtension(
                two_slots, {"x": "u1"}, {(1, 1): None, (1, 2): None, (2, 1): None}
            ),
        )


def test_rejected_growth_leaves_state_untouched():
    o = LimitOracle()
    o.grow({}, rel=one_point_ext(5))
    o.grow({"u1": F(1)})
    before_points = o.points
    before_log = len(o.log)
    before_vals = {p: o.predicate_value(1, 1, (p,)) for p in o.points}
    m = fin_metric(["p", "q"], {("p", "q"): F(1)})
    bad = make_structure(m, pred={(1, 1, ("p",)): F(4), (1, 1, ("q",)): F(4)}, n_a=1)
    with pytest.raises(OracleGrowthError):
        o.grow({"u1": F(1)}, rel=RelExtension(bad, {"p": "u1"}, {(1, 1): 1}))
    assert o.points == before_points and len(o.log) == before_log
    assert {p: o.predicate_value(1, 1, (p,)) for p in o.points} == before_vals


def test_duplicate_global_mapping_rejected():
    o = LimitOracle()
    o.grow({}, rel=one_point_ext(0))
    o.grow({"u1": F(1)}, rel=_two_unary_ext())
    ext = make_structure(
        fin_metric(["p", "q", "r"], {("p", "q"): F(1), ("p", "r"): F(1), ("q", "r"): F(1)}),
        n_a=2,
    )
    with pytest.raises(OracleGrowthError, match="used twice"):
        o.grow(
            {"u1": F(1), "u2": F(1)},
            rel=RelExtension(
                ext, {"p": "u1", "q": "u2"}, {(1, 1): 1, (1, 2): 1, (2, 1): None}
            ),
        )


def _two_unary_ext():
    m = fin_metric(["p", "q"], {("p", "q"): F(1)})
    ext = make_structure(m, n_a=2)
    return RelExtension(ext, {"p": "u1"}, {(1, 1): 1, (1, 2): None, (2, 1): None})


def test_birth_pins_only_on_fresh_slots():
    o = LimitOracle()
    o.grow({}, rel=one_point_ext(0))
    m = fin_metric(["p", "q"], {("p", "q"): F(1)})
    ext = make_structure(m, n_a=1)
    rel = RelExtension(
        ext, {"p": "u1"}, {(1, 1): 1}, birth_pins={(1, 1): {("u1",): F(0)}}
    )
    with pytest.raises(OracleGrowthError, match="fresh"):
        o.grow({"u1": F(1)}, rel=rel)


def test_randomized_growth_snapshots_stay_valid_and_monotone():
    from random import Random

    from urysohn.metric import fin_metric as fm
    from urysohn.randgen import _clamp, rand_rat

    rng = Random(47)
    for _ in range(8):
        o = LimitOracle()
        o.grow({}, rel=one_point_ext(rng.randint(0, 2)))
        seen: dict[tuple, F] = {}
        for _step in range(7):
            pts = list(o.points)
            base = rng.sample(pts, rng.randint(0, min(2, len(pts))))
            new_entries = {}
            for i, p in enumerate(base):
                lo = max(
                    (abs(new_entries[q] - o.distance(p, q)) for q in base[:i]),
                    default=F(1, 8),
                )
                lo = max(lo, F(1, 8))
                cap = min(
                    (new_entries[q] + o.distance(p, q) for q in base[:i]),
                    default=None,
                )
                new_entries[p] = _clamp(rand_rat(rng, 8), lo, cap)
            if base:
                names = {p: f"b{i}" for i, p in enumerate(base)}
                entries = {
                    (names[p], names[q]): o.distance(p, q)
                    for i, p in enumerate(base)
                    for q in base[i + 1 :]
                }
                entries.update({(names[p], "new"): v for p, v in new_entries.items()})
                metric = fm(list(names.values()) + ["new"], entries)
                lo = max(
                    (o.predicate_value(1, 1, (p,)) - new_entries[p] for p in base),
                    default=F(0),
                )
                hi = min(
                    (o.predicate_value(1, 1, (p,)) + new_entries[p] for p in base),
                    default=None,
                )
                val = _clamp(rand_rat(rng, 8, 0, 8), max(lo, F(0)), hi)
                pred = {(1, 1, (names[p],)): o.predicate_value(1, 1, (p,)) for p in base}
                pred[(1, 1, ("new",))] = val
                ext = make_structure(metric, pred=pred, n_a=1)
                o.grow(
                    {p: new_entries[p] for p in base},
                    rel=RelExtension(ext, {names[p]: p for p in base}, {(1, 1): 1}),
                )
            else:
                o.grow({})
            for p in o.points:
                key = (p,)
                v = o.predicate_value(1, 1, key)
                if key in seen:
                    assert seen[key] == v, "realized value changed"
                seen[key] = v
        assert validate_k(o.snapshot()) == []


def test_validate_state_clean_and_detects_tampering():
    o = LimitOracle()
    o.grow({}, rel=one_point_ext(0))
    o.grow({"u1": F(1)}, rel=_two_unary_ext())
    assert o.validate_state() == []
    # forge a pin the envelope cannot reproduce
    o._pins_i[(1, 1)][("u2",)] = -1
    assert any("not reproduced" in msg for msg in o.validate_state())


def _replayed(records):
    o = LimitOracle()
    for rec in records:
        o.replay_record(rec)
    return o


def test_replay_rejects_pins_grow_could_not_store():
    from urysohn.engine import GrowthRecord

    def rec(point, dists, pins=None, fresh=()):
        return GrowthRecord(point, dists, pins or {}, fresh, None, None)

    # the slot is never registered
    with pytest.raises(OracleGrowthError, match="not registered"):
        _replayed([rec("u1", {}, {(1, 1): {("u1",): F(1, 2)}})])
    # the slot is registered only by a later record
    with pytest.raises(OracleGrowthError, match="not registered"):
        _replayed([
            rec("u1", {}, {(1, 1): {("u1",): F(1, 2)}}),
            rec("u2", {"u1": F(1)}, fresh=((1, 1),)),
        ])
    # the pin names a point that comes later
    with pytest.raises(OracleGrowthError, match="does not exist yet"):
        _replayed([
            rec("u1", {}, {(1, 1): {("u2",): F(1, 2)}}, fresh=((1, 1),)),
            rec("u2", {"u1": F(1)}),
        ])
    ok = _replayed([
        rec("u1", {}, {(1, 1): {("u1",): F(1, 2)}}, fresh=((1, 1),)),
        rec("u2", {"u1": F(1)}, {(1, 1): {("u2",): F(1)}}),
    ])
    assert ok.validate_state() == []


def test_validate_state_reports_pins_out_of_place():
    o = LimitOracle()
    o.grow({}, rel=one_point_ext(1))
    o.grow({"u1": F(1)})
    assert o.log[0].pins == {(1, 1): {("u1",): F(1)}}
    assert o.validate_state() == []
    o.registry[(1, 1)] = 2  # as if the slot were registered after its pin
    assert any("not registered" in msg for msg in o.validate_state())
