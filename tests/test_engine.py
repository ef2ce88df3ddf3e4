from fractions import Fraction

import pytest

from urysohn.cli import main
from urysohn.engine import (
    EMPTY_STRUCTURE,
    LimitOracle,
    OracleGrowthError,
    RelExtension,
    amalgamate_k,
    joint_embed_k,
)
from urysohn.files import oracle_file, serialize_structure
from urysohn.metric import fin_metric, single_point
from urysohn.relational import (
    EmbeddingWitness,
    IndexedStructure,
    check_embedding_k,
    find_isomorphism,
    identity_witness,
    indexed_structure,
    pattern_indices,
    restrict_k,
    validate_k,
)

from oracle_state import set_int_pin

F = Fraction


def unary_point(pid, value):
    return indexed_structure(single_point(pid), pred={(1, 1, (pid,)): F(value)}, bound=1)


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
    b = indexed_structure(m, bound=2)  # has slots (1,1), (1,2), (2,1)
    out = joint_embed_k(a, b)
    assert out.result.bound == 2
    assert out.result.pred[(1, 2, ("a",))] == 0
    assert out.result.pred[(2, 1, ("a", "x"))] == 0
    assert validate_k(out.result) == []


def three_chain():
    """A = one point with one unary value; B, C extend it with bound 2."""
    a = unary_point("a", 1)
    mb = fin_metric(["a", "b"], {("a", "b"): F(2)})
    b = indexed_structure(
        mb,
        pred={
            (1, 1, ("a",)): F(1),
            (1, 1, ("b",)): F(2),
            (1, 2, ("b",)): F(1, 2),
            (2, 1, ("a", "b")): F(1),
        },
        bound=2,
    )
    mc = fin_metric(["a", "c"], {("a", "c"): F(3)})
    c = indexed_structure(
        mc,
        pred={
            (1, 1, ("a",)): F(1),
            (1, 1, ("c",)): F(3),
            (1, 2, ("c",)): F(2),
        },
        bound=2,
    )
    assert validate_k(b) == [] and validate_k(c) == []
    wab = EmbeddingWitness({"a": "a"}, {1: {1: 1}})
    wac = EmbeddingWitness({"a": "a"}, {1: {1: 1}})
    return a, b, c, wab, wac


def test_amalgamate_arity_arithmetic_and_shift():
    a, b, c, wab, wac = three_chain()
    out = amalgamate_k(b, c, a, wab, wac)
    d = out.result
    assert d.bound == 2 + (2 - 1)
    # c's slot (1, 2) sits above the common pattern, so it shifts by b.bound - a.bound
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
    s = indexed_structure(single_point("x"), pred={(1, 1, ("x",)): F(value)}, bound=1)
    return RelExtension(s, {}, {(1, 1): None if slot_fresh else 1})


def test_first_growth_registers_global():
    o = LimitOracle()
    res = o.grow({}, rel=one_point_ext(0))
    assert res.point == "u1"
    assert res.slot_globals == {(1, 1): 1}
    assert o.registry == {(1, 1): 1}
    assert o.predicate_value(1, 1, ("u1",)) == 0


@pytest.mark.parametrize("value", [0, F(1, 2)])
def test_predicate_value_refuses_a_point_outside_the_oracle(value):
    o = LimitOracle()
    o.grow({}, rel=one_point_ext(value))
    for tup in [("nope",), ("u2",)]:
        with pytest.raises(KeyError, match="outside the oracle"):
            o.predicate_value(1, 1, tup)
    assert o.predicate_value(1, 1, ("u1",)) == value


def test_predicate_value_refuses_a_tuple_of_the_wrong_arity_on_an_unpinned_slot():
    o = LimitOracle()
    o.grow({}, rel=one_point_ext(0))
    assert not o._pins[(1, 1)].neg
    for tup in [("u1", "u1"), ()]:
        with pytest.raises(KeyError, match="arity"):
            o.predicate_value(1, 1, tup)


def test_predicate_value_refuses_a_tuple_of_the_wrong_arity_on_a_pinned_slot():
    # the pin's one getter used to read ("u1", "u1") as ("u1",): 1/2
    o = LimitOracle()
    o.grow({}, rel=one_point_ext(F(1, 2)))
    assert o._pins[(1, 1)].neg
    with pytest.raises(KeyError, match="has arity 2, slot \\(1, 1\\) wants 1"):
        o.predicate_value(1, 1, ("u1", "u1"))
    assert (1, 1, ("u1", "u1")) not in o._value_cache
    assert o.predicate_value(1, 1, ("u1",)) == F(1, 2)


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
    ext = indexed_structure(
        m, pred={(1, 1, ("p",)): F(5), (1, 1, ("q",)): F(1)}, bound=1
    )
    # 5 > 1 + 1 inside the extension itself
    with pytest.raises(OracleGrowthError):
        o.grow({"u1": F(1)}, rel=RelExtension(ext, {"p": "u1"}, {(1, 1): 1}))


def test_growth_rejects_base_disagreement():
    o = LimitOracle()
    o.grow({}, rel=one_point_ext(5))
    m = fin_metric(["p", "q"], {("p", "q"): F(1)})
    ext = indexed_structure(
        m, pred={(1, 1, ("p",)): F(4), (1, 1, ("q",)): F(4)}, bound=1
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
    ext = indexed_structure(m, pred={(1, 1, ("p",)): F(2), (1, 1, ("q",)): F(3)}, bound=1)
    o.grow({"u1": F(1)}, rel=RelExtension(ext, {"p": "u1"}, {(1, 1): 1}))
    after = o.snapshot()
    restricted = restrict_k(after, ["u1"], bound=before.bound)
    assert restricted.pred == before.pred
    assert validate_k(after) == []


def test_fresh_slot_budget_enforced():
    o = LimitOracle()
    m = single_point("x")
    s = IndexedStructure(
        m,
        1,
        pattern_indices(1),
        {(1, 1, ("x",)): F(0)},
    )
    # two fresh unary slots cannot fit a one-point structure pattern
    two_slots = indexed_structure(
        fin_metric(["x", "y"], {("x", "y"): F(1)}), bound=2
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
    bad = indexed_structure(m, pred={(1, 1, ("p",)): F(4), (1, 1, ("q",)): F(4)}, bound=1)
    with pytest.raises(OracleGrowthError):
        o.grow({"u1": F(1)}, rel=RelExtension(bad, {"p": "u1"}, {(1, 1): 1}))
    assert o.points == before_points and len(o.log) == before_log
    assert {p: o.predicate_value(1, 1, (p,)) for p in o.points} == before_vals


def test_duplicate_global_mapping_rejected():
    o = LimitOracle()
    o.grow({}, rel=one_point_ext(0))
    o.grow({"u1": F(1)}, rel=_two_unary_ext())
    ext = indexed_structure(
        fin_metric(["p", "q", "r"], {("p", "q"): F(1), ("p", "r"): F(1), ("q", "r"): F(1)}),
        bound=2,
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
    ext = indexed_structure(m, bound=2)
    return RelExtension(ext, {"p": "u1"}, {(1, 1): 1, (1, 2): None, (2, 1): None})


def test_birth_pins_only_on_fresh_slots():
    o = LimitOracle()
    o.grow({}, rel=one_point_ext(0))
    m = fin_metric(["p", "q"], {("p", "q"): F(1)})
    ext = indexed_structure(m, bound=1)
    rel = RelExtension(
        ext, {"p": "u1"}, {(1, 1): 1}, birth_pins={(1, 1): {("u1",): F(0)}}
    )
    with pytest.raises(OracleGrowthError, match="fresh"):
        o.grow({"u1": F(1)}, rel=rel)


def _birth_pin_request(births):
    """A two-point oracle, u1 valued 0 on the unary slot (1, 1), and an
    extension at 1/2 from u1 with two fresh slots beside (1, 1)."""
    o = LimitOracle()
    o.grow({}, rel=one_point_ext(0))
    o.grow({"u1": F(1)})
    ext = indexed_structure(fin_metric(["b", "x"], {("b", "x"): F(1, 2)}), bound=2)
    slot_map = {(1, 1): 1, (1, 2): None, (2, 1): None}
    return o, RelExtension(ext, {"b": "u1"}, slot_map, births)


def test_grow_assigns_the_slots_of_an_extension_once(monkeypatch):
    o, rel = _birth_pin_request({(1, 2): {("u2",): F(1, 4)}})
    calls = []
    real = LimitOracle._assign_slots
    monkeypatch.setattr(LimitOracle, "_assign_slots",
                        lambda self, *args: calls.append(args) or real(self, *args))
    o.grow({"u1": F(1, 2)}, rel=rel)
    assert len(calls) == 1
    assert o.log[-1].pins[(1, 2)][("u2",)] == F(1, 4)


@pytest.mark.parametrize("births, error", [
    ({(1, 3): {("u1",): F(0)}}, "birth pins are only allowed on fresh slots, got (1, 3)"),
    ({(1, 1): {("u2",): F(0)}}, "birth pins are only allowed on fresh slots, got (1, 1)"),
    ({(1, 2): {("u1", "u2"): F(0)}}, "birth pin arity mismatch at ('u1', 'u2')"),
    ({(2, 1): {("u1", "u9"): F(0)}}, "birth pin on unknown points ('u1', 'u9')"),
])
def test_each_birth_pin_fault_keeps_its_message(births, error):
    """A slot outside the extension, a realized slot, a wrong arity and an
    unknown point, one at a time."""
    o, rel = _birth_pin_request(births)
    before = _state(o)
    with pytest.raises(OracleGrowthError) as exc:
        o.grow({"u1": F(1, 2)}, rel=rel)
    assert str(exc.value) == error
    assert _state(o) == before


def test_an_empty_base_counts_birth_pins_in_the_gap(tmp_path):
    """The birth pin (u1,) at 10 puts the gap at 20, where the other values,
    all 0, give 1: so (u2,) at 0 is 20 from (u1,), within its window."""
    o = LimitOracle()
    o.grow({})
    x = indexed_structure(single_point("x"), pred={(1, 1, ("x",)): F(0)}, bound=1)
    o.grow({}, rel=RelExtension(x, {}, {(1, 1): None}, {(1, 1): {("u1",): F(10)}}))
    assert o.distance("u1", "u2") == 20
    assert o.predicate_value(1, 1, ("u1",)) == 10
    assert o.predicate_value(1, 1, ("u2",)) == 0
    assert o.validate_state() == []
    log = tmp_path / "o.log"
    log.write_text(serialize_structure("ORACLE", oracle_file(o)))
    assert main(["validate", str(log)]) == 0


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
                ext = indexed_structure(metric, pred=pred, bound=1)
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
    set_int_pin(o, (1, 1), ("u2",), -1)
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


def _rel_pair():
    """u1 carries slot (1, 1) pinned at 1, u2 sits at distance 1."""
    o = LimitOracle()
    o.grow({}, rel=one_point_ext(1))
    o.grow({"u1": F(1)})
    return o, lambda: o.grow({"u1": F(1)})


def _prod_lip_point():
    from urysohn.spaces import CompactPresentation, PolishPresentation, suitable

    two = fin_metric(["a", "b"], {("a", "b"): F(1)})
    o = LimitOracle(
        ("prod", "lip"), compact=CompactPresentation(two),
        polish=PolishPresentation(two), lip_const=F(1),
    )
    o.grow({}, suitable=suitable({1: F(1)}), lip_index=1)
    return o, lambda: o.grow({"u1": F(2)}, suitable=suitable({1: F(1)}), lip_index=1)


def _refused(make, point, dists, pins=None, fresh=(), profile=None, label=None):
    return pytest.param(make, point, dists, pins or {}, fresh, profile, label)


# thirds are new to every oracle below, so a record that got as far as
# rescaling would change its denominator
_THIRD = F(1, 3)
_OLD = {"u1": _THIRD, "u2": _THIRD}


@pytest.mark.parametrize(
    "make, point, dists, pins, fresh, profile, label",
    [
        _refused(_rel_pair, "u2", _OLD),
        _refused(_rel_pair, "u3", {"u1": _THIRD}),
        _refused(_rel_pair, "u3", {**_OLD, "u9": _THIRD}),
        _refused(_rel_pair, "u3", _OLD, profile="empty"),
        _refused(_rel_pair, "u3", _OLD, label=1),
        _refused(_rel_pair, "u3", _OLD, fresh=((1, 3),)),
        _refused(_rel_pair, "u3", _OLD, fresh=((1, 2), (1, 2))),
        _refused(_rel_pair, "u3", _OLD, fresh=((0, 1),)),
        _refused(_rel_pair, "u3", _OLD, fresh=((4, 1),)),
        _refused(_prod_lip_point, "u2", {"u1": _THIRD}, profile="outside"),
        _refused(_prod_lip_point, "u2", {"u1": _THIRD}, label=3),
        _refused(_prod_lip_point, "u2", {"u1": _THIRD}, pins={(1, 1): {("u1",): _THIRD}}),
        _refused(_rel_pair, "u3", _OLD, pins={(1, 2): {("u3",): _THIRD}}),
        _refused(_rel_pair, "u3", _OLD, pins={(1, 1): {("u1", "u2"): _THIRD}}),
        _refused(_rel_pair, "u3", _OLD, pins={(1, 1): {("u4",): _THIRD}}),
        _refused(_rel_pair, "u3", _OLD, {(1, 2): {("u3",): _THIRD}, (1, 3): {("u3",): _THIRD}},
                 fresh=((1, 2),)),
        # profiles and labels grow refuses, in the order grow checks them
        _refused(_prod_lip_point, "u2", {"u1": _THIRD}, profile="fits"),
        _refused(_prod_lip_point, "u2", {"u1": _THIRD}, profile="clash", label=1),
        _refused(_prod_lip_point, "u2", {"u1": _THIRD}, profile="far", label=1),
        _refused(_prod_lip_point, "u2", {"u1": _THIRD}, profile="low", label=1),
        _refused(_prod_lip_point, "u2", {"u1": _THIRD}, profile="fits", label=2),
    ],
)
def test_refused_replay_writes_nothing(make, point, dists, pins, fresh, profile, label):
    from urysohn.engine import GrowthRecord
    from urysohn.spaces import SuitableFn, suitable

    o, grow_next = make()
    profile = {
        None: None, "empty": SuitableFn(()), "outside": suitable({5: F(1)}),
        "fits": suitable({1: F(1)}), "clash": suitable({1: F(3), 2: F(0)}),
        "far": suitable({1: F(2)}), "low": suitable({1: F(0)}),
    }[profile]
    before = (o.metric(), list(o.log), dict(o.registry),
              [o.realized_count(n) for n in range(1, 5)], o.den)
    with pytest.raises(OracleGrowthError, match="^step "):
        o.replay_record(GrowthRecord(point, dists, pins, fresh, profile, label))
    after = (o.metric(), list(o.log), dict(o.registry),
             [o.realized_count(n) for n in range(1, 5)], o.den)
    assert after == before
    assert o.validate_state() == []
    assert grow_next().point == f"u{len(before[1]) + 1}"


def test_replay_accepts_a_pin_on_its_own_point_and_fresh_slot():
    from urysohn.engine import GrowthRecord

    o, _ = _rel_pair()
    pins = {(1, 1): {("u3",): F(1)}, (1, 2): {("u3",): _THIRD, ("u1",): F(0)}}
    o.replay_record(GrowthRecord("u3", {"u1": F(1), "u2": F(1)}, pins, ((1, 2),), None, None))
    assert o.points == ("u1", "u2", "u3") and o.registry[(1, 2)] == 3
    assert o.predicate_value(1, 2, ("u3",)) == _THIRD
    assert o.validate_state() == []


def test_labels_outside_the_presentation_are_refused_and_missing_ones_reported():
    from urysohn.files import parse_structure_file, replay_oracle
    from urysohn.spaces import PolishPresentation

    z = PolishPresentation(fin_metric(["z1", "z2"], {("z1", "z2"): F(1)}))
    o = LimitOracle(("lip",), polish=z, lip_const=F(1))
    for label in (0, 3):
        with pytest.raises(OracleGrowthError, match=f"dense index {label} outside 1..2"):
            o.grow({}, lip_index=label)
    assert len(o) == 0
    log = parse_structure_file("ORACLE\nmode lip\nL 1/1\ngrow u1\ngpz 1\ngrow u2\ngd u1 2/1\n")
    with pytest.raises(OracleGrowthError) as exc:
        replay_oracle(log.value, polish=z)
    assert str(exc.value) == "step 2: lip mode requires a dense index for the new point"


def test_replay_refuses_a_missing_profile():
    from urysohn.files import parse_structure_file, replay_oracle
    from urysohn.spaces import CompactPresentation

    k = CompactPresentation(fin_metric(["q1", "q2"], {("q1", "q2"): F(1)}))
    log = parse_structure_file(
        "ORACLE\nmode prod\ngrow u1\ngsuit -\ngrow u2\ngd u1 1/1\ngrow u3\ngb u1 1/1\n"
    )
    with pytest.raises(OracleGrowthError) as exc:
        replay_oracle(log.value, compact=k)
    assert str(exc.value) == "step 2: prod mode requires a profile for the new point"


def test_grow_refuses_profiles_and_labels_the_oracle_does_not_carry():
    from urysohn.spaces import CompactPresentation, suitable

    k = CompactPresentation(fin_metric(["q1", "q2"], {("q1", "q2"): F(1)}))
    rel_only = LimitOracle()
    with pytest.raises(OracleGrowthError, match="oracle does not carry profiles"):
        rel_only.grow({}, suitable=suitable({1: F(1)}))
    with pytest.raises(OracleGrowthError, match="oracle does not carry labels"):
        rel_only.grow({}, lip_index=1)
    prod_only = LimitOracle(("prod",), compact=k)
    with pytest.raises(OracleGrowthError, match="oracle does not carry labels"):
        prod_only.grow({}, suitable=suitable({1: F(1)}), lip_index=1)
    assert len(rel_only) == len(prod_only) == 0
    assert rel_only.log == prod_only.log == []


def test_label_target_on_an_oracle_without_labels_is_refused_before_growth():
    from urysohn.cauchy import SolverError
    from urysohn.product import embed_point_c
    from urysohn.spaces import CompactPresentation, suitable

    k = CompactPresentation(fin_metric(["q1", "q2"], {("q1", "q2"): F(1)}))
    o = LimitOracle(("prod",), compact=k)
    with pytest.raises(SolverError, match="oracle does not carry labels"):
        embed_point_c(o, suitable({1: F(1)}), 2, lip_target=1)
    assert len(o) == 0


def test_validate_state_checks_profiles_only_on_a_prod_oracle():
    # what `urysohn grow --space K` builds on a rel oracle: a compact
    # presentation, but no profiles to check
    from urysohn.spaces import CompactPresentation

    k = CompactPresentation(fin_metric(["q1", "q2"], {("q1", "q2"): F(1)}))
    o = LimitOracle(("rel",), compact=k)
    o.grow({})
    o.grow({"u1": F(1)})
    assert o.validate_state() == []


def test_a_mode_named_twice_is_refused_as_an_unknown_mode_is():
    # the log of an oracle with a repeated mode would repeat its mode
    # record, which parse_structure_file refuses
    from urysohn.spaces import CompactPresentation, PolishPresentation

    with pytest.raises(ValueError, match="mode 'rel' named twice"):
        LimitOracle(("rel", "rel"))
    with pytest.raises(ValueError, match="unknown mode 'foo'"):
        LimitOracle(("rel", "foo"))
    two = fin_metric(["a", "b"], {("a", "b"): F(1)})
    o = LimitOracle(("prod", "lip"), compact=CompactPresentation(two),
                    polish=PolishPresentation(two), lip_const=F(1))
    assert o.modes == ("prod", "lip")


def test_a_constant_without_lip_mode_is_refused_and_lip_mode_names_its_constant():
    # oracle_file writes the constant back as an L record, so an oracle that
    # holds one it never reads would log a header that says otherwise
    from urysohn.spaces import CompactPresentation, PolishPresentation

    two = fin_metric(["a", "b"], {("a", "b"): F(1)})
    with pytest.raises(ValueError, match="constant L = 1 given without lip mode"):
        LimitOracle(("rel",), lip_const=F(1))
    with pytest.raises(ValueError, match="constant L = 1/2 given without lip mode"):
        LimitOracle(("prod",), compact=CompactPresentation(two), lip_const=F(1, 2))
    with pytest.raises(ValueError, match="needs a positive constant L, a log's L record"):
        LimitOracle(("lip",), polish=PolishPresentation(two))
    with pytest.raises(ValueError, match="needs a polish presentation$"):
        LimitOracle(("lip",), lip_const=F(1))


def _state(o):
    return len(o), o.den, list(o.log), dict(o.registry), dict(o._value_cache)


def test_a_birth_pin_on_a_base_tuple_must_equal_the_extension_there():
    # grow walks the birth pin at (u1,) before the extension's own (u1,), so
    # the window there is the pin's value alone, and 0 falls below it
    o = LimitOracle()
    o.grow({})
    before = _state(o)
    ext = indexed_structure(fin_metric(["b", "x"], {("b", "x"): F(1)}), bound=1,
                            pred={(1, 1, ("b",)): F(0), (1, 1, ("x",)): F(0)})
    rel = RelExtension(ext, {"b": "u1"}, {(1, 1): None}, {(1, 1): {("u1",): F(1, 2)}})
    with pytest.raises(OracleGrowthError) as exc:
        o.grow({"u1": F(1)}, rel=rel)
    assert str(exc.value) == (
        "fresh slot (1,1) born inconsistent: value 0 at ('u1',) undershoots the envelope 1/2"
    )
    assert _state(o) == before


def _payload_oracle(modes):
    """A rel+prod or rel+lip oracle over two-point spaces at distance 1,
    with one point u1: value 0 on the slot (1,1), profile 1 at index 1 or
    label 1; and the one-point extension at 1/4 from it with value ``v``."""
    from urysohn.spaces import CompactPresentation, PolishPresentation, suitable

    two = fin_metric(["q1", "q2"], {("q1", "q2"): F(1)})
    if modes == ("rel", "prod"):
        o, payload = LimitOracle(modes, compact=CompactPresentation(two)), "suitable"
        first = suitable({1: F(1)})
    else:
        o, payload = LimitOracle(modes, polish=PolishPresentation(two), lip_const=F(1)), "lip_index"
        first = 1
    o.grow({}, rel=RelExtension(unary_point("x", 0), {}, {(1, 1): None}), **{payload: first})

    def ext(v):
        ext = indexed_structure(fin_metric(["b", "x"], {("b", "x"): F(1, 4)}), bound=1,
                                pred={(1, 1, ("b",)): F(0), (1, 1, ("x",)): F(v)})
        return RelExtension(ext, {"b": "u1"}, {(1, 1): 1})

    return o, payload, ext


def test_a_window_fault_is_reported_before_a_profile_fault():
    # u2 sits 1/4 from u1: its profile value 2 is 1 away from u1's, and its
    # value 3 on the realized slot (1,1) overshoots the ceiling 0 + 1/4.
    # Every slot is walked before the row is built, and the profile is
    # checked against u1 on the row.
    from urysohn.spaces import suitable

    o, _, ext = _payload_oracle(("rel", "prod"))
    before = _state(o)
    window = "value 3 at ('u2',) overshoots the ceiling 1/4 of slot (1,1)"
    with pytest.raises(OracleGrowthError) as exc:
        o.grow({"u1": F(1, 4)}, rel=ext(3), suitable=suitable({1: F(2)}))
    assert str(exc.value) == window
    assert _state(o) == before
    with pytest.raises(OracleGrowthError) as exc:
        o.grow({"u1": F(1, 4)}, rel=ext(0), suitable=suitable({1: F(2)}))
    assert str(exc.value) == "profile value 2 at 1 too far from point 'u1'"
    assert _state(o) == before
    with pytest.raises(OracleGrowthError) as exc:
        o.grow({"u1": F(1, 4)}, rel=ext(3), suitable=suitable({1: F(1)}))
    assert str(exc.value) == window
    assert _state(o) == before


@pytest.mark.parametrize("modes, value, payload, error", [
    (("rel", "prod"), 0, {5: 1}, "profile invalid: support index 5 outside 1..2"),
    (("rel", "prod"), 0, {1: 2}, "profile value 2 at 1 too far from point 'u1'"),
    (("rel", "prod"), 3, {1: 1}, "value 3 at ('u2',) overshoots the ceiling 1/4 of slot (1,1)"),
    (("rel", "lip"), 0, 9, "dense index 9 outside 1..2"),
    (("rel", "lip"), 0, 2, "index 2 breaks the Lipschitz bound against 'u1'"),
    (("rel", "lip"), 3, 1, "value 3 at ('u2',) overshoots the ceiling 1/4 of slot (1,1)"),
])
def test_each_single_fault_keeps_its_message(modes, value, payload, error):
    from urysohn.spaces import suitable

    o, name, ext = _payload_oracle(modes)
    before = _state(o)
    given = suitable({i: F(v) for i, v in payload.items()}) if name == "suitable" else payload
    with pytest.raises(OracleGrowthError) as exc:
        o.grow({"u1": F(1, 4)}, rel=ext(value), **{name: given})
    assert str(exc.value) == error
    assert _state(o) == before


def test_a_record_with_an_invalid_profile_is_refused_before_its_pins():
    # the pin names a slot no step has registered, and the profile an index
    # outside the presentation: the payload is decided first
    from urysohn.engine import GrowthRecord
    from urysohn.spaces import suitable

    o, _, _ = _payload_oracle(("rel", "prod"))
    before = _state(o)
    rec = GrowthRecord("u2", {"u1": F(1, 4)}, {(1, 2): {("u2",): F(1)}}, (),
                       suitable({5: F(1)}), None, ("u1",))
    with pytest.raises(OracleGrowthError) as exc:
        o.replay_record(rec)
    assert str(exc.value) == "step 2: profile invalid: support index 5 outside 1..2"
    assert _state(o) == before
    rec = GrowthRecord("u2", {"u1": F(1, 4)}, {(1, 2): {("u2",): F(1)}}, (),
                       suitable({1: F(1)}), None, ("u1",))
    with pytest.raises(OracleGrowthError, match=r"pin on slot \(1, 2\), which is not registered"):
        o.replay_record(rec)
    assert _state(o) == before


def test_an_empty_base_grow_checks_its_label_before_the_gap_reads_it():
    # the joint-embedding gap reads the label's distance to every earlier
    # label, so the label is checked on its own before
    from urysohn.spaces import PolishPresentation

    two = fin_metric(["z1", "z2"], {("z1", "z2"): F(1)})
    o = LimitOracle(("lip",), polish=PolishPresentation(two), lip_const=F(1))
    o.grow({}, lip_index=1)
    before = _state(o)
    with pytest.raises(OracleGrowthError) as exc:
        o.grow({}, lip_index=99)
    assert str(exc.value) == "dense index 99 outside 1..2"
    assert _state(o) == before
