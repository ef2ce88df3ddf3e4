from fractions import Fraction

import pytest

from urysohn.engine import LimitOracle, RelExtension
from urysohn.files import (
    ParseError,
    oracle_file,
    parse_structure_file,
    replay_oracle,
    serialize_structure,
)
from urysohn.metric import fin_metric, single_point
from urysohn.relational import indexed_structure, validate_k
from urysohn.spaces import suitable

F = Fraction

K_CANON = """K
point a
point b
nA 1
d a b 3/4
p 1 1 a 0/1
p 1 1 b 1/2
"""


def test_parse_then_serialize_is_identity_on_canonical():
    parsed = parse_structure_file(K_CANON)
    assert parsed.kind == "K"
    assert validate_k(parsed.value) == []
    assert serialize_structure("K", parsed.value) == K_CANON


def test_serialize_then_parse_canonicalizes():
    messy = "# comment\nK\npoint b\nd b a 6/8\npoint a\nnA 1\np 1 1 b 1/2\np 1 1 a 0/1\n"
    parsed = parse_structure_file(messy)
    canon = serialize_structure("K", parsed.value)
    assert canon == K_CANON
    again = parse_structure_file(canon)
    assert serialize_structure("K", again.value) == canon


def test_zero_denominator_rejected():
    with pytest.raises(ParseError, match="denominator"):
        parse_structure_file("K\npoint a\npoint b\nd a b 1/0\n")


def test_duplicate_distance_rejected():
    with pytest.raises(ParseError, match="duplicate"):
        parse_structure_file("K\npoint a\npoint b\nd a b 1/2\nd b a 1/2\n")


def test_unknown_header_rejected():
    with pytest.raises(ParseError, match="unknown header"):
        parse_structure_file("WAT\npoint a\n")


def test_integer_form_rejected():
    with pytest.raises(ParseError):
        parse_structure_file("K\npoint a\npoint b\nd a b 2\n")


def test_bark_round_trip():
    text = """BARK
point x
point y
nA 1
d x y 1/1
p 1 7 x 0/1
p 1 7 y 1/1
"""
    parsed = parse_structure_file(text)
    assert parsed.kind == "BARK"
    assert parsed.value.indices == {1: (7,)}
    assert serialize_structure("BARK", parsed.value) == text


def test_c_and_compact_round_trip():
    compact = "COMPACT\npoint q1\npoint q2\nd q1 q2 1/2\n"
    k = parse_structure_file(compact)
    assert serialize_structure("COMPACT", k.value) == compact
    c_text = "C\npoint a\npoint b\nd a b 1/1\nsuit a 1=1/2\nsuit b -\n"
    c = parse_structure_file(c_text)
    assert serialize_structure("C", c.value) == c_text


def test_l_round_trip():
    text = "L\npoint a\npoint b\nL 1/2\nd a b 2/1\npz a 1\npz b 2\n"
    parsed = parse_structure_file(text)
    assert parsed.value.lip == F(1, 2)
    assert serialize_structure("L", parsed.value) == text


def test_oracle_log_replay_reproduces_state():
    o = LimitOracle()
    s = indexed_structure(single_point("x"), pred={(1, 1, ("x",)): F(1, 2)}, bound=1)
    o.grow({}, rel=RelExtension(s, {}, {(1, 1): None}))
    o.grow({"u1": F(1)})
    m = fin_metric(["p", "q"], {("p", "q"): F(1, 4)})
    ext = indexed_structure(
        m, pred={(1, 1, ("p",)): F(1, 2), (1, 1, ("q",)): F(3, 4)}, bound=1
    )
    o.grow({"u1": F(1, 4)}, rel=RelExtension(ext, {"p": "u1"}, {(1, 1): 1}))

    text = serialize_structure("ORACLE", oracle_file(o))
    parsed = parse_structure_file(text)
    replayed = replay_oracle(parsed.value)
    assert replayed.points == o.points
    assert replayed.registry == o.registry
    for pt in o.points:
        assert replayed.predicate_value(1, 1, (pt,)) == o.predicate_value(1, 1, (pt,))
        for qt in o.points:
            if pt != qt:
                assert replayed.distance(pt, qt) == o.distance(pt, qt)
    assert serialize_structure("ORACLE", oracle_file(replayed)) == text


def test_oracle_log_with_profiles():
    from urysohn.spaces import CompactPresentation

    k = CompactPresentation(fin_metric(["q1", "q2"], {("q1", "q2"): F(1)}))
    o = LimitOracle(modes=("prod",), compact=k)
    o.grow({}, suitable=suitable({1: F(1, 2)}))
    o.grow({"u1": F(1, 4)}, suitable=suitable({1: F(1, 2)}))
    text = serialize_structure("ORACLE", oracle_file(o))
    replayed = replay_oracle(parse_structure_file(text).value, compact=k)
    assert replayed.suitable_at("u2") == o.suitable_at("u2")
    assert serialize_structure("ORACLE", oracle_file(replayed)) == text


@pytest.mark.parametrize(
    "text, line",
    [
        ("K\npoint a\nnA\n", 3),
        ("K\npoint a\nnA one\n", 3),
        ("L\npoint a\nL\n", 3),
        ("K\npoint a\npoint b\np 1 x a 1/2\n", 4),
        ("L\npoint a\nL 1/1\npz a q\n", 4),
        ("ORACLE\nmode\n", 2),
        ("ORACLE\ngrow u1\ngrow u2\ngd 1/1\n", 4),
        ("ORACLE\ngrow u1\ngp 1 1 1/2\n", 3),
        ("ORACLE\ngrow u1\ngp 2 1 u1 1/2\n", 3),
        ("ORACLE\ngrow u1\ngreg 1\n", 3),
        ("ORACLE\ngrow u1\ngreg 1 one\n", 3),
        ("ORACLE\ngrow u1\ngsuit\n", 3),
        ("ORACLE\ngrow u1\ngpz\n", 3),
    ],
)
def test_truncated_records_raise_parse_errors(text, line):
    with pytest.raises(ParseError) as info:
        parse_structure_file(text)
    assert info.value.line == line
