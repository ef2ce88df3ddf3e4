"""The read path of ORACLE logs against the parse it replaced, under fuzzing,
and replay against the oracles it reproduces.

``reference_parse_oracle`` is the parse that turned every ``gd`` field into
a Fraction through ``parse_rat``; the integer parse must give the same
values, the same least denominators, or the same ParseError at the same
line.  A replayed oracle must equal the grown one, hold its distances
through RowDists, and write the same bytes.
"""
import io
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as F
from math import lcm
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from urysohn import cli
from urysohn.engine import GrowthRecord, LimitOracle, OracleGrowthError, RowDists, ScaledDists
from urysohn.files import (
    KINDS,
    OracleFile,
    ParseError,
    _fields,
    _int,
    _rat,
    _tuple_record,
    oracle_chunks,
    oracle_file,
    parse_profile_entries,
    parse_structure_file,
    replay_oracle,
    serialize_structure,
)
from urysohn.product import StructureC
from urysohn.randgen import (
    compatible_profile,
    random_bark,
    random_compact,
    random_polish,
    random_structure_l,
)

from oracle_state import int_pins
from random_structures import random_structure_k
from test_bounded_memory import ORACLES

# -- the replaced parse ---------------------------------------------------------


def reference_parse_oracle(text: str) -> OracleFile | None:
    """An ORACLE file as parsed before distances were read as integers:
    a list of (line number, stripped line) pairs, then one Fraction per
    ``gd`` field in a dict per block.  None for a file of another kind."""
    lines = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            lines.append((lineno, line))
    if not lines:
        raise ParseError(1, "empty file")
    head_no, head = lines[0]
    if head not in KINDS:
        raise ParseError(head_no, f"unknown header {head!r}")
    if head != "ORACLE":
        return None
    modes, lip, records, cur = [], None, [], None

    def flush():
        if cur is not None:
            records.append(GrowthRecord(cur["point"], cur["dists"], cur["pins"],
                                        tuple(cur["fresh"]), cur["suit"], cur["pz"]))

    for lineno, line in lines[1:]:
        parts = line.split()
        rec = parts[0]
        if rec == "mode":
            _fields(parts, 2, lineno, "one mode name")
            if cur is not None:
                raise ParseError(lineno, "mode records must precede growth blocks")
            modes.append(parts[1])
        elif rec == "L":
            _fields(parts, 2, lineno, "one rational")
            lip = _rat(parts[1], lineno)
        elif rec == "grow":
            flush()
            cur = None
            if len(parts) != 2:
                raise ParseError(lineno, "grow record wants the new point id")
            cur = {"point": parts[1], "dists": {}, "pins": {}, "fresh": [],
                   "suit": None, "pz": None}
        elif cur is None:
            raise ParseError(lineno, f"record {rec!r} outside a growth block")
        elif rec == "gd":
            _fields(parts, 3, lineno, "a point id and a rational")
            cur["dists"][parts[1]] = _rat(parts[2], lineno)
        elif rec == "gp":
            n, g, tup, v = _tuple_record(parts, lineno)
            cur["pins"].setdefault((n, g), {})[tup] = v
        elif rec == "greg":
            _fields(parts, 3, lineno, "an arity and a slot index")
            cur["fresh"].append((_int(parts[1], lineno), _int(parts[2], lineno)))
        elif rec == "gsuit":
            _fields(parts, 2, lineno, "profile entries")
            cur["suit"] = parse_profile_entries(parts[1], lineno)
        elif rec == "gpz":
            _fields(parts, 2, lineno, "one integer")
            cur["pz"] = _int(parts[1], lineno)
        else:
            raise ParseError(lineno, f"unknown record {rec!r}")
    flush()
    return OracleFile(tuple(modes) if modes else ("rel",), lip, records)


def _least_den(dists) -> int:
    return lcm(*(v.denominator for v in dists.values()))


def parse_outcome(parse, text):
    """What a parse gives: the error with its line, or every record field,
    with each block's least common denominator; None for a file that is not
    a log."""
    try:
        of = parse(text)
    except ParseError as exc:
        return ("error", str(exc), exc.line)
    if not isinstance(of, OracleFile):
        return None
    recs = [(r.point, dict(r.dists), _least_den(r.dists), r.pins, r.fresh, r.suitable,
             r.lip_index) for r in of.records]
    return ("ok", of.modes, of.lip, recs)


def new_parse(text):
    return parse_structure_file(text).value


def replay_outcome(of, space):
    try:
        o = replay_oracle(of, **space)
    except OracleGrowthError as exc:
        return ("error", str(exc))
    return ("ok", o.den, o._rows, int_pins(o), o._suit, o._lip)


# -- logs and structure files to mutate -------------------------------------------


def _space(o):
    return {"compact": o.compact, "polish": o.polish}


def _small_oracles():
    out = []
    for kind in sorted(ORACLES):
        o = ORACLES[kind]()
        out.append((kind, serialize_structure("ORACLE", oracle_file(o)), _space(o)))
    return out


LOGS = _small_oracles()

# the gd tokens a log may be damaged with; each has a reason parse_rat
# refuses it, or is one int() reads in a non-canonical spelling
BAD_TOKENS = ["1/0", "-1/2", "1/2/3", "x/2", "+3/4", "3_0/4", "2/4", "", "0/0", "1/-2",
              "-0/3", "007/8", "1/", "/2", "12", "1.5/2", "١/2", "6/8", "0/9"]
TOKENS = st.one_of(
    st.sampled_from(BAD_TOKENS),
    st.builds(lambda a, b: f"{a}/{b}", st.integers(-3, 40), st.integers(-3, 40)),
)


def _gd_lines(text):
    return [i for i, line in enumerate(text.split("\n")) if line.startswith("gd ")]


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_gd_tokens_parse_and_replay_as_the_fraction_parse(data):
    kind, text, space = data.draw(st.sampled_from(LOGS))
    lines = text.split("\n")
    at = _gd_lines(text)
    for i in data.draw(st.lists(st.sampled_from(at), min_size=1, max_size=3)):
        head = lines[i].rsplit(" ", 1)[0]
        lines[i] = f"{head} {data.draw(TOKENS)}".rstrip()
    mutated = "\n".join(lines)
    want = parse_outcome(reference_parse_oracle, mutated)
    assert parse_outcome(new_parse, mutated) == want
    if want[0] == "ok":
        assert replay_outcome(new_parse(mutated), space) == replay_outcome(
            reference_parse_oracle(mutated), space
        )


def test_a_non_canonical_gd_value_replays_to_the_canonical_den():
    kind, text, space = next(log for log in LOGS if log[0] == "rel")
    lines = text.split("\n")
    for i in _gd_lines(text):
        head, value = lines[i].rsplit(" ", 1)
        num, den = value.split("/")
        lines[i] = f"{head} {int(num) * 6}/{int(den) * 6}"
    doubled = "\n".join(lines)
    assert doubled != text
    a = replay_oracle(parse_structure_file(text).value, **space)
    b = replay_oracle(parse_structure_file(doubled).value, **space)
    assert a.den == b.den and a._rows == b._rows
    assert serialize_structure("ORACLE", oracle_file(b)) == text


def _mutate_lines(data, text):
    """Drop, duplicate, swap or re-token a few lines of ``text``."""
    lines = text.split("\n")
    for _ in range(data.draw(st.integers(1, 3))):
        if not lines:
            break
        i = data.draw(st.integers(0, len(lines) - 1))
        how = data.draw(st.sampled_from(["drop", "dup", "swap", "token"]))
        if how == "drop":
            del lines[i]
        elif how == "dup":
            lines.insert(i, lines[i])
        elif how == "swap":
            j = data.draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        else:
            parts = lines[i].split(" ")
            k = data.draw(st.integers(0, len(parts) - 1))
            pool = sorted(set(text.split())) + ["", "0/1", "1/0", "-1", "x", "999"]
            parts[k] = data.draw(st.sampled_from(pool))
            lines[i] = " ".join(parts)
    return "\n".join(lines)


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    """A directory, and small valid K/BARK/C/L/COMPACT/POLISH files and
    logs with the validate options each wants."""
    d = tmp_path_factory.mktemp("fuzz")
    rng = Random(11)
    k = random_compact(rng, 3)
    z = random_polish(rng, 3)
    s = random_structure_l(rng, z, ["b1", "b2", "b3"], F(1))
    pts = s.metric.points
    fns = {}
    for i, p in enumerate(pts):
        fns[p] = compatible_profile(rng, k, [(fns[q], s.metric.d(p, q)) for q in pts[:i]])
    space, zspace = d / "space.compact", d / "space.polish"
    space.write_text(serialize_structure("COMPACT", k), encoding="utf-8")
    zspace.write_text(serialize_structure("POLISH", z), encoding="utf-8")
    inputs = [
        (serialize_structure("BARK", random_bark(rng, ["x1", "x2", "x3"], bound=2)), []),
        (serialize_structure("K", random_structure_k(rng, ["y1", "y2", "y3"])), []),
        (serialize_structure("C", StructureC(s.metric, fns)), ["--space", str(space)]),
        (serialize_structure("L", s), ["--space", str(zspace)]),
        (serialize_structure("COMPACT", k), []),
        (serialize_structure("POLISH", z), []),
    ]
    for kind, text, pres in LOGS:
        extra = []
        for flag, role, value in (("--space", "COMPACT", pres["compact"]),
                                  ("--zspace", "POLISH", pres["polish"])):
            if value is not None:
                path = d / f"{kind}.{role.lower()}"
                path.write_text(serialize_structure(role, value), encoding="utf-8")
                extra += [flag, str(path)]
        inputs.append((text, extra))
    return d, inputs


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_mutated_files_end_in_an_exit_code_not_a_traceback(fuzz_inputs, data):
    d, inputs = fuzz_inputs
    text, extra = data.draw(st.sampled_from(inputs))
    mutated = _mutate_lines(data, text)
    want = parse_outcome(reference_parse_oracle, mutated)
    if want is not None:
        assert parse_outcome(new_parse, mutated) == want
    path = d / "mutated"
    path.write_text(mutated, encoding="utf-8")
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        assert cli.main(["validate", str(path), *extra]) in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


def test_the_unmutated_inputs_validate(fuzz_inputs, capsys):
    d, inputs = fuzz_inputs
    for text, extra in inputs:
        path = d / "valid"
        path.write_text(text, encoding="utf-8")
        assert cli.main(["validate", str(path), *extra]) == 0, text
    assert capsys.readouterr().out.split() == ["valid"] * len(inputs)


# -- replay against grow ------------------------------------------------------------


@pytest.mark.parametrize("kind", sorted(ORACLES))
def test_replay_equals_grow(kind):
    o = ORACLES[kind]()
    text = serialize_structure("ORACLE", oracle_file(o))
    r = replay_oracle(parse_structure_file(text).value, **_space(o))
    assert r.den == o.den
    assert r._rows == o._rows
    assert int_pins(r) == int_pins(o)
    assert r.registry == o.registry
    assert r._suit == o._suit and r._lip == o._lip
    assert r.points == o.points
    assert all(isinstance(rec.dists, RowDists) for rec in r.log)
    assert list(oracle_chunks(oracle_file(r))) == list(oracle_chunks(oracle_file(o)))


def test_replay_swaps_the_parsed_records_for_the_logged_ones():
    kind, text, space = LOGS[0]
    of = parse_structure_file(text).value
    assert all(isinstance(rec.dists, ScaledDists) for rec in of.records)
    o = replay_oracle(of, **space)
    assert of.records == o.log and all(a is b for a, b in zip(of.records, o.log))
    assert serialize_structure("ORACLE", of) == text


def test_a_hand_built_record_replays_through_its_integers():
    o = LimitOracle()
    o.replay_record(GrowthRecord("u1", {}, {}, (), None, None))
    rec = o.replay_record(GrowthRecord("u2", {"u1": F(2, 4)}, {}, (), None, None))
    assert isinstance(rec.dists, RowDists) and rec.dists == {"u1": F(1, 2)}
    grown = LimitOracle()
    grown.grow({})
    grown.grow({"u1": F(1, 2)})
    assert o.den == grown.den and o._rows == grown._rows
    assert ScaledDists.of({"u1": F(1, 2), "u2": F(1, 3)}).den == 6


def test_grow_on_a_replayed_log_writes_it_back_byte_for_byte(tmp_path, capsys):
    o = ORACLES["rel"]()
    log, log2 = tmp_path / "o.log", tmp_path / "o2.log"
    log.write_text(serialize_structure("ORACLE", oracle_file(o)), encoding="utf-8")
    assert cli.main(["grow", "--oracle", str(log), "--out-log", str(log2)]) == 0
    new = f"u{len(o) + 1}"
    assert capsys.readouterr().out == f"{new}\n"
    old = log.read_bytes()
    assert log2.read_bytes().startswith(old)
    assert log2.read_bytes()[len(old):].startswith(f"grow {new}\n".encode())
