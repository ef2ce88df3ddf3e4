"""The read path of ORACLE logs against the parse it replaced, under fuzzing,
and replay against the oracles it reproduces.

``reference_parse_oracle`` is the parse that turned every ``gd`` or ``gb``
field into a Fraction through ``parse_rat``; the integer parse must give the
same values, the same least denominators and bases, or the same ParseError
at the same line.  A replayed oracle must equal the grown one, hold its
distances through RowDists, and write the same bytes.  A log written whole
by the all-``gd`` reference writer must replay to the same oracle as the
log that gives base steps by their base alone.
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
from reference_log import reference_oracle_text
from test_bounded_memory import ORACLES

# -- the replaced parse ---------------------------------------------------------


def reference_parse_oracle(text: str) -> OracleFile | None:
    """An ORACLE file as parsed before distances were read as integers:
    a list of (line number, stripped line) pairs, then one Fraction per
    ``gd`` or ``gb`` field in a dict per block, the block's base the sorted
    ids of its ``gb`` fields.  None for a file of another kind."""
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
            base = tuple(sorted(cur["dists"])) if cur["form"] == "gb" else None
            records.append(GrowthRecord(cur["point"], cur["dists"], cur["pins"],
                                        tuple(cur["fresh"]), cur["suit"], cur["pz"], base))

    for lineno, line in lines[1:]:
        parts = line.split()
        rec = parts[0]
        if rec == "mode":
            _fields(parts, 2, lineno, "one mode name")
            if cur is not None:
                raise ParseError(lineno, "mode records must precede growth blocks")
            if parts[1] in modes:
                raise ParseError(lineno, f"duplicate mode record {parts[1]!r}")
            modes.append(parts[1])
        elif rec == "L":
            _fields(parts, 2, lineno, "one rational")
            if cur is not None:
                raise ParseError(lineno, "L records must precede growth blocks")
            if lip is not None:
                raise ParseError(lineno, "duplicate L record")
            lip = _rat(parts[1], lineno)
        elif rec == "grow":
            flush()
            cur = None
            if len(parts) != 2:
                raise ParseError(lineno, "grow record wants the new point id")
            cur = {"point": parts[1], "dists": {}, "form": None, "pins": {}, "fresh": [],
                   "suit": None, "pz": None}
        elif cur is None:
            raise ParseError(lineno, f"record {rec!r} outside a growth block")
        elif rec in ("gd", "gb"):
            if cur["form"] not in (None, rec):
                raise ParseError(lineno, "a growth block holds gd or gb records, not both")
            cur["form"] = rec
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
    recs = [(r.point, dict(r.dists), _least_den(r.dists), r.base, r.pins, r.fresh,
             r.suitable, r.lip_index) for r in of.records]
    return ("ok", of.modes, of.lip, recs)


def new_parse(text):
    return parse_structure_file(text).value


def first_duplicate(text):
    """What the integer parse gives at the first ``gp`` record on a slot and
    tuple, ``gsuit`` or ``gpz`` record repeated in one growth block, as
    ``parse_outcome`` reports it; None for none.  The reference parse keeps
    the last such record."""
    seen = None
    for lineno, line in enumerate(text.split("\n"), start=1):
        parts = line.split()
        if not parts:
            continue
        rec, key = parts[0], parts[0]
        if rec == "grow":
            seen = set()
            continue
        if seen is None or rec not in ("gp", "gsuit", "gpz"):
            continue
        if rec == "gp":
            try:
                n, g, tup, _ = _tuple_record(parts, lineno)
            except ParseError:
                continue
            key = (n, g, tup)
        if key in seen:
            what = f"pin record {key}" if rec == "gp" else f"{rec} record"
            return ("error", f"line {lineno}: duplicate {what}", lineno)
        seen.add(key)
    return None


def integer_parse_outcome(text):
    """``parse_outcome`` of the integer parse, from the reference's: the
    same, but for a repeated record (``first_duplicate``) before the
    reference's first error, which is refused at its line."""
    want = parse_outcome(reference_parse_oracle, text)
    dup = first_duplicate(text)
    if want is not None and dup is not None and (want[0] == "ok" or dup[2] <= want[2]):
        return dup
    return want


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

# the gd and gb tokens a log may be damaged with; each has a reason
# parse_rat refuses it, or is one int() reads in a non-canonical spelling
BAD_TOKENS = ["1/0", "-1/2", "1/2/3", "x/2", "+3/4", "3_0/4", "2/4", "", "0/0", "1/-2",
              "-0/3", "007/8", "1/", "/2", "12", "1.5/2", "١/2", "6/8", "0/9"]
TOKENS = st.one_of(
    st.sampled_from(BAD_TOKENS),
    st.builds(lambda a, b: f"{a}/{b}", st.integers(-3, 40), st.integers(-3, 40)),
)


def _dist_lines(text):
    """The indices of the gd and gb lines of ``text``."""
    return [i for i, line in enumerate(text.split("\n")) if line.startswith(("gd ", "gb "))]


GB_DAMAGE = ["unknown id", "later id", "zero", "negative", "infeasible", "mix", "drop",
             "dup", "swap"]


def _gb_damage(data, lines):
    """Damage one gb line of ``lines`` in place, if there is one: name an
    unknown point or any point of the log (the block's own or a later one
    among them), give it 0/1, a negative value or one far beyond the other
    base points, turn it into a gd line, or drop, duplicate or swap it."""
    at = [i for i, line in enumerate(lines) if line.startswith("gb ")]
    if not at:
        return
    how = data.draw(st.sampled_from(GB_DAMAGE))
    pairs = [i for i in at if i + 1 in at]
    i = data.draw(st.sampled_from(pairs if how == "infeasible" and pairs else at))
    _, p, *rest = lines[i].split(" ")
    v = rest[-1] if rest else "1/1"  # re-tokened lines may have lost fields
    if how == "unknown id":
        lines[i] = f"gb nope {v}"
    elif how == "later id":
        points = [line.split(" ")[1] for line in lines if line.startswith("grow ")]
        lines[i] = f"gb {data.draw(st.sampled_from(points))} {v}"
    elif how == "zero":
        lines[i] = f"gb {p} 0/1"
    elif how == "negative":
        lines[i] = f"gb {p} -{v}"
    elif how == "infeasible":
        lines[i] = f"gb {p} 9999/1"
    elif how == "mix":
        lines[i] = f"gd {p} {v}"
    elif how == "drop":
        del lines[i]
    elif how == "dup":
        lines.insert(i, lines[i])
    else:
        j = data.draw(st.sampled_from(at))
        lines[i], lines[j] = lines[j], lines[i]


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_gd_tokens_parse_and_replay_as_the_fraction_parse(data):
    kind, text, space = data.draw(st.sampled_from(LOGS))
    lines = text.split("\n")
    at = _dist_lines(text)
    for i in data.draw(st.lists(st.sampled_from(at), min_size=1, max_size=3)):
        head = lines[i].rsplit(" ", 1)[0]
        lines[i] = f"{head} {data.draw(TOKENS)}".rstrip()
    if data.draw(st.booleans()):
        _gb_damage(data, lines)
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
    for i in _dist_lines(text):
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
    """Drop, duplicate, swap or re-token a few lines of ``text``, or
    damage a gb line (``_gb_damage``)."""
    lines = text.split("\n")
    for _ in range(data.draw(st.integers(1, 3))):
        if not lines:
            break
        i = data.draw(st.integers(0, len(lines) - 1))
        how = data.draw(st.sampled_from(["drop", "dup", "swap", "token", "gb"]))
        if how == "gb":
            _gb_damage(data, lines)
        elif how == "drop":
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
    want = integer_parse_outcome(mutated)
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


# -- base steps against the all-gd reference writer ----------------------------------


def _state(o):
    return (o.den, o._rows, int_pins(o), o.registry, o._suit, o._lip, o.points)


def _cli_log(tmp_path, cmd):
    bark = tmp_path / "x.bark"
    bark.write_text(serialize_structure("BARK", random_bark(Random(1), ["x1", "x2"], bound=2)),
                    encoding="utf-8")
    log = tmp_path / f"{cmd}.log"
    extra = ["--wishes", "1", "--depth", "4"] if cmd == "homog" else ["--depth", "4"]
    with redirect_stdout(io.StringIO()):
        assert cli.main([cmd, str(bark), *extra, "--seed", "1", "--out",
                         str(tmp_path / "x.cert"), "--out-log", str(log)]) == 0
    text = log.read_text(encoding="utf-8")
    return text, replay_oracle(parse_structure_file(text).value), {}


@pytest.mark.parametrize("kind", sorted(ORACLES) + ["homog", "embed"])
def test_the_reference_log_replays_to_the_same_oracle(tmp_path, kind):
    if kind in ORACLES:
        o = ORACLES[kind]()
        text, space = serialize_structure("ORACLE", oracle_file(o)), _space(o)
    else:
        text, o, space = _cli_log(tmp_path, kind)
    reference = reference_oracle_text(oracle_file(o))
    assert "\ngb " in text and "\ngb " not in reference
    assert len(text) < len(reference)
    new = replay_oracle(parse_structure_file(text).value, **space)
    old = replay_oracle(parse_structure_file(reference).value, **space)
    assert _state(new) == _state(old) == _state(o)
    # each log writes itself back: the new one byte for byte, and a log
    # written whole keeps every block whole
    assert serialize_structure("ORACLE", oracle_file(new)) == text
    assert serialize_structure("ORACLE", oracle_file(old)) == reference
    assert reference_oracle_text(oracle_file(new)) == reference


def test_grow_on_an_all_gd_log_writes_it_back_byte_for_byte(tmp_path, capsys):
    o = ORACLES["rel"]()
    log, log2 = tmp_path / "o.log", tmp_path / "o2.log"
    log.write_text(reference_oracle_text(oracle_file(o)), encoding="utf-8")
    assert cli.main(["validate", str(log)]) == 0
    assert cli.main(["grow", "--oracle", str(log), "--dist", "u1=1/1", "--out-log", str(log2)]) == 0
    new = f"u{len(o) + 1}"
    assert capsys.readouterr().out == f"valid\n{new}\n"
    old = log.read_bytes()
    assert log2.read_bytes() == old + f"grow {new}\ngb u1 1/1\n".encode()


def test_an_infeasible_base_is_refused_on_replay_as_grow_refuses_it():
    kind, text, space = next(log for log in LOGS if log[0] == "rel")
    blocks = text.split("grow ")
    step = next(i for i, b in enumerate(blocks) if b.count("\ngb ") >= 2)
    lines = blocks[step].split("\n")
    p = lines[1].split(" ")[1]
    lines[1] = f"gb {p} 9999/1"
    damaged = "grow ".join(blocks[:step] + ["\n".join(lines)] + blocks[step + 1:])
    of = parse_structure_file(damaged).value
    rec = of.records[step - 1]
    with pytest.raises(OracleGrowthError) as replayed:
        replay_oracle(of)
    o = replay_oracle(OracleFile(of.modes, of.lip, of.records[: step - 1]))
    with pytest.raises(OracleGrowthError) as grown:
        o.grow(dict(rec.dists))
    assert "metric infeasible at the base pair" in str(grown.value)
    assert str(replayed.value) == f"step {step}: {grown.value}"


@pytest.mark.parametrize("body, error", [
    ("gb u1 1/1\ngd u2 1/1", "line 7: a growth block holds gd or gb records, not both"),
    ("gd u1 1/1\ngb u2 1/1", "line 7: a growth block holds gd or gb records, not both"),
    ("gb u1", "line 6: gb record wants a point id and a rational"),
    ("gb u1 -1/2", "line 6: negative rational '-1/2'"),
])
def test_a_malformed_gb_block_is_a_parse_error(body, error):
    text = f"ORACLE\ngrow u1\ngrow u2\ngd u1 1/1\ngrow u3\n{body}\n"
    with pytest.raises(ParseError) as exc:
        parse_structure_file(text)
    assert str(exc.value) == error
    assert parse_outcome(reference_parse_oracle, text) == parse_outcome(new_parse, text)


# the header under L = 1/4 and a late L 1/1, under which step 2's label
# (d_Z = 1/2 at distance 1) would keep the bound
LATE_L = "ORACLE\nmode lip\nL 1/4\ngrow u1\ngpz 1\nL 1/1\ngrow u2\ngb u1 1/1\ngpz 2\n"


@pytest.mark.parametrize("text, error", [
    (LATE_L, "line 6: L records must precede growth blocks"),
    ("ORACLE\nmode lip\nL 1/4\nL 1/1\ngrow u1\ngpz 1\n", "line 4: duplicate L record"),
    ("ORACLE\nmode lip\nL 1/4\nmode lip\ngrow u1\ngpz 1\n",
     "line 4: duplicate mode record 'lip'"),
    ("ORACLE\nmode rel\nmode rel\n", "line 3: duplicate mode record 'rel'"),
])
def test_a_duplicate_or_late_header_record_is_a_parse_error(text, error):
    with pytest.raises(ParseError) as exc:
        parse_structure_file(text)
    assert str(exc.value) == error
    assert parse_outcome(reference_parse_oracle, text) == parse_outcome(new_parse, text)


@pytest.mark.parametrize("block, error", [
    ("gp 1 1 u1 1/2\ngp 1 1 u1 1/4", "line 5: duplicate pin record (1, 1, ('u1',))"),
    ("gsuit 1=1/1\ngsuit 1=1/2", "line 5: duplicate gsuit record"),
    ("gpz 1\ngpz 2", "line 5: duplicate gpz record"),
])
def test_a_record_repeated_in_a_block_is_a_parse_error(block, error):
    # the reference parse kept the last of them, and so wrote the log back
    # without the earlier line
    text = f"ORACLE\nmode rel\ngrow u1\n{block}\n"
    with pytest.raises(ParseError) as exc:
        parse_structure_file(text)
    assert str(exc.value) == error
    assert parse_outcome(reference_parse_oracle, text)[0] == "ok"
    assert integer_parse_outcome(text) == parse_outcome(new_parse, text)
    # a pin on another tuple or slot, or the same one in the next block, is
    # no repeat
    assert parse_structure_file("ORACLE\ngrow u1\ngp 1 1 u1 1/2\ngp 1 2 u1 1/2\n"
                                "grow u2\ngp 1 1 u1 1/2\n")


def test_a_combined_header_names_each_mode_once():
    text = "ORACLE\nmode prod\nmode lip\nL 1/2\n"
    of = parse_structure_file(text).value
    assert (of.modes, of.lip) == (("prod", "lip"), F(1, 2))
    assert serialize_structure("ORACLE", of) == text


def test_grow_and_validate_refuse_a_late_l_and_keep_the_log(tmp_path, capsys):
    z = tmp_path / "z.polish"
    z.write_text("POLISH\npoint z1\npoint z2\nd z1 z2 1/2\n", encoding="utf-8")
    log = tmp_path / "late.log"
    log.write_text(LATE_L, encoding="utf-8")
    err = "parse error: line 6: L records must precede growth blocks\n"
    assert cli.main(["validate", str(log), "--zspace", str(z)]) == 1
    assert capsys.readouterr() == ("", err)
    argv = ["grow", "--oracle", str(log), "--zspace", str(z), "--dist", "u2=1/1", "--pz", "2",
            "--out-log", str(log)]
    assert cli.main(argv) == 1
    assert capsys.readouterr() == ("", err)
    assert log.read_text(encoding="utf-8") == LATE_L


@pytest.mark.parametrize("body, error", [
    ("gb u9 1/1", "step 3: base point 'u9' not in the oracle"),
    ("gb u3 1/1", "step 3: base point 'u3' not in the oracle"),
    ("gb u1 0/1", "step 3: distance to 'u1' must be positive"),
    ("gb u1 1/4\ngb u2 1/4", "step 3: metric infeasible at the base pair ('u1', 'u2')"),
    ("gb u2 1/4\ngb u1 3/1", "step 3: metric infeasible at the base pair ('u1', 'u2')"),
])
def test_replay_refuses_a_base_grow_refuses(tmp_path, capsys, body, error):
    path = tmp_path / "o.log"
    path.write_text(f"ORACLE\ngrow u1\ngrow u2\ngd u1 1/1\ngrow u3\n{body}\n", encoding="utf-8")
    assert cli.main(["validate", str(path)]) == 1
    assert capsys.readouterr() == ("", f"error: {error}\n")


def test_a_base_record_rebuilds_its_row_by_the_path_rule():
    o = LimitOracle()
    o.replay_record(GrowthRecord("u1", {}, {}, (), None, None))
    o.replay_record(GrowthRecord("u2", {"u1": F(1)}, {}, (), None, None, ("u1",)))
    rec = o.replay_record(GrowthRecord("u3", {"u2": F(1, 3)}, {}, (), None, None, ("u2",)))
    assert isinstance(rec.dists, RowDists) and rec.base == ("u2",)
    assert dict(rec.dists) == {"u1": F(4, 3), "u2": F(1, 3)}
    grown = LimitOracle()
    grown.grow({})
    grown.grow({"u1": F(1)})
    grown.grow({"u2": F(1, 3)})
    assert _state(o) == _state(grown)
    for base, dists in ((("u1",), {}), ((), {}), (("u1", "u1"), {"u1": F(1)}),
                        (("u1",), ScaledDists({"u1": 1, "u2": 1}, 1))):
        with pytest.raises(OracleGrowthError, match="wants one distance per base point"):
            o.replay_record(GrowthRecord("u4", dists, {}, (), None, None, base))
    assert len(o) == 3
