"""Line-oriented structure files and the replayable oracle growth log.

Canonical form: the kind header first, then records sorted within each
record type, rationals always written as num/den in lowest terms.  Point
ids are sorted on parse, so the canonical point order is the sorted one.
Parsing a canonical file and serializing reproduces it byte for byte;
serializing any parse canonicalizes.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterator

from .engine import GrowthRecord, LimitOracle, RowDists, ScaledDists
from .lipschitz import StructureL
from .metric import FinMetric, fin_metric
from .product import StructureC
from .rationals import RatParseError, fmt_rat, parse_rat
from .relational import IndexedStructure, pattern_indices
from .spaces import CompactPresentation, PolishPresentation, SuitableFn, suitable

KINDS = ("K", "BARK", "C", "L", "COMPACT", "POLISH", "ORACLE")


class ParseError(Exception):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message


@dataclass
class OracleFile:
    modes: tuple[str, ...]
    lip: Fraction | None
    records: list[GrowthRecord]


@dataclass
class ParsedFile:
    kind: str
    value: object


def _rat(token: str, lineno: int) -> Fraction:
    try:
        return parse_rat(token)
    except RatParseError as exc:
        raise ParseError(lineno, str(exc)) from None


def _int(token: str, lineno: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(lineno, f"expected an integer, got {token!r}") from None


def _fields(parts: list[str], count: int, lineno: int, what: str):
    if len(parts) != count:
        raise ParseError(lineno, f"{parts[0]} record wants {what}")


def _tuple_record(parts: list[str], lineno: int) -> tuple[int, int, tuple[str, ...], Fraction]:
    """``rec n m id_1 .. id_n value``, shared by predicate and pin records."""
    if len(parts) < 5:
        raise ParseError(lineno, f"{parts[0]} record wants n m ids value")
    n, m = _int(parts[1], lineno), _int(parts[2], lineno)
    tup = tuple(parts[3:-1])
    if len(tup) != n:
        raise ParseError(lineno, f"{parts[0]} tuple has {len(tup)} ids, wants {n}")
    return n, m, tup, _rat(parts[-1], lineno)


@dataclass
class _Collector:
    points: list[str] = field(default_factory=list)
    dists: dict[tuple[str, str], Fraction] = field(default_factory=dict)
    bound: int | None = None
    lip: Fraction | None = None
    preds: dict[tuple[int, int, tuple[str, ...]], Fraction] = field(default_factory=dict)
    suits: dict[str, SuitableFn] = field(default_factory=dict)
    labels: dict[str, int] = field(default_factory=dict)

    def metric(self, lineno: int) -> FinMetric:
        for (x, y) in self.dists:
            if x not in self.points or y not in self.points:
                raise ParseError(lineno, f"distance references unknown point ({x}, {y})")
        return fin_metric(sorted(self.points), self.dists)


def parse_profile_entries(token: str, lineno: int = 0) -> SuitableFn:
    if token == "-":
        return SuitableFn(())
    pins = {}
    for part in token.split(","):
        if "=" not in part:
            raise ParseError(lineno, f"malformed profile entry {part!r}")
        idx_s, val_s = part.split("=", 1)
        try:
            idx = int(idx_s)
        except ValueError:
            raise ParseError(lineno, f"bad index {idx_s!r}") from None
        if idx in pins:
            raise ParseError(lineno, f"duplicate profile index {idx}")
        pins[idx] = _rat(val_s, lineno)
    return suitable(pins)


def _fmt_suit(f: SuitableFn) -> str:
    if not f.pins:
        return "-"
    return ",".join(f"{i}={fmt_rat(v)}" for i, v in f.pins)


def parse_structure_file(text: str) -> ParsedFile:
    """Parse one file, one line at a time: no list of its records is built
    besides the one ``text.split`` makes.  Blank lines and lines whose first
    field starts with ``#`` are skipped."""
    lines = enumerate(text.split("\n"), start=1)
    for head_no, raw in lines:
        head = raw.strip()
        if head and not head.startswith("#"):
            break
    else:
        raise ParseError(1, "empty file")
    if head not in KINDS:
        raise ParseError(head_no, f"unknown header {head!r}")
    if head == "ORACLE":
        return ParsedFile("ORACLE", _parse_oracle(lines))
    col = _Collector()
    last = head_no
    for lineno, raw in lines:
        parts = raw.split()
        if not parts or parts[0].startswith("#"):
            continue
        last = lineno
        rec = parts[0]
        if rec == "point":
            if len(parts) != 2:
                raise ParseError(lineno, "point record wants one id")
            if parts[1] in col.points:
                raise ParseError(lineno, f"duplicate point {parts[1]!r}")
            col.points.append(parts[1])
        elif rec == "d":
            if len(parts) != 4:
                raise ParseError(lineno, "distance record wants two ids and a rational")
            x, y = parts[1], parts[2]
            if (x, y) in col.dists or (y, x) in col.dists:
                raise ParseError(lineno, f"duplicate distance record for ({x}, {y})")
            col.dists[(x, y)] = _rat(parts[3], lineno)
        elif rec == "nA":
            _fields(parts, 2, lineno, "one integer")
            if col.bound is not None:
                raise ParseError(lineno, "duplicate nA record")
            col.bound = _int(parts[1], lineno)
        elif rec == "L":
            _fields(parts, 2, lineno, "one rational")
            if col.lip is not None:
                raise ParseError(lineno, "duplicate L record")
            col.lip = _rat(parts[1], lineno)
        elif rec == "p":
            n, m, tup, v = _tuple_record(parts, lineno)
            key = (n, m, tup)
            if key in col.preds:
                raise ParseError(lineno, f"duplicate predicate record {key}")
            col.preds[key] = v
        elif rec == "suit":
            if len(parts) != 3:
                raise ParseError(lineno, "profile record wants an id and entries")
            if parts[1] in col.suits:
                raise ParseError(lineno, f"duplicate profile for {parts[1]!r}")
            col.suits[parts[1]] = parse_profile_entries(parts[2], lineno)
        elif rec == "pz":
            if len(parts) != 3:
                raise ParseError(lineno, "label record wants an id and an index")
            if parts[1] in col.labels:
                raise ParseError(lineno, f"duplicate label for {parts[1]!r}")
            col.labels[parts[1]] = _int(parts[2], lineno)
        else:
            raise ParseError(lineno, f"unknown record {rec!r}")
    return ParsedFile(head, _assemble(head, col, last))


def _assemble(kind: str, col: _Collector, lineno: int):
    metric = col.metric(lineno)
    if kind in ("COMPACT", "POLISH"):
        if col.preds or col.suits or col.labels or col.bound is not None:
            raise ParseError(lineno, f"{kind} files carry only points and distances")
        return (
            CompactPresentation(metric)
            if kind == "COMPACT"
            else PolishPresentation(metric)
        )
    if kind in ("K", "BARK"):
        # a K file indexes its tables by initial segments of the bound (the
        # point count by default), a BARK file by the indices its records
        # use; a bound above the point count is left to validate_k to report
        if kind == "K":
            bound = len(metric) if col.bound is None else col.bound
            indices = pattern_indices(min(bound, len(metric)))
        else:
            used: dict[int, set[int]] = {}
            for n, m, _ in col.preds:
                used.setdefault(n, set()).add(m)
            indices = {n: tuple(sorted(ms)) for n, ms in used.items()}
            bound = col.bound if col.bound is not None else (
                max((n + len(ms) - 1 for n, ms in indices.items()), default=0)
            )
        return IndexedStructure(metric, bound, indices, col.preds)
    if kind == "C":
        for p in metric.points:
            col.suits.setdefault(p, SuitableFn(()))
        return StructureC(metric, col.suits)
    if kind == "L":
        if col.lip is None:
            raise ParseError(lineno, "L files need an L record")
        return StructureL(metric, col.labels, col.lip)
    raise AssertionError(kind)


def serialize_structure(kind: str, value) -> str:
    if kind == "ORACLE":
        return "".join(oracle_chunks(value))
    lines = [kind]
    metric: FinMetric = value.metric
    for p in sorted(metric.points):
        lines.append(f"point {p}")
    if kind in ("K", "BARK"):
        lines.append(f"nA {value.bound}")
    if kind == "L":
        lines.append(f"L {fmt_rat(value.lip)}")
    seen = set()
    for x in sorted(metric.points):
        for y in sorted(metric.points):
            if x < y and (x, y) not in seen:
                seen.add((x, y))
                lines.append(f"d {x} {y} {fmt_rat(metric.d(x, y))}")
    if kind in ("K", "BARK"):
        for (n, m, tup), v in sorted(value.pred.items()):
            lines.append(f"p {n} {m} {' '.join(tup)} {fmt_rat(v)}")
    if kind == "C":
        for p in sorted(metric.points):
            lines.append(f"suit {p} {_fmt_suit(value.fns[p])}")
    if kind == "L":
        for p in sorted(metric.points):
            lines.append(f"pz {p} {value.labels[p]}")
    return "\n".join(lines) + "\n"


# -- oracle logs --------------------------------------------------------------


def _block_dists(ids: list[str], nums: list[int], dens: list[int]) -> ScaledDists:
    """A block's ``gd`` or ``gb`` fields, as read, over the least common
    denominator of their values: over the lcm of the denominators read, then
    divided by what that lcm shares with every scaled value, so ``2/4``
    counts as ``1/2``.  Where an id repeats, its last field stands."""
    den = lcm(*dens)
    ints = dict(zip(ids, map(mul, nums, map(den.__floordiv__, dens))))
    g = gcd(den, *ints.values())
    if g > 1:
        den //= g
        ints = {p: v // g for p, v in ints.items()}
    return ScaledDists(ints, den)


def _parse_oracle(lines: Iterator[tuple[int, str]]) -> OracleFile:
    """The ORACLE body from ``lines``, (line number, raw line) pairs.

    A block gives the new point's distances either to every earlier point,
    in ``gd`` lines, or to its base alone, in ``gb`` lines, never both."""
    modes: list[str] = []
    lip: Fraction | None = None
    records: list[GrowthRecord] = []
    cur: dict | None = None
    # the open block's gd or gb fields in file order: ids, numerators,
    # denominators; form is the record name they came in, or None
    ids: list[str] = []
    nums: list[int] = []
    dens: list[int] = []
    form: str | None = None

    def flush():
        nonlocal cur, form
        if cur is not None:
            dists, base = _block_dists(ids, nums, dens), None
            if form == "gb":
                # in base order, the order replay checks the base in
                base = tuple(sorted(dists.ints))
                dists.ints = {p: dists.ints[p] for p in base}
            records.append(
                GrowthRecord(
                    cur["point"],
                    dists,
                    cur["pins"],
                    tuple(cur["fresh"]),
                    cur["gsuit"],
                    cur["gpz"],
                    base,
                )
            )
            ids.clear()
            nums.clear()
            dens.clear()
        cur = form = None

    for lineno, raw in lines:
        parts = raw.split()
        if not parts:
            continue
        rec = parts[0]
        if rec in ("gd", "gb") and cur is not None:
            if form != rec:
                if form is not None:
                    raise ParseError(lineno, "a growth block holds gd or gb records, not both")
                form = rec
            # parse_rat's rules on the integers alone; a token they refuse
            # goes to parse_rat for its error
            if len(parts) != 3:
                raise ParseError(lineno, f"{rec} record wants a point id and a rational")
            num_s, _, den_s = parts[2].partition("/")
            try:
                num, den = int(num_s), int(den_s)
            except ValueError:
                num = den = -1
            if num < 0 or den <= 0:
                _rat(parts[2], lineno)
            ids.append(parts[1])
            nums.append(num)
            dens.append(den)
        elif rec.startswith("#"):
            continue
        elif rec == "mode":
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
            if len(parts) != 2:
                raise ParseError(lineno, "grow record wants the new point id")
            cur = {
                "point": parts[1],
                "pins": {},
                "fresh": [],
                "gsuit": None,
                "gpz": None,
            }
        elif cur is None:
            raise ParseError(lineno, f"record {rec!r} outside a growth block")
        elif rec in ("gsuit", "gpz") and cur[rec] is not None:
            raise ParseError(lineno, f"duplicate {rec} record")
        elif rec == "gp":
            n, g, tup, v = _tuple_record(parts, lineno)
            if tup in (pins := cur["pins"].setdefault((n, g), {})):
                raise ParseError(lineno, f"duplicate pin record {(n, g, tup)}")
            pins[tup] = v
        elif rec == "greg":
            _fields(parts, 3, lineno, "an arity and a slot index")
            cur["fresh"].append((_int(parts[1], lineno), _int(parts[2], lineno)))
        elif rec == "gsuit":
            _fields(parts, 2, lineno, "profile entries")
            cur["gsuit"] = parse_profile_entries(parts[1], lineno)
        elif rec == "gpz":
            _fields(parts, 2, lineno, "one integer")
            cur["gpz"] = _int(parts[1], lineno)
        else:
            raise ParseError(lineno, f"unknown record {rec!r}")
    flush()
    return OracleFile(tuple(modes) if modes else ("rel",), lip, records)


def oracle_chunks(of: OracleFile) -> Iterator[str]:
    """The ORACLE log of ``of``: its header, then one growth block at a
    time, each chunk a run of whole newline-terminated lines.  Writing the
    chunks as they come keeps one block in memory, not the whole log."""
    head = ["ORACLE"]
    for mode in of.modes:
        head.append(f"mode {mode}")
    if of.lip is not None:
        head.append(f"L {fmt_rat(of.lip)}")
    yield "\n".join(head) + "\n"
    for rec in of.records:
        lines = [f"grow {rec.point}"]
        dists = rec.dists
        if not isinstance(dists, RowDists):
            dists = ScaledDists.of(dists)
        tag = "gd" if rec.base is None else "gb"
        lines += [f"{tag} {p} {text}" for p, text in dists.texts(rec.base)]
        for (n, g) in sorted(rec.pins):
            for tup in sorted(rec.pins[(n, g)]):
                lines.append(
                    f"gp {n} {g} {' '.join(tup)} {fmt_rat(rec.pins[(n, g)][tup])}"
                )
        for n, g in sorted(rec.fresh):
            lines.append(f"greg {n} {g}")
        if rec.suitable is not None:
            lines.append(f"gsuit {_fmt_suit(rec.suitable)}")
        if rec.lip_index is not None:
            lines.append(f"gpz {rec.lip_index}")
        yield "\n".join(lines) + "\n"


def oracle_file(o: LimitOracle) -> OracleFile:
    return OracleFile(o.modes, o.lip_const, list(o.log))


def replay_oracle(
    of: OracleFile,
    compact: CompactPresentation | None = None,
    polish: PolishPresentation | None = None,
) -> LimitOracle:
    """Reconstruct the exact oracle state from its log, step by step.

    Each record of ``of`` is swapped for the one the oracle logs, whose
    distances are a view on the oracle's rows: the parsed integers are
    freed as replay goes, so the oracle and ``of`` hold each distance once
    between them, and ``of`` still serializes to the same log.
    """
    o = LimitOracle(of.modes, compact=compact, polish=polish, lip_const=of.lip)
    records = of.records
    for i, rec in enumerate(records):
        records[i] = o.replay_record(rec)
    return o
