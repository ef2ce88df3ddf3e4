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

from .cauchy import IndexedStructure
from .engine import GrowthRecord, LimitOracle
from .lipschitz import StructureL
from .metric import FinMetric, fin_metric
from .product import StructureC
from .rationals import RatParseError, fmt_rat, parse_rat
from .relational import StructureK
from .spaces import CompactPresentation, PolishPresentation, SuitableFn, suitable

KINDS = ("K", "BARK", "C", "L", "COMPACT", "POLISH", "ORACLE")


class ParseError(Exception):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass
class OracleFile:
    modes: tuple[str, ...]
    lip: Fraction | None
    records: list[GrowthRecord]


@dataclass
class ParsedFile:
    kind: str
    value: object


def _meaningful(text: str):
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, line


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
    n_a: int | None = None
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
    lines = list(_meaningful(text))
    if not lines:
        raise ParseError(1, "empty file")
    head_no, head = lines[0]
    if head not in KINDS:
        raise ParseError(head_no, f"unknown header {head!r}")
    if head == "ORACLE":
        return ParsedFile("ORACLE", _parse_oracle(lines[1:]))
    col = _Collector()
    last = head_no
    for lineno, line in lines[1:]:
        last = lineno
        parts = line.split()
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
            if col.n_a is not None:
                raise ParseError(lineno, "duplicate nA record")
            col.n_a = _int(parts[1], lineno)
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
        if col.preds or col.suits or col.labels or col.n_a is not None:
            raise ParseError(lineno, f"{kind} files carry only points and distances")
        return (
            CompactPresentation(metric)
            if kind == "COMPACT"
            else PolishPresentation(metric)
        )
    if kind == "K":
        n_a = col.n_a if col.n_a is not None else len(metric)
        return StructureK(metric, n_a, col.preds)
    if kind == "BARK":
        indices: dict[int, list[int]] = {}
        for n, m, _ in col.preds:
            if m not in indices.setdefault(n, []):
                indices[n].append(m)
        bound = col.n_a if col.n_a is not None else (
            max((n + len(ms) - 1 for n, ms in indices.items()), default=0)
        )
        return IndexedStructure(
            metric, bound, {n: tuple(sorted(ms)) for n, ms in indices.items()}, col.preds
        )
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
    lines = [kind]
    if kind == "ORACLE":
        return _serialize_oracle(value)
    metric: FinMetric = value.metric
    for p in sorted(metric.points):
        lines.append(f"point {p}")
    if kind == "K" or kind == "BARK":
        bound = value.n_a if kind == "K" else value.bound
        lines.append(f"nA {bound}")
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


def _parse_oracle(lines) -> OracleFile:
    modes: list[str] = []
    lip: Fraction | None = None
    records: list[GrowthRecord] = []
    cur: dict | None = None

    def flush(lineno):
        nonlocal cur
        if cur is not None:
            records.append(
                GrowthRecord(
                    cur["point"],
                    cur["dists"],
                    cur["pins"],
                    tuple(cur["fresh"]),
                    cur["suit"],
                    cur["pz"],
                )
            )
        cur = None

    for lineno, line in lines:
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
            flush(lineno)
            if len(parts) != 2:
                raise ParseError(lineno, "grow record wants the new point id")
            cur = {
                "point": parts[1],
                "dists": {},
                "pins": {},
                "fresh": [],
                "suit": None,
                "pz": None,
            }
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
    flush(0)
    return OracleFile(tuple(modes) if modes else ("rel",), lip, records)


def _serialize_oracle(of: OracleFile) -> str:
    lines = ["ORACLE"]
    for mode in of.modes:
        lines.append(f"mode {mode}")
    if of.lip is not None:
        lines.append(f"L {fmt_rat(of.lip)}")
    for rec in of.records:
        lines.append(f"grow {rec.point}")
        for p in sorted(rec.dists):
            lines.append(f"gd {p} {fmt_rat(rec.dists[p])}")
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
    return "\n".join(lines) + "\n"


def oracle_file(o: LimitOracle) -> OracleFile:
    return OracleFile(o.modes, o.lip_const, list(o.log))


def replay_oracle(
    of: OracleFile,
    compact: CompactPresentation | None = None,
    polish: PolishPresentation | None = None,
) -> LimitOracle:
    """Reconstruct the exact oracle state from its log, step by step."""
    o = LimitOracle(of.modes, compact=compact, polish=polish, lip_const=of.lip)
    for rec in of.records:
        o.replay_record(rec)
    return o
