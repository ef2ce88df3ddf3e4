"""Command-line front end.

Exit codes: 0 success, 1 validation or verification failure (report
printed), 2 usage error.  All randomized drivers take --seed and reproduce
their output byte for byte for a fixed seed.
"""
from __future__ import annotations

import argparse
import functools
import re
import sys
from pathlib import Path
from random import Random
from typing import Iterable

from .cauchy import (
    PartialIso,
    SandwichInfeasible,
    SolverError,
    embed_structure,
    extend_one_point,
    extend_partial_iso,
    homog_depth_plan,
)
from .certificates import Check, emit_certificate, verify_certificate
from .engine import LimitOracle, OracleGrowthError, RelExtension, amalgamate_k, joint_embed_k
from .files import (
    ParseError,
    oracle_chunks,
    oracle_file,
    parse_profile_entries,
    parse_structure_file,
    replay_oracle,
    serialize_structure,
)
from .lipschitz import StructureL, amalgamate_l, joint_embed_l, validate_l
from .metric import MetricTableError, WitnessError
from .product import StructureC, amalgamate_c, joint_embed_c, validate_c
from .randgen import random_wish_extension
from .rationals import RatParseError, fmt_rat, parse_rat, pow2
from .relational import EmbeddingWitness, identity_witness, validate_k
from .spaces import eval_suitable, validate_compact, validate_polish, validate_suitable


class UsageError(Exception):
    pass


def _read(path: str | None, text: bool = True) -> str | bytes:
    if not path:
        raise UsageError("a required file argument is missing")
    try:
        return Path(path).read_text(encoding="utf-8") if text else Path(path).read_bytes()
    except FileNotFoundError:
        raise UsageError(f"no such file: {path}") from None
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror}") from None


def _load(path: str | None):
    return parse_structure_file(_read(path))


def _load_kind(path: str, *kinds: str):
    parsed = _load(path)
    if parsed.kind not in kinds:
        raise UsageError(f"{path}: expected a {'/'.join(kinds)} file, got {parsed.kind}")
    return parsed.value


def _option(opt: str, parse, text: str):
    """``parse(text)`` for a value of ``opt``; a malformed one is a usage error."""
    try:
        return parse(text)
    except RatParseError as exc:
        raise UsageError(f"{opt}: {exc}") from None
    except ParseError as exc:
        raise UsageError(f"{opt}: {exc.message}") from None


def _point_map(pairs: list[str]) -> dict[str, str]:
    out = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise UsageError(f"malformed map entry {pair!r}, want src=dst")
        src, dst = pair.split("=", 1)
        out[src] = dst
    return out


def _write(path: str | None, data: bytes | str | Iterable[str]):
    """Write ``data`` to ``path``, or to stdout for None or ``-``: a str or
    bytes value whole, an iterable of str chunks one chunk at a time."""
    if isinstance(data, (str, bytes)):
        data = (data,)
    chunks = (c.encode("utf-8") if isinstance(c, str) else c for c in data)
    try:
        if path is None or path == "-":
            sys.stdout.flush()  # earlier print() output goes first
            sys.stdout.buffer.writelines(chunks)
            return
        with open(path, "wb") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        raise UsageError(f"cannot write {path or '-'}: {exc.strerror}") from None


def _check_out(*paths: str | None):
    """Refuse, before any work, an output path that is a directory or whose
    directory does not exist; _write still reports every other OSError."""
    for path in paths:
        if path is None or path == "-":
            continue
        if Path(path).is_dir():
            raise UsageError(f"cannot write {path}: Is a directory")
        if not Path(path).parent.is_dir():
            raise UsageError(f"cannot write {path}: No such file or directory")


def _in_space(s: StructureC | StructureL, space):
    """Refuse a profile that is invalid on its own or a label outside
    ``space``, in the validators' words, before anything reads there."""
    if isinstance(s, StructureC):
        for f in s.fns.values():
            report = validate_suitable(f, space)
            if report:
                raise ValueError(report[0])
        return
    try:
        for i in s.labels.values():
            space.check_index(i)
    except IndexError as exc:
        raise ValueError(str(exc)) from None


def cmd_validate(args) -> int:
    parsed = _load(args.file)
    # --space is read by C and L files and by a prod oracle, or by a lip one
    # as its polish presentation when --zspace is not given; --zspace only by
    # a lip oracle.  A presentation that is not read is refused, not dropped.
    modes = parsed.value.modes if parsed.kind == "ORACLE" else ()
    reads = {
        "--space": parsed.kind in ("C", "L") or "prod" in modes
        or ("lip" in modes and not args.zspace),
        "--zspace": "lip" in modes,
    }
    given = [opt for opt, read in reads.items() if getattr(args, opt[2:]) and not read]
    if given:
        what = f"a {'+'.join(modes)} oracle" if modes else f"a {parsed.kind} file"
        raise UsageError(f"{' and '.join(given)}: not read for {what}")
    report: list[str] = []
    if parsed.kind in ("K", "BARK"):
        report = validate_k(parsed.value)
    elif parsed.kind == "COMPACT":
        report = validate_compact(parsed.value)
    elif parsed.kind == "POLISH":
        report = validate_polish(parsed.value)
    elif parsed.kind == "C":
        if not args.space:
            raise UsageError("validating a C file needs --space COMPACT_FILE")
        report = validate_c(parsed.value, _load_kind(args.space, "COMPACT"))
    elif parsed.kind == "L":
        if not args.space:
            raise UsageError("validating an L file needs --space POLISH_FILE")
        report = validate_l(parsed.value, _load_kind(args.space, "POLISH"))
    elif parsed.kind == "ORACLE":
        compact = polish = None
        if "prod" in parsed.value.modes:
            if not args.space:
                raise UsageError("a prod-mode oracle needs --space COMPACT_FILE")
            compact = _load_kind(args.space, "COMPACT")
        if "lip" in parsed.value.modes:
            zpath = args.zspace or args.space
            if not zpath:
                raise UsageError("a lip-mode oracle needs --zspace POLISH_FILE")
            polish = _load_kind(zpath, "POLISH")
        o = replay_oracle(parsed.value, compact=compact, polish=polish)
        report += o.validate_state()
    for msg in report:
        print(msg)
    if not report:
        print("valid")
    return 1 if report else 0


def cmd_amalgamate(args) -> int:
    parsed_b = _load(args.b)
    kind = parsed_b.kind
    b = parsed_b.value
    c = _load_kind(args.c, kind)
    a = _load_kind(args.over, kind)
    map_b = _point_map(args.map_b) or {p: p for p in a.metric.points}
    map_c = _point_map(args.map_c) or {p: p for p in a.metric.points}
    if kind == "K":
        pi = identity_witness(a).pi
        wab = EmbeddingWitness(map_b, pi)
        wac = EmbeddingWitness(map_c, pi)
        out = amalgamate_k(b, c, a, wab, wac).result
    elif kind in ("C", "L"):
        space = _load_kind(args.space, "COMPACT" if kind == "C" else "POLISH")
        for s in (b, c, a):
            _in_space(s, space)
        out = (amalgamate_c if kind == "C" else amalgamate_l)(b, c, a, map_b, map_c, space)
    else:
        raise UsageError(f"cannot amalgamate {kind} files")
    _write(args.out, serialize_structure(kind, out))
    return 0


def cmd_joint_embed(args) -> int:
    parsed_a = _load(args.a)
    kind = parsed_a.kind
    a = parsed_a.value
    b = _load_kind(args.b, kind)
    if kind == "K":
        out = joint_embed_k(a, b).result
    elif kind in ("C", "L"):
        space = _load_kind(args.space, "COMPACT" if kind == "C" else "POLISH")
        for s in (a, b):
            _in_space(s, space)
        out = (joint_embed_c if kind == "C" else joint_embed_l)(a, b, space)
    else:
        raise UsageError(f"cannot joint-embed {kind} files")
    _write(args.out, serialize_structure(kind, out))
    return 0


def _load_oracle(args, compact=None, polish=None, modes=("rel",), lip=None) -> LimitOracle:
    """Replay ``--oracle`` when that log exists, else start an empty oracle."""
    if args.oracle and Path(args.oracle).exists():
        of = _load_kind(args.oracle, "ORACLE")
        return replay_oracle(of, compact=compact, polish=polish)
    return LimitOracle(modes, compact=compact, polish=polish, lip_const=lip)


def _save_oracle(o: LimitOracle, path: str | None):
    if path:
        _write(path, oracle_chunks(oracle_file(o)))


def cmd_grow(args) -> int:
    # an extension file gives the base and its distances, --dist the plain
    # request; an option the request does not read is refused, not dropped
    unread = ["--dist"] if args.ext else ["--base", "--slot"]
    given = [opt for opt in unread if getattr(args, opt[2:])]
    if given:
        when = "with" if args.ext else "without"
        raise UsageError(f"{' and '.join(given)}: not read {when} an extension file")
    compact = _load_kind(args.space, "COMPACT") if args.space else None
    polish = _load_kind(args.zspace, "POLISH") if args.zspace else None
    lip = _option("--lip", parse_rat, args.lip) if args.lip else None
    o = _load_oracle(args, compact, polish, tuple(args.mode or ("rel",)), lip)
    dists = {}
    for pair in args.dist or []:
        if "=" not in pair:
            raise UsageError(f"malformed distance entry {pair!r}")
        pt, val = pair.split("=", 1)
        dists[pt] = _option("--dist", parse_rat, val)
    rel = None
    if args.ext:
        ext = _load_kind(args.ext, "K")
        base_map = _point_map(args.base)
        slots: dict[tuple[int, int], int | None] = {
            (n, m): None for n, m in ext.slots()
        }
        for entry in args.slot or []:
            nums = re.fullmatch(r"([0-9]+):([0-9]+)=([0-9]+)", entry)
            if nums is None:
                raise UsageError(f"malformed slot entry {entry!r}, want n:m=g")
            n, m, g = map(int, nums.groups())
            slots[(n, m)] = g
        new_pts = [p for p in ext.points if p not in base_map]
        if len(new_pts) != 1:
            raise UsageError("the extension must leave exactly one point unmapped")
        dists = {base_map[p]: ext.metric.d(new_pts[0], p) for p in base_map}
        rel = RelExtension(ext, base_map, slots)
    suit = _option("--suit", parse_profile_entries, args.suit) if args.suit else None
    lip_index = args.pz
    result = o.grow(dists, rel=rel, suitable=suit, lip_index=lip_index)
    print(result.point)
    for slot, g in sorted(result.slot_globals.items()):
        print(f"slot {slot[0]}:{slot[1]} -> {g}")
    _save_oracle(o, args.out_log)
    return 0


def cmd_embed(args) -> int:
    _check_out(args.out, args.out_log)
    x = _load_kind(args.file, "BARK", "K")
    o = _load_oracle(args)
    out = embed_structure(o, x, args.depth)
    checks = list(out.checks)
    for i, p in enumerate(out.points):
        for j, cert in enumerate(p.certs, start=1):
            checks.append(Check(f"gap-{i}-{j}", cert, "=", pow2(-(j + 1))))
    pts = x.metric.points
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            gap = abs(
                o.distance(out.points[i].at(args.depth), out.points[j].at(args.depth))
                - x.metric.d(pts[i], pts[j])
            )
            checks.append(Check(f"embed-dist-{pts[i]}-{pts[j]}", gap, "<=", 2 * pow2(-args.depth)))
    for sv in out.values:
        checks.append(
            Check(
                f"dev-{sv.level}-{sv.slot[0]}.{sv.slot[1]}",
                sv.deviation,
                "<=",
                (2 * sv.slot[0] + 1) * pow2(-sv.level),
            )
        )
    _write(args.out, emit_certificate(checks))
    _save_oracle(o, args.out_log)
    return 0


def cmd_homog(args) -> int:
    """Self-contained back-and-forth demo: embed two copies, absorb random wishes."""
    _check_out(args.out, args.out_log)
    x = _load_kind(args.file, "BARK")
    rng = Random(args.seed)
    o = _load_oracle(args)
    depth = args.depth
    wish_count = args.wishes
    plan = homog_depth_plan(len(x), wish_count, depth)
    left = embed_structure(o, x, plan.copy_depth)
    right = embed_structure(o, x, plan.copy_depth)
    slots = {
        (n, left.slot_globals[(n, m)]): right.slot_globals[(n, m)]
        for (n, m) in left.slot_globals
    }
    wish_dom, wish_rng = [], []
    for side, bucket in ((left, wish_dom), (right, wish_rng)):
        for _ in range(wish_count):
            target = random_wish_extension(
                rng, o, side.points, x, side.slot_globals, plan.wish_depth, len(x) + 1
            )
            outcome = extend_one_point(
                o, list(side.points), target, side.slot_globals, plan.wish_depth
            )
            bucket.append(outcome.point)
    iso = PartialIso(left.points, right.points, slots)
    result = extend_partial_iso(o, iso, wish_dom, wish_rng, depth)
    _write(args.out, emit_certificate(result.checks))
    _save_oracle(o, args.out_log)
    return 0 if not result.failures else 1


def cmd_certify(args) -> int:
    data = _read(args.verify, text=False)
    ok, problems = verify_certificate(data)
    for msg in problems:
        print(msg)
    print("certificate OK" if ok else "certificate REJECTED")
    return 0 if ok else 1


def cmd_eval(args) -> int:
    parsed = _load(args.file)
    if parsed.kind == "C":
        k = _load_kind(args.space, "COMPACT")
        s: StructureC = parsed.value
        if args.point is None or args.index is None:
            raise UsageError("eval on a C file wants --point and --index")
        if args.point not in s.fns:
            raise UsageError(f"{args.file} has no point {args.point!r}")
        try:
            k.check_index(args.index)
        except IndexError as exc:
            raise UsageError(str(exc)) from None
        _in_space(s, k)
        print(fmt_rat(eval_suitable(s.fns[args.point], args.index, k)))
        return 0
    if parsed.kind == "L":
        s: StructureL = parsed.value
        if args.point is None:
            raise UsageError("eval on an L file wants --point")
        if args.point not in s.labels:
            raise UsageError(f"{args.file} has no point {args.point!r}")
        if args.space:
            _in_space(s, _load_kind(args.space, "POLISH"))
        print(s.labels[args.point])
        return 0
    raise UsageError(f"cannot eval a {parsed.kind} file")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="urysohn",
        description="exact construction engine for enriched rational metric structures",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a structure file")
    p.add_argument("file")
    p.add_argument("--space", help="compact/polish presentation file where needed")
    p.add_argument("--zspace", help="polish presentation for combined-mode oracles")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("amalgamate", help="amalgamate two structures over a common one")
    p.add_argument("b")
    p.add_argument("c")
    p.add_argument("--over", required=True)
    p.add_argument("--map-b", action="append", help="common-part point map src=dst")
    p.add_argument("--map-c", action="append")
    p.add_argument("--space")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_amalgamate)

    p = sub.add_parser("joint-embed", help="joint embedding of two structures")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--space")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_joint_embed)

    p = sub.add_parser("grow", help="apply one growth request to an oracle log")
    p.add_argument("ext", nargs="?", help="K file with the one-point extension")
    p.add_argument("--oracle")
    p.add_argument("--base", action="append", help="extension point=oracle point")
    p.add_argument("--slot", action="append", help="n:m=g slot mapping, omitted slots are fresh")
    p.add_argument("--dist", action="append", help="oracle point=rational, for plain growth")
    p.add_argument("--suit", help="profile entries i=num/den,...")
    p.add_argument("--pz", type=int, help="dense label index")
    p.add_argument("--mode", action="append", help="oracle modes when starting fresh")
    p.add_argument("--space")
    p.add_argument("--zspace")
    p.add_argument("--lip")
    p.add_argument("--out-log")
    p.set_defaults(func=cmd_grow)

    p = sub.add_parser("embed", help="realize a structure in the oracle, emit a certificate")
    p.add_argument("file")
    p.add_argument("--depth", type=int, default=6)
    p.add_argument("--seed", type=int, default=0, help="accepted and unused")
    p.add_argument("--oracle")
    p.add_argument("--out", default="-")
    p.add_argument("--out-log")
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("homog", help="back-and-forth between two embedded copies")
    p.add_argument("file")
    p.add_argument("--depth", type=int, default=5)
    p.add_argument("--wishes", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--oracle")
    p.add_argument("--out", default="-")
    p.add_argument("--out-log")
    p.set_defaults(func=cmd_homog)

    p = sub.add_parser("certify", help="independently re-verify a certificate")
    p.add_argument("--verify", required=True)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("eval", help="evaluate profile or label data from a file")
    p.add_argument("file")
    p.add_argument("--space")
    p.add_argument("--point")
    p.add_argument("--index", type=int)
    p.set_defaults(func=cmd_eval)
    return ap


# built on the first call to main and kept: parse_args leaves the parser
# as it found it, so every call in a process can share it
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ParseError, RatParseError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    except (
        MetricTableError,
        WitnessError,
        OracleGrowthError,
        SolverError,
        SandwichInfeasible,
        ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
