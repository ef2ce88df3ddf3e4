"""Command-line front end.

Exit codes: 0 success, 1 validation or verification failure (report
printed), 2 usage error.  All randomized drivers take --seed and reproduce
their output byte for byte for a fixed seed.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path
from random import Random

from .cauchy import (
    IndexedStructure,
    PartialIso,
    SandwichInfeasible,
    SolverError,
    embed_structure,
    extend_one_point,
    extend_partial_iso,
    homog_depth_plan,
    validate_bark,
    witness_checks,
)
from .certificates import Check, emit_certificate, verify_certificate
from .engine import LimitOracle, OracleGrowthError, RelExtension, amalgamate_k, joint_embed_k
from .files import (
    ParseError,
    oracle_file,
    parse_structure_file,
    replay_oracle,
    serialize_structure,
)
from .lipschitz import (
    StructureL,
    amalgamate_l,
    joint_embed_l,
    snapshot_lipschitz,
    validate_l,
)
from .metric import MetricTableError, WitnessError
from .product import (
    StructureC,
    amalgamate_c,
    joint_embed_c,
    snapshot_product,
    validate_c,
)
from .randgen import random_wish_extension
from .rationals import RatParseError, fmt_rat, parse_rat, pow2
from .relational import EmbeddingWitness, StructureK, validate_k
from .spaces import eval_suitable, validate_compact, validate_polish


class UsageError(Exception):
    pass


def _load(path: str | None):
    if not path:
        raise UsageError("a required file argument is missing")
    try:
        return parse_structure_file(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise UsageError(f"no such file: {path}")


def _load_kind(path: str, *kinds: str):
    parsed = _load(path)
    if parsed.kind not in kinds:
        raise UsageError(f"{path}: expected a {'/'.join(kinds)} file, got {parsed.kind}")
    return parsed.value


def _point_map(pairs: list[str]) -> dict[str, str]:
    out = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise UsageError(f"malformed map entry {pair!r}, want src=dst")
        src, dst = pair.split("=", 1)
        out[src] = dst
    return out


def _identity_pi(a) -> dict[int, dict[int, int]]:
    return {n: {m: m for m in range(1, a.n_a + 2 - n)} for n in range(1, a.n_a + 1)}


def _write(path: str | None, data: bytes | str):
    if isinstance(data, str):
        data = data.encode("utf-8")
    if path is None or path == "-":
        sys.stdout.buffer.write(data)
    else:
        Path(path).write_bytes(data)


def cmd_validate(args) -> int:
    parsed = _load(args.file)
    report: list[str] = []
    if parsed.kind == "K":
        report = validate_k(parsed.value)
    elif parsed.kind == "BARK":
        report = validate_bark(parsed.value)
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
        # cross-check the materialized snapshots while they stay small;
        # pattern tables are exponential in the arity bound
        n_u = max((n + g - 1 for (n, g) in o.registry), default=1)
        if "rel" in o.modes and len(o) ** n_u <= 20000:
            report += validate_k(o.snapshot())
        if "prod" in o.modes and len(o) <= 60:
            report += validate_c(snapshot_product(o), o.compact)
        if "lip" in o.modes and len(o) <= 200:
            report += validate_l(snapshot_lipschitz(o), o.polish)
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
        wab = EmbeddingWitness(map_b, _identity_pi(a))
        wac = EmbeddingWitness(map_c, _identity_pi(a))
        out = amalgamate_k(b, c, a, wab, wac).result
    elif kind == "C":
        out = amalgamate_c(b, c, a, map_b, map_c, _load_kind(args.space, "COMPACT"))
    elif kind == "L":
        out = amalgamate_l(b, c, a, map_b, map_c, _load_kind(args.space, "POLISH"))
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
    elif kind == "C":
        out = joint_embed_c(a, b, _load_kind(args.space, "COMPACT"))
    elif kind == "L":
        out = joint_embed_l(a, b, _load_kind(args.space, "POLISH"))
    else:
        raise UsageError(f"cannot joint-embed {kind} files")
    _write(args.out, serialize_structure(kind, out))
    return 0


def _load_oracle(args) -> LimitOracle:
    compact = _load_kind(args.space, "COMPACT") if args.space else None
    polish = _load_kind(args.zspace, "POLISH") if args.zspace else None
    if args.oracle and Path(args.oracle).exists():
        of = _load_kind(args.oracle, "ORACLE")
        return replay_oracle(of, compact=compact, polish=polish)
    modes = tuple(args.mode) if getattr(args, "mode", None) else ("rel",)
    lip = parse_rat(args.lip) if getattr(args, "lip", None) else None
    return LimitOracle(modes, compact=compact, polish=polish, lip_const=lip)


def _save_oracle(o: LimitOracle, path: str | None):
    if path:
        _write(path, serialize_structure("ORACLE", oracle_file(o)))


def cmd_grow(args) -> int:
    o = _load_oracle(args)
    dists = {}
    for pair in args.dist or []:
        if "=" not in pair:
            raise UsageError(f"malformed distance entry {pair!r}")
        pt, val = pair.split("=", 1)
        dists[pt] = parse_rat(val)
    rel = None
    if args.ext:
        ext = _load_kind(args.ext, "K")
        base_map = _point_map(args.base)
        slots: dict[tuple[int, int], int | None] = {
            (n, m): None for n, m in ext.slots()
        }
        for entry in args.slot or []:
            key, g = entry.split("=", 1)
            n, m = key.split(":", 1)
            slots[(int(n), int(m))] = int(g)
        new_pts = [p for p in ext.points if p not in base_map]
        if len(new_pts) != 1:
            raise UsageError("the extension must leave exactly one point unmapped")
        dists = {base_map[p]: ext.metric.d(new_pts[0], p) for p in base_map}
        rel = RelExtension(ext, base_map, slots)
    suit = None
    if args.suit:
        from .files import parse_profile_entries

        suit = parse_profile_entries(args.suit)
    lip_index = args.pz
    result = o.grow(dists, rel=rel, suitable=suit, lip_index=lip_index)
    print(result.point)
    for slot, g in sorted(result.slot_globals.items()):
        print(f"slot {slot[0]}:{slot[1]} -> {g}")
    _save_oracle(o, args.out_log)
    return 0


def cmd_embed(args) -> int:
    x = _load_kind(args.file, "BARK", "K")
    if isinstance(x, StructureK):
        x = IndexedStructure(
            x.metric,
            x.n_a,
            {n: tuple(range(1, x.n_a + 2 - n)) for n in range(1, x.n_a + 1)},
            x.pred,
        )
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
    checks = witness_checks(o, result.iso, depth, pow2(-(depth - 1)))
    _write(args.out, emit_certificate(checks))
    _save_oracle(o, args.out_log)
    return 0 if not result.failures else 1


def cmd_certify(args) -> int:
    data = Path(args.verify).read_bytes()
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
        print(fmt_rat(eval_suitable(s.fns[args.point], args.index, k)))
        return 0
    if parsed.kind == "L":
        s: StructureL = parsed.value
        if args.point is None:
            raise UsageError("eval on an L file wants --point")
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
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--oracle")
    p.add_argument("--mode", action="append")
    p.add_argument("--space")
    p.add_argument("--zspace")
    p.add_argument("--lip")
    p.add_argument("--out", default="-")
    p.add_argument("--out-log")
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("homog", help="back-and-forth between two embedded copies")
    p.add_argument("file")
    p.add_argument("--depth", type=int, default=5)
    p.add_argument("--wishes", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--oracle")
    p.add_argument("--mode", action="append")
    p.add_argument("--space")
    p.add_argument("--zspace")
    p.add_argument("--lip")
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


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
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
