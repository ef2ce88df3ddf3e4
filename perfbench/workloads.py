"""The three benchmark workloads: input generation and one timed repetition.

Every input is generated from the workload seed and written to files; the
timed part sees only those files.  CLI commands run in process through
`urysohn.cli.main(argv)`; the library workload calls public functions.
All `urysohn` names are looked up on their modules at call time, so a
tracer that patches the module namespaces sees every call.
"""
from __future__ import annotations

import io
import shutil
import traceback
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from random import Random

WORKLOADS = ("homog-rel", "audit-log", "profile-label")

# cmd_validate cross-checks validate_k(o.snapshot()) only while
# len(o) ** n_u stays at or under this many cells
SNAPSHOT_CUT = 20000

# profile-label: target points, solver depth and presentation sizes
PL_POINTS = 4
PL_DEPTH = 7
PL_DENSE = 12


@dataclass
class Op:
    """One CLI command or one solver call, and the files it wrote or read."""

    name: str
    ok: bool
    stdout: str = ""
    files: dict[str, Path] = field(default_factory=dict)


def _cli(name: str, argv: list[str], expect: str | None, files: dict[str, Path]) -> Op:
    from urysohn import cli

    buf = io.StringIO()
    try:
        with redirect_stdout(buf):
            rc = cli.main(argv)
    except Exception:
        traceback.print_exc()
        return Op(name, False, buf.getvalue(), files)
    out = buf.getvalue()
    ok = rc == 0 and (expect is None or expect in out.splitlines())
    return Op(name, ok, out, files)


def _lib(name: str, fn, files: dict[str, Path] | None = None):
    """Run one library call; returns (Op, result or None)."""
    try:
        result = fn()
    except Exception:
        traceback.print_exc()
        return Op(name, False, files=files or {}), None
    return Op(name, True, files=files or {}), result


def _write_text(path: Path, text: str):
    path.write_bytes(text.encode("utf-8"))


# -- setup ---------------------------------------------------------------------


def setup(workload: str, seed: int, d: Path) -> tuple[dict[str, Path], list[Op]]:
    """Generate the workload's input files under `d` from `Random(seed)`.

    Returns the files by role and the set-up's CLI commands (`audit-log`
    only), whose failures count like those of any other operation.  `d` is
    emptied first, so that a failed command cannot leave an older file behind.
    """
    from urysohn import files, randgen

    shutil.rmtree(d, ignore_errors=True)
    d.mkdir(parents=True)
    rng = Random(seed)
    if workload == "homog-rel":
        bark = d / "x.bark"
        _write_text(bark, files.serialize_structure("BARK", randgen.random_bark(rng, ["x1", "x2"], bound=2)))
        return {"bark": bark}, []
    if workload == "audit-log":
        # a homog log above the snapshot cut and an embed log below it
        xs = [
            randgen.random_bark(rng, ["x1", "x2"], bound=2),
            randgen.random_bark(rng, ["y1", "y2", "y3"], bound=2),
        ]
        made, ops = {}, []
        for tag, x, cmd in (
            ("big", xs[0], ["homog", "--wishes", "1", "--depth", "6"]),
            ("small", xs[1], ["embed", "--depth", "4"]),
        ):
            bark, log, cert = d / f"{tag}.bark", d / f"{tag}.log", d / f"{tag}.cert"
            _write_text(bark, files.serialize_structure("BARK", x))
            argv = [cmd[0], str(bark), *cmd[1:], "--seed", str(seed),
                    "--out", str(cert), "--out-log", str(log)]
            ops.append(_cli(f"setup-{cmd[0]}-{tag}", argv, None, {}))
            made[f"{tag}.log"], made[f"{tag}.cert"] = log, cert
        return made, ops
    if workload == "profile-label":
        return _profile_label_inputs(_profile_label_draw(rng), d), []
    raise ValueError(f"unknown workload {workload!r}")


def _profile_label_draw(rng: Random):
    from urysohn import files, randgen

    def as_read(kind, space):
        return files.parse_structure_file(files.serialize_structure(kind, space)).value

    # dense indices are positions in the file's sorted point list, so
    # targets are drawn against the presentations as the files give them
    k = as_read("COMPACT", randgen.random_compact(rng, PL_DENSE))
    z = as_read("POLISH", randgen.random_polish(rng, PL_DENSE))
    ids = [f"b{i}" for i in range(1, PL_POINTS + 1)]
    s = randgen.random_structure_l(rng, z, ids, Fraction(1))
    fns = {}
    for i, p in enumerate(ids):
        fns[p] = randgen.compatible_profile(rng, k, [(fns[q], s.metric.d(p, q)) for q in ids[:i]])
    return k, z, s, fns


def _profile_label_inputs(drawn, d: Path) -> dict[str, Path]:
    from urysohn import files
    from urysohn.product import StructureC

    k, z, s, fns = drawn
    made = {
        "compact": d / "space.compact",
        "polish": d / "space.polish",
        "target.l": d / "target.l",
        "target.c": d / "target.c",
    }
    _write_text(made["compact"], files.serialize_structure("COMPACT", k))
    _write_text(made["polish"], files.serialize_structure("POLISH", z))
    _write_text(made["target.l"], files.serialize_structure("L", s))
    _write_text(made["target.c"], files.serialize_structure("C", StructureC(s.metric, fns)))
    return made


# -- one repetition ----------------------------------------------------------


def run_rep(workload: str, seed: int, inputs: dict[str, Path], out: Path) -> list[Op]:
    """Run the workload's timed sequence once; outputs go under `out`."""
    out.mkdir(parents=True, exist_ok=True)
    if workload == "homog-rel":
        cert, log = out / "homog.cert", out / "homog.log"
        return [
            _cli(
                "homog",
                ["homog", str(inputs["bark"]), "--wishes", "2", "--depth", "6",
                 "--seed", str(seed), "--out", str(cert), "--out-log", str(log)],
                None,
                {"homog.cert": cert, "homog.log": log},
            ),
            _cli("certify", ["certify", "--verify", str(cert)], "certificate OK",
                 {"homog.cert": cert}),
        ]
    if workload == "audit-log":
        ops = []
        for tag in ("big", "small"):
            log = inputs[f"{tag}.log"]
            ops.append(_cli(f"validate-{tag}", ["validate", str(log)], "valid", {f"{tag}.log": log}))
        for tag in ("big", "small"):
            cert = inputs[f"{tag}.cert"]
            ops.append(_cli(f"certify-{tag}", ["certify", "--verify", str(cert)],
                            "certificate OK", {f"{tag}.cert": cert}))
        return ops
    if workload == "profile-label":
        return _profile_label(inputs, out)
    raise ValueError(f"unknown workload {workload!r}")


def _profile_label(inputs: dict[str, Path], out: Path) -> list[Op]:
    from urysohn import cauchy, certificates, engine, files, lipschitz, product

    def load(role):
        return files.parse_structure_file(inputs[role].read_text(encoding="utf-8")).value

    ops: list[Op] = []
    op, loaded = _lib("load", lambda: [load(r) for r in ("compact", "polish", "target.l", "target.c")])
    ops.append(op)
    if not op.ok:
        return ops
    k, z, tl, tc = loaded
    pts = tl.metric.points
    depths = cauchy.stage_depths(len(pts), PL_DEPTH)

    def build(tag, oracle, extend):
        built, checks = [], []
        for i, p in enumerate(pts):
            sub = tl.metric.restrict(pts[: i + 1])
            op, res = _lib(f"{tag}-{p}", lambda: extend(oracle, built[:], sub, p, depths[i]))
            ops.append(op)
            if not op.ok:
                return False
            built.append(res.point)
            checks.extend(res.checks)
        log, cert = out / f"{tag}.log", out / f"{tag}.cert"

        def write():
            _write_text(log, files.serialize_structure("ORACLE", files.oracle_file(oracle)))
            cert.write_bytes(certificates.emit_certificate(checks))

        op, _ = _lib(f"write-{tag}", write, {f"{tag}.log": log, f"{tag}.cert": cert})
        ops.append(op)
        return op.ok

    both = engine.LimitOracle(("prod", "lip"), compact=k, polish=z, lip_const=tl.lip)
    if not build(
        "prodlip",
        both,
        lambda o, b, sub, p, dep: product.extend_one_point_c(
            o, b, sub, tc.fns[p], dep, lip_target=tl.labels[p]
        ),
    ):
        return ops
    lip = engine.LimitOracle(("lip",), polish=z, lip_const=tl.lip)
    if not build(
        "lip",
        lip,
        lambda o, b, sub, p, dep: lipschitz.extend_one_point_l(o, b, sub, tl.labels[p], dep),
    ):
        return ops
    space, zspace = str(inputs["compact"]), str(inputs["polish"])
    for tag, extra in (("prodlip", ["--space", space, "--zspace", zspace]), ("lip", ["--zspace", zspace])):
        log = out / f"{tag}.log"
        ops.append(_cli(f"validate-{tag}", ["validate", str(log), *extra], "valid", {f"{tag}.log": log}))
    for tag in ("prodlip", "lip"):
        cert = out / f"{tag}.cert"
        ops.append(_cli(f"certify-{tag}", ["certify", "--verify", str(cert)], "certificate OK",
                        {f"{tag}.cert": cert}))
    return ops


# -- exact size counters from public state -----------------------------------


def log_counters(paths) -> dict[str, int]:
    """Oracle points, stored pins and denominator bits over the given logs."""
    from math import lcm

    from urysohn import files

    points = pins = 0
    den = 1
    for path in paths:
        of = files.parse_structure_file(Path(path).read_text(encoding="utf-8")).value
        points += len(of.records)
        for rec in of.records:
            for v in rec.dists.values():
                den = lcm(den, v.denominator)
            for delta in rec.pins.values():
                pins += len(delta)
                for v in delta.values():
                    den = lcm(den, v.denominator)
    return {"engine.oracle_points": points, "engine.pins_stored": pins, "engine.den_bits": den.bit_length()}


def snapshot_side(log: Path) -> bool:
    """True when `urysohn validate` also cross-checks this log's snapshot."""
    from urysohn import files

    of = files.parse_structure_file(log.read_text(encoding="utf-8")).value
    n_u = max((n + g - 1 for rec in of.records for (n, g) in rec.fresh), default=1)
    return "rel" in of.modes and len(of.records) ** n_u <= SNAPSHOT_CUT


def cert_summary(data: bytes) -> tuple[int, int]:
    """(checks, fail) from a certificate's summary line; (0, 1) if absent."""
    for line in data.decode("utf-8", "replace").splitlines():
        if line.startswith("summary "):
            fields = dict(kv.split("=", 1) for kv in line.split()[1:])
            return int(fields["checks"]), int(fields["fail"])
    return 0, 1
