#!/usr/bin/env python3
"""Run one benchmark workload of the `urysohn` engine and print its metrics.

    python3 perfbench/run.py --workload homog-rel --seed 1 --seconds 30 --trace 0

Run from the repository root.  Set-up imports `urysohn` afresh and
generates the inputs from the seed.  Every repetition's outputs must match
repetition 0's hashes.  With --trace 0, set-up and a repetition alternate
until --seconds have passed and the end-to-end metrics are printed: the
times are medians of times corrected for the machine's speed (speed.py).  With
--trace 1, untraced and traced repetitions alternate for --seconds after
repetition 0 and the per-layer metrics are printed.  A failed operation,
in set-up or in a repetition, counts in `failed` and makes the run
incorrect; the run still goes on and prints its metrics.  The last line of
standard output is one JSON object; the full results, hashes included,
go to perfbench/_work/.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from speed import SpeedSampler  # noqa: E402
from tracer import Tracer, late_early, quantile_ms  # noqa: E402

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "log_bytes": "bytes"}

# functions whose calls, self time or failures the per-layer table names
_TRACED = (
    "engine.grow",
    "engine.predicate_value",
    "engine.replay_record",
    "engine.validate_state",
    "engine.snapshot",
    "relational.validate_k",
    "relational.find_lipschitz_violation",
    "cauchy.extend_one_point",
    "cauchy.solve_sandwich",
    "cauchy.embed_structure",
    "cauchy.extend_partial_iso",
    "cauchy.witness_checks",
    "metric.validate_metric",
    "metric.one_point_feasible",
    "product.extend_one_point_c",
    "product.validate_c",
    "spaces.eval_suitable",
    "spaces.build_suitable",
    "lipschitz.extend_one_point_l",
    "lipschitz.validate_l",
    "files.parse_structure_file",
    "files.serialize_structure",
    "files.replay_oracle",
    "certificates.emit_certificate",
    "certificates.verify_certificate",
    "randgen.random_wish_extension",
    "cli.main",
)

PER_LAYER = {
    "engine.grow.calls": "count",
    "engine.grow.self_s": "s",
    "engine.grow.p50_ms": "ms",
    "engine.grow.p97_ms": "ms",
    "engine.grow.late_early": "ratio",
    "engine.oracle_points": "count",
    "engine.pins_stored": "count",
    "engine.den_bits": "bits",
    "engine.predicate_value.calls": "count",
    "engine.predicate_value.self_s": "s",
    "engine.predicate_value.hit_ratio": "ratio",
    "engine.replay_record.self_s": "s",
    "engine.validate_state.self_s": "s",
    "engine.snapshot.self_s": "s",
    "relational.validate_k.calls": "count",
    "relational.validate_k.total_s": "s",
    "relational.find_lipschitz_violation.calls": "count",
    "relational.find_lipschitz_violation.self_s": "s",
    "relational.find_lipschitz_violation.cells": "count",
    "cauchy.extend_one_point.calls": "count",
    "cauchy.extend_one_point.self_s": "s",
    "cauchy.solve_sandwich.calls": "count",
    "cauchy.solve_sandwich.self_s": "s",
    "cauchy.embed_structure.total_s": "s",
    "cauchy.extend_partial_iso.total_s": "s",
    "cauchy.witness_checks.self_s": "s",
    "metric.validate_metric.self_s": "s",
    "metric.one_point_feasible.calls": "count",
    "metric.one_point_feasible.self_s": "s",
    "product.extend_one_point_c.calls": "count",
    "product.extend_one_point_c.self_s": "s",
    "spaces.eval_suitable.calls": "count",
    "spaces.eval_suitable.self_s": "s",
    "spaces.build_suitable.self_s": "s",
    "product.validate_c.self_s": "s",
    "lipschitz.extend_one_point_l.self_s": "s",
    "lipschitz.validate_l.self_s": "s",
    "files.parse_structure_file.self_s": "s",
    "files.serialize_structure.self_s": "s",
    "files.replay_oracle.total_s": "s",
    "certificates.emit_certificate.self_s": "s",
    "certificates.verify_certificate.self_s": "s",
    "certificates.checks": "count",
    "randgen.random_wish_extension.self_s": "s",
    "cli.main.self_s": "s",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    **{f"{fn}.fail": "count" for fn in _TRACED},
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _purge():
    for name in [m for m in sys.modules if m == "urysohn" or m.startswith("urysohn.")]:
        del sys.modules[name]


def _setup(workload: str, seed: int, work: Path):
    """Import the package afresh and generate the inputs; one timed sample."""
    _purge()
    t0 = perf_counter()
    importlib.import_module("urysohn.cli")
    inputs, ops = workloads.setup(workload, seed, work / "inputs")
    t1 = perf_counter()
    return inputs, {
        "setup_s": t1 - t0,
        "span": (t0, t1),
        "inputs_sha256": {
            role: _sha(p.read_bytes()) if p.is_file() else None for role, p in sorted(inputs.items())
        },
        "ops": [{"name": op.name, "ok": op.ok, "why": "" if op.ok else "command failed"} for op in ops],
    }


def _rep(workload: str, seed: int, inputs, out: Path, rep: int, traced: bool) -> dict:
    shutil.rmtree(out, ignore_errors=True)
    t0 = perf_counter()
    ops = workloads.run_rep(workload, seed, inputs, out)
    t1 = perf_counter()
    rows = []
    for op in ops:
        row = {"name": op.name, "ok": op.ok, "why": "" if op.ok else "command failed",
               "stdout_sha256": _sha(op.stdout.encode("utf-8")), "files": {}}
        for label, path in sorted(op.files.items()):
            if not path.is_file():
                row["ok"], row["why"] = False, f"{label}: missing"
                continue
            data = path.read_bytes()
            row["files"][label] = {
                "sha256": _sha(data), "bytes": len(data), "path": str(path.relative_to(ROOT))
            }
            if label.endswith(".cert"):
                checks, fail = workloads.cert_summary(data)
                row["files"][label]["checks"] = checks
                if fail and row["ok"]:
                    row["ok"], row["why"] = False, f"{label}: summary fail={fail}"
        rows.append(row)
    return {"rep": rep, "traced": traced, "wall_s": t1 - t0, "span": (t0, t1), "ops": rows}


def _gate_hashes(reps: list[dict]):
    """An operation fails when its outputs differ from the first repetition's."""
    first = {row["name"]: row for row in reps[0]["ops"]}
    for rep in reps[1:]:
        for row in rep["ops"]:
            ref = first.get(row["name"])
            same = ref is not None and ref["stdout_sha256"] == row["stdout_sha256"] and {
                k: v["sha256"] for k, v in ref["files"].items()
            } == {k: v["sha256"] for k, v in row["files"].items()}
            if not same and row["ok"]:
                row["ok"], row["why"] = False, "outputs differ from the first repetition"


def _distinct_files(rep: dict, suffix: str) -> dict[str, dict]:
    out = {}
    for row in rep["ops"]:
        for label, f in row["files"].items():
            if label.endswith(suffix):
                out[label] = f
    return out


def _rep_layer_values(tracer: Tracer, rep: int) -> dict[str, float]:
    """Every per-layer metric that the spans of one repetition give."""
    stats = tracer.rep_stats(rep)
    grow_lat = tracer.first_oracle_grow_lat(rep)
    values = {}
    for metric in PER_LAYER:
        fn, _, key = metric.rpartition(".")
        s = stats.get(fn, {})
        if key == "p50_ms":
            values[metric] = quantile_ms(grow_lat, 0.50)
        elif key == "p97_ms":
            values[metric] = quantile_ms(grow_lat, 0.97)
        elif key == "late_early":
            values[metric] = late_early(grow_lat)
        elif key == "hit_ratio":
            values[metric] = 1 - len(tracer.pv_keys.get(rep, ())) / s["calls"] if s else 0.0
        elif key == "cells":
            values[metric] = tracer.cells.get(rep, 0)
        else:
            values[metric] = s.get(key, 0)
    return values


def _layer_metrics(tracer: Tracer, reps: list[dict], counters: dict) -> dict[str, float]:
    """Medians over the traced repetitions, exact counters and the overhead."""
    per_rep = [_rep_layer_values(tracer, r["rep"]) for r in reps if r["traced"]]
    out = {m: statistics.median(v[m] for v in per_rep) for m in PER_LAYER}
    out.update(counters)
    out["trace.wall_s"] = min(r["wall_s"] for r in reps if r["traced"])
    out["trace.untraced_wall_s"] = min(r["wall_s"] for r in reps if not r["traced"])
    out["trace.overhead_s"] = out["trace.wall_s"] - out["trace.untraced_wall_s"]
    return out


def _run(args, work: Path, tracer: Tracer | None):
    """Set up, then run repetitions for --seconds; returns the last inputs,
    the set-ups and the repetitions."""
    start = perf_counter()
    inputs, first_setup = _setup(args.workload, args.seed, work)
    setups = [first_setup]
    reps = [_rep(args.workload, args.seed, inputs, work / "out", 0, False)]
    if tracer:
        # repetition 0 is the untraced reference; traced and untraced
        # repetitions then alternate, so that the overhead compares
        # repetitions made under the same machine load
        deadline = perf_counter() + args.seconds
        while perf_counter() < deadline or len(reps) == 1:
            rep = len(reps)
            traced = rep % 2 == 1
            if traced:
                tracer.begin(rep)
                tracer.install()
            try:
                reps.append(_rep(args.workload, args.seed, inputs, work / "out", rep, traced))
            finally:
                if traced:
                    tracer.uninstall()
    else:
        # one set-up before each repetition, so that set-up and repetitions
        # sample the machine over the same span of time
        while perf_counter() < start + args.seconds:
            inputs, one = _setup(args.workload, args.seed, work)
            setups.append(one)
            reps.append(_rep(args.workload, args.seed, inputs, work / "out", len(reps), False))
    return inputs, setups, reps


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "urysohn" / "__init__.py").is_file():
        print(f"perfbench: no urysohn sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    work = HERE / "_work" / f"{args.workload}-seed{args.seed}"
    tracer = Tracer() if args.trace else None
    if tracer:
        inputs, setups, reps = _run(args, work, tracer)
    else:
        with SpeedSampler() as speed:
            inputs, setups, reps = _run(args, work, None)
        for one in setups + reps:
            one["reference_s"] = speed.reference_s(*one["span"])
    problems = []
    if any(s["inputs_sha256"] != setups[0]["inputs_sha256"] for s in setups):
        problems.append("set-up repetitions generated different inputs")
    sides = {}
    if args.workload == "audit-log":
        sides = {
            tag: workloads.snapshot_side(log) if log.is_file() else None
            for tag, log in (("big", inputs["big.log"]), ("small", inputs["small.log"]))
        }
        if sides != {"big": False, "small": True}:
            problems.append(f"audit-log inputs not on both sides of the snapshot cut: {sides}")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    _gate_hashes(reps)

    logs = _distinct_files(reps[0], ".log")
    certs = _distinct_files(reps[0], ".cert")
    counters = workloads.log_counters(ROOT / f["path"] for f in logs.values())
    counters["certificates.checks"] = sum(f["checks"] for f in certs.values())
    log_bytes = sum(f["bytes"] for f in logs.values())

    ops = [row for s in setups for row in s["ops"]] + [row for r in reps for row in r["ops"]]
    attempted = len(ops)
    failed = sum(not row["ok"] for row in ops)
    if args.trace:
        metrics = _layer_metrics(tracer, reps, counters)
        units = PER_LAYER
    else:
        metrics = {
            "wall_s": statistics.median(r["reference_s"] for r in reps),
            "setup_s": statistics.median(s["reference_s"] for s in setups),
            "peak_rss_mb": peak_rss_mb,
            "log_bytes": log_bytes,
        }
        units = END_TO_END
    correct = failed == 0 and not problems

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "problems": problems,
        "snapshot_side": sides,
        "setups": setups,
        "outputs_sha256": {label: f["sha256"] for label, f in sorted({**logs, **certs}.items())},
        "counters": counters,
        "log_bytes": log_bytes,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "reps": reps,
    }
    if tracer:
        result["functions"] = {
            r["rep"]: {
                name: {k: v for k, v in st.items() if k != "lat"}
                for name, st in tracer.rep_stats(r["rep"]).items()
            }
            for r in reps
            if r["traced"]
        }
        tracer.write_spans(work / "spans.jsonl")
    (work / f"result-trace{args.trace}.json").write_text(json.dumps(result, indent=1) + "\n")

    for msg in problems:
        print(f"problem: {msg}")
    for i, s in enumerate(setups):
        for row in s["ops"]:
            if not row["ok"]:
                print(f"failed: set-up {i} {row['name']}: {row['why']}")
    for r in reps:
        for row in r["ops"]:
            if not row["ok"]:
                print(f"failed: rep {r['rep']} {row['name']}: {row['why']}")
    for label, digest in result["outputs_sha256"].items():
        print(f"sha256 {label} {digest}")
    for tag, side in sides.items():
        print(f"snapshot cross-check on {tag}.log: {'missing' if side is None else 'yes' if side else 'no'}")
    print(f"repetitions {len(reps)}, operations {attempted}, fail_ratio {failed / attempted}")
    walls = [r["wall_s"] for r in reps if not r["traced"]]
    print(f"untraced repetitions {len(walls)}: raw wall time min {min(walls)} s, "
          f"median {statistics.median(walls)} s")
    if not tracer:
        print(f"set-ups {len(setups)}: raw median {statistics.median(s['setup_s'] for s in setups)} s")
    for name, v in metrics.items():
        print(f"{name} {v} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
