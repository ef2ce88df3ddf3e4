"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench -q        (from the repository root, ~2 min)

Tracing and the speed sampler must leave every certificate and log
byte-identical, and every call count must repeat; corrected times must drop
the sampler's own time and scale by the sampled speed; the audit-log inputs
must fall on both sides of the snapshot cut in `urysohn validate`; a failed
operation, in set-up or in a repetition, must count and make the run
incorrect; BENCHMARK.json must name exactly what run.py prints; and without
the sources the benchmark must fail cleanly.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

SEED = 3


def _run(workload: str, trace: int):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    result = json.loads(
        (HERE / "_work" / f"{workload}-seed{SEED}" / f"result-trace{trace}.json").read_text()
    )
    return last, result


def _digests(rep: dict) -> dict:
    return {
        (row["name"], label): f["sha256"]
        for row in rep["ops"]
        for label, f in row["files"].items()
    }


def _calls(result: dict) -> dict:
    return {
        name: s["calls"]
        for stats in result["functions"].values()
        for name, s in stats.items()
    }


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tracing_and_sampling_keep_outputs_and_call_counts(workload):
    runs = [_run(workload, 1) for _ in range(2)]
    for last, result in runs:
        assert last["correct"] and last["failed"] == 0
        untraced, traced = result["reps"]
        assert not untraced["traced"] and traced["traced"]
        assert _digests(untraced) and _digests(untraced) == _digests(traced)
    (first, res1), (second, res2) = runs
    assert res1["outputs_sha256"] == res2["outputs_sha256"]
    # an untraced run has the speed sampler on
    sampled, res0 = _run(workload, 0)
    assert sampled["correct"] and res0["outputs_sha256"] == res1["outputs_sha256"]
    assert _calls(res1) == _calls(res2)
    assert {k: v for k, v in first["metrics"].items() if k.endswith(".calls")} == {
        k: v for k, v in second["metrics"].items() if k.endswith(".calls")
    }
    if workload == "audit-log":
        # the snapshot cross-check runs on the small log only
        assert first["metrics"]["relational.validate_k.calls"]["value"] == 1


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_audit_inputs_straddle_snapshot_cut(seed):
    inputs, ops = workloads.setup("audit-log", seed, HERE / "_work" / f"cut-seed{seed}")
    assert all(op.ok for op in ops)
    assert not workloads.snapshot_side(inputs["big.log"])
    assert workloads.snapshot_side(inputs["small.log"])


def test_reference_seconds_remove_chunks_and_scale_by_speed():
    sampler = speed.SpeedSampler()
    ref = speed.REF_CHUNK_S
    # 1 s holding two chunks, one at reference speed and one at half of it
    sampler.samples = [(0.2, ref), (0.6, 2 * ref)]
    assert sampler.reference_s(0.0, 1.0) == pytest.approx((1 - 3 * ref) * 0.75)
    # fewer samples inside than NEAREST: the nearest ones give the speed
    sampler.samples = [(float(i), ref) for i in range(10)] + [(4.5, 2 * ref)]
    assert sampler.reference_s(4.4, 4.6) == pytest.approx((0.2 - 2 * ref) * 0.9)


def test_failed_operations_count_and_run_still_reports(monkeypatch, capsys):
    real_setup = workloads.setup

    def setup(workload, seed, d):
        inputs, _ = real_setup(workload, seed, d)
        return inputs, [workloads.Op("setup-cmd", False)]

    monkeypatch.setattr(workloads, "setup", setup)
    monkeypatch.setattr(workloads, "run_rep", lambda *args: [workloads.Op("cmd", False)])
    assert run.main(["--workload", "homog-rel", "--seed", "1", "--seconds", "0", "--trace", "0"]) == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert last == {**last, "correct": False, "attempted": 2, "failed": 2}
    assert set(last["metrics"]) == set(run.END_TO_END)


def test_benchmark_json_names_what_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_fails_cleanly_without_sources():
    bare = HERE / "_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "homog-rel",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""
