"""The benchmark's own tests: every workload at tiny size, in a few seconds.

Run with `python3 -m pytest bench`.
"""

import argparse
import json
import shutil
import signal
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run as bench_run  # noqa: E402

bench_run._import_program()

import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(tmp_path, workload, trace, *extra):
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.2", "--trace", str(trace), "--size", "tiny",
         "--run-dir", str(tmp_path / f"{workload}-{trace}"), *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return lines, result


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_end_to_end_metric_is_emitted(tmp_path, workload):
    lines, result = _result(_run(tmp_path, workload, 0))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert any(line.startswith("failed_ops 0 share (0 of ") for line in lines)
    assert any(line.startswith("record ") and '"nproc"' in line for line in lines)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_layer_metric_is_emitted(tmp_path, workload):
    _, result = _result(_run(tmp_path, workload, 1))
    assert result["correct"], "traced passes must reproduce the untraced reports"
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    got = result["metrics"]
    assert {k: v["unit"] for k, v in got.items()} == want
    assert all(v["value"] == 0 for k, v in got.items() if k.endswith(".errors"))
    # self times of all spans cover the traced pass; only the loop's own
    # bookkeeping, a few tens of microseconds per operation, lies outside them
    pass_s = got["trace.pass_s"]["value"]
    assert 0 <= pass_s - got["trace.self_sum_s"]["value"] <= 0.05 * pass_s


def test_layer_counts_repeat_exactly(tmp_path):
    counts = []
    for attempt in range(2):
        _, result = _result(_run(tmp_path / str(attempt), "corpus", 1))
        counts.append({k: v["value"] for k, v in result["metrics"].items()
                       if k.endswith((".calls", "draws_per_step", "distinct_tree_ratio",
                                      "pairs_measured", "report_bytes"))})
    assert counts[0] == counts[1]
    assert counts[0]["pwk.embed_pathwidthk.calls"] > 0


def test_benchmark_json_matches_the_code():
    assert SPEC["command"] == ["python3", "bench/run.py"]
    assert [m["name"] for m in SPEC["end_to_end"]] == [n for n, _ in bench_run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == tracer.LAYER_METRICS
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def _runner(tmp_path, workload):
    args = argparse.Namespace(workload=workload, seed=3, size="tiny", trace=0, seconds=0.1)
    runner = bench_run.Runner(args, tmp_path)
    runner.setup()
    runner.run_pass(traced=False)
    return runner


def test_tampered_report_counts_as_failed(tmp_path):
    runner = _runner(tmp_path, "corpus")
    assert all(s == "ok" for _, statuses, _ in runner.check() for s in statuses)
    runner = _runner(tmp_path, "corpus")
    digest, (code, data) = runner.reference[0]
    report = json.loads(data)
    stat = report["pairs"][0]
    stat["mean_distance"] = str(Fraction(stat["source_distance"]) / 2)
    runner.reference[0] = (digest, (code, json.dumps(report).encode()))
    statuses = [s for _, st, _ in runner.check() for s in st]
    assert statuses[0].startswith("check_failed") and "mean_distance" in statuses[0]
    assert all(s == "ok" for s in statuses[1:])


def test_near_zero_budget_is_recorded_not_hung(tmp_path, monkeypatch):
    monkeypatch.setattr(bench_run, "OP_BUDGET_S", 0.000001)
    previous = signal.signal(signal.SIGALRM, bench_run._on_alarm)
    try:
        runner = _runner(tmp_path, "large-edges")
    finally:
        signal.signal(signal.SIGALRM, previous)
    statuses = [s for _, st, _ in runner.check() for s in st]
    assert statuses and all(s == "budget_exceeded" for s in statuses)


def test_refuses_to_run_without_the_program(tmp_path):
    bare = tmp_path / "bare"
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "corpus", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
