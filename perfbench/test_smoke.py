"""Smoke test of the benchmark at a tiny length: every workload, the traced
run, a missing probe target, and the refusal to run without sources."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = ["online-monitored", "online-fast", "cold-cli"]
RUNS = [(w, 0) for w in WORKLOADS] + [("online-monitored", 1)]


def _command(workload: str, trace: int) -> list[str]:
    return [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
            "--seconds", "0", "--trace", str(trace), "--digits", "12"]


@pytest.fixture(scope="module")
def results():
    """All smoke runs, two at a time."""
    out = {}
    for pair in (RUNS[:2], RUNS[2:]):
        procs = {run: subprocess.Popen(_command(*run), cwd=ROOT, stdout=subprocess.PIPE,
                                       stderr=subprocess.PIPE, text=True) for run in pair}
        for run, proc in procs.items():
            stdout, stderr = proc.communicate(timeout=300)
            assert proc.returncode == 0, stderr
            lines = stdout.strip().splitlines()
            out[run] = json.loads(lines[-2])["diagnostics"], json.loads(lines[-1])
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(results, workload):
    diagnostics, result = results[(workload, 0)]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 12
    assert diagnostics["failed_ops_frac"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_digests_repeat(results):
    # the monitor never changes a digit, so both library workloads emit the
    # same streams for one seed, and the traced run reproduces them too
    digests = {results[run][0]["digest"] for run in RUNS if run[0] != "cold-cli"}
    assert len(digests) == 1


def test_traced_run(results):
    diagnostics, result = results[("online-monitored", 1)]
    assert result["correct"] and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert diagnostics["missing_targets"] == []
    assert all(v["value"] is not None for v in result["metrics"].values())
    assert result["metrics"]["online_mul.check.ms_per_digit"]["value"] > 0
    assert result["metrics"]["field.realquad_new_per_digit"]["value"] > 0


def test_missing_target_reads_null(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(HERE))
    import olnum.online_mul
    import probes

    monkeypatch.delattr(olnum.online_mul, "_check_step")
    tracer = probes.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == {"olnum.online_mul._check_step"}
    metrics = probes.layer_metrics(tracer, {}, {}, set())
    assert metrics["online_mul.check.ms_per_digit"]["value"] is None
    assert metrics["online_div.check.ms_per_digit"]["value"] == 0


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
