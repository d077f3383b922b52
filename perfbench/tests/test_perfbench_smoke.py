"""Tiny-size runs of every workload, and the benchmark's command contract."""

import json
import os
import shutil
import subprocess
import sys

import pytest
import workloads
from priorbench import evaluation, training
from priorbench.errors import DivergenceError

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)

TINY = workloads.Scale(
    epochs=1, n_per_condition=40, setup_epochs=1, setup_repeats=2,
    latency_rounds=2, latency_warmup=1, latency_timed=3,
    eval=evaluation.EvalSettings(n_generate=64, diffusion_steps=4, flow_steps=3,
                                 diversity_pairs=10, multimodality_reps=3),
    flow_steps=(2, 4), diffusion_steps=(4, 5))


def _ops_per_cycle(workload):
    """One train() run, then a latency call per round and an evaluate per step count."""
    return 1 + (TINY.latency_rounds + 1) * len(TINY.steps(workload))


def _run(workload, trace, tmp_path, seed=5):
    run = workloads.Run(workload, seed, 0.0, TINY, str(tmp_path), log=lambda line: None)
    run.set_up()
    run.measure(trace=trace)
    return run, run.result(trace, import_s=0.0)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload, tmp_path):
    _, result = _run(workload, False, tmp_path)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == _ops_per_cycle(workload)
    names = [name for name, _, _, _ in workloads.END_TO_END]
    assert list(result["metrics"]) == names
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(workload, tmp_path):
    _, result = _run(workload, True, tmp_path)
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [name for name, _ in workloads.PER_LAYER]


def test_a_library_error_counts_as_a_failed_operation(tmp_path, monkeypatch):
    run = workloads.Run("flow", 5, 0.0, TINY, str(tmp_path), log=lambda line: None)
    run.set_up()

    def diverge(*args, **kwargs):
        raise DivergenceError("injected")
    monkeypatch.setattr(training, "train", diverge)
    run.measure(trace=False)
    result = run.result(False, import_s=0.0)
    assert not result["correct"]
    assert result["failed"] == 1 and result["attempted"] == _ops_per_cycle("flow")


def test_a_changed_epoch_log_is_a_failed_check(tmp_path):
    run = workloads.Run("flow", 5, 0.0, TINY, str(tmp_path), log=lambda line: None)
    run.set_up()
    run.first_output = (b"not the log\n", 0.0)
    run.measure(trace=False)
    assert run.ops.failed == 1


def test_benchmark_json_lists_the_metrics_the_code_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == [
        tuple(m) for m in workloads.END_TO_END]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(workloads.PER_LAYER)


def test_without_the_sources_the_command_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "flow", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
