"""Self-tests of the benchmark: span arithmetic, repeatable counts, metadata."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tracer import END, NAME, PARENT, PER_LAYER, START, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spans(rows):
    """Rows of (start, end, parent) as tracer span rows."""
    out = np.zeros((len(rows), 9))
    for i, (start, end, parent) in enumerate(rows):
        out[i, [NAME, START, END, PARENT]] = (i, start, end, parent)
    return out


def test_self_time_subtracts_union_of_children():
    rows = [
        (0.0, 10.0, -1),   # root
        (1.0, 3.0, 0),     # children overlap: union [1, 5]
        (2.0, 5.0, 0),
        (6.0, 7.0, 0),
        (1.5, 2.0, 1),     # grandchild counts against its parent only
    ]
    assert self_times(spans(rows)) == pytest.approx([5.0, 1.5, 3.0, 1.0, 0.5])


def test_self_time_clips_children_to_parent_and_leaves():
    rows = [(0.0, 4.0, -1), (3.0, 6.0, 0), (10.0, 11.0, -1)]
    assert self_times(spans(rows)) == pytest.approx([3.0, 3.0, 1.0])


def traced_run(workload, work):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "run", "--workload", workload,
         "--seed", "3", "--work", str(work), "--seconds", "0", "--trace", "1", "--quick"],
        env=env, capture_output=True, text=True, timeout=120, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["failed"] == 0, result["messages"]
    assert result["attempted"] > 0
    return result


INTEGER_COUNTS = ["spectral.fft_calls_per_step", "spectral.series_matrix.calls",
                  "rigidbody.hat.calls"]


@pytest.mark.parametrize("workload", ["evolve-2ch-n256", "flowmap-2dp-n1024", "rigidbody"])
def test_traced_runs_repeat_counts_and_csvs(workload, tmp_path):
    first_run = traced_run(workload, tmp_path / "a")
    second_run = traced_run(workload, tmp_path / "b")
    assert first_run["hashes"] == second_run["hashes"]
    first, second = first_run["per_layer"], second_run["per_layer"]
    for key in INTEGER_COUNTS:
        assert first[key] == second[key], key
    if workload == "evolve-2ch-n256":
        assert first["spectral.fft_calls_per_step"] == int(first["spectral.fft_calls_per_step"]) > 0
    if workload == "flowmap-2dp-n1024":
        assert first["spectral.series_matrix.calls"] > 0
    else:
        assert first["spectral.series_matrix.calls"] == 0
    if workload == "rigidbody":
        assert first["rigidbody.hat.calls"] == 4 * 50   # four RK4 stages, 50 quick steps


def test_benchmark_json_names_the_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == PER_LAYER
    assert {m["name"] for m in spec["end_to_end"]} == {
        "wall_s", "setup_s", "work_per_s", "peak_rss_mb"}


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rigidbody", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
