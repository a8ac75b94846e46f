"""Tiny-shape runs through each workload's code path, traced and untraced."""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import run
import runner
import workloads as W

BENCH = Path(__file__).resolve().parent.parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())

TINY = dict(teacher_ngf=4, student_ngf=2, ndf=4, train_samples=2,
            test_samples=2, warmup_steps=1, rounds=2)


def tiny(name: str) -> W.Workload:
    w = W.WORKLOADS[name]
    tap = "stem" if w.tap == "stem" else "res2"
    return replace(w, name="tiny-" + name, resolution=32, tap=tap, **TINY)


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run(name, trace, tmp_path):
    w = tiny(name)
    report = runner.run(w, seed=3, seconds=0.01, trace=trace, workdir=tmp_path,
                        trace_path=tmp_path / "trace.json" if trace else None)
    assert report.problems == []
    assert report.correct and report.failed == 0
    n_eval = w.test_samples * (2 if w.task == "cycle" else 1)
    assert report.attempted >= w.warmup_steps + 2 + n_eval
    section = "per_layer" if trace else "end_to_end"
    assert set(report.metrics) == {m["name"] for m in SPEC[section]}
    for m in SPEC[section]:
        value, unit = report.metrics[m["name"]]
        assert unit == m["unit"] and value == value  # not NaN
    if trace:
        events = json.loads((tmp_path / "trace.json").read_text())["traceEvents"]
        assert {"conv2d", "backward", "student", "step"} <= {e["name"] for e in events}
    else:
        assert all(report.metrics[m["name"]][0] > 0 for m in SPEC["end_to_end"])


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(W.WORKLOADS)
    assert run.WORKLOAD_NAMES == tuple(W.WORKLOADS)


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "cycle64",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
