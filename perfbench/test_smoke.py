"""Smoke test of the benchmark at tiny scale.

Runs every workload untraced and traced, with the output and count checks,
and checks that each run reports exactly the metrics ``BENCHMARK.json``
declares.  Run from the repository root::

    python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

from run import WORKLOADS  # noqa: E402
from scenarios import layer_metrics, LayerCounts, MQPCounts, run_workload  # noqa: E402
from spans import SpanRecorder  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
    SPEC = json.load(handle)


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_is_correct_and_complete(workload, trace, tmp_path):
    outcome = run_workload(
        workload, seed=3, seconds=0.3, trace=trace,
        workdir=str(tmp_path / "work"), scale="tiny",
    )
    assert outcome.correct, outcome.notes
    assert outcome.attempted >= 1
    assert outcome.failed == 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {(m["name"], m["unit"]) for m in declared} == {
        (name, unit) for name, (_, unit) in outcome.metrics.items()
    }
    for name, (value, _) in outcome.metrics.items():
        assert value is not None, f"{name} missing"
    if not trace:
        assert all(value > 0 for value, _ in outcome.metrics.values())
    else:
        assert outcome.metrics["trace.unattributed_share"][0] < 0.25
    assert not (tmp_path / "work").exists()


def test_missing_layer_is_reported_not_raised():
    recorder = SpanRecorder()
    assert not recorder.wrap(object(), "store_xml", "repository.store")
    assert not recorder.wrap(None, "parse", "xmlstore.parse")
    metrics = layer_metrics(recorder, LayerCounts(), MQPCounts(), 1.0, 1.0, 1.0)
    assert metrics["repository.store_self_us_per_doc"][0] is None
    assert metrics["xmlstore.parse_us_per_doc"][0] is None
    assert metrics["pipeline.batch_self_us_per_doc"][0] is None
    assert metrics["core.match_us_per_alert"][0] == 0.0


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only the benchmark, the run fails cleanly."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench")
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "alert-match",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode != 0
    assert '"correct"' not in result.stdout
