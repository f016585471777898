"""Self-test of the benchmark.

    PYTHONPATH=src python -m pytest perfbench -q            # fast checks
    PYTHONPATH=src python -m pytest perfbench -q -m slow    # single_query too

Checks that the metric tables agree with ``BENCHMARK.json``, that a run
emits every named metric with its unit, and that a deliberately wrong
reference answer is counted as a failure.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from types import SimpleNamespace

import numpy as np
import pytest

import run

run.prepare_environment()

from repro.core.response import GroundingResponse  # noqa: E402

import inputs  # noqa: E402
import serving  # noqa: E402
import training  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as _handle:
    BENCHMARK = json.load(_handle)


def _units(entries):
    return {entry["name"]: entry["unit"] for entry in entries}


def _run(workload: str, trace: int, seconds: str = "1"):
    """Run the benchmark command as the driver does; return (code, last JSON)."""
    out = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", seconds, "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=300)
    return out.returncode, json.loads(out.stdout.strip().splitlines()[-1])


def _assert_emits(result, trace: int) -> None:
    expected = _units(BENCHMARK["per_layer" if trace else "end_to_end"])
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0


def test_tables_match_benchmark_json():
    assert _units(BENCHMARK["end_to_end"]) == run.END_TO_END
    assert _units(BENCHMARK["per_layer"]) == run.PER_LAYER
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("trace", [0, 1])
def test_train_step_emits_every_metric(trace):
    code, result = _run("train_step", trace)
    assert code == 0
    _assert_emits(result, trace)


@pytest.mark.slow
@pytest.mark.parametrize("trace", [0, 1])
def test_single_query_emits_every_metric(trace):
    code, result = _run("single_query", trace, seconds="2")
    assert code == 0
    _assert_emits(result, trace)


def test_wrong_fleet_answer_is_a_failure():
    request = inputs.Request(np.zeros((3, 4, 4)), "the red ball", "refcoco",
                             ("digest", "the red ball"))
    right = GroundingResponse(boxes=[[1.0, 2.0, 3.0, 4.0]], scores=[0.5])
    wrong = GroundingResponse(boxes=[[1.0, 2.0, 3.0, 4.0 + 1e-12]], scores=[0.5])
    answered = serving.ServingRun([serving.Outcome(request, 5.0, right),
                                   serving.Outcome(request, 5.0, wrong)])
    stub = SimpleNamespace(grounder=SimpleNamespace(max_query_length=8))
    score = serving.score(answered, {request.key: right}, stub)
    assert (score.wrong, score.failed, score.good) == (1, 1, 1)
    result = workloads._serving_result(answered, score, [1.0], 1.0, {"router_rss_mb": 1.0})
    assert result.correct is False and result.failed == 1


def test_wrong_reference_loss_fails_the_run(tmp_path, monkeypatch):
    with open(training.REFERENCE_PATH) as handle:
        recorded = json.load(handle)
    recorded["losses"][1] *= 1.0 + 1e-4
    path = tmp_path / "losses.json"
    path.write_text(json.dumps(recorded))
    monkeypatch.setattr(training, "REFERENCE_PATH", str(path))
    stdout = io.StringIO()
    with redirect_stdout(stdout):
        code = run.main(["--workload", "train_step", "--seed", "5",
                         "--seconds", "0.5", "--trace", "0"])
    assert code == 1
    assert json.loads(stdout.getvalue().strip().splitlines()[-1])["correct"] is False
