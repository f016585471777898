"""Model zoo — per-preset accuracy/latency matrix and heterogeneous fleet.

Two legs, both landing in ``results/zoo.txt``:

* **Matrix** — every fast-tier preset trains briefly on synthetic
  RefCOCO, then reports ACC@0.5 / MIoU and eager-vs-compiled per-query
  latency.  The point is not absolute accuracy (one epoch at toy scale)
  but that every registry entry earns its slot: all presets train,
  evaluate, and compile bit-exactly, and the variants genuinely differ.
* **Heterogeneous soak** — two presets behind one :class:`FleetRouter`
  with model-tagged requests and the preset-keyed shared cache.  Every
  response must be bit-identical to the answer a single-engine
  deployment of its preset would give (zero cross-preset serves).

The consolidated ``results/summary.json`` picks this up via
``run_all.py``.
"""

import dataclasses
import faulthandler
import time

import numpy as np
import pytest
from conftest import write_artifact

from repro.core import Grounder, YolloTrainer
from repro.data import REFCOCO, build_dataset
from repro.eval import evaluate_grounder
from repro.serve import (
    FleetConfig, FleetRouter, ReplicaSpec, preset_content_check, run_soak,
    timed_trace,
)
from repro.utils import seed_everything
from repro.zoo import (
    available_presets, build_model, build_preset_grounder, get_preset,
    lower_config,
)

pytestmark = pytest.mark.slow

SEED = 20260809
MATRIX_SCALE = 0.05
TRAIN_EPOCHS = 1
EVAL_SAMPLES = 24
LATENCY_REPEATS = 5

SOAK_PRESETS = ("tiny", "tiny-word2pix")
SOAK_SCALE = 0.03
SOAK_REQUESTS = 24
SOAK_RATE_QPS = 200.0


@pytest.fixture(autouse=True)
def _watchdog():
    faulthandler.dump_traceback_later(600.0, exit=True)
    yield
    faulthandler.cancel_dump_traceback_later()


def _per_query_ms(grounder, sample):
    grounder([sample])  # warm up (and, when compiled, trace the plan)
    best = min(
        _timed(grounder, sample) for _ in range(LATENCY_REPEATS))
    return best * 1e3


def _timed(grounder, sample):
    started = time.perf_counter()
    grounder([sample])
    return time.perf_counter() - started


def test_zoo_matrix_and_heterogeneous_soak(results_dir):
    seed_everything(SEED)
    dataset = build_dataset(REFCOCO.scaled(MATRIX_SCALE))
    maxlen = max(8, dataset.max_query_length)
    val = list(dataset["val"])[:EVAL_SAMPLES]
    assert val, "scaled dataset produced no validation samples"
    lines = [
        f"Model zoo matrix (synthetic RefCOCO @ scale {MATRIX_SCALE}, "
        f"{TRAIN_EPOCHS} epoch, n={len(val)} val samples, "
        f"best of {LATENCY_REPEATS} single-query timings)",
        f"  {'preset':<20} {'ACC@0.5':>8} {'MIoU':>7} "
        f"{'eager ms':>9} {'compiled ms':>12} {'speedup':>8}",
    ]
    boxes_by_preset = {}

    for name in available_presets(tier="fast"):
        seed_everything(SEED)
        config = lower_config(name, max_query_length=maxlen)
        model = build_model(name, vocab_size=len(dataset.vocab),
                            max_query_length=maxlen)
        YolloTrainer(model, dataset, config).train(epochs=TRAIN_EPOCHS)
        model.eval()
        grounder = Grounder(model, dataset.vocab)

        report = evaluate_grounder(grounder, val)
        eager_ms = _per_query_ms(grounder, val[0])
        eager_boxes = grounder(val[:4])
        grounder.compile()
        compiled_ms = _per_query_ms(grounder, val[0])
        compiled_boxes = grounder(val[:4])
        grounder.uncompile()
        assert np.array_equal(eager_boxes, compiled_boxes), (
            f"preset {name}: compiled inference diverged from eager")

        boxes_by_preset[name] = eager_boxes.tobytes()
        lines.append(
            f"  {name:<20} {report.acc_at_50:>8.3f} {report.miou:>7.3f} "
            f"{eager_ms:>9.2f} {compiled_ms:>12.2f} "
            f"{eager_ms / compiled_ms:>7.2f}x")

    assert len(boxes_by_preset) >= 5
    assert len(set(boxes_by_preset.values())) > 1, (
        "every preset predicted identical boxes — the variants are not real")

    lines += _heterogeneous_soak_leg()
    write_artifact(results_dir, "zoo.txt", "\n".join(lines))


def _heterogeneous_soak_leg():
    preset_kwargs = dict(dataset_name="RefCOCO", scale=SOAK_SCALE,
                         pretrain_steps=1)
    specs = [
        ReplicaSpec(builder=build_preset_grounder,
                    builder_kwargs=dict(preset_kwargs, preset=name),
                    model_id=name, max_batch=8, cache_size=64,
                    seed=SEED, dtype="float64")
        for name in SOAK_PRESETS
    ]

    seed_everything(SEED)
    dataset = build_dataset(REFCOCO.scaled(SOAK_SCALE))
    pool = list(dataset["val"]) or list(dataset["train"])
    trace = timed_trace(pool, SOAK_REQUESTS, rate_qps=SOAK_RATE_QPS,
                        repeat_fraction=0.5)
    for index, request in enumerate(trace):
        request.model = SOAK_PRESETS[index % len(SOAK_PRESETS)]

    # Per preset, the answer a single-engine deployment would give.
    content_check = preset_content_check(trace, SEED, **preset_kwargs)

    config = FleetConfig(replicas=len(SOAK_PRESETS), max_queue=256,
                         default_deadline=60.0, router_cache=256)
    with FleetRouter(specs, config) as router:
        assert router.wait_healthy(120.0), "fleet never became healthy"
        report = run_soak(router, trace, content_check=content_check)
        router.wait_healthy(30.0)
        report = dataclasses.replace(report, stats=router.stats())

    violations = report.check(expected_replicas=len(SOAK_PRESETS))
    assert not violations, "; ".join(violations)
    assert report.lost == 0
    assert report.content_mismatches == 0, (
        "a fleet response diverged from its preset's single-engine answer")

    return [
        "",
        f"Heterogeneous fleet soak ({' + '.join(SOAK_PRESETS)}, "
        f"{SOAK_REQUESTS} requests @ {SOAK_RATE_QPS:.0f} qps, "
        f"one replica per preset)",
        f"  ok/shed/deadline/failed/lost : {report.ok}/{report.shed}/"
        f"{report.deadline}/{report.failed}/{report.lost}",
        f"  cross-preset serves          : {report.content_mismatches} "
        f"(every response bit-identical to its preset's engine)",
        f"  router cache hit rate        : "
        f"{report.stats.cache_hit_rate:.2%} epoch={report.stats.cache_epoch}",
        f"  aggregate p99                : "
        f"{report.stats.latency_p99 * 1e3:8.2f} ms",
    ]
