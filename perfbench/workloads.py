"""The two workloads, each returning its metrics and correctness verdict.

* ``single_query`` - one client in a closed loop through the fleet, every
  key distinct: the paper's single-query latency as a user sees it.
  Its traced run adds an open-loop phase on the same fleet: Poisson
  arrivals at ``OPEN_LOOP_QPS``, some repeating earlier requests, so the
  router cache, batching, queueing and core contention are measured too.
* ``train_step`` - closed-loop trainer steps: eager forward and backward.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field
from itertools import chain, islice
from typing import Dict, List

import common
import inputs
import layers
import serving
import training
from common import median, quantile


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    #: End-to-end metrics (tracing off) or per-layer metrics (tracing on).
    metrics: Dict[str, float]
    #: Further figures printed for the reader and not gated.
    notes: Dict[str, object] = field(default_factory=dict)
    checks: List[str] = field(default_factory=list)
    spans: common.SpanLog = field(default_factory=common.SpanLog)


def _serving_metrics(score: serving.Score, setup: List[float], seconds: float,
                     rss_mb: float) -> Dict[str, float]:
    return {
        "setup_s": median(setup),
        "latency_p50_ms": quantile(score.latencies, 0.5),
        "latency_p90_ms": quantile(score.latencies, 0.9),
        "goodput_per_s": score.good / seconds,
        "peak_rss_mb": rss_mb,
    }


def _serving_notes(score: serving.Score, setup: List[float]) -> Dict[str, object]:
    return {
        "clause_latency_p50_ms": quantile(score.clause_latencies, 0.5),
        "clause_requests": len(score.clause_latencies),
        "latency_p99_ms": quantile(score.latencies, 0.99),
        "failed_frac": score.failed / max(1, score.attempted),
        "errors": score.errors,
        "wrong_answers": score.wrong,
        "setup_runs_s": setup,
    }


def _alternate_overhead(run: serving.ServingRun) -> float:
    """p50 of requests recorded as spans minus p50 of those that were not."""
    traced = [o.latency_ms for i, o in enumerate(run.outcomes) if i % 2 == 0]
    plain = [o.latency_ms for i, o in enumerate(run.outcomes) if i % 2 == 1]
    return median(traced) - median(plain)


def _fleet_measure(router, loop, pids):
    """Run ``loop``; return it, the fleet's layer figures over the loop and
    its peak memory (this process, which holds the router, plus the
    largest replica)."""
    depths = router.metrics.histogram("serve.fleet.replica_queue_depth")
    depths_before = len(depths.values())
    before = router.stats()
    cpu_before = {pid: common.cpu_seconds(pid) for pid in pids}
    # This process is the router's; keep the benchmark's own inputs and
    # reference model out of the garbage collections it runs meanwhile.
    gc.freeze()
    run = loop()
    gc.unfreeze()
    after = router.stats()
    cpu = sum(common.cpu_seconds(pid) - cpu_before[pid] for pid in pids)
    served = [a["served"] - b["served"]
              for a, b in zip(after.replicas, before.replicas)]
    hits = after.cache_hits - before.cache_hits
    lookups = hits + after.cache_misses - before.cache_misses
    threads = max(common.thread_count(pid) for pid in pids)
    # Read now: the reference checks that follow grow this process.
    rss = {"router_rss_mb": common.self_peak_rss_mb(),
           "replica_rss_mb": max(common.peak_rss_mb(pid) for pid in pids)}
    fleet = {
        "serve.fleet.hit_rate": hits / max(1, lookups),
        "serve.fleet.depth_max": float(max(depths.values()[depths_before:],
                                           default=0)),
        "serve.fleet.balance": _balance(served),
        "serve.fleet.retries": float(after.retries - before.retries),
        "serve.fleet.shed": float(after.shed - before.shed),
        "serve.replica.cpu_ms_per_req": cpu * 1e3 / max(1, sum(served)),
        "serve.replica.threads": float(threads),
    }
    return run, fleet, rss


def _balance(served: List[int]) -> float:
    """Most over least busy replica; a replica that served none counts as one."""
    return max(served) / max(1, min(served))


def single_query(seed: int, seconds: float, trace: bool) -> Result:
    reference = serving.reference_grounder(seed)
    stream = inputs.iter_distinct_requests(seed)
    ready = list(islice(stream, int(seconds * serving.CLOSED_LOOP_PER_SECOND)))
    stream = chain(ready, stream)
    schedule = (inputs.open_loop_schedule(seed, serving.OPEN_LOOP_QPS, seconds,
                                          serving.REPEAT_FRACTION)
                if trace else [])
    router, setup = serving.set_up_fleet(seed)
    try:
        serving.warm_fleet(router)
        pids = serving.replica_pids()
        run, fleet, rss = _fleet_measure(
            router, lambda: serving.closed_loop(router, stream, seconds, trace),
            pids)
        if trace:
            mix, fleet, _ = _fleet_measure(
                router, lambda: serving.open_loop(router.submit, schedule, False),
                pids)
    finally:
        router.stop()
    answers = serving.reference_answers(reference, [o.request for o in run.outcomes])
    score = serving.score(run, answers, reference)
    # Closed loop: goodput per second the client spent waiting.
    busy = sum(o.latency_ms for o in run.outcomes) / 1e3
    result = _serving_result(run, score, setup, busy, rss)
    sample = [o.request for o in run.outcomes[:8]]
    _check(result, serving.compiled_matches_eager(reference, sample),
           f"compiled plans match eager bytes on {len(sample)} requests")
    result.notes["clause_share"] = (len(score.clause_latencies)
                                    / max(1, len(score.latencies)))
    result.notes["sources"] = inputs.source_counts([o.request for o in run.outcomes])
    if trace:
        result.metrics = _single_query_layers(reference, run, fleet)
        result.metrics["clause_latency_p50_ms"] = result.notes["clause_latency_p50_ms"]
        result.metrics.update(_open_loop(result, reference, mix, schedule))
    return result


def _single_query_layers(reference, run: serving.ServingRun,
                         fleet: Dict[str, float]) -> Dict[str, float]:
    subset = [o.request for o in run.outcomes[:serving.LAYER_REQUESTS]]
    log = run.spans
    out = layers.compile_in_process(reference)
    out.update(layers.engine_closed_loop(reference, subset, log))
    reference.grounder.uncompile()
    layers.model_layers(reference, subset, log)
    out.update(layers.layer_medians(log))

    fleet_p50 = median([o.latency_ms for o in run.outcomes[:len(subset)]])
    engine_p50 = median(log.durations_ms("engine.request"))
    grounder_p50 = median(log.durations_ms("grounder.call"))
    out["serve.fleet.overhead_ms"] = fleet_p50 - engine_p50
    out["serve.engine.wait_ms"] = engine_p50 - grounder_p50
    out.update(fleet)
    path = ("serve.fleet.overhead_ms", "serve.engine.wait_ms", "text.encode_ms",
            "lang.parse_ms", "graph.forward_ms", "detection.decode_ms",
            "detection.nms_ms")
    latency = median([o.latency_ms for o in run.outcomes])
    out["trace.reconcile_gap_ms"] = latency - sum(out[name] for name in path)
    out["trace.overhead_ms"] = _alternate_overhead(run)
    return out


def _open_loop(result: Result, reference, mix: serving.ServingRun,
               schedule) -> Dict[str, float]:
    """Score the traced run's open-loop phase and return its figures."""
    answers = serving.reference_answers(reference, [r for _, r in schedule])
    score = serving.score(mix, answers, reference)
    result.attempted += score.attempted
    result.failed += score.failed
    _check(result, score.wrong == 0,
           f"{score.attempted - score.errors - score.wrong} of "
           f"{score.attempted - score.errors} open-loop responses byte-identical "
           f"to the in-process reference")
    late_p99 = quantile(mix.late_ms, 0.99)
    _check(result, late_p99 <= serving.MAX_LATE_P99_MS,
           f"load generator on time: late p99 {late_p99:.2f} ms "
           f"<= {serving.MAX_LATE_P99_MS} ms")
    out = layers.compile_in_process(reference)
    out.update(layers.engine_open_loop(reference, schedule))
    reference.grounder.uncompile()
    out["loadgen.late_p99_ms"] = late_p99
    out["serve.mix.latency_p50_ms"] = quantile(score.latencies, 0.5)
    out["serve.mix.latency_p90_ms"] = quantile(score.latencies, 0.9)
    return out


def _serving_result(run, score, setup, seconds, rss) -> Result:
    metrics = _serving_metrics(score, setup, seconds, sum(rss.values()))
    result = Result(correct=True, attempted=score.attempted,
                    failed=score.failed, metrics=metrics,
                    notes={**_serving_notes(score, setup), **rss},
                    spans=run.spans)
    _check(result, score.wrong == 0,
           f"{score.attempted - score.errors - score.wrong} of "
           f"{score.attempted - score.errors} fleet responses byte-identical "
           f"to the in-process reference")
    return result


def train_step(seed: int, seconds: float, trace: bool) -> Result:
    trainer, setup = training.set_up(seed)
    log = common.SpanLog()
    times, losses = training.closed_loop(trainer, seconds, trace, log)
    good = training.finite(losses)
    result = Result(
        correct=True, attempted=len(losses), failed=len(losses) - good,
        metrics={
            "setup_s": median(setup),
            "latency_p50_ms": quantile(times, 0.5),
            "latency_p90_ms": quantile(times, 0.9),
            "goodput_per_s": good / (sum(times) / 1e3),
            "peak_rss_mb": common.self_peak_rss_mb(),
        },
        notes={"step_p50_ms": quantile(times, 0.5),
               "failed_frac": (len(losses) - good) / max(1, len(losses)),
               "setup_runs_s": setup},
        spans=log)
    if trace:
        parts = training.layers(trainer, log)
        latency = result.metrics["latency_p50_ms"]
        parts["trace.overhead_ms"] = median(times[0::2]) - median(times[1::2])
        parts["trace.reconcile_gap_ms"] = latency - sum(
            parts[name] for name in ("data.loader.encode_ms", "core.forward_ms",
                                     "core.losses_ms", "autograd.backward_ms",
                                     "optim.step_ms"))
        result.metrics = parts
    ok, detail = training.check_reference()
    _check(result, ok, detail)
    return result


def _check(result: Result, ok: bool, detail: str) -> None:
    result.checks.append(("ok   " if ok else "FAIL ") + detail)
    result.correct = result.correct and bool(ok)


WORKLOADS = {
    "single_query": single_query,
    "train_step": train_step,
}
