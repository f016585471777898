"""The serving workload: closed and open loops through a ``FleetRouter``
of compiled, ranked, clause-conditioned ``yollo`` replicas with seeded,
untrained weights.

Every response is checked byte for byte against an eager in-process
reference grounder built from the same seed.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.response import responses_equal
from repro.data.refcoco import GroundingSample
from repro.lang import clause_token_masks, pad_clause_masks, parse
from repro.serve import FleetConfig, FleetRouter, ReplicaSpec
from repro.serve.fleet import FleetError
from repro.text.tokenizer import normalize_query, tokenize
from repro.utils.seeding import seed_everything
from repro.zoo import build_preset_grounder, lower_config

import common
from inputs import Request

PRESET = "yollo"
REPLICAS = 2
#: Batch limit of each replica; set-up warms one compiled plan per size.
#: Below ``ReplicaSpec``'s default of 8: batches here average about 1.1,
#: and warming sizes 5 to 8 would triple set-up time without serving a
#: single batch of those sizes.
MAX_BATCH = 4
#: Set-up is repeated this many times per run and the median reported.
SETUP_REPEATS = 3
#: A request slower than this misses: it counts against goodput.
LATENCY_LIMIT_MS = 100.0
#: Open-loop phase of the traced ``single_query`` run.
OPEN_LOOP_QPS = 20.0
REPEAT_FRACTION = 0.3
#: Distinct requests generated before a closed-loop run, per second of
#: run; the stream continues lazily if the program answers faster.
CLOSED_LOOP_PER_SECOND = 70
#: The open-loop run is invalid when its generator sends the 99th
#: percentile request later than this after its scheduled time.
MAX_LATE_P99_MS = 20.0
#: Concurrent request pairs that warm the fleet before measuring.
WARM_PAIRS = 4
#: Requests the in-process layer measurements replay (traced runs).
LAYER_REQUESTS = 120
RESULT_TIMEOUT_S = 60.0


# ----------------------------------------------------------------------
# Grounders
# ----------------------------------------------------------------------
def serve_sample(request: Request) -> GroundingSample:
    """The sample a replica's engine builds for this request."""
    query = normalize_query(request.query)
    return GroundingSample(image=request.image, query=query,
                           tokens=tokenize(query), target_box=np.zeros(4),
                           target_index=-1, scene=None, split="serve")


def _warm_sample(height: int, width: int) -> GroundingSample:
    return GroundingSample(image=np.zeros((3, height, width)),
                           query="the red ball", tokens=["the", "red", "ball"],
                           target_box=np.zeros(4), target_index=-1,
                           scene=None, split="serve")


def build_grounder(compiled: bool):
    """The ``yollo`` preset as a ranked, clause-conditioned grounder."""
    ranked = build_preset_grounder(PRESET, compiled=compiled)
    ranked.grounder.clause_conditioning = True
    return ranked


def warm_up(ranked, max_batch: int) -> None:
    """Compile one plan per batch size (flat queries take the plan path)."""
    config = ranked.grounder.model.config
    sample = _warm_sample(config.image_height, config.image_width)
    for size in range(1, max_batch + 1):
        ranked([sample] * size)


def build_replica_grounder(max_batch: int):
    """Replica builder: compiled and warm before the replica reports ready."""
    ranked = build_grounder(compiled=True)
    warm_up(ranked, max_batch)
    return ranked


def reference_grounder(seed: int):
    """Eager grounder with the replicas' weights (same seed, same build)."""
    seed_everything(seed)
    return build_grounder(compiled=False)


def is_clause(ranked, query: str) -> bool:
    """Whether the grounder runs this query on the clause-conditioned path."""
    length = ranked.grounder.max_query_length
    tree = parse(normalize_query(query))
    return pad_clause_masks([clause_token_masks(tree, length)], length) is not None


def reference_answers(ranked, requests: Sequence[Request]) -> Dict:
    """Reference response per distinct key, computed in batches."""
    todo: Dict = {}
    for request in requests:
        todo.setdefault(request.key, request)
    unique = list(todo.values())
    answers = {}
    for start in range(0, len(unique), MAX_BATCH):
        chunk = unique[start:start + MAX_BATCH]
        for request, response in zip(chunk, ranked([serve_sample(r) for r in chunk])):
            answers[request.key] = response
    return answers


def compiled_matches_eager(ranked, requests: Sequence[Request]) -> bool:
    """Compiled plans give the eager path's exact bytes on these requests."""
    samples = [serve_sample(r) for r in requests]
    eager = [ranked([s])[0] for s in samples]
    ranked.grounder.compile()
    try:
        compiled = [ranked([s])[0] for s in samples]
    finally:
        ranked.grounder.uncompile()
    return all(responses_equal(a, b) for a, b in zip(eager, compiled))


# ----------------------------------------------------------------------
# Fleet
# ----------------------------------------------------------------------
def start_fleet(seed: int) -> Tuple[FleetRouter, float]:
    """Spawn the fleet; seconds until every replica is built, warm and up."""
    spec = ReplicaSpec(builder=build_replica_grounder,
                       builder_kwargs={"max_batch": MAX_BATCH},
                       model_id=PRESET, max_batch=MAX_BATCH, seed=seed)
    router = FleetRouter(spec, FleetConfig(replicas=REPLICAS))
    start = common.now()
    router.start()
    if not router.wait_healthy(timeout=300.0):
        router.stop()
        raise RuntimeError("fleet replicas did not become healthy")
    return router, common.now() - start


def set_up_fleet(seed: int) -> Tuple[FleetRouter, List[float]]:
    """Set up ``SETUP_REPEATS`` times; keep the last fleet running."""
    times = []
    for attempt in range(SETUP_REPEATS):
        router, seconds = start_fleet(seed)
        times.append(seconds)
        if attempt < SETUP_REPEATS - 1:
            router.stop()
    return router, times


def warm_fleet(router: FleetRouter) -> None:
    """Have every replica answer before the first timed request.

    Requests go in concurrent pairs, so the least-loaded router sends one
    to each replica.  Their blank images share no key with any workload
    request, so no cache entry carries over into the measurement.
    """
    config = lower_config(PRESET)
    shape = (3, config.image_height, config.image_width)
    for pair in range(WARM_PAIRS):
        futures = [router.submit(np.full(shape, pair + half / 2.0), "the red ball")
                   for half in range(2)]
        for future in futures:
            future.result(timeout=RESULT_TIMEOUT_S)


def replica_pids() -> List[int]:
    pids = []
    for pid in common.child_pids(os.getpid()):
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as handle:
                if b"spawn_main" in handle.read():
                    pids.append(pid)
        except OSError:
            continue
    return pids


@dataclass
class Outcome:
    """One request as the client saw it."""

    request: Request
    latency_ms: float
    response: object = None
    error: Optional[str] = None


@dataclass
class ServingRun:
    outcomes: List[Outcome] = field(default_factory=list)
    #: Open loop: seconds from the schedule's start to the last answer.
    elapsed: float = 0.0
    late_ms: List[float] = field(default_factory=list)
    spans: common.SpanLog = field(default_factory=common.SpanLog)


def _result(future: Future):
    try:
        return future.result(timeout=RESULT_TIMEOUT_S), None
    except FleetError as exc:
        return None, repr(exc)


def closed_loop(router: FleetRouter, requests: Iterator[Request],
                seconds: float, trace: bool) -> ServingRun:
    """One client: send, wait for the answer, repeat, for ``seconds``.

    With ``trace``, every other request is recorded as a span, so the
    run also measures what recording costs.
    """
    run = ServingRun()
    end = common.now() + seconds
    index = 0
    while common.now() < end:
        request = next(requests)
        sent = common.now()
        response, error = _result(router.submit(request.image, request.query))
        done = common.now()
        if trace and index % 2 == 0:
            run.spans.add("fleet.request", sent, done, request=index)
        run.outcomes.append(Outcome(request, (done - sent) * 1e3, response, error))
        index += 1
    return run


def open_loop(submit, schedule: Sequence[Tuple[float, Request]],
              trace: bool) -> ServingRun:
    """Send ``schedule`` through ``submit`` from this thread, on time.

    Latency runs from each request's due time, so a stall also delays
    every request due behind it.  With ``trace``, every other request is
    recorded as a span when it completes.
    """
    run = ServingRun()
    origin = common.now() + 0.05
    completed = [0.0] * len(schedule)
    # A future's waiters can wake before its callbacks have run.
    stamped = [threading.Event() for _ in schedule]
    futures = []
    for index, (offset, request) in enumerate(schedule):
        due = origin + offset
        delay = due - common.now()
        if delay > 0:
            time.sleep(delay)
        sent = common.now()
        run.late_ms.append((sent - due) * 1e3)
        future = submit(request.image, request.query)

        def stamp(_, index=index, due=due):
            completed[index] = common.now()
            stamped[index].set()
            if trace and index % 2 == 0:
                run.spans.add("fleet.request", due, completed[index], request=index)

        future.add_done_callback(stamp)
        futures.append(future)
    for index, (future, (offset, request)) in enumerate(zip(futures, schedule)):
        response, error = _result(future)
        stamped[index].wait(RESULT_TIMEOUT_S)
        run.outcomes.append(Outcome(request, (completed[index] - origin - offset) * 1e3,
                                    response, error))
    run.elapsed = max(completed, default=origin) - origin
    return run


# ----------------------------------------------------------------------
# Scoring
# ----------------------------------------------------------------------
@dataclass
class Score:
    attempted: int
    errors: int
    wrong: int
    good: int
    latencies: List[float]
    clause_latencies: List[float]

    @property
    def failed(self) -> int:
        return self.errors + self.wrong


def score(run: ServingRun, answers: Dict, ranked) -> Score:
    """Check every response against the reference; collect the latencies
    of the right answers, overall and on the clause-conditioned path."""
    errors = wrong = good = 0
    latencies, clause_latencies = [], []
    clause: Dict[str, bool] = {}
    for outcome in run.outcomes:
        query = outcome.request.query
        if query not in clause:
            clause[query] = is_clause(ranked, query)
        if outcome.error is not None:
            errors += 1
            continue
        if not responses_equal(outcome.response, answers[outcome.request.key]):
            wrong += 1
            continue
        latencies.append(outcome.latency_ms)
        if clause[query]:
            clause_latencies.append(outcome.latency_ms)
        if outcome.latency_ms <= LATENCY_LIMIT_MS:
            good += 1
    return Score(len(run.outcomes), errors, wrong, good, latencies,
                 clause_latencies)
