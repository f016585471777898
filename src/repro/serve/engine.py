"""Micro-batching inference engine — the serving layer over any grounder.

Requests enter a queue; a worker thread collects up to ``max_batch`` of
them and runs ONE batched forward pass under ``no_grad`` through the
wrapped grounder.  Batching is work-conserving: a request that finds the
worker idle runs at once, and the worker holds the window (at most
``max_wait`` seconds after the first request) only under backlog, when
requests queued up while the previous batch was in flight.  Repeated
(image, query) pairs are answered from a
:class:`~repro.utils.cache.VersionedLRU` without touching the model at
all; the cache counts its own hits and misses into the engine's
registry (``serve.cache.*``).  Every request's latency, every
batch's size, and the queue depth are recorded into a
:class:`repro.serve.stats.StatsRecorder`.

Any object implementing the repo's batch-grounder protocol works:
``grounder(samples) -> (n, 4) boxes`` over :class:`GroundingSample`
lists — :class:`repro.core.Grounder` (true batched forward) and
:class:`repro.twostage.TwoStageGrounder` (per-sample internally, but
still cached and instrumented) both qualify.  Grounders that return a
list of :class:`repro.core.GroundingResponse` (ranked boxes +
confidences + an explicit not-found decision, e.g.
:class:`repro.core.RankedGrounder` or the scenario oracles) are served
through exactly the same batching and caching paths: responses are
frozen (deep read-only copies) on cache insertion and thawed (deep
writable copies) on the way out, so a caller can never mutate a cached
ranked list.  One engine serves one protocol — a cache key is
``(image_digest, query)``, so mixing single-box and ranked grounders
behind one cache would alias entries of different shapes.
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Callable, Iterable, List, Sequence, Tuple

import numpy as np

from repro.autograd import no_grad
from repro.core.response import (
    GroundingResponse,
    freeze_response,
    thaw_response,
)
from repro.data.refcoco import GroundingSample
from repro.obs import MetricsRegistry, trace_span
from repro.serve.cache import image_digest
from repro.serve.stats import CACHE_PREFIX, ServerStats, StatsRecorder
from repro.text.tokenizer import normalize_query, tokenize
from repro.utils.cache import VersionedLRU

#: Queue sentinel that tells the worker to drain out.
_SHUTDOWN = object()


class EngineStopped(RuntimeError):
    """The engine was stopping (or stopped) before this request was served.

    Raised synchronously by :meth:`ServeEngine.submit` for requests that
    race an in-progress :meth:`ServeEngine.stop`, and set on any future
    whose request was still queued when the worker drained out — no
    future is ever left permanently unresolved by a shutdown.
    """


class EngineDrainTimeout(RuntimeError):
    """``stop`` timed out waiting for the worker to drain.

    The worker thread is still alive and still referenced (``running``
    stays truthful); call :meth:`ServeEngine.stop` again to finish the
    shutdown once the in-flight batch completes.
    """


@dataclass
class _Pending:
    """One queued request awaiting its batch."""

    sample: GroundingSample
    key: Tuple[str, str]
    future: Future
    enqueued: float


def _make_sample(image: np.ndarray, query: str) -> GroundingSample:
    """Wrap a raw request into the sample type grounders consume."""
    return GroundingSample(
        image=image,
        query=query,
        tokens=tokenize(query),
        target_box=np.zeros(4),
        target_index=-1,
        scene=None,
        split="serve",
    )


class ServeEngine:
    """Serve grounding requests with dynamic micro-batching and caching.

    Parameters
    ----------
    grounder:
        Any batch grounder (``samples -> (n, 4) boxes``).
    max_batch:
        Largest batch one forward pass may carry.
    max_wait:
        Upper bound, in seconds, on the batching window: under backlog
        the worker waits at most this long after the first queued
        request for stragglers before running a partial batch.  An idle
        worker never waits; it runs whatever is queued at once.  Zero
        still batches whatever has already accumulated in the queue
        (burst traffic fills batches without ever sleeping).
    cache_size:
        LRU entries for (image digest, query) -> box; 0 disables.
    metrics:
        Optional :class:`repro.obs.MetricsRegistry` the engine publishes
        its ``serve.*`` metrics into; defaults to a private registry
        (readable via :attr:`metrics`).

    Use as a context manager, or call :meth:`start`/:meth:`stop`.
    ``submit`` starts the worker lazily, so the one-liner
    ``Grounder(...).serve().ground(image, "red dog")`` also works.
    Submitting after a completed ``stop`` restarts the worker (documented
    lazy restart); submitting while a ``stop`` is draining raises
    :class:`EngineStopped`, and a shutdown resolves every still-queued
    future with :class:`EngineStopped` — no request is ever lost.
    """

    def __init__(
        self,
        grounder: Callable[[Sequence[GroundingSample]], np.ndarray],
        max_batch: int = 16,
        max_wait: float = 0.002,
        cache_size: int = 256,
        metrics: MetricsRegistry = None,
    ):
        if max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        if max_wait < 0:
            raise ValueError("max_wait must be non-negative")
        self.grounder = grounder
        self.max_batch = max_batch
        self.max_wait = max_wait
        self._queue: "queue.Queue" = queue.Queue()
        self._recorder = StatsRecorder(registry=metrics)
        self._cache = VersionedLRU(cache_size, registry=self._recorder.registry,
                                   prefix=CACHE_PREFIX)
        self._thread: threading.Thread = None
        # Guards the submit/stop race: enqueueing a request and pushing
        # the shutdown sentinel are serialised, so a request either lands
        # ahead of the sentinel (and is served) or observes ``_stopping``
        # and is rejected with ``EngineStopped`` — never silently lost
        # behind the sentinel.
        self._lifecycle = threading.Lock()
        self._stopping = False

    @property
    def metrics(self) -> MetricsRegistry:
        """The registry this engine's ``serve.*`` metrics live in."""
        return self._recorder.registry

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> "ServeEngine":
        if not self.running:
            self._thread = threading.Thread(
                target=self._worker, name="serve-engine", daemon=True
            )
            self._thread.start()
        return self

    @property
    def queue_depth(self) -> int:
        """Requests currently queued ahead of the worker (approximate)."""
        return self._queue.qsize()

    def stop(self, timeout: float = 30.0) -> None:
        """Drain queued requests, then stop the worker thread.

        Raises :class:`EngineDrainTimeout` if the worker has not drained
        within ``timeout`` seconds; the thread reference is kept (so
        :attr:`running` stays truthful) and ``stop`` may be called again.
        Any request still queued after the worker exits — possible only
        for requests that raced a previous timed-out stop — has its
        future resolved with :class:`EngineStopped` rather than being
        left to hang.
        """
        with self._lifecycle:
            if not self.running:
                self._thread = None
                self._fail_leftovers()
                return
            self._stopping = True
            self._queue.put(_SHUTDOWN)
            thread = self._thread
        try:
            thread.join(timeout)
            if thread.is_alive():
                raise EngineDrainTimeout(
                    f"serve worker still draining after {timeout}s; "
                    f"engine is still running — call stop() again"
                )
            self._thread = None
            self._fail_leftovers()
        finally:
            with self._lifecycle:
                self._stopping = False

    def _fail_leftovers(self) -> None:
        """Resolve any still-queued requests with ``EngineStopped``."""
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                return
            if item is _SHUTDOWN:
                continue
            if not item.future.done():
                item.future.set_exception(EngineStopped(
                    "engine stopped before this request was served"
                ))

    def __enter__(self) -> "ServeEngine":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Request API
    # ------------------------------------------------------------------
    def submit(self, image: np.ndarray, query: str) -> Future:
        """Enqueue one request; the future resolves to the grounder's
        answer — a (4,) box, or a :class:`~repro.core.GroundingResponse`
        when the wrapped grounder speaks the ranked protocol.

        Submitting to a fully stopped engine restarts the worker (the
        documented lazy-start behaviour backing the one-liner usage);
        submitting *while* :meth:`stop` is draining raises
        :class:`EngineStopped` instead of racing the shutdown sentinel.
        """
        now = time.perf_counter()
        # Normalise once at the front door: whitespace/case/punctuation
        # variants of the same query share one cache entry (and one
        # model pass) in every tier downstream.
        query = normalize_query(str(query))
        key = (image_digest(image), query)
        # Uncounted probe: the request's final outcome (hit, miss, or
        # dedup hit) is credited once, at completion time.
        cached = self._cache.get(key, count=False)
        future: Future = Future()
        if cached is not None:
            self._recorder.record_request()
            self._cache.count_hit()
            self._recorder.record_completion(time.perf_counter() - now)
            future.set_result(thaw_response(cached))
            return future
        with self._lifecycle:
            if self._stopping:
                raise EngineStopped("engine is stopping; request rejected")
            self._recorder.record_request()
            self.start()
            self._queue.put(_Pending(_make_sample(image, query), key, future, now))
        return future

    def ground(self, image: np.ndarray, query: str, timeout: float = 60.0) -> np.ndarray:
        """Blocking convenience wrapper around :meth:`submit`."""
        return self.submit(image, query).result(timeout=timeout)

    def ground_many(self, requests: Iterable, timeout: float = 300.0):
        """Submit a burst of requests and gather the answers in order.

        ``requests`` yields objects with ``image`` and ``query``
        attributes (e.g. :class:`repro.serve.TraceRequest`) or
        ``(image, query)`` tuples.  Single-box grounders yield a stacked
        ``(n, 4)`` array; ranked grounders yield the list of
        :class:`~repro.core.GroundingResponse` in submission order.
        """
        futures = []
        for request in requests:
            if hasattr(request, "image"):
                image, query = request.image, request.query
            else:
                image, query = request
            futures.append(self.submit(image, query))
        results = [future.result(timeout=timeout) for future in futures]
        if any(isinstance(r, GroundingResponse) for r in results):
            return results
        return np.stack(results) if results else np.empty((0, 4))

    def stats(self) -> ServerStats:
        """Snapshot of throughput, latency, cache, and batching telemetry."""
        return self._recorder.snapshot()

    def reset_stats(self) -> None:
        self._recorder.reset()

    def clear_cache(self) -> None:
        """Drop every cached response; safe against in-flight batches.

        Used by the serving replica when new weights are hot-loaded:
        boxes computed by the old weights must not survive the swap.
        The cache's version is bumped, so a batch that was already
        running its forward pass when the clear happened cannot insert
        its (old-weights) results afterwards — its waiters still get
        their boxes, but nothing enters the cache.
        """
        self._cache.bump()

    # ------------------------------------------------------------------
    # Worker
    # ------------------------------------------------------------------
    def _collect_batch(self, first: _Pending) -> Tuple[List[_Pending], bool]:
        """Gather up to ``max_batch`` requests behind ``first``.

        Work-conserving: the worker holds the window (at most
        ``max_wait``) only under backlog, i.e. when other requests were
        already queued behind ``first`` because they arrived while the
        previous batch was in flight.  An idle worker takes whatever is
        queued without waiting, so a lone request runs at once.
        """
        batch = [first]
        window = self.max_wait if self._queue.qsize() else 0.0
        deadline = time.perf_counter() + window
        keep_running = True
        while len(batch) < self.max_batch:
            remaining = deadline - time.perf_counter()
            try:
                if remaining > 0:
                    item = self._queue.get(timeout=remaining)
                else:
                    item = self._queue.get_nowait()
            except queue.Empty:
                break
            if item is _SHUTDOWN:
                keep_running = False
                break
            batch.append(item)
        return batch, keep_running

    def _drain_compile_events(self) -> None:
        """Attribute plan compilations to ``serve.compile_ms``.

        Compiled grounders (``Grounder.compile()``) expose a plan cache;
        each batch may trigger at most a handful of compiles (one per new
        input shape), and recording them separately keeps warm-up cost
        out of the steady-state latency distribution.
        """
        plan_cache = getattr(self.grounder, "plan_cache", None)
        if plan_cache is None:
            return
        for _key, milliseconds in plan_cache.drain_compile_events():
            self._recorder.record_compile(milliseconds)

    def _resolve(self, pending: _Pending, value, hit: bool) -> None:
        latency = time.perf_counter() - pending.enqueued
        self._cache.count_hit() if hit else self._cache.count_miss()
        self._recorder.record_completion(latency)
        pending.future.set_result(thaw_response(value))

    @staticmethod
    def _normalize_results(raw, count: int) -> List:
        """Coerce a grounder's batch output to one value per sample.

        Single-box grounders return an array reshapable to ``(n, 4)``;
        ranked grounders return a list of ``GroundingResponse``.  Either
        way the worker gets a flat list it can cache and resolve with
        the same copy-in/copy-out discipline.
        """
        if (isinstance(raw, (list, tuple))
                and any(isinstance(v, GroundingResponse) for v in raw)):
            if len(raw) != count or not all(
                    isinstance(v, GroundingResponse) for v in raw):
                raise TypeError(
                    f"ranked grounder must return one GroundingResponse "
                    f"per sample ({count}), got {len(raw)} item(s)")
            return list(raw)
        boxes = np.asarray(raw, dtype=np.float64).reshape(count, 4)
        return [boxes[i] for i in range(count)]

    def _run_batch(self, batch: List[_Pending]) -> None:
        depth = self._queue.qsize()
        version = self._cache.version
        # Re-check the cache at execution time (a request queued during a
        # burst may have been answered by an earlier batch by now) and
        # collapse identical in-flight requests onto one forward slot.
        groups: "dict[Tuple[str, str], List[_Pending]]" = {}
        for pending in batch:
            cached = self._cache.get(pending.key, count=False)
            if cached is not None:
                self._resolve(pending, cached, hit=True)
                continue
            groups.setdefault(pending.key, []).append(pending)
        if not groups:
            return
        samples = [group[0].sample for group in groups.values()]
        try:
            with trace_span("serve.batch"), no_grad():
                raw = self.grounder(samples)
            values = self._normalize_results(raw, len(samples))
        except Exception as exc:  # surface the failure on every waiter
            for group in groups.values():
                for pending in group:
                    pending.future.set_exception(exc)
            return
        finally:
            self._drain_compile_events()
        self._recorder.record_batch(len(samples), depth)
        # A clear_cache() since this batch started (hot weight reload)
        # means these results came from retired weights: the versioned
        # put refuses them, and the waiters are still served.
        for key, value in zip(groups, values):
            self._cache.put(key, freeze_response(value), version=version)
        for group, value in zip(groups.values(), values):
            # The first requester paid for the forward pass; in-flight
            # duplicates were deduplicated, which counts as cache service.
            for index, pending in enumerate(group):
                self._resolve(pending, value, hit=index > 0)

    def _worker(self) -> None:
        while True:
            item = self._queue.get()
            if item is _SHUTDOWN:
                return
            batch, keep_running = self._collect_batch(item)
            self._run_batch(batch)
            if not keep_running:
                return
