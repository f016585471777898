"""Serving layer: micro-batched, cached, fault-tolerant grounding inference.

``ServeEngine`` queues incoming (image, query) requests, batches them
dynamically (up to ``max_batch`` requests; under backlog the worker
waits at most ``max_wait`` seconds for stragglers, while an idle worker
runs a lone request at once), runs one ``no_grad`` forward per batch
through any grounder implementing the batch protocol, and answers
repeats from a response cache.  ``ServerStats`` reports p50/p95/p99
latency, throughput, queue depth, cache hit rate, and the batch-size
histogram.

``FleetRouter`` scales that engine out: N replica subprocesses behind a
least-loaded router with bounded-queue backpressure (typed
``Overloaded`` shedding), per-request deadlines with one cross-replica
retry, crash detection + respawn, and rolling hot weight reloads
verified by a checksum handshake.  A router-tier response cache
answers repeats before admission; a completed reload bumps its weights
epoch, dropping every stale box the instant new weights are live, and
hits survive replica respawns.  Both response caches (and a compiled
model's plan cache) are one :class:`repro.utils.cache.VersionedLRU`,
which counts its own hits, misses and evictions into the tier's
:class:`~repro.obs.MetricsRegistry` (``serve.cache.*`` /
``serve.fleet.cache.*``).  ``run_soak`` replays a timed trace against the fleet — with
deterministic fault injection — and asserts the no-lost-requests /
no-stale-responses / p99 SLO invariants.

Both tiers speak two answer protocols: the legacy ``(4,)`` top-1 box
and the ranked :class:`~repro.core.GroundingResponse` (top-k boxes,
calibrated ``not_found`` decision) — see :mod:`repro.core.response`.
Scenario-tagged traces (:mod:`repro.scenarios`) additionally let the
soak harness report per-scenario p99 and assert that no-target queries
are never answered "found".
"""

from repro.serve.cache import image_digest
from repro.serve.engine import (
    EngineDrainTimeout,
    EngineStopped,
    ServeEngine,
)
from repro.serve.fleet import (
    DeadlineExceeded,
    FleetConfig,
    FleetError,
    FleetRouter,
    FleetStats,
    FleetStopped,
    Overloaded,
    ReloadError,
    ReloadReport,
    ReplicaLost,
    UnknownModel,
)
from repro.serve.replica import (
    LatencyGrounder,
    ReplicaSpec,
    build_latency_grounder,
    load_checkpoint_payload,
    state_checksum,
)
from repro.serve.soak import SoakReport, preset_content_check, run_soak
from repro.serve.stats import ServerStats, StatsRecorder
from repro.serve.trace import (
    TimedRequest,
    TraceRequest,
    synthetic_trace,
    timed_trace,
)

__all__ = [
    "image_digest",
    "ServeEngine",
    "EngineStopped",
    "EngineDrainTimeout",
    "ServerStats",
    "StatsRecorder",
    "TraceRequest",
    "TimedRequest",
    "synthetic_trace",
    "timed_trace",
    "FleetRouter",
    "FleetConfig",
    "FleetStats",
    "FleetError",
    "Overloaded",
    "DeadlineExceeded",
    "ReplicaLost",
    "FleetStopped",
    "ReloadError",
    "ReloadReport",
    "UnknownModel",
    "ReplicaSpec",
    "LatencyGrounder",
    "build_latency_grounder",
    "state_checksum",
    "load_checkpoint_payload",
    "SoakReport",
    "run_soak",
    "preset_content_check",
]
