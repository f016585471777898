"""Process-based worker group: launch, monitor, rebuild.

:class:`WorkerGroup` turns a :class:`WorkerSpec` into ``world_size``
OS processes (``spawn`` start method — everything crossing the process
boundary must be picklable, which is why task builders are module-level
functions taking primitive kwargs).  The launcher wires a full pipe
mesh between workers for the collective layer plus one report pipe per
worker back to the controller, then watches for completion.

Failure model
-------------
A worker that dies (crash, kill, injected :class:`SimulatedCrash`)
closes its pipes; peers observe EOF (:class:`PeerLostError`) or a
receive timeout (:class:`CollectiveTimeout`) at the next collective and
report ``peer-lost`` to the controller before exiting.  The controller
tears the generation down and relaunches at ``world_size - dead`` —
graceful degradation rather than a lost run.  Rank 0 checkpoints
through the ordinary :class:`~repro.runtime.TrainingSupervisor`
machinery, and the rebuilt generation resumes from the newest
checkpoint; the checkpoint fingerprint deliberately excludes world
size, so a smaller group accepts the larger group's checkpoints.
Injected fault plans apply to generation 0 only — a rebuilt group runs
clean.  Relaunches go through :func:`repro.runtime.retry_call` for
jittered backoff between generations.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional

from repro.dist.collective import Collective, CollectiveError
from repro.dist.trainer import DistConfig, DistributedTrainer
from repro.obs import MetricsRegistry, get_registry
from repro.runtime.faults import (
    EXIT_PEER_LOST, EXIT_SIMULATED_CRASH, FaultPlan, SimulatedCrash,
    start_child,
)
from repro.runtime.retry import RetryExhaustedError, retry_call
from repro.utils.logging import ProgressLogger
from repro.utils.seeding import spawn_rng


class WorkerGroupError(RuntimeError):
    """The group could not complete the run (rebuild budget exhausted)."""


class _GenerationFailed(RuntimeError):
    """Internal: one generation lost workers and must be rebuilt."""

    def __init__(self, dead_ranks: List[int], detail: str):
        super().__init__(detail)
        self.dead_ranks = dead_ranks


@dataclass
class WorkerSpec:
    """Everything a worker process needs to reconstruct its replica.

    ``builder`` must be a module-level callable (picklable by qualified
    name) returning a data-parallel task; ``task_kwargs`` are passed to
    it verbatim inside the worker.
    """

    builder: Callable[..., Any]
    task_kwargs: Dict[str, Any] = field(default_factory=dict)
    dist: DistConfig = field(default_factory=DistConfig)
    seed: int = 0
    dtype: str = "float64"
    checkpoint_dir: Optional[str] = None
    checkpoint_every: int = 0
    keep: int = 3
    resume: bool = False
    fault_plan: Optional[FaultPlan] = None
    fault_rank: Optional[int] = None
    warmup: Optional[Callable[..., Any]] = None
    warmup_kwargs: Dict[str, Any] = field(default_factory=dict)
    profile: bool = False
    profile_out: Optional[str] = None
    profile_top: int = 12
    quiet: bool = True


@dataclass
class DistReport:
    """What a completed (possibly rebuilt) distributed run produced."""

    world_size: int            #: world size of the finishing generation
    launched_world_size: int   #: world size requested at launch
    generations: int           #: generations run (1 = no rebuilds)
    result: Any = None         #: rank 0's task result (e.g. history)
    final_state: Optional[Dict[str, Any]] = None  #: rank 0 state_dict
    supervisor: Optional[Dict[str, Any]] = None   #: rank 0 run counters
    profile_render: Optional[str] = None
    rank_metrics: List[Dict] = field(default_factory=list)
    wall_seconds: float = 0.0

    def merged_metrics(self) -> MetricsRegistry:
        """Aggregate every rank's metrics dump into one registry."""
        registry = MetricsRegistry()
        for dump in self.rank_metrics:
            registry.merge(dump)
        return registry


# ----------------------------------------------------------------------
# Worker process entry point (module-level: spawn-picklable)
# ----------------------------------------------------------------------
def _worker_entry(spec: WorkerSpec, rank: int, world_size: int,
                  generation: int, peer_conns: Dict[int, Any],
                  report_conn) -> None:
    start_child(spec.dtype, spec.seed)
    registry = get_registry()
    registry.gauge("dist.rank").set(rank)
    registry.gauge("dist.world_size").set(world_size)
    registry.gauge("dist.generation").set(generation)
    collective = Collective(rank, world_size, peer_conns,
                            timeout=spec.dist.timeout, metrics=registry)
    logger = ProgressLogger(f"dist-rank{rank}", enabled=not spec.quiet)
    try:
        task = spec.builder(**spec.task_kwargs)
        trainer = DistributedTrainer(task, collective, spec.dist,
                                     metrics=registry)

        # Resume happens on rank 0 only (it owns the checkpoint store);
        # sync_initial_state then replicates whatever rank 0 holds —
        # restored checkpoint or fresh initialisation — to every rank.
        if rank == 0 and spec.resume and spec.checkpoint_dir:
            from repro.runtime.checkpoint import (
                CheckpointManager, config_fingerprint,
            )

            manager = CheckpointManager(
                spec.checkpoint_dir, keep=spec.keep,
                fingerprint=config_fingerprint(trainer.fingerprint_data()),
                logger=logger,
            )
            checkpoint = manager.load_latest()
            if checkpoint is not None:
                task.load_state_dict(checkpoint.payload)
                logger.log(f"resuming from iteration {checkpoint.iteration}")
        trainer.sync_initial_state()

        from repro.runtime.supervisor import TrainingSupervisor

        fault_plan = (
            spec.fault_plan
            if generation == 0 and rank == spec.fault_rank else None
        )
        supervisor = TrainingSupervisor(
            trainer,
            checkpoint_dir=spec.checkpoint_dir if rank == 0 else None,
            checkpoint_every=spec.checkpoint_every if rank == 0 else 0,
            keep=spec.keep,
            resume=False,  # handled collectively above
            fault_plan=fault_plan,
            logger=logger,
        )

        profile_render = None
        if spec.profile and rank == 0:
            from repro.obs import profile

            with profile() as prof:
                report = supervisor.run()
            if spec.profile_out:
                prof.export_chrome_trace(spec.profile_out)
            profile_render = prof.render(top=spec.profile_top)
        else:
            report = supervisor.run()

        collective.barrier()  # everyone finished before anyone reports
        payload: Dict[str, Any] = {"metrics": registry.dump()}
        if rank == 0:
            payload.update(
                result=task.result(),
                final_state=task.state_dict(),
                supervisor={
                    "iterations": report.iterations,
                    "resumed_from": report.resumed_from,
                    "skipped_steps": report.skipped_steps,
                    "rollbacks": report.rollbacks,
                    "checkpoint_writes": report.checkpoint_writes,
                    "wall_seconds": report.wall_seconds,
                },
                profile_render=profile_render,
            )
        report_conn.send(("done", rank, payload))
        report_conn.close()
        collective.close()
    except SimulatedCrash:
        # Die the way a killed process does: no report, no cleanup —
        # peers find out through EOF on the pipes.
        os._exit(EXIT_SIMULATED_CRASH)
    except CollectiveError as exc:
        try:
            report_conn.send(("peer-lost", rank, {"error": str(exc)}))
        except (BrokenPipeError, OSError):
            pass
        os._exit(EXIT_PEER_LOST)
    except BaseException as exc:  # noqa: BLE001 — ship the failure home
        try:
            report_conn.send((
                "error", rank,
                {"error": repr(exc), "traceback": traceback.format_exc()},
            ))
        except (BrokenPipeError, OSError):
            pass
        sys.exit(1)


# ----------------------------------------------------------------------
# Controller
# ----------------------------------------------------------------------
class WorkerGroup:
    """Launch and supervise one data-parallel worker fleet."""

    def __init__(self, spec: WorkerSpec, world_size: int,
                 max_rebuilds: int = 2, poll_interval: float = 0.05,
                 logger: Optional[ProgressLogger] = None):
        if world_size < 1:
            raise ValueError("world_size must be >= 1")
        self.spec = spec
        self.world_size = world_size
        self.max_rebuilds = max_rebuilds
        self.poll_interval = poll_interval
        self.logger = logger or ProgressLogger("dist-group", enabled=False)
        self._ctx = multiprocessing.get_context("spawn")

    # ------------------------------------------------------------------
    def run(self) -> DistReport:
        """Run to completion, rebuilding after worker failures."""
        started = time.perf_counter()
        if self.spec.warmup is not None:
            self.spec.warmup(**self.spec.warmup_kwargs)

        # Each retry attempt is one generation; on failure the closure
        # shrinks the world, switches to resume, strips injected faults,
        # and re-raises so retry_call supplies the jittered backoff.
        state = {"spec": self.spec, "world": self.world_size, "generation": 0}

        def attempt() -> DistReport:
            try:
                return self._run_generation(
                    state["spec"], state["world"], state["generation"]
                )
            except _GenerationFailed as failure:
                survivors = state["world"] - max(1, len(failure.dead_ranks))
                self.logger.log(
                    f"generation {state['generation']} lost rank(s) "
                    f"{failure.dead_ranks}: {failure}"
                )
                if survivors < 1:
                    raise WorkerGroupError(
                        f"no surviving workers: {failure}"
                    ) from failure
                state["world"] = survivors
                state["generation"] += 1
                state["spec"] = replace(
                    state["spec"],
                    resume=bool(state["spec"].checkpoint_dir),
                    fault_plan=None,
                    fault_rank=None,
                )
                raise

        try:
            report = retry_call(
                attempt,
                attempts=self.max_rebuilds + 1,
                base_delay=0.1,
                retry_on=(_GenerationFailed,),
                describe="distributed worker group",
                rng=spawn_rng("dist-rebuild"),
                logger=self.logger,
            )
        except RetryExhaustedError as exc:
            raise WorkerGroupError(
                f"distributed run failed after "
                f"{state['generation'] + 1} generation(s): {exc}"
            ) from exc
        report.launched_world_size = self.world_size
        report.generations = state["generation"] + 1
        report.wall_seconds = time.perf_counter() - started
        return report

    # ------------------------------------------------------------------
    def _run_generation(self, spec: WorkerSpec, world: int,
                        generation: int) -> DistReport:
        # Full pipe mesh between workers + a report pipe per worker.
        mesh: Dict[int, Dict[int, Any]] = {r: {} for r in range(world)}
        for i in range(world):
            for j in range(i + 1, world):
                conn_i, conn_j = self._ctx.Pipe(duplex=True)
                mesh[i][j] = conn_i
                mesh[j][i] = conn_j
        report_conns = {}
        processes: Dict[int, Any] = {}
        for rank in range(world):
            parent_conn, child_conn = self._ctx.Pipe(duplex=False)
            report_conns[rank] = parent_conn
            process = self._ctx.Process(
                target=_worker_entry,
                args=(spec, rank, world, generation, mesh[rank], child_conn),
                name=f"dist-worker-{generation}-{rank}",
                daemon=True,
            )
            process.start()
            processes[rank] = process
            child_conn.close()
        # Close the controller's handles on the worker mesh so a dead
        # worker's peers see EOF instead of a forever-open pipe.
        for rank in range(world):
            for conn in mesh[rank].values():
                conn.close()

        payloads: Dict[int, Dict[str, Any]] = {}
        failures: Dict[int, str] = {}
        try:
            pending = set(range(world))
            # After the first failure, keep draining reports for a grace
            # window so every casualty is classified (peer-lost reports
            # mark survivors; silent exits mark the truly dead ranks).
            grace_deadline: Optional[float] = None
            while pending:
                if failures and grace_deadline is None:
                    grace_deadline = time.time() + 2.0
                if grace_deadline is not None and time.time() > grace_deadline:
                    break
                progressed = False
                for rank in sorted(pending):
                    conn = report_conns[rank]
                    if conn.poll(0):
                        try:
                            kind, _, payload = conn.recv()
                        except EOFError:
                            failures[rank] = "worker died without reporting"
                            pending.discard(rank)
                            continue
                        progressed = True
                        pending.discard(rank)
                        if kind == "done":
                            payloads[rank] = payload
                        elif kind == "peer-lost":
                            failures[rank] = f"peer lost: {payload['error']}"
                        else:
                            failures[rank] = payload.get(
                                "traceback", payload.get("error", "unknown")
                            )
                    elif not processes[rank].is_alive():
                        # Dead without a final report — a crash.
                        failures[rank] = (
                            f"worker exited with code "
                            f"{processes[rank].exitcode}"
                        )
                        pending.discard(rank)
                if not progressed:
                    time.sleep(self.poll_interval)
        finally:
            deadline = time.time() + 10.0
            for rank, process in processes.items():
                process.join(max(0.1, deadline - time.time()))
                if process.is_alive():
                    process.terminate()
                    process.join(5.0)
            for conn in report_conns.values():
                conn.close()

        if failures:
            # "peer lost" reporters are survivors; the truly dead ranks
            # are the ones that never reported or crashed outright.
            dead = sorted(
                rank for rank, reason in failures.items()
                if "peer lost" not in reason
            ) or sorted(failures)[:1]
            detail = "; ".join(
                f"rank {rank}: {reason.strip().splitlines()[-1]}"
                for rank, reason in sorted(failures.items())
            )
            hard_errors = [
                reason for reason in failures.values()
                if "peer lost" not in reason and "worker exited" not in reason
                and "worker died" not in reason
            ]
            if hard_errors and len(hard_errors) == len(failures):
                # Every failure is a real exception (bad config, bug):
                # rebuilding would fail identically, so surface it.
                raise WorkerGroupError(detail)
            raise _GenerationFailed(dead, detail)

        root = payloads[0]
        return DistReport(
            world_size=world,
            launched_world_size=world,
            generations=generation + 1,
            result=root.get("result"),
            final_state=root.get("final_state"),
            supervisor=root.get("supervisor"),
            profile_render=root.get("profile_render"),
            rank_metrics=[payloads[r]["metrics"] for r in sorted(payloads)],
        )
