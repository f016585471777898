"""Deterministic fault injection for exercising recovery paths.

A :class:`FaultPlan` describes exactly which faults fire and when —
"inject NaN into the gradients at iteration 3", "raise ``IOError`` on
the second checkpoint write", "corrupt the checkpoint file after the
first write", "crash the process before iteration 5".  The supervisor
and checkpoint manager call the plan's hooks at the corresponding
points, so every recovery path (skip-step, rollback, checkpoint
fallback, resume) is testable without real hardware faults.

Faults default to *fire-once* semantics: after a fault fires it is
spent, modelling transient failures.  Set ``fire_once=False`` for
persistent faults (e.g. a permanently failing disk) to exercise
graceful-degradation paths instead.

Spawned children (training workers, serving replicas) share one exit
protocol: :func:`start_child` bootstraps them, and they exit with
:data:`EXIT_SIMULATED_CRASH` or :data:`EXIT_PEER_LOST`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, Optional, Set

import numpy as np


class SimulatedCrash(RuntimeError):
    """Injected process death; tests catch this to simulate a kill."""


#: Exit status of a spawned child (training worker or serving replica)
#: that died of a :class:`SimulatedCrash`: no drain, no report.
EXIT_SIMULATED_CRASH = 17
#: Exit status of a spawned child whose peer or pipe went away.
EXIT_PEER_LOST = 18


def start_child(dtype: str, seed: int) -> None:
    """Bootstrap a spawned child: default dtype and global seed.

    ``dtype`` is ``"float64"`` or anything else for float32, as carried
    by the worker and replica specs.
    """
    from repro.autograd import set_default_dtype
    from repro.utils.seeding import seed_everything

    set_default_dtype(np.float64 if dtype == "float64" else np.float32)
    seed_everything(seed)


def corrupt_file(path: str, mode: str = "truncate") -> None:
    """Damage a file on disk the way real faults do.

    ``truncate`` keeps only the first half of the file (torn write);
    ``flip`` inverts a byte in the payload region (bit rot); ``zero``
    overwrites the payload with zeros (bad sector).
    """
    with open(path, "rb") as handle:
        raw = handle.read()
    if mode == "truncate":
        damaged = raw[: max(1, len(raw) // 2)]
    elif mode == "flip":
        position = (3 * len(raw)) // 4
        damaged = raw[:position] + bytes([raw[position] ^ 0xFF]) + raw[position + 1:]
    elif mode == "zero":
        keep = min(len(raw), 16)
        damaged = raw[:keep] + b"\x00" * (len(raw) - keep)
    else:
        raise ValueError(f"unknown corruption mode {mode!r}")
    with open(path, "wb") as handle:
        handle.write(damaged)


@dataclass
class FaultPlan:
    """Schedule of injected faults, keyed by iteration or write index.

    Iterations are 1-based (the first training step is iteration 1);
    checkpoint write indices are 0-based and count *attempted* writes.
    """

    nan_grad_at: Set[int] = field(default_factory=set)
    nonfinite_loss_at: Set[int] = field(default_factory=set)
    crash_at_iteration: Optional[int] = None
    checkpoint_io_error_on: Set[int] = field(default_factory=set)
    corrupt_checkpoint_on: Set[int] = field(default_factory=set)
    corruption_mode: str = "flip"
    eval_error_at: Set[int] = field(default_factory=set)
    #: Serving-fleet faults: replica id -> 1-based request ordinal at
    #: which that replica process dies upon receipt (simulated kill).
    kill_replica_on_request: Dict[int, int] = field(default_factory=dict)
    fire_once: bool = True
    _fired: Set[str] = field(default_factory=set, repr=False)

    def _fires(self, kind: str, key: int, scheduled: bool) -> bool:
        if not scheduled:
            return False
        tag = f"{kind}:{key}"
        if self.fire_once and tag in self._fired:
            return False
        self._fired.add(tag)
        return True

    # ------------------------------------------------------------------
    # Training-step hooks (called by the supervisor)
    # ------------------------------------------------------------------
    def before_step(self, iteration: int) -> None:
        """Raise :class:`SimulatedCrash` before the given iteration runs."""
        if self._fires("crash", iteration, iteration == self.crash_at_iteration):
            raise SimulatedCrash(f"injected crash before iteration {iteration}")

    def mutate_gradients(self, iteration: int, parameters) -> None:
        """Poison the first parameter's gradient with NaN."""
        if not self._fires("nan-grad", iteration, iteration in self.nan_grad_at):
            return
        for param in parameters:
            if param.grad is not None:
                param.grad.flat[0] = np.nan
                return

    def mutate_loss(self, iteration: int, loss: float) -> float:
        if self._fires("nan-loss", iteration, iteration in self.nonfinite_loss_at):
            return float("nan")
        return loss

    # ------------------------------------------------------------------
    # Serving-fleet hooks (called by repro.serve.replica)
    # ------------------------------------------------------------------
    def on_replica_request(self, replica_id: int, ordinal: int) -> None:
        """Crash replica ``replica_id`` on receiving its Nth request.

        Raises :class:`SimulatedCrash`, which the replica entry point
        turns into an ``os._exit`` — the process dies mid-service with
        requests in flight, exactly like a real kill, so the router's
        requeue/respawn paths are exercised deterministically.
        """
        scheduled = self.kill_replica_on_request.get(replica_id) == ordinal
        if self._fires("replica-kill", replica_id, scheduled):
            raise SimulatedCrash(
                f"injected crash of replica {replica_id} on request {ordinal}"
            )

    def on_eval(self, iteration: int) -> None:
        if self._fires("eval", iteration, iteration in self.eval_error_at):
            raise RuntimeError(f"injected evaluation failure at iteration {iteration}")

    # ------------------------------------------------------------------
    # Checkpoint hooks (called by the CheckpointManager)
    # ------------------------------------------------------------------
    def on_checkpoint_write(self, index: int) -> None:
        if self._fires("ckpt-io", index, index in self.checkpoint_io_error_on):
            raise IOError(f"injected IO error on checkpoint write #{index}")

    def after_checkpoint_write(self, index: int, path: str) -> None:
        if self._fires("ckpt-corrupt", index, index in self.corrupt_checkpoint_on):
            if os.path.exists(path):
                corrupt_file(path, mode=self.corruption_mode)
