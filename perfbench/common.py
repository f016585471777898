"""Shared helpers: quantiles, in-memory spans, /proc readings, environment.

Everything here observes the program from outside: wall clocks around
calls, ``/proc`` for processes the benchmark starts, and the library
versions the program runs on.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

#: Clock used for every timing in the benchmark.
now = time.perf_counter

#: BLAS/OpenMP variables recorded with every run; the benchmark never
#: sets them, so the program's own thread defaults are what it measures.
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile ``q`` in [0, 1]; 0.0 for no samples."""
    if len(values) == 0:
        return 0.0
    return float(np.quantile(np.asarray(values, dtype=np.float64), q))


def median(values: Sequence[float]) -> float:
    return quantile(values, 0.5)



@dataclass
class Span:
    name: str
    start: float
    end: float
    #: Request (or step) the span belongs to; -1 for run-level spans.
    request: int = -1
    parent: Optional[str] = None


@dataclass
class SpanLog:
    """Spans kept in memory during a run and written out once at the end."""

    spans: List[Span] = field(default_factory=list)

    def add(self, name: str, start: float, end: float, request: int = -1,
            parent: Optional[str] = None) -> None:
        self.spans.append(Span(name, start, end, request, parent))

    def durations_ms(self, name: str) -> List[float]:
        return [(s.end - s.start) * 1e3 for s in self.spans if s.name == name]

    def write(self, path: str) -> str:
        """Write spans as Chrome ``trace_event`` JSON (open in a trace viewer)."""
        origin = min((s.start for s in self.spans), default=0.0)
        events = [{
            "name": s.name, "ph": "X", "pid": 0, "tid": 0,
            "ts": (s.start - origin) * 1e6, "dur": (s.end - s.start) * 1e6,
            "args": {"request": s.request, "parent": s.parent},
        } for s in self.spans]
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as handle:
            json.dump({"traceEvents": events}, handle)
        return path


def _load_backbone(name: str) -> None:
    from repro.backbone import load_pretrained_backbone
    from repro.utils.seeding import seed_everything

    seed_everything(0)
    load_pretrained_backbone(name, steps=1)


def fill_backbone_cache(name: str = "resnet50") -> None:
    """Pre-train (once per checkout) the cached backbone every build loads.

    The cached weights depend on the global seed at the moment the cache
    is filled, so it is filled under a fixed seed before any workload
    seeds anything; later builds, replicas included, only load it.  A
    child process does it, so pre-training never shows in this
    process's peak memory.
    """
    import multiprocessing

    child = multiprocessing.get_context("spawn").Process(
        target=_load_backbone, args=(name,))
    child.start()
    child.join()
    if child.exitcode != 0:
        raise RuntimeError(f"backbone pre-training failed ({child.exitcode})")


# ----------------------------------------------------------------------
# /proc readings
# ----------------------------------------------------------------------
def _status_field(pid: int, name: str) -> int:
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith(name + ":"):
                return int(line.split()[1])
    raise KeyError(name)


def peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MB."""
    return _status_field(pid, "VmHWM") / 1024.0


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def thread_count(pid: int) -> int:
    return _status_field(pid, "Threads")


def cpu_seconds(pid: int) -> float:
    """User plus system CPU time a live process has used so far."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    # fields[11], fields[12] are utime and stime (fields 14, 15 of stat).
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def child_pids(parent: int) -> List[int]:
    """Live children of ``parent`` (the fleet's replica processes)."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        # fields[0] is the state, fields[1] the parent pid.
        if int(fields[1]) == parent and fields[0] != "Z":
            found.append(int(entry))
    return sorted(found)


def stop_resource_tracker() -> None:
    """Stop and reap the helper process ``multiprocessing`` starts with the
    first spawned replica, so no process the run started outlives it."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


# ----------------------------------------------------------------------
# Environment record
# ----------------------------------------------------------------------
def environment() -> Dict[str, object]:
    """What the numbers depend on besides the code: cores, BLAS, versions."""
    from repro.autograd import get_default_dtype

    blas = {}
    try:
        config = np.show_config(mode="dicts")
        info = config["Build Dependencies"]["blas"]
        blas = {"name": info.get("name"), "version": info.get("version"),
                "config": info.get("openblas configuration")}
    except (TypeError, KeyError):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas": blas,
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARIABLES},
        "numpy": np.__version__,
        "python": platform.python_version(),
        "default_dtype": np.dtype(get_default_dtype()).name,
        "executable": os.path.basename(sys.executable),
    }
