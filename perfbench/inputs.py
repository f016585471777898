"""Seeded request generation for the serving workloads.

Requests are drawn in equal shares from four sources: RefCOCO-style
``build_dataset`` samples and the ``driving``, ``crowded`` and
``compositional`` scenarios.  The same seed always yields the same
requests; the program under test only ever sees the generated images
and query strings.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Iterator, List, Tuple

import numpy as np

from repro.data import REFCOCO, build_dataset
from repro.scenarios import get_scenario
from repro.serve.cache import image_digest
from repro.text.tokenizer import normalize_query
from repro.utils.seeding import seed_everything

SOURCES = ("refcoco", "driving", "crowded", "compositional")


@dataclass
class Request:
    image: np.ndarray
    query: str
    source: str
    #: (image digest, normalised query): the key both cache tiers use.
    key: Tuple[str, str]


def _source_stream(name: str, seed: int, stream: int, index: int) -> Iterator:
    """Endless stream of one source's samples, generated in chunks."""
    chunk = 0
    while True:
        if name == "refcoco":
            # build_dataset draws from the global seed and the spec's
            # tag, so each chunk gets its own tag.
            seed_everything(seed)
            spec = replace(REFCOCO.scaled(0.25),
                           seed_tag=f"perfbench-{stream}-{chunk}")
            dataset = build_dataset(spec)
            samples = dataset.all_samples()
        else:
            rng = np.random.default_rng([seed, stream, index, chunk])
            samples = get_scenario(name).eval_samples(16, rng=rng)
        yield from samples
        chunk += 1


def iter_distinct_requests(seed: int, stream: int = 0) -> Iterator[Request]:
    """Endless stream of requests with pairwise distinct cache keys.

    Each ``stream`` number gives its own independent stream for a seed.
    """
    rng = np.random.default_rng([seed, stream, 7])
    streams = {name: _source_stream(name, seed, stream, i)
               for i, name in enumerate(SOURCES)}
    seen = set()
    while True:
        name = SOURCES[int(rng.integers(len(SOURCES)))]
        for sample in streams[name]:
            key = (image_digest(sample.image), normalize_query(sample.query))
            if key not in seen:
                seen.add(key)
                yield Request(sample.image, sample.query, name, key)
                break


def open_loop_schedule(seed: int, rate_qps: float, seconds: float,
                       repeat_fraction: float) -> List[Tuple[float, Request]]:
    """``rate_qps * seconds`` Poisson arrivals, some repeating earlier ones.

    The exponential gaps are rescaled to span exactly ``seconds``, so
    every seed offers the same load.  With probability ``repeat_fraction``
    an arrival repeats a uniformly chosen earlier request; otherwise it
    is a new distinct request.
    """
    rng = np.random.default_rng([seed, 11])
    count = int(round(rate_qps * seconds))
    arrivals = np.cumsum(rng.exponential(1.0, size=count + 1))
    arrivals = arrivals[:-1] * (seconds / arrivals[-1])
    fresh = iter_distinct_requests(seed, stream=1)
    schedule: List[Tuple[float, Request]] = []
    for arrival in arrivals:
        if schedule and rng.random() < repeat_fraction:
            request = schedule[int(rng.integers(len(schedule)))][1]
        else:
            request = next(fresh)
        schedule.append((float(arrival), request))
    return schedule


def source_counts(requests: List[Request]) -> Dict[str, int]:
    counts = {name: 0 for name in SOURCES}
    for request in requests:
        counts[request.source] += 1
    return counts
