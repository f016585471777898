"""VersionedLRU: the one cache primitive behind every cache tier.

Contract suite for :class:`repro.utils.cache.VersionedLRU` — LRU order,
capacity 0, versioned writes, ``bump``, registry counters and thread
safety — plus the capacity-0 rule checked through the engine and plan
tiers that are built on it.  Router-tier integration (freeze before
``put``, epoch bump after a completed roll, counters that never run
backwards) lives in ``tests/test_fleet.py``.
"""

import sys
import threading

import numpy as np
import pytest

from repro.core import YolloConfig, YolloModel
from repro.data import REFCOCO, build_dataset
from repro.data.loader import encode_batch
from repro.obs import MetricsRegistry
from repro.serve import ServeEngine, image_digest
from repro.utils import seed_everything
from repro.utils.cache import VersionedLRU


def box(*values):
    return np.asarray(values, dtype=np.float64)


class TestLRU:
    def test_put_get_roundtrip(self):
        cache = VersionedLRU(2)
        assert cache.put("a", 1) is True
        assert cache.get("a") == 1 and len(cache) == 1

    def test_eviction_is_least_recently_used(self):
        cache = VersionedLRU(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh "a": "b" is now coldest
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1 and cache.get("c") == 3
        assert cache.evictions == 1
        assert list(cache._entries) == ["a", "c"]  # coldest first

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            VersionedLRU(-1)

    def test_same_content_different_models_are_distinct_entries(self):
        """The router keys on ``(model_id, image_digest, query)``: two
        presets sharing one cache never serve each other's answers."""
        cache = VersionedLRU(8)
        image = np.ones((4, 4, 3))
        key_a = ("tiny", image_digest(image), "the red box")
        key_b = ("tiny-word2pix", image_digest(image), "the red box")
        cache.put(key_a, box(1, 1, 1, 1))
        assert cache.get(key_b) is None, (
            "preset B answered from preset A's cache entry")
        cache.put(key_b, box(2, 2, 2, 2))
        assert cache.get(key_a)[0] == 1.0
        assert cache.get(key_b)[0] == 2.0


class TestCounters:
    def test_get_counts_hits_and_misses(self):
        cache = VersionedLRU(4)
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.hits == 1 and cache.misses == 1

    def test_uncounted_probe(self):
        cache = VersionedLRU(4)
        cache.put("a", 1)
        assert cache.get("a", count=False) == 1
        assert cache.get("b", count=False) is None
        assert cache.hits == 0 and cache.misses == 0

    def test_external_crediting(self):
        cache = VersionedLRU(4)
        cache.count_hit()
        cache.count_miss()
        assert cache.hits == 1 and cache.misses == 1

    def test_counters_land_in_the_given_registry(self):
        registry = MetricsRegistry()
        cache = VersionedLRU(1, registry=registry, prefix="tier")
        cache.get("a")
        cache.put("a", 1)
        cache.get("a")
        cache.put("b", 2)  # evicts "a"
        cache.bump()
        assert cache.registry is registry
        assert registry.counter("tier.hits").value == 1
        assert registry.counter("tier.misses").value == 1
        assert registry.counter("tier.evictions").value == 1
        assert registry.gauge("tier.epoch").value == 1.0

    def test_default_registry_is_private(self):
        first, second = VersionedLRU(1), VersionedLRU(1)
        first.get("a")
        assert first.registry is not second.registry
        assert second.misses == 0

    def test_bump_keeps_tallies(self):
        cache = VersionedLRU(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)  # evicts "a"
        cache.get("b")
        cache.bump()
        assert (cache.hits, cache.misses, cache.evictions) == (1, 0, 1)

    def test_engine_reset_stats_zeroes_cache_counters(self):
        with ServeEngine(_StubGrounder()) as engine:
            engine.ground(np.ones((2, 2, 3)), "q", timeout=10)
            engine.ground(np.ones((2, 2, 3)), "q", timeout=10)
            engine.reset_stats()
            stats = engine.stats()
        assert (stats.cache_hits, stats.cache_misses) == (0, 0)
        assert engine.metrics.counter("serve.cache.hits").value == 0


class TestVersioning:
    def test_bump_makes_every_entry_unreachable(self):
        cache = VersionedLRU(8)
        cache.put("k", box(1, 1, 1, 1))
        cache.put("j", box(2, 2, 2, 2))
        assert cache.bump() == 1
        assert cache.version == 1
        assert len(cache) == 0
        assert cache.get("k") is None and cache.get("j") is None
        assert cache.misses == 2

    def test_old_version_put_is_refused(self):
        cache = VersionedLRU(8)
        at_dispatch = cache.version
        cache.bump()  # weight roll completes while in flight
        assert cache.put("k", box(9, 9, 9, 9), version=at_dispatch) is False
        assert cache.get("k") is None and len(cache) == 0

    def test_current_version_put_lands_after_bump(self):
        cache = VersionedLRU(8)
        cache.bump()
        assert cache.put("k", box(5, 5, 5, 5), version=cache.version) is True
        assert cache.get("k")[0] == 5.0

    def test_bump_invalidates_every_model(self):
        cache = VersionedLRU(8)
        image = np.zeros((4, 4, 3))
        keys = [(model, image_digest(image), "q")
                for model in ("tiny", "tiny-word2pix")]
        for key in keys:
            cache.put(key, box(1, 2, 3, 4))
        cache.bump()
        assert all(cache.get(key) is None for key in keys)


def _run_threads(target, workers):
    """Run ``target(index)`` on ``workers`` threads with rapid switching."""
    threads = [threading.Thread(target=target, args=(index,))
               for index in range(workers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)


class TestConcurrency:
    def test_concurrent_readers_and_writers(self):
        cache = VersionedLRU(16)
        errors = []

        def worker(tag):
            try:
                for i in range(200):
                    cache.put((tag, i % 8), box(i, i, i, i),
                              version=cache.version)
                    cache.get((tag, (i + 1) % 8))
                    if i % 50 == 0:
                        cache.bump()
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        _run_threads(worker, 4)
        assert errors == []
        assert cache.hits + cache.misses == 4 * 200
        assert cache.version == 4 * 4
        assert len(cache) <= 16

    def test_concurrent_get_put_keeps_counters_consistent(self):
        cache = VersionedLRU(8)
        workers, rounds = 8, 200
        misses = [0] * workers

        def pound(tid):
            key = ("shape-a", "shape-b")[tid % 2]
            for _ in range(rounds):
                if cache.get(key) is None:
                    misses[tid] += 1
                    cache.put(key, object())

        _run_threads(pound, workers)
        # Every lookup counted exactly once; nothing evicted or lost.
        assert cache.hits + cache.misses == workers * rounds
        assert cache.misses == sum(misses)
        assert cache.evictions == 0 and len(cache) == 2


# ----------------------------------------------------------------------
# Capacity 0: one rule for every tier
# ----------------------------------------------------------------------
class _StubGrounder:
    def __call__(self, samples):
        return np.stack([np.array([s.image.sum(), 0.0, 1.0, 2.0])
                         for s in samples])


def _engine_tier():
    """Two identical sequential requests through ``cache_size=0``."""
    with ServeEngine(_StubGrounder(), cache_size=0) as engine:
        for _ in range(2):
            engine.ground(np.ones((2, 2, 3)), "q", timeout=10)
    return engine.stats().requests, engine._cache


def _plan_tier():
    """Two identical compiled predicts through ``max_plans=0``."""
    seed_everything(29)
    dataset = build_dataset(REFCOCO.scaled(0.04))
    cfg = YolloConfig(
        backbone="tiny", d_model=12, d_rel=16, ffn_hidden=16, head_hidden=16,
        num_rel2att=2, max_query_length=max(6, dataset.max_query_length),
    )
    model = YolloModel(cfg, vocab_size=len(dataset.vocab)).eval()
    model.compile(max_plans=0)
    batch = encode_batch(dataset["val"][:1], dataset.vocab,
                         cfg.max_query_length)
    for _ in range(2):
        model.predict(batch["images"], batch["token_ids"], batch["token_mask"])
    return model.plan_cache.lookups, model.plan_cache


class TestCapacityZero:
    def test_get_misses_and_put_stores_nothing(self):
        cache = VersionedLRU(0)
        assert cache.put("k", box(1, 2, 3, 4)) is False
        assert cache.get("k") is None
        assert (cache.hits, cache.misses, cache.evictions) == (0, 1, 0)
        assert len(cache) == 0

    @pytest.mark.parametrize("tier", [_engine_tier, _plan_tier],
                             ids=["engine", "plans"])
    def test_every_tier_follows_one_rule(self, tier):
        lookups, cache = tier()
        assert lookups == 2
        assert cache.misses == lookups and cache.hits == 0
        assert cache.evictions == 0
        assert len(cache) == 0
