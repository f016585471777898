"""Graph compiler: tracing, optimisation passes, plans, compiled predict."""

import numpy as np
import pytest

from repro import autograd
from repro.autograd import Tensor, no_grad
from repro.core import Grounder, YolloConfig, YolloModel, rel2att
from repro.data import REFCOCO, build_dataset
from repro.data.loader import encode_batch
from repro.graph import (
    ExecutionPlan,
    PlanCache,
    eliminate_dead_nodes,
    fold_batchnorm,
    fold_constants,
    fuse_epilogues,
    optimize_graph,
    trace,
)
from repro.lang import clause_token_masks, pad_clause_masks, parse
from repro.nn.norm import BatchNorm2d
from repro.utils import seed_everything


@pytest.fixture(scope="module")
def dataset():
    seed_everything(29)
    return build_dataset(REFCOCO.scaled(0.04))


def make_model(dataset, backbone="tiny", max_query_length=None):
    seed_everything(31)
    cfg = YolloConfig(
        backbone=backbone, d_model=12, d_rel=16, ffn_hidden=16, head_hidden=16,
        num_rel2att=2,
        max_query_length=max_query_length or max(6, dataset.max_query_length),
        batch_size=4,
    )
    model = YolloModel(cfg, vocab_size=len(dataset.vocab))
    model.eval()
    return model, cfg


def batch_of(dataset, cfg, n=3, split="val"):
    return encode_batch(dataset[split][:n], dataset.vocab, cfg.max_query_length)


def assert_predictions_bitwise_equal(left, right):
    assert len(left) == len(right)
    for a, b in zip(left, right):
        assert a.box.tobytes() == b.box.tobytes()
        assert a.score == b.score
        assert a.anchor_index == b.anchor_index
        assert a.attention_map.tobytes() == b.attention_map.tobytes()


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------
class TestTrace:
    def test_records_ops_inputs_and_constants(self):
        weight = Tensor(np.arange(6.0).reshape(3, 2))

        def fn(x):
            return (x.matmul(weight.transpose(1, 0)) + 1.0).relu()

        x = Tensor(np.ones((4, 2)))
        traced = trace(fn, x, name="toy")
        ops = traced.graph.op_counts()
        assert len(traced.graph.inputs) == 1
        assert ops.get("matmul") == 1
        assert ops.get("add") == 1
        assert ops.get("relu") == 1
        # The weight and its transpose are trace-time constants.
        assert ops.get("constant", 0) >= 1

    def test_replay_matches_eager_on_fresh_inputs(self):
        weight = Tensor(np.linspace(-1.0, 1.0, 12).reshape(3, 4))

        def fn(x):
            return (x.matmul(weight) - 0.25).relu().sum(axis=1)

        traced = trace(fn, Tensor(np.zeros((2, 3))))
        optimize_graph(traced.graph)
        plan = ExecutionPlan(traced)
        fresh = Tensor(np.linspace(-2.0, 2.0, 6).reshape(2, 3))
        eager = fn(fresh).data
        compiled = plan.run(fresh).data
        assert eager.tobytes() == compiled.tobytes()

    def test_pytree_output_structure_roundtrips(self):
        def fn(x):
            doubled = x * 2.0
            return {"pair": (doubled, x + 1.0), "list": [x.relu()]}

        x = Tensor(np.array([[1.0, -1.0]]))
        traced = trace(fn, x)
        plan = ExecutionPlan(traced)
        out = plan.run(x)
        assert set(out) == {"pair", "list"}
        assert isinstance(out["pair"], tuple) and len(out["pair"]) == 2
        np.testing.assert_array_equal(out["pair"][0].data, [[2.0, -2.0]])
        np.testing.assert_array_equal(out["list"][0].data, [[1.0, 0.0]])

    def test_model_forward_traces_without_fallbacks(self, dataset):
        model, cfg = make_model(dataset)
        batch = batch_of(dataset, cfg)
        with no_grad():
            traced = trace(
                model.forward, Tensor(batch["images"]),
                batch["token_ids"], batch["token_mask"],
            )
        optimize_graph(traced.graph)
        plan = ExecutionPlan(traced)
        assert plan.fallbacks == 0


# ----------------------------------------------------------------------
# Passes
# ----------------------------------------------------------------------
class TestPasses:
    def test_fold_constants_collapses_constant_subtree(self):
        w = Tensor(np.full((2, 2), 3.0))

        def fn(x):
            return x + (w * 2.0).transpose(1, 0)

        traced = trace(fn, Tensor(np.zeros((2, 2))))
        folded = fold_constants(traced.graph)
        assert folded >= 2  # the mul and the transpose
        ops = traced.graph.op_counts()
        assert "mul" not in ops and "transpose" not in ops

    def test_dead_node_elimination_counts_and_removes(self):
        def fn(x):
            unused = x * 100.0  # noqa: F841 — traced but not returned
            return x + 1.0

        traced = trace(fn, Tensor(np.ones(3)))
        before = len(traced.graph)
        removed = eliminate_dead_nodes(traced.graph)
        assert removed == 2  # the mul and its lifted 100.0 constant
        assert len(traced.graph) == before - 2
        assert "mul" not in traced.graph.op_counts()

    def test_batchnorm_chain_folds_to_single_affine(self):
        mean = Tensor(np.array([1.0, -2.0]).reshape(1, 2, 1, 1))
        denom = Tensor(np.array([2.0, 4.0]).reshape(1, 2, 1, 1))
        scale = Tensor(np.array([0.5, 1.5]).reshape(1, 2, 1, 1))
        shift = Tensor(np.array([0.1, -0.1]).reshape(1, 2, 1, 1))

        def fn(x):
            return ((x - mean) / denom) * scale + shift

        x = Tensor(np.arange(16.0).reshape(1, 2, 2, 4))
        traced = trace(fn, x)
        fold_constants(traced.graph)
        assert fold_batchnorm(traced.graph) == 1
        assert len(traced.graph.find("bn_affine")) == 1
        for op in ("sub", "div", "mul", "add"):
            assert op not in traced.graph.op_counts()
        plan = ExecutionPlan(traced)
        fresh = Tensor(np.linspace(-3.0, 3.0, 16).reshape(1, 2, 2, 4))
        assert plan.run(fresh).data.tobytes() == fn(fresh).data.tobytes()

    def test_conv_relu_fuses_into_one_node(self):
        weight = Tensor(np.linspace(-0.5, 0.5, 2 * 3 * 3 * 3).reshape(2, 3, 3, 3))
        bias = Tensor(np.array([0.25, -0.25]))

        def fn(x):
            # Call through the module so the tracer's patched binding is
            # the one resolved (frozen ``from … import conv2d`` names in
            # non-repro modules are deliberately left untouched).
            return autograd.conv2d(x, weight, bias, stride=1, padding=1).relu()

        x = Tensor(np.random.default_rng(5).normal(size=(2, 3, 6, 6)))
        traced = trace(fn, x)
        fold_constants(traced.graph)
        assert fuse_epilogues(traced.graph) == 1
        eliminate_dead_nodes(traced.graph)
        fused = traced.graph.find("conv2d")
        assert len(fused) == 1 and fused[0].name == "conv2d+relu"
        assert "relu" not in traced.graph.op_counts()
        plan = ExecutionPlan(traced)
        fresh = Tensor(np.random.default_rng(6).normal(size=(2, 3, 6, 6)))
        assert plan.run(fresh).data.tobytes() == fn(fresh).data.tobytes()

    def test_model_level_batchnorm_folding_count(self, dataset):
        model, cfg = make_model(dataset, backbone="tiny-bn")
        batch = batch_of(dataset, cfg)
        with no_grad():
            traced = trace(
                model.forward, Tensor(batch["images"]),
                batch["token_ids"], batch["token_mask"],
            )
        counts = optimize_graph(traced.graph)
        bn_modules = sum(
            isinstance(m, BatchNorm2d) for m in model.modules()
        )
        assert bn_modules > 0
        assert counts["folded_batchnorm"] == bn_modules
        assert counts["fused_epilogues"] > 0
        assert counts["eliminated_dead"] > 0

    def test_model_level_fusion_on_norm_free_backbone(self, dataset):
        model, cfg = make_model(dataset, backbone="tiny")
        batch = batch_of(dataset, cfg)
        with no_grad():
            traced = trace(
                model.forward, Tensor(batch["images"]),
                batch["token_ids"], batch["token_mask"],
            )
        counts = optimize_graph(traced.graph)
        assert counts["folded_batchnorm"] == 0
        assert counts["fused_epilogues"] > 0
        names = {node.name for node in traced.graph.nodes}
        assert any(name.startswith("conv2d+") for name in names)


# ----------------------------------------------------------------------
# Executor
# ----------------------------------------------------------------------
class TestExecutor:
    def _plan(self):
        w1 = Tensor(np.linspace(-1.0, 1.0, 16).reshape(4, 4))
        w2 = Tensor(np.linspace(1.0, -1.0, 16).reshape(4, 4))

        def fn(x):
            h = (x.matmul(w1) + 0.5).relu()
            h = (h.matmul(w2) - 0.5).relu()
            return h.sum(axis=1)

        traced = trace(fn, Tensor(np.zeros((8, 4))))
        optimize_graph(traced.graph)
        return fn, ExecutionPlan(traced)

    def test_arena_reuses_buffers(self):
        _, plan = self._plan()
        assert plan.arena_reuses > 0
        assert plan.arena_buffers < plan.num_kernels

    def test_outputs_are_private_copies(self):
        fn, plan = self._plan()
        x = Tensor(np.random.default_rng(0).normal(size=(8, 4)))
        first = plan.run(x)
        first_bytes = first.data.tobytes()
        first.data[:] = np.nan  # clobber the returned array
        second = plan.run(x)
        assert second.data.tobytes() == first_bytes

    def test_shape_mismatch_is_rejected(self):
        from repro.graph.executor import CompileError

        _, plan = self._plan()
        with pytest.raises(CompileError):
            plan.run(Tensor(np.zeros((3, 4))))

    def test_describe_mentions_kernels_and_arena(self):
        _, plan = self._plan()
        text = plan.describe()
        assert "kernels" in text and "arena" in text

    @pytest.mark.parametrize("n", [1, 2])
    def test_plans_are_deterministic(self, dataset, n):
        def build():
            model, cfg = make_model(dataset)
            batch = batch_of(dataset, cfg, n=n)
            with no_grad():
                traced = trace(
                    model.forward, Tensor(batch["images"]),
                    batch["token_ids"], batch["token_mask"],
                )
            optimize_graph(traced.graph)
            return ExecutionPlan(traced).describe()

        assert build() == build()


def _corrupt_kernel(monkeypatch, op):
    """Make the specialised kernel for ``op`` return wrong bytes."""
    build = ExecutionPlan._build_kernel

    def corrupted(self, node, out):
        kernel = build(self, node, out)
        if node.op != op:
            return kernel
        return lambda: kernel() + 1.0

    monkeypatch.setattr(ExecutionPlan, "_build_kernel", corrupted)


class TestValidation:
    def test_mismatched_kernel_falls_back_to_eager_replay(self, monkeypatch):
        _corrupt_kernel(monkeypatch, "embedding_lookup")
        weight = Tensor(np.linspace(-1.0, 1.0, 15).reshape(5, 3))

        def fn(ids):
            return autograd.embedding_lookup(weight, ids) * 2.0

        plan = ExecutionPlan(trace(fn, np.array([[0, 3, 4]])))
        assert plan.fallbacks == 1
        fresh = np.array([[4, 1, 1]])
        assert plan.run(fresh).data.tobytes() == fn(fresh).data.tobytes()

    def test_node_replay_cannot_reproduce_fails_at_build(self, monkeypatch):
        from repro.graph.executor import CompileError

        _corrupt_kernel(monkeypatch, "tuple_get")

        def fn(weights):
            columns, _ = rel2att._attention_normalizers(weights.data, 2, False)
            return Tensor(columns) * 2.0

        traced = trace(fn, Tensor(np.ones((1, 4, 4))))
        with pytest.raises(CompileError, match="tuple_get"):
            ExecutionPlan(traced)


_SELECT = np.random.default_rng(3).random((2, 3, 4, 4)) > 0.5

#: Ops without a specialised kernel (no compiled model runs them, or the
#: kernel bought under 2% of compiled forward time): each must run
#: through the plan's validated eager replay.
_REPLAYED_OPS = {
    "neg": lambda x: -x,
    "exp": lambda x: x.exp(),
    "log": lambda x: x.abs().log(),
    "abs": lambda x: x.abs(),
    "maximum": lambda x: x.maximum(0.25),
    "relu": lambda x: x.relu(),
    "sigmoid": lambda x: x.sigmoid(),
    "leaky_relu": lambda x: x.leaky_relu(0.1),
    "clip": lambda x: x.clip(-0.5, 0.5),
    "where": lambda x: autograd.where(_SELECT, x, x * 2.0),
    "stack": lambda x: autograd.stack([x, x], axis=1),
    "log_softmax": lambda x: autograd.log_softmax(x, axis=1),
    "max": lambda x: x.max(axis=1),
    "pad2d": lambda x: autograd.pad2d(x, 1),
    "avg_pool2d": lambda x: autograd.avg_pool2d(x, 2),
    "tanh": lambda x: x.tanh(),
    "pow": lambda x: x ** 3,
    "transpose": lambda x: x.transpose(0, 2, 3, 1),
    "external": lambda x: Tensor(
        rel2att._attention_normalizers(x.data, 2, False)[0]
    ),
}


@pytest.mark.parametrize("op", sorted(_REPLAYED_OPS))
def test_replayed_op_is_bit_exact(op):
    fn = _REPLAYED_OPS[op]
    rng = np.random.default_rng(11)
    traced = trace(fn, Tensor(rng.normal(size=(2, 3, 4, 4))))
    assert op in traced.graph.op_counts()
    optimize_graph(traced.graph)
    plan = ExecutionPlan(traced)
    assert plan.fallbacks == 0
    fresh = Tensor(rng.normal(size=(2, 3, 4, 4)))
    assert plan.run(fresh).data.tobytes() == fn(fresh).data.tobytes()


# ----------------------------------------------------------------------
# Plan cache
# ----------------------------------------------------------------------
class TestPlanCache:
    def test_lru_eviction_and_counters(self):
        cache = PlanCache(max_plans=2)
        cache.store("a", object(), 1.0)
        cache.store("b", object(), 2.0)
        assert cache.get("a") is not None  # refresh: "b" is coldest
        cache.store("c", object(), 3.0)
        assert cache.get("b") is None
        assert cache.get("a") is not None and cache.get("c") is not None
        stats = cache.stats()
        assert stats["evictions"] == 1
        assert stats["compiles"] == 3
        assert stats["lookups"] == 4 and stats["hits"] == 3

    def test_drain_compile_events_empties_queue(self):
        cache = PlanCache()
        cache.store("k1", object(), 12.5)
        cache.store("k2", object(), 2.5)
        events = cache.drain_compile_events()
        assert [key for key, _ in events] == ["k1", "k2"]
        assert sum(ms for _, ms in events) == 15.0
        assert cache.drain_compile_events() == []

    def test_clear_resets_plans(self):
        cache = PlanCache()
        cache.store("k", object(), 1.0)
        cache.clear()
        assert len(cache) == 0
        assert cache.get("k") is None

    def test_concurrent_get_store_keeps_counters_consistent(self):
        import threading

        cache = PlanCache(max_plans=8)
        workers = 8
        rounds = 200
        misses = [0] * workers

        def pound(tid):
            key = ("shape-a", "shape-b")[tid % 2]
            for _ in range(rounds):
                if cache.get(key) is None:
                    misses[tid] += 1
                    cache.store(key, object(), 0.1)

        threads = [
            threading.Thread(target=pound, args=(tid,))
            for tid in range(workers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        stats = cache.stats()
        # Two shapes racing: every lookup is counted exactly once, every
        # miss compiled exactly once, and nothing was evicted or lost.
        assert stats["lookups"] == workers * rounds
        assert stats["compiles"] == sum(misses)
        assert stats["hits"] == stats["lookups"] - sum(misses)
        assert stats["evictions"] == 0
        assert stats["plans"] == 2
        assert cache.get("shape-a") is not None
        assert cache.get("shape-b") is not None

    def test_eviction_frees_evicted_plans_arena(self):
        import gc
        import weakref

        def make_plan(batch):
            w = Tensor(np.linspace(-1.0, 1.0, 16).reshape(4, 4))

            def fn(x):
                return (x.matmul(w) + 1.0).relu().sum(axis=1)

            traced = trace(fn, Tensor(np.zeros((batch, 4))))
            optimize_graph(traced.graph)
            return ExecutionPlan(traced)

        small = make_plan(2)
        big = make_plan(64)
        assert big.arena_bytes > small.arena_bytes
        evicted = weakref.ref(big)

        cache = PlanCache(max_plans=1)
        cache.store((64, 4), big, 1.0)
        del big
        cache.store((2, 4), small, 1.0)  # evicts the large plan
        gc.collect()

        assert cache.stats()["evictions"] == 1
        # The evicted plan (and with it the arena backing its kernels)
        # is actually collectable — the cache keeps no hidden reference.
        assert evicted() is None
        retained = sum(
            plan.arena_bytes for plan in cache._entries.values()
        )
        assert retained == small.arena_bytes
        assert f"{small.arena_bytes / 1024:.1f} KiB" in small.describe()


# ----------------------------------------------------------------------
# Compiled predict — bit-exactness across presets
# ----------------------------------------------------------------------
class TestCompiledPredict:
    @pytest.mark.parametrize(
        "backbone", ["tiny", "tiny-bn", "resnet50-bn", "vgg"]
    )
    def test_compiled_matches_eager_bitwise(self, dataset, backbone):
        model, cfg = make_model(dataset, backbone=backbone)
        batch = batch_of(dataset, cfg, n=3)
        eager = model.predict(
            batch["images"], batch["token_ids"], batch["token_mask"]
        )
        model.compile()
        compiled = model.predict(
            batch["images"], batch["token_ids"], batch["token_mask"]
        )
        again = model.predict(
            batch["images"], batch["token_ids"], batch["token_mask"]
        )
        assert_predictions_bitwise_equal(eager, compiled)
        assert_predictions_bitwise_equal(eager, again)
        stats = model.plan_cache.stats()
        assert stats["compiles"] == 1 and stats["hits"] == 1

    def test_compiled_matches_eager_without_mask(self, dataset):
        model, cfg = make_model(dataset)
        batch = batch_of(dataset, cfg, n=2)
        eager = model.predict(batch["images"], batch["token_ids"], None)
        model.compile()
        compiled = model.predict(batch["images"], batch["token_ids"], None)
        assert_predictions_bitwise_equal(eager, compiled)

    @staticmethod
    def _clause_batch(dataset, cfg, queries):
        length = cfg.max_query_length
        ids, masks = zip(*(dataset.vocab.encode(q, length) for q in queries))
        clause_masks = pad_clause_masks(
            [clause_token_masks(parse(q), length) for q in queries], length)
        images = np.stack([s.image for s in dataset["val"][:len(queries)]])
        return images, np.stack(ids), np.stack(masks), clause_masks

    def test_compiled_clause_batches_match_eager_bitwise(self, dataset):
        """Clause masks are plan inputs: one plan per ``(B, C)`` replays
        fresh masks bit-exactly, flat and padded rows included."""
        model, cfg = make_model(dataset, max_query_length=10)
        batches = [self._clause_batch(dataset, cfg, queries) for queries in (
            # A flat sample (all-zero rows) beside a four-row sample.
            ("the red ball",
             "the dog next to the car next to the lamp next to the ball"),
            # A three-row sample padded with an empty fourth row.
            ("a cat left of a dog left of a car left of a ball",
             "the cat left of the dog that is above the car"),
        )]
        first, second = batches[0][3], batches[1][3]
        assert first.shape == second.shape == (2, 4, 10)
        assert not first[0].any()
        assert second[0, 3].any() and not second[1, 3].any()
        eager = [model._predict_arrays(*batch) for batch in batches]
        model.compile()
        for batch, expected in zip(batches, eager):
            lookups = model.plan_cache.stats()["lookups"]
            compiled = model._predict_arrays(*batch)
            assert model.plan_cache.stats()["lookups"] == lookups + 1
            for left, right in zip(expected, compiled):
                assert left.tobytes() == right.tobytes()
        assert model.plan_cache.stats()["compiles"] == 1

    def test_distinct_batch_shapes_compile_distinct_plans(self, dataset):
        model, cfg = make_model(dataset)
        model.compile()
        big = batch_of(dataset, cfg, n=3)
        small = batch_of(dataset, cfg, n=1)
        model.predict(big["images"], big["token_ids"], big["token_mask"])
        model.predict(small["images"], small["token_ids"], small["token_mask"])
        assert len(model.plan_cache) == 2

    def test_bit_exact_after_checkpoint_roundtrip(self, dataset, tmp_path):
        model, cfg = make_model(dataset, backbone="tiny-bn")
        batch = batch_of(dataset, cfg, n=2)
        model.compile()
        before = model.predict(
            batch["images"], batch["token_ids"], batch["token_mask"]
        )
        state = model.state_dict()
        model.load_state_dict(state)
        assert len(model.plan_cache) == 0  # plans invalidated by new weights
        after = model.predict(
            batch["images"], batch["token_ids"], batch["token_mask"]
        )
        assert_predictions_bitwise_equal(before, after)

    def test_train_mode_invalidates_plans(self, dataset):
        model, cfg = make_model(dataset)
        batch = batch_of(dataset, cfg, n=1)
        model.compile()
        model.predict(batch["images"], batch["token_ids"], batch["token_mask"])
        assert len(model.plan_cache) == 1
        model.train()
        assert len(model.plan_cache) == 0

    def test_uncompile_restores_eager_predict(self, dataset):
        model, cfg = make_model(dataset)
        batch = batch_of(dataset, cfg, n=1)
        model.compile()
        model.predict(batch["images"], batch["token_ids"], batch["token_mask"])
        model.uncompile()
        assert model.plan_cache is None
        # Eager path still works and matches.
        model.predict(batch["images"], batch["token_ids"], batch["token_mask"])

    def test_grounder_compile_roundtrip(self, dataset):
        model, cfg = make_model(dataset)
        grounder = Grounder(model, dataset.vocab)
        samples = dataset["val"][:2]
        eager = grounder.ground_batch(samples)
        grounder.compile()
        compiled = grounder.ground_batch(samples)
        assert eager.tobytes() == compiled.tobytes()
        assert grounder.plan_cache is model.plan_cache
        grounder.uncompile()
        assert grounder.plan_cache is None

    def test_yollo_preset_ranked_responses_match_eager_bytes(self):
        """The ``yollo`` preset's conv trunk and detector head (1x1 convs
        on channels-last views) answer byte-identically compiled and
        eager, one sample at a time and in batches of three."""
        from repro.core.response import responses_equal
        from repro.zoo import lower_config

        seed_everything(37)
        dataset = build_dataset(REFCOCO.scaled(0.1))
        config = lower_config(
            "yollo", max_query_length=max(8, dataset.max_query_length))
        model = YolloModel(config, vocab_size=len(dataset.vocab))
        model.eval()
        grounder = Grounder(model, dataset.vocab)
        grounder.clause_conditioning = True
        ranked = grounder.ranked(top_k=5)
        # One sample per distinct image: nine images, nine queries.
        samples = list({s.image.tobytes(): s for s in dataset["train"]}.values())[:9]
        assert len(samples) == 9
        assert len({s.query for s in samples}) == len(samples)

        def answers():
            single = [ranked([s])[0] for s in samples]
            batched = [r for i in range(0, len(samples), 3)
                       for r in ranked(samples[i:i + 3])]
            return single + batched

        eager = answers()
        grounder.compile()
        compiled = answers()
        assert all(responses_equal(a, b) for a, b in zip(eager, compiled))
        # A kernel that disagrees with eager on its trace input is replaced
        # by eager replay, which would hide a conv whose bytes drifted.
        plans = list(model.plan_cache._entries.values())
        assert len(plans) >= 2
        assert [plan.fallbacks for plan in plans] == [0] * len(plans)


# ----------------------------------------------------------------------
# Observability integration
# ----------------------------------------------------------------------
class TestProfilerAttribution:
    def test_plan_execution_records_op_events_and_span(self, dataset):
        from repro.obs import profile

        model, cfg = make_model(dataset)
        batch = batch_of(dataset, cfg, n=1)
        model.compile()
        # Compile outside the profiled region: steady-state attribution.
        model.predict(batch["images"], batch["token_ids"], batch["token_mask"])
        with profile() as prof:
            model.predict(
                batch["images"], batch["token_ids"], batch["token_mask"]
            )
        names = {stat.name for stat in prof.op_stats()}
        assert any("conv2d" in name for name in names)
        span_totals = prof.span_totals()
        assert "graph.execute" in span_totals
        assert "yollo.forward" in span_totals

    def test_tracing_under_active_profiler_succeeds(self, dataset):
        from repro.obs import profile

        model, cfg = make_model(dataset)
        batch = batch_of(dataset, cfg, n=1)
        model.compile()
        with profile():
            compiled = model.predict(
                batch["images"], batch["token_ids"], batch["token_mask"]
            )
        model.uncompile()
        eager = model.predict(
            batch["images"], batch["token_ids"], batch["token_mask"]
        )
        assert_predictions_bitwise_equal(eager, compiled)
