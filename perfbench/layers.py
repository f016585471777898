"""Per-layer timings of the serving path, taken from outside.

Each layer is timed around a call into its public interface, on the
same requests the fleet served: the model's submodules called eagerly,
a compiled plan built with the public ``repro.graph`` API, the detection
decode and NMS, and an in-process ``ServeEngine`` holding the replicas'
configuration.  Spans are kept in the run's ``SpanLog``.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

import numpy as np

from repro.autograd import Tensor, no_grad, softmax
from repro.detection import clip_boxes, decode_offsets, nms
from repro.graph import ExecutionPlan, optimize_graph, trace
from repro.lang import clause_token_masks, pad_clause_masks, parse
from repro.serve import ReplicaSpec, ServeEngine
from repro.text.tokenizer import normalize_query

import common
from common import median
from inputs import Request
from serving import MAX_BATCH, open_loop, serve_sample, warm_up

#: The ranked decode's settings (``RankedGrounder`` defaults).
TOP_K = 5
NMS_IOU = 0.6
_REPLICA = ReplicaSpec(builder=None)


def replica_engine(ranked) -> ServeEngine:
    """An in-process engine configured like each fleet replica's."""
    return ServeEngine(ranked, max_batch=MAX_BATCH, max_wait=_REPLICA.max_wait,
                       cache_size=_REPLICA.cache_size)


def compile_in_process(ranked) -> Dict[str, float]:
    """Compile ``ranked`` and warm a plan per batch size, as a replica does."""
    ranked.grounder.compile()
    warm_up(ranked, MAX_BATCH)
    cache = ranked.grounder.plan_cache
    events = cache.drain_compile_events()
    return {"graph.compile_ms": float(sum(ms for _, ms in events)),
            "graph.plans": float(cache.stats()["plans"])}


def _span(log: common.SpanLog, name: str, request: int, fn):
    start = common.now()
    out = fn()
    log.add(name, start, common.now(), request=request)
    return out


def model_layers(ranked, requests: Sequence[Request],
                 log: common.SpanLog) -> None:
    """Call each layer of the grounder directly, B=1, once per request."""
    grounder = ranked.grounder
    model, vocab = grounder.model, grounder.vocab
    config = model.config
    length = grounder.max_query_length
    anchors = model.anchor_grid.all_anchors()
    inside = _inside(anchors, model)
    plans: Dict[Tuple[int, ...], ExecutionPlan] = {}
    was_training = model.training
    model.eval()
    with no_grad():
        for index, request in enumerate(requests):
            query = normalize_query(request.query)
            ids, mask = _span(log, "text.encode", index,
                              lambda: vocab.encode(query, length))
            clause_masks = _span(log, "lang.parse", index, lambda: pad_clause_masks(
                [clause_token_masks(parse(query), length)], length))
            images = Tensor(request.image[None])
            ids, mask = ids[None], mask[None]
            _span(log, "core.backbone", index,
                  lambda: model.encoder.backbone(images))
            image_seq, query_seq = _span(log, "core.encoder", index,
                                         lambda: model.encoder(images, ids))
            attended, _ = _span(log, "core.rel2att", index,
                                lambda: model.rel2att(image_seq, query_seq,
                                                      mask, None))
            if clause_masks is not None:
                _span(log, "core.rel2att_clause", index,
                      lambda: model.rel2att(image_seq, query_seq, mask,
                                            clause_masks))
            feature_map = attended.transpose(0, 2, 1).reshape(
                1, config.d_model, model.encoder.grid_h, model.encoder.grid_w)
            _span(log, "core.detector", index,
                  lambda: model.detector(feature_map))
            _span(log, "graph.eager_forward", index,
                  lambda: model.forward(images, ids, mask))
            key = ids.shape
            if key not in plans:
                traced = trace(model.forward, images, ids, mask,
                               name="yollo.forward")
                optimize_graph(traced.graph)
                plans[key] = ExecutionPlan(traced)
            output = _span(log, "graph.forward", index,
                           lambda: plans[key].run(images, ids, mask))
            probs = softmax(output.cls_logits, axis=-1).data[0, :, 1]
            offsets = output.reg_offsets.data[0]
            valid = inside if inside.any() else np.ones_like(inside)
            boxes = _span(log, "detection.decode", index, lambda: clip_boxes(
                decode_offsets(anchors[valid], offsets[valid]),
                config.image_height, config.image_width))
            _span(log, "detection.nms", index, lambda: nms(
                boxes, probs[valid], iou_threshold=NMS_IOU, max_keep=TOP_K))
    model.train(was_training)


def _inside(anchors: np.ndarray, model) -> np.ndarray:
    """In-bounds anchors, the candidates the ranked decode keeps."""
    margin = 0.25 * model.anchor_grid.stride
    config = model.config
    return ((anchors[:, 0] >= -margin) & (anchors[:, 1] >= -margin)
            & (anchors[:, 2] <= config.image_width + margin)
            & (anchors[:, 3] <= config.image_height + margin))


def engine_closed_loop(ranked, requests: Sequence[Request],
                       log: common.SpanLog) -> Dict[str, float]:
    """Engine and bare-grounder latency on the same requests, one at a time."""
    cache = ranked.grounder.plan_cache
    lookups = cache.stats()["lookups"]
    with replica_engine(ranked) as engine:
        for index, request in enumerate(requests):
            _span(log, "engine.request", index,
                  lambda: engine.submit(request.image, request.query).result())
    bypassed = 1.0 - (cache.stats()["lookups"] - lookups) / max(1, len(requests))
    for index, request in enumerate(requests):
        sample = serve_sample(request)
        _span(log, "grounder.call", index, lambda: ranked([sample]))
    return {"graph.eager_frac": bypassed}


def engine_open_loop(ranked, schedule) -> Dict[str, float]:
    """Replay the open-loop schedule into one in-process engine."""
    with replica_engine(ranked) as engine:
        open_loop(engine.submit, schedule, trace=False)
        stats = engine.stats()
    return {"serve.engine.batch_mean": stats.mean_batch_size,
            "serve.engine.hit_rate": stats.cache_hit_rate}


def layer_medians(log: common.SpanLog) -> Dict[str, float]:
    """Median milliseconds per layer span, named as the metrics are."""
    names = {
        "text.encode": "text.encode_ms",
        "lang.parse": "lang.parse_ms",
        "core.backbone": "core.backbone_ms",
        "core.encoder": "core.encoder_ms",
        "core.rel2att": "core.rel2att_ms",
        "core.rel2att_clause": "core.rel2att_clause_ms",
        "core.detector": "core.detector_ms",
        "graph.forward": "graph.forward_ms",
        "graph.eager_forward": "graph.eager_forward_ms",
        "detection.decode": "detection.decode_ms",
        "detection.nms": "detection.nms_ms",
    }
    return {metric: median(log.durations_ms(span)) for span, metric in names.items()}
