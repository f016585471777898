"""The ``train_step`` workload: closed-loop ``YolloTrainer`` steps.

``yollo`` preset, batch 8, RefCOCO scale 0.2, seeded untrained weights.
Correctness: every loss is finite, and a fresh seed-0 trainer reproduces
the first losses recorded at the commit that introduced this benchmark
(``reference_losses.json``) within ``LOSS_RTOL``.
"""

from __future__ import annotations

import json
import math
import os
from typing import Dict, List, Tuple

import numpy as np

from repro.autograd import Tensor
from repro.backbone import load_pretrained_backbone
from repro.core import YolloModel
from repro.core.losses import yollo_loss
from repro.core.trainer import YolloTrainer
from repro.data import REFCOCO, build_dataset, encode_batch
from repro.obs import profile
from repro.optim import clip_grad_norm
from repro.utils.seeding import seed_everything
from repro.zoo import lower_config

import common
from common import median

PRESET = "yollo"
BATCH_SIZE = 8
SCALE = 0.2
SETUP_REPEATS = 3
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference_losses.json")
#: Relative tolerance on the reference losses: loose enough for a change
#: of floating-point summation order, tight enough for any real change.
LOSS_RTOL = 1e-6
#: Steps the traced run splits into layers, and profiles op by op.
LAYER_STEPS = 6
PROFILED_STEPS = 2


def build_trainer(seed: int) -> YolloTrainer:
    seed_everything(seed)
    dataset = build_dataset(REFCOCO.scaled(SCALE))
    config = lower_config(PRESET, batch_size=BATCH_SIZE,
                          max_query_length=max(8, dataset.max_query_length))
    backbone = load_pretrained_backbone(config.backbone, steps=1)
    model = YolloModel(config, vocab_size=len(dataset.vocab), backbone=backbone)
    trainer = YolloTrainer(model, dataset)
    trainer.begin_run(iterations=10 ** 9)
    return trainer


def step(trainer: YolloTrainer) -> float:
    loss = trainer.forward_backward()
    trainer.apply_step(loss)
    return loss


def set_up(seed: int) -> Tuple[YolloTrainer, List[float]]:
    """Build a trainer and take its first step, ``SETUP_REPEATS`` times."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = common.now()
        trainer = build_trainer(seed)
        step(trainer)
        times.append(common.now() - start)
    return trainer, times


def reference_losses(steps: int) -> List[float]:
    trainer = build_trainer(0)
    return [step(trainer) for _ in range(steps)]


def check_reference() -> Tuple[bool, str]:
    """Compare a fresh seed-0 run with the recorded losses."""
    with open(REFERENCE_PATH) as handle:
        expected = json.load(handle)["losses"]
    got = reference_losses(len(expected))
    ok = bool(np.allclose(got, expected, rtol=LOSS_RTOL, atol=0.0))
    return ok, f"reference losses {'match' if ok else 'DIFFER'}: got {got}, expected {expected}"


def closed_loop(trainer: YolloTrainer, seconds: float, trace: bool,
                log: common.SpanLog) -> Tuple[List[float], List[float]]:
    """Step for ``seconds``; returns (step milliseconds, losses).

    With ``trace``, every other step records spans around the trainer's
    two public calls, so the run also measures what recording costs.
    """
    times, losses = [], []
    end = common.now() + seconds
    while common.now() < end:
        start = common.now()
        if trace and len(times) % 2 == 0:
            loss = trainer.forward_backward()
            middle = common.now()
            trainer.apply_step(loss)
            log.add("train.forward_backward", start, middle, request=len(times))
            log.add("train.apply_step", middle, common.now(), request=len(times))
        else:
            loss = step(trainer)
        losses.append(loss)
        times.append((common.now() - start) * 1e3)
    return times, losses


def layers(trainer: YolloTrainer, log: common.SpanLog) -> Dict[str, float]:
    """Split steps into data, forward, losses, backward and optimizer calls."""
    model, config = trainer.model, trainer.config
    optimizer, vocab = trainer.optimizer, trainer.dataset.vocab
    samples = list(trainer.dataset["train"])
    rng = np.random.default_rng(0)
    for index in range(LAYER_STEPS):
        chosen = [samples[i] for i in rng.choice(len(samples), BATCH_SIZE, replace=False)]
        start = common.now()

        def span(name, fn):
            begin = common.now()
            out = fn()
            log.add(name, begin, common.now(), request=LAYER_STEPS + index,
                    parent="train.step")
            return out

        batch = span("data.loader.encode", lambda: encode_batch(
            chosen, vocab, config.max_query_length))
        output = span("core.forward", lambda: model(
            Tensor(batch["images"]), batch["token_ids"], batch["token_mask"]))
        losses = span("core.losses", lambda: yollo_loss(
            output.attention_masks, output.cls_logits, output.reg_offsets,
            batch["target_boxes"], model.anchor_grid, config, rng=rng))
        optimizer.zero_grad()
        span("autograd.backward", lambda: losses.total.backward())

        def update():
            clip_grad_norm(optimizer.parameters, config.grad_clip)
            optimizer.step()

        span("optim.step", update)
        log.add("train.step", start, common.now(), request=LAYER_STEPS + index)

    with profile() as prof:
        for _ in range(PROFILED_STEPS):
            step(trainer)
    conv = [s for s in prof.op_stats() if s.name == "conv2d"]
    forward = sum(s.forward_seconds for s in conv) * 1e3 / PROFILED_STEPS
    backward = sum(s.backward_seconds for s in conv) * 1e3 / PROFILED_STEPS

    out = {metric: median(log.durations_ms(span)) for span, metric in (
        ("data.loader.encode", "data.loader.encode_ms"),
        ("core.forward", "core.forward_ms"),
        ("core.losses", "core.losses_ms"),
        ("autograd.backward", "autograd.backward_ms"),
        ("optim.step", "optim.step_ms"),
    )}
    out["autograd.conv2d_fwd_ms"] = forward
    out["autograd.conv2d_bwd_ms"] = backward
    return out


def finite(losses: List[float]) -> int:
    return sum(1 for loss in losses if math.isfinite(loss))
