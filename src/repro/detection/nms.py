"""Greedy non-maximum suppression (used by the two-stage proposal stage)."""

from __future__ import annotations

import numpy as np

from repro.detection.boxes import iou_matrix


def nms(boxes: np.ndarray, scores: np.ndarray, iou_threshold: float = 0.5,
        max_keep: int = None) -> np.ndarray:
    """Return indices of kept boxes, sorted by descending score."""
    boxes = np.asarray(boxes, dtype=np.float64)
    scores = np.asarray(scores, dtype=np.float64)
    if len(boxes) == 0:
        return np.empty(0, dtype=np.int64)
    order = np.argsort(-scores)
    keep = []
    suppressed = np.zeros(len(boxes), dtype=bool)
    for idx in order:
        if suppressed[idx]:
            continue
        keep.append(idx)
        if max_keep is not None and len(keep) >= max_keep:
            break
        # One IoU row per kept box: the same per-element arithmetic as a
        # row of the full matrix, without computing rows never read.
        suppressed |= iou_matrix(boxes[idx], boxes)[0] > iou_threshold
        suppressed[idx] = True
    return np.asarray(keep, dtype=np.int64)
