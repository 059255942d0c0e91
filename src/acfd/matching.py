"""IoU matrix and the two-step dynamic anchor match.

Step one assigns anchors whose best ground-truth IoU clears T1 (label 1).
Anchors that fail step one get a second chance through their regressed
boxes: if the regressed box clears the higher threshold T2 the anchor is
compensated (label 2). Everything else is background (label 0). Argmax ties
break toward the lowest ground-truth index.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .anchors import encode


def iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(N,4) x (M,4) -> (N,M) pairwise IoU."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.size == 0 or b.size == 0:
        return np.zeros((a.shape[0], b.shape[0]))
    ix = (np.minimum(a[:, None, 2], b[None, :, 2])
          - np.maximum(a[:, None, 0], b[None, :, 0])).clip(min=0)
    iy = (np.minimum(a[:, None, 3], b[None, :, 3])
          - np.maximum(a[:, None, 1], b[None, :, 1])).clip(min=0)
    inter = ix * iy
    area_a = (a[:, 2] - a[:, 0]) * (a[:, 3] - a[:, 1])
    area_b = (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1])
    union = area_a[:, None] + area_b[None, :] - inter
    out = np.zeros_like(inter)
    np.divide(inter, union, out=out, where=union > 0)
    return out


LABEL_NEGATIVE = 0
LABEL_MATCHED = 1
LABEL_COMPENSATED = 2


@dataclass
class MatchResult:
    labels: np.ndarray       # (N,) int, 0 negative / 1 matched / 2 compensated
    assigned_gt: np.ndarray  # (N,) int, -1 where negative
    targets: np.ndarray      # (N,4) encoded deltas, zero rows where negative

    @property
    def n1(self) -> int:
        return int(np.sum(self.labels == LABEL_MATCHED))

    @property
    def n2(self) -> int:
        return int(np.sum(self.labels == LABEL_COMPENSATED))


def dam_match(anchors: np.ndarray, regressed: np.ndarray, gts: np.ndarray,
              t1: float, t2: float) -> MatchResult:
    """Two-step match over the (N, 4) anchor boxes; `regressed` is the anchors'
    current decoded box predictions, parallel to them."""
    boxes = np.asarray(anchors, dtype=np.float64)
    regressed = np.asarray(regressed, dtype=np.float64)
    gts = np.asarray(gts, dtype=np.float64).reshape(-1, 4)
    n = boxes.shape[0]
    if regressed.shape != boxes.shape:
        raise ValueError(
            f"regressed boxes {regressed.shape} not parallel to anchors {boxes.shape}")

    labels = np.zeros(n, dtype=np.int64)
    assigned = np.full(n, -1, dtype=np.int64)
    targets = np.zeros((n, 4), dtype=np.float64)
    if n == 0 or gts.shape[0] == 0:
        return MatchResult(labels, assigned, targets)

    anchor_iou = iou_matrix(boxes, gts)
    best_gt = anchor_iou.argmax(axis=1)        # ties -> lowest gt index
    best_iou = anchor_iou[np.arange(n), best_gt]
    matched = best_iou >= t1
    labels[matched] = LABEL_MATCHED
    assigned[matched] = best_gt[matched]

    rest = ~matched
    if np.any(rest):
        reg_iou = iou_matrix(regressed[rest], gts)
        reg_best_gt = reg_iou.argmax(axis=1)
        reg_best_iou = reg_iou[np.arange(reg_iou.shape[0]), reg_best_gt]
        comp = reg_best_iou >= t2
        idx = np.flatnonzero(rest)[comp]
        labels[idx] = LABEL_COMPENSATED
        assigned[idx] = reg_best_gt[comp]

    pos = labels != LABEL_NEGATIVE
    if np.any(pos):
        targets[pos] = encode(boxes[pos], gts[assigned[pos]])
    return MatchResult(labels, assigned, targets)
