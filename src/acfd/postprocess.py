"""Inference post-processing: from head outputs to the final detections.

Per test scale: sigmoid the logits, drop scores at or below the confidence
floor, keep the top 1000, decode boxes and map them back into the original
image frame. The merged pool then runs greedy NMS at IoU 0.55, which stops
at the 100th kept detection. Detections stay as parallel arrays throughout:
corner-form boxes (k, 4) in original-image pixels and scores (k,).
"""
from __future__ import annotations

import numpy as np

from .anchors import HeadOutput, decode, generate_anchors
from .backbone import GRID_MULTIPLE
from .matching import iou_matrix
from .tensor_ops import sigmoid

CONF_THRESHOLD = 0.08
PER_SCALE_TOP = 1000
NMS_IOU = 0.55
FINAL_TOP = 100

TEST_SCALES = ((480, 645), (640, 860), (800, 1075))


def pad_to_grid(hw: tuple[int, int]) -> tuple[int, int]:
    """Round each dim up to the next multiple of 128."""
    h, w = hw
    pad = lambda v: ((v + GRID_MULTIPLE - 1) // GRID_MULTIPLE) * GRID_MULTIPLE
    return pad(h), pad(w)


def nms(boxes: np.ndarray, scores: np.ndarray, iou_thresh: float = NMS_IOU,
        top: int | None = None) -> np.ndarray:
    """Indices of the kept boxes, greedy score-descending suppression with a
    stable tie-break by input index.

    Each box is decided by higher-scored boxes only, so stopping after ``top``
    keeps gives the first ``top`` of the full result. IoU is computed one
    kept box's row at a time; the N x N matrix is never built.
    """
    boxes = np.asarray(boxes, dtype=np.float64)
    limit = len(boxes) if top is None else max(top, 0)
    order = np.argsort(-np.asarray(scores), kind="stable")
    keep = []
    alive = np.ones(len(boxes), dtype=bool)
    for i in order:
        if len(keep) == limit:
            break
        if not alive[i]:
            continue
        keep.append(i)
        alive &= iou_matrix(boxes[i:i + 1], boxes)[0] <= iou_thresh
        alive[i] = False
    return np.array(keep, dtype=np.intp)


def scale_detections(output: HeadOutput, scale_hw: tuple[int, int],
                     source_hw: tuple[int, int], conf: float = CONF_THRESHOLD
                     ) -> tuple[np.ndarray, np.ndarray]:
    """The top PER_SCALE_TOP (boxes (k, 4), scores (k,)) above ``conf`` of a forward on
    ``pad_to_grid(scale_hw)``, clipped to ``scale_hw`` and mapped into ``source_hw``."""
    probs = sigmoid(output.flat_cls())[0]
    keep = np.flatnonzero(probs > conf)
    if len(keep) > PER_SCALE_TOP:
        # only scores at or above the PER_SCALE_TOP-th highest can be kept
        cut = np.partition(probs[keep], -PER_SCALE_TOP)[-PER_SCALE_TOP]
        keep = keep[probs[keep] >= cut]
    # stable sort: highest scores first, ties by anchor index
    order = keep[np.argsort(-probs[keep], kind="stable")[:PER_SCALE_TOP]]
    boxes = decode(generate_anchors(pad_to_grid(scale_hw), order), output.flat_reg()[0][order])
    (sh, sw), (oh, ow) = scale_hw, source_hw
    boxes[:, 0::2] = boxes[:, 0::2].clip(0, sw)
    boxes[:, 1::2] = boxes[:, 1::2].clip(0, sh)
    boxes[:, 0::2] /= sw / ow
    boxes[:, 1::2] /= sh / oh
    return boxes, probs[order]


def postprocess(per_scale: list[tuple[np.ndarray, np.ndarray]],
                nms_iou: float = NMS_IOU) -> tuple[np.ndarray, np.ndarray]:
    """The first FINAL_TOP kept (boxes (k, 4), scores (k,)) of NMS over every
    scale's candidates, merged in scale order; highest score first."""
    boxes = np.concatenate([b for b, _ in per_scale])
    scores = np.concatenate([s for _, s in per_scale])
    keep = nms(boxes, scores, nms_iou, FINAL_TOP)
    return boxes[keep], scores[keep]
