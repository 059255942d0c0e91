"""Inference post-processing and single-class average precision.

Per test scale: sigmoid the logits, drop scores at or below the confidence
floor, keep the top 1000, decode boxes and map them back into the original
image frame. The merged pool then runs greedy NMS at IoU 0.55, which stops
at the 100th kept detection.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .anchors import HeadOutput, decode, generate_anchors
from .matching import iou_matrix
from .tensor_ops import sigmoid

CONF_THRESHOLD = 0.08
PER_SCALE_TOP = 1000
NMS_IOU = 0.55
FINAL_TOP = 100
GRID_MULTIPLE = 128

TEST_SCALES = ((480, 645), (640, 860), (800, 1075))


@dataclass(eq=False)  # identity equality; box is an ndarray
class Detection:
    box: np.ndarray  # (4,) corner form, original-image pixels
    score: float


@dataclass
class ScaleInfo:
    """Bookkeeping to map boxes from one test scale back to the source frame.

    padded_hw: grid the network ran on (next multiples of 128).
    valid_hw: resized image extent inside the padded grid.
    scale_xy: original -> resized factors (resized = original * scale).
    """

    padded_hw: tuple[int, int]
    valid_hw: tuple[int, int]
    scale_xy: tuple[float, float]


def multi_scale_sizes() -> list[tuple[int, int]]:
    """The three fixed test resolutions (h, w)."""
    return [tuple(s) for s in TEST_SCALES]


def pad_to_grid(hw: tuple[int, int]) -> tuple[int, int]:
    """Round each dim up to the next multiple of 128."""
    h, w = hw
    pad = lambda v: ((v + GRID_MULTIPLE - 1) // GRID_MULTIPLE) * GRID_MULTIPLE
    return pad(h), pad(w)


def nms(dets: list[Detection], iou_thresh: float = NMS_IOU,
        top: int | None = None) -> list[Detection]:
    """Greedy score-descending suppression, stable tie-break by input index.

    Each box is decided by higher-scored boxes only, so stopping after ``top``
    keeps gives the first ``top`` of the full result. IoU is computed one
    kept box's row at a time; the N x N matrix is never built.
    """
    limit = len(dets) if top is None else max(top, 0)
    if len(dets) <= 1:
        return list(dets[:limit])
    boxes = np.stack([d.box for d in dets]).astype(np.float64)
    scores = np.array([d.score for d in dets], dtype=np.float64)
    order = np.argsort(-scores, kind="stable")
    keep = []
    alive = np.ones(len(dets), dtype=bool)
    for i in order:
        if len(keep) == limit:
            break
        if not alive[i]:
            continue
        keep.append(i)
        alive &= iou_matrix(boxes[i:i + 1], boxes)[0] <= iou_thresh
        alive[i] = False
    return [dets[i] for i in keep]


def _per_scale_detections(output: HeadOutput, info: ScaleInfo,
                          conf: float, top: int) -> list[Detection]:
    probs = sigmoid(output.flat_cls())[0]
    deltas = output.flat_reg()[0]
    keep = np.flatnonzero(probs > conf)
    if keep.size == 0:
        return []
    if keep.size > top:
        # stable partial sort: highest scores, ties by anchor index
        order = keep[np.argsort(-probs[keep], kind="stable")[:top]]
    else:
        order = keep[np.argsort(-probs[keep], kind="stable")]
    anchors = generate_anchors(info.padded_hw)
    boxes = decode(anchors.boxes[order], deltas[order])
    vh, vw = info.valid_hw
    boxes[:, 0::2] = boxes[:, 0::2].clip(0, vw)
    boxes[:, 1::2] = boxes[:, 1::2].clip(0, vh)
    sx, sy = info.scale_xy
    boxes[:, 0::2] /= sx
    boxes[:, 1::2] /= sy
    return [Detection(box=b, score=float(s)) for b, s in zip(boxes, probs[order])]


def postprocess(per_scale_outputs: list[tuple[HeadOutput, ScaleInfo]],
                conf: float = CONF_THRESHOLD,
                per_scale_top: int = PER_SCALE_TOP,
                nms_iou: float = NMS_IOU,
                final_top: int = FINAL_TOP) -> list[Detection]:
    merged: list[Detection] = []
    for output, info in per_scale_outputs:
        merged.extend(_per_scale_detections(output, info, conf, per_scale_top))
    return nms(merged, nms_iou, final_top)


def evaluate_ap(gts: list[np.ndarray], dets: list[list[Detection]],
                iou_thresh: float = 0.5) -> float:
    """Single-class AP at the given IoU, all-point interpolation.

    Detections are swept in global score-descending order; each ground truth
    may satisfy one detection. Zero ground truths: AP is 1.0 when there are
    also no detections, else 0.0.
    """
    total_gt = sum(len(g) for g in gts)
    flat = [(d.score, img, d) for img, img_dets in enumerate(dets) for d in img_dets]
    if total_gt == 0:
        return 1.0 if not flat else 0.0
    if not flat:
        return 0.0

    scores = np.array([f[0] for f in flat])
    order = np.argsort(-scores, kind="stable")
    matched = [np.zeros(len(g), dtype=bool) for g in gts]
    tp = np.zeros(len(flat))
    for rank, idx in enumerate(order):
        _, img, det = flat[idx]
        gt_boxes = np.asarray(gts[img], dtype=np.float64).reshape(-1, 4)
        if gt_boxes.shape[0] == 0:
            continue
        overlaps = iou_matrix(det.box[None, :], gt_boxes)[0]
        best = int(overlaps.argmax())
        if overlaps[best] >= iou_thresh and not matched[img][best]:
            matched[img][best] = True
            tp[rank] = 1.0

    tp_cum = np.cumsum(tp)
    fp_cum = np.cumsum(1.0 - tp)
    recall = tp_cum / total_gt
    precision = tp_cum / (tp_cum + fp_cum)
    mrec = np.concatenate([[0.0], recall, [1.0]])
    mpre = np.concatenate([[0.0], precision, [0.0]])
    for i in range(len(mpre) - 2, -1, -1):
        mpre[i] = max(mpre[i], mpre[i + 1])
    steps = np.flatnonzero(mrec[1:] != mrec[:-1]) + 1
    return float(np.sum((mrec[steps] - mrec[steps - 1]) * mpre[steps]))
