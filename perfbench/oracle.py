"""Reference detections and the checks every `acfd detect` output must pass.

The reference starts from the head outputs of the same model on the same
padded inputs and re-derives everything after them on its own: anchors,
sigmoid, confidence floor, per-scale top-k, box decoding and the mapping
back to the source frame. Suppression is `acfd.verify.nms_reference`, the
program's exhaustive greedy oracle.

Tolerances are rooted in the 1e-3 end-to-end fused-vs-unfused drift bound:
a head output that moves by at most DRIFT moves a score by at most DRIFT / 4
and a box edge by at most DRIFT * (anchor side + box side) scaled pixels.
"""
from __future__ import annotations

import json
import re

import numpy as np

from workloads import CONF_THRESHOLD, FINAL_TOP, NMS_IOU, PER_SCALE_TOP

DRIFT = 1e-3
ROUNDING = 1e-4          # the output keeps four decimals
SCORE_TOL = DRIFT + ROUNDING
STRIDES = (4, 8, 16, 32, 64, 128)
ANCHOR_SCALE = 4
DELTA_CLAMP = float(np.log(1000.0 / 16.0))
NMS_PREFIX = 256

_NUM = r"(-?\d+\.\d{4})"
LINE_RE = re.compile(
    r'\{"image_id": "(?P<id>[^"\\]*)", "x1": ' + _NUM + r', "y1": ' + _NUM
    + r', "x2": ' + _NUM + r', "y2": ' + _NUM + r', "score": ' + _NUM + r"\}")


def anchor_grid(padded_hw):
    """(total, 4) anchor boxes in the frozen order, and each anchor's side."""
    h, w = padded_hw
    boxes, sides = [], []
    for s in STRIDES:
        cy = (np.arange(h // s, dtype=np.float64) + 0.5) * s
        cx = (np.arange(w // s, dtype=np.float64) + 0.5) * s
        cxg, cyg = np.meshgrid(cx, cy)
        half = ANCHOR_SCALE * s / 2.0
        boxes.append(np.stack([cxg - half, cyg - half, cxg + half, cyg + half],
                              axis=-1).reshape(-1, 4))
        sides.append(np.full(cxg.size, 2.0 * half))
    return np.concatenate(boxes), np.concatenate(sides)


def sigmoid32(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def scale_candidates(cls_levels, reg_levels, padded_hw, valid_hw, scale_xy):
    """One scale's candidates in the source frame: boxes, scores, box tolerance."""
    logits = np.concatenate([c.reshape(-1) for c in cls_levels])
    deltas = np.concatenate([r[0].transpose(1, 2, 0).reshape(-1, 4) for r in reg_levels])
    probs = sigmoid32(logits)
    keep = np.flatnonzero(probs > CONF_THRESHOLD)
    order = keep[np.argsort(-probs[keep], kind="stable")][:PER_SCALE_TOP]
    anchors, sides = anchor_grid(padded_hw)
    a, d = anchors[order], deltas[order].astype(np.float64)
    aw, ah = a[:, 2] - a[:, 0], a[:, 3] - a[:, 1]
    cx, cy = d[:, 0] * aw + (a[:, 0] + 0.5 * aw), d[:, 1] * ah + (a[:, 1] + 0.5 * ah)
    bw = np.exp(np.minimum(d[:, 2], DELTA_CLAMP)) * aw
    bh = np.exp(np.minimum(d[:, 3], DELTA_CLAMP)) * ah
    boxes = np.stack([cx - 0.5 * bw, cy - 0.5 * bh, cx + 0.5 * bw, cy + 0.5 * bh], axis=-1)
    vh, vw = valid_hw
    boxes[:, 0::2] = boxes[:, 0::2].clip(0, vw)
    boxes[:, 1::2] = boxes[:, 1::2].clip(0, vh)
    sx, sy = scale_xy
    boxes[:, 0::2] /= sx
    boxes[:, 1::2] /= sy
    tol = DRIFT * (sides[order] + np.maximum(bw, bh)) / min(sx, sy) + ROUNDING
    return boxes, probs[order].astype(np.float64), tol


def reference_top(boxes, scores, nms_reference):
    """Indices of the final detections, in output order.

    Greedy suppression decides each box from higher-ranked boxes only, so the
    first FINAL_TOP boxes kept from a score-sorted prefix are the first
    FINAL_TOP kept from the whole pool; the prefix grows until it keeps that
    many or covers the pool. This keeps the quadratic oracle affordable.
    """
    order = np.argsort(-scores, kind="stable")
    length = NMS_PREFIX
    while True:
        prefix = order[:length]
        keep = nms_reference([boxes[i] for i in prefix],
                             [float(scores[i]) for i in prefix], NMS_IOU)
        if len(keep) >= FINAL_TOP or length >= len(order):
            return prefix[keep[:FINAL_TOP]]
        length *= 2


def parse_output(text: str, image_id: str):
    """Parsed (boxes, scores) of one JSONL output, and the format problems."""
    problems = []
    lines = text.splitlines()
    if text and not text.endswith("\n"):
        problems.append("output does not end with a newline")
    if len(lines) > FINAL_TOP:
        problems.append(f"{len(lines)} lines > {FINAL_TOP}")
    rows = []
    for n, line in enumerate(lines):
        match = LINE_RE.fullmatch(line)
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            record = None
        if match is None or record is None:
            problems.append(f"line {n}: malformed {line[:80]!r}")
            continue
        if match["id"] != image_id:
            problems.append(f"line {n}: image_id {match['id']!r} != {image_id!r}")
        rows.append([float(v) for v in match.groups()[1:]])
    rows = np.asarray(rows, dtype=np.float64).reshape(-1, 5)
    return rows[:, :4], rows[:, 4], problems


def check_output(text: str, image_id: str, frame_hw, ref: dict) -> list[str]:
    """Every reason this output is wrong; empty when it passes.

    ref holds the reference detections (`top_*`) and the whole candidate
    pool (`cand_*`). An output box that matches no reference detection is
    still accepted as a near-tie resolved the other way: it must be a
    reference candidate whose score is within SCORE_TOL of an unmatched
    reference detection's, but not equal to it. Equal scores are ordered by
    the frozen stable tie-break, so they must come out as the reference has
    them.
    """
    boxes, scores, problems = parse_output(text, image_id)
    if problems:
        return problems
    h, w = frame_hw
    inside = ((boxes[:, 0] >= -ROUNDING) & (boxes[:, 1] >= -ROUNDING)
              & (boxes[:, 2] <= w + ROUNDING) & (boxes[:, 3] <= h + ROUNDING)
              & (boxes[:, 0] <= boxes[:, 2]) & (boxes[:, 1] <= boxes[:, 3]))
    for n in np.flatnonzero(~inside):
        problems.append(f"line {n}: box {boxes[n].tolist()} outside {w}x{h}")
    for n in np.flatnonzero(scores <= CONF_THRESHOLD - ROUNDING):
        problems.append(f"line {n}: score {scores[n]} below the floor")
    for n in np.flatnonzero(np.diff(scores) > 0):
        problems.append(f"line {n + 1}: scores not descending")

    top_boxes, top_scores, top_tol = ref["top_boxes"], ref["top_scores"], ref["top_tol"]
    if len(scores) != len(top_scores):
        problems.append(f"{len(scores)} detections, reference has {len(top_scores)}")
    used = np.zeros(len(top_scores), dtype=bool)
    unmatched = []
    for n, (box, score) in enumerate(zip(boxes, scores)):
        close = ((np.abs(top_scores - score) <= SCORE_TOL)
                 & np.all(np.abs(top_boxes - box) <= top_tol[:, None], axis=1) & ~used)
        if close.any():
            used[n if n < len(close) and close[n] else np.flatnonzero(close)[0]] = True
        else:
            unmatched.append(n)
    for n in unmatched:
        box, score = boxes[n], scores[n]
        same = ((np.abs(ref["cand_scores"] - score) <= SCORE_TOL)
                & np.all(np.abs(ref["cand_boxes"] - box) <= ref["cand_tol"][:, None], axis=1))
        gap = np.abs(top_scores[None, :] - ref["cand_scores"][same][:, None])
        ties = np.flatnonzero(np.any((gap <= SCORE_TOL) & (gap > 0), axis=0) & ~used)
        if ties.size:
            used[ties[0]] = True
        else:
            problems.append(f"line {n}: {box.tolist()} score {score} "
                            "matches no reference detection")
    return problems
