"""Self-contained property battery with brute-force reference oracles.

The references here deliberately share no code with the paths they check:
scalar-loop IoU and matching, exhaustive NMS, finite differences. Both the
``verify`` CLI subcommand and the test suite drive these checks.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import losses, matching, model, postprocess
from .anchors import anchor_count, generate_anchors
from .backbone import random_acb, random_bn, kaiming_conv
from .fusion import Branches, ConvBn, acb_forward, block_conv, fuse_block
from .tensor_ops import batch_norm_infer, conv2d, map_tree


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


# ---------------------------------------------------------------------------
# reference oracles

def iou_reference(a, b) -> float:
    """Scalar-arithmetic IoU, independent of the vectorized matrix path."""
    ax1, ay1, ax2, ay2 = (float(v) for v in a)
    bx1, by1, bx2, by2 = (float(v) for v in b)
    iw = min(ax2, bx2) - max(ax1, bx1)
    ih = min(ay2, by2) - max(ay1, by1)
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    union = (ax2 - ax1) * (ay2 - ay1) + (bx2 - bx1) * (by2 - by1) - inter
    return inter / union if union > 0 else 0.0


def dam_match_reference(anchor_boxes, regressed, gts, t1: float, t2: float):
    """Literal two-step matcher: per-anchor loops, first-max tie-break.

    Returns (labels, assigned_gt) lists.
    """
    labels, assigned = [], []
    for i in range(len(anchor_boxes)):
        best_iou, best_gt = -1.0, -1
        for g in range(len(gts)):
            v = iou_reference(anchor_boxes[i], gts[g])
            if v > best_iou:
                best_iou, best_gt = v, g
        if best_gt >= 0 and best_iou >= t1:
            labels.append(1)
            assigned.append(best_gt)
            continue
        best_iou, best_gt = -1.0, -1
        for g in range(len(gts)):
            v = iou_reference(regressed[i], gts[g])
            if v > best_iou:
                best_iou, best_gt = v, g
        if best_gt >= 0 and best_iou >= t2:
            labels.append(2)
            assigned.append(best_gt)
        else:
            labels.append(0)
            assigned.append(-1)
    return labels, assigned


def nms_reference(boxes, scores, iou_thresh: float):
    """Exhaustive greedy suppression over index lists."""
    remaining = list(range(len(scores)))
    keep = []
    while remaining:
        best = remaining[0]
        for i in remaining[1:]:
            if scores[i] > scores[best]:
                best = i
        keep.append(best)
        remaining = [i for i in remaining
                     if i != best and iou_reference(boxes[best], boxes[i]) <= iou_thresh]
    return keep


def finite_difference(fn, x: float, h: float = 1e-4) -> float:
    return (fn(x + h) - fn(x - h)) / (2.0 * h)


# ---------------------------------------------------------------------------
# checks

def check_anchor_count() -> CheckResult:
    got = len(generate_anchors((640, 640)))
    formula = anchor_count((640, 640))
    ok = got == 34125 and formula == 34125
    return CheckResult("anchor-count", ok, f"640x640 -> {got} anchors")


def check_conv_bn_folding(rng: np.random.Generator, trials: int = 25) -> CheckResult:
    worst = 0.0
    for _ in range(trials):
        c_in, c_out = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        k = int(rng.choice([1, 3]))
        conv = kaiming_conv(rng, c_out, c_in, k, k, padding=(k // 2, k // 2))
        bn = random_bn(rng, c_out)
        x = rng.normal(size=(2, c_in, 6, 6)).astype(np.float32)
        fused = fuse_block(Branches([ConvBn(conv, bn)]))
        diff = np.abs(conv2d(x, fused) - batch_norm_infer(conv2d(x, conv), bn)).max()
        worst = max(worst, float(diff))
    return CheckResult("conv-bn-folding", worst <= 1e-5, f"max err {worst:.2e}")


def check_acb_fusion(rng: np.random.Generator, trials: int = 25) -> CheckResult:
    worst = 0.0
    for _ in range(trials):
        c_in, c_out = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        spec = random_acb(rng, c_in, c_out)
        fused = fuse_block(spec)
        x = rng.normal(size=(1, c_in, 7, 7)).astype(np.float32)
        diff = np.abs(acb_forward(x, spec) - conv2d(x, fused)).max()
        worst = max(worst, float(diff))
    return CheckResult("acb-fusion", worst <= 1e-4, f"max err {worst:.2e}")


FUSION_DRIFT_BOUND = 1e-3  # `fuse` refuses a fold whose fusion_drift is above it


def fusion_drift(unfused, fused, seed: int) -> float:
    """Largest |fused - unfused| over every head output (NaN if any is), on a
    seeded (1, 3, 128, 128) probe in the normalized-image range detect sees."""
    rng = np.random.default_rng(seed)
    probe = rng.uniform(-0.5, 0.5, size=(1, 3, 128, 128)).astype(np.float32)
    a, b = model.forward(unfused, probe), model.forward(fused, probe)
    return float(np.max([np.abs(x - y).max() for x, y in zip(a.cls + a.reg, b.cls + b.reg)]))


def check_model_fusion_drift(unfused, fused, seed: int) -> CheckResult:
    drift = fusion_drift(unfused, fused, seed + 1)
    return CheckResult("model-fusion-drift", drift <= FUSION_DRIFT_BOUND, f"max err {drift:.2e}")


def check_fold_macs(unfused, fused) -> CheckResult:
    """At each default padded grid and the probe grid, the fold counts fewer
    MACs than the unfused model, and as many as the unfused model cut to each
    block's first branch: it drops exactly the 1x3 and 3x1 branches."""
    first = map_tree(unfused, Branches, block_conv)
    for h, w in (*map(postprocess.pad_to_grid, postprocess.TEST_SCALES), (128, 128)):
        a, b, c = (model.count_model_macs(m, (h, w)) for m in (unfused, fused, first))
        if not (ok := b < a and b == c):
            break  # the detail names the first grid that fails, or else the probe
    return CheckResult("fold-macs", ok, f"{h}x{w}: {a} -> {b} MACs, first branch {c}")


def _random_match_instance(rng: np.random.Generator):
    n = int(rng.integers(1, 51))
    m = int(rng.integers(0, 9))
    def boxes(k):
        xy = rng.uniform(0, 80, size=(k, 2))
        wh = rng.uniform(1, 40, size=(k, 2))
        return np.concatenate([xy, xy + wh], axis=1)
    return boxes(n), boxes(n), boxes(m)


def check_dam_oracle(rng: np.random.Generator, instances: int = 200,
                     t1: float = 0.35, t2: float = 0.7) -> CheckResult:
    for _ in range(instances):
        anchors, regressed, gts = _random_match_instance(rng)
        got = matching.dam_match(anchors, regressed, gts, t1, t2)
        ref_labels, ref_assigned = dam_match_reference(anchors, regressed, gts, t1, t2)
        if not (np.array_equal(got.labels, ref_labels)
                and np.array_equal(got.assigned_gt, ref_assigned)):
            return CheckResult("dam-oracle", False, "label/assignment mismatch")
    return CheckResult("dam-oracle", True,
                       f"{instances} instances agree at T1={t1} T2={t2}")


def check_nms_oracle(rng: np.random.Generator, trials: int = 30) -> CheckResult:
    for _ in range(trials):
        n = int(rng.integers(1, 80))
        xy = rng.uniform(0, 60, size=(n, 2))
        wh = rng.uniform(2, 30, size=(n, 2))
        boxes = np.concatenate([xy, xy + wh], axis=1)
        scores = rng.uniform(0, 1, size=n)
        got = postprocess.nms(boxes, scores, 0.55).tolist()
        ref = nms_reference(boxes, scores, 0.55)
        if got != ref:
            return CheckResult("nms-oracle", False, f"kept {got} vs {ref}")
        top = len(ref) // 2  # greedy suppression cut at the top-th keep
        cut = postprocess.nms(boxes, scores, 0.55, top).tolist()
        if cut != ref[:top]:
            return CheckResult("nms-oracle", False, f"top {top}: kept {cut} vs {ref[:top]}")
    return CheckResult("nms-oracle", True, f"{trials} random sets agree, uncut and cut")


def check_loss_gradients(rng: np.random.Generator, points: int = 200,
                         h: float = 1e-4, margin: float = 0.2) -> CheckResult:
    """Central finite differences vs analytic gradients, float64."""
    cfg = losses.LossConfig(margin=margin)
    checked = 0
    worst = 0.0
    while checked < points:
        n = int(rng.integers(3, 12))
        labels = rng.choice([0, 1, 2], size=n)
        targets = np.zeros((n, 4))
        targets[labels != 0] = rng.normal(0, 0.5, size=(int((labels != 0).sum()), 4))
        match = matching.MatchResult(labels=labels,
                                     assigned_gt=np.where(labels != 0, 0, -1),
                                     targets=targets)
        preds = rng.normal(0, 0.8, size=(n, 4))
        probs = rng.uniform(0.05, 0.95, size=n)
        dpreds, dprobs = losses.loss_grad(match, preds, probs, cfg)

        i = int(rng.integers(0, n))
        j = int(rng.integers(0, 4))
        d = preds[i, j] - targets[i, j]
        if abs(abs(d) - cfg.smooth_l1_beta) > 1e-3:  # skip the kink
            def f_reg(v, i=i, j=j):
                p = preds.copy()
                p[i, j] = v
                return losses.total_loss(match, p, probs, cfg).total
            num = finite_difference(f_reg, preds[i, j], h)
            rel = float(abs(num - dpreds[i, j])) / max(abs(num), 1e-8)
            if abs(num) > 1e-7 or abs(dpreds[i, j]) > 1e-7:
                worst = max(worst, rel)
            checked += 1

        i = int(rng.integers(0, n))
        shifted = probs[i] - (cfg.margin if labels[i] != 0 else 0.0)
        if cfg.prob_clamp + 1e-3 < shifted < 1 - cfg.prob_clamp - 1e-3:
            def f_cls(v, i=i):
                p = probs.copy()
                p[i] = v
                return losses.total_loss(match, preds, p, cfg).total
            num = finite_difference(f_cls, probs[i], h)
            rel = float(abs(num - dprobs[i])) / max(abs(num), 1e-8)
            worst = max(worst, rel)
            checked += 1
    ok = bool(worst <= 1e-3)
    return CheckResult("loss-gradients", ok, f"{checked} points, worst rel {worst:.2e}")


def run_all(seed: int = 0) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    unfused = model.build_model(model.tiny_config(), seed=seed)
    fused = model.fuse_model(unfused)
    return [
        check_anchor_count(),
        check_conv_bn_folding(rng),
        check_acb_fusion(rng),
        check_model_fusion_drift(unfused, fused, seed),
        check_fold_macs(unfused, fused),
        check_dam_oracle(rng),
        check_nms_oracle(rng),
        check_loss_gradients(rng),
    ]
