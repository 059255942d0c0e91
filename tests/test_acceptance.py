"""Acceptance gate: every release criterion at its frozen tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` for the live
table). Criteria cover the exactly-checkable structural numbers plus the
equivalence/oracle properties; no trained weights are involved anywhere.
"""
import json
import time

import numpy as np
import pytest

from acfd import cli, container, losses, matching, postprocess
from acfd.anchors import (STRIDES, HeadOutput, anchor_count, encode, generate_anchors)
from acfd.backbone import backbone_forward, random_acb
from acfd.fusion import Branches, ConvBn, acb_forward, fuse_block
from acfd.backbone import kaiming_conv, random_bn
from acfd.matching import dam_match, iou_matrix
from acfd.model import (build_model, count_model_macs, forward, full_config,
                        fuse_model, tiny_config)
from acfd.ppm import write_ppm
from acfd.tensor_ops import batch_norm_infer, conv2d, sigmoid
from acfd.verify import dam_match_reference, finite_difference, nms_reference
from reference import evaluate_ap, identity_laterals


def report(number: int, name: str, passed: bool, detail: str = ""):
    print(f"\nACCEPTANCE {number:02d} {name}: {'PASS' if passed else 'FAIL'}"
          + (f" ({detail})" if detail else ""))
    assert passed, f"criterion {number} ({name}) failed: {detail}"


def test_01_anchor_count():
    anchors = generate_anchors((640, 640))
    sides = sorted({int(round(s)) for s in (anchors[:, 2] - anchors[:, 0])})
    ok = len(anchors) == 34125 and sides == [16, 32, 64, 128, 256, 512]
    report(1, "anchor-count", ok, f"{len(anchors)} anchors, sides {sides}")


def test_02_table_conformance():
    t0 = time.perf_counter()
    model = build_model(full_config(), seed=0)
    image = np.random.default_rng(0).uniform(-0.5, 0.5, (1, 3, 640, 640)).astype(np.float32)
    pyramid = backbone_forward(image, model.backbone,
                               identity_laterals(model.config.backbone.out_channels))
    elapsed = time.perf_counter() - t0
    expected = [(1, 256, 160, 160), (1, 512, 80, 80), (1, 768, 40, 40),
                (1, 1024, 20, 20), (1, 128, 10, 10), (1, 128, 5, 5)]
    got = [p.shape for p in pyramid]
    report(2, "table-conformance", got == expected and elapsed < 30.0,
           f"{got} in {elapsed:.1f}s")


def test_03_acb_fusion_equivalence():
    worst32 = worst64 = 0.0
    for trial in range(100):
        rng = np.random.default_rng(1000 + trial)
        c_in, c_out = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        for dtype, atol in ((np.float32, None), (np.float64, None)):
            spec = random_acb(rng, c_in, c_out, dtype=dtype)
            x = rng.normal(size=(1, c_in, 8, 8)).astype(dtype)
            diff = float(np.abs(acb_forward(x, spec) - conv2d(x, fuse_block(spec))).max())
            if dtype == np.float32:
                worst32 = max(worst32, diff)
            else:
                worst64 = max(worst64, diff)
    ok = worst32 <= 1e-4 and worst64 <= 1e-10
    report(3, "acb-fusion", ok, f"f32 {worst32:.2e}, f64 {worst64:.2e}")


def test_04_conv_bn_folding():
    worst = 0.0
    for trial in range(100):
        rng = np.random.default_rng(2000 + trial)
        c_in, c_out = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        k = int(rng.choice([1, 3]))
        conv = kaiming_conv(rng, c_out, c_in, k, k, padding=(k // 2, k // 2))
        bn = random_bn(rng, c_out)
        x = rng.normal(size=(2, c_in, 7, 7)).astype(np.float32)
        diff = np.abs(conv2d(x, fuse_block(Branches([ConvBn(conv, bn)])))
                      - batch_norm_infer(conv2d(x, conv), bn)).max()
        worst = max(worst, float(diff))
    report(4, "conv-bn-folding", worst <= 1e-5, f"max err {worst:.2e}")


def test_05_end_to_end_fusion_drift():
    model = build_model(tiny_config(), seed=0)
    fused = fuse_model(model)
    image = np.random.default_rng(1).uniform(-0.5, 0.5, (1, 3, 128, 128)).astype(np.float32)
    a, b = forward(model, image), forward(fused, image)
    worst = max(float(np.abs(x - y).max())
                for x, y in zip(a.cls + a.reg, b.cls + b.reg))
    report(5, "end-to-end-fusion-drift", worst <= 1e-3, f"max err {worst:.2e}")


def test_06_dam_oracle_equivalence():
    rng = np.random.default_rng(3)
    mismatches = 0
    for _ in range(1000):
        n, m = int(rng.integers(1, 51)), int(rng.integers(0, 9))
        def boxes(k):
            xy = rng.uniform(0, 80, size=(k, 2))
            return np.concatenate([xy, xy + rng.uniform(1, 40, size=(k, 2))], axis=1)
        anchors, regressed, gts = boxes(n), boxes(n), boxes(m)
        got = dam_match(anchors, regressed, gts, 0.35, 0.7)
        labels, assigned = dam_match_reference(anchors, regressed, gts, 0.35, 0.7)
        if got.labels.tolist() != labels or got.assigned_gt.tolist() != assigned:
            mismatches += 1
        # T2 = inf reduces to the classic one-step matcher
        classic = dam_match(anchors, regressed, gts, 0.35, np.inf)
        expected = (iou_matrix(anchors, gts).max(axis=1) >= 0.35).astype(int) \
            if m else np.zeros(n, dtype=int)
        if classic.labels.tolist() != expected.tolist():
            mismatches += 1
    report(6, "dam-oracle", mismatches == 0, f"1000 instances, {mismatches} mismatches")


def test_07_loss_gradient_checks():
    cfg = losses.LossConfig()
    rng = np.random.default_rng(4)
    checked = 0
    worst = 0.0
    while checked < 1000:
        n = int(rng.integers(3, 12))
        labels = rng.choice([0, 1, 2], size=n)
        targets = rng.normal(0, 0.5, size=(n, 4)) * (labels != 0)[:, None]
        match = matching.MatchResult(labels=labels,
                                     assigned_gt=np.where(labels != 0, 0, -1),
                                     targets=targets)
        preds = rng.normal(0, 0.8, size=(n, 4))
        probs = rng.uniform(0.05, 0.95, size=n)
        dpreds, dprobs = losses.loss_grad(match, preds, probs, cfg)

        i, j = int(rng.integers(0, n)), int(rng.integers(0, 4))
        if abs(abs(preds[i, j] - targets[i, j]) - cfg.smooth_l1_beta) > 1e-3:
            def f(v, i=i, j=j):
                p = preds.copy()
                p[i, j] = v
                return losses.total_loss(match, p, probs, cfg).total
            num = finite_difference(f, preds[i, j], h=1e-4)
            if abs(num) > 1e-7 or abs(dpreds[i, j]) > 1e-7:
                worst = max(worst, float(abs(num - dpreds[i, j])) / max(abs(num), 1e-8))
            checked += 1

        i = int(rng.integers(0, n))
        shifted = probs[i] - (cfg.margin if labels[i] != 0 else 0.0)
        if cfg.prob_clamp + 1e-3 < shifted < 1 - cfg.prob_clamp - 1e-3:
            def g(v, i=i):
                p = probs.copy()
                p[i] = v
                return losses.total_loss(match, preds, p, cfg).total
            num = finite_difference(g, probs[i], h=1e-4)
            worst = max(worst, float(abs(num - dprobs[i])) / max(abs(num), 1e-8))
            checked += 1
    report(7, "loss-gradients", worst <= 1e-3, f"{checked} points, worst rel {worst:.2e}")


def test_08_hand_value_loss_checks():
    m = losses.margin_transform(0.9, True, 0.2)
    f = losses.focal(0.9, True, alpha=0.25, gamma=2.0)
    d02 = float(np.sqrt(np.float64(0.4)))  # 0.5*d*d == 0.2 exactly
    match = matching.MatchResult(labels=np.array([1, 1, 2]),
                                 assigned_gt=np.array([0, 0, 0]),
                                 targets=np.zeros((3, 4)))
    preds = np.array([[d02, 0.0, 0.0, 0.0],
                      [d02, d02, 0.0, 0.0],
                      [1.5, 0.0, 0.0, 0.0]])
    cfg = losses.LossConfig()
    main, comp = losses.regression_loss(match, preds, cfg)
    eq1_total = main + cfg.lambda_reg * comp
    ok = (abs(float(m) - 0.7) < 1e-12
          and abs(float(f) - 2.63402e-4) <= 1e-9
          and eq1_total == 1.0)
    report(8, "hand-value-losses", ok,
           f"margin {float(m)}, focal {float(f):.6e}, eq1 {eq1_total!r}")


def test_09_nms_oracle_and_postprocess_constants():
    rng = np.random.default_rng(5)
    agree = True
    for _ in range(100):
        n = int(rng.integers(1, 201))
        xy = rng.uniform(0, 100, size=(n, 2))
        boxes = np.concatenate([xy, xy + rng.uniform(2, 50, size=(n, 2))], axis=1)
        scores = rng.uniform(0, 1, size=n)
        kept = postprocess.nms(boxes, scores, 0.55)
        if kept.tolist() != nms_reference(boxes, scores, 0.55):
            agree = False
            break
    constants_ok = (postprocess.CONF_THRESHOLD == 0.08
                    and postprocess.PER_SCALE_TOP == 1000
                    and postprocess.NMS_IOU == 0.55
                    and postprocess.FINAL_TOP == 100)
    # dense fabricated output: cap at 100 must hold
    out = HeadOutput()
    for h, w in [(32, 32), (16, 16), (8, 8), (4, 4), (2, 2), (1, 1)]:
        out.cls.append(np.full((1, 1, h, w), 3.0, dtype=np.float32))
        out.reg.append(np.zeros((1, 4, h, w), dtype=np.float32))
    _, scores = postprocess.postprocess([postprocess.scale_detections(out, (128, 128),
                                                                      (128, 128))])
    capped = len(scores) <= 100
    report(9, "nms-oracle-postprocess", agree and constants_ok and capped,
           f"oracle agree={agree}, constants={constants_ok}, {len(scores)} final dets")


def test_10_ap_evaluator():
    gts = [np.array([[0.0, 0.0, 10.0, 10.0], [20.0, 20.0, 30.0, 30.0]])]
    dets = [(np.array([[0.0, 0.0, 10.0, 10.0], [50.0, 50.0, 60.0, 60.0],
                       [20.0, 20.0, 30.0, 30.0]]), np.array([0.9, 0.8, 0.7]))]
    fixture = evaluate_ap(gts, dets)
    perfect = evaluate_ap(
        [np.array([[0.0, 0.0, 10.0, 10.0]])],
        [(np.array([[0.0, 0.0, 10.0, 10.0]]), np.array([0.9]))])
    ok = abs(fixture - 0.8333) <= 1e-4 and perfect == 1.0
    report(10, "ap-evaluator", ok, f"fixture {fixture:.4f}, perfect {perfect}")


def _synthetic_faces(rng, count=50, size=256):
    """Images with painted rectangles standing in for faces."""
    dataset = []
    for _ in range(count):
        n_faces = int(rng.integers(1, 5))
        boxes = []
        for _ in range(n_faces):
            side = float(rng.uniform(20, 120))
            aspect = float(rng.uniform(0.7, 1.4))
            w, h = side, side * aspect
            x1 = float(rng.uniform(0, size - w))
            y1 = float(rng.uniform(0, size - h))
            boxes.append([x1, y1, x1 + w, y1 + h])
        dataset.append(np.asarray(boxes))
    return dataset


def test_11_synthetic_pipeline_sanity():
    rng = np.random.default_rng(6)
    dataset = _synthetic_faces(rng)
    anchors = generate_anchors((256, 256))
    level_dims = [(256 // s, 256 // s) for s in STRIDES]
    offsets = np.cumsum([0] + [h * w for h, w in level_dims])
    all_dets = []
    for gts in dataset:
        overlaps = iou_matrix(anchors, gts)
        best_iou = overlaps.max(axis=1)
        best_gt = overlaps.argmax(axis=1)
        probs = np.clip(best_iou, 1e-6, 1 - 1e-6)
        logits = np.log(probs / (1 - probs)).astype(np.float32)
        deltas = np.zeros((len(anchors), 4), dtype=np.float32)
        confident = best_iou > 0.3
        deltas[confident] = encode(anchors[confident], gts[best_gt[confident]])
        output = HeadOutput()
        for lvl, (h, w) in enumerate(level_dims):
            sl = slice(offsets[lvl], offsets[lvl + 1])
            output.cls.append(logits[sl].reshape(1, 1, h, w))
            output.reg.append(deltas[sl].reshape(1, h, w, 4).transpose(0, 3, 1, 2))
        all_dets.append(postprocess.postprocess(
            [postprocess.scale_detections(output, (256, 256), (256, 256))]))
    ap = evaluate_ap(dataset, all_dets)
    report(11, "synthetic-pipeline-sanity", ap >= 0.95, f"AP {ap:.4f} on 50 images")


def test_12_determinism(tmp_path):
    weights = tmp_path / "model.acfd"
    model = build_model(tiny_config(), seed=0)
    container.save_file(model, weights)
    pixels = np.random.default_rng(7).integers(0, 255, (96, 128, 3), dtype=np.uint8)
    image = tmp_path / "probe.ppm"
    write_ppm(image, pixels)
    outs = []
    for name in ("one.jsonl", "two.jsonl"):
        out = tmp_path / name
        code = cli.main(["detect", str(image), str(weights),
                         "--scales", "128x128,256x256", "--out", str(out)])
        assert code == 0
        outs.append(out.read_bytes())
    detect_ok = outs[0] == outs[1]

    restored = container.load_file(weights)
    probe = np.random.default_rng(8).uniform(-0.5, 0.5, (1, 3, 128, 128)).astype(np.float32)
    a, b = forward(model, probe), forward(restored, probe)
    roundtrip_ok = all(np.array_equal(x, y) for x, y in zip(a.cls + a.reg, b.cls + b.reg))
    report(12, "determinism", detect_ok and roundtrip_ok,
           f"detect identical={detect_ok}, roundtrip bit-identical={roundtrip_ok}")


def test_13_benchmark_direction():
    model = build_model(tiny_config(width=16), seed=0)
    fused = fuse_model(model)
    probe = np.random.default_rng(9).uniform(-0.5, 0.5, (1, 3, 256, 256)).astype(np.float32)
    forward(model, probe)
    forward(fused, probe)

    def median_ms(m, repeats=15):
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            forward(m, probe)
            times.append((time.perf_counter() - t0) * 1000)
        return sorted(times)[len(times) // 2]

    unfused_ms, fused_ms = median_ms(model), median_ms(fused)
    unfused_macs = count_model_macs(model, (256, 256))
    fused_macs = count_model_macs(fused, (256, 256))
    ok = fused_ms <= 1.1 * unfused_ms and fused_macs < unfused_macs
    report(13, "benchmark-direction", ok,
           f"fused {fused_ms:.1f}ms vs unfused {unfused_ms:.1f}ms, "
           f"MACs {fused_macs} < {unfused_macs}")
