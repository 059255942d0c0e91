import tracemalloc

import numpy as np
import pytest

from acfd import postprocess as postprocess_module
from acfd.anchors import HeadOutput, decode, generate_anchors
from acfd.matching import iou_matrix
from acfd.postprocess import TEST_SCALES, nms, pad_to_grid, postprocess, scale_detections
from acfd.tensor_ops import sigmoid
from acfd.verify import nms_reference
from reference import evaluate_ap

LEVEL_DIMS_128 = [(32, 32), (16, 16), (8, 8), (4, 4), (2, 2), (1, 1)]


def dets(*rows):
    """(boxes, scores) arrays from (x1, y1, x2, y2, score) rows."""
    table = np.array(rows, dtype=np.float64).reshape(-1, 5)
    return table[:, :4], table[:, 4]


def blank_output(dims=LEVEL_DIMS_128, logit=-20.0):
    out = HeadOutput()
    for h, w in dims:
        out.cls.append(np.full((1, 1, h, w), logit, dtype=np.float32))
        out.reg.append(np.zeros((1, 4, h, w), dtype=np.float32))
    return out


class TestNms:
    def test_no_boxes(self):
        keep = nms(np.zeros((0, 4)), np.zeros(0), 0.55)
        assert keep.shape == (0,) and keep.dtype.kind == "i"

    def test_single_detection(self):
        one = dets((0, 0, 10, 10, 0.5))
        assert nms(*one, 0.55).tolist() == [0]
        assert nms(*one, 0.55, 0).tolist() == []

    def test_identical_boxes_keep_highest(self):
        assert nms(*dets((0, 0, 10, 10, 0.8), (0, 0, 10, 10, 0.9)), 0.55).tolist() == [1]

    def test_disjoint_both_kept(self):
        assert nms(*dets((0, 0, 10, 10, 0.9), (20, 20, 30, 30, 0.8)),
                   0.55).tolist() == [0, 1]

    def test_tie_break_by_input_index(self):
        assert nms(*dets((0, 0, 10, 10, 0.9), (0, 0, 10, 10, 0.9)), 0.55).tolist() == [0]

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 120))
        xy = rng.uniform(0, 80, size=(n, 2))
        wh = rng.uniform(2, 40, size=(n, 2))
        boxes = np.concatenate([xy, xy + wh], axis=1)
        scores = rng.uniform(0, 1, size=n)
        assert nms(boxes, scores, 0.55).tolist() == nms_reference(boxes, scores, 0.55)

    @pytest.mark.parametrize("seed", range(4))
    def test_cut_is_a_prefix_of_the_full_result(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(20, 150))
        xy = rng.uniform(0, 80, size=(n, 2))
        wh = rng.uniform(2, 40, size=(n, 2))
        boxes = np.concatenate([xy, xy + wh], axis=1)
        scores = rng.uniform(0, 1, size=n)
        ref = nms_reference(boxes, scores, 0.55)
        assert nms(boxes, scores, 0.55).tolist() == ref
        for k in (0, 1, 7, n, n + 5):
            assert nms(boxes, scores, 0.55, k).tolist() == ref[:k]
        assert nms(boxes, scores, 0.55, -3).tolist() == []

    def test_output_is_suppression_free(self):
        rng = np.random.default_rng(11)
        xy = rng.uniform(0, 50, size=(60, 2))
        wh = rng.uniform(5, 25, size=(60, 2))
        boxes = np.concatenate([xy, xy + wh], axis=1)
        kept_boxes = boxes[nms(boxes, rng.uniform(0, 1, 60), 0.55)]
        ious = iou_matrix(kept_boxes, kept_boxes)
        np.fill_diagonal(ious, 0.0)
        assert ious.max() <= 0.55


class TestPostprocess:
    def test_all_low_logits_empty(self):
        boxes, scores = postprocess([scale_detections(blank_output(), (128, 128), (128, 128))])
        assert boxes.shape == (0, 4) and scores.shape == (0,)

    def test_single_strong_anchor_traced(self):
        output = blank_output()
        # level 2 (stride 16), cell (2, 3): center (56, 40), side 64
        output.cls[2][0, 0, 2, 3] = 2.0
        output.reg[2][0, :, 2, 3] = [0.1, -0.05, np.log(1.25), 0.0]
        # a 128x128 scale of a 256x256 source: boxes map back at 1 / 0.5
        boxes, scores = postprocess([scale_detections(output, (128, 128), (256, 256))])
        assert len(scores) == 1
        assert scores[0] == pytest.approx(float(sigmoid(np.array([2.0]))[0]))
        cx, cy, w, h = 56 + 0.1 * 64, 40 - 0.05 * 64, 64 * 1.25, 64.0
        expected = np.array([cx - w / 2, max(cy - h / 2, 0.0), cx + w / 2, cy + h / 2])
        np.testing.assert_allclose(boxes[0], expected / 0.5, atol=1e-4)

    def test_confidence_floor_is_strict(self):
        output = blank_output()
        output.cls[0][0, 0, 0, 0] = np.log(0.0799 / (1 - 0.0799))
        output.cls[0][0, 0, 10, 10] = np.log(0.0801 / (1 - 0.0801))
        _, scores = postprocess([scale_detections(output, (128, 128), (128, 128))])
        assert len(scores) == 1
        assert scores[0] == pytest.approx(0.0801, abs=1e-5)

    def test_final_top_100_of_disjoint_survivors(self):
        output = blank_output()
        shrink = np.log(0.25)  # side 16 -> 4, disjoint at 4px spacing
        count = 0
        for i in range(0, 32, 2):
            for j in range(0, 32, 2):
                if count >= 150:
                    break
                output.cls[0][0, 0, i, j] = 3.0 - 0.01 * count
                output.reg[0][0, 2:, i, j] = shrink
                count += 1
        _, scores = postprocess([scale_detections(output, (128, 128), (128, 128))])
        assert len(scores) == 100
        assert scores.tolist() == sorted(scores.tolist(), reverse=True)
        worst_kept = float(sigmoid(np.array([3.0 - 0.01 * 99]))[0])
        assert scores[-1] == pytest.approx(worst_kept, abs=1e-6)

    def test_peak_memory_over_3000_candidates(self):
        # an N x N float64 IoU matrix over these candidates peaks at about 350 MB
        rng = np.random.default_rng(5)
        dims = [(512 // s, 512 // s) for s in (4, 8, 16, 32, 64, 128)]
        outputs = []
        for _ in range(3):
            output = blank_output(dims)
            for cls, reg in zip(output.cls, output.reg):
                cls[...] = rng.normal(size=cls.shape)
                reg[...] = rng.normal(scale=0.1, size=reg.shape)
            outputs.append(output)
        tracemalloc.start()
        try:
            _, scores = postprocess([scale_detections(output, (512, 512), (512, 512))
                                     for output in outputs])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(scores) == 100
        assert peak < 16 * 2**20

    def test_per_scale_top_1000_cap(self):
        output = blank_output(dims=[(64, 64), (32, 32), (16, 16), (8, 8),
                                    (4, 4), (2, 2)])
        flat = output.cls[0][0, 0].reshape(-1)
        flat[:1100] = np.linspace(3.0, 1.0, 1100)
        _, scores = scale_detections(output, (256, 256), (256, 256))
        assert len(scores) == 1000

    @pytest.mark.parametrize("logits", [
        # 1500 ties at the 1000th score
        pytest.param(np.repeat([2.0, 1.0, 0.0, -20.0], [500, 1500, 2000, 1460]),
                     id="ties-at-the-cut"),
        pytest.param(np.repeat([1.0, -20.0], [5000, 460]), id="all-tied"),
        pytest.param(np.repeat([2.0, 1.0, -20.0], [300, 400, 4760]),
                     id="fewer-than-1000"),
        pytest.param(np.repeat([1.0, 0.5, -20.0], [400, 600, 4460]), id="exactly-1000"),
    ])
    def test_partial_selection_matches_the_full_stable_sort(self, logits, monkeypatch):
        dims = [(64, 64), (32, 32), (16, 16), (8, 8), (4, 4), (2, 2)]
        output = blank_output(dims)
        logits = np.random.default_rng(8).permutation(logits).astype(np.float32)
        start = 0
        for cls, reg in zip(output.cls, output.reg):
            size = cls.size
            cls[...] = logits[start:start + size].reshape(cls.shape)
            # each anchor's first delta is its index, so decode sees the order
            reg[0, 0] = np.arange(start, start + size).reshape(cls.shape[2:])
            start += size
        seen = []

        def recording_decode(anchors, deltas):
            seen.append(deltas[:, 0].astype(np.intp))
            return decode(anchors, deltas)
        monkeypatch.setattr(postprocess_module, "decode", recording_decode)
        _, scores = scale_detections(output, (256, 256), (256, 256))
        probs = sigmoid(output.flat_cls())[0]
        keep = np.flatnonzero(probs > 0.08)
        expected = keep[np.argsort(-probs[keep], kind="stable")[:1000]]
        assert np.array_equal(seen[0], expected)
        assert np.array_equal(scores, probs[expected])

    def test_detections_clipped_to_valid_frame(self):
        output = blank_output()
        output.cls[5][0, 0, 0, 0] = 4.0  # stride-128 anchor, side 512
        # a 100x90 scale runs on a 128x128 grid
        boxes, _ = postprocess([scale_detections(output, (100, 90), (100, 90))])
        assert len(boxes) == 1
        x1, y1, x2, y2 = boxes[0]
        assert x1 >= 0 and y1 >= 0 and x2 <= 90 and y2 <= 100


class TestScales:
    def test_fixed_sizes(self):
        assert TEST_SCALES == ((480, 645), (640, 860), (800, 1075))

    def test_pad_to_grid(self):
        assert pad_to_grid((480, 645)) == (512, 768)
        assert pad_to_grid((640, 860)) == (640, 896)
        assert pad_to_grid((800, 1075)) == (896, 1152)
        assert pad_to_grid((128, 128)) == (128, 128)

    def test_box_rescale_roundtrip(self):
        rng = np.random.default_rng(1)
        for sh, sw in TEST_SCALES:
            sx, sy = sw / 1000.0, sh / 750.0
            box = rng.uniform(0, 700, size=4)
            mapped = box * np.array([sx, sy, sx, sy])
            back = mapped / np.array([sx, sy, sx, sy])
            assert np.abs(back - box).max() < 0.5


class TestEvaluateAp:
    def test_perfect_detection(self):
        gt = np.array([[0.0, 0.0, 10.0, 10.0]])
        assert evaluate_ap([gt], [dets((0, 0, 10, 10, 0.9))]) == 1.0

    def test_tp_fp_tp_fixture(self):
        gts = [np.array([[0.0, 0.0, 10.0, 10.0], [20.0, 20.0, 30.0, 30.0]])]
        found = [dets((0, 0, 10, 10, 0.9),
                      (50, 50, 60, 60, 0.8),
                      (20, 20, 30, 30, 0.7))]
        assert evaluate_ap(gts, found) == pytest.approx(0.8333, abs=1e-4)

    def test_all_false_positives(self):
        gts = [np.array([[0.0, 0.0, 10.0, 10.0]])]
        assert evaluate_ap(gts, [dets((50, 50, 60, 60, 0.9))]) == 0.0

    def test_zero_gts(self):
        assert evaluate_ap([np.zeros((0, 4))], [dets()]) == 1.0
        assert evaluate_ap([np.zeros((0, 4))], [dets((0, 0, 5, 5, 0.5))]) == 0.0

    def test_each_gt_matched_once(self):
        gts = [np.array([[0.0, 0.0, 10.0, 10.0], [20.0, 20.0, 30.0, 30.0]])]
        found = [dets((0, 0, 10, 10, 0.9),
                      (0, 0, 10, 10, 0.8),   # duplicate -> FP
                      (20, 20, 30, 30, 0.7))]
        assert evaluate_ap(gts, found) == pytest.approx(0.8333, abs=1e-4)

    def test_invariant_under_monotone_score_transform(self):
        rng = np.random.default_rng(2)
        gts, found = [], []
        for _ in range(4):
            g = rng.uniform(0, 50, size=(3, 2))
            gts.append(np.concatenate([g, g + rng.uniform(5, 20, (3, 2))], axis=1))
            rows = []
            for _ in range(6):
                xy = rng.uniform(0, 50, size=2)
                rows.append((*xy, *(xy + rng.uniform(5, 20, 2)), rng.uniform(0.1, 0.9)))
            found.append(dets(*rows))
        base = evaluate_ap(gts, found)
        squashed = [(boxes, scores ** 3) for boxes, scores in found]
        assert evaluate_ap(gts, squashed) == pytest.approx(base, abs=1e-12)

    def test_fp_above_all_tps_does_not_increase_ap(self):
        gts = [np.array([[0.0, 0.0, 10.0, 10.0]])]
        base = evaluate_ap(gts, [dets((0, 0, 10, 10, 0.9))])
        with_fp = [dets((50, 50, 60, 60, 0.99), (0, 0, 10, 10, 0.9))]
        assert evaluate_ap(gts, with_fp) <= base
