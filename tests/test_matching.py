import numpy as np
import pytest

from acfd.anchors import encode
from acfd.matching import dam_match, iou_matrix
from acfd.verify import dam_match_reference, iou_reference


class TestIou:
    def test_identical(self):
        box = np.array([2.0, 3.0, 10.0, 12.0])
        assert iou_reference(box, box) == 1.0

    def test_disjoint(self):
        assert iou_reference(np.array([0.0, 0.0, 5.0, 5.0]),
                             np.array([10.0, 10.0, 15.0, 15.0])) == 0.0

    def test_hand_value(self):
        v = iou_reference(np.array([0.0, 0.0, 10.0, 10.0]),
                          np.array([5.0, 5.0, 15.0, 15.0]))
        assert v == pytest.approx(25.0 / 175.0, abs=1e-9)
        assert v == pytest.approx(0.142857, abs=1e-6)

    def test_zero_union(self):
        degenerate = np.array([1.0, 1.0, 1.0, 1.0])
        assert iou_reference(degenerate, degenerate) == 0.0

    def test_matrix_matches_scalar(self):
        rng = np.random.default_rng(0)
        a = np.concatenate([rng.uniform(0, 50, (10, 2)),
                            rng.uniform(0, 50, (10, 2)) + 50], axis=1)
        b = np.concatenate([rng.uniform(0, 80, (7, 2)),
                            rng.uniform(0, 80, (7, 2)) + 20], axis=1)
        mat = iou_matrix(a, b)
        for i in range(10):
            for j in range(7):
                assert mat[i, j] == pytest.approx(iou_reference(a[i], b[j]), abs=1e-12)


GT = np.array([[0.0, 0.0, 10.0, 10.0]])


class TestDamMatch:
    def test_step_one_match(self):
        # IoU 40/100 = 0.40 >= T1
        anchor = np.array([[0.0, 0.0, 4.0, 10.0]])
        result = dam_match(anchor, anchor, GT, t1=0.35, t2=0.7)
        assert result.labels.tolist() == [1]
        assert result.assigned_gt.tolist() == [0]

    def test_step_two_compensation(self):
        # anchor IoU 0.20 < T1, regressed IoU 0.75 >= T2
        anchor = np.array([[0.0, 0.0, 2.0, 10.0]])
        regressed = np.array([[0.0, 0.0, 10.0, 7.5]])
        result = dam_match(anchor, regressed, GT, t1=0.35, t2=0.7)
        assert result.labels.tolist() == [2]
        assert result.assigned_gt.tolist() == [0]

    def test_below_both_thresholds(self):
        anchor = np.array([[0.0, 0.0, 2.0, 10.0]])     # 0.20
        regressed = np.array([[0.0, 0.0, 10.0, 5.0]])  # 0.50
        result = dam_match(anchor, regressed, GT, t1=0.35, t2=0.7)
        assert result.labels.tolist() == [0]
        assert result.assigned_gt.tolist() == [-1]

    def test_empty_gts_all_negative(self):
        anchors = np.array([[0.0, 0.0, 4.0, 4.0], [5.0, 5.0, 9.0, 9.0]])
        result = dam_match(anchors, anchors, np.zeros((0, 4)), 0.35, 0.7)
        assert result.labels.tolist() == [0, 0]
        assert result.n1 == result.n2 == 0

    def test_empty_anchors(self):
        result = dam_match(np.zeros((0, 4)), np.zeros((0, 4)), GT, 0.35, 0.7)
        assert result.labels.shape == (0,)

    def test_targets_encode_against_anchor(self):
        anchor = np.array([[0.0, 0.0, 4.0, 10.0]])
        result = dam_match(anchor, anchor, GT, t1=0.35, t2=0.7)
        np.testing.assert_allclose(result.targets[0], encode(anchor[0], GT[0]))

    def test_compensated_targets_encode_against_anchor_not_regressed(self):
        anchor = np.array([[0.0, 0.0, 2.0, 10.0]])
        regressed = np.array([[0.0, 0.0, 10.0, 7.5]])
        result = dam_match(anchor, regressed, GT, t1=0.35, t2=0.7)
        np.testing.assert_allclose(result.targets[0], encode(anchor[0], GT[0]))

    def test_tie_breaks_to_lowest_gt_index(self):
        gts = np.array([[0.0, 0.0, 10.0, 10.0], [0.0, 0.0, 10.0, 10.0]])
        anchor = np.array([[0.0, 0.0, 10.0, 10.0]])
        result = dam_match(anchor, anchor, gts, 0.35, 0.7)
        assert result.assigned_gt.tolist() == [0]


def random_instance(rng):
    n = int(rng.integers(1, 51))
    m = int(rng.integers(0, 9))
    def boxes(k):
        xy = rng.uniform(0, 80, size=(k, 2))
        wh = rng.uniform(1, 40, size=(k, 2))
        return np.concatenate([xy, xy + wh], axis=1)
    return boxes(n), boxes(n), boxes(m)


class TestDamProperties:
    def test_agrees_with_brute_force(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            anchors, regressed, gts = random_instance(rng)
            got = dam_match(anchors, regressed, gts, 0.35, 0.7)
            labels, assigned = dam_match_reference(anchors, regressed, gts, 0.35, 0.7)
            assert got.labels.tolist() == labels
            assert got.assigned_gt.tolist() == assigned

    def test_infinite_t2_reduces_to_classic_matcher(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            anchors, regressed, gts = random_instance(rng)
            got = dam_match(anchors, regressed, gts, 0.35, np.inf)
            assert not np.any(got.labels == 2)
            classic = iou_matrix(anchors, gts)
            if gts.shape[0]:
                expected = (classic.max(axis=1) >= 0.35).astype(int)
                assert got.labels.tolist() == expected.tolist()

    def test_raising_t2_shrinks_compensated_set(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            anchors, regressed, gts = random_instance(rng)
            low = dam_match(anchors, regressed, gts, 0.35, 0.5)
            high = dam_match(anchors, regressed, gts, 0.35, 0.8)
            low_set = set(np.flatnonzero(low.labels == 2))
            high_set = set(np.flatnonzero(high.labels == 2))
            assert high_set <= low_set

    def test_labels_mutually_exclusive_and_step2_failed_step1(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            anchors, regressed, gts = random_instance(rng)
            got = dam_match(anchors, regressed, gts, 0.35, 0.7)
            if gts.shape[0] == 0:
                continue
            best = iou_matrix(anchors, gts).max(axis=1)
            comp = got.labels == 2
            assert np.all(best[comp] < 0.35)
