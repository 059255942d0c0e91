import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from acfd.anchors import (DELTA_CLAMP, STRIDES, anchor_count, build_head,
                          decode, encode, generate_anchors, head_forward)
from acfd.backbone import (build_backbone, backbone_forward, random_params,
                           tiny_backbone_config)
from acfd.neck import abifpn_forward, build_neck
from acfd.tensor_ops import ShapeError
from reference import anchors_by_level


def level_slice(image_hw, level):
    """Rows of one level in the anchor array: the levels run in STRIDES order."""
    h, w = image_hw
    sizes = [(h // s) * (w // s) for s in STRIDES]
    start = sum(sizes[:level])
    return slice(start, start + sizes[level])


class TestGenerateAnchors:
    def test_total_count_640(self):
        anchors = generate_anchors((640, 640))
        assert len(anchors) == 34125

    def test_first_stride4_anchor(self):
        anchors = generate_anchors((640, 640))
        assert anchors.shape == (34125, 4) and anchors.dtype == np.float64
        np.testing.assert_allclose(anchors[0], [-6.0, -6.0, 10.0, 10.0])

    def test_coarsest_level(self):
        anchors = generate_anchors((640, 640))
        top = anchors[level_slice((640, 640), 5)]
        assert top.shape[0] == 25
        sides = top[:, 2] - top[:, 0]
        np.testing.assert_allclose(sides, 512.0)

    def test_sides_per_level(self):
        anchors = generate_anchors((256, 128))
        for lvl, stride in enumerate(STRIDES):
            boxes = anchors[level_slice((256, 128), lvl)]
            np.testing.assert_allclose(boxes[:, 2] - boxes[:, 0], 4 * stride)
            np.testing.assert_allclose(boxes[:, 3] - boxes[:, 1], 4 * stride)

    def test_row_major_x_fastest(self):
        anchors = generate_anchors((128, 256))
        level0 = anchors[level_slice((128, 256), 0)]
        # second anchor advances in x by one stride
        np.testing.assert_allclose(level0[1] - level0[0], [4.0, 0.0, 4.0, 0.0])
        # first anchor of the second row advances in y
        cols = 256 // 4
        np.testing.assert_allclose(level0[cols] - level0[0], [0.0, 4.0, 0.0, 4.0])

    def test_indivisible_rejected(self):
        with pytest.raises(ShapeError):
            generate_anchors((100, 128))

    def test_deterministic_bytes(self):
        a = generate_anchors((256, 384))
        b = generate_anchors((256, 384))
        assert a.tobytes() == b.tobytes()


@settings(max_examples=30, deadline=None)
@given(hm=st.integers(1, 8), wm=st.integers(1, 8),
       picks=st.lists(st.integers(0, 2**20), max_size=64))
@example(hm=5, wm=5, picks=[])  # 640x640
@example(hm=4, wm=6, picks=[9, 9, 2])  # the padded grids of the default test scales
@example(hm=5, wm=7, picks=[])
@example(hm=7, wm=9, picks=[])
def test_count_formula_matches_enumeration(hm, wm, picks):
    h, w = hm * 128, wm * 128
    enumerated = 0
    firsts, lasts = [], []
    for s in STRIDES:
        firsts.append(enumerated)
        for _ in range(h // s):
            for _ in range(w // s):
                enumerated += 1
        lasts.append(enumerated - 1)
    assert anchor_count((h, w)) == enumerated
    every = anchors_by_level((h, w))
    assert generate_anchors((h, w)).tobytes() == every.tobytes()
    # each level's first and last cell, unsorted, then drawn picks with a repeat
    index = np.array([*firsts, *lasts[::-1], *picks, *picks[:1]], dtype=np.intp) % enumerated
    assert generate_anchors((h, w), index).tobytes() == every[index].tobytes()
    assert generate_anchors((h, w), index[:0]).shape == (0, 4)


class TestEncodeDecode:
    def test_same_box_zero_delta(self):
        box = np.array([10.0, 20.0, 30.0, 50.0])
        np.testing.assert_allclose(encode(box, box), np.zeros(4), atol=1e-12)

    def test_double_size_same_center(self):
        anchor = np.array([0.0, 0.0, 16.0, 16.0])
        gt = np.array([-8.0, -8.0, 24.0, 24.0])
        np.testing.assert_allclose(encode(anchor, gt),
                                   [0.0, 0.0, np.log(2), np.log(2)], atol=1e-12)

    def test_decode_zero_delta_returns_anchor(self):
        anchor = np.array([3.0, 4.0, 11.0, 24.0])
        np.testing.assert_allclose(decode(anchor, np.zeros(4)), anchor, atol=1e-12)

    def test_decode_hand_example(self):
        out = decode(np.array([0.0, 0.0, 16.0, 16.0]),
                     np.array([0.0, 0.0, np.log(2), np.log(2)]))
        np.testing.assert_allclose(out, [-8.0, -8.0, 24.0, 24.0], atol=1e-12)

    def test_extreme_delta_clamped_finite(self):
        out = decode(np.array([0.0, 0.0, 16.0, 16.0]),
                     np.array([0.0, 0.0, 50.0, 50.0]))
        assert np.all(np.isfinite(out))
        assert (out[2] - out[0]) == pytest.approx(16.0 * np.exp(DELTA_CLAMP))

    def test_degenerate_gt_rejected(self):
        anchor = np.array([0.0, 0.0, 16.0, 16.0])
        with pytest.raises(ValueError):
            encode(anchor, np.array([5.0, 5.0, 5.0, 9.0]))

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_roundtrip(self, data):
        f = lambda lo, hi: data.draw(st.floats(lo, hi, allow_nan=False))
        anchor = np.array([f(-50, 50), f(-50, 50), 0.0, 0.0])
        anchor[2] = anchor[0] + f(1, 60)
        anchor[3] = anchor[1] + f(1, 60)
        gt = np.array([f(-50, 50), f(-50, 50), 0.0, 0.0])
        gt[2] = gt[0] + f(1, 60)
        gt[3] = gt[1] + f(1, 60)
        np.testing.assert_allclose(decode(anchor, encode(anchor, gt)), gt, atol=1e-5)


class TestHeadForward:
    def _pyramid(self, seed=0, width=8, image=128):
        rng = np.random.default_rng(seed)
        backbone = build_backbone(tiny_backbone_config(width), random_params(rng))
        neck = build_neck((width,) * 6, width, 1, random_params(rng))
        img = rng.normal(size=(1, 3, image, image)).astype(np.float32)
        return abifpn_forward(backbone_forward(img, backbone, neck.laterals), neck), rng

    def test_per_level_shapes(self):
        pyramid, rng = self._pyramid()
        head = build_head(8, 2, random_params(rng))
        out = head_forward(pyramid, head)
        for level, (c, r) in zip(pyramid, zip(out.cls, out.reg)):
            assert c.shape == (1, 1) + level.shape[2:]
            assert r.shape == (1, 4) + level.shape[2:]

    def test_flat_lengths_match_anchor_count(self):
        pyramid, rng = self._pyramid(image=256)
        head = build_head(8, 2, random_params(rng))
        out = head_forward(pyramid, head)
        total = anchor_count((256, 256))
        assert out.flat_cls().shape == (1, total)
        assert out.flat_reg().shape == (1, total, 4)

    def test_zero_tower_emits_bias(self):
        pyramid, rng = self._pyramid(seed=1)
        head = build_head(8, 2, random_params(rng))
        head.cls_out.weight = np.zeros_like(head.cls_out.weight)
        head.cls_out.bias = np.array([-1.25], dtype=np.float32)
        out = head_forward(pyramid, head)
        np.testing.assert_allclose(out.flat_cls(), -1.25, atol=1e-7)

    def test_flat_order_is_level_then_row_major(self):
        pyramid, rng = self._pyramid(seed=2)
        head = build_head(8, 2, random_params(rng))
        out = head_forward(pyramid, head)
        flat = out.flat_cls()[0]
        offset = 0
        for c in out.cls:
            level_flat = c[0, 0].reshape(-1)
            np.testing.assert_array_equal(
                flat[offset:offset + level_flat.size], level_flat)
            offset += level_flat.size
