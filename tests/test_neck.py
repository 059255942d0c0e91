import numpy as np
import pytest

from acfd.backbone import build_backbone, backbone_forward, tiny_backbone_config
from acfd.fusion import AcbSpec, ConvBn, fuse_block, map_blocks
from acfd.neck import (BifpnSpec, abifpn_forward, bifpn_layer_forward, build_neck,
                       fuse_node, normalized_fusion_weights)
from acfd.tensor_ops import BNSpec, ConvSpec, ShapeError


def identity_acb(channels):
    """Square branch is a per-channel delta kernel; side branches are zero."""
    def branch(kh, kw, padding, weight):
        conv = ConvSpec(weight=weight, padding=padding)
        bn = BNSpec(mean=np.zeros(channels), var=np.ones(channels),
                    gamma=np.ones(channels), beta=np.zeros(channels), eps=0.0)
        return ConvBn(conv=conv, bn=bn)
    sq = np.zeros((channels, channels, 3, 3), dtype=np.float32)
    for c in range(channels):
        sq[c, c, 1, 1] = 1.0
    return AcbSpec(
        square=branch(3, 3, (1, 1), sq),
        horizontal=branch(1, 3, (0, 1), np.zeros((channels, channels, 1, 3), np.float32)),
        vertical=branch(3, 1, (1, 0), np.zeros((channels, channels, 3, 1), np.float32)))


def tiny_pyramid(rng, width=8, base=32):
    return [rng.normal(size=(1, width, base >> i, base >> i)).astype(np.float32)
            for i in range(6)]


class TestNormalizedWeights:
    def test_in_unit_interval_and_sum_below_one(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            w = rng.normal(size=int(rng.integers(2, 4)))
            norm = normalized_fusion_weights(w)
            assert np.all(norm >= 0) and np.all(norm <= 1)
            assert norm.sum() <= 1.0

    def test_negative_weights_rectified(self):
        norm = normalized_fusion_weights(np.array([1.0, -5.0]))
        assert norm[1] == 0.0
        assert norm[0] == pytest.approx(1.0, abs=1e-3)


class TestFuseNode:
    def test_passthrough_edge(self):
        rng = np.random.default_rng(1)
        acb = identity_acb(2)
        a = np.abs(rng.normal(size=(1, 2, 4, 4))).astype(np.float32)
        b = rng.normal(size=(1, 2, 4, 4)).astype(np.float32)
        out = fuse_node([a, b], np.array([1.0, 0.0]), acb)
        np.testing.assert_allclose(out, a, atol=1e-3)

    def test_identical_inputs_any_weights(self):
        rng = np.random.default_rng(2)
        acb = identity_acb(2)
        a = np.abs(rng.normal(size=(1, 2, 4, 4))).astype(np.float32)
        out = fuse_node([a, a.copy(), a.copy()], np.array([0.3, 1.1, 2.0]), acb)
        np.testing.assert_allclose(out, a, atol=1e-4 * np.abs(a).max() + 1e-4)

    def test_weighted_mean_of_constants(self):
        acb = identity_acb(1)
        a = np.full((1, 1, 3, 3), 1.0, dtype=np.float32)
        b = np.full((1, 1, 3, 3), 3.0, dtype=np.float32)
        out = fuse_node([a, b], np.array([1.0, 1.0]), acb)
        np.testing.assert_allclose(out, 2.0, atol=1e-3)

    def test_shape_mismatch_rejected(self):
        acb = identity_acb(1)
        with pytest.raises(ShapeError):
            fuse_node([np.zeros((1, 1, 4, 4), np.float32),
                       np.zeros((1, 1, 2, 2), np.float32)],
                      np.array([1.0, 1.0]), acb)


class TestAbifpnForward:
    def test_shape_contract(self):
        rng = np.random.default_rng(3)
        backbone = build_backbone(tiny_backbone_config(8), rng)
        pyramid = backbone_forward(rng.normal(size=(1, 3, 128, 128)).astype(np.float32),
                                   backbone)
        neck = build_neck((8,) * 6, width=8, repeats=1, rng=rng)
        out = abifpn_forward(pyramid, neck)
        assert len(out) == 6
        for level_in, level_out in zip(pyramid, out):
            assert level_out.shape[1] == 8
            assert level_out.shape[2:] == level_in.shape[2:]

    def test_repeats_compose(self):
        rng = np.random.default_rng(4)
        neck1 = build_neck((8,) * 6, width=8, repeats=1, rng=rng)
        neck2 = BifpnSpec(width=8, laterals=neck1.laterals,
                          layers=[neck1.layers[0], neck1.layers[0]])
        pyramid = tiny_pyramid(np.random.default_rng(5))
        stacked = abifpn_forward(pyramid, neck2)
        once = abifpn_forward(pyramid, neck1)
        twice = bifpn_layer_forward(once, neck1.layers[0])
        for a, b in zip(stacked, twice):
            np.testing.assert_array_equal(a, b)

    def test_zero_laterals_give_finite_constants(self):
        rng = np.random.default_rng(6)
        neck = build_neck((8,) * 6, width=8, repeats=1, rng=rng)
        for lat in neck.laterals:
            lat.conv.weight = np.zeros_like(lat.conv.weight)
        out = abifpn_forward(tiny_pyramid(np.random.default_rng(7)), neck)
        other = abifpn_forward(tiny_pyramid(np.random.default_rng(8)), neck)
        for level, level_other in zip(out, other):
            assert np.all(np.isfinite(level))
            # beta-driven: nothing from the input pyramid survives
            np.testing.assert_array_equal(level, level_other)

    def test_level_count_checked(self):
        rng = np.random.default_rng(8)
        neck = build_neck((8,) * 6, width=8, repeats=1, rng=rng)
        with pytest.raises(ShapeError):
            abifpn_forward(tiny_pyramid(rng)[:5], neck)

    def test_fused_neck_drift_within_budget(self):
        rng = np.random.default_rng(9)
        neck = build_neck((8,) * 6, width=8, repeats=1, rng=rng)
        fused = map_blocks(neck, fuse_block)
        pyramid = tiny_pyramid(np.random.default_rng(10))
        for a, b in zip(abifpn_forward(pyramid, neck), abifpn_forward(pyramid, fused)):
            assert np.abs(a - b).max() <= 1e-3

    def test_odd_sized_levels_supported(self):
        rng = np.random.default_rng(11)
        neck = build_neck((4,) * 6, width=4, repeats=1, rng=rng)
        dims = [(40, 52), (20, 26), (10, 13), (5, 7), (3, 4), (2, 2)]
        pyramid = [rng.normal(size=(1, 4, h, w)).astype(np.float32) for h, w in dims]
        out = abifpn_forward(pyramid, neck)
        for (h, w), level in zip(dims, out):
            assert level.shape == (1, 4, h, w)
