import sys
import weakref

import numpy as np
import pytest

from acfd import neck as neck_module
from acfd import tensor_ops
from acfd.backbone import (build_backbone, backbone_forward, random_params,
                           tiny_backbone_config)
from acfd.fusion import Branches, ConvBn, fuse_block
from acfd.neck import (BifpnSpec, abifpn_forward, bifpn_layer_forward, build_neck,
                       fuse_node, normalized_fusion_weights)
from acfd.tensor_ops import BNSpec, ConvSpec, ShapeError, map_tree


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
    return Branches([
        branch(3, 3, (1, 1), sq),
        branch(1, 3, (0, 1), np.zeros((channels, channels, 1, 3), np.float32)),
        branch(3, 1, (1, 0), np.zeros((channels, channels, 3, 1), np.float32))])


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
        backbone = build_backbone(tiny_backbone_config(8), random_params(rng))
        neck = build_neck((8,) * 6, width=8, repeats=1, param=random_params(rng))
        pyramid = backbone_forward(rng.normal(size=(1, 3, 128, 128)).astype(np.float32),
                                   backbone, neck.laterals)
        out = abifpn_forward(pyramid, neck)
        assert len(out) == 6
        for level_in, level_out in zip(pyramid, out):
            assert level_out.shape[1] == 8
            assert level_out.shape[2:] == level_in.shape[2:]

    def test_repeats_compose(self):
        rng = np.random.default_rng(4)
        neck1 = build_neck((8,) * 6, width=8, repeats=1, param=random_params(rng))
        neck2 = BifpnSpec(laterals=neck1.laterals,
                          layers=[neck1.layers[0], neck1.layers[0]])
        pyramid = tiny_pyramid(np.random.default_rng(5))
        stacked = abifpn_forward(pyramid, neck2)
        once = abifpn_forward(pyramid, neck1)
        twice = bifpn_layer_forward(once, neck1.layers[0])
        for a, b in zip(stacked, twice):
            np.testing.assert_array_equal(a, b)

    def test_zero_laterals_give_finite_constants(self):
        # the laterals run in the backbone, each on its stage's output
        rng = np.random.default_rng(6)
        backbone = build_backbone(tiny_backbone_config(8), random_params(rng))
        neck = build_neck((8,) * 6, width=8, repeats=1, param=random_params(rng))
        for lat in neck.laterals:
            (branch,) = lat.branches
            branch.conv.weight = np.zeros_like(branch.conv.weight)
        out, other = (abifpn_forward(backbone_forward(
            np.random.default_rng(seed).normal(size=(1, 3, 128, 128)).astype(np.float32),
            backbone, neck.laterals), neck) for seed in (7, 8))
        for level, level_other in zip(out, other):
            assert np.all(np.isfinite(level))
            # beta-driven: nothing from the input image survives
            np.testing.assert_array_equal(level, level_other)

    def test_level_count_checked(self):
        rng = np.random.default_rng(8)
        neck = build_neck((8,) * 6, width=8, repeats=1, param=random_params(rng))
        with pytest.raises(ShapeError):
            abifpn_forward(tiny_pyramid(rng)[:5], neck)

    def test_fused_neck_drift_within_budget(self):
        rng = np.random.default_rng(9)
        neck = build_neck((8,) * 6, width=8, repeats=1, param=random_params(rng))
        fused = map_tree(neck, Branches, fuse_block)
        pyramid = tiny_pyramid(np.random.default_rng(10))
        for a, b in zip(abifpn_forward(pyramid, neck), abifpn_forward(pyramid, fused)):
            assert np.abs(a - b).max() <= 1e-3

    def test_odd_sized_levels_rejected(self):
        # grids are multiples of 128, so each level is exactly twice the next;
        # an odd level cannot be reached by a whole-factor upsample
        rng = np.random.default_rng(11)
        neck = build_neck((4,) * 6, width=4, repeats=1, param=random_params(rng))
        dims = [(40, 52), (20, 26), (10, 13), (5, 7), (3, 4), (2, 2)]
        pyramid = [rng.normal(size=(1, 4, h, w)).astype(np.float32) for h, w in dims]
        with pytest.raises(ShapeError, match="whole multiple"):
            abifpn_forward(pyramid, neck)

    @pytest.mark.skipif(sys.version_info < (3, 11), reason="CPython before 3.11 keeps "
                        "a temporary argument on the caller's stack until the call returns")
    def test_resampled_maps_die_before_the_node_acb_runs(self, monkeypatch):
        # each node mixes into its upsampled (top-down) or pooled (bottom-up)
        # map, so when the node's ACB runs that mix is its input, and no other
        # resampled map is alive
        rng = np.random.default_rng(12)
        neck = build_neck((8,) * 6, width=8, repeats=1, param=random_params(rng))
        made = []

        def tracked(op):
            def call(*args):
                y = op(*args)
                made.append(weakref.ref(y))
                return y
            return call
        monkeypatch.setattr(neck_module, "resize_nearest", tracked(tensor_ops.resize_nearest))
        monkeypatch.setattr(neck_module, "max_pool2d", tracked(tensor_ops.max_pool2d))
        others = []  # resampled maps alive, other than the block input, as each node's ACB runs
        block_forward = neck_module.block_forward

        def counted(x, block):
            assert any(ref() is x for ref in made)
            others.append(sum(ref() is not None and ref() is not x for ref in made))
            return block_forward(x, block)
        monkeypatch.setattr(neck_module, "block_forward", counted)
        abifpn_forward(tiny_pyramid(rng), neck)
        assert len(made) == 10
        assert others == [0] * 10
