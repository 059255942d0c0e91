import numpy as np
import pytest

from acfd.backbone import kaiming_conv, random_acb, random_bn
from acfd.fusion import (AcbSpec, ConvBn, acb_forward, block_macs, fuse_acb,
                         fuse_block, fuse_conv_bn)
from acfd.tensor_ops import BNSpec, ConvSpec, ShapeError, conv2d


def identity_bn(channels, dtype=np.float32):
    return BNSpec(mean=np.zeros(channels, dtype=dtype),
                  var=np.ones(channels, dtype=dtype),
                  gamma=np.ones(channels, dtype=dtype),
                  beta=np.zeros(channels, dtype=dtype), eps=0.0)


def ones_acb(in_c=1, out_c=1, dtype=np.float32):
    def branch(kh, kw, padding):
        conv = ConvSpec(weight=np.ones((out_c, in_c, kh, kw), dtype=dtype),
                        padding=padding)
        return ConvBn(conv=conv, bn=identity_bn(out_c, dtype))
    return AcbSpec(square=branch(3, 3, (1, 1)),
                   horizontal=branch(1, 3, (0, 1)),
                   vertical=branch(3, 1, (1, 0)))


def zero_side_branches(spec: AcbSpec) -> AcbSpec:
    for cb in (spec.horizontal, spec.vertical):
        cb.conv.weight = np.zeros_like(cb.conv.weight)
        cb.bn = identity_bn(cb.conv.out_c, cb.conv.weight.dtype)
    return spec


class TestAcbForward:
    def test_degenerate_side_branches_equal_square_alone(self):
        rng = np.random.default_rng(0)
        spec = zero_side_branches(random_acb(rng, 3, 4))
        x = rng.normal(size=(1, 3, 6, 6)).astype(np.float32)
        np.testing.assert_allclose(acb_forward(x, spec), spec.square.forward(x),
                                   atol=1e-6)

    def test_all_ones_interior_value(self):
        spec = ones_acb()
        x = np.ones((1, 1, 5, 5), dtype=np.float32)
        out = acb_forward(x, spec)
        # interior: 9 from the square + 3 + 3 from the rectangular branches
        assert out[0, 0, 2, 2] == 15.0

    def test_shape_preserved(self):
        rng = np.random.default_rng(1)
        spec = random_acb(rng, 4, 8)
        out = acb_forward(rng.normal(size=(1, 4, 16, 16)).astype(np.float32), spec)
        assert out.shape == (1, 8, 16, 16)

    def test_channel_mismatch_raises(self):
        spec = ones_acb(in_c=2)
        with pytest.raises(ShapeError):
            acb_forward(np.zeros((1, 3, 5, 5), dtype=np.float32), spec)

    def test_bad_branch_kernel_rejected(self):
        good = ones_acb()
        with pytest.raises(ShapeError):
            AcbSpec(square=good.square, horizontal=good.square, vertical=good.vertical)


class TestFuseConvBn:
    def test_identity_bn_changes_nothing(self):
        rng = np.random.default_rng(2)
        conv = ConvSpec(weight=rng.normal(size=(3, 2, 3, 3)).astype(np.float32),
                        bias=rng.normal(size=3).astype(np.float32), padding=(1, 1))
        fused = fuse_conv_bn(conv, identity_bn(3))
        np.testing.assert_array_equal(fused.weight, conv.weight)
        np.testing.assert_array_equal(fused.bias, conv.bias)

    def test_hand_example(self):
        conv = ConvSpec(weight=np.full((1, 1, 1, 1), 2.0, dtype=np.float32),
                        bias=np.array([1.0], dtype=np.float32))
        bn = BNSpec(mean=np.array([0.5]), var=np.array([4.0]),
                    gamma=np.array([6.0]), beta=np.array([0.1]), eps=0.0)
        fused = fuse_conv_bn(conv, bn)
        assert fused.weight[0, 0, 0, 0] == pytest.approx(6.0)
        assert fused.bias[0] == pytest.approx(1.6)

    @pytest.mark.parametrize("seed", range(5))
    def test_randomized_equivalence(self, seed):
        rng = np.random.default_rng(seed)
        conv = kaiming_conv(rng, 4, 3, 3, 3, padding=(1, 1), bias=True)
        conv.bias = rng.normal(size=4).astype(np.float32)
        bn = random_bn(rng, 4)
        x = rng.normal(size=(2, 3, 7, 7)).astype(np.float32)
        from acfd.tensor_ops import batch_norm_infer
        expected = batch_norm_infer(conv2d(x, conv), bn)
        np.testing.assert_allclose(conv2d(x, fuse_conv_bn(conv, bn)), expected,
                                   atol=1e-5)

    def test_non_positive_variance_rejected(self):
        conv = ConvSpec(weight=np.ones((1, 1, 1, 1), dtype=np.float32))
        bn = BNSpec(mean=np.zeros(1), var=np.array([-1e-5]),
                    gamma=np.ones(1), beta=np.zeros(1), eps=0.0)
        with pytest.raises(ValueError):
            fuse_conv_bn(conv, bn)


class TestFuseAcb:
    def test_all_ones_merged_kernel(self):
        fused = fuse_acb(ones_acb())
        expected = np.array([[1, 2, 1],
                             [2, 3, 2],
                             [1, 2, 1]], dtype=np.float32)
        np.testing.assert_array_equal(fused.weight[0, 0], expected)
        assert fused.padding == (1, 1)

    def test_zero_side_branches_equal_folded_square(self):
        rng = np.random.default_rng(3)
        spec = zero_side_branches(random_acb(rng, 2, 3))
        fused = fuse_acb(spec)
        folded_square = fuse_conv_bn(spec.square.conv, spec.square.bn)
        np.testing.assert_allclose(fused.weight, folded_square.weight, atol=1e-7)
        np.testing.assert_allclose(fused.bias, folded_square.bias, atol=1e-7)

    @pytest.mark.parametrize("seed", range(8))
    def test_forward_equivalence_f32(self, seed):
        rng = np.random.default_rng(seed)
        spec = random_acb(rng, int(rng.integers(1, 5)), int(rng.integers(1, 5)))
        fused = fuse_acb(spec)
        x = rng.normal(size=(2, spec.in_c, 9, 9)).astype(np.float32)
        np.testing.assert_allclose(conv2d(x, fused), acb_forward(x, spec), atol=1e-4)

    @pytest.mark.parametrize("seed", range(4))
    def test_forward_equivalence_f64(self, seed):
        rng = np.random.default_rng(100 + seed)
        spec = random_acb(rng, 3, 4, dtype=np.float64)
        fused = fuse_acb(spec)
        x = rng.normal(size=(1, 3, 8, 8))
        np.testing.assert_allclose(conv2d(x, fused), acb_forward(x, spec), atol=1e-10)

    def test_stride_two_equivalence(self):
        rng = np.random.default_rng(9)
        spec = random_acb(rng, 2, 2, stride=(2, 2))
        x = rng.normal(size=(1, 2, 9, 9)).astype(np.float32)
        np.testing.assert_allclose(conv2d(x, fuse_acb(spec)), acb_forward(x, spec),
                                   atol=1e-4)

    def test_fused_mac_count_strictly_lower(self):
        rng = np.random.default_rng(4)
        spec = random_acb(rng, 8, 8)
        fused = fuse_acb(spec)
        hw = (32, 32)
        assert block_macs(fused, hw) < block_macs(spec, hw)
        # 3x3 + 1x3 + 3x1 = 15 vs 9 multiplies per output element
        assert block_macs(spec, hw) == block_macs(fused, hw) * 15 // 9
        assert block_macs(fused, hw) == 8 * 8 * 9 * 32 * 32


class TestFuseBlock:
    def test_conv_bn_folds_to_a_bare_conv_of_equal_cost(self):
        rng = np.random.default_rng(5)
        block = ConvBn(conv=kaiming_conv(rng, 4, 3, 3, 3, stride=(2, 2), padding=(1, 1)),
                       bn=random_bn(rng, 4))
        fused = fuse_block(block)
        assert isinstance(fused, ConvSpec)
        x = rng.normal(size=(1, 3, 9, 9)).astype(np.float32)
        np.testing.assert_allclose(conv2d(x, fused), block.forward(x), atol=1e-5)
        assert block_macs(block, (9, 9)) == block_macs(fused, (9, 9)) == 4 * 3 * 9 * 5 * 5
