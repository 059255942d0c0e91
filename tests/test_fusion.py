import numpy as np
import pytest

from acfd.backbone import kaiming_conv, random_acb, random_bn
from acfd.fusion import Branches, ConvBn, acb_forward, block_macs, fuse_block
from acfd.tensor_ops import BNSpec, ConvSpec, ShapeError, batch_norm_infer, conv2d


def identity_bn(channels, dtype=np.float32):
    return BNSpec(mean=np.zeros(channels, dtype=dtype),
                  var=np.ones(channels, dtype=dtype),
                  gamma=np.ones(channels, dtype=dtype),
                  beta=np.zeros(channels, dtype=dtype), eps=0.0)


def ones_branch(kh, kw, padding, in_c=1, out_c=1, stride=(1, 1), dtype=np.float32):
    conv = ConvSpec(weight=np.ones((out_c, in_c, kh, kw), dtype=dtype),
                    stride=stride, padding=padding)
    return ConvBn(conv=conv, bn=identity_bn(out_c, dtype))


def ones_acb(in_c=1, out_c=1, dtype=np.float32):
    return Branches([ones_branch(kh, kw, pad, in_c, out_c, dtype=dtype)
                     for kh, kw, pad in ((3, 3, (1, 1)), (1, 3, (0, 1)), (3, 1, (1, 0)))])


def zero_side_branches(spec: Branches) -> Branches:
    for cb in spec.branches[1:]:
        cb.conv.weight = np.zeros_like(cb.conv.weight)
        cb.bn = identity_bn(cb.conv.out_c, cb.conv.weight.dtype)
    return spec


def conv_bn(conv, bn):
    return Branches([ConvBn(conv, bn)])


class TestAcbForward:
    def test_degenerate_side_branches_equal_square_alone(self):
        rng = np.random.default_rng(0)
        spec = zero_side_branches(random_acb(rng, 3, 4))
        x = rng.normal(size=(1, 3, 6, 6)).astype(np.float32)
        square = spec.branches[0]
        np.testing.assert_allclose(acb_forward(x, spec),
                                   batch_norm_infer(conv2d(x, square.conv), square.bn),
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
        # a 3x3 branch cannot be embedded in a 1x3 first branch
        square, horizontal, _ = ones_acb().branches
        with pytest.raises(ShapeError, match="centred"):
            Branches([horizontal, square])

    @pytest.mark.parametrize("kh, kw, padding", [
        pytest.param(1, 3, (1, 1), id="off-centre-rows"),
        pytest.param(3, 1, (1, 1), id="off-centre-cols"),
        pytest.param(2, 2, (0, 0), id="odd-difference"),
        pytest.param(1, 1, (1, 1), id="unshifted-padding"),
    ])
    def test_off_centre_branch_rejected(self, kh, kw, padding):
        with pytest.raises(ShapeError, match="centred"):
            Branches([ones_branch(3, 3, (1, 1)), ones_branch(kh, kw, padding)])

    @pytest.mark.parametrize("other", [
        pytest.param(dict(stride=(2, 2)), id="stride"),
        pytest.param(dict(in_c=2), id="in-channels"),
        pytest.param(dict(out_c=2), id="out-channels"),
    ])
    def test_mismatched_branch_rejected(self, other):
        with pytest.raises(ShapeError, match="share"):
            Branches([ones_branch(3, 3, (1, 1)), ones_branch(1, 3, (0, 1), **other)])

    def test_bn_channels_checked(self):
        conv = ConvSpec(weight=np.ones((2, 1, 1, 1), dtype=np.float32))
        with pytest.raises(ShapeError, match="bn channels"):
            conv_bn(conv, identity_bn(3))


class TestFuseConvBn:
    def test_identity_bn_changes_nothing(self):
        rng = np.random.default_rng(2)
        conv = ConvSpec(weight=rng.normal(size=(3, 2, 3, 3)).astype(np.float32),
                        bias=rng.normal(size=3).astype(np.float32), padding=(1, 1))
        fused = fuse_block(conv_bn(conv, identity_bn(3)))
        np.testing.assert_array_equal(fused.weight, conv.weight)
        np.testing.assert_array_equal(fused.bias, conv.bias)

    def test_hand_example(self):
        conv = ConvSpec(weight=np.full((1, 1, 1, 1), 2.0, dtype=np.float32),
                        bias=np.array([1.0], dtype=np.float32))
        bn = BNSpec(mean=np.array([0.5]), var=np.array([4.0]),
                    gamma=np.array([6.0]), beta=np.array([0.1]), eps=0.0)
        fused = fuse_block(conv_bn(conv, bn))
        assert fused.weight[0, 0, 0, 0] == pytest.approx(6.0)
        assert fused.bias[0] == pytest.approx(1.6)

    @pytest.mark.parametrize("seed", range(5))
    def test_randomized_equivalence(self, seed):
        rng = np.random.default_rng(seed)
        conv = kaiming_conv(rng, 4, 3, 3, 3, padding=(1, 1), bias=True)
        conv.bias = rng.normal(size=4).astype(np.float32)
        bn = random_bn(rng, 4)
        x = rng.normal(size=(2, 3, 7, 7)).astype(np.float32)
        expected = batch_norm_infer(conv2d(x, conv), bn)
        np.testing.assert_allclose(conv2d(x, fuse_block(conv_bn(conv, bn))), expected,
                                   atol=1e-5)

    def test_non_positive_variance_rejected(self):
        conv = ConvSpec(weight=np.ones((1, 1, 1, 1), dtype=np.float32))
        bn = BNSpec(mean=np.zeros(1), var=np.array([-1e-5]),
                    gamma=np.ones(1), beta=np.zeros(1), eps=0.0)
        with pytest.raises(ValueError):
            fuse_block(conv_bn(conv, bn))


class TestFuseAcb:
    def test_all_ones_merged_kernel(self):
        fused = fuse_block(ones_acb())
        expected = np.array([[1, 2, 1],
                             [2, 3, 2],
                             [1, 2, 1]], dtype=np.float32)
        np.testing.assert_array_equal(fused.weight[0, 0], expected)
        assert fused.padding == (1, 1)

    def test_zero_side_branches_equal_folded_square(self):
        rng = np.random.default_rng(3)
        spec = zero_side_branches(random_acb(rng, 2, 3))
        fused = fuse_block(spec)
        folded_square = fuse_block(Branches(spec.branches[:1]))
        np.testing.assert_allclose(fused.weight, folded_square.weight, atol=1e-7)
        np.testing.assert_allclose(fused.bias, folded_square.bias, atol=1e-7)

    @pytest.mark.parametrize("seed", range(8))
    def test_forward_equivalence_f32(self, seed):
        rng = np.random.default_rng(seed)
        spec = random_acb(rng, int(rng.integers(1, 5)), int(rng.integers(1, 5)))
        fused = fuse_block(spec)
        x = rng.normal(size=(2, spec.branches[0].conv.in_c, 9, 9)).astype(np.float32)
        np.testing.assert_allclose(conv2d(x, fused), acb_forward(x, spec), atol=1e-4)

    @pytest.mark.parametrize("seed", range(4))
    def test_forward_equivalence_f64(self, seed):
        rng = np.random.default_rng(100 + seed)
        spec = random_acb(rng, 3, 4, dtype=np.float64)
        fused = fuse_block(spec)
        x = rng.normal(size=(1, 3, 8, 8))
        np.testing.assert_allclose(conv2d(x, fused), acb_forward(x, spec), atol=1e-10)

    def test_stride_two_equivalence(self):
        rng = np.random.default_rng(9)
        spec = random_acb(rng, 2, 2, stride=(2, 2))
        x = rng.normal(size=(1, 2, 9, 9)).astype(np.float32)
        np.testing.assert_allclose(conv2d(x, fuse_block(spec)), acb_forward(x, spec),
                                   atol=1e-4)

    def test_fused_mac_count_strictly_lower(self):
        rng = np.random.default_rng(4)
        spec = random_acb(rng, 8, 8)
        fused = fuse_block(spec)
        hw = (32, 32)
        assert block_macs(fused, hw) < block_macs(spec, hw)
        # 3x3 + 1x3 + 3x1 = 15 vs 9 multiplies per output element
        assert block_macs(spec, hw) == block_macs(fused, hw) * 15 // 9
        assert block_macs(fused, hw) == 8 * 8 * 9 * 32 * 32


class TestFuseBlock:
    def test_conv_bn_folds_to_a_bare_conv_of_equal_cost(self):
        rng = np.random.default_rng(5)
        block = conv_bn(kaiming_conv(rng, 4, 3, 3, 3, stride=(2, 2), padding=(1, 1)),
                        random_bn(rng, 4))
        fused = fuse_block(block)
        assert isinstance(fused, ConvSpec)
        x = rng.normal(size=(1, 3, 9, 9)).astype(np.float32)
        np.testing.assert_allclose(conv2d(x, fused), acb_forward(x, block), atol=1e-5)
        assert block_macs(block, (9, 9)) == block_macs(fused, (9, 9)) == 4 * 3 * 9 * 5 * 5

    @pytest.mark.parametrize("dtype, atol", [(np.float32, 1e-4), (np.float64, 1e-10)])
    @pytest.mark.parametrize("seed", range(3))
    def test_centred_1x1_branch_folds_into_the_3x3(self, seed, dtype, atol):
        # a 1x1 branch beside a 3x3 is not an ACB shape; it lands on the centre tap
        rng = np.random.default_rng(200 + seed)
        c_in, c_out = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        stride = (1 + seed % 2,) * 2
        block = Branches([
            ConvBn(kaiming_conv(rng, c_out, c_in, 3, 3, stride, (1, 1), dtype=dtype),
                   random_bn(rng, c_out, dtype)),
            ConvBn(kaiming_conv(rng, c_out, c_in, 1, 1, stride, dtype=dtype),
                   random_bn(rng, c_out, dtype))])
        fused = fuse_block(block)
        assert (fused.kh, fused.kw, fused.padding, fused.stride) == (3, 3, (1, 1), stride)
        x = rng.normal(size=(2, c_in, 9, 9)).astype(dtype)
        np.testing.assert_allclose(conv2d(x, fused), acb_forward(x, block), atol=atol)
