import sys
import tracemalloc

import numpy as np
import pytest

from acfd import tensor_ops
from acfd.backbone import (AosaSpec, BackboneConfig, EseSpec, aosa_forward,
                           backbone_forward, build_backbone, ese_attention,
                           kaiming_conv, random_acb, random_bn, random_params,
                           tiny_backbone_config)
from acfd.fusion import Branches, ConvBn, fuse_block, map_blocks
from acfd.tensor_ops import BNSpec, ConvSpec, ShapeError, concat_channels, relu


def identity_bn(c):
    return BNSpec(mean=np.zeros(c), var=np.ones(c), gamma=np.ones(c),
                  beta=np.zeros(c), eps=0.0)


def zero_acb(in_c, out_c):
    """ACB whose output is exactly zero for any input."""
    def branch(kh, kw, padding):
        conv = ConvSpec(weight=np.zeros((out_c, in_c, kh, kw), dtype=np.float32),
                        padding=padding)
        return ConvBn(conv=conv, bn=identity_bn(out_c))
    return Branches([branch(3, 3, (1, 1)), branch(1, 3, (0, 1)), branch(3, 1, (1, 0))])


def conv_bn(conv, bn):
    return Branches([ConvBn(conv, bn)])


def constant_projection(in_c, out_c, value):
    """1x1 conv with zero weights whose BN beta emits a constant map."""
    conv = ConvSpec(weight=np.zeros((out_c, in_c, 1, 1), dtype=np.float32))
    bn = identity_bn(out_c)
    bn.beta = np.full(out_c, value, dtype=np.float32)
    return conv_bn(conv, bn)


class TestEseAttention:
    def test_identity_weight_constant_input(self):
        x = np.full((1, 2, 4, 4), 2.0, dtype=np.float32)
        out = ese_attention(x, np.eye(2, dtype=np.float32), np.zeros(2, np.float32))
        np.testing.assert_allclose(out, 2.0 / (1.0 + np.exp(-2.0)), atol=1e-6)
        assert out[0, 0, 0, 0] == pytest.approx(1.761594, abs=1e-6)

    def test_zero_weight_halves_activations(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 3, 5, 5)).astype(np.float32)
        out = ese_attention(x.copy(), np.zeros((3, 3), np.float32), np.zeros(3, np.float32))
        np.testing.assert_allclose(out, 0.5 * x, atol=1e-7)

    def test_zero_input(self):
        x = np.zeros((1, 2, 3, 3), dtype=np.float32)
        out = ese_attention(x.copy(), np.eye(2, dtype=np.float32), np.zeros(2, np.float32))
        np.testing.assert_array_equal(out, x)

    def test_gates_in_place(self):
        x = np.full((1, 2, 3, 3), 2.0, dtype=np.float32)
        assert ese_attention(x, np.zeros((2, 2), np.float32), np.zeros(2, np.float32)) is x
        np.testing.assert_allclose(x, 1.0)

    def test_weight_shape_checked(self):
        with pytest.raises(ShapeError):
            ese_attention(np.zeros((1, 3, 2, 2), dtype=np.float32),
                          np.zeros((2, 2), np.float32), np.zeros(2, np.float32))


class TestAosaForward:
    def test_zero_body_emits_half_projection_constant(self):
        c = 0.8
        spec = AosaSpec(acbs=[zero_acb(2, 2)],
                        projection=constant_projection(4, 3, c),
                        ese=EseSpec(np.zeros((3, 3), np.float32), np.zeros(3, np.float32)),
                        residual=False)
        x = np.random.default_rng(1).normal(size=(1, 2, 6, 6)).astype(np.float32)
        out = aosa_forward(x, spec)
        np.testing.assert_allclose(out, 0.5 * c, atol=1e-6)

    def test_zero_body_with_residual_passes_input(self):
        c = 0.8
        spec = AosaSpec(acbs=[zero_acb(3, 3)],
                        projection=constant_projection(6, 3, c),
                        ese=EseSpec(np.zeros((3, 3), np.float32), np.zeros(3, np.float32)),
                        residual=True)
        x = np.random.default_rng(2).normal(size=(1, 3, 6, 6)).astype(np.float32)
        out = aosa_forward(x, spec)
        np.testing.assert_allclose(out, 0.5 * c + x, atol=1e-6)

    def test_stage1_table_shape(self):
        rng = np.random.default_rng(3)
        acbs = [random_acb(rng, 128, 128)]
        for _ in range(4):
            acbs.append(random_acb(rng, 128, 128))
        spec = AosaSpec(
            acbs=acbs,
            projection=conv_bn(kaiming_conv(rng, 256, 128 + 5 * 128, 1, 1),
                               random_bn(rng, 256)),
            ese=EseSpec(rng.normal(size=(256, 256)).astype(np.float32) * 0.05,
                        np.zeros(256, np.float32)),
            residual=False)
        x = rng.normal(size=(1, 128, 160, 160)).astype(np.float32) * 0.5
        assert aosa_forward(x, spec).shape == (1, 256, 160, 160)

    def test_spatial_dims_preserved(self):
        rng = np.random.default_rng(4)
        spec = AosaSpec(acbs=[random_acb(rng, 4, 6), random_acb(rng, 6, 6)],
                        projection=conv_bn(kaiming_conv(rng, 8, 4 + 2 * 6, 1, 1),
                                           random_bn(rng, 8)),
                        ese=EseSpec(np.zeros((8, 8), np.float32), np.zeros(8, np.float32)),
                        residual=False)
        for h, w in [(6, 6), (7, 9), (12, 5)]:
            x = rng.normal(size=(1, 4, h, w)).astype(np.float32)
            assert aosa_forward(x, spec).shape == (1, 8, h, w)

    def test_batch_of_two_matches_each_image(self):
        rng = np.random.default_rng(9)
        spec = AosaSpec(acbs=[random_acb(rng, 4, 6), random_acb(rng, 6, 6)],
                        projection=conv_bn(kaiming_conv(rng, 4, 4 + 2 * 6, 1, 1),
                                           random_bn(rng, 4)),
                        ese=EseSpec(rng.normal(size=(4, 4)).astype(np.float32),
                                    np.zeros(4, np.float32)),
                        residual=True)
        x = rng.normal(size=(2, 4, 7, 9)).astype(np.float32)
        out = aosa_forward(x, spec)
        for b in range(2):
            np.testing.assert_allclose(out[b:b + 1], aosa_forward(x[b:b + 1], spec),
                                       atol=1e-5, rtol=1e-5)

    def test_peak_memory_is_one_concat_buffer(self):
        # five fused layers write into one (1, 6c, h, w) buffer; the peak is
        # that buffer plus one column block or the projection output, not the
        # layer maps and a concatenated copy of them (twice the buffer)
        rng = np.random.default_rng(10)
        c, h, w, layers = 8, 256, 256, 5
        spec = AosaSpec(
            acbs=[fuse_block(random_acb(rng, c, c)) for _ in range(layers)],
            projection=fuse_block(conv_bn(kaiming_conv(rng, c, (layers + 1) * c, 1, 1),
                                          random_bn(rng, c))),
            ese=EseSpec(np.zeros((c, c), np.float32), np.zeros(c, np.float32)),
            residual=True)
        x = rng.normal(size=(1, c, h, w)).astype(np.float32)
        buffer = (layers + 1) * x.nbytes
        cols_row = c * 9 * w * x.itemsize
        cols = tensor_ops.COLS_BLOCK_BYTES // cols_row * cols_row
        tracemalloc.start()
        try:
            out = aosa_forward(x, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == x.shape
        assert peak < buffer + max(cols, out.nbytes) + 2**20


class TestBackboneForward:
    def test_tiny_smoke_six_levels(self):
        rng = np.random.default_rng(5)
        spec = build_backbone(tiny_backbone_config(8), random_params(rng))
        img = rng.normal(size=(1, 3, 128, 128)).astype(np.float32)
        pyramid = backbone_forward(img, spec)
        assert len(pyramid) == 6
        assert [p.shape[2] for p in pyramid] == [32, 16, 8, 4, 2, 1]

    def test_stride_arithmetic_256(self):
        rng = np.random.default_rng(6)
        spec = build_backbone(tiny_backbone_config(8), random_params(rng))
        img = rng.normal(size=(1, 3, 256, 256)).astype(np.float32)
        pyramid = backbone_forward(img, spec)
        assert [p.shape[2] for p in pyramid] == [64, 32, 16, 8, 4, 2]
        assert [p.shape[3] for p in pyramid] == [64, 32, 16, 8, 4, 2]

    def test_indivisible_dims_rejected(self):
        rng = np.random.default_rng(7)
        spec = build_backbone(tiny_backbone_config(8), random_params(rng))
        with pytest.raises(ShapeError):
            backbone_forward(np.zeros((1, 3, 130, 128), dtype=np.float32), spec)

    @pytest.mark.skipif(sys.version_info < (3, 11), reason="CPython before 3.11 keeps "
                        "a temporary argument on the caller's stack until the call returns")
    def test_full_width_stage1_peak_is_its_concat_buffer_and_projection(self):
        # stage 1 of full_config at 512x512: five 128-wide layers after the
        # 128-wide stem output fill a 768-channel concat buffer at 128x128,
        # projected to 256 channels; the stem output (8 MiB) is freed once the
        # buffer holds its copy, and the input once stem0 has read it
        rng = np.random.default_rng(11)
        config = BackboneConfig(stages=(BackboneConfig().stages[0],
                                        *tiny_backbone_config(8).stages[1:]))
        spec = build_backbone(config, random_params(rng), fused=True)
        unit = 128 * 128 * 4  # one channel at stride 4
        tracemalloc.start()
        try:
            pyramid = backbone_forward(
                rng.standard_normal((1, 3, 512, 512), dtype=np.float32), spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert pyramid[0].shape == (1, 256, 128, 128)
        assert peak < (768 + 256) * unit + 2**20

    def test_full_config_channel_plan(self):
        cfg = BackboneConfig()
        assert cfg.out_channels == (256, 512, 768, 1024, 128, 128)
        assert [s.layer_count for s in cfg.stages] == [5, 5, 5, 5, 3, 3]
        assert [s.repeats for s in cfg.stages] == [1, 1, 2, 2, 1, 1]

    def test_residual_placement(self):
        rng = np.random.default_rng(8)
        spec = build_backbone(BackboneConfig(), random_params(rng))
        residuals = [[blk.residual for blk in stage] for stage in spec.stages]
        assert residuals == [[False], [False], [False, True], [False, True],
                             [False], [True]]


def test_fully_fused_backbone_drift_within_budget():
    rng = np.random.default_rng(9)
    spec = build_backbone(tiny_backbone_config(8), random_params(rng))
    fused = map_blocks(spec, fuse_block)
    img = rng.uniform(-1, 1, size=(1, 3, 128, 128)).astype(np.float32)
    for a, b in zip(backbone_forward(img, spec), backbone_forward(img, fused)):
        assert np.abs(a - b).max() <= 1e-3
