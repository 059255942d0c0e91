import numpy as np
import pytest

from acfd.backbone import (AosaSpec, BackboneConfig, EseSpec, aosa_forward,
                           backbone_forward, build_backbone, ese_attention,
                           kaiming_conv, random_acb, random_bn,
                           tiny_backbone_config)
from acfd.fusion import AcbSpec, ConvBn, fuse_block, map_blocks
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
    return AcbSpec(square=branch(3, 3, (1, 1)),
                   horizontal=branch(1, 3, (0, 1)),
                   vertical=branch(3, 1, (1, 0)))


def constant_projection(in_c, out_c, value):
    """1x1 conv with zero weights whose BN beta emits a constant map."""
    conv = ConvSpec(weight=np.zeros((out_c, in_c, 1, 1), dtype=np.float32))
    bn = identity_bn(out_c)
    bn.beta = np.full(out_c, value, dtype=np.float32)
    return ConvBn(conv=conv, bn=bn)


class TestEseAttention:
    def test_identity_weight_constant_input(self):
        x = np.full((1, 2, 4, 4), 2.0, dtype=np.float32)
        out = ese_attention(x, np.eye(2, dtype=np.float32), np.zeros(2, np.float32))
        np.testing.assert_allclose(out, 2.0 / (1.0 + np.exp(-2.0)), atol=1e-6)
        assert out[0, 0, 0, 0] == pytest.approx(1.761594, abs=1e-6)

    def test_zero_weight_halves_activations(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 3, 5, 5)).astype(np.float32)
        out = ese_attention(x, np.zeros((3, 3), np.float32), np.zeros(3, np.float32))
        np.testing.assert_allclose(out, 0.5 * x, atol=1e-7)

    def test_zero_input(self):
        x = np.zeros((1, 2, 3, 3), dtype=np.float32)
        out = ese_attention(x, np.eye(2, dtype=np.float32), np.zeros(2, np.float32))
        np.testing.assert_array_equal(out, x)

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
            projection=ConvBn(kaiming_conv(rng, 256, 128 + 5 * 128, 1, 1),
                              random_bn(rng, 256)),
            ese=EseSpec(rng.normal(size=(256, 256)).astype(np.float32) * 0.05,
                        np.zeros(256, np.float32)),
            residual=False)
        x = rng.normal(size=(1, 128, 160, 160)).astype(np.float32) * 0.5
        assert aosa_forward(x, spec).shape == (1, 256, 160, 160)

    def test_spatial_dims_preserved(self):
        rng = np.random.default_rng(4)
        spec = AosaSpec(acbs=[random_acb(rng, 4, 6), random_acb(rng, 6, 6)],
                        projection=ConvBn(kaiming_conv(rng, 8, 4 + 2 * 6, 1, 1),
                                          random_bn(rng, 8)),
                        ese=EseSpec(np.zeros((8, 8), np.float32), np.zeros(8, np.float32)),
                        residual=False)
        for h, w in [(6, 6), (7, 9), (12, 5)]:
            x = rng.normal(size=(1, 4, h, w)).astype(np.float32)
            assert aosa_forward(x, spec).shape == (1, 8, h, w)


class TestBackboneForward:
    def test_tiny_smoke_six_levels(self):
        rng = np.random.default_rng(5)
        spec = build_backbone(tiny_backbone_config(8), rng)
        img = rng.normal(size=(1, 3, 128, 128)).astype(np.float32)
        pyramid = backbone_forward(img, spec)
        assert len(pyramid) == 6
        assert [p.shape[2] for p in pyramid] == [32, 16, 8, 4, 2, 1]

    def test_stride_arithmetic_256(self):
        rng = np.random.default_rng(6)
        spec = build_backbone(tiny_backbone_config(8), rng)
        img = rng.normal(size=(1, 3, 256, 256)).astype(np.float32)
        pyramid = backbone_forward(img, spec)
        assert [p.shape[2] for p in pyramid] == [64, 32, 16, 8, 4, 2]
        assert [p.shape[3] for p in pyramid] == [64, 32, 16, 8, 4, 2]

    def test_indivisible_dims_rejected(self):
        rng = np.random.default_rng(7)
        spec = build_backbone(tiny_backbone_config(8), rng)
        with pytest.raises(ShapeError):
            backbone_forward(np.zeros((1, 3, 130, 128), dtype=np.float32), spec)

    def test_full_config_channel_plan(self):
        cfg = BackboneConfig()
        assert cfg.out_channels == (256, 512, 768, 1024, 128, 128)
        assert [s.layer_count for s in cfg.stages] == [5, 5, 5, 5, 3, 3]
        assert [s.repeats for s in cfg.stages] == [1, 1, 2, 2, 1, 1]

    def test_residual_placement(self):
        rng = np.random.default_rng(8)
        spec = build_backbone(BackboneConfig(), rng)
        residuals = [[blk.residual for blk in stage] for stage in spec.stages]
        assert residuals == [[False], [False], [False, True], [False, True],
                             [False], [True]]


def test_fully_fused_backbone_drift_within_budget():
    rng = np.random.default_rng(9)
    spec = build_backbone(tiny_backbone_config(8), rng)
    fused = map_blocks(spec, fuse_block)
    img = rng.uniform(-1, 1, size=(1, 3, 128, 128)).astype(np.float32)
    for a, b in zip(backbone_forward(img, spec), backbone_forward(img, fused)):
        assert np.abs(a - b).max() <= 1e-3
