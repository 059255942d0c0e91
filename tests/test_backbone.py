import sys
import tracemalloc
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from acfd import backbone, fusion, tensor_ops
from acfd.backbone import (AosaSpec, BackboneConfig, EseSpec, aosa_forward,
                           backbone_forward, block_forward, build_backbone,
                           ese_attention, kaiming_conv, named_acb, named_conv_bn,
                           random_acb, random_bn, random_params, tiny_backbone_config)
from acfd.fusion import Branches, ConvBn, block_macs, fuse_block
from acfd.tensor_ops import BNSpec, ConvSpec, ShapeError, map_tree, relu
from reference import identity_laterals


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


def random_aosa(rng, in_c, layer_c, layers, out_c, fused=False):
    acbs = [random_acb(rng, layer_c if a else in_c, layer_c) for a in range(layers)]
    projection = conv_bn(kaiming_conv(rng, out_c, in_c + layers * layer_c, 1, 1),
                         random_bn(rng, out_c))
    if fused:
        acbs, projection = [fuse_block(a) for a in acbs], fuse_block(projection)
    return AosaSpec(acbs=acbs, projection=projection,
                    ese=EseSpec(rng.normal(size=(out_c, out_c)).astype(np.float32) * 0.1,
                                np.zeros(out_c, np.float32)),
                    residual=in_c == out_c)


def whole_maps(x, blocks, concat=False):
    """x and every block's relu output over whole maps, the last block reading
    the concatenation of x and every map under ``concat``."""
    maps = [x]
    for block in blocks[:-1]:
        maps.append(relu(block_forward(maps[-1], block)))
    last_in = np.concatenate(maps, axis=1) if concat else maps[-1]
    return [*maps, relu(block_forward(last_in, blocks[-1]))]


def whole_map_aosa(x, spec):
    """The block over whole maps: one concatenation of x and every layer map,
    projected, gated and added to x."""
    out = whole_maps(x, [*spec.acbs, spec.projection], concat=True)[-1]
    out = ese_attention(out, spec.ese.weight, spec.ese.bias)
    if spec.residual:
        out += x
    return out


def random_stem(rng, widths, fused):
    """A stem of the given widths, its blocks folded when ``fused``."""
    config = BackboneConfig(stem_channels=widths, stages=tiny_backbone_config(8).stages)
    stem = build_backbone(config, random_params(rng)).stem
    return [fuse_block(block) for block in stem] if fused else stem


# ---------------------------------------------------------------------------
# one set of checks for the band schedule, run on both chains the forward
# bands: an aggregation block (an AosaSpec, through aosa_forward) and a
# (blocks, concat) chain such as the stem's

def chain_blocks(chain):
    """The chain's blocks, and whether the last reads the concatenation."""
    if isinstance(chain, AosaSpec):
        return [*chain.acbs, chain.projection], True
    return chain


def chain_forward(chain, x):
    if isinstance(chain, AosaSpec):
        return aosa_forward(x, chain)
    return backbone._band_chain(x, *chain)


def whole_map_forward(chain, x):
    return whole_map_aosa(x, chain) if isinstance(chain, AosaSpec) else whole_maps(x, *chain)[-1]


def band_budget(rows, x, chain):
    """The panel budget that gives bands of ``rows`` output rows, or fewer when
    that splits the output evenly: the bytes per output row of the maps the
    panel holds rows of, x's under concat and every map between x and the
    output."""
    blocks, concat = chain_blocks(chain)
    maps = whole_maps(x, blocks, concat)
    return rows * sum(m.nbytes for m in maps[0 if concat else 1:-1]) // maps[-1].shape[2]


def block_convs(block):
    return [block] if isinstance(block, ConvSpec) else [b.conv for b in block.branches]


@contextmanager
def counted_convs():
    """Patches conv2d where blocks call it; yields {weight id: output rows of
    each call} and the MACs of every call."""
    rows, macs = {}, []
    conv2d = tensor_ops.conv2d

    def counted(x, spec, out=None, row0=None):
        y = conv2d(x, spec, out, row0)
        rows.setdefault(id(spec.weight), []).append(y.shape[2])
        macs.append(y.shape[0] * y.shape[2] * y.shape[3] * spec.weight.size)
        return y
    with mock.patch.object(backbone, "conv2d", counted), \
            mock.patch.object(fusion, "conv2d", counted):
        yield rows, macs


def check_bit_identical_at_the_shipped_budget(chain, x, bands):
    """Bit for bit the whole-map forward, with the last block run in ``bands``
    bands."""
    want = whole_map_forward(chain, x)
    with counted_convs() as (rows, _):
        got = chain_forward(chain, x)
    last = chain_blocks(chain)[0][-1]
    assert len(rows[id(block_convs(last)[0].weight)]) == bands
    np.testing.assert_array_equal(got, want)


def check_matches_whole_maps(chain, x, budget):
    want = whole_map_forward(chain, x)
    with mock.patch.object(backbone, "BAND_PANEL_BYTES", budget):
        np.testing.assert_allclose(chain_forward(chain, x), want, rtol=1e-6, atol=1e-6)


def check_each_row_once(chain, x, budget):
    """No halo row is computed twice: each conv's output rows sum to its map's
    height, and the conv MACs are the blocks' whole-map count."""
    blocks, concat = chain_blocks(chain)
    maps = whole_maps(x, blocks, concat)
    with mock.patch.object(backbone, "BAND_PANEL_BYTES", budget), \
            counted_convs() as (rows, macs):
        chain_forward(chain, x)
    convs = [conv for block in blocks for conv in block_convs(block)]
    assert sorted(rows) == sorted(id(conv.weight) for conv in convs)
    for block, out in zip(blocks, maps[1:]):
        assert [sum(rows[id(conv.weight)]) for conv in block_convs(block)] == \
            [out.shape[2]] * len(block_convs(block))
    assert sum(macs) == x.shape[0] * sum(block_macs(block, m.shape[2:])
                                         for block, m in zip(blocks, maps))


def check_peak_holds_no_whole_map(chain, x, halo):
    """The peak is the output, one panel over a band with its halo rows, which
    take ``halo`` output rows' worth, and one column block; no whole map
    between x and the output fits."""
    maps = whole_maps(x, *chain_blocks(chain))
    out, smallest = maps[-1].nbytes, min(m.nbytes for m in maps[1:-1])
    del maps
    panel = backbone.BAND_PANEL_BYTES + band_budget(halo, x, chain)
    tracemalloc.start()
    try:
        chain_forward(chain, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bound = out + panel + tensor_ops.COLS_BLOCK_BYTES + 2**20
    assert peak < bound < out + smallest + tensor_ops.COLS_BLOCK_BYTES


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

    def test_peak_memory_is_one_band(self):
        # five fused layers over a tall map: the panel holds the six maps over
        # a band, the five rows ahead of it and one halo row above it
        rng = np.random.default_rng(10)
        x = rng.normal(size=(1, 8, 1024, 256)).astype(np.float32)
        check_peak_holds_no_whole_map(random_aosa(rng, 8, 8, 5, 8, fused=True), x, 6)

    def test_bit_identical_to_whole_maps_at_the_shipped_budget(self):
        rng = np.random.default_rng(12)
        # a full-width stage 1 on a 32x128 map runs in 8-row bands
        for fused in (True, False):
            full = random_aosa(rng, 128, 128, 5, 256, fused=fused)
            x = rng.normal(size=(1, 128, 32, 128)).astype(np.float32)
            check_bit_identical_at_the_shipped_budget(full, x, 4)
        # tiny's stage 1 at the largest default scale runs as one band
        for fused in (True, False):
            tiny = random_aosa(rng, 8, 8, 1, 8, fused=fused)
            x = rng.normal(size=(1, 8, 224, 288)).astype(np.float32)
            check_bit_identical_at_the_shipped_budget(tiny, x, 1)

    @pytest.mark.parametrize("n,h,w,layers,band,fused,residual", [
        (1, 10, 7, 3, 1, False, False),  # one-row bands, unfused three-branch layers
        (1, 10, 7, 3, 3, True, True),    # h not a multiple of the band, residual
        (1, 3, 9, 5, 1, True, False),    # h smaller than the layer count
        (1, 2, 6, 5, 1, False, True),
        (2, 9, 5, 2, 2, False, True),    # a batch of two
        (2, 11, 4, 4, 4, True, False),
    ])
    def test_narrow_bands_match_whole_maps(self, n, h, w, layers, band, fused, residual):
        rng = np.random.default_rng(13)
        in_c = 4
        spec = random_aosa(rng, in_c, 6, layers, in_c if residual else 5, fused=fused)
        x = rng.normal(size=(n, in_c, h, w)).astype(np.float32)
        check_matches_whole_maps(spec, x, band_budget(band, x, spec))

    @pytest.mark.parametrize("band", [1, 7, None])  # None: the shipped budget
    @pytest.mark.parametrize("fused", [True, False])
    def test_each_layer_computes_each_row_once(self, band, fused):
        rng = np.random.default_rng(14)
        spec = random_aosa(rng, 16, 16, 3, 24, fused=fused)
        x = rng.normal(size=(2, 16, 40, 48)).astype(np.float32)
        check_each_row_once(spec, x, band_budget(band, x, spec) if band
                            else backbone.BAND_PANEL_BYTES)


# the full stem widths and the tiny ones, each on a grid it runs in four bands
STEMS = [((64, 64, 128), (256, 384)), ((8, 8, 8), (896, 1152))]


class TestStem:
    @pytest.mark.parametrize("fused", [True, False])
    @pytest.mark.parametrize("widths,hw", STEMS)
    def test_bit_identical_to_whole_maps_at_the_shipped_budget(self, widths, hw, fused):
        rng = np.random.default_rng(20)
        stem = random_stem(rng, widths, fused)
        x = rng.uniform(-1, 1, (1, 3, *hw)).astype(np.float32)
        check_bit_identical_at_the_shipped_budget((stem, False), x, 4)

    @pytest.mark.parametrize("fused", [True, False])
    @pytest.mark.parametrize("widths,hw", STEMS)
    def test_one_row_bands_match_whole_maps(self, widths, hw, fused):
        rng = np.random.default_rng(21)
        stem = random_stem(rng, widths, fused)
        x = rng.uniform(-1, 1, (1, 3, hw[0] // 2, hw[1] // 2)).astype(np.float32)
        check_matches_whole_maps((stem, False), x, 1)

    @pytest.mark.parametrize("band", [1, 7, None])  # None: the shipped budget
    @pytest.mark.parametrize("fused", [True, False])
    def test_each_conv_computes_each_row_once(self, band, fused):
        rng = np.random.default_rng(22)
        chain = (random_stem(rng, (64, 64, 128), fused), False)
        x = rng.uniform(-1, 1, (2, 3, 256, 128)).astype(np.float32)
        check_each_row_once(chain, x, band_budget(band, x, chain) if band
                            else backbone.BAND_PANEL_BYTES)

    @pytest.mark.parametrize("widths,hw", STEMS)
    def test_peak_holds_no_whole_stem_map(self, widths, hw):
        # the stem's two maps take two rows each per output row, and the
        # panel holds three halo rows of them
        rng = np.random.default_rng(23)
        stem = random_stem(rng, widths, fused=True)
        x = rng.uniform(-1, 1, (1, 3, *hw)).astype(np.float32)
        check_peak_holds_no_whole_map((stem, False), x, 2)


@st.composite
def chains(draw):
    """A chain of 1-4 blocks of kernel 1 or 3, each folded or three-branch
    (one-branch at kernel 1), stride 2 only at either end and only when the
    last block does not read the concatenation; its input, a batch of one or
    two; and a panel budget from one byte up to the whole maps."""
    concat, length = draw(st.booleans()), draw(st.sampled_from((1, 2, 3, 4)))
    param = random_params(np.random.default_rng(draw(st.integers(0, 2**16))))
    in_c = draw(st.integers(1, 3))
    blocks, widths = [], [in_c]
    for i in range(length):
        k, out_c = draw(st.sampled_from((1, 3))), draw(st.integers(1, 3))
        fused = draw(st.booleans())
        s = 2 if not concat and i in (0, length - 1) and draw(st.booleans()) else 1
        read_c = sum(widths) if concat and i == length - 1 else widths[-1]
        blocks.append(named_acb(param, f"b{i}", read_c, out_c, (s, s), fused) if k == 3 else
                      named_conv_bn(param, f"b{i}", out_c, read_c, 1, (s, s), fused=fused))
        widths.append(out_c)
    shape = (draw(st.integers(1, 2)), in_c, draw(st.sampled_from(range(1, 25))),
             draw(st.integers(1, 6)))
    x = np.random.default_rng(draw(st.integers(0, 2**16))).uniform(-1, 1, shape)
    x = x.astype(np.float32)
    whole = band_budget(whole_maps(x, blocks, concat)[-1].shape[2], x, (blocks, concat))
    return (blocks, concat), x, draw(st.integers(1, max(1, whole)))


def strided_pointwise_chain():
    """A 3x3 block and a 1x1 stride-2 one in one-row bands: the second band's
    first read lies below every row the first band wrote."""
    param = random_params(np.random.default_rng(0))
    blocks = [named_acb(param, "b0", 2, 2, fused=True),
              named_conv_bn(param, "b1", 2, 2, 1, (2, 2), fused=True)]
    x = np.random.default_rng(1).uniform(-1, 1, (1, 2, 8, 5)).astype(np.float32)
    return (blocks, False), x, 1


# the budget is patched inside the checks: hypothesis rejects function-scoped
# fixtures such as monkeypatch, which its examples would share
@settings(derandomize=True, max_examples=150, deadline=None)
@given(case=chains())
@example(case=strided_pointwise_chain())
def test_any_chain_matches_whole_maps_and_computes_each_row_once(case):
    chain, x, budget = case
    check_matches_whole_maps(chain, x, budget)
    check_each_row_once(chain, x, budget)


class TestBackboneForward:
    def test_tiny_smoke_six_levels(self):
        rng = np.random.default_rng(5)
        spec = build_backbone(tiny_backbone_config(8), random_params(rng))
        img = rng.normal(size=(1, 3, 128, 128)).astype(np.float32)
        pyramid = backbone_forward(img, spec, identity_laterals((8,) * 6))
        assert len(pyramid) == 6
        assert [p.shape[2] for p in pyramid] == [32, 16, 8, 4, 2, 1]

    def test_stride_arithmetic_256(self):
        rng = np.random.default_rng(6)
        spec = build_backbone(tiny_backbone_config(8), random_params(rng))
        img = rng.normal(size=(1, 3, 256, 256)).astype(np.float32)
        pyramid = backbone_forward(img, spec, identity_laterals((8,) * 6))
        assert [p.shape[2] for p in pyramid] == [64, 32, 16, 8, 4, 2]
        assert [p.shape[3] for p in pyramid] == [64, 32, 16, 8, 4, 2]

    def test_indivisible_dims_rejected(self):
        rng = np.random.default_rng(7)
        spec = build_backbone(tiny_backbone_config(8), random_params(rng))
        with pytest.raises(ShapeError):
            backbone_forward(np.zeros((1, 3, 130, 128), dtype=np.float32), spec,
                             identity_laterals((8,) * 6))

    @pytest.mark.skipif(sys.version_info < (3, 11), reason="CPython before 3.11 keeps "
                        "a temporary argument on the caller's stack until the call returns")
    def test_full_width_stage1_peak_is_banded(self, monkeypatch):
        # stage 1 of full_config at 512x512: five 128-wide layers after the
        # 128-wide stem output, projected to 256 channels at 128x128. It runs
        # in bands, so while it runs the peak holds the stem output, the block
        # output, one panel of the 768 channels over a band, the five rows
        # ahead of it and one halo row above it, and one column block, where a
        # whole concat buffer would hold 768 channels. The input dies once
        # the stem has read it. With one-row column blocks, the 2.25 MiB
        # temporary of a panel shift across the interleaved channels would
        # set the peak
        rng = np.random.default_rng(11)
        config = BackboneConfig(stages=(BackboneConfig().stages[0],
                                        *tiny_backbone_config(8).stages[1:]))
        spec = build_backbone(config, random_params(rng), fused=True)
        unit = 128 * 128 * 4  # one channel at stride 4
        row = 768 * 128 * 4  # one row of the 768 channels
        panel = (backbone.BAND_PANEL_BYTES // row + 6) * row
        peaks = []
        aosa = backbone.aosa_forward

        def traced(x, block):
            tracemalloc.reset_peak()
            y = aosa(x, block)
            peaks.append(tracemalloc.get_traced_memory()[1])
            return y
        monkeypatch.setattr(backbone, "aosa_forward", traced)
        # the shipped column blocks, then blocks of one output row of a 3x3 conv
        for block_bytes, cols in ((tensor_ops.COLS_BLOCK_BYTES, tensor_ops.COLS_BLOCK_BYTES),
                                  (1, 128 * 9 * 128 * 4)):
            monkeypatch.setattr(tensor_ops, "COLS_BLOCK_BYTES", block_bytes)
            peaks.clear()
            tracemalloc.start()
            try:
                pyramid = backbone_forward(
                    rng.standard_normal((1, 3, 512, 512), dtype=np.float32), spec,
                    identity_laterals(config.out_channels))
            finally:
                tracemalloc.stop()
            assert pyramid[0].shape == (1, 256, 128, 128)
            assert peaks[0] < (128 + 256) * unit + panel + cols + 2**20

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
    fused = map_tree(spec, Branches, fuse_block)
    img = rng.uniform(-1, 1, size=(1, 3, 128, 128)).astype(np.float32)
    laterals = identity_laterals((8,) * 6)
    for a, b in zip(backbone_forward(img, spec, laterals), backbone_forward(img, fused, laterals)):
        assert np.abs(a - b).max() <= 1e-3
