"""VoVNetV3-51 backbone: stem, six one-shot-aggregation stages, eSE gating.

Each stage chains asymmetric convolution blocks, concatenates the running
feature maps once, projects with a 1x1 convolution, applies channel
attention, and adds a residual where input and output widths agree.
Downsampling between stages is a 3x3/stride-2/pad-1 max pool so 640 input
halves exactly through 320/160/80/40/20/10/5.
"""
from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .fusion import Block, Branches, ConvBn, acb_forward, block_conv
from .tensor_ops import (BNSpec, ConvSpec, ShapeError, check_tensor4,
                         concat_channels, conv2d, conv_output_shape, global_avg_pool,
                         linear, max_pool2d, relu, sigmoid)

POOL_KERNEL = (3, 3)
POOL_STRIDE = (2, 2)
POOL_PAD = (1, 1)
# the network runs on grids whose sides are multiples of the coarsest stride
GRID_MULTIPLE = 128
# Bytes of one band's concat panel: each aggregation block runs over bands of
# output rows whose concatenated rows take at most this much, or one row
BAND_PANEL_BYTES = 4 << 20


def check_grid(hw: tuple[int, int]) -> None:
    h, w = hw
    if h % GRID_MULTIPLE or w % GRID_MULTIPLE:
        raise ShapeError(f"image dims must be divisible by {GRID_MULTIPLE}, got {h}x{w}")


def block_forward(x: np.ndarray, block: Block, out: np.ndarray | None = None,
                  row0: int | None = None) -> np.ndarray:
    """The block on x, into out; ``row0`` as in ``conv2d``."""
    if isinstance(block, Branches):
        return acb_forward(x, block, out, row0)
    return conv2d(x, block, out, row0)


@dataclass
class EseSpec:
    """Channel-attention weights: one fully-connected c->c layer."""

    weight: np.ndarray
    bias: np.ndarray


def ese_attention(x: np.ndarray, weight: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Gate channels by sigmoid(FC(global average pool)), in place: every
    caller passes a projection output it has just made."""
    check_tensor4(x)
    c = x.shape[1]
    if weight.shape != (c, c):
        raise ShapeError(f"ese weight {weight.shape} != ({c},{c})")
    pooled = global_avg_pool(x)[:, :, 0, 0]
    gate = sigmoid(linear(pooled, weight, bias))
    x *= gate[:, :, None, None]
    return x


@dataclass
class AosaSpec:
    """One aggregation block: ACB chain, concat, 1x1 projection, eSE, residual."""

    acbs: list[Block]
    projection: Block
    ese: EseSpec
    residual: bool


def aosa_forward(x: np.ndarray, spec: AosaSpec) -> np.ndarray:
    """Depth-first over bands of output rows, so that no concat buffer or
    layer map is ever whole.

    One concat panel holds x and every layer map, from one halo row above
    the band down to the last row a later layer reads. For each band, every
    layer computes the rows it newly can, one halo behind the map it reads,
    straight into its channels of the panel, and the projection reads the
    band's rows of all channels in place. Before the next band, x's rows are
    copied in again and each map's finished rows move up to the panel's top.
    No row is computed twice, and every output element is the same dot
    product as over whole maps.
    """
    check_tensor4(x)
    n, c0, h, w = x.shape
    halos = [block_conv(block).padding[0] for block in spec.acbs]
    widths = [block_conv(block).out_c for block in spec.acbs]
    edges = np.cumsum([0, c0, *widths]).tolist()  # map j is channels edges[j]:edges[j + 1]
    band = max(1, min(h, BAND_PANEL_BYTES // (n * edges[-1] * w * x.itemsize)))
    # x and each layer's map run this many rows ahead of the band
    ahead = [sum(halos[j:]) for j in range(len(halos) + 1)]
    halo = max(halos)
    # panel before out: in the other order glibc keeps 60 MB more heap on a full-model detect
    panel = concat_channels(x[:, :, :min(h, band + ahead[0] + halo)], edges[-1] - c0)
    out = np.empty((n, block_conv(spec.projection).out_c, h, w), dtype=x.dtype)
    for r0 in range(0, h, band):
        r1 = min(h, r0 + band)
        top, end = max(0, r0 - halo), min(h, r1 + ahead[0])
        if r0:  # x's rows come in again, and the maps' finished rows move up to the top
            panel[:, :c0, :end - top] = x[:, :, top:end]
            keep, shift = min(h, r0 + ahead[1]) - top, top - max(0, r0 - band - halo)
            panel[:, c0:, :keep] = panel[:, c0:, shift:shift + keep]
        for j, block in enumerate(spec.acbs, start=1):
            lo, hi = min(h, r0 + ahead[j]) if r0 else 0, min(h, r1 + ahead[j])
            if lo < hi:
                relu(block_forward(panel[:, edges[j - 1]:edges[j], :end - top], block,
                                   panel[:, edges[j]:edges[j + 1], lo - top:hi - top],
                                   lo - top))
        relu(block_forward(panel[:, :, r0 - top:r1 - top], spec.projection, out[:, :, r0:r1]))
    del panel
    out = ese_attention(out, spec.ese.weight, spec.ese.bias)
    if spec.residual:
        out += x
    return out


def stem_forward(image: np.ndarray, stem: list[Block]) -> np.ndarray:
    """The stem's chain of convolutions depth-first over bands of its output
    rows, so that no map between them is ever whole.

    Each such map lives in a window: from the first row the next conv still
    reads, rounded down to a whole stride of it, to the last row the band
    needs. For each band, every conv computes the rows it newly can into its
    window, or into the output, and before the next band each window's rows
    still to be read move up to its top. No row is computed twice, and every
    output element is the same dot product as over whole maps. The bands
    split the output rows evenly, as few as let the windows take at most
    BAND_PANEL_BYTES per band, with their halo rows on top.
    """
    check_tensor4(image, "image")
    convs = [block_conv(block) for block in stem]
    n, _, h, w = image.shape
    heights, widths = [h], [w]  # map j is the input of conv j, the output of conv j - 1
    for conv in convs:
        heights.append(conv_output_shape(heights[-1], conv.kh, conv.stride[0], conv.padding[0]))
        widths.append(conv_output_shape(widths[-1], conv.kw, conv.stride[1], conv.padding[1]))
    strides = [conv.stride[0] for conv in convs]
    # a window holds the product of the later strides of rows per output row
    row_bytes = sum(n * conv.out_c * widths[j] * image.itemsize * math.prod(strides[j:])
                    for j, conv in enumerate(convs[:-1], start=1))
    band = max(1, BAND_PANEL_BYTES // row_bytes)
    band = -(-heights[-1] // -(-heights[-1] // band))
    # per band, each map's first new row, end row and window top; the image
    # and the output are whole
    plan, done = [], [0] * len(heights)
    for r0 in range(0, heights[-1], band):
        end = [h, *[0] * (len(convs) - 1), min(heights[-1], r0 + band)]
        for j in range(len(convs) - 1, 0, -1):
            conv = convs[j]
            end[j] = min(heights[j], (end[j + 1] - 1) * strides[j] - conv.padding[0] + conv.kh)
        top = [0, *(max(0, (done[j + 1] * strides[j] - convs[j].padding[0]) // strides[j]
                           * strides[j]) for j in range(1, len(convs))), 0]
        plan.append((done, end, top))
        done = end
    windows = [np.empty((n, conv.out_c, max(e[j] - t[j] for _, e, t in plan), widths[j]),
                        dtype=image.dtype) for j, conv in enumerate(convs[:-1], start=1)]
    out = np.empty((n, convs[-1].out_c, heights[-1], widths[-1]), dtype=image.dtype)
    maps, last = [image, *windows, out], plan[0][2]
    for done, end, top in plan:
        for j, (block, s) in enumerate(zip(stem, strides), start=1):
            keep, shift = done[j] - top[j], top[j] - last[j]
            if shift and keep > 0:  # the rows still to be read move up to the window's top
                maps[j][:, :, :keep] = maps[j][:, :, shift:shift + keep]
            if done[j] < end[j]:
                relu(block_forward(maps[j - 1][:, :, :end[j - 1] - top[j - 1]], block,
                                   maps[j][:, :, done[j] - top[j]:end[j] - top[j]],
                                   done[j] - top[j - 1] // s))
        last = top
    return out


@dataclass
class BackboneSpec:
    stem: list[Block]             # strides 2, 1, 2
    stages: list[list[AosaSpec]]  # six stages, one entry per repeat


def backbone_forward(image: np.ndarray, spec: BackboneSpec,
                     laterals: list[Block]) -> list[np.ndarray]:
    """Run stem and stages; returns the six stage outputs, stride 4 to 128,
    each projected by its lateral. Each activation dies at its last use: an
    image the caller drops once the stem has read it, and each stage output
    once the next stage's pool and its lateral have."""
    check_tensor4(image, "image")
    check_grid(image.shape[2:])
    held = [image]  # the running activation, popped into the call that reads it
    del image
    held.append(stem_forward(held.pop(), spec.stem))
    levels = []
    for idx, stage in enumerate(spec.stages):
        for block in stage:
            held.append(aosa_forward(held.pop(), block))
        if idx + 1 < len(spec.stages):  # the pool first, so that the output dies in its lateral
            held.insert(0, max_pool2d(held[0], POOL_KERNEL, POOL_STRIDE, POOL_PAD))
        levels.append(block_forward(held.pop(), laterals[idx]))
    return levels


# ---------------------------------------------------------------------------
# configuration and seeded construction

@dataclass(frozen=True)
class StageConfig:
    repeats: int
    layer_channels: int
    out_channels: int
    layer_count: int


@dataclass(frozen=True)
class BackboneConfig:
    stem_channels: tuple[int, int, int] = (64, 64, 128)
    stages: tuple[StageConfig, ...] = (
        StageConfig(1, 128, 256, 5),
        StageConfig(1, 160, 512, 5),
        StageConfig(2, 192, 768, 5),
        StageConfig(2, 224, 1024, 5),
        StageConfig(1, 128, 128, 3),
        StageConfig(1, 128, 128, 3),
    )

    @property
    def out_channels(self) -> tuple[int, ...]:
        return tuple(s.out_channels for s in self.stages)


def tiny_backbone_config(width: int = 8, layer_count: int = 1) -> BackboneConfig:
    """Structurally complete but desk-sized: same six stages, narrow channels."""
    return BackboneConfig(
        stem_channels=(width, width, width),
        stages=tuple(StageConfig(1, width, width, layer_count) for _ in range(6)),
    )


# Every builder asks a parameter source ``param(name, shape, draw)`` for each
# array, under its frozen dotted name and in container order: a random source
# calls ``draw(rng, shape, dtype)``, a load source looks the name up.
Param = Callable[[str, tuple[int, ...], Callable], np.ndarray]


def kaiming_draw(rng, shape, dtype):
    fan_in = math.prod(shape[1:])
    return rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape).astype(dtype, copy=False)


def _damped_draw(rng, shape, dtype):
    # the three ACB branches sum, so damp each to keep unit output variance
    return kaiming_draw(rng, shape, dtype) / np.sqrt(3.0, dtype=dtype)


def _zeros_draw(rng, shape, dtype):
    return np.zeros(shape, dtype=dtype)


def sampled(method: str, *args):
    """The draw ``rng.<method>(*args, shape)`` cast to the dtype."""
    return lambda rng, shape, dtype: getattr(rng, method)(*args, shape).astype(dtype)


def random_params(rng: np.random.Generator, dtype=np.float32) -> Param:
    """The source that draws every array from ``rng``, in build order."""
    return lambda name, shape, draw: draw(rng, shape, dtype)


def named_conv(param: Param, name: str, out_c: int, in_c: int, kh: int, kw: int,
               stride=(1, 1), padding=(0, 0), bias: bool = False,
               draw=kaiming_draw) -> ConvSpec:
    return ConvSpec(weight=param(f"{name}.weight", (out_c, in_c, kh, kw), draw),
                    bias=param(f"{name}.bias", (out_c,), _zeros_draw) if bias else None,
                    stride=stride, padding=padding)


def named_bn(param: Param, name: str, channels: int) -> BNSpec:
    """Near-identity but non-trivial stats: folding is exercised end to end, and
    float32 fusion drift stays well inside the per-block budget when deep."""
    bn = BNSpec(mean=param(f"{name}.mean", (channels,), sampled("normal", 0.0, 0.05)),
                var=param(f"{name}.var", (channels,), sampled("uniform", 0.8, 1.25)),
                gamma=param(f"{name}.gamma", (channels,), sampled("uniform", 0.9, 1.1)),
                beta=param(f"{name}.beta", (channels,), sampled("normal", 0.0, 0.05)))
    if not float(bn.var.min()) + bn.eps > 0:  # scale_shift's condition; NaN fails too
        raise ValueError(f"{name}.var: var + eps must be positive")
    return bn


def named_conv_bn(param: Param, name: str, out_c: int, in_c: int, k: int,
                  stride=(1, 1), padding=(0, 0), fused: bool = False) -> Block:
    """A one-branch conv+BN block, or once fused its biased conv."""
    conv = named_conv(param, f"{name}.conv", out_c, in_c, k, k, stride, padding, bias=fused)
    return conv if fused else Branches([ConvBn(conv, named_bn(param, f"{name}.bn", out_c))])


def named_acb(param: Param, name: str, in_c: int, out_c: int, stride=(1, 1),
              fused: bool = False) -> Block:
    """A three-branch ACB, or once fused its one biased 3x3 conv."""
    if fused:
        return named_conv(param, name, out_c, in_c, 3, 3, stride, (1, 1), bias=True)

    def branch(kind, kh, kw, padding):
        conv = named_conv(param, f"{name}.{kind}", out_c, in_c, kh, kw, stride, padding,
                          draw=_damped_draw)
        return ConvBn(conv=conv, bn=named_bn(param, f"{name}.{kind}.bn", out_c))
    return Branches([branch("square", 3, 3, (1, 1)), branch("horizontal", 1, 3, (0, 1)),
                     branch("vertical", 3, 1, (1, 0))])


def kaiming_conv(rng: np.random.Generator, out_c: int, in_c: int, kh: int, kw: int,
                 stride=(1, 1), padding=(0, 0), bias: bool = False,
                 dtype=np.float32) -> ConvSpec:
    return named_conv(random_params(rng, dtype), "conv", out_c, in_c, kh, kw,
                      stride, padding, bias)


def random_bn(rng: np.random.Generator, channels: int, dtype=np.float32) -> BNSpec:
    return named_bn(random_params(rng, dtype), "bn", channels)


def random_acb(rng: np.random.Generator, in_c: int, out_c: int,
               stride=(1, 1), dtype=np.float32) -> Branches:
    return named_acb(random_params(rng, dtype), "acb", in_c, out_c, stride)


def build_backbone(config: BackboneConfig, param: Param,
                   fused: bool = False) -> BackboneSpec:
    c0, c1, c2 = config.stem_channels
    stem = [named_conv_bn(param, f"backbone.stem{i}", out_c, in_c, 3, stride, (1, 1), fused)
            for i, (in_c, out_c, stride) in enumerate(
                ((3, c0, (2, 2)), (c0, c1, (1, 1)), (c1, c2, (2, 2))))]
    stages: list[list[AosaSpec]] = []
    in_c = c2
    for s, cfg in enumerate(config.stages, start=1):
        blocks = []
        for b in range(cfg.repeats):
            base = f"backbone.stage{s}.block{b}"
            acbs = [named_acb(param, f"{base}.acb{a}", cfg.layer_channels if a else in_c,
                              cfg.layer_channels, fused=fused)
                    for a in range(cfg.layer_count)]
            c = cfg.out_channels
            concat_c = in_c + cfg.layer_count * cfg.layer_channels
            projection = named_conv_bn(param, f"{base}.proj", c, concat_c, 1, fused=fused)
            ese = EseSpec(weight=param(f"{base}.ese.weight", (c, c), kaiming_draw),
                          bias=param(f"{base}.ese.bias", (c,), _zeros_draw))
            blocks.append(AosaSpec(acbs=acbs, projection=projection, ese=ese,
                                   residual=in_c == c))
            in_c = c
        stages.append(blocks)
    return BackboneSpec(stem=stem, stages=stages)
