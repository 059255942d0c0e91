"""VoVNetV3-51 backbone: stem, six one-shot-aggregation stages, eSE gating.

Each stage chains asymmetric convolution blocks, concatenates the running
feature maps once, projects with a 1x1 convolution, applies channel attention,
and adds a residual where input and output widths agree. The stem, and each
block up to its projection, run as one chain over row bands, so no map inside
them is ever whole. Downsampling between stages is a 3x3/stride-2/pad-1 max
pool so 640 input halves exactly through 320/160/80/40/20/10/5.
"""
from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .fusion import Block, Branches, ConvBn, acb_forward, block_conv
from .tensor_ops import (BNSpec, ConvSpec, ShapeError, check_tensor4,
                         concat_channels, conv2d, conv_output_shape, global_avg_pool,
                         linear, max_pool2d, relu, resident, sigmoid)

POOL_KERNEL = (3, 3)
POOL_STRIDE = (2, 2)
POOL_PAD = (1, 1)
# the network runs on grids whose sides are multiples of the coarsest stride
GRID_MULTIPLE = 128
# Bytes of one band's panel: each banded chain runs over bands of output rows
# whose rows of the maps inside the chain take at most this much, or one row
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


def _band_chain(x: np.ndarray, blocks: list[Block], concat: bool = False) -> np.ndarray:
    """relu(block) along the chain, the last block reading the concatenation
    of x and every map when ``concat`` is set, depth-first over even bands of
    the last block's output rows: as few as let the panel take at most
    BAND_PANEL_BYTES per band, with its halo rows on top.

    The panel holds each map between x and the output, and x too under
    ``concat``, from the first row a block still reads or writes, rounded
    down to every reader's stride, to the last row the band needs. For each
    band, every block computes the rows it newly can straight into its
    channels of the panel, or into the output, and before the next band the
    rows still to be read move up to the panel's top. No row is computed
    twice, and every output element is the same dot product as over whole maps.
    """
    blocks = resident(blocks)  # once for every band
    convs = [block_conv(block) for block in blocks]
    last = len(blocks)
    n, c, h, w = x.shape
    heights, widths, chans = [h], [w], [c]  # map j is the input of block j, the output of j - 1
    for conv in convs:
        heights.append(conv_output_shape(heights[-1], conv.kh, conv.stride[0], conv.padding[0]))
        widths.append(conv_output_shape(widths[-1], conv.kw, conv.stride[1], conv.padding[1]))
        chans.append(conv.out_c)
    strides = [conv.stride[0] for conv in convs]
    first = 0 if concat else 1  # maps, and readers of them, first to last - 1 are in the panel
    edges = np.cumsum([0, *chans[first:last]]).tolist()
    def reads(i, r):  # the first row of its input that block i's output row r reads
        return r * strides[i] - convs[i].padding[0]
    # a map holds the product of the later strides of rows per output row
    row_bytes = sum(n * chans[j] * widths[j] * x.itemsize * math.prod(strides[j:])
                    for j in range(first, last))
    band = max(1, BAND_PANEL_BYTES // max(1, row_bytes))
    band = -(-heights[-1] // -(-heights[-1] // band))
    # per band: each map's first new row and end row, and the panel's top. A map
    # ends where the next block reads to, which at stride 1 covers what the
    # concatenation reads; the last band ends every map, unread rows included
    plan, done = [], [0] * (last + 1)
    for r0 in range(0, heights[-1], band):
        end = heights.copy()
        if r0 + band < heights[-1]:
            end[-1] = r0 + band
            for j in range(last - 1, first - 1, -1):
                end[j] = min(heights[j], reads(j, end[j + 1] - 1) + convs[j].kh)
        top = min([*done[first:last], *(max(0, reads(i, done[i + 1]))
                                        for i in range(first, last))], default=0)
        plan.append((done, end, top - top % math.lcm(*strides[first:last])))
        done = end
    rows = max((e - top for _, end, top in plan for e in end[first:last]), default=0)
    # panel before out: in the other order glibc keeps 60 MB more heap on a full-model detect
    panel = (concat_channels(x[:, :, :rows], edges[-1] - c) if concat
             else np.empty((n, edges[-1], rows, widths[first]), dtype=x.dtype))
    out = np.empty((n, chans[-1], heights[-1], widths[-1]), dtype=x.dtype)
    maps = [x][:first] + [panel[:, a:b] for a, b in zip(edges, edges[1:])] + [out]
    moved = 0  # the row at the panel's top
    for done, end, top in plan:
        if top > moved:  # the rows still to be read move up to the panel's top
            # by one flat copy per image: numpy copies a 1-d overlap in place, where
            # the interleaved channels need a temporary. Below them in a channel
            # come the next channel's rows, which the band writes over
            shift, keep = top - moved, max(done[first:last]) - top
            span = ((edges[-1] - 1) * rows + keep) * widths[first]
            for flat in panel.reshape(n, -1):
                flat[:span] = flat[shift * widths[first]:][:span]
        moved = top
        at = [top if first <= j < last else 0 for j in range(last + 1)]
        for j in range(first, last + 1):
            lo, hi = done[j], end[j]
            if not j and lo:  # x's rows; the first band's came with the panel
                panel[:, :c, lo - top:hi - top] = x[:, :, lo:hi]
            elif j and lo < hi:
                src = panel if concat and j == last else maps[j - 1]
                relu(block_forward(src[:, :, :end[j - 1] - at[j - 1]], blocks[j - 1],
                                   maps[j][:, :, lo - at[j]:hi - at[j]],
                                   lo - at[j - 1] // strides[j - 1]))
    return out


def aosa_forward(x: np.ndarray, spec: AosaSpec) -> np.ndarray:
    """The layers and the projection as one banded chain, the projection
    reading the concatenation of x and every layer map; then eSE in place
    and the residual."""
    check_tensor4(x)
    out = _band_chain(x, [*spec.acbs, spec.projection], concat=True)
    ese = resident(spec.ese)
    out = ese_attention(out, ese.weight, ese.bias)
    if spec.residual:
        out += x
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
    held.append(_band_chain(held.pop(), spec.stem))
    levels = []
    for idx, stage in enumerate(spec.stages):
        for block in stage:
            held.append(aosa_forward(held.pop(), block))
        if idx + 1 < len(spec.stages):  # the pool first, so that the output dies in its lateral
            held.insert(0, max_pool2d(held[0], POOL_KERNEL, POOL_STRIDE, POOL_PAD))
        levels.append(block_forward(held.pop(), resident(laterals[idx])))
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
