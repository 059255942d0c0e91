"""VoVNetV3-51 backbone: stem, six one-shot-aggregation stages, eSE gating.

Each stage chains asymmetric convolution blocks, concatenates the running
feature maps once, projects with a 1x1 convolution, applies channel
attention, and adds a residual where input and output widths agree.
Downsampling between stages is a 3x3/stride-2/pad-1 max pool so 640 input
halves exactly through 320/160/80/40/20/10/5.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fusion import AcbSpec, ConvBn, acb_forward
from .tensor_ops import (BNSpec, ConvSpec, ShapeError, check_tensor4,
                         concat_channels, conv2d, global_avg_pool, linear,
                         max_pool2d, relu, sigmoid)

POOL_KERNEL = (3, 3)
POOL_STRIDE = (2, 2)
POOL_PAD = (1, 1)

Block = AcbSpec | ConvSpec  # ConvSpec once an ACB has been fused


def block_forward(x: np.ndarray, block: Block) -> np.ndarray:
    if isinstance(block, AcbSpec):
        return acb_forward(x, block)
    return conv2d(x, block)


@dataclass
class EseSpec:
    """Channel-attention weights: one fully-connected c->c layer."""

    weight: np.ndarray
    bias: np.ndarray


def ese_attention(x: np.ndarray, weight: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Gate channels by sigmoid(FC(global average pool)), broadcast multiply."""
    check_tensor4(x)
    c = x.shape[1]
    if weight.shape != (c, c):
        raise ShapeError(f"ese weight {weight.shape} != ({c},{c})")
    pooled = global_avg_pool(x)[:, :, 0, 0]
    gate = sigmoid(linear(pooled, weight, bias))
    return x * gate[:, :, None, None]


@dataclass
class AosaSpec:
    """One aggregation block: ACB chain, concat, 1x1 projection, eSE, residual."""

    acbs: list[Block]
    projection: ConvBn
    ese: EseSpec
    residual: bool


def aosa_forward(x: np.ndarray, spec: AosaSpec) -> np.ndarray:
    feats = [x]
    cur = x
    for block in spec.acbs:
        cur = relu(block_forward(cur, block))
        feats.append(cur)
    out = relu(spec.projection.forward(concat_channels(feats)))
    out = ese_attention(out, spec.ese.weight, spec.ese.bias)
    if spec.residual:
        out = out + x
    return out


@dataclass
class BackboneSpec:
    stem: list[ConvBn]            # strides 2, 1, 2
    stages: list[list[AosaSpec]]  # six stages, one entry per repeat


def backbone_forward(image: np.ndarray, spec: BackboneSpec) -> list[np.ndarray]:
    """Run stem and stages; returns the six stage outputs, stride 4 to 128."""
    check_tensor4(image, "image")
    h, w = image.shape[2], image.shape[3]
    if h % 128 or w % 128:
        raise ShapeError(f"image dims must be divisible by 128, got {h}x{w}")
    x = image
    for block in spec.stem:
        x = relu(block.forward(x))
    pyramid = []
    for idx, stage in enumerate(spec.stages):
        if idx > 0:
            x = max_pool2d(x, POOL_KERNEL, POOL_STRIDE, POOL_PAD)
        for block in stage:
            x = aosa_forward(x, block)
        pyramid.append(x)
    return pyramid


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


def kaiming_conv(rng: np.random.Generator, out_c: int, in_c: int, kh: int, kw: int,
                 stride=(1, 1), padding=(0, 0), bias: bool = False,
                 dtype=np.float32) -> ConvSpec:
    fan_in = in_c * kh * kw
    weight = rng.normal(0.0, np.sqrt(2.0 / fan_in),
                        size=(out_c, in_c, kh, kw)).astype(dtype, copy=False)
    b = np.zeros(out_c, dtype=dtype) if bias else None
    return ConvSpec(weight=weight, bias=b, stride=stride, padding=padding)


def random_bn(rng: np.random.Generator, channels: int, dtype=np.float32) -> BNSpec:
    """Near-identity but non-trivial stats so folding is exercised end to end.

    Kept close to identity scale so float32 fusion drift stays well inside
    the per-block budget even through deep compositions.
    """
    return BNSpec(
        mean=rng.normal(0.0, 0.05, channels).astype(dtype),
        var=rng.uniform(0.8, 1.25, channels).astype(dtype),
        gamma=rng.uniform(0.9, 1.1, channels).astype(dtype),
        beta=rng.normal(0.0, 0.05, channels).astype(dtype),
    )


def random_acb(rng: np.random.Generator, in_c: int, out_c: int,
               stride=(1, 1), dtype=np.float32) -> AcbSpec:
    def branch(kh, kw, padding):
        conv = kaiming_conv(rng, out_c, in_c, kh, kw, stride, padding, dtype=dtype)
        # the three branches sum, so damp each to keep unit output variance
        conv.weight = conv.weight / np.sqrt(3.0, dtype=dtype)
        return ConvBn(conv=conv, bn=random_bn(rng, out_c, dtype))
    return AcbSpec(square=branch(3, 3, (1, 1)),
                   horizontal=branch(1, 3, (0, 1)),
                   vertical=branch(3, 1, (1, 0)))


def build_backbone(config: BackboneConfig, rng: np.random.Generator,
                   dtype=np.float32) -> BackboneSpec:
    c0, c1, c2 = config.stem_channels
    stem = [
        ConvBn(kaiming_conv(rng, c0, 3, 3, 3, (2, 2), (1, 1), dtype=dtype),
               random_bn(rng, c0, dtype)),
        ConvBn(kaiming_conv(rng, c1, c0, 3, 3, (1, 1), (1, 1), dtype=dtype),
               random_bn(rng, c1, dtype)),
        ConvBn(kaiming_conv(rng, c2, c1, 3, 3, (2, 2), (1, 1), dtype=dtype),
               random_bn(rng, c2, dtype)),
    ]
    stages: list[list[AosaSpec]] = []
    in_c = c2
    for cfg in config.stages:
        blocks = []
        for _ in range(cfg.repeats):
            acbs: list[Block] = []
            c = in_c
            for _ in range(cfg.layer_count):
                acbs.append(random_acb(rng, c, cfg.layer_channels, dtype=dtype))
                c = cfg.layer_channels
            concat_c = in_c + cfg.layer_count * cfg.layer_channels
            projection = ConvBn(
                kaiming_conv(rng, cfg.out_channels, concat_c, 1, 1, dtype=dtype),
                random_bn(rng, cfg.out_channels, dtype))
            ese = EseSpec(
                weight=rng.normal(0.0, np.sqrt(2.0 / cfg.out_channels),
                                  (cfg.out_channels, cfg.out_channels)).astype(dtype),
                bias=np.zeros(cfg.out_channels, dtype=dtype))
            blocks.append(AosaSpec(acbs=acbs, projection=projection, ese=ese,
                                   residual=in_c == cfg.out_channels))
            in_c = cfg.out_channels
        stages.append(blocks)
    return BackboneSpec(stem=stem, stages=stages)
