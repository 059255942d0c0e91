"""Full detector assembly: backbone -> neck -> head, plus whole-model fusion.

A DetectorModel bundles the three weight trees with the structural config
that rebuilds them. ``named_arrays`` flattens every parameter under a frozen
dotted naming scheme (e.g. ``backbone.stage1.block0.acb2.square.weight``),
which is what the weight container serializes.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .anchors import HeadOutput, HeadSpec, build_head, head_forward
from .backbone import (BackboneConfig, BackboneSpec, Block, StageConfig,
                       backbone_forward, build_backbone, tiny_backbone_config)
from .fusion import (AcbSpec, ConvBn, acb_macs, conv_macs, fuse_block,
                     fused_shapes, map_blocks)
from .neck import BifpnSpec, abifpn_forward, build_neck
from .tensor_ops import ConvSpec


@dataclass(frozen=True)
class ModelConfig:
    backbone: BackboneConfig = BackboneConfig()
    neck_width: int = 128
    neck_repeats: int = 1
    head_tower: int = 2

    def to_dict(self) -> dict:
        return {
            "stem_channels": list(self.backbone.stem_channels),
            "stages": [[s.repeats, s.layer_channels, s.out_channels, s.layer_count]
                       for s in self.backbone.stages],
            "neck_width": self.neck_width,
            "neck_repeats": self.neck_repeats,
            "head_tower": self.head_tower,
        }

    @staticmethod
    def from_dict(d: dict) -> "ModelConfig":
        backbone = BackboneConfig(
            stem_channels=tuple(d["stem_channels"]),
            stages=tuple(StageConfig(*row) for row in d["stages"]),
        )
        return ModelConfig(backbone=backbone, neck_width=d["neck_width"],
                           neck_repeats=d["neck_repeats"], head_tower=d["head_tower"])


def full_config() -> ModelConfig:
    """The production-width architecture table."""
    return ModelConfig()


def tiny_config(width: int = 8, layer_count: int = 1) -> ModelConfig:
    """Desk-scale config with the same topology."""
    return ModelConfig(backbone=tiny_backbone_config(width, layer_count),
                       neck_width=width, neck_repeats=1, head_tower=2)


@dataclass
class DetectorModel:
    config: ModelConfig
    backbone: BackboneSpec
    neck: BifpnSpec
    head: HeadSpec
    fused: bool = False


def _build(config: ModelConfig, rng, dtype=np.float32) -> DetectorModel:
    backbone = build_backbone(config.backbone, rng, dtype)
    neck = build_neck(config.backbone.out_channels, config.neck_width,
                      config.neck_repeats, rng, dtype)
    head = build_head(config.neck_width, config.head_tower, rng, dtype)
    return DetectorModel(config=config, backbone=backbone, neck=neck, head=head)


def build_model(config: ModelConfig, seed: int = 0, dtype=np.float32) -> DetectorModel:
    return _build(config, np.random.default_rng(seed), dtype)


def forward(model: DetectorModel, image: np.ndarray) -> HeadOutput:
    pyramid = backbone_forward(image, model.backbone)
    features = abifpn_forward(pyramid, model.neck)
    return head_forward(features, model.head)


# ---------------------------------------------------------------------------
# whole-model fusion

def fuse_model(model: DetectorModel) -> DetectorModel:
    """Collapse every ACB into a single conv and fold every conv+BN pair."""
    if model.fused:
        raise ValueError("model is already fused")
    return replace(map_blocks(model, fuse_block), fused=True)


# ---------------------------------------------------------------------------
# parameter walk (serialization order is this exact traversal)

def _walk_conv(prefix: str, conv: ConvSpec):
    yield f"{prefix}.weight", conv, "weight"
    if conv.bias is not None:
        yield f"{prefix}.bias", conv, "bias"


def _walk_convbn(prefix: str, block: ConvBn):
    yield from _walk_conv(f"{prefix}.conv", block.conv)
    if block.bn is not None:
        for stat in ("mean", "var", "gamma", "beta"):
            yield f"{prefix}.bn.{stat}", block.bn, stat


def _walk_block(prefix: str, block: Block):
    if isinstance(block, AcbSpec):
        for branch in ("square", "horizontal", "vertical"):
            cb: ConvBn = getattr(block, branch)
            yield from _walk_conv(f"{prefix}.{branch}", cb.conv)
            for stat in ("mean", "var", "gamma", "beta"):
                yield f"{prefix}.{branch}.bn.{stat}", cb.bn, stat
    else:
        yield from _walk_conv(prefix, block)


def _walk_model(model: DetectorModel):
    for i, blk in enumerate(model.backbone.stem):
        yield from _walk_convbn(f"backbone.stem{i}", blk)
    for s, stage in enumerate(model.backbone.stages, start=1):
        for b, blk in enumerate(stage):
            base = f"backbone.stage{s}.block{b}"
            for a, acb in enumerate(blk.acbs):
                yield from _walk_block(f"{base}.acb{a}", acb)
            yield from _walk_convbn(f"{base}.proj", blk.projection)
            yield f"{base}.ese.weight", blk.ese, "weight"
            yield f"{base}.ese.bias", blk.ese, "bias"
    for i, lat in enumerate(model.neck.laterals):
        yield from _walk_convbn(f"neck.lateral{i}", lat)
    for li, layer in enumerate(model.neck.layers):
        for kind, nodes in (("td", layer.td_nodes), ("bu", layer.bu_nodes)):
            for ni, node in enumerate(nodes):
                base = f"neck.layer{li}.{kind}{ni}"
                yield f"{base}.fuse_weights", node, "weights"
                yield from _walk_block(f"{base}.acb", node.acb)
    for i, blk in enumerate(model.head.tower):
        yield from _walk_block(f"head.tower{i}", blk)
    yield from _walk_conv("head.cls", model.head.cls_out)
    yield from _walk_conv("head.reg", model.head.reg_out)


def named_arrays(model: DetectorModel) -> dict[str, np.ndarray]:
    """Flat name -> array view of every parameter, in traversal order."""
    out: dict[str, np.ndarray] = {}
    for name, obj, attr in _walk_model(model):
        if name in out:
            raise ValueError(f"duplicate parameter name {name}")
        out[name] = getattr(obj, attr)
    return out


class _ShapeOnlyDraws:
    """Generator stand-in for the builders: every draw is zeros, which stay
    untouched pages and keep the builders' arithmetic finite."""

    def normal(self, loc, scale, size):
        return np.zeros(size, dtype=np.float32)

    uniform = normal


def model_from_arrays(config: ModelConfig, fused: bool,
                      arrays: dict[str, np.ndarray]) -> DetectorModel:
    """Rebuild a model from its flat parameter dict, drawing no random numbers."""
    model = _build(config, _ShapeOnlyDraws())
    if fused:
        model = replace(map_blocks(model, fused_shapes), fused=True)
    expected = []
    for name, obj, attr in _walk_model(model):
        if name not in arrays:
            raise ValueError(f"missing parameter {name}")
        current = getattr(obj, attr)
        value = arrays[name]
        if current.shape != value.shape:
            raise ValueError(
                f"parameter {name}: shape {value.shape} != expected {current.shape}")
        setattr(obj, attr, value.astype(current.dtype, copy=False))
        expected.append(name)
    extra = set(arrays) - set(expected)
    if extra:
        raise ValueError(f"unknown parameters in container: {sorted(extra)[:3]}")
    return model


# ---------------------------------------------------------------------------
# analytic multiply-accumulate counting

def _block_macs(block: Block, hw: tuple[int, int]) -> int:
    return acb_macs(block, hw) if isinstance(block, AcbSpec) else conv_macs(block, hw)


def count_model_macs(model: DetectorModel, image_hw: tuple[int, int]) -> int:
    """Per-image MAC count of every conv/linear in the forward path."""
    h, w = image_hw
    total = 0
    for blk in model.backbone.stem:
        total += conv_macs(blk.conv, (h, w))
        sh, sw = blk.conv.stride
        h, w = (h + 2 * blk.conv.padding[0] - blk.conv.kh) // sh + 1, \
               (w + 2 * blk.conv.padding[1] - blk.conv.kw) // sw + 1
    level_hw = []
    for idx, stage in enumerate(model.backbone.stages):
        if idx > 0:
            h, w = (h + 1) // 2, (w + 1) // 2  # 3x3/s2/p1 pool
        for blk in stage:
            for acb in blk.acbs:
                total += _block_macs(acb, (h, w))
            total += conv_macs(blk.projection.conv, (h, w))
            total += blk.ese.weight.shape[0] * blk.ese.weight.shape[1]
        level_hw.append((h, w))
    for lat, hw in zip(model.neck.laterals, level_hw):
        total += conv_macs(lat.conv, hw)
    for layer in model.neck.layers:
        td_levels = list(range(len(level_hw) - 2, -1, -1))
        for lvl, node in zip(td_levels, layer.td_nodes):
            total += _block_macs(node.acb, level_hw[lvl])
        for lvl, node in zip(range(1, len(level_hw)), layer.bu_nodes):
            total += _block_macs(node.acb, level_hw[lvl])
    for hw in level_hw:
        for blk in model.head.tower:
            total += _block_macs(blk, hw)
        total += conv_macs(model.head.cls_out, hw)
        total += conv_macs(model.head.reg_out, hw)
    return total
