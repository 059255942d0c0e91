"""Full detector assembly: backbone -> neck -> head, plus whole-model fusion.

A DetectorModel bundles the three weight trees with the structural config
that rebuilds them. The section builders name every parameter (e.g.
``backbone.stage1.block0.acb2.square.weight``) in build order, which is the
order ``named_arrays`` lists and the weight container serializes.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .anchors import STRIDES, HeadOutput, HeadSpec, build_head, head_forward, level_grids
from .backbone import (BackboneConfig, BackboneSpec, Param, StageConfig,
                       backbone_forward, build_backbone, check_grid, random_params,
                       tiny_backbone_config)
from .fusion import Branches, block_macs, fuse_block
from .neck import BifpnSpec, abifpn_forward, build_neck
from .tensor_ops import map_tree, tree_arrays


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
        """ValueError unless the six-level detector can run the config."""
        stem, stages = d["stem_channels"], d["stages"]
        counts = [*stem, *(n for row in stages for n in row),
                  d["neck_width"], d["neck_repeats"], d["head_tower"]]
        if not (len(stem) == 3 and len(stages) == len(STRIDES)
                and all(len(row) == 4 for row in stages)
                and all(type(n) is int and n >= 1 for n in counts)):
            raise ValueError(f"config is not 3 stem widths, {len(STRIDES)} stages "
                             "of 4 and counts of at least 1")
        backbone = BackboneConfig(stem_channels=tuple(stem),
                                  stages=tuple(StageConfig(*row) for row in stages))
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


def _build(config: ModelConfig, param: Param, fused: bool = False) -> DetectorModel:
    """The one description of the parameter layout: names, shapes and order."""
    return DetectorModel(
        config=config,
        backbone=build_backbone(config.backbone, param, fused),
        neck=build_neck(config.backbone.out_channels, config.neck_width,
                        config.neck_repeats, param, fused),
        head=build_head(config.neck_width, config.head_tower, param, fused),
        fused=fused)


def build_model(config: ModelConfig, seed: int = 0) -> DetectorModel:
    return _build(config, random_params(np.random.default_rng(seed)))


def forward(model: DetectorModel, image: np.ndarray) -> HeadOutput:
    """Head output of one padded grid. Each map goes to the call that reads it
    last as a temporary: an input passed as one dies once the stem has read
    it, each stage output once the next stage's pool and its lateral have,
    and the neck's and head's inputs once their first reader has run."""
    held = [image]
    del image  # so that the backbone, given held.pop(), holds the only reference
    return head_forward(abifpn_forward(backbone_forward(held.pop(), model.backbone,
                                                        model.neck.laterals), model.neck),
                        model.head)


# ---------------------------------------------------------------------------
# whole-model fusion

def fuse_model(model: DetectorModel) -> DetectorModel:
    """Fold every block of conv+BN branches into its one plain conv."""
    if model.fused:
        raise ValueError("model is already fused")
    return replace(map_tree(model, Branches, fuse_block), fused=True)


# ---------------------------------------------------------------------------
# named parameters (container order is the build order)

def named_arrays(model: DetectorModel) -> dict[str, np.ndarray]:
    """Flat name -> array view of every parameter, in container order (the
    builders ask for arrays in the order the model's fields hold them)."""
    leaves = iter(tree_arrays(model))
    out: dict[str, np.ndarray] = {}

    def own(name, shape, draw):
        value = next(leaves, None)
        if value is None or value.shape != shape or name in out:
            raise ValueError(f"model does not match its config at parameter {name}")
        out[name] = value
        return value
    _build(model.config, own, model.fused)
    if next(leaves, None) is not None:
        raise ValueError("model holds more arrays than its config names")
    return out


# ---------------------------------------------------------------------------
# analytic multiply-accumulate counting

def count_model_macs(model: DetectorModel, image_hw: tuple[int, int]) -> int:
    """Per-image MAC count of every conv/linear in the forward path."""
    check_grid(image_hw)
    half = (image_hw[0] // 2, image_hw[1] // 2)  # the input of stem1 and stem2
    levels = level_grids(image_hw)  # the input of each stage, lateral and head level
    total = sum(block_macs(b, hw) for b, hw in zip(model.backbone.stem, (image_hw, half, half)))
    for stage, hw in zip(model.backbone.stages, levels):
        for blk in stage:
            total += sum(block_macs(acb, hw) for acb in blk.acbs)
            total += block_macs(blk.projection, hw) + blk.ese.weight.size
    total += sum(block_macs(lat, hw) for lat, hw in zip(model.neck.laterals, levels))
    for layer in model.neck.layers:  # td nodes run levels 4..0, bu nodes 1..5
        nodes = [*zip(layer.td_nodes, levels[-2::-1]), *zip(layer.bu_nodes, levels[1:])]
        total += sum(block_macs(node.acb, hw) for node, hw in nodes)
    head = [*model.head.tower, model.head.cls_out, model.head.reg_out]
    for hw in levels:
        total += sum(block_macs(blk, hw) for blk in head)
    return total
