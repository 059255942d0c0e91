"""Bidirectional six-level feature pyramid with asymmetric-conv fusion nodes.

Levels are ordered finest (stride 4) to coarsest (stride 128). A top-down
pass upsamples coarse maps with nearest-neighbor resize, a bottom-up pass
downsamples with the same 3x3/s2/p1 max pool the backbone uses, and every
node combines its incoming maps with fast-normalized non-negative weights
before an asymmetric convolution block and ReLU.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .backbone import (POOL_KERNEL, POOL_PAD, POOL_STRIDE, Block, Param,
                       block_forward, named_acb, named_conv_bn, sampled)
from .tensor_ops import (COLS_BLOCK_BYTES, ShapeError, max_pool2d, relu, resident,
                         resize_nearest)

FUSION_STABILIZER = 1e-4


def normalized_fusion_weights(weights: np.ndarray) -> np.ndarray:
    """Rectify then normalize: w~ = max(w,0) / (sum max(w,0) + 1e-4)."""
    w = np.maximum(np.asarray(weights, dtype=np.float64), 0.0)
    return w / (w.sum() + FUSION_STABILIZER)


def fuse_node(inputs: list[np.ndarray], weights, acb: Block) -> np.ndarray:
    """Weighted fusion of same-shape maps, then ACB and ReLU.

    The fusion is made in place in the last input, which every caller makes
    for the node (an upsampled or pooled map): it is scaled by its weight, and
    the others' weighted sum is added one chunk of channels at a time, of at
    most COLS_BLOCK_BYTES (4 MiB chunks raised a full-model 512x512 detect's
    peak by 5 MB). That last add is a single IEEE add, which is commutative,
    so each element is the same float as the sum in input order.
    """
    if len(inputs) != len(np.atleast_1d(weights)):
        raise ShapeError(f"{len(inputs)} inputs but {len(weights)} fusion weights")
    shape = inputs[0].shape
    for t in inputs[1:]:
        if t.shape != shape:
            raise ShapeError(f"fuse_node input shapes differ: {t.shape} vs {shape}")
    w = normalized_fusion_weights(weights).astype(inputs[0].dtype)
    (first, *others), mixed = inputs[:-1], inputs[-1]
    mixed *= w[-1]
    step = max(1, COLS_BLOCK_BYTES // mixed[:, :1].nbytes)
    for c0 in range(0, shape[1], step):
        part = w[0] * first[:, c0:c0 + step]
        for wi, t in zip(w[1:-1], others):
            part += wi * t[:, c0:c0 + step]
        mixed[:, c0:c0 + step] += part
    # a map held only by a list passed as a temporary, such as level 0's
    # lateral, dies here, before the ACB makes the node's output
    inputs = first = others = t = part = None
    return relu(block_forward(mixed, acb))


@dataclass
class FuseNodeSpec:
    weights: np.ndarray  # one non-negative scalar per incoming edge
    acb: Block


@dataclass
class BifpnLayerSpec:
    """One bidirectional sweep.

    td_nodes: levels 4..0 (each fuses [own input, upsampled coarser]).
    bu_nodes: levels 1..5 (levels 1..4 fuse [input, td intermediate,
    downsampled finer]; level 5 fuses [input, downsampled finer]).
    """

    td_nodes: list[FuseNodeSpec]
    bu_nodes: list[FuseNodeSpec]


@dataclass
class BifpnSpec:
    laterals: list[Block]  # six 1x1 projections onto the common width
    layers: list[BifpnLayerSpec]


def bifpn_layer_forward(levels: list[np.ndarray], layer: BifpnLayerSpec) -> list[np.ndarray]:
    """One sweep. Each upsampled or pooled map is passed to its node as a
    temporary, into which the node mixes. Level 0 is read by td node 0 alone,
    so of levels passed as a temporary it dies once that node has mixed it."""
    n = len(levels)
    hw = [level.shape[2:] for level in levels]
    finest, levels = [levels[0]], [None, *levels[1:]]
    td = [None] * n
    td[n - 1] = levels[n - 1]
    for i, node in zip(range(n - 2, -1, -1), map(resident, layer.td_nodes)):
        td[i] = fuse_node([levels[i] if i else finest.pop(), resize_nearest(td[i + 1], hw[i])],
                          node.weights, node.acb)
    out = [None] * n
    out[0] = td[0]
    for i, node in zip(range(1, n), map(resident, layer.bu_nodes)):
        # grid sides are multiples of 128, so the pool halves each level exactly
        own = [levels[i], td[i]] if i < n - 1 else [levels[i]]
        out[i] = fuse_node([*own, max_pool2d(out[i - 1], POOL_KERNEL, POOL_STRIDE, POOL_PAD)],
                           node.weights, node.acb)
    return out


def abifpn_forward(levels: list[np.ndarray], spec: BifpnSpec) -> list[np.ndarray]:
    """Run the stacked sweeps on the six levels that ``backbone_forward``
    projects with ``spec.laterals``; each sweep is handed its input list as a
    temporary."""
    if len(levels) != len(spec.laterals):
        raise ShapeError(f"expected {len(spec.laterals)} levels, got {len(levels)}")
    held = [levels]
    del levels
    for layer in spec.layers:
        held.append(bifpn_layer_forward(held.pop(), layer))
    return held.pop()


def build_neck(in_channels: tuple[int, ...], width: int, repeats: int,
               param: Param, fused: bool = False) -> BifpnSpec:
    laterals = [named_conv_bn(param, f"neck.lateral{i}", width, c, 1, fused=fused)
                for i, c in enumerate(in_channels)]

    def node(name: str, fan_in: int) -> FuseNodeSpec:
        return FuseNodeSpec(
            weights=param(f"{name}.fuse_weights", (fan_in,), sampled("uniform", 0.5, 1.5)),
            acb=named_acb(param, f"{name}.acb", width, width, fused=fused))

    n = len(in_channels)
    layers = [BifpnLayerSpec(
        td_nodes=[node(f"neck.layer{li}.td{i}", 2) for i in range(n - 1)],
        bu_nodes=[node(f"neck.layer{li}.bu{i}", 3 if i < n - 2 else 2) for i in range(n - 1)],
    ) for li in range(repeats)]
    return BifpnSpec(laterals=laterals, layers=layers)
