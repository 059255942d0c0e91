"""Anchor grids, box delta coding, and the shared prediction head.

One anchor per feature cell, ratio 1:1, side = 4 * stride, so the six levels
cover faces of 16 to 512 pixels. Flattened prediction order is a frozen
contract: level-major (stride ascending), then row-major with x fastest; the
head's flattened outputs line up with ``generate_anchors`` row for row.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .backbone import Block, Param, block_forward, check_grid, named_acb, named_conv
from .tensor_ops import ConvSpec, conv2d, relu, resident

STRIDES = (4, 8, 16, 32, 64, 128)
ANCHOR_SCALE = 4
# largest decodable size ratio; keeps exp() finite for wild regression outputs
DELTA_CLAMP = float(np.log(1000.0 / 16.0))


def level_grids(image_hw: tuple[int, int]) -> list[tuple[int, int]]:
    """(rows, cols) of each level's cell grid, in STRIDES order."""
    return [(image_hw[0] // s, image_hw[1] // s) for s in STRIDES]


def generate_anchors(image_hw: tuple[int, int], index: np.ndarray | None = None) -> np.ndarray:
    """(k, 4) float64 corner-form anchors at the flat ``index`` positions, each in
    [0, total), or all of them in flat order when ``index`` is None. Index i of
    level l, whose cells start at start_l, is cell (row, col) = divmod(i - start_l,
    cols_l), centred at ((col + 0.5) s, (row + 0.5) s) with side 4s, s = STRIDES[l]."""
    check_grid(image_hw)
    rows, cols = np.array(level_grids(image_hw)).T
    ends = np.cumsum(rows * cols)
    index = np.arange(ends[-1]) if index is None else np.asarray(index, dtype=np.intp)
    level = np.searchsorted(ends, index, side="right")
    row, col = np.divmod(index - (ends - rows * cols)[level], cols[level])
    s = np.asarray(STRIDES, dtype=np.float64)[level]
    cx, cy, half = (col + 0.5) * s, (row + 0.5) * s, ANCHOR_SCALE * s / 2.0
    return np.stack([cx - half, cy - half, cx + half, cy + half], axis=-1)


def anchor_count(image_hw: tuple[int, int]) -> int:
    return sum(rows * cols for rows, cols in level_grids(image_hw))


def _center_form(boxes: np.ndarray):
    w = boxes[..., 2] - boxes[..., 0]
    h = boxes[..., 3] - boxes[..., 1]
    cx = boxes[..., 0] + 0.5 * w
    cy = boxes[..., 1] + 0.5 * h
    return cx, cy, w, h


def encode(anchors: np.ndarray, gts: np.ndarray) -> np.ndarray:
    """Box -> delta: ((gcx-acx)/aw, (gcy-acy)/ah, ln(gw/aw), ln(gh/ah))."""
    anchors = np.asarray(anchors, dtype=np.float64)
    gts = np.asarray(gts, dtype=np.float64)
    acx, acy, aw, ah = _center_form(anchors)
    gcx, gcy, gw, gh = _center_form(gts)
    if np.any(aw <= 0) or np.any(ah <= 0):
        raise ValueError("anchors must have positive area")
    if np.any(gw <= 0) or np.any(gh <= 0):
        raise ValueError("ground-truth boxes must have positive width/height")
    return np.stack([(gcx - acx) / aw, (gcy - acy) / ah,
                     np.log(gw / aw), np.log(gh / ah)], axis=-1)


def decode(anchors: np.ndarray, deltas: np.ndarray) -> np.ndarray:
    """Inverse of encode; size deltas clamped before exponentiation."""
    anchors = np.asarray(anchors, dtype=np.float64)
    deltas = np.asarray(deltas, dtype=np.float64)
    acx, acy, aw, ah = _center_form(anchors)
    cx = deltas[..., 0] * aw + acx
    cy = deltas[..., 1] * ah + acy
    w = np.exp(np.minimum(deltas[..., 2], DELTA_CLAMP)) * aw
    h = np.exp(np.minimum(deltas[..., 3], DELTA_CLAMP)) * ah
    return np.stack([cx - 0.5 * w, cy - 0.5 * h, cx + 0.5 * w, cy + 0.5 * h], axis=-1)


@dataclass
class HeadSpec:
    """Shared tower applied to every pyramid level, then 1x1 output convs."""

    tower: list[Block]
    cls_out: ConvSpec  # width -> 1 logit
    reg_out: ConvSpec  # width -> 4 deltas


@dataclass
class HeadOutput:
    cls: list[np.ndarray] = field(default_factory=list)  # per level (n,1,h,w)
    reg: list[np.ndarray] = field(default_factory=list)  # per level (n,4,h,w)

    def flat_cls(self) -> np.ndarray:
        """(n, total) logits in anchor order."""
        n = self.cls[0].shape[0]
        return np.concatenate([c.reshape(n, -1) for c in self.cls], axis=1)

    def flat_reg(self) -> np.ndarray:
        """(n, total, 4) deltas in anchor order."""
        n = self.reg[0].shape[0]
        parts = [r.transpose(0, 2, 3, 1).reshape(n, -1, 4) for r in self.reg]
        return np.concatenate(parts, axis=1)


def head_forward(pyramid: list[np.ndarray], head: HeadSpec) -> HeadOutput:
    """The tower and output convs on each level. Levels are popped from a copy
    of the list, so of a pyramid passed as a temporary each level dies once the
    first tower block has read it."""
    out = HeadOutput()
    pyramid = list(pyramid)
    while pyramid:
        t = pyramid.pop(0)
        for block in head.tower:
            t = relu(block_forward(t, resident(block)))
        cls_out, reg_out = resident([head.cls_out, head.reg_out])
        out.cls.append(conv2d(t, cls_out))
        out.reg.append(conv2d(t, reg_out))
    return out


def build_head(width: int, tower_len: int, param: Param, fused: bool = False) -> HeadSpec:
    return HeadSpec(
        tower=[named_acb(param, f"head.tower{i}", width, width, fused=fused)
               for i in range(tower_len)],
        cls_out=named_conv(param, "head.cls", 1, width, 1, 1, bias=True),
        reg_out=named_conv(param, "head.reg", 4, width, 1, 1, bias=True),
    )
