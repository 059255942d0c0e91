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
from .tensor_ops import ConvSpec, conv2d, relu

STRIDES = (4, 8, 16, 32, 64, 128)
ANCHOR_SCALE = 4
# largest decodable size ratio; keeps exp() finite for wild regression outputs
DELTA_CLAMP = float(np.log(1000.0 / 16.0))


def generate_anchors(image_hw: tuple[int, int]) -> np.ndarray:
    """(total, 4) float64 corner-form boxes from per-level center grids; the
    anchor at cell (i,j) of stride s is centered at ((j+0.5)s, (i+0.5)s) with
    side 4s."""
    check_grid(image_hw)
    h, w = image_hw
    per_level = []
    for s in STRIDES:
        gh, gw = h // s, w // s
        cy = (np.arange(gh, dtype=np.float64) + 0.5) * s
        cx = (np.arange(gw, dtype=np.float64) + 0.5) * s
        cxg, cyg = np.meshgrid(cx, cy)  # row-major, x fastest
        half = ANCHOR_SCALE * s / 2.0
        boxes = np.stack([cxg - half, cyg - half, cxg + half, cyg + half],
                         axis=-1).reshape(-1, 4)
        per_level.append(boxes)
    return np.concatenate(per_level, axis=0)


def anchor_count(image_hw: tuple[int, int]) -> int:
    h, w = image_hw
    return sum((h // s) * (w // s) for s in STRIDES)


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
    out = HeadOutput()
    for level in pyramid:
        t = level
        for block in head.tower:
            t = relu(block_forward(t, block))
        out.cls.append(conv2d(t, head.cls_out))
        out.reg.append(conv2d(t, head.reg_out))
    return out


def build_head(width: int, tower_len: int, param: Param, fused: bool = False) -> HeadSpec:
    return HeadSpec(
        tower=[named_acb(param, f"head.tower{i}", width, width, fused=fused)
               for i in range(tower_len)],
        cls_out=named_conv(param, "head.cls", 1, width, 1, 1, bias=True),
        reg_out=named_conv(param, "head.reg", 4, width, 1, 1, bias=True),
    )
