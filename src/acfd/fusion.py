"""Asymmetric convolution blocks and their inference-time collapse.

An ACB runs a 3x3, a 1x3 and a 3x1 convolution in parallel, each followed by
its own batch norm, and sums the three maps. Because convolution and
inference-form batch norm are both linear, each branch folds into a plain
biased convolution (W' = W*a, B' = (B - mu)*a + beta with a = gamma/sqrt(var
+ eps)), the rectangular kernels zero-embed into the middle row/column of a
3x3 kernel, and the three branches add into one convolution.
"""
from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass, replace

import numpy as np

from .tensor_ops import (BNSpec, ConvSpec, ShapeError, batch_norm_infer, conv2d,
                         conv_output_shape)


@dataclass
class ConvBn:
    """A convolution followed by its batch norm; folds into one biased conv."""

    conv: ConvSpec
    bn: BNSpec

    def forward(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        return batch_norm_infer(conv2d(x, self.conv, out=out), self.bn)


@dataclass
class AcbSpec:
    """Train-time three-branch block; branches share in/out channels and stride.

    Paddings are fixed at (1,1) / (0,1) / (1,0) so all branch outputs have
    identical spatial dims for the elementwise sum.
    """

    square: ConvBn
    horizontal: ConvBn
    vertical: ConvBn

    def __post_init__(self):
        sq, hz, vt = self.square.conv, self.horizontal.conv, self.vertical.conv
        if (sq.kh, sq.kw) != (3, 3) or (hz.kh, hz.kw) != (1, 3) or (vt.kh, vt.kw) != (3, 1):
            raise ShapeError(
                f"branch kernels must be 3x3/1x3/3x1, got "
                f"{(sq.kh, sq.kw)}/{(hz.kh, hz.kw)}/{(vt.kh, vt.kw)}")
        if sq.padding != (1, 1) or hz.padding != (0, 1) or vt.padding != (1, 0):
            raise ShapeError("branch paddings must be (1,1)/(0,1)/(1,0)")
        for b in (hz, vt):
            if (b.in_c, b.out_c) != (sq.in_c, sq.out_c) or b.stride != sq.stride:
                raise ShapeError("branches must share in/out channels and stride")

    @property
    def stride(self) -> tuple[int, int]:
        return self.square.conv.stride


def acb_forward(x: np.ndarray, spec: AcbSpec, out: np.ndarray | None = None) -> np.ndarray:
    """Sum of the three normalized branch outputs (the fusion oracle), into out."""
    out = spec.square.forward(x, out)
    out += spec.horizontal.forward(x)
    out += spec.vertical.forward(x)
    return out


def fuse_conv_bn(conv: ConvSpec, bn: BNSpec) -> ConvSpec:
    """Fold batch norm into the preceding convolution.

    Per output channel: W' = W * a and B' = (B - mu) * a + beta with
    a = gamma / sqrt(var + eps), so conv'(x) == bn(conv(x)).
    """
    if bn.channels != conv.out_c:
        raise ShapeError(f"bn channels {bn.channels} != conv out_c {conv.out_c}")
    a, b = bn.scale_shift()  # b = beta - mu*a; raises on non-positive var+eps
    dtype = conv.weight.dtype
    weight = (conv.weight.astype(np.float64) * a.reshape(-1, 1, 1, 1)).astype(dtype)
    bias = np.zeros(conv.out_c, dtype=np.float64) if conv.bias is None \
        else conv.bias.astype(np.float64)
    bias = (bias * a + b).astype(dtype)
    return ConvSpec(weight=weight, bias=bias, stride=conv.stride, padding=conv.padding)


def fuse_acb(spec: AcbSpec) -> ConvSpec:
    """Merge the three branches into one plain 3x3 convolution.

    Each branch is first folded with its batch norm; the 1x3 kernel is
    zero-embedded into the middle row of a 3x3 kernel and the 3x1 into the
    middle column; kernels and biases then sum.
    """
    sq, hz, vt = (fuse_conv_bn(b.conv, b.bn)
                  for b in (spec.square, spec.horizontal, spec.vertical))
    weight = sq.weight
    weight[:, :, 1:2, :] += hz.weight
    weight[:, :, :, 1:2] += vt.weight
    bias = sq.bias + hz.bias + vt.bias
    return ConvSpec(weight=weight, bias=bias, stride=spec.stride, padding=(1, 1))


# A network block: a train-time ACB or conv+BN pair, or the plain conv either
# folds into
Block = AcbSpec | ConvBn | ConvSpec


def fuse_block(block: AcbSpec | ConvBn) -> ConvSpec:
    """The inference form of one foldable block: one biased convolution."""
    if isinstance(block, AcbSpec):
        return fuse_acb(block)
    return fuse_conv_bn(block.conv, block.bn)


def map_blocks(tree, leaf):
    """Rebuild a model or any sub-tree of one with every ``AcbSpec`` and
    ``ConvBn`` replaced by ``leaf(block)``; arrays and numbers carry over."""
    if isinstance(tree, (AcbSpec, ConvBn)):
        return leaf(tree)
    if isinstance(tree, list):
        return [map_blocks(node, leaf) for node in tree]
    if is_dataclass(tree):
        return replace(tree, **{f.name: map_blocks(getattr(tree, f.name), leaf)
                                for f in fields(tree)})
    return tree


def block_conv(block: Block) -> ConvSpec:
    """The convolution that sets a block's output shape (an ACB's 3x3 branch)."""
    if isinstance(block, AcbSpec):
        return block.square.conv
    return block.conv if isinstance(block, ConvBn) else block


def block_macs(block: Block, in_hw: tuple[int, int]) -> int:
    """Multiply-accumulate count of one block at the given input size."""
    if isinstance(block, AcbSpec):
        return sum(block_macs(b, in_hw)
                   for b in (block.square, block.horizontal, block.vertical))
    spec = block_conv(block)
    oh = conv_output_shape(in_hw[0], spec.kh, spec.stride[0], spec.padding[0])
    ow = conv_output_shape(in_hw[1], spec.kw, spec.stride[1], spec.padding[1])
    return spec.out_c * spec.in_c * spec.kh * spec.kw * oh * ow
