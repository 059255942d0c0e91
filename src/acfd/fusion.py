"""Foldable blocks and their inference-time collapse.

A foldable block is a sum of conv+BN branches: an asymmetric convolution
block (ACB) runs a 3x3, a 1x3 and a 3x1 branch in parallel, and a conv+BN
pair is a block of one branch. Because convolution and inference-form batch
norm are both linear, each branch folds into a plain biased convolution
(W' = W*a, B' = (B - mu)*a + beta with a = gamma/sqrt(var + eps)), each
kernel zero-embeds into the middle of the first branch's kernel, and the
branches add into one convolution.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor_ops import (BNSpec, ConvSpec, ShapeError, batch_norm_infer, conv2d,
                         conv_output_shape)


@dataclass
class ConvBn:
    """One branch: a convolution followed by its batch norm."""

    conv: ConvSpec
    bn: BNSpec


@dataclass
class Branches:
    """Train-time block: the sum of its branches' normalized outputs.

    Every branch shares the first branch's in/out channels and stride. Its
    kernel is no larger than the first's and smaller by an even number of
    cells on each axis, with padding smaller by half that, so it sits in the
    middle of the first kernel and all branch outputs have the same dims.
    """

    branches: list[ConvBn]

    def __post_init__(self):
        first = self.branches[0].conv
        (out_c, in_c, kh0, kw0), (ph0, pw0) = first.weight.shape, first.padding
        for branch in self.branches:
            conv = branch.conv
            (o, i, kh, kw), (ph, pw) = conv.weight.shape, conv.padding
            if branch.bn.channels != o:
                raise ShapeError(f"bn channels {branch.bn.channels} != conv out_c {o}")
            if (o, i, conv.stride) != (out_c, in_c, first.stride):
                raise ShapeError("branches must share in/out channels and stride")
            if kh > kh0 or kw > kw0 or (kh0 - kh, kw0 - kw) != (2 * (ph0 - ph), 2 * (pw0 - pw)):
                raise ShapeError(f"branch kernel {(kh, kw)} padded {conv.padding} is not "
                                 f"centred in {(kh0, kw0)} padded {first.padding}")


# A network block: a train-time sum of branches, or the plain conv it folds into
Block = Branches | ConvSpec


def acb_forward(x: np.ndarray, block: Branches, out: np.ndarray | None = None,
                row0: int | None = None) -> np.ndarray:
    """Sum of the normalized branch outputs (the fusion oracle), into out;
    ``row0`` as in ``conv2d``."""
    first, *rest = block.branches
    out = batch_norm_infer(conv2d(x, first.conv, out, row0), first.bn)
    for branch in rest:
        out += batch_norm_infer(conv2d(x, branch.conv, np.empty_like(out), row0), branch.bn)
    return out


def _fold(branch: ConvBn) -> tuple[np.ndarray, np.ndarray]:
    """The branch's weight and bias with its batch norm folded in, in float64:
    per output channel W' = W * a and B' = (B - mu) * a + beta."""
    conv = branch.conv
    a, b = branch.bn.scale_shift  # b = beta - mu*a; raises on non-positive var+eps
    dtype = conv.weight.dtype
    weight = (conv.weight.astype(np.float64) * a.reshape(-1, 1, 1, 1)).astype(dtype)
    bias = np.zeros(conv.out_c, dtype=np.float64) if conv.bias is None \
        else conv.bias.astype(np.float64)
    return weight, (bias * a + b).astype(dtype)


def fuse_block(block: Branches) -> ConvSpec:
    """The inference form of a block: one biased convolution.

    Each branch is folded with its batch norm and zero-embedded in the middle
    of the first branch's kernel; kernels and biases sum in branch order.
    """
    first = block.branches[0].conv
    weight, bias = _fold(block.branches[0])
    for branch in block.branches[1:]:
        w, b = _fold(branch)
        top, left = (first.kh - w.shape[2]) // 2, (first.kw - w.shape[3]) // 2
        weight[:, :, top:top + w.shape[2], left:left + w.shape[3]] += w
        bias += b
    return ConvSpec(weight=weight, bias=bias, stride=first.stride, padding=first.padding)


def block_conv(block: Block) -> ConvSpec:
    """The convolution that sets a block's output shape (its first branch)."""
    return block.branches[0].conv if isinstance(block, Branches) else block


def block_macs(block: Block, in_hw: tuple[int, int]) -> int:
    """Multiply-accumulate count of one block at the given input size."""
    if isinstance(block, Branches):
        return sum(block_macs(branch.conv, in_hw) for branch in block.branches)
    oh = conv_output_shape(in_hw[0], block.kh, block.stride[0], block.padding[0])
    ow = conv_output_shape(in_hw[1], block.kw, block.stride[1], block.padding[1])
    return block.out_c * block.in_c * block.kh * block.kw * oh * ow
