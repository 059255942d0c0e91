"""Dense NCHW tensor primitives.

Every operation works on contiguous numpy arrays in (batch, channel, height,
width) layout, float32 by default, and preserves the input dtype so the same
code path serves the float64 verification mode. ``conv2d_direct`` is the
plain-loop reference against which the im2col fast path is checked.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class ShapeError(ValueError):
    """Raised when tensor dims are incompatible with an operation."""


def check_tensor4(x: np.ndarray, name: str = "input") -> None:
    if x.ndim != 4:
        raise ShapeError(f"{name} must be rank-4 (n,c,h,w), got shape {x.shape}")
    if min(x.shape) < 1:
        raise ShapeError(f"{name} has a non-positive dim: {x.shape}")


@dataclass
class ConvSpec:
    """Convolution weights: (out_c, in_c, kh, kw) kernel plus optional bias.

    bias is None for convolutions that feed straight into batch norm (the
    shift is absorbed by the norm's beta).
    """

    weight: np.ndarray
    bias: np.ndarray | None = None
    stride: tuple[int, int] = (1, 1)
    padding: tuple[int, int] = (0, 0)

    def __post_init__(self):
        if self.weight.ndim != 4:
            raise ShapeError(f"conv weight must be rank-4, got {self.weight.shape}")
        if self.kh < 1 or self.kw < 1:
            raise ShapeError(f"kernel dims must be >= 1, got {self.kh}x{self.kw}")
        if min(self.stride) < 1:
            raise ShapeError(f"stride must be >= 1, got {self.stride}")
        if min(self.padding) < 0:
            raise ShapeError(f"padding must be >= 0, got {self.padding}")
        if self.bias is not None and self.bias.shape != (self.out_c,):
            raise ShapeError(
                f"bias length {self.bias.shape} does not match out_c {self.out_c}")

    @property
    def out_c(self) -> int:
        return self.weight.shape[0]

    @property
    def in_c(self) -> int:
        return self.weight.shape[1]

    @property
    def kh(self) -> int:
        return self.weight.shape[2]

    @property
    def kw(self) -> int:
        return self.weight.shape[3]


@dataclass
class BNSpec:
    """Inference-form batch norm statistics and affine parameters."""

    mean: np.ndarray
    var: np.ndarray
    gamma: np.ndarray
    beta: np.ndarray
    eps: float = 1e-5

    def __post_init__(self):
        c = self.mean.shape[0]
        for name in ("var", "gamma", "beta"):
            v = getattr(self, name)
            if v.shape != (c,):
                raise ShapeError(f"bn {name} shape {v.shape} != mean shape {(c,)}")

    @property
    def channels(self) -> int:
        return self.mean.shape[0]

    def scale_shift(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-channel (a, b) with out = a*x + b. Computed in float64."""
        denom = self.var.astype(np.float64) + self.eps
        if np.any(denom <= 0):
            raise ValueError("var + eps must be positive")
        a = self.gamma.astype(np.float64) / np.sqrt(denom)
        b = self.beta.astype(np.float64) - self.mean.astype(np.float64) * a
        return a, b


def conv_output_shape(size: int, kernel: int, stride: int, pad: int) -> int:
    return (size + 2 * pad - kernel) // stride + 1


def _check_conv_dims(x: np.ndarray, spec: ConvSpec) -> tuple[int, int]:
    check_tensor4(x)
    if x.shape[1] != spec.in_c:
        raise ShapeError(f"input has {x.shape[1]} channels, kernel expects {spec.in_c}")
    oh = conv_output_shape(x.shape[2], spec.kh, spec.stride[0], spec.padding[0])
    ow = conv_output_shape(x.shape[3], spec.kw, spec.stride[1], spec.padding[1])
    if oh < 1 or ow < 1:
        raise ShapeError(
            f"non-positive conv output {oh}x{ow} for input {x.shape} "
            f"kernel {spec.kh}x{spec.kw} stride {spec.stride} pad {spec.padding}")
    return oh, ow


def conv2d(x: np.ndarray, spec: ConvSpec) -> np.ndarray:
    """2-D cross-correlation with zero padding (im2col + GEMM path)."""
    oh, ow = _check_conv_dims(x, spec)
    n, c, h, w = x.shape
    kh, kw = spec.kh, spec.kw
    sh, sw = spec.stride
    ph, pw = spec.padding

    if ph or pw:
        x = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    if kh == 1 and kw == 1:
        # 1x1 kernels skip the window expansion entirely
        cols = x[:, :, ::sh, ::sw].transpose(0, 2, 3, 1).reshape(n * oh * ow, c)
    else:
        windows = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(2, 3))
        windows = windows[:, :, ::sh, ::sw]
        cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(n * oh * ow, c * kh * kw)
    kernel = spec.weight.reshape(spec.out_c, -1)
    out = cols @ kernel.T
    if spec.bias is not None:
        out += spec.bias
    return np.ascontiguousarray(
        out.reshape(n, oh, ow, spec.out_c).transpose(0, 3, 1, 2))


def conv2d_direct(x: np.ndarray, spec: ConvSpec) -> np.ndarray:
    """Reference convolution: one window sum per output element.

    Deliberately naive (loops over every output position) so it shares no
    code with conv2d; only suitable for small tensors.
    """
    oh, ow = _check_conv_dims(x, spec)
    n, _, _, _ = x.shape
    kh, kw = spec.kh, spec.kw
    sh, sw = spec.stride
    ph, pw = spec.padding
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    out = np.zeros((n, spec.out_c, oh, ow), dtype=x.dtype)
    for b in range(n):
        for oc in range(spec.out_c):
            for i in range(oh):
                for j in range(ow):
                    window = xp[b, :, i * sh:i * sh + kh, j * sw:j * sw + kw]
                    acc = np.sum(window * spec.weight[oc])
                    if spec.bias is not None:
                        acc = acc + spec.bias[oc]
                    out[b, oc, i, j] = acc
    return out


def batch_norm_infer(x: np.ndarray, bn: BNSpec) -> np.ndarray:
    """Per-channel affine normalization using stored statistics."""
    check_tensor4(x)
    if x.shape[1] != bn.channels:
        raise ShapeError(f"input has {x.shape[1]} channels, bn expects {bn.channels}")
    a, b = bn.scale_shift()
    a = a.astype(x.dtype).reshape(1, -1, 1, 1)
    b = b.astype(x.dtype).reshape(1, -1, 1, 1)
    return x * a + b


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0)


def sigmoid(x: np.ndarray) -> np.ndarray:
    # split by sign to avoid exp overflow on large negative inputs
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def max_pool2d(x: np.ndarray, kernel: tuple[int, int], stride: tuple[int, int],
               padding: tuple[int, int] = (0, 0)) -> np.ndarray:
    """Windowed maximum; padding cells are -inf so they never win."""
    check_tensor4(x)
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    oh = conv_output_shape(x.shape[2], kh, sh, ph)
    ow = conv_output_shape(x.shape[3], kw, sw, pw)
    if oh < 1 or ow < 1:
        raise ShapeError(f"non-positive pool output {oh}x{ow} for input {x.shape}")
    if ph or pw:
        fill = -np.inf if np.issubdtype(x.dtype, np.floating) else np.iinfo(x.dtype).min
        x = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)), constant_values=fill)
    windows = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(2, 3))
    return np.ascontiguousarray(windows[:, :, ::sh, ::sw].max(axis=(4, 5)))


def global_avg_pool(x: np.ndarray) -> np.ndarray:
    check_tensor4(x)
    return x.mean(axis=(2, 3), keepdims=True)


def linear(x: np.ndarray, weight: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """out = weight @ x + bias, applied per row for batched input."""
    if weight.ndim != 2 or x.shape[-1] != weight.shape[1]:
        raise ShapeError(f"linear: input {x.shape} incompatible with weight {weight.shape}")
    if bias.shape != (weight.shape[0],):
        raise ShapeError(f"linear: bias {bias.shape} != out features {weight.shape[0]}")
    return x @ weight.T + bias


def resize_nearest(x: np.ndarray, target: tuple[int, int]) -> np.ndarray:
    """Nearest-neighbor resize; source index = floor(dst * src / dst_dim)."""
    check_tensor4(x)
    th, tw = target
    if th < 1 or tw < 1:
        raise ShapeError(f"target dims must be >= 1, got {target}")
    h, w = x.shape[2], x.shape[3]
    if (th, tw) == (h, w):
        return x.copy()
    rows = (np.arange(th) * h) // th
    cols = (np.arange(tw) * w) // tw
    return np.ascontiguousarray(x[:, :, rows][:, :, :, cols])


def concat_channels(inputs: list[np.ndarray]) -> np.ndarray:
    if not inputs:
        raise ShapeError("concat_channels needs at least one input")
    first = inputs[0]
    check_tensor4(first)
    for t in inputs[1:]:
        check_tensor4(t)
        if t.shape[0] != first.shape[0] or t.shape[2:] != first.shape[2:]:
            raise ShapeError(
                f"concat_channels spatial/batch mismatch: {t.shape} vs {first.shape}")
    return np.concatenate(inputs, axis=1)


def bilinear_resize(image: np.ndarray, target: tuple[int, int]) -> np.ndarray:
    """Half-pixel-centered bilinear resample of an NCHW tensor."""
    h, w = image.shape[2], image.shape[3]
    th, tw = target
    if (th, tw) == (h, w):
        return image.copy()
    sy = np.clip((np.arange(th) + 0.5) * h / th - 0.5, 0, h - 1)
    sx = np.clip((np.arange(tw) + 0.5) * w / tw - 0.5, 0, w - 1)
    y0 = np.floor(sy).astype(int)
    x0 = np.floor(sx).astype(int)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    fy = (sy - y0).astype(image.dtype)[None, None, :, None]
    fx = (sx - x0).astype(image.dtype)[None, None, None, :]
    top = image[:, :, y0][:, :, :, x0] * (1 - fx) + image[:, :, y0][:, :, :, x1] * fx
    bot = image[:, :, y1][:, :, :, x0] * (1 - fx) + image[:, :, y1][:, :, :, x1] * fx
    return top * (1 - fy) + bot * fy
