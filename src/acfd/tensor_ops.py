"""Dense NCHW tensor primitives.

Every operation works on numpy arrays in (batch, channel, height, width)
layout, float32 by default, and preserves the input dtype so the same code
path serves the float64 verification mode. ``relu`` and ``batch_norm_infer``
overwrite their input and return it; ``conv2d`` and ``bilinear_resize`` write
into ``out`` when given one, such as a channel slice of a concat buffer from
``concat_channels``; every other op returns a new array. ``conv2d_direct``
and ``max_pool2d_direct`` are the plain-loop references against which the
im2col conv and the separable max pool are checked.
"""
from __future__ import annotations

import ctypes
import functools
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

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


# Bytes of im2col columns conv2d builds per GEMM: whole output rows, at least one.
# Each concurrently running scale holds one block, and 2 MiB fits it in the 2 MiB
# L2 of the core its worker runs on.
COLS_BLOCK_BYTES = 2 << 20


class BlasThreads(NamedTuple):
    """Getter and setter of the process-wide thread count of numpy's OpenBLAS."""

    get: Callable[[], int]
    set: Callable[[int], None]


@functools.cache
def openblas_threads() -> BlasThreads:
    """The thread-count hook of the OpenBLAS bundled in numpy.libs, by symbol name.

    The setter changes the count for every thread, so callers restore it.
    Raises OSError naming the library or symbol that is missing.
    """
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*.so"))
    if not libs:
        raise OSError("numpy.libs holds no libscipy_openblas*.so")
    lib = ctypes.CDLL(str(libs[0]))
    try:
        get = lib.scipy_openblas_get_num_threads64_
        set_ = lib.scipy_openblas_set_num_threads64_
    except AttributeError as exc:
        raise OSError(f"{libs[0].name}: {exc}") from None
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return BlasThreads(get, set_)


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


def conv2d(x: np.ndarray, spec: ConvSpec, out: np.ndarray | None = None) -> np.ndarray:
    """2-D cross-correlation with zero padding (im2col + GEMM path).

    Columns are channel-major and built one block of output rows at a time,
    at most COLS_BLOCK_BYTES per block unless one row is larger, in which
    case a block is that one row. Each block's input rows are copied into
    the middle columns of a zero-padded row strip, the strip rows that fall
    in the top or bottom padding are zeroed, and one strided view of the
    strip fills the block's columns. kernel @ cols writes each block straight
    into its rows of the (n, out_c, oh, ow) output: a new array, or ``out``
    when given, such as a channel slice of a wider NCHW buffer, which is
    returned.
    """
    oh, ow = _check_conv_dims(x, spec)
    n, c, h, w = x.shape
    kh, kw = spec.kh, spec.kw
    sh, sw = spec.stride
    ph, pw = spec.padding
    weight = spec.weight.reshape(spec.out_c, -1)
    if out is None:
        out = np.empty((n, spec.out_c, oh, ow), dtype=x.dtype)
    elif out.shape != (n, spec.out_c, oh, ow) or out.dtype != x.dtype:
        raise ShapeError(f"out is {out.dtype} {out.shape}, expected {x.dtype} "
                         f"{(n, spec.out_c, oh, ow)}")
    out_rows = out.transpose(1, 0, 2, 3).reshape(spec.out_c, n, oh * ow)
    if not np.may_share_memory(out_rows, out):  # a copy: the writes would be lost
        raise ShapeError(f"out with strides {out.strides} has no (out_c, n, oh*ow) view")
    if (kh, kw, sh, sw, ph, pw) == (1, 1, 1, 1, 0, 0):
        # each image's input itself is the column matrix (a view when contiguous)
        for b in range(n):
            np.matmul(weight, x[b].reshape(c, h * w), out=out_rows[:, b])
    else:
        rows = max(1, min(oh, COLS_BLOCK_BYTES // (c * kh * kw * ow * x.itemsize)))
        cols = np.empty((c, kh, kw, rows, ow), dtype=x.dtype)
        # zeroed once: its pad columns are never written
        strip = np.zeros((c, (rows - 1) * sh + kh, w + 2 * pw), dtype=x.dtype)
        s_c, s_y, s_x = strip.strides
        for b in range(n):
            for r0 in range(0, oh, rows):
                r = min(rows, oh - r0)
                y0, span = r0 * sh - ph, (r - 1) * sh + kh
                lo = max(y0, 0)
                hi = max(lo, min(y0 + span, h))
                strip[:, :lo - y0] = 0
                strip[:, lo - y0:hi - y0, pw:pw + w] = x[b, :, lo:hi]
                strip[:, hi - y0:span] = 0
                cols[:, :, :, :r] = np.lib.stride_tricks.as_strided(
                    strip, (c, kh, kw, r, ow), (s_c, s_y, s_x, sh * s_y, sw * s_x))
                np.matmul(weight, cols.reshape(-1, rows * ow)[:, :r * ow],
                          out=out_rows[:, b, r0 * ow:(r0 + r) * ow])
    if spec.bias is not None:
        out += spec.bias[:, None, None]
    return out


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
    """Per-channel affine normalization using stored statistics, in place:
    every caller passes a conv output it has just made."""
    check_tensor4(x)
    if x.shape[1] != bn.channels:
        raise ShapeError(f"input has {x.shape[1]} channels, bn expects {bn.channels}")
    a, b = bn.scale_shift()
    x *= a.astype(x.dtype).reshape(1, -1, 1, 1)
    x += b.astype(x.dtype).reshape(1, -1, 1, 1)
    return x


def relu(x: np.ndarray) -> np.ndarray:
    """Rectifies x in place and returns it: every caller passes an activation
    it has just made and holds no other reference to."""
    return np.maximum(x, 0, out=x)


def sigmoid(x: np.ndarray) -> np.ndarray:
    # split by sign to avoid exp overflow on large negative inputs
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _pool_fill(dtype) -> float | int:
    """Padding value that never wins a maximum."""
    return -np.inf if np.issubdtype(dtype, np.floating) else np.iinfo(dtype).min


def _pool_dims(x: np.ndarray, kernel, stride, padding) -> tuple[int, int]:
    check_tensor4(x)
    oh = conv_output_shape(x.shape[2], kernel[0], stride[0], padding[0])
    ow = conv_output_shape(x.shape[3], kernel[1], stride[1], padding[1])
    if oh < 1 or ow < 1:
        raise ShapeError(f"non-positive pool output {oh}x{ow} for input {x.shape}")
    return oh, ow


def max_pool2d(x: np.ndarray, kernel: tuple[int, int], stride: tuple[int, int],
               padding: tuple[int, int] = (0, 0)) -> np.ndarray:
    """Windowed maximum; padding cells are -inf so they never win.

    Separable: the maximum over the kh strided row slices, then over the kw
    strided column slices of that. Max is exact and np.maximum propagates
    NaN, so this equals the per-window maximum.
    """
    oh, ow = _pool_dims(x, kernel, stride, padding)
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    if ph or pw:
        x = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)),
                   constant_values=_pool_fill(x.dtype))
    rows = x[:, :, :sh * oh:sh].copy()
    for i in range(1, kh):
        np.maximum(rows, x[:, :, i:i + sh * oh:sh], out=rows)
    out = rows[:, :, :, :sw * ow:sw].copy()
    for j in range(1, kw):
        np.maximum(out, rows[:, :, :, j:j + sw * ow:sw], out=out)
    return out


def max_pool2d_direct(x: np.ndarray, kernel: tuple[int, int], stride: tuple[int, int],
                      padding: tuple[int, int] = (0, 0)) -> np.ndarray:
    """Reference max pool: one scalar scan per output window.

    Deliberately naive (shares no slicing or reduction with max_pool2d);
    a NaN in the window wins, cells outside the input are skipped, and a
    window that lies wholly in the padding gives the padding value. Only
    suitable for small tensors.
    """
    oh, ow = _pool_dims(x, kernel, stride, padding)
    n, c, h, w = x.shape
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    out = np.empty((n, c, oh, ow), dtype=x.dtype)
    for b in range(n):
        for ch in range(c):
            for i in range(oh):
                for j in range(ow):
                    best = _pool_fill(x.dtype)
                    for r in range(i * sh - ph, i * sh - ph + kh):
                        for q in range(j * sw - pw, j * sw - pw + kw):
                            if 0 <= r < h and 0 <= q < w and best == best:
                                v = x[b, ch, r, q]
                                if v != v or v > best:
                                    best = v
                    out[b, ch, i, j] = best
    return out


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


def concat_channels(head: np.ndarray, channels: int) -> np.ndarray:
    """The (n, c + channels, h, w) buffer of a channel concatenation, with
    ``head`` copied into its first c channels; the caller writes the rest."""
    check_tensor4(head, "head")
    if channels < 0:
        raise ShapeError(f"concat_channels needs channels >= 0, got {channels}")
    n, c, h, w = head.shape
    buf = np.empty((n, c + channels, h, w), dtype=head.dtype)
    buf[:, :c] = head
    return buf


def bilinear_resize(image: np.ndarray, target: tuple[int, int],
                    out: np.ndarray | None = None) -> np.ndarray:
    """Half-pixel-centered bilinear resample of an NCHW tensor.

    Writes into ``out`` when given: an (n, c, *target) array or view, such as
    the top-left corner of a zero-padded grid, which is returned. Each
    (n, c) plane is resampled on its own, so the temporaries are plane-sized.
    """
    n, c, h, w = image.shape
    th, tw = target
    if out is None:
        out = np.empty((n, c, th, tw), dtype=image.dtype)
    elif out.shape != (n, c, th, tw):
        raise ShapeError(f"out has shape {out.shape}, expected {(n, c, th, tw)}")
    if (th, tw) == (h, w):
        out[...] = image
        return out
    sy = np.clip((np.arange(th) + 0.5) * h / th - 0.5, 0, h - 1)
    sx = np.clip((np.arange(tw) + 0.5) * w / tw - 0.5, 0, w - 1)
    y0 = np.floor(sy).astype(int)
    x0 = np.floor(sx).astype(int)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    fy = (sy - y0).astype(image.dtype)[:, None]
    fx = (sx - x0).astype(image.dtype)
    # lerp each source row along x once, then lerp rows y0 and y1 of that;
    # every output pixel gets the same products and sums as the 2-D gather.
    # The indices are in range, so mode="clip" only lets take write into out
    # without a buffered copy.
    rows = np.empty((h, tw), dtype=image.dtype)
    right = np.empty_like(rows)
    below = np.empty((th, tw), dtype=image.dtype)
    for b in range(n):
        for ch in range(c):
            np.take(image[b, ch], x0, axis=1, out=rows, mode="clip")
            rows *= 1 - fx
            np.take(image[b, ch], x1, axis=1, out=right, mode="clip")
            right *= fx
            rows += right
            np.take(rows, y0, axis=0, out=below, mode="clip")
            np.multiply(below, 1 - fy, out=out[b, ch])
            np.take(rows, y1, axis=0, out=below, mode="clip")
            below *= fy
            out[b, ch] += below
    return out
