"""Dense NCHW tensor primitives.

Every operation works on numpy arrays in (batch, channel, height, width)
layout, float32 by default, and preserves the input dtype so the same code
path serves the float64 verification mode. ``relu`` and ``batch_norm_infer``
overwrite their input and return it; ``conv2d`` and ``bilinear_resize`` write
into ``out`` when given one, such as a channel slice of a concat buffer from
``concat_channels``; every other op returns a new array. ``conv2d`` splits
its row blocks over the threads of ``row_workers`` when the caller runs in one.
"""
from __future__ import annotations

import contextlib
import ctypes
import functools
import itertools
import mmap
import os
import weakref
from concurrent.futures import Executor, ThreadPoolExecutor
from contextvars import ContextVar
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np


class ShapeError(ValueError):
    """Raised when tensor dims are incompatible with an operation."""


class ContainerCorruptionError(ValueError):
    """Manifest and payload disagree."""


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

    @functools.cached_property
    def scale_shift(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-channel (a, b) with out = a*x + b, in float64, computed on first use."""
        denom = self.var.astype(np.float64) + self.eps
        if np.any(denom <= 0):
            raise ValueError("var + eps must be positive")
        a = self.gamma.astype(np.float64) / np.sqrt(denom)
        b = self.beta.astype(np.float64) - self.mean.astype(np.float64) * a
        return a, b


def map_tree(tree, kind, leaf):
    """A dataclass or list tree of specs rebuilt with each node of ``kind`` (a
    type or a tuple of them) replaced by ``leaf(node)``; other values carry
    over. The specs' dataclass fields are all init fields, so each is rebuilt
    by calling its class."""
    if isinstance(tree, kind):
        return leaf(tree)
    if isinstance(tree, list):
        return [map_tree(node, kind, leaf) for node in tree]
    names = getattr(tree, "__dataclass_fields__", None)
    if names is None:
        return tree
    return type(tree)(**{name: map_tree(getattr(tree, name), kind, leaf) for name in names})


def tree_arrays(tree, out: list | None = None) -> list[np.ndarray]:
    """Every array of a dataclass or list tree, in field order."""
    out = [] if out is None else out
    if isinstance(tree, np.ndarray):
        out.append(tree)
    elif isinstance(tree, list):
        for node in tree:
            tree_arrays(node, out)
    else:
        for name in getattr(tree, "__dataclass_fields__", ()):
            tree_arrays(getattr(tree, name), out)
    return out


class FileMapping(mmap.mmap):
    """A read-only mapping of a whole open file, with a descriptor of its own
    that ``resident`` reads the file through; it closes with the mapping."""

    def __new__(cls, fh):
        self = super().__new__(cls, fh.fileno(), 0, access=mmap.ACCESS_READ)
        self.fd = os.dup(fh.fileno())
        weakref.finalize(self, os.close, self.fd)
        self.address = np.frombuffer(self, np.uint8).__array_interface__["data"][0]
        return self


def _file_at(a: np.ndarray) -> tuple[int, int] | None:
    """(descriptor, byte offset) in the file of an array that views a
    ``FileMapping`` through ``np.frombuffer``, as ``container.load_file``'s
    do; else None."""
    root = a
    while isinstance(root.base, np.ndarray):
        root = root.base
    mapping = getattr(root.base, "obj", None)
    if not isinstance(mapping, FileMapping):
        return None
    return mapping.fd, a.__array_interface__["data"][0] - mapping.address


def resident(*arrays):
    """The arrays as an op reads them: the arrays themselves when the first
    views no ``FileMapping``, else aligned private copies read from the file
    by one os.preadv, so that the op never faults in a page of the mapping;
    a None passes through. The arrays must tile one span of the file in
    order, as a loaded conv's weight and bias do. A short read raises
    ContainerCorruptionError, as the file has changed since the load, and a
    failed one OSError."""
    at = _file_at(arrays[0])
    if at is None:
        return arrays
    fd, lo = at
    copies = tuple(None if a is None else np.empty(a.shape, a.dtype) for a in arrays)
    read = [c for c in copies if c is not None]
    size = sum(c.nbytes for c in read)
    last = [a for a in arrays if a is not None][-1]
    if _file_at(last) != (fd, lo + size - last.nbytes):
        raise ValueError("the arrays do not tile one span of one file")
    if os.preadv(fd, read, lo) != size:
        raise ContainerCorruptionError("payload changed while reading")
    return copies


# Bytes of im2col columns, with the padded input rows they are copied from, that
# conv2d holds per GEMM: whole output rows, at least one.
# Each scale worker or row worker holds one block, and 2 MiB fits it in the 2 MiB
# L2 of the core it runs on.
COLS_BLOCK_BYTES = 2 << 20

# Fewest MACs of a conv2d per row worker: a smaller part gains less than the
# hand-off to a thread costs, and a GEMM below about 1e6 MACs may go down an
# OpenBLAS small-matrix kernel whose sums differ from those of the whole GEMM.
PART_MACS = 1 << 22

# (executor, row workers) of the row_workers context conv2d runs in
_row_pool: ContextVar[tuple[Executor | None, int]] = ContextVar("row_pool",
                                                                default=(None, 1))


def usable_cpus() -> int:
    """CPUs in the process's affinity set, which `taskset` caps."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_parts(part: Callable[[], None], parts: int, pool: Executor | None) -> None:
    """part() `parts` times at once: once on the calling thread, the others in
    `pool`, which may be None for one part. The parts share the work by taking
    units from one count, as conv2d's blocks do. Returns once every part has
    ended, raising the calling thread's error first, then the pool's in
    submission order."""
    futures = [pool.submit(part) for _ in range(parts - 1)]
    try:
        part()
    finally:
        for future in futures:
            future.exception()  # waits for the part to end
    for future in futures:
        future.result()


@contextlib.contextmanager
def row_workers(count: int):
    """Lets each conv2d this thread calls in the context run its row blocks as
    up to `count` parts at once, on this thread and up to count - 1 pool
    threads, which start on first use and are joined on exit. Threads started
    in the context do not see the pool: their convs run on the calling thread."""
    with ThreadPoolExecutor(max_workers=count) as pool:
        token = _row_pool.set((pool, count))
        try:
            yield
        finally:
            _row_pool.reset(token)


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


def conv2d(x: np.ndarray, spec: ConvSpec, out: np.ndarray | None = None,
           row0: int | None = None) -> np.ndarray:
    """2-D cross-correlation with zero padding (im2col + GEMM path).

    Columns are channel-major and built one block of output rows at a time;
    a block's columns and its row strip take at most COLS_BLOCK_BYTES unless
    one row needs more, in which case a block is that one row. Each block's
    input rows are copied into the middle columns of a zero-padded row
    strip, the strip rows that fall in the top or bottom padding are zeroed,
    and one strided view of the strip fills the block's columns. kernel @
    cols writes each block straight into its rows of the (n, out_c, oh, ow)
    output: a new array, or ``out`` when given, such as a channel slice of a
    wider NCHW buffer, which is returned.

    With ``row0``, x is a cut of a taller map: output row i reads input rows
    from (row0 + i) * sh - ph, counted from x's first row, rows outside x are
    padding, and the output height is out's, which must then be given.

    Inside ``row_workers``, up to one part per PART_MACS runs at once. Each
    part takes the next block no part has taken until none is left, so a part
    that is free sooner runs more of them. A 1x1 conv's block is one part's
    share of an image's rows, or the whole image with one output channel. The
    blocks depend on the shapes and the part count alone, and a block is the
    same GEMM on the same operands whoever runs it; OpenBLAS sums each output
    element of a GEMM this large the same way over a range of its columns as
    over all of them. So the bytes do not depend on the worker count.

    The weight and bias are read with ``resident`` for this call alone.
    """
    oh, ow = _check_conv_dims(x, spec)
    if row0 is not None:
        if out is None:
            raise ShapeError("conv2d needs out when row0 is given")
        oh = out.shape[2]
    else:
        row0 = 0
    n, c, h, w = x.shape
    kh, kw = spec.kh, spec.kw
    sh, sw = spec.stride
    ph, pw = spec.padding
    if out is None:
        out = np.empty((n, spec.out_c, oh, ow), dtype=x.dtype)
    elif out.shape != (n, spec.out_c, oh, ow) or out.dtype != x.dtype:
        raise ShapeError(f"out is {out.dtype} {out.shape}, expected {x.dtype} "
                         f"{(n, spec.out_c, oh, ow)}")
    out_rows = out.transpose(1, 0, 2, 3).reshape(spec.out_c, n, oh * ow)
    if not np.may_share_memory(out_rows, out):  # a copy: the writes would be lost
        raise ShapeError(f"out with strides {out.strides} has no (out_c, n, oh*ow) view")
    weight, bias = resident(spec.weight, spec.bias)
    weight = weight.reshape(spec.out_c, -1)
    pool, workers = _row_pool.get()
    parts = max(1, min(workers, n * oh, n * oh * ow * weight.size // PART_MACS))
    dealt = itertools.count()  # next() is atomic under the GIL: each block goes to one part

    def blocks():  # (image, first output row, rows) of each block a part takes,
        # of `per` blocks of `rows` rows per image, set by the path below
        for u in itertools.takewhile(lambda u: u < n * per, dealt):
            b, r0 = u // per, u % per * rows
            yield b, r0, min(rows, oh - r0)
    if (kh, kw, sh, sw, ph, pw) == (1, 1, 1, 1, 0, 0):
        # numpy runs a one-row weight as a matrix-vector product, whose sums
        # move with its width, so that one takes whole images
        rows = oh if spec.out_c == 1 else -(-oh // parts)

        def part():  # a block's input rows are its column matrix, a view when
            for b, r0, r in blocks():  # contiguous per channel
                np.matmul(weight, x[b, :, row0 + r0:row0 + r0 + r].reshape(c, r * w),
                          out=out_rows[:, b, r0 * w:(r0 + r) * w])
    else:
        wp = w + 2 * pw  # the budget holds r rows of columns and (r - 1)*sh + kh strip rows
        rows = max(1, min(oh, (COLS_BLOCK_BYTES // (c * x.itemsize) - (kh - sh) * wp)
                          // (kh * kw * ow + sh * wp)))

        def part():
            cols = np.empty((c, kh, kw, rows, ow), dtype=x.dtype)
            # zeroed once: its pad columns are never written
            strip = np.zeros((c, (rows - 1) * sh + kh, wp), dtype=x.dtype)
            s_c, s_y, s_x = strip.strides
            for b, r0, r in blocks():
                y0, span = (row0 + r0) * sh - ph, (r - 1) * sh + kh
                lo = max(y0, 0)
                hi = max(lo, min(y0 + span, h))
                strip[:, :lo - y0] = 0
                strip[:, lo - y0:hi - y0, pw:pw + w] = x[b, :, lo:hi]
                strip[:, hi - y0:span] = 0
                # viewed by np.ndarray: as_strided's per-call interface dict churns
                # CPython's interned strings, whose table is then rebuilt (1.9 MB)
                cols[:, :, :, :r] = np.ndarray((c, kh, kw, r, ow), x.dtype, strip, 0,
                                               (s_c, s_y, s_x, sh * s_y, sw * s_x))
                np.matmul(weight, cols.reshape(-1, rows * ow)[:, :r * ow],
                          out=out_rows[:, b, r0 * ow:(r0 + r) * ow])
    per = -(-oh // rows)
    run_parts(part, min(parts, n * per), pool)
    if bias is not None:
        out += bias[:, None, None]
    return out


def batch_norm_infer(x: np.ndarray, bn: BNSpec) -> np.ndarray:
    """Per-channel affine normalization using stored statistics, in place:
    every caller passes a conv output it has just made."""
    check_tensor4(x)
    if x.shape[1] != bn.channels:
        raise ShapeError(f"input has {x.shape[1]} channels, bn expects {bn.channels}")
    a, b = bn.scale_shift
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


def max_pool2d(x: np.ndarray, kernel: tuple[int, int], stride: tuple[int, int],
               padding: tuple[int, int] = (0, 0)) -> np.ndarray:
    """Windowed maximum; padding cells never win.

    Separable: rows, then columns, each into a buffer filled with the padding
    value, where each tap takes the maximum over only the outputs that read
    it inside the input, so no padded copy is made. Max is exact and
    np.maximum propagates NaN, so this equals the per-window maximum.
    """
    check_tensor4(x)
    oh = conv_output_shape(x.shape[2], kernel[0], stride[0], padding[0])
    ow = conv_output_shape(x.shape[3], kernel[1], stride[1], padding[1])
    if oh < 1 or ow < 1:
        raise ShapeError(f"non-positive pool output {oh}x{ow} for input {x.shape}")
    fill = -np.inf if np.issubdtype(x.dtype, np.floating) else np.iinfo(x.dtype).min
    out = x
    for axis, k, s, p, o in zip((2, 3), kernel, stride, padding, (oh, ow)):
        src = np.moveaxis(out, axis, 0)
        out = np.full((*out.shape[:axis], o, *out.shape[axis + 1:]), fill, dtype=x.dtype)
        dst = np.moveaxis(out, axis, 0)
        for t in range(k):  # outputs lo:hi read input lo*s - p + t onwards, s apart
            lo, hi = max(0, (p - t + s - 1) // s), min(o, (len(src) - 1 + p - t) // s + 1)
            if lo < hi:
                np.maximum(dst[lo:hi], src[lo * s - p + t::s][:hi - lo], out=dst[lo:hi])
    return out


def linear(x: np.ndarray, weight: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """out = weight @ x + bias, applied per row for batched input; the weight
    and bias are read with ``resident`` for this call alone."""
    if weight.ndim != 2 or x.shape[-1] != weight.shape[1]:
        raise ShapeError(f"linear: input {x.shape} incompatible with weight {weight.shape}")
    if bias.shape != (weight.shape[0],):
        raise ShapeError(f"linear: bias {bias.shape} != out features {weight.shape[0]}")
    weight, bias = resident(weight, bias)
    return x @ weight.T + bias


def resize_nearest(x: np.ndarray, target: tuple[int, int]) -> np.ndarray:
    """Nearest-neighbor upsample by whole factors, such as the neck's 2x: one
    broadcast copy per column offset."""
    check_tensor4(x)
    n, c, h, w = x.shape
    th, tw = target
    if th < h or tw < w or th % h or tw % w:
        raise ShapeError(f"target {target} is not a whole multiple of {(h, w)}")
    out = np.empty((n, c, h, th // h, w, tw // w), dtype=x.dtype)
    for j in range(tw // w):
        out[..., j] = x[:, :, :, None]  # broadcast over the row offsets
    return out.reshape(n, c, th, tw)


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
