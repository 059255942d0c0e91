"""Binary PPM (P6, maxval 255) reader/writer; no codec dependencies."""
from __future__ import annotations

import os

import numpy as np


def _read_token(fh) -> bytes:
    # skip whitespace and '#' comments between header fields
    token = b""
    while True:
        ch = fh.read(1)
        if not ch:
            raise ValueError("truncated PPM header")
        if ch == b"#":
            while ch not in (b"\n", b""):
                ch = fh.read(1)
            continue
        if ch.isspace():
            if token:
                return token
            continue
        token += ch


def read_ppm(path) -> np.ndarray:
    """Returns (h, w, 3) uint8."""
    with open(path, "rb") as fh:
        if _read_token(fh) != b"P6":
            raise ValueError(f"{path}: not a binary P6 PPM")
        w = int(_read_token(fh))
        h = int(_read_token(fh))
        maxval = int(_read_token(fh))
        if maxval != 255:
            raise ValueError(f"{path}: only maxval 255 supported, got {maxval}")
        if w < 1 or h < 1:
            raise ValueError(f"{path}: bad dimensions {w}x{h}")
        if os.fstat(fh.fileno()).st_size - fh.tell() < w * h * 3:
            raise ValueError(f"{path}: truncated pixel data")
        data = fh.read(w * h * 3)
    return np.frombuffer(data, dtype=np.uint8).reshape(h, w, 3)


def write_ppm(path, pixels: np.ndarray) -> None:
    """pixels: (h, w, 3) uint8."""
    if pixels.ndim != 3 or pixels.shape[2] != 3 or pixels.dtype != np.uint8:
        raise ValueError(f"expected (h,w,3) uint8, got {pixels.shape} {pixels.dtype}")
    h, w = pixels.shape[:2]
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(pixels.tobytes())
