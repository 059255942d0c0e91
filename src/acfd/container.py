"""Single-file weight container: JSON manifest plus raw float32 payload.

Layout: 5-byte magic ``ACFD\\0``, an 8-byte little-endian header length, the
UTF-8 JSON header, then the payload blob. The header carries the format
version, the fused flag, the structural config, and one entry per parameter
with dims and byte offset into the payload. Entry order and canonical JSON
make the byte layout deterministic: the same model always serializes to the
same bytes.
"""
from __future__ import annotations

import io
import json
import struct

import numpy as np

from .model import DetectorModel, ModelConfig, model_from_arrays, named_arrays

MAGIC = b"ACFD\0"
FORMAT_VERSION = 1
FILE_EXTENSION = ".acfd"


class ContainerFormatError(ValueError):
    """Bad magic or unsupported version."""


class ContainerCorruptionError(ValueError):
    """Manifest and payload disagree."""


def save(model: DetectorModel) -> bytes:
    arrays = named_arrays(model)
    entries = []
    chunks = []
    offset = 0
    for name, arr in arrays.items():
        data = np.ascontiguousarray(arr, dtype="<f4").tobytes()
        entries.append({"name": name, "dims": list(arr.shape),
                        "offset": offset, "size": len(data)})
        chunks.append(data)
        offset += len(data)
    header = {
        "format_version": FORMAT_VERSION,
        "fused": model.fused,
        "config": model.config.to_dict(),
        "entries": entries,
    }
    header_bytes = json.dumps(header, sort_keys=True,
                              separators=(",", ":")).encode("utf-8")
    return b"".join([MAGIC, struct.pack("<Q", len(header_bytes)),
                     header_bytes, *chunks])


def _read_header(fh) -> dict:
    """Check magic, header length and format version; leaves fh at the payload."""
    if fh.read(len(MAGIC)) != MAGIC:
        raise ContainerFormatError("bad magic; not a weight container")
    raw = fh.read(8)
    if len(raw) < 8:
        raise ContainerCorruptionError("truncated header length")
    (header_len,) = struct.unpack("<Q", raw)
    size = fh.seek(0, io.SEEK_END)
    if size < len(MAGIC) + 8 + header_len:
        raise ContainerCorruptionError("truncated header")
    fh.seek(len(MAGIC) + 8)
    try:
        header = json.loads(fh.read(header_len).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ContainerCorruptionError(f"unreadable header: {exc}") from exc
    if not isinstance(header, dict):
        raise ContainerCorruptionError("header is not a JSON object")
    if header.get("format_version") != FORMAT_VERSION:
        raise ContainerFormatError(
            f"unsupported format version {header.get('format_version')}")
    return header


def load(blob: bytes) -> DetectorModel:
    stream = io.BytesIO(blob)
    header = _read_header(stream)
    payload = memoryview(blob)[stream.tell():]
    arrays: dict[str, np.ndarray] = {}
    for entry in header["entries"]:
        name, dims = entry["name"], tuple(entry["dims"])
        offset, size = entry["offset"], entry["size"]
        if int(np.prod(dims)) * 4 != size:
            raise ContainerCorruptionError(f"entry {name}: dims {dims} != size {size}")
        if offset < 0 or offset + size > len(payload):
            raise ContainerCorruptionError(f"entry {name}: payload out of bounds")
        arrays[name] = np.frombuffer(
            payload, dtype="<f4", count=int(np.prod(dims)), offset=offset
        ).reshape(dims).copy()

    config = ModelConfig.from_dict(header["config"])
    try:
        return model_from_arrays(config, bool(header["fused"]), arrays)
    except ValueError as exc:
        raise ContainerCorruptionError(f"entries do not match the config: {exc}") from exc


def save_file(model: DetectorModel, path) -> None:
    with open(path, "wb") as fh:
        fh.write(save(model))


def load_file(path) -> DetectorModel:
    with open(path, "rb") as fh:
        return load(fh.read())


def is_fused_file(path) -> bool:
    """Peek at the fused flag without materializing the model."""
    with open(path, "rb") as fh:
        return bool(_read_header(fh)["fused"])
