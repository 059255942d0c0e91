"""Single-file weight container: JSON manifest plus raw float32 payload.

Layout: 5-byte magic ``ACFD\\0``, an 8-byte little-endian header length, the
UTF-8 JSON header, then the payload blob. The header carries the format
version, the fused flag, the structural config, and one entry per parameter
with dims and byte offset into the payload; the entries tile the payload in
order, with no gap, overlap or trailing byte. Entry order and canonical JSON
make the byte layout deterministic: the same model always serializes to the
same bytes.
"""
from __future__ import annotations

import io
import json
import math
import os
import struct

import numpy as np

from .model import DetectorModel, ModelConfig, model_from_arrays, named_arrays

MAGIC = b"ACFD\0"
FORMAT_VERSION = 1


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
    for key, kind in (("entries", list), ("config", dict), ("fused", bool)):
        if not isinstance(header.get(key), kind):
            raise ContainerCorruptionError(f"header field {key!r} is not a {kind.__name__}")
    return header


def _is_count(value) -> bool:
    return type(value) is int and value >= 0


def _check_entry(entry, offset: int) -> None:
    """Field types, dims against size, and the offset the previous entry ended at."""
    if not (isinstance(entry, dict) and isinstance(entry.get("name"), str)
            and isinstance(entry.get("dims"), list)
            and all(_is_count(d) for d in entry["dims"])
            and _is_count(entry.get("offset")) and _is_count(entry.get("size"))):
        raise ContainerCorruptionError(f"malformed entry {str(entry)[:80]}")
    name, dims, size = entry["name"], entry["dims"], entry["size"]
    if math.prod(dims) * 4 != size:
        raise ContainerCorruptionError(f"entry {name}: dims {dims} != size {size}")
    if entry["offset"] != offset:
        raise ContainerCorruptionError(
            f"entry {name}: offset {entry['offset']} != {offset}; "
            "entries must tile the payload in order")


def _from_payload(header: dict, payload: np.ndarray) -> DetectorModel:
    """The model over float32 views of one buffer; 4-byte entry sizes keep them aligned."""
    arrays: dict[str, np.ndarray] = {}
    offset = 0
    for entry in header["entries"]:
        _check_entry(entry, offset)
        name, size = entry["name"], entry["size"]
        if name in arrays:
            raise ContainerCorruptionError(f"entry {name} is listed twice")
        if offset + size > len(payload):
            raise ContainerCorruptionError(f"entry {name}: payload out of bounds")
        arrays[name] = payload[offset:offset + size].view("<f4").reshape(entry["dims"])
        offset += size
    if offset != len(payload):
        raise ContainerCorruptionError(
            f"payload has {len(payload) - offset} bytes past the last entry")

    try:
        config = ModelConfig.from_dict(header["config"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ContainerCorruptionError(f"bad config: {exc!r}") from exc
    try:
        return model_from_arrays(config, header["fused"], arrays)
    except (TypeError, ValueError) as exc:
        raise ContainerCorruptionError(f"entries do not match the config: {exc}") from exc


def load(blob: bytes) -> DetectorModel:
    stream = io.BytesIO(blob)
    header = _read_header(stream)
    payload = np.frombuffer(blob, np.uint8, offset=stream.tell()).copy()
    return _from_payload(header, payload)


def save_file(model: DetectorModel, path) -> None:
    with open(path, "wb") as fh:
        fh.write(save(model))


def load_file(path) -> DetectorModel:
    with open(path, "rb") as fh:
        header = _read_header(fh)
        payload = np.empty(os.fstat(fh.fileno()).st_size - fh.tell(), np.uint8)
        if fh.readinto(payload) != len(payload):
            raise ContainerCorruptionError("payload changed while reading")
    return _from_payload(header, payload)


def is_fused_file(path) -> bool:
    """Peek at the fused flag without materializing the model."""
    with open(path, "rb") as fh:
        return _read_header(fh)["fused"]
