"""Single-file weight container: JSON manifest plus raw float32 payload.

Layout: 5-byte magic ``ACFD\\0``, an 8-byte little-endian header length, the
UTF-8 JSON header, then the payload blob. The header carries the format
version, the fused flag, the structural config, and one entry per parameter
with dims and byte offset into the payload. A load reads the entries in build
order, and each must equal the entry ``save`` writes for that parameter, so
they tile the payload with no gap, overlap or trailing byte. Build order and
canonical JSON make the byte layout deterministic: the same model always
serializes to the same bytes.
"""
from __future__ import annotations

import io
import json
import math
import struct

import numpy as np

from .model import DetectorModel, ModelConfig, _build, named_arrays

MAGIC = b"ACFD\0"
FORMAT_VERSION = 1


class ContainerFormatError(ValueError):
    """Bad magic or unsupported version."""


class ContainerCorruptionError(ValueError):
    """Manifest and payload disagree."""


def _entry(name: str, shape: tuple[int, ...], offset: int) -> dict:
    """The header entry ``save`` writes for a parameter at a payload offset."""
    return {"name": name, "dims": list(shape), "offset": offset,
            "size": math.prod(shape) * 4}


def save(model: DetectorModel) -> bytes:
    entries = []
    chunks = []
    offset = 0
    for name, arr in named_arrays(model).items():
        entries.append(_entry(name, arr.shape, offset))
        chunks.append(np.ascontiguousarray(arr, dtype="<f4").tobytes())
        offset += entries[-1]["size"]
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


def _from_payload(header: dict, payload: np.ndarray) -> DetectorModel:
    """The model the config builds, each parameter a float32 view of one buffer
    (4-byte entry sizes keep them aligned). As the build asks for parameter k,
    entry k must be the one ``save`` writes for its name and shape at the
    running offset."""
    try:
        config = ModelConfig.from_dict(header["config"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ContainerCorruptionError(f"bad config: {exc!r}") from exc
    entries = iter(header["entries"])
    offset = 0

    def take(name, shape, draw):
        nonlocal offset
        expected = _entry(name, shape, offset)
        if next(entries, None) != expected:
            raise ContainerCorruptionError(
                f"entry {name}: not the entry save writes, {expected}")
        offset += expected["size"]
        if offset > len(payload):
            raise ContainerCorruptionError(f"entry {name}: payload out of bounds")
        return payload[offset - expected["size"]:offset].view("<f4").reshape(shape)
    model = _build(config, take, header["fused"])
    if next(entries, None) is not None:
        raise ContainerCorruptionError("entries past the last parameter the config names")
    if offset != len(payload):
        raise ContainerCorruptionError(
            f"payload has {len(payload) - offset} bytes past the last entry")
    return model


def _load(fh) -> DetectorModel:
    """Check magic, header length and format version, then read the payload
    straight into one fresh buffer."""
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
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ContainerCorruptionError(f"unreadable header: {exc}") from exc
    if not isinstance(header, dict):
        raise ContainerCorruptionError("header is not a JSON object")
    if header.get("format_version") != FORMAT_VERSION:
        raise ContainerFormatError(
            f"unsupported format version {header.get('format_version')}")
    for key, kind in (("entries", list), ("config", dict), ("fused", bool)):
        if not isinstance(header.get(key), kind):
            raise ContainerCorruptionError(f"header field {key!r} is not a {kind.__name__}")
    payload = np.empty(size - fh.tell(), np.uint8)
    if fh.readinto(payload) != len(payload):
        raise ContainerCorruptionError("payload changed while reading")
    return _from_payload(header, payload)


def load(blob: bytes) -> DetectorModel:
    return _load(io.BytesIO(blob))


def save_file(model: DetectorModel, path) -> None:
    with open(path, "wb") as fh:
        fh.write(save(model))


def load_file(path) -> DetectorModel:
    with open(path, "rb") as fh:
        return _load(fh)
