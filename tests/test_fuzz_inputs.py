"""Fuzz the two binary inputs of `acfd detect`: the PPM and the weight container.

Every drawn input goes through `cli.main` in-process on the fused tiny model at
one 128x128 scale. Whatever the input, detect must end with a frozen exit code
and no traceback, and every stdout line must be JSON.
"""
import contextlib
import io
import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acfd import container
from acfd.cli import main
from acfd.model import build_model, fuse_model, tiny_config
from acfd.ppm import write_ppm

FUZZ = settings(max_examples=60, deadline=None, derandomize=True)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A good PPM and fused tiny container, and paths for the drawn ones."""
    root = tmp_path_factory.mktemp("fuzz")
    good_ppm, good_model = root / "good.ppm", root / "good.acfd"
    write_ppm(good_ppm, np.random.default_rng(4).integers(0, 256, (24, 32, 3), np.uint8))
    container.save_file(fuse_model(build_model(tiny_config(), seed=0)), good_model)
    return {"ppm": good_ppm, "model": good_model,
            "bad_ppm": root / "drawn.ppm", "bad_model": root / "drawn.acfd"}


def _assert_detect_contract(ppm, model) -> None:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["detect", str(ppm), str(model), "--single-scale", "128x128"])
    assert code in (0, 1, 2, 3), (code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code != 0:
        assert err.getvalue().count("\n") == 1, err.getvalue()
    for line in out.getvalue().splitlines():
        json.loads(line)


# ---------------------------------------------------------------------------
# PPM: a good header and payload with up to two fields, separators or sizes edited

_SEPARATORS = st.sampled_from([b" ", b"\t", b"\r\n", b" # note\n", b"#", b"", b"\x00"])
_ODD_TOKENS = st.sampled_from([b"0", b"-1", b"+4", b"1_0", b"0x10", b"4.0", b"\xd9\xa3",
                               b"99999999999999999999", b"999999999999999999999"])
_NUMBER = st.one_of(st.integers(0, 4097).map(lambda n: str(n).encode()), _ODD_TOKENS,
                    st.binary(max_size=3))
_FIELD_TOKENS = {"magic": st.sampled_from([b"P5", b"P3", b"p6", b"P66", b""]),
                 "width": _NUMBER, "height": _NUMBER,
                 "maxval": st.sampled_from([b"65535", b"1", b"0"]) | _NUMBER}


@FUZZ
@given(data=st.data(), w=st.integers(1, 40), h=st.integers(1, 40), seed=st.integers(0, 3))
def test_drawn_ppm(inputs, data, w, h, seed):
    fields = {"magic": b"P6", "width": str(w).encode(), "height": str(h).encode(),
              "maxval": b"255"}
    seps, size = [b"\n", b" ", b"\n", b"\n"], w * h * 3
    edits = st.lists(st.sampled_from([*fields, "separator", "payload"]), max_size=2,
                     unique=True)
    for edit in data.draw(edits, label="edits"):
        if edit == "separator":
            seps[data.draw(st.integers(0, 3), label="at")] = data.draw(_SEPARATORS)
        elif edit == "payload":
            size = data.draw(st.integers(0, size + 200), label="size")
        else:
            fields[edit] = data.draw(_FIELD_TOKENS[edit], label=edit)
    header = b"".join(token + sep for token, sep in zip(fields.values(), seps))
    payload = np.random.default_rng(seed).integers(0, 256, size, np.uint8).tobytes()
    inputs["bad_ppm"].write_bytes(header + payload)
    _assert_detect_contract(inputs["bad_ppm"], inputs["model"])


# ---------------------------------------------------------------------------
# container: header JSON, entry fields and truncations

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 1 << 40) | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=3),
    max_leaves=8)


def _split(blob: bytes) -> tuple[dict, bytes]:
    (header_len,) = struct.unpack_from("<Q", blob, 5)
    return json.loads(blob[13:13 + header_len]), blob[13 + header_len:]


def _join(header: dict, payload: bytes, length_delta: int = 0) -> bytes:
    text = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    return container.MAGIC + struct.pack("<Q", len(text) + length_delta) + text + payload


@FUZZ
@given(data=st.data())
def test_drawn_container_header(inputs, data):
    header, payload = _split(inputs["model"].read_bytes())
    target = data.draw(st.sampled_from([header, header["config"]]), label="object")
    key = data.draw(st.sampled_from([*sorted(target), "extra"]), label="key")
    if data.draw(st.booleans(), label="delete") and key in target:
        del target[key]
    else:
        target[key] = data.draw(_JSON, label="value")
    length_delta = data.draw(st.sampled_from([0, 0, 0, -1, 1, -5, 1 << 20]), label="length")
    inputs["bad_model"].write_bytes(_join(header, payload, length_delta))
    _assert_detect_contract(inputs["ppm"], inputs["bad_model"])


@FUZZ
@given(data=st.data())
def test_drawn_container_entries(inputs, data):
    header, payload = _split(inputs["model"].read_bytes())
    entries = header["entries"]
    index = data.draw(st.integers(0, len(entries) - 1), label="entry")
    edit = data.draw(st.sampled_from(["set", "delete", "drop", "duplicate", "swap"]),
                     label="edit")
    field = data.draw(st.sampled_from(["name", "dims", "offset", "size", "extra"]),
                      label="field")
    if edit == "set":
        old = entries[index].get(field)
        entries[index][field] = data.draw(
            st.integers(-8, 8).map(lambda d: old + d) if isinstance(old, int) else _JSON,
            label="value")
    elif edit == "delete":
        entries[index].pop(field, None)
    elif edit == "drop":
        del entries[index]
    elif edit == "duplicate":
        entries.insert(index, dict(entries[index]))
    else:
        other = data.draw(st.integers(0, len(entries) - 1), label="other")
        entries[index], entries[other] = entries[other], entries[index]
    inputs["bad_model"].write_bytes(_join(header, payload))
    _assert_detect_contract(inputs["ppm"], inputs["bad_model"])


@FUZZ
@given(data=st.data())
def test_drawn_container_bytes(inputs, data):
    blob = bytearray(inputs["model"].read_bytes())
    header_end = 13 + struct.unpack_from("<Q", blob, 5)[0]
    cut = data.draw(st.none() | st.integers(0, len(blob)), label="cut")
    tail = data.draw(st.binary(max_size=8), label="appended")
    flips = data.draw(st.lists(st.tuples(st.integers(0, header_end - 1),
                                         st.integers(1, 255)), max_size=3), label="flips")
    for at, mask in flips:
        blob[at] ^= mask
    inputs["bad_model"].write_bytes(bytes(blob[:cut]) + tail)
    _assert_detect_contract(inputs["ppm"], inputs["bad_model"])
