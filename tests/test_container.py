import dataclasses
import hashlib
import json
import struct

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from acfd.container import (ContainerCorruptionError, ContainerFormatError,
                            load, load_file, save, save_file)
from acfd.model import (build_model, forward, full_config, fuse_model,
                        named_arrays, tiny_config)


@pytest.fixture(scope="module")
def tiny_model():
    return build_model(tiny_config(), seed=0)


@pytest.fixture(scope="module")
def probe():
    return np.random.default_rng(1).uniform(-1, 1, (1, 3, 128, 128)).astype(np.float32)


def outputs_bytes(model, probe):
    out = forward(model, probe)
    return b"".join(t.tobytes() for t in out.cls + out.reg)


class TestRoundtrip:
    def test_forward_bit_identical(self, tiny_model, probe):
        restored = load(save(tiny_model))
        assert outputs_bytes(restored, probe) == outputs_bytes(tiny_model, probe)

    def test_fused_roundtrip(self, tiny_model, probe):
        fused = fuse_model(tiny_model)
        restored = load(save(fused))
        assert restored.fused
        assert outputs_bytes(restored, probe) == outputs_bytes(fused, probe)

    def test_deterministic_bytes(self, tiny_model):
        assert save(tiny_model) == save(tiny_model)

    def test_all_parameters_roundtrip_exactly(self, tiny_model):
        restored = load(save(tiny_model))
        a, b = named_arrays(tiny_model), named_arrays(restored)
        assert a.keys() == b.keys()
        for name in a:
            np.testing.assert_array_equal(a[name], b[name])


class TestContainerLayout:
    def test_magic_and_extension_contract(self, tiny_model):
        blob = save(tiny_model)
        assert blob[:5] == b"ACFD\0"
        (header_len,) = struct.unpack_from("<Q", blob, 5)
        header = json.loads(blob[13:13 + header_len])
        assert header["format_version"] == 1
        assert header["fused"] is False
        sizes = [e["size"] for e in header["entries"]]
        dims = [e["dims"] for e in header["entries"]]
        for size, d in zip(sizes, dims):
            assert int(np.prod(d)) * 4 == size
        assert len(blob) == 13 + header_len + sum(sizes)

    def test_fused_is_strictly_smaller(self, tiny_model):
        unfused_blob = save(tiny_model)
        fused_blob = save(fuse_model(tiny_model))
        assert len(fused_blob) < len(unfused_blob)

    def test_branch_names_follow_scheme(self, tiny_model):
        names = set(named_arrays(tiny_model))
        assert "backbone.stage1.block0.acb0.square.weight" in names
        assert "backbone.stage1.block0.acb0.square.bn.mean" in names
        assert "backbone.stem0.conv.weight" in names
        assert "neck.layer0.td0.fuse_weights" in names
        assert "head.cls.bias" in names


class TestCorruptionHandling:
    def test_bad_magic(self):
        with pytest.raises(ContainerFormatError):
            load(b"NOPE\0" + b"\0" * 64)

    def test_bad_version(self, tiny_model):
        blob = bytearray(save(tiny_model))
        (header_len,) = struct.unpack_from("<Q", blob, 5)
        header = json.loads(bytes(blob[13:13 + header_len]))
        header["format_version"] = 99
        new_header = json.dumps(header, sort_keys=True,
                                separators=(",", ":")).encode()
        rebuilt = (bytes(blob[:5]) + struct.pack("<Q", len(new_header))
                   + new_header + bytes(blob[13 + header_len:]))
        with pytest.raises(ContainerFormatError):
            load(rebuilt)

    def test_truncated_payload(self, tiny_model):
        blob = save(tiny_model)
        with pytest.raises(ContainerCorruptionError):
            load(blob[:-100])

    def test_truncated_header(self, tiny_model):
        blob = save(tiny_model)
        with pytest.raises(ContainerCorruptionError):
            load(blob[:40])

    def test_deeply_nested_header_is_unreadable(self):
        # json gives up on the nesting with RecursionError, not JSONDecodeError
        deep = b"[" * 200_000 + b"]" * 200_000
        with pytest.raises(ContainerCorruptionError, match="^unreadable header: "):
            load(b"ACFD\0" + struct.pack("<Q", len(deep)) + deep)

    def test_dims_size_mismatch(self, tiny_model):
        blob = save(tiny_model)
        (header_len,) = struct.unpack_from("<Q", blob, 5)
        header = json.loads(blob[13:13 + header_len])
        header["entries"][0]["dims"][0] += 1
        new_header = json.dumps(header, sort_keys=True,
                                separators=(",", ":")).encode()
        rebuilt = (blob[:5] + struct.pack("<Q", len(new_header))
                   + new_header + blob[13 + header_len:])
        with pytest.raises(ContainerCorruptionError):
            load(rebuilt)

    def test_fused_flag_inconsistency(self, tiny_model):
        blob = save(tiny_model)  # carries .square. entries
        (header_len,) = struct.unpack_from("<Q", blob, 5)
        header = json.loads(blob[13:13 + header_len])
        header["fused"] = True
        new_header = json.dumps(header, sort_keys=True,
                                separators=(",", ":")).encode()
        rebuilt = (blob[:5] + struct.pack("<Q", len(new_header))
                   + new_header + blob[13 + header_len:])
        with pytest.raises(ContainerCorruptionError):
            load(rebuilt)


def _with_entries(blob: bytes, edit) -> bytes:
    """The blob with its entry list passed through edit, plus the bytes edit returns."""
    (header_len,) = struct.unpack_from("<Q", blob, 5)
    header = json.loads(blob[13:13 + header_len])
    tail = edit(header["entries"]) or b""
    new_header = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    return (blob[:5] + struct.pack("<Q", len(new_header)) + new_header
            + blob[13 + header_len:] + tail)


def _trailing_bytes(entries):
    return bytes(8)


def _overlap(entries):
    entries[1]["offset"] -= 4


def _gap(entries):
    entries[-1]["offset"] += 4
    return bytes(4)


def _out_of_order(entries):
    entries.reverse()


def _listed_twice(entries):
    last = entries[-1]
    entries.append(dict(last, offset=last["offset"] + last["size"]))
    return bytes(last["size"])


class TestEntriesTileThePayload:
    def test_unedited_rebuild_loads(self, tiny_model):
        blob = save(tiny_model)
        assert save(load(_with_entries(blob, lambda entries: None))) == blob

    @pytest.mark.parametrize("edit", [_trailing_bytes, _overlap, _gap, _out_of_order,
                                      _listed_twice])
    def test_rejected(self, tiny_model, edit):
        with pytest.raises(ContainerCorruptionError):
            load(_with_entries(save(tiny_model), edit))


def _swapped_bn_stats(entries):
    # the two entries keep their dims, offsets and sizes; only the names trade
    mean, var = (e for e in entries if e["name"] in ("backbone.stem0.bn.mean",
                                                     "backbone.stem0.bn.var"))
    mean["name"], var["name"] = var["name"], mean["name"]


def test_same_shape_entries_with_swapped_names_are_rejected(tiny_model):
    with pytest.raises(ContainerCorruptionError):
        load(_with_entries(save(tiny_model), _swapped_bn_stats))


# a value per entry field, of its own kind and of the wrong JSON kinds
_FIELD_VALUES = st.one_of(st.text(max_size=12), st.integers(-8, 1 << 40),
                          st.lists(st.integers(0, 64), max_size=4),
                          st.none(), st.booleans(), st.floats())


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_one_edited_entry_field_is_rejected(tiny_model, data):
    blob = save(tiny_model)
    (header_len,) = struct.unpack_from("<Q", blob, 5)
    count = len(json.loads(blob[13:13 + header_len])["entries"])
    index = data.draw(st.integers(0, count - 1), label="entry")
    field = data.draw(st.sampled_from(["name", "dims", "offset", "size"]), label="field")
    value = data.draw(_FIELD_VALUES, label="value")

    def edit(entries):
        assume(value != entries[index][field])
        entries[index][field] = value
    with pytest.raises(ContainerCorruptionError):
        load(_with_entries(blob, edit))


# save() digests of build_model(config, seed=0), unfused then fused: a change
# to the tree, the builders, the fold or the loader must leave these bytes alone.
PINNED_SHA256 = {
    "tiny": ("7e4ef82b6c5e6c13e4cbfe27e5ae38b93d097bfe5ea4cc23246e9c5d41777f9a",
             "19004824f6b621d39a82d44cdff5b28ce09eb85fa099b65f8ce312eb9f0c98d2"),
    "full": ("467c1fd3b6c06e0cee1f9f342f3692c272ea23bb193bf7d7df89965ed4c685de",
             "61d3eb3375a14d3b029f3ed86e51f39b2e46feb456895ed5e99a65c2e8ed8e9b"),
}


def _sha256(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def _reachable_arrays(node):
    if isinstance(node, np.ndarray):
        yield node
    elif isinstance(node, list):
        for child in node:
            yield from _reachable_arrays(child)
    elif dataclasses.is_dataclass(node):
        for f in dataclasses.fields(node):
            yield from _reachable_arrays(getattr(node, f.name))


class TestLoadContracts:
    @pytest.mark.parametrize("name, config", [("tiny", tiny_config()),
                                              ("full", full_config())])
    def test_seeded_bytes_pinned_and_roundtrip(self, name, config):
        # one model or blob alive at a time: the full config is 166 MB unfused
        model = build_model(config, seed=0)
        for digest in PINNED_SHA256[name]:
            blob = save(model)
            del model
            assert _sha256(blob) == digest
            model = load(blob)
            del blob
            assert _sha256(save(model)) == digest
            if not model.fused:
                model = fuse_model(model)

    @pytest.mark.parametrize("fused", [False, True])
    def test_no_unfilled_array_survives(self, tiny_model, fused):
        source = fuse_model(tiny_model) if fused else tiny_model
        restored = load(save(source))
        entries = named_arrays(restored)
        entry_ids = {id(a) for a in entries.values()}
        assert all(id(a) in entry_ids for a in _reachable_arrays(restored))
        for name, expected in named_arrays(source).items():
            np.testing.assert_array_equal(entries[name], expected)

    @pytest.mark.parametrize("fused", [False, True])
    def test_load_draws_no_random_numbers(self, tiny_model, fused, monkeypatch):
        blob = save(fuse_model(tiny_model) if fused else tiny_model)

        def no_rng(*args, **kwargs):
            raise AssertionError("container.load drew random numbers")
        monkeypatch.setattr(np.random, "default_rng", no_rng)
        assert load(blob).fused is fused


def _owner(arr: np.ndarray) -> np.ndarray:
    while arr.base is not None:
        arr = arr.base
    return arr


class TestOneAlignedPayload:
    @pytest.mark.parametrize("fused", [False, True])
    def test_entries_are_aligned_views_of_one_buffer(self, tiny_model, fused, tmp_path):
        source = fuse_model(tiny_model) if fused else tiny_model
        path = tmp_path / "model.acfd"
        save_file(source, path)
        from_file, from_blob = load_file(path), load(path.read_bytes())
        for restored in (from_file, from_blob):
            arrays = list(named_arrays(restored).values())
            owners = {id(_owner(a)) for a in arrays}
            assert len(owners) == 1
            assert all(a.flags.aligned and a.dtype == np.float32 for a in arrays)
        a, b = named_arrays(from_file), named_arrays(from_blob)
        assert a.keys() == b.keys()
        for name in a:
            np.testing.assert_array_equal(a[name], b[name])
            assert not np.shares_memory(a[name], b[name])
