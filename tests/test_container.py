import dataclasses
import errno
import gc
import hashlib
import json
import os
import struct
import subprocess
import sys
import threading
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from acfd import backbone, cli, tensor_ops
from acfd.container import (ContainerCorruptionError, ContainerFormatError,
                            load, load_file, save, save_file)
from acfd.model import (build_model, forward, full_config, fuse_model,
                        named_arrays, tiny_config)
from acfd.ppm import write_ppm
from acfd.tensor_ops import ConvSpec, FileMapping, conv2d, linear, resident


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


# JSON numbers equal to the integers save writes, which are not integers
def _float_offset(entries):
    entries[0]["offset"] = 0.0


def _false_offset(entries):
    entries[0]["offset"] = False


def _float_size(entries):
    entries[-1]["size"] = float(entries[-1]["size"])


def _true_dims(entries):
    for entry in entries:
        entry["dims"] = [True if d == 1 else d for d in entry["dims"]]


def _float_dims(entries):
    entries[0]["dims"] = [float(d) for d in entries[0]["dims"]]


class TestEntriesTileThePayload:
    def test_unedited_rebuild_loads(self, tiny_model):
        blob = save(tiny_model)
        assert save(load(_with_entries(blob, lambda entries: None))) == blob

    @pytest.mark.parametrize("edit", [_trailing_bytes, _overlap, _gap, _out_of_order,
                                      _listed_twice, _float_offset, _false_offset,
                                      _float_size, _true_dims, _float_dims])
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
        # 4.0 or true for 4 or 1 is an edit too
        assume(value != entries[index][field] or type(value) is not type(entries[index][field]))
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
    def test_entries_are_aligned_views_of_one_buffer(self, tiny_model, fused):
        # load copies a blob's payload into one fresh buffer, which may be written
        restored = load(save(fuse_model(tiny_model) if fused else tiny_model))
        arrays = list(named_arrays(restored).values())
        assert len({id(_owner(a)) for a in arrays}) == 1
        assert all(a.flags.aligned and a.flags.writeable and a.dtype == np.float32
                   for a in arrays)


def _mapping(arr: np.ndarray):
    """The object whose buffer an array views through np.frombuffer, or None."""
    while isinstance(arr.base, np.ndarray):
        arr = arr.base
    return getattr(arr.base, "obj", None)


def _mapped_rss_kb(path) -> int:
    """Resident kB of this process's mappings of the file at `path`."""
    with open("/proc/self/smaps") as fh:
        lines = fh.read().splitlines()
    kb, inside = 0, False
    for line in lines:
        if not line[:1].isupper():  # a mapping's first line: address range, ..., path
            inside = line.endswith(" " + str(path))
        elif inside and line.startswith("Rss:"):
            kb += int(line.split()[1])
    return kb


needs_smaps = pytest.mark.skipif(not os.path.exists("/proc/self/smaps"),
                                 reason="reads /proc/self/smaps")


class TestMappedLoad:
    """load_file maps a fused container, and ``conv2d`` and ``linear`` read
    their weight and bias into memory per call with ``resident``, through
    os.preadv, never through the mapping. An unfused container is read whole."""

    def test_entries_are_read_only_views_of_one_mapping(self, tiny_model, tmp_path):
        path = tmp_path / "model.acfd"
        save_file(fuse_model(tiny_model), path)
        from_file, from_blob = named_arrays(load_file(path)), named_arrays(load(path.read_bytes()))
        mappings = {id(_mapping(a)): _mapping(a) for a in from_file.values()}
        assert len(mappings) == 1 and isinstance(mappings.popitem()[1], FileMapping)
        assert from_file.keys() == from_blob.keys()
        for name, a in from_file.items():
            assert a.dtype == np.float32 and not a.flags.writeable
            assert a.tobytes() == from_blob[name].tobytes()

    def test_unfused_entries_are_aligned_views_of_one_read_buffer(self, tiny_model, tmp_path):
        path = tmp_path / "model.acfd"
        save_file(tiny_model, path)
        from_file, from_blob = named_arrays(load_file(path)), named_arrays(load(path.read_bytes()))
        assert len({id(_owner(a)) for a in from_file.values()}) == 1
        for name, a in from_file.items():
            assert a.flags.aligned and a.flags.writeable and _mapping(a) is None
            assert a.tobytes() == from_blob[name].tobytes()

    def test_unfused_short_read_is_a_changed_payload(self, tiny_model, tmp_path, monkeypatch):
        # the first read finds the file's end where the header ends, as when
        # the file is cut after the header is read
        path = tmp_path / "model.acfd"
        save_file(tiny_model, path)
        monkeypatch.setattr(os, "preadv", lambda fd, buffers, offset: 0)
        with pytest.raises(ContainerCorruptionError, match="^payload changed while reading$"):
            load_file(path)

    def test_a_mapped_model_saves_over_its_own_file(self, tiny_model, tmp_path):
        path = tmp_path / "model.acfd"
        save_file(fuse_model(tiny_model), path)
        blob = path.read_bytes()
        save_file(load_file(path), path)
        assert path.read_bytes() == blob

    def test_resident_keeps_arrays_that_view_no_mapping(self, tiny_model):
        stage = tiny_model.backbone.stages[0][0]
        square = stage.acbs[0].branches[0].conv  # biased by its batch norm alone
        for arrays in ((square.weight, square.bias), (stage.ese.weight, stage.ese.bias),
                       (tiny_model.head.cls_out.weight, tiny_model.head.cls_out.bias)):
            got = resident(*arrays)
            assert len(got) == len(arrays) and all(a is b for a, b in zip(got, arrays))

    @needs_smaps
    def test_resident_reads_a_mapped_block_without_its_pages(self, tmp_path):
        # a 2.4 MB kernel at 2 mod 4, where a payload after the header may start
        rng = np.random.default_rng(0)
        weight = rng.standard_normal((256, 256, 3, 3), dtype=np.float32)
        bias = rng.standard_normal(256, dtype=np.float32)
        path = tmp_path / "block.bin"
        path.write_bytes(b"\0\0" + weight.tobytes() + bias.tobytes())
        with open(path, "rb") as fh:
            payload = np.frombuffer(FileMapping(fh), np.uint8)[2:]
        mapped = (payload[:weight.nbytes].view("<f4").reshape(weight.shape),
                  payload[weight.nbytes:].view("<f4"))
        assert not mapped[0].flags.aligned
        x = rng.standard_normal((1, 256, 8, 8), dtype=np.float32)
        rows = rng.standard_normal((2, 256 * 9), dtype=np.float32)
        want_conv = conv2d(x, ConvSpec(weight, bias, padding=(1, 1))).tobytes()
        want_linear = linear(rows, weight.reshape(256, -1), bias).tobytes()
        for _ in range(2):
            copies = resident(*mapped)
            assert resident(mapped[0], None)[1] is None
            for got, want in zip(copies, (weight, bias), strict=True):
                assert got.flags.aligned and got.flags.writeable
                assert got.tobytes() == want.tobytes()
                assert not np.shares_memory(got, payload)
            assert conv2d(x, ConvSpec(*mapped, padding=(1, 1))).tobytes() == want_conv
            assert linear(rows, mapped[0].reshape(256, -1), mapped[1]).tobytes() == want_linear
            assert _mapped_rss_kb(path) == 0
        mapped[0].sum()  # a read through the mapping maps the pages it touches
        assert _mapped_rss_kb(path) > weight.nbytes // 1024 * 9 // 10

    @needs_smaps
    def test_load_and_forward_map_no_page(self, tiny_model, probe, tmp_path):
        path = tmp_path / "model.acfd"
        save_file(fuse_model(tiny_model), path)
        m = load_file(path)
        out = forward(m, probe)
        assert _mapped_rss_kb(path) == 0
        want = forward(load(path.read_bytes()), probe)
        for got, ref in zip(out.cls + out.reg, want.cls + want.reg, strict=True):
            assert got.tobytes() == ref.tobytes()

    def test_copies_die_without_a_gc(self, tiny_model, tmp_path):
        path = tmp_path / "model.acfd"
        save_file(fuse_model(tiny_model), path)
        conv = load_file(path).backbone.stages[0][0].acbs[0]
        gc.disable()
        try:
            copies = resident(conv.weight, conv.bias)
            refs = [weakref.ref(a) for a in copies]
            del copies
            assert [ref() for ref in refs] == [None] * len(refs)
        finally:
            gc.enable()

    def test_a_banded_chain_holds_one_conv_of_weights_at_a_time(self, tmp_path, monkeypatch):
        # stage 3's first block of the full fused model at 512x512 runs its
        # chain of five 3x3 convs and the projection in two bands: whenever a
        # conv runs a GEMM, the only live copies of mapped weights are the
        # ones it read, and the GEMM's kernel is the copy of its weight
        path = tmp_path / "full.acfd"
        save_file(fuse_model(build_model(full_config(), seed=1)), path)
        block = load_file(path).backbone.stages[2][0]
        reads, gemms = [], []
        read, matmul = tensor_ops.resident, np.matmul

        def traced_read(*arrays):
            copies = read(*arrays)
            reads.append([weakref.ref(a) for a in copies if a is not None])
            return copies

        def checked_matmul(kernel, cols, out):
            live = [a for refs in reads for a in (ref() for ref in refs) if a is not None]
            latest = [ref() for ref in reads[-1]]
            gemms.append(all(any(a is b for b in latest) for a in live)
                         and kernel.base is latest[0])
            return matmul(kernel, cols, out=out)
        monkeypatch.setattr(tensor_ops, "resident", traced_read)
        monkeypatch.setattr(np, "matmul", checked_matmul)
        x = np.random.default_rng(2).standard_normal((1, 512, 32, 32), dtype=np.float32)
        gc.disable()
        try:
            backbone.aosa_forward(x, block)
        finally:
            gc.enable()
        # one read per conv and band, and one for the eSE
        assert len(reads) > len(block.acbs) + 2 and gemms and all(gemms)

    @pytest.mark.parametrize("cut", ["payload start", "mid payload", "last byte"])
    def test_file_cut_after_load_is_one_bad_container_line(self, tiny_model, cut, tmp_path):
        # the file is cut once load_file has mapped it, as when a container is
        # rewritten in place while a detect runs: the first block past the new
        # end reads short, so the detect exits 1, and nothing reads the mapping
        # past the end, which would raise SIGBUS (so it runs in a child)
        path = tmp_path / "model.acfd"
        save_file(fuse_model(tiny_model), path)
        blob = path.read_bytes()
        start = 13 + struct.unpack_from("<Q", blob, 5)[0]
        size = {"payload start": start, "mid payload": (start + len(blob)) // 2,
                "last byte": len(blob) - 1}[cut]
        image = tmp_path / "scene.ppm"
        write_ppm(image, np.zeros((4, 4, 3), dtype=np.uint8))
        script = """
import os, sys
from acfd import cli, container
load_file = container.load_file
def load_then_cut(path):
    model = load_file(path)
    os.truncate(path, int(sys.argv[3]))
    return model
container.load_file = load_then_cut
sys.exit(cli.main(["detect", sys.argv[1], sys.argv[2], "--single-scale", "128x128"]))
"""
        proc = subprocess.run([sys.executable, "-c", script, str(image), str(path), str(size)],
                              capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stdout) == (cli.EXIT_IO, "")
        assert proc.stderr == f"bad container {path}: payload changed while reading\n"


def _file_offset(arr: np.ndarray) -> int:
    """The byte of the mapped file where an array of ``load_file`` starts."""
    root = arr
    while isinstance(root.base, np.ndarray):
        root = root.base
    return arr.__array_interface__["data"][0] - root.__array_interface__["data"][0]


class TestPartRead:
    """The forward reads a mapped container in parts, a conv's weight and bias
    at a time, each through ``resident``: the copies hold the arrays of the blob,
    a part that reads short is a changed payload, and a read that fails is
    one ``cannot read`` line."""

    @pytest.fixture()
    def saved(self, tiny_model, tmp_path):
        path = tmp_path / "model.acfd"
        save_file(fuse_model(tiny_model), path)
        blob = path.read_bytes()
        start = 13 + struct.unpack_from("<Q", blob, 5)[0]
        return path, blob, start

    @staticmethod
    def _parts(path, parts):
        """The names of the container's arrays in payload order, as `parts`
        contiguous runs, and the file's arrays by name."""
        arrays = named_arrays(load_file(path))
        names = sorted(arrays, key=lambda name: _file_offset(arrays[name]))
        return [names[len(names) * i // parts:len(names) * (i + 1) // parts]
                for i in range(parts)], arrays

    @pytest.mark.parametrize("parts", range(1, 6))
    def test_parts_load_the_arrays_of_the_blob(self, saved, parts):
        path, blob, start = saved
        runs, from_file = self._parts(path, parts)
        from_blob = named_arrays(load(blob))
        assert from_file.keys() == from_blob.keys()
        # the runs tile the payload, each array right after the one before
        end = start
        for name in (name for run in runs for name in run):
            assert _file_offset(from_file[name]) == end
            end += from_file[name].nbytes
        assert end == len(blob)
        for run in runs:
            copies = resident(*(from_file[name] for name in run))
            for name, got in zip(run, copies, strict=True):
                assert got.flags.aligned and got.flags.writeable and _mapping(got) is None
                assert got.tobytes() == from_blob[name].tobytes()

    @pytest.mark.parametrize("parts, short", [(1, 0), (2, 0), (2, 1), (5, 0), (5, 2), (5, 4)])
    def test_short_read_in_any_part_is_a_changed_payload(self, saved, parts, short):
        # the file ends halfway through part `short`, cut once load_file has
        # mapped it: the earlier parts read whole
        path, blob, start = saved
        runs, arrays = self._parts(path, parts)
        lo = _file_offset(arrays[runs[short][0]])
        hi = _file_offset(arrays[runs[short][-1]]) + arrays[runs[short][-1]].nbytes
        os.truncate(path, (lo + hi) // 2)
        for run in runs[:short]:
            resident(*(arrays[name] for name in run))
        with pytest.raises(ContainerCorruptionError, match="^payload changed while reading$"):
            resident(*(arrays[name] for name in runs[short]))

    @pytest.mark.parametrize("parts", [2, 5])
    def test_error_in_a_later_part_is_one_cannot_read_line(self, saved, parts,
                                                          monkeypatch, capsys):
        # every read of part 1 on fails, as on a bad disk sector
        path, blob, start = saved
        runs, arrays = self._parts(path, parts)
        second, preadv = _file_offset(arrays[runs[1][0]]), os.preadv

        def failing(fd, buffers, offset):
            if offset >= second:
                raise OSError(errno.EIO, "Input/output error")
            return preadv(fd, buffers, offset)
        monkeypatch.setattr(os, "preadv", failing)
        before = set(threading.enumerate())
        image = path.parent / "scene.ppm"
        write_ppm(image, np.zeros((4, 4, 3), dtype=np.uint8))
        assert cli.main(["detect", str(image), str(path)]) == cli.EXIT_IO
        assert set(threading.enumerate()) <= before
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"cannot read {path}: [Errno 5] Input/output error\n"
