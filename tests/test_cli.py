import dataclasses
import hashlib
import json
import resource
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from acfd import cli, container, model, tensor_ops
from acfd.anchors import generate_anchors
from acfd.backbone import StageConfig
from acfd.cli import build_parser, main
from acfd.matching import dam_match
from acfd.model import build_model, fuse_model, tiny_config
from acfd.ppm import write_ppm


# `acfd detect` JSONL of the ppm_image fixture through the fused tiny container
# at the three default scales
GOLDEN_DETECT_SHA256 = "04582e9a06a7e659ddea09799c55cfc1f32b50eb1f743b2dfdae9085e34d1665"
# the same output when conv2d multiplied row-major columns by the transposed
# kernel (cols @ kernel.T); BLAS rounds that operand order differently
ROW_MAJOR_GEMM_DETECT = (Path(__file__).parent / "data"
                         / "detect_default_scales_row_major_gemm.jsonl")


def _without(d: dict, key: str) -> dict:
    return {k: v for k, v in d.items() if k != key}


def _assert_matches_row_major_gemm(out: Path) -> None:
    lines = [json.loads(l) for l in out.read_text().splitlines()]
    before = [json.loads(l) for l in ROW_MAJOR_GEMM_DETECT.read_text().splitlines()]
    assert len(lines) == len(before) == 100
    for now, then in zip(lines, before):
        assert now.keys() == then.keys() and now["image_id"] == then["image_id"]
        for key in ("x1", "y1", "x2", "y2", "score"):
            assert abs(now[key] - then[key]) <= 1e-3, (key, now, then)


def _with_first_value(path: Path, name: str, value: float, out: Path) -> Path:
    """A copy of the container at `path` whose parameter `name` starts with `value`."""
    blob = bytearray(path.read_bytes())
    (header_len,) = struct.unpack_from("<Q", blob, 5)
    entries = json.loads(blob[13:13 + header_len])["entries"]
    offset = next(e["offset"] for e in entries if e["name"] == name)
    struct.pack_into("<f", blob, 13 + header_len + offset, value)
    out.write_bytes(blob)
    return out


@pytest.fixture(scope="module")
def tiny_container(tmp_path_factory):
    path = tmp_path_factory.mktemp("weights") / "tiny.acfd"
    container.save_file(build_model(tiny_config(), seed=0), path)
    return path


@pytest.fixture(scope="module")
def fused_container(tmp_path_factory, tiny_container):
    path = tmp_path_factory.mktemp("weights") / "tiny-fused.acfd"
    container.save_file(fuse_model(container.load_file(tiny_container)), path)
    return path


@pytest.fixture()
def blas():
    """numpy's OpenBLAS thread hook, its count restored afterwards; None if missing."""
    try:
        hook = tensor_ops.openblas_threads()
    except OSError:
        yield None
        return
    found = hook.get()
    try:
        yield hook
    finally:
        hook.set(found)


@pytest.fixture()
def ppm_image(tmp_path):
    rng = np.random.default_rng(3)
    pixels = rng.integers(0, 255, size=(96, 128, 3), dtype=np.uint8)
    path = tmp_path / "scene.ppm"
    write_ppm(path, pixels)
    return path


class TestFuse:
    def test_success_and_reported_error(self, tiny_container, tmp_path, capsys):
        out = tmp_path / "fused.acfd"
        assert main(["fuse", str(tiny_container), str(out)]) == 0
        stdout = capsys.readouterr().out
        assert out.exists()
        assert container.load_file(out).fused
        err_line = [l for l in stdout.splitlines() if "max abs error" in l][0]
        assert float(err_line.split(":")[1]) <= 1e-4
        removed = [l for l in stdout.splitlines() if "parameters" in l][0]
        assert "removed" in removed

    def test_missing_input_is_io_error(self, tmp_path):
        assert main(["fuse", str(tmp_path / "nope.acfd"),
                     str(tmp_path / "out.acfd")]) == 1

    def test_already_fused_is_usage_error(self, fused_container, tmp_path):
        assert main(["fuse", str(fused_container), str(tmp_path / "x.acfd")]) == 2

    @pytest.mark.parametrize("blob", [
        b"ACFD\0x",                                          # cut in the header length
        b"ACFD\0" + (10**9).to_bytes(8, "little") + b"{}",  # header past the end
        b"ACFD\0" + (2).to_bytes(8, "little") + b"[]",      # header not an object
    ])
    def test_malformed_header_is_one_line_io_error(self, blob, tmp_path, capsys):
        bad = tmp_path / "bad.acfd"
        bad.write_bytes(blob)
        assert main(["fuse", str(bad), str(tmp_path / "out.acfd")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("bad container") and err.count("\n") == 1


    def test_non_finite_parameter_is_one_line_io_error(self, tiny_container, tmp_path,
                                                       capsys):
        name = "neck.layer0.td0.acb.square.weight"
        bad = _with_first_value(tiny_container, name, np.nan, tmp_path / "nan.acfd")
        out = tmp_path / "out.acfd"
        assert main(["fuse", str(bad), str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"bad container {bad}: non-finite parameter {name}\n"
        assert not out.exists()


class TestVerify:
    def test_all_checks_pass(self, capsys):
        assert main(["verify", "--seed", "0"]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
        assert len(lines) >= 6
        assert all(l.startswith("PASS") for l in lines)

    def test_injected_fault_fails(self, capsys):
        assert main(["verify", "--seed", "0", "--inject-fault"]) == 3
        captured = capsys.readouterr()
        assert "acb-fusion" in captured.out + captured.err

    def test_json_report(self, capsys):
        assert main(["verify", "--seed", "1", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is True
        assert len(report["checks"]) >= 6


class TestMatch:
    def write_inputs(self, tmp_path, annotations, predictions):
        ann = tmp_path / "ann.json"
        pred = tmp_path / "pred.json"
        ann.write_text(json.dumps(annotations))
        pred.write_text(json.dumps(predictions))
        return ann, pred

    def test_counts_match_library(self, tmp_path, capsys):
        anchors = generate_anchors((128, 128))
        gts = [[20.0, 20.0, 52.0, 52.0], [70.0, 64.0, 112.0, 110.0]]
        ann, pred = self.write_inputs(
            tmp_path, [{"file": "a.ppm", "boxes": gts}], [])
        assert main(["match", str(ann), str(pred), "--image-size", "128x128"]) == 0
        out = capsys.readouterr().out
        row = out.splitlines()[-1].split()
        expected = dam_match(anchors, anchors, np.asarray(gts), 0.35, 0.7)
        assert int(row[2]) == expected.n1
        assert int(row[3]) == expected.n2

    def test_unreachable_t2_gives_zero_compensated(self, tmp_path, capsys):
        gts = [[20.0, 20.0, 52.0, 52.0]]
        ann, pred = self.write_inputs(
            tmp_path, [{"file": "a.ppm", "boxes": gts}], [])
        assert main(["match", str(ann), str(pred), "--image-size", "128x128",
                     "--t2", "1.01"]) == 0
        row = capsys.readouterr().out.splitlines()[-1].split()
        assert int(row[3]) == 0

    def test_threshold_sweep_rows(self, tmp_path, capsys):
        ann, pred = self.write_inputs(
            tmp_path, [{"file": "a.ppm", "boxes": [[10.0, 10.0, 40.0, 40.0]]}], [])
        assert main(["match", str(ann), str(pred), "--image-size", "128x128",
                     "--t1", "0.35,0.5", "--t2", "0.35,0.7,1.01"]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
        assert len(lines) == 1 + 2 * 3  # header + grid

    def test_explicit_predictions_drive_compensation(self, tmp_path, capsys):
        anchors = generate_anchors((128, 128))
        gt = [30.0, 30.0, 60.0, 60.0]
        regressed = np.tile(np.asarray(gt), (len(anchors), 1))
        ann, pred = self.write_inputs(
            tmp_path, [{"file": "a.ppm", "boxes": [gt]}],
            [{"file": "a.ppm", "boxes": regressed.tolist()}])
        assert main(["match", str(ann), str(pred), "--image-size", "128x128"]) == 0
        row = capsys.readouterr().out.splitlines()[-1].split()
        expected = dam_match(anchors, regressed, np.asarray([gt]), 0.35, 0.7)
        assert int(row[2]) == expected.n1
        assert int(row[3]) == expected.n2
        assert expected.n2 == len(anchors) - expected.n1  # all others compensated

    def test_empty_annotations(self, tmp_path, capsys):
        ann, pred = self.write_inputs(tmp_path, [], [])
        assert main(["match", str(ann), str(pred)]) == 0
        row = capsys.readouterr().out.splitlines()[-1].split()
        assert int(row[2]) == 0 and int(row[3]) == 0

    @pytest.mark.parametrize("annotations, predictions", [
        ([{"file": "a.ppm"}], []),
        ([{"file": "a.ppm", "boxes": [[1.0, 2.0, 3.0, 4.0]]}], [{"file": "a.ppm"}]),
        ({"file": "a.ppm", "boxes": []}, []),
        ([{"file": "a.ppm", "boxes": []}], {"file": "a.ppm"}),
        (["a.ppm"], []),
        ([{"file": "a.ppm", "boxes": [1.0, 2.0, 3.0, 4.0, 5.0]}], []),
        ([{"file": "a.ppm", "boxes": [[1.0, 2.0, 3.0]]}], []),
        ([{"file": "a.ppm", "boxes": [["x", 2.0, 3.0, 4.0]]}], []),
        ([{"file": "a.ppm", "boxes": [[1.0, 2.0], [3.0]]}], []),
        ([{"file": ["a.ppm"], "boxes": []}], []),
        ([], [{"file": "a.ppm", "boxes": [[1.0, 2.0, 3.0, 4.0]]}]),
        ([], [{"file": "a.ppm", "boxes": [1.0, 2.0, 3.0]}]),
    ], ids=["annotation-without-boxes", "prediction-without-boxes", "annotations-object",
            "predictions-object", "entry-not-object", "five-numbers", "three-per-box",
            "non-numeric", "ragged", "list-file", "one-box-not-one-per-anchor",
            "prediction-three-numbers"])
    def test_wrong_shape_is_one_line_io_error(self, tmp_path, capsys, annotations,
                                              predictions):
        ann, pred = self.write_inputs(tmp_path, annotations, predictions)
        assert main(["match", str(ann), str(pred), "--image-size", "128x128"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("malformed input") and captured.err.count("\n") == 1

    def test_malformed_json(self, tmp_path):
        ann = tmp_path / "bad.json"
        ann.write_text("{not json")
        pred = tmp_path / "pred.json"
        pred.write_text("[]")
        assert main(["match", str(ann), str(pred)]) == 1


@pytest.mark.parametrize("command", ["detect", "fuse", "match"])
def test_deeply_nested_json_is_one_line_io_error(command, ppm_image, tmp_path):
    # json gives up on the nesting with RecursionError, not JSONDecodeError
    deep = b"[" * 200_000 + b"]" * 200_000
    if command == "match":
        (tmp_path / "deep.json").write_bytes(deep)
        argv, prefix = ["match", "deep.json", "deep.json"], "malformed JSON: "
    else:
        (tmp_path / "deep.acfd").write_bytes(
            b"ACFD\0" + struct.pack("<Q", len(deep)) + deep)
        argv = (["detect", str(ppm_image), "deep.acfd"] if command == "detect"
                else ["fuse", "deep.acfd", "out.acfd"])
        prefix = "bad container deep.acfd: unreadable header: "
    proc = subprocess.run([sys.executable, "-m", "acfd.cli", *argv], cwd=tmp_path,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 1
    assert proc.stderr.startswith(prefix) and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


class TestDetect:
    def test_smoke_and_determinism(self, ppm_image, tiny_container, tmp_path):
        out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        args = ["detect", str(ppm_image), str(tiny_container),
                "--scales", "128x128,256x256"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        for line in out1.read_text().splitlines():
            rec = json.loads(line)
            assert set(rec) == {"image_id", "x1", "y1", "x2", "y2", "score"}
            assert rec["image_id"] == "scene"

    def test_image_id_with_quote_and_backslash_is_valid_json(self, ppm_image,
                                                             tiny_container, tmp_path):
        image = tmp_path / 'a"b\\c.ppm'
        image.write_bytes(ppm_image.read_bytes())
        proc = subprocess.run(
            [sys.executable, "-m", "acfd.cli", "detect", str(image), str(tiny_container),
             "--single-scale", "128x128"],
            capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert lines
        assert all(json.loads(line)["image_id"] == 'a"b\\c' for line in lines)

    def test_single_scale(self, ppm_image, tiny_container, capsys):
        assert main(["detect", str(ppm_image), str(tiny_container),
                     "--single-scale", "128x128"]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("mean", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("frame_hw,scale_hw", [
        ((37, 53), (37, 53)),       # the scale is the frame: a copy, no resample
        ((37, 53), (128, 200)),     # upsampled, padded to 128x256
        ((95, 127), (61, 90)),      # downsampled, odd sizes on both sides
    ])
    def test_scale_input_matches_whole_frame_normalization(self, mean, frame_hw,
                                                           scale_hw):
        # per plane, then resized: the same bits as normalizing the whole NCHW
        # frame at once and resizing that into the padded grid
        pixels = np.random.default_rng(4).integers(0, 256, (*frame_hw, 3), dtype=np.uint8)
        pixels[0, 0], pixels[-1, -1] = 0, 255
        image = np.empty((1, 3, *frame_hw), dtype=np.float32)
        image[0] = pixels.transpose(2, 0, 1)
        image /= 255.0
        image -= mean
        want = np.zeros((1, 3, *cli.pad_to_grid(scale_hw)), dtype=np.float32)
        tensor_ops.bilinear_resize(image, scale_hw,
                                   out=want[:, :, :scale_hw[0], :scale_hw[1]])
        got = cli._scale_input(pixels, mean, scale_hw)
        assert got.dtype == np.float32 and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_peak_memory_is_below_the_float_frame(self, fused_container, tmp_path):
        # the decoded frame stays uint8 (9 MB here) and each scale normalizes
        # one channel plane at a time, so a detect never holds the whole
        # float32 frame (36 MB here)
        pixels = np.random.default_rng(5).integers(0, 256, (1500, 2000, 3), dtype=np.uint8)
        image = tmp_path / "large.ppm"
        write_ppm(image, pixels)
        float_frame = pixels.size * 4
        del pixels
        tracemalloc.start()
        try:
            assert main(["detect", str(image), str(fused_container),
                         "--single-scale", "128x128", "--out", str(tmp_path / "o.jsonl")]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < float_frame

    def test_worker_threads_preserve_output(self, ppm_image, tiny_container, blas,
                                            tmp_path, monkeypatch):
        args = ["detect", str(ppm_image), str(tiny_container),
                "--scales", "128x128,256x256,384x256"]
        # the shipped column blocks, then one-row blocks, so scales that run
        # at once each fill their own columns many times per conv
        for block_bytes in (tensor_ops.COLS_BLOCK_BYTES, 1):
            monkeypatch.setattr(tensor_ops, "COLS_BLOCK_BYTES", block_bytes)
            outputs = set()
            for workers in (1, 2, 3):
                monkeypatch.setattr(cli, "_usable_cpus", lambda: workers)
                for threads in ((1, 2) if blas else (None,)):
                    if blas:
                        blas.set(threads)
                    out = tmp_path / f"{block_bytes}-{workers}-{threads}.jsonl"
                    assert main(args + ["--out", str(out)]) == 0
                    outputs.add(out.read_bytes())
            assert len(outputs) == 1

    def test_blas_thread_count_is_restored(self, ppm_image, tiny_container, blas,
                                           monkeypatch, capsys):
        if blas is None:
            pytest.skip("numpy's OpenBLAS has no thread hook")
        args = ["detect", str(ppm_image), str(tiny_container),
                "--scales", "128x128,256x256,384x256"]
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
        forward, seen = model.forward, []

        def counting_forward(m, image):
            seen.append(blas.get())
            return forward(m, image)
        monkeypatch.setattr(model, "forward", counting_forward)
        for threads in (2, 3):
            blas.set(threads)
            assert main(args) == 0
            assert blas.get() == threads
        assert seen == [1] * 6

        def failing_forward(m, image):
            if image.shape[2] == 256:
                raise RuntimeError("forward failed")
            return forward(m, image)
        monkeypatch.setattr(model, "forward", failing_forward)
        with pytest.raises(RuntimeError, match="forward failed"):
            main(args)
        assert blas.get() == 3
        capsys.readouterr()

    def test_concurrent_scales_return_in_scale_order(self, tiny_container, blas,
                                                     monkeypatch):
        # submitted largest padded grid first; each scale's candidates come back
        # in scale order, equal to the ones the serial path computes
        pixels = np.random.default_rng(0).integers(0, 256, (96, 128, 3), dtype=np.uint8)
        m = container.load_file(tiny_container)
        scales = [(128, 128), (384, 256), (256, 256)]
        if blas:
            blas.set(1)
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
        serial = cli._detect_scales(pixels, 0.5, m, scales, cli.CONF_THRESHOLD)
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
        pooled = cli._detect_scales(pixels, 0.5, m, scales, cli.CONF_THRESHOLD)
        assert len(pooled) == len(serial) == len(scales)
        assert len({scores.tobytes() for _, scores in serial}) == len(scales)  # distinct
        for (boxes, scores), (want_boxes, want_scores) in zip(pooled, serial):
            np.testing.assert_array_equal(boxes, want_boxes)
            np.testing.assert_array_equal(scores, want_scores)

    def test_pooled_non_finite_scale_is_named(self, ppm_image, tiny_container, blas,
                                              monkeypatch, capsys):
        if blas is None:
            pytest.skip("numpy's OpenBLAS has no thread hook")
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
        forward = model.forward

        def nan_forward(m, image):
            output = forward(m, image)
            if image.shape[2:] == (256, 256):  # the second scale only
                output.cls[0][0, 0, 0, 0] = np.nan
            return output
        monkeypatch.setattr(model, "forward", nan_forward)
        assert main(["detect", str(ppm_image), str(tiny_container),
                     "--scales", "128x128,256x256,384x256"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"bad container {tiny_container}: non-finite head output "
                                "at scale 256x256\n")

    def test_missing_blas_hook_runs_serially(self, ppm_image, tiny_container, tmp_path,
                                             monkeypatch, capsys):
        args = ["detect", str(ppm_image), str(tiny_container),
                "--scales", "128x128,256x256,384x256"]
        serial, fallback = tmp_path / "serial.jsonl", tmp_path / "fallback.jsonl"
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
        assert main(args + ["--out", str(serial)]) == 0

        def missing_hook():
            raise OSError("libscipy_openblas.so: undefined symbol")
        monkeypatch.setattr(cli, "openblas_threads", missing_hook)
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 3)
        monkeypatch.setattr(cli, "ThreadPoolExecutor", None)  # any pool would fail
        assert main(args + ["--out", str(fallback)]) == 0
        assert fallback.read_bytes() == serial.read_bytes()
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "undefined symbol" in err

    def test_huge_header_token_is_one_line_io_error_at_once(self, tmp_path,
                                                            tiny_container):
        # a 1 MB width: growing the token byte by byte would take seconds
        bad = tmp_path / "wide.ppm"
        bad.write_bytes(b"P6\n" + b"9" * 2**20 + b" 4\n255\n")
        proc = subprocess.run([sys.executable, "-m", "acfd.cli", "detect", str(bad),
                               str(tiny_container)], capture_output=True, text=True,
                              timeout=5)
        assert proc.returncode == 1
        assert proc.stderr.startswith("cannot decode") and proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr

    def test_no_detection_over_the_floor_writes_nothing(self, ppm_image,
                                                        fused_container, capsys):
        # no sigmoid exceeds 1, so every scale hands NMS zero candidates
        assert main(["detect", str(ppm_image), str(fused_container),
                     "--conf", "1"]) == 0
        assert capsys.readouterr().out == ""

    def test_undecodable_image(self, tmp_path, tiny_container):
        bad = tmp_path / "bad.ppm"
        bad.write_bytes(b"P3\n1 1\n255\n0 0 0\n")
        assert main(["detect", str(bad), str(tiny_container)]) == 1

    @pytest.mark.parametrize("data", [
        b"P6\n99999999 99999999\n255\n",  # far more pixels than the file holds
        b"P6\n0 4\n255\n",
        b"P6\n2 2\n255\n" + bytes(11),    # one byte short
    ])
    def test_bad_ppm_size_is_one_line_io_error(self, data, tmp_path, tiny_container,
                                               capsys):
        bad = tmp_path / "bad.ppm"
        bad.write_bytes(data)
        assert main(["detect", str(bad), str(tiny_container)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("cannot decode") and err.count("\n") == 1

    @pytest.mark.parametrize("edit", [
        lambda h: {"format_version": 1},
        lambda h: _without(h, "config"),
        lambda h: {**h, "fused": "yes"},
        lambda h: {**h, "config": _without(h["config"], "neck_width")},
        lambda h: {**h, "entries": [_without(h["entries"][0], "dims"), *h["entries"][1:]]},
        lambda h: {**h, "entries": [{**h["entries"][0], "offset": "0"}, *h["entries"][1:]]},
    ], ids=["version-only", "no-config", "fused-string", "config-key-missing",
            "entry-no-dims", "entry-offset-string"])
    def test_bad_container_header_is_one_line_io_error(self, edit, ppm_image,
                                                       fused_container, tmp_path,
                                                       capsys):
        blob = fused_container.read_bytes()
        (header_len,) = struct.unpack_from("<Q", blob, 5)
        raw = json.dumps(edit(json.loads(blob[13:13 + header_len]))).encode()
        bad = tmp_path / "bad.acfd"
        bad.write_bytes(blob[:5] + struct.pack("<Q", len(raw)) + raw + blob[13 + header_len:])
        assert main(["detect", str(ppm_image), str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("bad container") and err.count("\n") == 1

    @pytest.mark.parametrize("edit", [
        lambda c: {**c, "neck_width": 10**9},
        lambda c: {**c, "stem_channels": [10**9, *c["stem_channels"][1:]]},
        lambda c: {**c, "stages": [[10**9, *c["stages"][0][1:]], *c["stages"][1:]]},
        lambda c: {**c, "stages": [[*c["stages"][0][:3], 10**9], *c["stages"][1:]]},
        lambda c: {**c, "head_tower": 10**9},
    ], ids=["neck-width", "stem-channels", "repeats", "layer-count", "head-tower"])
    def test_huge_config_is_one_line_io_error_in_bounded_memory(self, edit, ppm_image,
                                                                fused_container, tmp_path):
        blob = fused_container.read_bytes()
        (header_len,) = struct.unpack_from("<Q", blob, 5)
        header = json.loads(blob[13:13 + header_len])
        raw = json.dumps({**header, "config": edit(header["config"])}).encode()
        bad = tmp_path / "huge.acfd"
        bad.write_bytes(blob[:5] + struct.pack("<Q", len(raw)) + raw + blob[13 + header_len:])

        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
        proc = subprocess.run([sys.executable, "-m", "acfd.cli", "detect", str(ppm_image),
                               str(bad)], capture_output=True, text=True, timeout=30,
                              preexec_fn=limit_memory)
        assert proc.returncode == 1
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("stages", [
        lambda s: (*s, s[-1]),
        lambda s: s[:5],
        lambda s: (StageConfig(0, 8, 16, 1), *s[1:]),
    ], ids=["7-stages", "5-stages", "repeats-0-widths-differ"])
    def test_config_the_detector_cannot_run_is_one_line_io_error(self, stages, ppm_image,
                                                                  tmp_path, capsys):
        # a consistent container: its entries are the ones save writes for the config
        tiny = tiny_config()
        config = dataclasses.replace(tiny, backbone=dataclasses.replace(
            tiny.backbone, stages=stages(tiny.backbone.stages)))
        odd = tmp_path / "odd.acfd"
        container.save_file(build_model(config, seed=0), odd)
        assert main(["detect", str(ppm_image), str(odd)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("bad container") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("name", ["head.cls.weight", "head.reg.weight"])
    def test_non_finite_head_output_is_one_line_io_error(self, name, ppm_image,
                                                         fused_container, tmp_path):
        m = container.load_file(fused_container)
        model.named_arrays(m)[name].flat[0] = np.nan
        bad = tmp_path / "nan.acfd"
        container.save_file(m, bad)
        out = tmp_path / "nan.jsonl"
        proc = subprocess.run([sys.executable, "-m", "acfd.cli", "detect", str(ppm_image),
                               str(bad), "--out", str(out)], capture_output=True,
                              text=True, timeout=30)
        assert proc.returncode == 1
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
        assert str(bad) in proc.stderr and "non-finite" in proc.stderr
        assert not out.exists()

    def test_default_scales_output_is_pinned(self, ppm_image, fused_container, tmp_path,
                                             monkeypatch):
        # 3000 candidates, 1772 of them survive full NMS; the digest was recorded
        # with the channel-major conv columns (kernel @ cols) in 4 MiB blocks,
        # and the shipped blocks give the same bytes
        for block_bytes in (tensor_ops.COLS_BLOCK_BYTES, 4 << 20):
            monkeypatch.setattr(tensor_ops, "COLS_BLOCK_BYTES", block_bytes)
            out = tmp_path / f"golden-{block_bytes}.jsonl"
            assert main(["detect", str(ppm_image), str(fused_container),
                         "--out", str(out)]) == 0
            assert out.read_text().count("\n") == 100
            assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_DETECT_SHA256

    def test_default_scales_output_matches_row_major_gemm(self, ppm_image,
                                                          fused_container, tmp_path):
        out = tmp_path / "golden.jsonl"
        assert main(["detect", str(ppm_image), str(fused_container),
                     "--out", str(out)]) == 0
        _assert_matches_row_major_gemm(out)

    def test_one_row_conv_blocks_match_row_major_gemm(self, ppm_image, fused_container,
                                                      tmp_path, monkeypatch):
        # every im2col conv builds and multiplies one output row at a time
        monkeypatch.setattr(tensor_ops, "COLS_BLOCK_BYTES", 1)
        out = tmp_path / "one-row.jsonl"
        assert main(["detect", str(ppm_image), str(fused_container),
                     "--out", str(out)]) == 0
        _assert_matches_row_major_gemm(out)

    def test_padded_scale_boxes_stay_in_source_frame(self, ppm_image,
                                                     tiny_container, tmp_path):
        out = tmp_path / "padded.jsonl"
        # 192x250 pads to a 256x384 grid; boxes must map back into 128x96
        assert main(["detect", str(ppm_image), str(tiny_container),
                     "--single-scale", "192x250", "--conf", "0.0001",
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines
        for line in lines:
            rec = json.loads(line)
            assert 0.0 <= rec["x1"] <= rec["x2"] <= 128.0
            assert 0.0 <= rec["y1"] <= rec["y2"] <= 96.0

    def test_four_decimal_fixed_formatting(self, ppm_image, tiny_container, tmp_path):
        out = tmp_path / "d.jsonl"
        assert main(["detect", str(ppm_image), str(tiny_container),
                     "--scales", "128x128", "--conf", "0.0001",
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines
        for part in lines[0].split(", ")[1:]:
            value = part.split(": ")[1].rstrip("}")
            whole, frac = value.split(".")
            assert len(frac) == 4


class TestBench:
    def test_csv_output(self, tiny_container, capsys):
        assert main(["bench", str(tiny_container), "--repeats", "3",
                     "--size", "128x128", "--csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "variant,median_ms,p95_ms,macs"
        unfused = lines[1].split(",")
        fused = lines[2].split(",")
        assert int(fused[3]) < int(unfused[3])

    def test_single_repeat_has_no_p95(self, tiny_container, capsys):
        assert main(["bench", str(tiny_container), "--repeats", "1",
                     "--size", "128x128", "--csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[1].split(",")[2] == ""

    def test_fused_container_rejected(self, fused_container):
        assert main(["bench", str(fused_container), "--repeats", "1"]) == 2


@pytest.mark.parametrize("command", ["fuse", "detect", "bench"])
def test_negative_bn_variance_is_one_line_io_error(command, tiny_container, ppm_image,
                                                   tmp_path, capsys):
    bad = _with_first_value(tiny_container, "backbone.stem0.bn.var", -2.0,
                            tmp_path / "negative.acfd")
    out = tmp_path / "out.acfd"
    argv = {"fuse": ["fuse", str(bad), str(out)],
            "detect": ["detect", str(ppm_image), str(bad)],
            "bench": ["bench", str(bad), "--repeats", "1", "--size", "128x128"]}[command]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith(f"bad container {bad}: backbone.stem0.bn.var")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["bench", "w.acfd", "--size", "abc"],
    ["bench", "w.acfd", "--size", "100x100"],
    ["bench", "w.acfd", "--size", "0x128"],
    ["detect", "x.ppm", "w.acfd", "--single-scale", "abc"],
    ["detect", "x.ppm", "w.acfd", "--scales", "128x128,12"],
    ["match", "a.json", "p.json", "--image-size", "100x100"],
    ["match", "a.json", "p.json", "--t1", "0.35,foo"],
    ["bench", "w.acfd", "--repeats", "0"],
    ["bench", "w.acfd", "--repeats", "-3"],
    ["bench", "w.acfd", "--size", "4224x128"],
    ["detect", "x.ppm", "w.acfd", "--single-scale", "100000x100000"],
    ["detect", "x.ppm", "w.acfd", "--single-scale", "20000x20000"],
    ["detect", "x.ppm", "w.acfd", "--scales", "480x645,640x4097"],
    ["match", "a.json", "p.json", "--image-size", "8192x8192"],
    ["detect", "x.ppm", "w.acfd", "--mean", "nan"],
    ["detect", "x.ppm", "w.acfd", "--conf", "nan"],
    ["detect", "x.ppm", "w.acfd", "--nms-iou", "nan"],
    ["detect", "x.ppm", "w.acfd", "--conf", "1.01"],
    ["detect", "x.ppm", "w.acfd", "--mean", "-0.5"],
    ["detect", "x.ppm", "w.acfd", "--nms-iou", "inf"],
    ["detect", "x.ppm", "w.acfd", "--conf", "high"],
    ["detect", "x.ppm", "w.acfd", "--scales", "128x128", "--single-scale", "128x128"],
])
def test_malformed_argument_is_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and "error: argument" in err.splitlines()[-1]


def test_largest_size_is_accepted():
    args = build_parser().parse_args(["detect", "x.ppm", "w.acfd", "--single-scale",
                                      f"{cli.MAX_SIDE}x{cli.MAX_SIDE}"])
    assert args.scales == [(cli.MAX_SIDE, cli.MAX_SIDE)]


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "acfd.cli", "verify", "--seed", "0"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0
    assert "anchor-count" in proc.stdout
