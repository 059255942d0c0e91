import json
import subprocess
import sys

import numpy as np
import pytest

from acfd import container
from acfd.anchors import generate_anchors
from acfd.cli import main
from acfd.matching import dam_match
from acfd.model import build_model, fuse_model, tiny_config
from acfd.ppm import write_ppm


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
        assert container.is_fused_file(out)
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
        expected = dam_match(anchors, anchors.boxes,
                             np.asarray(gts), 0.35, 0.7)
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

    def test_malformed_json(self, tmp_path):
        ann = tmp_path / "bad.json"
        ann.write_text("{not json")
        pred = tmp_path / "pred.json"
        pred.write_text("[]")
        assert main(["match", str(ann), str(pred)]) == 1


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

    def test_single_scale(self, ppm_image, tiny_container, capsys):
        assert main(["detect", str(ppm_image), str(tiny_container),
                     "--single-scale", "128x128"]) == 0
        capsys.readouterr()

    def test_worker_threads_preserve_output(self, ppm_image, tiny_container,
                                            tmp_path, monkeypatch):
        serial, threaded = tmp_path / "serial.jsonl", tmp_path / "threaded.jsonl"
        args = ["detect", str(ppm_image), str(tiny_container),
                "--scales", "128x128,256x256"]
        assert main(args + ["--out", str(serial)]) == 0
        monkeypatch.setenv("ACFD_THREADS", "2")
        assert main(args + ["--out", str(threaded)]) == 0
        assert serial.read_bytes() == threaded.read_bytes()

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


@pytest.mark.parametrize("argv", [
    ["bench", "w.acfd", "--size", "abc"],
    ["bench", "w.acfd", "--size", "100x100"],
    ["bench", "w.acfd", "--size", "0x128"],
    ["detect", "x.ppm", "w.acfd", "--single-scale", "abc"],
    ["detect", "x.ppm", "w.acfd", "--scales", "128x128,12"],
    ["match", "a.json", "p.json", "--image-size", "100x100"],
    ["match", "a.json", "p.json", "--t1", "0.35,foo"],
])
def test_malformed_argument_is_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and "error: argument" in err.splitlines()[-1]


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "acfd.cli", "verify", "--seed", "0"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0
    assert "anchor-count" in proc.stdout
