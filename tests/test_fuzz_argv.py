"""Drawn argument lists for every subcommand, and for subcommands that do not exist.

Each list is built from a small token set: the tiny containers, a small PPM, a
PPM whose file name is not UTF-8, a missing path, a directory, and sizes,
fractions and seeds, valid and not. Whatever the list, `cli.main` must end with
a frozen exit code and no traceback: exit 2 is argparse's usage message (or
fuse's one line for an input that is already fused), exit 1 is one stderr line,
and every line a successful detect writes parses as JSON. stdout is strict
UTF-8, as on a UTF-8 terminal, so a line it cannot encode fails here too.
"""
import contextlib
import io
import json
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acfd import container
from acfd.cli import main
from acfd.model import build_model, fuse_model, tiny_config
from acfd.ppm import write_ppm

# valid tokens first: hypothesis starts from, and shrinks towards, the first
SIZES = ["128x128", "256x128", "128X256", "100x100", "0x128", "4097x128", "12", "abc", "",
         "\u0967\u0968\u096ex128"]
FRACTIONS = ["0.5", "0", "1", "0.08", "1e-3", "-0.1", "1.5", "nan", "inf", " 0.5", "0_5",
             "\uff10.\uff15", "x"]
SEEDS = ["0", "7", "99999999999999999999", "-1", "1_0", "\uff11", ""]
FLAGS = ["--seed", "--json", "--out", "--scales", "--t1", "--repeats"]
# subcommands the program does not have; no token may start a --help
GARBAGE = ["bench", "", "Detect", "fuse2", "-x", "\udcff", "--seed"]


def _settings(examples):
    return settings(max_examples=examples, deadline=None, derandomize=True)


# byte 0xff of the name decodes to the lone surrogate "\udcff"
ODD_PPM = os.fsdecode(b"\xff-frame.ppm")
INPUTS = ["frame.ppm", "tiny-fused.acfd", "tiny.acfd", "ann.json", "pred.json", ODD_PPM,
          "missing", "dir"]
OUTPUTS = ["out", os.fsdecode(b"\xff-out"), "dir", "missing/out"]


@pytest.fixture(scope="module")
def root(tmp_path_factory):
    """The one directory of every drawn path: it holds the INPUTS but
    `missing`, and the OUTPUTS that fuse and detect --out write."""
    root = tmp_path_factory.mktemp("argv")
    unfused = build_model(tiny_config(), seed=0)
    container.save_file(fuse_model(unfused), root / "tiny-fused.acfd")
    container.save_file(unfused, root / "tiny.acfd")
    pixels = np.random.default_rng(5).integers(0, 256, (24, 32, 3), np.uint8)
    for name in ("frame.ppm", ODD_PPM):
        write_ppm(root / name, pixels)
    (root / "ann.json").write_text(json.dumps([{"file": "frame", "boxes": [[4, 4, 60, 60]]}]))
    (root / "pred.json").write_text("[]")
    (root / "dir").mkdir()
    return root


def _path(data, root, names, first, label):
    """The path of one of `names` under root, `first` first."""
    names = [first] + [name for name in names if name != first]
    return str(root / data.draw(st.sampled_from(names), label=label))


def _values(data, tokens, most=1, *, label):
    """A comma list of 1 to `most` of the tokens."""
    items = st.lists(st.sampled_from(tokens), min_size=1, max_size=most)
    return ",".join(data.draw(items, label=label))


def _stray(data):
    """No token, or in one draw of four a token the subcommand does not take."""
    if data.draw(st.integers(0, 3), label="stray") < 3:
        return []
    return [data.draw(st.sampled_from(FLAGS + SIZES + SEEDS), label="token")]


def _run(argv, out=None):
    """Run `argv` and assert the contract; `out` is the file a successful
    detect writes its lines to instead of stdout."""
    stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="strict")
    stderr = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        stdout.flush()
    err = stderr.getvalue()
    assert code in (0, 1, 2, 3), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    if code == 2:
        assert err.startswith("usage:") or err == "input container is already fused\n", \
            (argv, err)
    if code == 1:
        assert err.count("\n") == 1 and err.endswith("\n"), (argv, err)
    if code == 0 and argv[0] == "detect":
        written = Path(out).read_bytes() if out else stdout.buffer.getvalue()
        for line in written.decode("utf-8").splitlines():
            json.loads(line)


@_settings(150)
@given(data=st.data())
def test_drawn_detect(root, data):
    argv = ["detect", _path(data, root, INPUTS, "frame.ppm", "image"),
            _path(data, root, INPUTS, "tiny-fused.acfd", "container")]
    out = None
    options = {"--single-scale": (SIZES, 1), "--scales": (SIZES, 2), "--conf": (FRACTIONS, 1),
               "--nms-iou": (FRACTIONS, 1), "--mean": (FRACTIONS, 1), "--out": None}
    for option in data.draw(st.lists(st.sampled_from(list(options)), max_size=3),
                            label="options"):
        if option == "--out":
            out = _path(data, root, OUTPUTS, "out", "out")
            argv += [option, out]
        else:
            argv += [option, _values(data, *options[option], label=option)]
    _run(argv + _stray(data), out)


@_settings(60)
@given(data=st.data())
def test_drawn_fuse(root, data):
    argv = ["fuse", _path(data, root, INPUTS, "tiny.acfd", "in"),
            _path(data, root, OUTPUTS, "out", "out")]
    if data.draw(st.booleans(), label="seeded"):
        argv += ["--seed", _values(data, SEEDS, label="seed")]
    _run(argv + _stray(data))


@_settings(8)
@given(data=st.data())
def test_drawn_verify(data):
    argv = ["verify"]
    if data.draw(st.booleans(), label="seeded"):
        argv += ["--seed", _values(data, SEEDS, label="seed")]
    if data.draw(st.booleans(), label="json"):
        argv.append("--json")
    _run(argv + _stray(data))


@_settings(60)
@given(data=st.data())
def test_drawn_match(root, data):
    argv = ["match", _path(data, root, INPUTS, "ann.json", "annotations"),
            _path(data, root, INPUTS, "pred.json", "predictions")]
    for option in data.draw(st.lists(st.sampled_from(["--image-size", "--t1", "--t2"]),
                                     max_size=3), label="options"):
        if option == "--image-size":
            argv += [option, _values(data, SIZES, label=option)]
        else:
            argv += [option, _values(data, FRACTIONS, 3, label=option)]
    _run(argv + _stray(data))


@_settings(30)
@given(data=st.data())
def test_drawn_garbage_subcommand(root, data):
    command = data.draw(st.sampled_from(GARBAGE)
                        | st.text(max_size=4).filter(lambda t: not t.startswith("-")
                                                     and t not in {"fuse", "verify", "match",
                                                                   "detect"}),
                        label="command")
    paths = [str(root / name) for name in INPUTS]
    rest = data.draw(st.lists(st.sampled_from(paths + SIZES + FRACTIONS), max_size=3),
                     label="rest")
    _run([command, *rest])
