"""Every function the program defines is reached by one of its subcommands.

A function stays in `src/acfd` only if `fuse`, `detect`, `verify` or `match`
calls it, apart from the few named in UNREACHED, each kept for a stated
reason. This runs each subcommand once on the tiny model under a
profile hook and lists what no call reached, so dead code cannot pile up
behind tests that call it directly.
"""
import importlib
import inspect
import json
import os
import pkgutil
import sys
import threading

import numpy as np

import acfd
from acfd import cli, container
from acfd.model import build_model, tiny_config
from acfd.ppm import write_ppm

# qualified name -> why it stays although no subcommand calls it
UNREACHED = {
    "container.load": "the in-memory half of the save/load bytes round trip",
    "model.full_config": "the paper-sized model the benchmark builds",
    "ppm.write_ppm": "writes the images the benchmark and the tests feed detect",
}


def _nested(code):
    """`code` and every named function compiled inside it."""
    yield code
    for const in code.co_consts:
        if inspect.iscode(const) and not const.co_name.startswith("<"):
            yield from _nested(const)


def _own_functions(module) -> dict:
    """Code object -> qualified name of every function, method and property
    written in the module's own file; dataclass-generated methods are not."""
    found = []
    for obj in vars(module).values():
        if inspect.isclass(obj) and obj.__module__ == module.__name__:
            for attr in vars(obj).values():
                attr = attr.fget if isinstance(attr, property) else attr
                found.append(getattr(attr, "__func__", attr))  # static and class methods
        else:
            found.append(obj)
    short = module.__name__.removeprefix("acfd.")
    return {code: f"{short}.{getattr(code, 'co_qualname', code.co_name)}"
            for fn in found if inspect.isfunction(fn)
            and fn.__code__.co_filename == module.__file__
            for code in _nested(fn.__code__)}


def test_every_function_is_reached_by_a_subcommand(tmp_path, monkeypatch):
    # two usable CPUs, so detect takes its concurrent-scale and row-worker paths
    # on any machine
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    unfused, fused = tmp_path / "tiny.acfd", tmp_path / "tiny-fused.acfd"
    container.save_file(build_model(tiny_config(), seed=0), unfused)
    image = tmp_path / "scene.ppm"
    write_ppm(image, np.random.default_rng(3).integers(0, 255, (96, 128, 3), dtype=np.uint8))
    annotations, predictions = tmp_path / "ann.json", tmp_path / "pred.json"
    annotations.write_text(json.dumps([{"file": "a", "boxes": [[10, 10, 90, 90]]}]))
    predictions.write_text("[]")
    runs = [
        ["fuse", str(unfused), str(fused)],
        ["detect", str(image), str(unfused), "--out", str(tmp_path / "u.jsonl")],
        ["detect", str(image), str(fused), "--out", str(tmp_path / "f.jsonl")],
        ["detect", str(image), str(fused), "--single-scale", "128x128",
         "--out", str(tmp_path / "s.jsonl")],
        ["verify"],
        ["match", str(annotations), str(predictions)],
    ]

    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        codes = [cli.main(argv) for argv in runs]
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    assert codes == [0] * len(runs)

    functions = {}
    for info in pkgutil.iter_modules(acfd.__path__):
        functions |= _own_functions(importlib.import_module(f"acfd.{info.name}"))
    unreached = {name for code, name in functions.items() if code not in called}
    dead = sorted(unreached - UNREACHED.keys())
    assert not dead, f"no subcommand calls {', '.join(dead)}"
    reached = sorted(UNREACHED.keys() - unreached)
    assert not reached, f"{', '.join(reached)} is reached now: drop it from UNREACHED"
