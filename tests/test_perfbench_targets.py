"""The benchmark's tracer still finds the program's functions.

perfbench/tracing.py wraps each of its TARGETS by module and function name;
a target that goes missing, or that detect no longer calls, drops its per-layer
metrics without an error, so this checks the names, that one traced detect
per container kind calls every target, and that the NMS span counts what the
metrics report. The tracer is loaded from its file and left unchanged.
"""
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

from acfd import cli, container, postprocess
from acfd.anchors import HeadOutput
from acfd.model import build_model, fuse_model, tiny_config
from acfd.ppm import write_ppm

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_every_target_is_a_program_function(tracing):
    for module_name, fn_name, _ in tracing.TARGETS:
        module = importlib.import_module(f"acfd.{module_name}")
        assert inspect.isfunction(getattr(module, fn_name, None)), \
            f"acfd.{module_name}.{fn_name}"


def test_detect_calls_every_target(tracing, tmp_path):
    for module_name, _, _ in tracing.TARGETS:
        importlib.import_module(f"acfd.{module_name}")  # patch every holder
    unfused = build_model(tiny_config(), seed=0)
    image = tmp_path / "scene.ppm"
    write_ppm(image, np.random.default_rng(3).integers(0, 255, (96, 128, 3), dtype=np.uint8))
    called = set()
    for name, m in (("unfused", unfused), ("fused", fuse_model(unfused))):
        weights = tmp_path / f"{name}.acfd"
        container.save_file(m, weights)
        tracer = tracing.Tracer()
        with tracer:
            assert cli.main(["detect", str(image), str(weights), "--scales",
                             "128x128,256x256", "--out", str(tmp_path / "out.jsonl")]) == 0
        assert not tracer.absent
        called |= {s.name for s in tracer.spans}
    missing = {f"{m}.{f}" for m, f, _ in tracing.TARGETS} - called
    assert not missing, sorted(missing)


def test_nms_span_counts_candidates_and_kept(tracing):
    # three 512x512 scales of noise: 1000 candidates each, the final top-100 kept
    rng = np.random.default_rng(5)
    per_scale = []
    for _ in range(3):
        output = HeadOutput()
        for stride in (4, 8, 16, 32, 64, 128):
            side = 512 // stride
            output.cls.append(rng.normal(size=(1, 1, side, side)).astype(np.float32))
            output.reg.append(rng.normal(scale=0.1, size=(1, 4, side, side))
                              .astype(np.float32))
        per_scale.append(postprocess.scale_detections(output, (512, 512), (512, 512)))
    nms = postprocess.nms
    tracer = tracing.Tracer()
    with tracer:
        boxes, scores = postprocess.postprocess(per_scale)
    assert postprocess.nms is nms
    nms_spans = [s for s in tracer.spans if s.name == "postprocess.nms"]
    assert len(nms_spans) == 1
    assert nms_spans[0].counts == {"candidates": 3000, "kept": 100}
    assert len(boxes) == len(scores) == 100
    assert [s.name for s in tracer.spans].count("postprocess.postprocess") == 1
