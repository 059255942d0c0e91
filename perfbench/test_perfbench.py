"""Tests of the benchmark's own helpers.

    python3 -m pytest -q perfbench/test_perfbench.py
"""
from __future__ import annotations

import importlib
import json

import numpy as np
import pytest

import oracle
import run
from tracing import Span, Tracer, self_times
from workloads import ROOT, WORKLOADS, load_acfd


@pytest.mark.parametrize("n, pct, index", [
    (5, 50.0, None),     # too few samples: the median
    (20, 50.0, None),    # 9 beyond the median rank, still the median
    (21, 100 * 11 / 21, 10),
    (40, 75.0, 29),
    (100, 90.0, 89),
])
def test_tail_keeps_ten_samples_beyond(n, pct, index):
    samples = list(np.random.default_rng(n).permutation(n) * 0.5)
    got_pct, value = run.tail(samples)
    assert got_pct == pytest.approx(pct)
    expected = float(np.median(samples)) if index is None else sorted(samples)[index]
    assert value == expected
    assert sum(s > value for s in samples) >= min(10, n // 2)


def _span(i, start, end, parent=None):
    return Span(i, f"s{i}", start, end, parent, 0, 0)


def test_self_time_subtracts_the_union_of_children():
    spans = [_span(0, 0.0, 10.0),
             _span(1, 1.0, 3.0, 0), _span(2, 2.0, 5.0, 0),  # overlapping children
             _span(3, 8.0, 12.0, 0),                        # runs past its parent
             _span(4, 1.5, 2.5, 1)]
    got = self_times(spans)
    assert got[0] == pytest.approx(10.0 - 4.0 - 2.0)
    assert got[1] == pytest.approx(2.0 - 1.0)
    assert got[2] == pytest.approx(3.0)
    assert got[4] == pytest.approx(1.0)


@pytest.fixture(scope="module")
def acfd():
    pkg = load_acfd()
    for name in ("backbone", "fusion", "anchors", "tensor_ops", "cli"):
        importlib.import_module(f"acfd.{name}")
    return pkg


def test_tracer_wraps_every_reference_and_restores_it(acfd):
    holders = [acfd.tensor_ops, acfd.backbone, acfd.fusion, acfd.anchors]
    original = acfd.tensor_ops.conv2d
    assert all(m.conv2d is original for m in holders)
    tracer = Tracer()
    with tracer:
        assert all(m.conv2d is not original for m in holders)
        spec = acfd.backbone.kaiming_conv(np.random.default_rng(0), 4, 2, 3, 3, padding=(1, 1))
        x = np.ones((1, 2, 5, 6), dtype=np.float32)
        tracer.request(3, "root", acfd.backbone.block_forward, x, spec)
    assert all(m.conv2d is original for m in holders)
    assert acfd.cli.bilinear_resize is acfd.augment.bilinear_resize
    root = next(s for s in tracer.spans if s.name == "root")
    conv = next(s for s in tracer.spans if s.name == "tensor_ops.conv2d")
    assert conv.parent == root.id and conv.request == root.request == 3
    assert conv.counts["macs"] == 4 * 2 * 9 * 5 * 6
    assert conv.counts["kernel"] == "k3x3"


def test_span_is_kept_when_the_call_raises(acfd):
    tracer = Tracer()
    bad = np.ones((1, 3, 4, 4), dtype=np.float32)
    spec = acfd.backbone.kaiming_conv(np.random.default_rng(0), 2, 5, 1, 1)
    with tracer, pytest.raises(acfd.tensor_ops.ShapeError):
        tracer.request(0, "root", acfd.backbone.block_forward, bad, spec)
    assert acfd.backbone.conv2d is acfd.tensor_ops.conv2d
    assert sorted(s.name for s in tracer.spans) == ["root", "tensor_ops.conv2d"]
    assert all(s.counts == {} for s in tracer.spans)


def test_missing_target_is_absent_not_an_error(acfd):
    tracer = Tracer(targets=[("tensor_ops", "no_such_function", None),
                             ("no_such_module", "f", None)])
    with tracer:
        pass
    assert tracer.absent == {"tensor_ops.no_such_function", "no_such_module.f"}


def test_output_check_rejects_format_drift():
    line = ('{"image_id": "a", "x1": 1.0000, "y1": 2.0000, "x2": 3.0000, "y2": 4.0000, '
            '"score": 0.5000}')
    ref = {k: np.asarray(v, dtype=np.float64) for k, v in {
        "top_boxes": [[1, 2, 3, 4]], "top_scores": [0.5], "top_tol": [1e-3],
        "cand_boxes": [[1, 2, 3, 4]], "cand_scores": [0.5], "cand_tol": [1e-3]}.items()}
    assert oracle.check_output(line + "\n", "a", (10, 10), ref) == []
    assert oracle.check_output(line.replace("0.5000", "0.500") + "\n", "a", (10, 10), ref)
    assert oracle.check_output(line.replace("0.5000", "0.6000") + "\n", "a", (10, 10), ref)


def test_output_check_allows_only_near_ties_to_swap():
    def line(box, score):
        x1, y1, x2, y2 = box
        return (f'{{"image_id": "a", "x1": {x1:.4f}, "y1": {y1:.4f}, "x2": {x2:.4f}, '
                f'"y2": {y2:.4f}, "score": {score:.4f}}}\n')
    boxes = np.array([[0, 0, 4, 4], [5, 5, 9, 9], [1, 6, 3, 9]], dtype=np.float64)

    def ref(third_score):
        scores = np.array([0.6, 0.5, third_score])
        return {"top_boxes": boxes[:2], "top_scores": scores[:2], "top_tol": np.full(2, 1e-3),
                "cand_boxes": boxes, "cand_scores": scores, "cand_tol": np.full(3, 1e-3)}
    swapped = line(boxes[0], 0.6) + line(boxes[2], 0.5)
    assert oracle.check_output(swapped, "a", (10, 10), ref(0.5))      # exact tie: fixed order
    assert not oracle.check_output(swapped, "a", (10, 10), ref(0.4999))  # near tie may flip


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        [(m, u) for m, u, _ in run.PER_LAYER]
