"""Operator entry point: fuse, verify, match, detect, bench.

Exit codes are a frozen contract: 0 success, 1 I/O failure, 2 usage error,
3 verification failure. All subcommands are deterministic given their
inputs and --seed, apart from bench wall-clock numbers.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import container, model, verify
from .anchors import generate_anchors
from .backbone import GRID_MULTIPLE
from .matching import dam_match
from .postprocess import (CONF_THRESHOLD, NMS_IOU, TEST_SCALES, pad_to_grid, postprocess,
                          scale_detections)
from .ppm import read_ppm
from .tensor_ops import bilinear_resize, openblas_threads

EXIT_OK = 0
EXIT_IO = 1
EXIT_USAGE = 2
EXIT_VERIFY = 3


# Largest side of any HxW argument: a 4096x4096 test scale is already a
# 200 MB float32 grid, and concurrent scales each hold their own
MAX_SIDE = 4096


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# argparse types: a value they reject exits 2 with the usage line

def _parse_size(text: str) -> tuple[int, int]:
    h, _, w = text.lower().partition("x")
    if not (h.isdecimal() and w.isdecimal() and 0 < int(h) <= MAX_SIDE
            and 0 < int(w) <= MAX_SIDE):
        raise argparse.ArgumentTypeError(
            f"expected HxW of positive integers up to {MAX_SIDE}, got {text!r}")
    return int(h), int(w)


def _positive_int(text: str) -> int:
    if not (text.isdecimal() and int(text) > 0):
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _grid_size(text: str) -> tuple[int, int]:
    size = _parse_size(text)
    if size[0] % GRID_MULTIPLE or size[1] % GRID_MULTIPLE:
        raise argparse.ArgumentTypeError(
            f"HxW must be multiples of {GRID_MULTIPLE}, got {text!r}")
    return size


def _unit_float(text: str) -> float:
    try:
        if 0.0 <= float(text) <= 1.0:  # NaN fails both comparisons
            return float(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a number in [0, 1], got {text!r}")


def _comma_list(item):
    def comma_list(text: str) -> list:
        return [item(v) for v in text.split(",")]
    return comma_list


def _param_count(m: model.DetectorModel) -> int:
    return sum(a.size for a in model.named_arrays(m).values())


def _load_model(path) -> model.DetectorModel | None:
    """The container's model, or None after one stderr line."""
    try:
        return container.load_file(path)
    except OSError as exc:
        print(f"cannot read {path}: {exc}", file=sys.stderr)
    except ValueError as exc:
        print(f"bad container {path}: {exc}", file=sys.stderr)
    return None


# ---------------------------------------------------------------------------
# subcommands

def cmd_fuse(args) -> int:
    unfused = _load_model(args.input)
    if unfused is None:
        return EXIT_IO
    if unfused.fused:
        print("input container is already fused", file=sys.stderr)
        return EXIT_USAGE
    for name, array in model.named_arrays(unfused).items():
        if not np.isfinite(array).all():  # folding would carry it into the output
            print(f"bad container {args.input}: non-finite parameter {name}", file=sys.stderr)
            return EXIT_IO
    fused = model.fuse_model(unfused)
    rng = np.random.default_rng(args.seed)
    # probe in the normalized-image range the detector actually sees
    probe = rng.uniform(-0.5, 0.5, size=(1, 3, 128, 128)).astype(np.float32)
    out_a = model.forward(unfused, probe)
    out_b = model.forward(fused, probe)
    err = max(float(np.abs(a - b).max())
              for a, b in zip(out_a.cls + out_a.reg, out_b.cls + out_b.reg))
    try:
        container.save_file(fused, args.output)
    except OSError as exc:
        print(f"cannot write {args.output}: {exc}", file=sys.stderr)
        return EXIT_IO
    before, after = _param_count(unfused), _param_count(fused)
    print(f"parameters: {before} -> {after} ({before - after} removed)")
    print(f"probe max abs error: {err:.3e}")
    return EXIT_OK


def cmd_verify(args) -> int:
    results = verify.run_all(seed=args.seed, inject_fault=args.inject_fault)
    if args.json:
        print(json.dumps({
            "checks": [{"name": r.name, "passed": r.passed, "detail": r.detail}
                       for r in results],
            "passed": all(r.passed for r in results),
        }, indent=2))
    else:
        for r in results:
            print(f"{'PASS' if r.passed else 'FAIL'}  {r.name:<20} {r.detail}")
    failed = [r.name for r in results if not r.passed]
    if failed:
        if not args.json:
            print(f"failed: {', '.join(failed)}", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def _load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _boxes_by_file(entries, what: str, count: int | None = None) -> list[tuple]:
    """(file, (k, 4) float64 boxes) per entry of a JSON list, k == count if given.
    Raises ValueError on any other shape."""
    if not isinstance(entries, list):
        raise ValueError(f"{what}s must be a JSON list, got {type(entries).__name__}")
    out = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict) or "boxes" not in entry:
            raise ValueError(f"{what} {i} is not an object with \"boxes\"")
        key = entry.get("file", entry.get("image_id"))
        if isinstance(key, (list, dict)):
            raise ValueError(f"{what} {i} names its file with a JSON {type(key).__name__}")
        try:
            boxes = np.asarray(entry["boxes"], dtype=np.float64)
        except (TypeError, ValueError):
            raise ValueError(f"{what} {i} has boxes that are not numbers") from None
        if boxes.size % 4:
            raise ValueError(f"{what} {i} has {boxes.size} box numbers, not a multiple of 4")
        if count is not None and boxes.size != 4 * count:
            raise ValueError(f"{what} {i} has {boxes.size // 4} boxes, not one per anchor "
                             f"({count})")
        out.append((key, boxes.reshape(-1, 4)))
    return out


def cmd_match(args) -> int:
    try:
        annotations = _load_json(args.annotations)
        predictions = _load_json(args.predictions)
    except OSError as exc:
        print(f"cannot read input: {exc}", file=sys.stderr)
        return EXIT_IO
    except (json.JSONDecodeError, RecursionError) as exc:
        print(f"malformed JSON: {exc}", file=sys.stderr)
        return EXIT_IO
    anchors = generate_anchors(args.image_size)
    try:
        annotations = _boxes_by_file(annotations, "annotation")
        preds_by_id = dict(_boxes_by_file(predictions, "prediction", len(anchors)))
    except ValueError as exc:
        print(f"malformed input: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"{'T1':>6} {'T2':>6} {'matched':>9} {'compensated':>12} {'per-face':>9}")
    for t1 in args.t1:
        for t2 in args.t2:
            n1 = n2 = faces = 0
            for key, gts in annotations:
                regressed = preds_by_id.get(key, anchors)
                result = dam_match(anchors, regressed, gts, t1, t2)
                n1 += result.n1
                n2 += result.n2
                faces += gts.shape[0]
            per_face = (n1 + n2) / faces if faces else 0.0
            print(f"{t1:>6.2f} {t2:>6.2f} {n1:>9d} {n2:>12d} {per_face:>9.2f}")
    return EXIT_OK


class NonFiniteHeadOutput(Exception):
    """A NaN score would drop every candidate and a NaN box print as invalid JSON."""


def _scale_input(pixels: np.ndarray, mean: float, scale_hw: tuple[int, int]) -> np.ndarray:
    """The zero-padded (1, 3, *pad_to_grid(scale_hw)) float32 input of an (H, W, 3)
    uint8 frame: one channel plane at a time is normalized, as the whole frame
    would be, into one (1, 1, H, W) buffer and resized into its channel."""
    sh, sw = scale_hw
    padded = np.zeros((1, 3, *pad_to_grid(scale_hw)), dtype=np.float32)
    plane = np.empty((1, 1, *pixels.shape[:2]), dtype=np.float32)
    for ch in range(3):
        plane[0, 0] = pixels[:, :, ch]
        plane /= 255.0
        plane -= mean
        bilinear_resize(plane, scale_hw, out=padded[:, ch:ch + 1, :sh, :sw])
    return padded


def _detect_one_scale(pixels: np.ndarray, mean: float, m: model.DetectorModel,
                      scale_hw: tuple[int, int], conf: float) -> tuple:
    """One scale's (boxes, scores) candidates in the source frame: its input,
    the forward pass, the finiteness check, selection and decoding."""
    sh, sw = scale_hw
    output = model.forward(m, _scale_input(pixels, mean, scale_hw))
    if not all(np.isfinite(a).all() for a in output.cls + output.reg):
        raise NonFiniteHeadOutput(f"non-finite head output at scale {sh}x{sw}")
    return scale_detections(output, scale_hw, pixels.shape[:2], conf)


def _detect_scales(pixels: np.ndarray, mean: float, m: model.DetectorModel,
                   scales: list, conf: float) -> list:
    """(boxes, scores) candidates per scale of the (H, W, 3) uint8 frame, in
    the order of `scales`; the first scale in that order whose head output is
    not finite raises.

    Several scales run at once, one per usable CPU, each on a one-thread
    OpenBLAS: a second BLAS thread spins between GEMMs, so one scale at a
    time on two threads was slower for the tiny and the full model alike.
    Scales that run at once each hold their own activations and column
    block, which raises peak memory; the frame they share stays uint8, and
    each worker normalizes one channel plane at a time while it resizes.
    One scale, one CPU or an OpenBLAS without the thread-count hook runs
    serially on the BLAS thread count as found.
    """
    workers = min(len(scales), _usable_cpus())
    blas = None
    if workers > 1:
        try:
            blas = openblas_threads()
        except OSError as exc:
            print(f"running scales serially: no OpenBLAS thread hook ({exc})",
                  file=sys.stderr)
    if blas is None:
        return [_detect_one_scale(pixels, mean, m, s, conf) for s in scales]
    # largest padded grid first, so the longest forward starts at once
    order = sorted(range(len(scales)), key=lambda i: -np.prod(pad_to_grid(scales[i])))
    found = blas.get()
    blas.set(1)
    try:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = {i: pool.submit(_detect_one_scale, pixels, mean, m, scales[i], conf)
                       for i in order}
        return [futures[i].result() for i in range(len(scales))]
    finally:
        blas.set(found)


def cmd_detect(args) -> int:
    try:
        pixels = read_ppm(args.image)
    except (OSError, ValueError) as exc:
        print(f"cannot decode {args.image}: {exc}", file=sys.stderr)
        return EXIT_IO
    m = _load_model(args.container)
    if m is None:
        return EXIT_IO
    try:
        per_scale = _detect_scales(pixels, args.mean, m, args.scales or TEST_SCALES,
                                   args.conf)
    except NonFiniteHeadOutput as exc:
        print(f"bad container {args.container}: {exc}", file=sys.stderr)
        return EXIT_IO
    boxes, scores = postprocess(per_scale, args.nms_iou)
    image_id = json.dumps(Path(args.image).stem, ensure_ascii=False)
    lines = [
        f'{{"image_id": {image_id}, "x1": {x1:.4f}, "y1": {y1:.4f}, '
        f'"x2": {x2:.4f}, "y2": {y2:.4f}, "score": {score:.4f}}}'
        for (x1, y1, x2, y2), score in zip(boxes.tolist(), scores.tolist())
    ]
    text = "\n".join(lines) + ("\n" if lines else "")
    if args.out:
        try:
            Path(args.out).write_text(text, encoding="utf-8")
        except OSError as exc:
            print(f"cannot write {args.out}: {exc}", file=sys.stderr)
            return EXIT_IO
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _time_forward(m: model.DetectorModel, probe: np.ndarray, repeats: int) -> list[float]:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        model.forward(m, probe)
        times.append((time.perf_counter() - t0) * 1000.0)
    return times


def cmd_bench(args) -> int:
    unfused = _load_model(args.container)
    if unfused is None:
        return EXIT_IO
    if unfused.fused:
        print("bench expects an unfused container", file=sys.stderr)
        return EXIT_USAGE
    fused = model.fuse_model(unfused)
    rng = np.random.default_rng(args.seed)
    probe = rng.uniform(-1.0, 1.0, size=(1, 3, *args.size)).astype(np.float32)
    model.forward(fused, probe)  # warm-up both paths once
    model.forward(unfused, probe)

    rows = []
    for label, m in (("unfused", unfused), ("fused", fused)):
        times = _time_forward(m, probe, args.repeats)
        median = statistics.median(times)
        p95 = (sorted(times)[max(0, int(round(0.95 * len(times))) - 1)]
               if len(times) > 1 else None)
        macs = model.count_model_macs(m, args.size)
        rows.append((label, median, p95, macs))
    if args.csv:
        print("variant,median_ms,p95_ms,macs")
        for label, median, p95, macs in rows:
            p95_s = f"{p95:.3f}" if p95 is not None else ""
            print(f"{label},{median:.3f},{p95_s},{macs}")
    else:
        for label, median, p95, macs in rows:
            p95_s = f"{p95:8.3f} ms" if p95 is not None else "       -   "
            print(f"{label:<8} median {median:8.3f} ms  p95 {p95_s}  MACs {macs}")
        speedup = rows[0][1] / rows[1][1] if rows[1][1] > 0 else float("inf")
        print(f"speedup (unfused/fused median): {speedup:.2f}x")
        print(f"MAC reduction: {rows[0][3] - rows[1][3]}")
    return EXIT_OK


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="acfd", description="Cartoon-face detector toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fuse", help="fold ACB branches and batch norms into plain convs")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_fuse)

    p = sub.add_parser("verify", help="run the property-check battery")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.add_argument("--inject-fault", action="store_true", help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("match", help="anchor-match statistics over an annotation set")
    p.add_argument("annotations")
    p.add_argument("predictions")
    p.add_argument("--t1", type=_comma_list(float), default="0.35",
                   help="comma list sweeps a grid")
    p.add_argument("--t2", type=_comma_list(float), default="0.7",
                   help="comma list sweeps a grid")
    p.add_argument("--image-size", type=_grid_size, default="640x640")
    p.set_defaults(func=cmd_match)

    p = sub.add_parser("detect", help="run detection on a binary PPM image")
    p.add_argument("image")
    p.add_argument("container")
    sizes = p.add_mutually_exclusive_group()
    sizes.add_argument("--scales", type=_comma_list(_parse_size),
                       help="comma list of HxW test sizes")
    sizes.add_argument("--single-scale", dest="scales", metavar="SINGLE_SCALE",
                       type=lambda text: [_parse_size(text)], help="restrict to one HxW size")
    # string defaults pass through the type like given values
    p.add_argument("--conf", type=_unit_float, default=str(CONF_THRESHOLD),
                   help="score floor in [0,1]")
    p.add_argument("--nms-iou", type=_unit_float, default=str(NMS_IOU),
                   help="NMS overlap in [0,1]")
    p.add_argument("--mean", type=_unit_float, default="0.5",
                   help="per-channel normalization mean in [0,1]")
    p.add_argument("--out", help="write JSON lines here instead of stdout")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("bench", help="time unfused vs fused forward passes")
    p.add_argument("container")
    p.add_argument("--repeats", type=_positive_int, default=20)
    p.add_argument("--size", type=_grid_size, default="256x256")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--csv", action="store_true")
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
