"""Operator entry point: fuse, verify, match, detect.

Exit codes are a frozen contract: 0 success, 1 I/O failure, 2 usage error,
3 verification failure. All subcommands are deterministic given their
inputs and --seed. detect runs every GEMM on one OpenBLAS thread, and one
Python thread per usable CPU over its scales, or a single scale's conv row
blocks; its output is the same bytes at every CPU count.
"""
from __future__ import annotations

import argparse
import json
import sys
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
from .tensor_ops import bilinear_resize, openblas_threads, row_workers
from .tensor_ops import usable_cpus as _usable_cpus

EXIT_OK = 0
EXIT_IO = 1
EXIT_USAGE = 2
EXIT_VERIFY = 3


# Largest side of any HxW argument: a 4096x4096 test scale is already a
# 200 MB float32 grid, and concurrent scales each hold their own
MAX_SIDE = 4096


# argparse types, of ASCII only, with no "_" or surrounding space, all of which int()
# and float() take: a value they reject exits 2 with the usage line

def _parse_size(text: str) -> tuple[int, int]:
    h, _, w = text.lower().partition("x")
    if not (text.isascii() and h.isdecimal() and w.isdecimal() and 0 < int(h) <= MAX_SIDE
            and 0 < int(w) <= MAX_SIDE):
        raise argparse.ArgumentTypeError(
            f"expected HxW of positive integers up to {MAX_SIDE}, got {text!r}")
    return int(h), int(w)


def _seed(text: str) -> int:
    if not (text.isascii() and text.isdecimal()):
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _grid_size(text: str) -> tuple[int, int]:
    size = _parse_size(text)
    if size[0] % GRID_MULTIPLE or size[1] % GRID_MULTIPLE:
        raise argparse.ArgumentTypeError(
            f"HxW must be multiples of {GRID_MULTIPLE}, got {text!r}")
    return size


def _unit_float(text: str) -> float:
    try:
        if (text.isascii() and "_" not in text and text == text.strip()
                and 0.0 <= float(text) <= 1.0):  # NaN fails both comparisons
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
    err = verify.fusion_drift(unfused, fused, args.seed)
    if not err <= verify.FUSION_DRIFT_BOUND:  # NaN fails it too
        print(f"fold refused: probe drift {err:.3e} is not within the bound "
              f"{verify.FUSION_DRIFT_BOUND:g}", file=sys.stderr)
        return EXIT_VERIFY
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
    results = verify.run_all(seed=args.seed)
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
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
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
    for level, pair in enumerate(zip(output.cls, output.reg)):
        for name, a in zip(("cls", "reg"), pair):
            if not np.isfinite(a).all():
                raise NonFiniteHeadOutput(f"non-finite head output at scale {sh}x{sw} "
                                          f"(level {level} {name})")
    return scale_detections(output, scale_hw, pixels.shape[:2], conf)


def _detect_scales(pixels: np.ndarray, mean: float, m: model.DetectorModel,
                   scales: list, conf: float) -> list:
    """(boxes, scores) candidates per scale of the (H, W, 3) uint8 frame, in
    the order of `scales`; the first scale in that order whose head output is
    not finite raises.

    Every GEMM runs on a one-thread OpenBLAS, and Python threads, one per
    usable CPU, supply the parallelism: a second BLAS thread spins between
    GEMMs, and for over 0.1 s after the last one, on a core another thread
    could use. Several scales run at once, largest padded grid first, each on
    one thread. One scale runs on the calling thread, and each of its convs
    splits its row blocks over the usable CPUs (`tensor_ops.row_workers`);
    the scale workers never see that pool. Scales that run at once each hold
    their own live activations and column block, which raises peak memory; a
    row worker holds one column block. The frame they share stays uint8, and
    each scale normalizes one channel plane at a time while it resizes.
    The padded grid goes to the forward as a temporary, so it is freed once
    the stem has read it, and every later map at its last use (see
    `model.forward`; CPython 3.11+).
    An OpenBLAS without the thread-count hook runs everything serially on
    the BLAS thread count as found.
    """
    cpus = _usable_cpus()
    try:
        blas = openblas_threads()
    except OSError as exc:
        if cpus > 1:
            print(f"running detect serially: no OpenBLAS thread hook ({exc})",
                  file=sys.stderr)
        return [_detect_one_scale(pixels, mean, m, s, conf) for s in scales]
    found = blas.get()
    blas.set(1)
    try:
        if len(scales) == 1:
            with row_workers(cpus):
                return [_detect_one_scale(pixels, mean, m, scales[0], conf)]
        # largest padded grid first, so the longest forward starts at once
        order = sorted(range(len(scales)), key=lambda i: -np.prod(pad_to_grid(scales[i])))
        with ThreadPoolExecutor(max_workers=min(len(scales), cpus)) as pool:
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
    except (NonFiniteHeadOutput, container.ContainerCorruptionError) as exc:
        print(f"bad container {args.container}: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:  # the forward reads the container a block at a time
        print(f"cannot read {args.container}: {exc}", file=sys.stderr)
        return EXIT_IO
    boxes, scores = postprocess(per_scale, args.nms_iou)
    stem = Path(args.image).stem
    # a file name that is not UTF-8 decodes to lone surrogates, which only \u escapes carry
    image_id = json.dumps(stem, ensure_ascii=any("\ud800" <= c <= "\udfff" for c in stem))
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


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="acfd", description="Cartoon-face detector toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fuse", help="fold ACB branches and batch norms into plain convs")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--seed", type=_seed, default="0")
    p.set_defaults(func=cmd_fuse)

    p = sub.add_parser("verify", help="run the property-check battery")
    p.add_argument("--seed", type=_seed, default="0")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("match", help="anchor-match statistics over an annotation set")
    p.add_argument("annotations")
    p.add_argument("predictions")
    p.add_argument("--t1", type=_comma_list(_unit_float), default="0.35",
                   help="comma list sweeps a grid")
    p.add_argument("--t2", type=_comma_list(_unit_float), default="0.7",
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

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
