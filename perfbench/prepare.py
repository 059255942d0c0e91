"""Make one workload's inputs and references from a seed, in a child process.

    python3 perfbench/prepare.py --workload NAME --seed N --out DIR

Writes the container the detect call loads, the seeded PPMs, one reference
file per PPM and `manifest.json` with the fusion drift and the exact MAC
counts. Building models and references here keeps their memory out of the
measuring process.
"""
from __future__ import annotations

import argparse
import importlib
import json
import sys
from pathlib import Path

import numpy as np

import oracle
from workloads import MEAN, WORKLOADS, Workload, load_acfd, pad_to_grid

DRIFT_PROBE_HW = (128, 128)


def synthetic_ppm(rng: np.random.Generator) -> np.ndarray:
    """A cartoon-like frame near 720x960: a colour gradient with flat ellipses."""
    h = 720 + int(rng.integers(-48, 49))
    w = 960 + int(rng.integers(-64, 65))
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float32)
    c0, c1 = rng.uniform(0, 255, 3), rng.uniform(0, 255, 3)
    t = (xx / w + yy / h)[..., None] / 2
    img = c0 * (1 - t) + c1 * t
    for _ in range(int(rng.integers(4, 9))):
        cy, cx = rng.uniform(0, h), rng.uniform(0, w)
        ry, rx = rng.uniform(24, 200, 2)
        inside = ((yy - cy) / ry) ** 2 + ((xx - cx) / rx) ** 2 <= 1
        img[inside] = rng.uniform(0, 255, 3)
    img += rng.normal(0, 4, img.shape)
    return img.clip(0, 255).astype(np.uint8)


def bilinear(image: np.ndarray, target) -> np.ndarray:
    """Half-pixel-centred bilinear resample, the detect preprocessing contract."""
    h, w = image.shape[2], image.shape[3]
    th, tw = target
    if (th, tw) == (h, w):
        return image.copy()
    sy = np.clip((np.arange(th) + 0.5) * h / th - 0.5, 0, h - 1)
    sx = np.clip((np.arange(tw) + 0.5) * w / tw - 0.5, 0, w - 1)
    y0, x0 = np.floor(sy).astype(int), np.floor(sx).astype(int)
    y1, x1 = np.minimum(y0 + 1, h - 1), np.minimum(x0 + 1, w - 1)
    fy = (sy - y0).astype(image.dtype)[None, None, :, None]
    fx = (sx - x0).astype(image.dtype)[None, None, None, :]
    top = image[:, :, y0][:, :, :, x0] * (1 - fx) + image[:, :, y0][:, :, :, x1] * fx
    bot = image[:, :, y1][:, :, :, x0] * (1 - fx) + image[:, :, y1][:, :, :, x1] * fx
    return top * (1 - fy) + bot * fy


def reference(acfd, m, pixels: np.ndarray, scales) -> dict:
    """Reference detections and candidate pool for one image."""
    image = pixels.astype(np.float32).transpose(2, 0, 1)[None] / 255.0 - MEAN
    orig_h, orig_w = pixels.shape[:2]
    parts = []
    for sh, sw in scales:
        ph, pw = pad_to_grid((sh, sw))
        padded = np.zeros((1, 3, ph, pw), dtype=np.float32)
        padded[:, :, :sh, :sw] = bilinear(image, (sh, sw))
        out = acfd.model.forward(m, padded)
        parts.append(oracle.scale_candidates(out.cls, out.reg, (ph, pw), (sh, sw),
                                             (sw / orig_w, sh / orig_h)))
    boxes, scores, tol = (np.concatenate(p) for p in zip(*parts))
    top = oracle.reference_top(boxes, scores, acfd.verify.nms_reference)
    return {"cand_boxes": boxes, "cand_scores": scores, "cand_tol": tol,
            "top_boxes": boxes[top], "top_scores": scores[top], "top_tol": tol[top]}


def fusion_drift(acfd, unfused, fused, seed: int) -> float:
    rng = np.random.default_rng((seed, 2))
    probe = rng.uniform(-0.5, 0.5, size=(1, 3, *DRIFT_PROBE_HW)).astype(np.float32)
    a, b = acfd.model.forward(unfused, probe), acfd.model.forward(fused, probe)
    return max(float(np.abs(x - y).max()) for x, y in zip(a.cls + a.reg, b.cls + b.reg))


def prepare(acfd, workload: Workload, seed: int, out: Path) -> dict:
    config = acfd.model.tiny_config() if workload.config == "tiny" \
        else acfd.model.full_config()
    unfused = acfd.model.build_model(config, seed=seed)
    fused = acfd.model.fuse_model(unfused)
    drift = fusion_drift(acfd, unfused, fused, seed)
    padded = [pad_to_grid(s) for s in workload.scales]
    macs = {name: sum(acfd.model.count_model_macs(m, hw) for hw in padded)
            for name, m in (("fused", fused), ("unfused", unfused))}
    m = fused if workload.fused else unfused
    unfused = fused = None  # free the other model before the references run
    container = out / "model.acfd"
    acfd.container.save_file(m, container)

    rng = np.random.default_rng((seed, 1))
    images = []
    for i in range(workload.images):
        pixels = synthetic_ppm(rng)
        path = out / f"frame{seed}_{i}.ppm"
        acfd.ppm.write_ppm(path, pixels)
        ref = reference(acfd, m, pixels, workload.scales)
        np.savez(out / f"ref{i}.npz", **ref)
        images.append({"ppm": str(path), "ref": str(out / f"ref{i}.npz"),
                       "frame_hw": list(pixels.shape[:2])})
    return {"container": str(container), "images": images, "drift": drift,
            "macs_per_call": macs["fused" if workload.fused else "unfused"],
            "fused_macs": macs["fused"], "unfused_macs": macs["unfused"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    acfd = load_acfd()
    for name in ("model", "container", "ppm", "verify"):
        importlib.import_module(f"acfd.{name}")
    manifest = prepare(acfd, WORKLOADS[args.workload], args.seed, args.out)
    (args.out / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
