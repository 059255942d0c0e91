"""Seeded geometric and photometric training-time augmentations.

Every operation derives its randomness from the sample's seed and returns a
new sample carrying a freshly drawn seed, so chained pipelines are
bit-reproducible. Boxes stay corner-form in pixels and are clipped back
into the canvas after every step.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .tensor_ops import bilinear_resize

ANCHOR_SIDES = (16, 32, 64, 128, 256, 512)
TRAIN_SIZE = (640, 640)


@dataclass
class Sample:
    image: np.ndarray   # (1, 3, h, w) float32
    boxes: np.ndarray   # (n, 4) corner form, float64
    rng_seed: int

    @property
    def hw(self) -> tuple[int, int]:
        return self.image.shape[2], self.image.shape[3]


def _rng(sample: Sample) -> np.random.Generator:
    return np.random.default_rng(sample.rng_seed)


def _next_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**63 - 1))


def _clip_boxes(boxes: np.ndarray, hw: tuple[int, int]) -> np.ndarray:
    h, w = hw
    out = boxes.copy()
    out[:, 0::2] = out[:, 0::2].clip(0, w)
    out[:, 1::2] = out[:, 1::2].clip(0, h)
    return out


def expand(sample: Sample, ratio: float,
           offset: tuple[int, int] | None = None) -> Sample:
    """Place the image on a mean-filled canvas `ratio` times larger.

    `offset` (x, y) overrides the seeded placement; ratio 1 forces (0, 0).
    """
    if ratio < 1:
        raise ValueError(f"expand ratio must be >= 1, got {ratio}")
    rng = _rng(sample)
    h, w = sample.hw
    nh, nw = int(round(h * ratio)), int(round(w * ratio))
    if offset is None:
        ox = int(rng.integers(0, nw - w + 1))
        oy = int(rng.integers(0, nh - h + 1))
    else:
        ox, oy = offset
    means = sample.image.mean(axis=(2, 3), keepdims=True)
    canvas = np.broadcast_to(means, (1, 3, nh, nw)).astype(sample.image.dtype).copy()
    canvas[:, :, oy:oy + h, ox:ox + w] = sample.image
    boxes = sample.boxes + np.array([ox, oy, ox, oy], dtype=np.float64)
    return Sample(image=canvas, boxes=boxes, rng_seed=_next_seed(rng))


def random_crop(sample: Sample,
                crop: tuple[int, int, int, int] | None = None) -> Sample:
    """Seeded crop; boxes clipped, boxes whose center leaves the crop dropped.

    `crop` (x1, y1, x2, y2) overrides the seeded geometry.
    """
    rng = _rng(sample)
    h, w = sample.hw
    if crop is None:
        ch = int(rng.integers(max(1, int(0.3 * h)), h + 1))
        cw = int(rng.integers(max(1, int(0.3 * w)), w + 1))
        y1 = int(rng.integers(0, h - ch + 1))
        x1 = int(rng.integers(0, w - cw + 1))
        crop = (x1, y1, x1 + cw, y1 + ch)
    x1, y1, x2, y2 = crop
    image = sample.image[:, :, y1:y2, x1:x2].copy()
    boxes = sample.boxes
    if boxes.shape[0]:
        cx = 0.5 * (boxes[:, 0] + boxes[:, 2])
        cy = 0.5 * (boxes[:, 1] + boxes[:, 3])
        inside = (cx >= x1) & (cx < x2) & (cy >= y1) & (cy < y2)
        boxes = boxes[inside] - np.array([x1, y1, x1, y1], dtype=np.float64)
        boxes = _clip_boxes(boxes, (y2 - y1, x2 - x1))
    return Sample(image=image, boxes=boxes, rng_seed=_next_seed(rng))


def tile_to_anchor_scale(sample: Sample, face_idx: int | None = None,
                         target_side: int | None = None) -> Sample:
    """Uniformly rescale so one face's long side lands on an anchor side."""
    rng = _rng(sample)
    if sample.boxes.shape[0] == 0:
        return replace(sample, rng_seed=_next_seed(rng))
    if face_idx is None:
        face_idx = int(rng.integers(0, sample.boxes.shape[0]))
    if target_side is None:
        target_side = int(rng.choice(ANCHOR_SIDES))
    box = sample.boxes[face_idx]
    long_side = max(box[2] - box[0], box[3] - box[1])
    if long_side <= 0:
        return replace(sample, rng_seed=_next_seed(rng))
    factor = target_side / long_side
    h, w = sample.hw
    nh = max(1, int(round(h * factor)))
    nw = max(1, int(round(w * factor)))
    image = bilinear_resize(sample.image, (nh, nw))
    boxes = _clip_boxes(sample.boxes * factor, (nh, nw))
    return Sample(image=image, boxes=boxes, rng_seed=_next_seed(rng))


def resize_to_train(sample: Sample,
                    target: tuple[int, int] = TRAIN_SIZE) -> Sample:
    """Non-uniform bilinear resize to the training resolution."""
    rng = _rng(sample)
    h, w = sample.hw
    th, tw = target
    image = bilinear_resize(sample.image, target)
    scale = np.array([tw / w, th / h, tw / w, th / h], dtype=np.float64)
    boxes = _clip_boxes(sample.boxes * scale, target)
    return Sample(image=image, boxes=boxes, rng_seed=_next_seed(rng))


def color_jitter(sample: Sample, gain: float = 0.125,
                 bias: float = 16.0 / 255.0) -> Sample:
    """Seeded per-channel gain/bias distortion, output clipped to [0, 1]."""
    rng = _rng(sample)
    g = rng.uniform(1.0 - gain, 1.0 + gain, size=(1, 3, 1, 1))
    b = rng.uniform(-bias, bias, size=(1, 3, 1, 1))
    image = np.clip(sample.image * g.astype(sample.image.dtype)
                    + b.astype(sample.image.dtype), 0.0, 1.0)
    return Sample(image=image, boxes=sample.boxes.copy(), rng_seed=_next_seed(rng))
