"""Plain-loop references the tests check the product against.

``conv2d_direct`` sums one window per output element and
``max_pool2d_direct`` scans one window per output element. Both are
deliberately naive and share no code with the paths they check, the im2col
conv and the separable max pool, so they are only suitable for small
tensors. ``evaluate_ap`` scores detections as single-class average
precision, for the synthetic-pipeline acceptance test. ``anchors_by_level``
builds the anchor array level by level, the oracle of ``generate_anchors``'s
flat-index map. ``identity_laterals`` pass the backbone's stage outputs
through ``backbone_forward`` unchanged.
"""
import numpy as np

from acfd.anchors import ANCHOR_SCALE, STRIDES
from acfd.matching import iou_matrix
from acfd.tensor_ops import ConvSpec, conv_output_shape


def identity_laterals(widths) -> list[ConvSpec]:
    """1x1 convs that copy each stage output of the given widths exactly."""
    return [ConvSpec(np.eye(c, dtype=np.float32)[:, :, None, None]) for c in widths]


def conv2d_direct(x: np.ndarray, spec: ConvSpec) -> np.ndarray:
    """Zero-padded 2-D cross-correlation, one window sum per output element."""
    n, _, h, w = x.shape
    kh, kw = spec.kh, spec.kw
    sh, sw = spec.stride
    ph, pw = spec.padding
    oh, ow = conv_output_shape(h, kh, sh, ph), conv_output_shape(w, kw, sw, pw)
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    out = np.zeros((n, spec.out_c, oh, ow), dtype=x.dtype)
    for b in range(n):
        for oc in range(spec.out_c):
            for i in range(oh):
                for j in range(ow):
                    window = xp[b, :, i * sh:i * sh + kh, j * sw:j * sw + kw]
                    acc = np.sum(window * spec.weight[oc])
                    if spec.bias is not None:
                        acc = acc + spec.bias[oc]
                    out[b, oc, i, j] = acc
    return out


def max_pool2d_direct(x: np.ndarray, kernel: tuple[int, int], stride: tuple[int, int],
                      padding: tuple[int, int] = (0, 0)) -> np.ndarray:
    """Max pool, one scalar scan per output window.

    A NaN in the window wins, cells outside the input are skipped, and a
    window that lies wholly in the padding gives the padding value: -inf, or
    the dtype's minimum for integers.
    """
    n, c, h, w = x.shape
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    oh, ow = conv_output_shape(h, kh, sh, ph), conv_output_shape(w, kw, sw, pw)
    fill = -np.inf if np.issubdtype(x.dtype, np.floating) else np.iinfo(x.dtype).min
    out = np.empty((n, c, oh, ow), dtype=x.dtype)
    for b in range(n):
        for ch in range(c):
            for i in range(oh):
                for j in range(ow):
                    best = fill
                    for r in range(i * sh - ph, i * sh - ph + kh):
                        for q in range(j * sw - pw, j * sw - pw + kw):
                            if 0 <= r < h and 0 <= q < w and best == best:
                                v = x[b, ch, r, q]
                                if v != v or v > best:
                                    best = v
                    out[b, ch, i, j] = best
    return out


def evaluate_ap(gts: list[np.ndarray], dets: list[tuple[np.ndarray, np.ndarray]],
                iou_thresh: float = 0.5) -> float:
    """Single-class AP at the given IoU, all-point interpolation.

    ``dets`` holds one (boxes (k, 4), scores (k,)) pair per image. Detections
    are swept in global score-descending order; each ground truth may satisfy
    one detection. Zero ground truths: AP is 1.0 when there are also no
    detections, else 0.0.
    """
    total_gt = sum(len(g) for g in gts)
    boxes = np.concatenate([np.zeros((0, 4)), *(np.reshape(b, (-1, 4)) for b, _ in dets)])
    scores = np.concatenate([np.zeros(0), *(np.reshape(s, -1) for _, s in dets)])
    image = np.repeat(np.arange(len(dets)), [np.size(s) for _, s in dets])
    if total_gt == 0:
        return 1.0 if not len(scores) else 0.0
    if not len(scores):
        return 0.0

    order = np.argsort(-scores, kind="stable")
    matched = [np.zeros(len(g), dtype=bool) for g in gts]
    tp = np.zeros(len(scores))
    for rank, idx in enumerate(order):
        img = image[idx]
        gt_boxes = np.asarray(gts[img], dtype=np.float64).reshape(-1, 4)
        if gt_boxes.shape[0] == 0:
            continue
        overlaps = iou_matrix(boxes[idx:idx + 1], gt_boxes)[0]
        best = int(overlaps.argmax())
        if overlaps[best] >= iou_thresh and not matched[img][best]:
            matched[img][best] = True
            tp[rank] = 1.0

    tp_cum = np.cumsum(tp)
    fp_cum = np.cumsum(1.0 - tp)
    recall = tp_cum / total_gt
    precision = tp_cum / (tp_cum + fp_cum)
    mrec = np.concatenate([[0.0], recall, [1.0]])
    mpre = np.concatenate([[0.0], precision, [0.0]])
    for i in range(len(mpre) - 2, -1, -1):
        mpre[i] = max(mpre[i], mpre[i + 1])
    steps = np.flatnonzero(mrec[1:] != mrec[:-1]) + 1
    return float(np.sum((mrec[steps] - mrec[steps - 1]) * mpre[steps]))


def anchors_by_level(image_hw: tuple[int, int]) -> np.ndarray:
    """Every anchor in flat order, built one level at a time from meshgrids of
    cell centres: level-major, then row-major with x fastest."""
    h, w = image_hw
    per_level = []
    for s in STRIDES:
        cy = (np.arange(h // s, dtype=np.float64) + 0.5) * s
        cx = (np.arange(w // s, dtype=np.float64) + 0.5) * s
        cxg, cyg = np.meshgrid(cx, cy)
        half = ANCHOR_SCALE * s / 2.0
        per_level.append(np.stack([cxg - half, cyg - half, cxg + half, cyg + half],
                                  axis=-1).reshape(-1, 4))
    return np.concatenate(per_level, axis=0)
