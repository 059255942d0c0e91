"""Spans around the program's public functions, recorded from outside it.

`Tracer.install` replaces each target function with a timing wrapper in
every `acfd.*` module that holds a reference to it (so `conv2d` is wrapped
where backbone, fusion and anchors call it), and `Tracer.restore` puts the
originals back. Spans stay in memory; the benchmark writes them out when the
run ends. A target that no longer exists is listed in `absent` and its
metrics are left out, so a refactor cannot break the run.
"""
from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    request: int | None
    counts: dict = field(default_factory=dict)


def _conv_counts(args, kwargs, out):
    x, spec = args[0], args[1]
    kh, kw = spec.weight.shape[2], spec.weight.shape[3]
    n, oc, oh, ow = out.shape
    rows = n * oh * ow
    return {"macs": rows * oc * spec.weight.shape[1] * kh * kw,
            "cols_bytes": rows * x.shape[1] * kh * kw * x.itemsize,
            "kernel": f"k{kh}x{kw}"}


def _linear_counts(args, kwargs, out):
    x, weight = args[0], args[1]
    return {"macs": x.size // x.shape[-1] * weight.shape[0] * weight.shape[1]}


def _nms_counts(args, kwargs, out):
    return {"candidates": len(args[0]), "kept": len(out)}


def _iou_counts(args, kwargs, out):
    return {"pairs": out.size}


def _payload_counts(args, kwargs, out):
    # container layout: 5-byte magic, u64 header length, header, payload
    with open(args[0], "rb") as fh:
        head = fh.read(13)
        fh.seek(0, 2)
        size = fh.tell()
    return {"payload_bytes": size - 13 - int.from_bytes(head[5:13], "little")}


class ModelMacs:
    """MACs of one model.forward, from the program's analytic count."""

    def __init__(self):
        self.cache = {}

    def __call__(self, args, kwargs, out):
        m, image = args[0], args[1]
        key = (m.config, m.fused, image.shape[2:])
        if key not in self.cache:
            count = importlib.import_module("acfd.model").count_model_macs
            self.cache[key] = count(m, image.shape[2:])
        return {"macs": self.cache[key]}


# (module, function, counter) for every public function timed on the detect path
TARGETS = (
    ("ppm", "read_ppm", None),
    ("augment", "bilinear_resize", None),
    ("container", "load_file", _payload_counts),
    ("model", "forward", ModelMacs),
    ("backbone", "backbone_forward", None),
    ("backbone", "aosa_forward", None),
    ("backbone", "ese_attention", None),
    ("neck", "abifpn_forward", None),
    ("neck", "fuse_node", None),
    ("anchors", "head_forward", None),
    ("anchors", "generate_anchors", None),
    ("anchors", "decode", None),
    ("fusion", "acb_forward", None),
    ("tensor_ops", "conv2d", _conv_counts),
    ("tensor_ops", "linear", _linear_counts),
    ("tensor_ops", "batch_norm_infer", None),
    ("tensor_ops", "max_pool2d", None),
    ("tensor_ops", "resize_nearest", None),
    ("tensor_ops", "concat_channels", None),
    ("tensor_ops", "relu", None),
    ("tensor_ops", "sigmoid", None),
    ("postprocess", "postprocess", None),
    ("postprocess", "nms", _nms_counts),
    ("matching", "iou_matrix", _iou_counts),
)


class Tracer:
    def __init__(self, targets=TARGETS):
        # counter classes keep state (a MAC cache) across installs
        self.targets = [(m, f, c() if isinstance(c, type) else c) for m, f, c in targets]
        self.spans: list[Span] = []
        self.absent: set[str] = set()
        self._patches: list[tuple[object, str, object]] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._root: int | None = None
        self._request: int | None = None

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        for module_name, fn_name, counter in self.targets:
            name = f"{module_name}.{fn_name}"
            try:
                module = importlib.import_module(f"acfd.{module_name}")
                original = getattr(module, fn_name)
            except (ImportError, AttributeError):
                self.absent.add(name)
                continue
            wrapper = self._wrap(name, original, counter)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "acfd" or mod_name.startswith("acfd.")):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patches.append((mod, attr, original))

    def restore(self) -> None:
        while self._patches:
            mod, attr, original = self._patches.pop()
            setattr(mod, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- spans -------------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.record(name, fn, args, kwargs, counter)
        return wrapper

    def record(self, name, fn, args, kwargs, counter=None):
        """Call fn inside a span; its parent is the innermost open span of this
        thread, or the request's root span for a worker thread."""
        stack = self._stack()
        span = Span(next(self._ids), name, 0.0, 0.0, stack[-1] if stack else self._root,
                    threading.get_ident(), self._request)
        stack.append(span.id)
        span.start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            stack.pop()
            self.spans.append(span)
        if counter:
            span.counts = counter(args, kwargs, out)
        return out

    def request(self, request_id: int, name: str, fn, *args):
        """Run fn(*args) as a request's root span; spans under it share request_id."""
        self._request = request_id
        try:
            return self.record(name, self._as_root, (fn, args), {})
        finally:
            self._root = self._request = None

    def _as_root(self, fn, args):
        self._root = self._stack()[-1]
        return fn(*args)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Seconds of each span not covered by its children's intervals."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered, cursor = 0.0, s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.id] = (s.end - s.start) - covered
    return out
