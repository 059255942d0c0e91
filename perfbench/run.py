"""The acfd detect benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 1

Drives `acfd.cli.main(["detect", ...])` in-process as a closed loop with one
caller and one image per call, on inputs made from the seed by prepare.py in
a child process. Every output is checked against the reference. With
--trace 0 the last line holds the end-to-end metrics; with --trace 1 every
other call runs under the tracer and the last line holds the per-layer
metrics. Each run prints every metric by name with its unit above that line.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import importlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from pathlib import Path

import numpy as np

import oracle
from tracing import Tracer, self_times
from workloads import ROOT, WORK_DIR, WORKLOADS, load_acfd

HERE = Path(__file__).resolve().parent

TAIL_BEYOND = 10
DRIFT_BOUND = 1e-3
SGEMM_SHAPE = (4096, 1152, 256)
PREPARE_TIMEOUT_S = 150
DETECT_PROCESS_TIMEOUT_S = 60

END_TO_END = (
    ("detect_s_p50", "s"),
    ("detect_s_tail", "s"),
    ("images_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# (metric, unit, traced function it comes from). `_ms` metrics are inclusive
# time per detect call, except cli.self_ms, tensor_ops.conv2d_ms and
# postprocess.postprocess_ms, which are self time.
PER_LAYER = (
    ("cli.self_ms", "ms", None),
    ("ppm.read_ppm_ms", "ms", "ppm.read_ppm"),
    ("augment.bilinear_resize_ms", "ms", "augment.bilinear_resize"),
    ("container.load_file_ms", "ms", "container.load_file"),
    ("container.payload_mb", "MB", "container.load_file"),
    ("model.forward_ms", "ms", "model.forward"),
    ("model.forward_gmacs", "GMAC/s", "model.forward"),
    ("model.macs", "count", "model.forward"),
    ("backbone.backbone_forward_ms", "ms", "backbone.backbone_forward"),
    ("backbone.aosa_forward_ms", "ms", "backbone.aosa_forward"),
    ("backbone.ese_attention_ms", "ms", "backbone.ese_attention"),
    ("neck.abifpn_forward_ms", "ms", "neck.abifpn_forward"),
    ("neck.fuse_node_ms", "ms", "neck.fuse_node"),
    ("anchors.head_forward_ms", "ms", "anchors.head_forward"),
    ("anchors.generate_anchors_ms", "ms", "anchors.generate_anchors"),
    ("anchors.generate_anchors_calls", "count", "anchors.generate_anchors"),
    ("anchors.decode_ms", "ms", "anchors.decode"),
    ("fusion.acb_forward_ms", "ms", "fusion.acb_forward"),
    ("fusion.acb_forward_calls", "count", "fusion.acb_forward"),
    ("tensor_ops.conv2d_ms", "ms", "tensor_ops.conv2d"),
    ("tensor_ops.conv2d_calls", "count", "tensor_ops.conv2d"),
    ("tensor_ops.conv2d_macs", "count", "tensor_ops.conv2d"),
    ("tensor_ops.conv2d_gmacs", "GMAC/s", "tensor_ops.conv2d"),
    ("tensor_ops.conv2d_cols_mb", "MB", "tensor_ops.conv2d"),
    ("tensor_ops.conv2d.k3x3_ms", "ms", "tensor_ops.conv2d"),
    ("tensor_ops.conv2d.k3x3_gmacs", "GMAC/s", "tensor_ops.conv2d"),
    ("tensor_ops.conv2d.k1x1_ms", "ms", "tensor_ops.conv2d"),
    ("tensor_ops.conv2d.k1x1_gmacs", "GMAC/s", "tensor_ops.conv2d"),
    ("tensor_ops.conv2d.k1x3_ms", "ms", "tensor_ops.conv2d"),
    ("tensor_ops.conv2d.k3x1_ms", "ms", "tensor_ops.conv2d"),
    ("tensor_ops.batch_norm_infer_ms", "ms", "tensor_ops.batch_norm_infer"),
    ("tensor_ops.max_pool2d_ms", "ms", "tensor_ops.max_pool2d"),
    ("tensor_ops.resize_nearest_ms", "ms", "tensor_ops.resize_nearest"),
    ("tensor_ops.concat_channels_ms", "ms", "tensor_ops.concat_channels"),
    ("tensor_ops.relu_ms", "ms", "tensor_ops.relu"),
    ("tensor_ops.sigmoid_ms", "ms", "tensor_ops.sigmoid"),
    ("postprocess.postprocess_ms", "ms", "postprocess.postprocess"),
    ("postprocess.nms_ms", "ms", "postprocess.nms"),
    ("postprocess.candidates", "count", "postprocess.nms"),
    ("postprocess.kept", "count", "postprocess.nms"),
    ("postprocess.keep_ratio", "ratio", "postprocess.nms"),
    ("matching.iou_matrix_ms", "ms", "matching.iou_matrix"),
    ("matching.iou_pairs", "count", "matching.iou_matrix"),
    ("trace.overhead_ms", "ms", None),
    ("machine.sgemm_gmacs", "GMAC/s", None),
)


# ---------------------------------------------------------------------------
# statistics

def tail(samples, beyond: int = TAIL_BEYOND) -> tuple[float, float]:
    """(percentile, value): the highest nearest-rank percentile with at least
    `beyond` samples above it, and never below the median. Too few samples
    for a tail above the median give the median itself, as percentile 50."""
    xs = sorted(samples)
    k = len(xs) - 1 - beyond
    if k < (len(xs) - 1) / 2:
        return 50.0, statistics.median(xs)
    return 100.0 * (k + 1) / len(xs), xs[k]


def layer_metrics(spans, sgemm_gmacs: float, overhead_ms: float) -> dict[str, float]:
    """Per-layer metrics per traced detect call: medians over the calls of
    per-call sums, and rates as totals over all traced calls."""
    selfs = self_times(spans)
    per: dict[int, defaultdict] = defaultdict(lambda: defaultdict(float))
    for s in spans:
        if s.request is None:
            continue
        d, dur = per[s.request], s.end - s.start
        d[s.name + ":incl"] += dur
        d[s.name + ":self"] += selfs[s.id]
        d[s.name + ":calls"] += 1
        for key, value in s.counts.items():
            if key == "kernel":
                d[f"conv.{value}:time"] += dur
                d[f"conv.{value}:macs"] += s.counts["macs"]
            else:
                d[f"{s.name}:{key}"] += value
    calls = list(per.values())

    def med(key, scale=1.0):
        return statistics.median(c[key] for c in calls) * scale

    def rate(num, den, scale=1.0):
        total = sum(c[den] for c in calls)
        return sum(c[num] for c in calls) / total * scale if total else 0.0

    out = {
        "cli.self_ms": med("cli.main:self", 1e3),
        "container.payload_mb": med("container.load_file:payload_bytes", 1e-6),
        "model.forward_gmacs": rate("model.forward:macs", "model.forward:incl", 1e-9),
        "model.macs": med("model.forward:macs"),
        "anchors.generate_anchors_calls": med("anchors.generate_anchors:calls"),
        "fusion.acb_forward_calls": med("fusion.acb_forward:calls"),
        "tensor_ops.conv2d_ms": med("tensor_ops.conv2d:self", 1e3),
        "tensor_ops.conv2d_calls": med("tensor_ops.conv2d:calls"),
        "tensor_ops.conv2d_macs": med("tensor_ops.conv2d:macs"),
        "tensor_ops.conv2d_gmacs": rate("tensor_ops.conv2d:macs", "tensor_ops.conv2d:self", 1e-9),
        "tensor_ops.conv2d_cols_mb": med("tensor_ops.conv2d:cols_bytes", 1e-6),
        "postprocess.postprocess_ms": med("postprocess.postprocess:self", 1e3),
        "postprocess.candidates": med("postprocess.nms:candidates"),
        "postprocess.kept": med("postprocess.nms:kept"),
        "postprocess.keep_ratio": rate("postprocess.nms:kept", "postprocess.nms:candidates"),
        "matching.iou_pairs": med("matching.iou_matrix:pairs"),
        "trace.overhead_ms": overhead_ms,
        "machine.sgemm_gmacs": sgemm_gmacs,
    }
    for kernel in ("k3x3", "k1x1", "k1x3", "k3x1"):
        out[f"tensor_ops.conv2d.{kernel}_ms"] = med(f"conv.{kernel}:time", 1e3)
    for kernel in ("k3x3", "k1x1"):
        out[f"tensor_ops.conv2d.{kernel}_gmacs"] = rate(
            f"conv.{kernel}:macs", f"conv.{kernel}:time", 1e-9)
    for name, _, source in PER_LAYER:
        if name not in out and name.endswith("_ms"):
            out[name] = med(source + ":incl", 1e3)
    return out


# ---------------------------------------------------------------------------
# machine record

def sgemm_gmacs(repeats: int = 9) -> float:
    """Median rate of one float32 GEMM, the ceiling for the `*_gmacs` metrics."""
    m, k, n = SGEMM_SHAPE
    rng = np.random.default_rng(0)
    a = rng.standard_normal((m, k), dtype=np.float32)
    b = rng.standard_normal((k, n), dtype=np.float32)
    a @ b
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        a @ b
        times.append(time.perf_counter() - start)
    return m * k * n / statistics.median(times) / 1e9


def machine_record() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    record = {"nproc": len(os.sched_getaffinity(0)), "numpy": np.__version__, "blas": blas}
    for var in ("ACFD_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        record[var] = os.environ.get(var, "unset")
    return record


# ---------------------------------------------------------------------------
# one workload

def detect_loop(acfd, workload, manifest, seconds: float, tracer: Tracer | None,
                setup_times: list | None = None):
    """Closed loop of detect calls, at least one, until the calls have taken
    `seconds`. With a tracer, every second call is traced. With setup_times,
    each call is followed by `workload.setup_loads` timed container loads, so
    set-up samples spread over the run. Returns one record per call."""
    images, calls, busy = manifest["images"], [], 0.0
    while not calls or busy < seconds:
        n = len(calls)
        image = images[n % len(images)]
        argv = ["detect", image["ppm"], manifest["container"], *workload.detect_args]
        traced = tracer is not None and n % 2 == 1
        out, err = io.StringIO(), io.StringIO()
        with tracer if traced else contextlib.nullcontext():
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = (tracer.request(n, "cli.main", acfd.cli.main, argv) if traced
                          else acfd.cli.main(argv))
            except SystemExit as exc:  # argparse rejects its arguments
                rc = exc.code
            except Exception:  # a crash is a failed call, not a failed run
                rc = None
                err.write(traceback.format_exc())
            elapsed = time.perf_counter() - start
        busy += elapsed
        calls.append({"request": n, "image": n % len(images), "traced": traced,
                      "seconds": elapsed, "rc": rc, "stdout": out.getvalue(),
                      "stderr": err.getvalue()})
        for _ in range(workload.setup_loads if setup_times is not None else 0):
            start = time.perf_counter()
            acfd.container.load_file(manifest["container"])
            setup_times.append(time.perf_counter() - start)
    return calls


def detect_process(workload, manifest, work: Path) -> dict:
    """One `python3 -m acfd.cli detect` process, as an operator runs it.
    Its peak RSS comes from wait4, so only that process is counted."""
    image = manifest["images"][0]
    argv = ["detect", image["ppm"], manifest["container"], *workload.detect_args]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out_path, err_path = work / "detect.out", work / "detect.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen([sys.executable, "-m", "acfd.cli", *argv],
                                stdout=out, stderr=err, env=env, cwd=ROOT)
    deadline = time.monotonic() + DETECT_PROCESS_TIMEOUT_S
    pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
    while not pid:
        if time.monotonic() > deadline:
            proc.kill()
        time.sleep(0.02)
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"request": -1, "image": 0, "traced": False, "rc": proc.returncode,
            "stdout": out_path.read_text(encoding="utf-8"),
            "stderr": err_path.read_text(encoding="utf-8", errors="replace"),
            "peak_rss_mb": usage.ru_maxrss * 1024 / 1e6}


def check_calls(calls, manifest) -> None:
    """Mark each call ok or not against the reference for its image."""
    refs = []
    for image in manifest["images"]:
        with np.load(image["ref"]) as arrays:
            refs.append(dict(arrays))
    for call in calls:
        image = manifest["images"][call["image"]]
        problems = [f"exit code {call['rc']}: {call['stderr'][-400:]}"] if call["rc"] != 0 \
            else oracle.check_output(call["stdout"], Path(image["ppm"]).stem,
                                     image["frame_hw"], refs[call["image"]])
        call["problems"] = problems
        call["ok"] = not problems


def timing_metrics(calls, setup_times, peak_rss_mb: float) -> dict[str, float]:
    ok = [c["seconds"] for c in calls if c["ok"]]
    _, tail_value = tail(ok)
    return {
        "detect_s_p50": statistics.median(ok),
        "detect_s_tail": tail_value,
        "images_per_s": len(ok) / sum(c["seconds"] for c in calls),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb,
    }


def mac_invariants(tracer: Tracer, traced_calls, manifest) -> list[tuple[str, bool]]:
    """Forward MACs equal the expected count per call, and the tracer's conv
    and linear MACs equal the forward MACs, summed over the traced calls."""
    needed = {"model.forward", "tensor_ops.conv2d", "tensor_ops.linear"}
    if needed & tracer.absent:
        return [(f"MAC invariants not checked: {sorted(needed & tracer.absent)} absent", True)]
    totals: defaultdict = defaultdict(int)
    for s in tracer.spans:
        if s.name in needed:
            totals[s.name] += s.counts.get("macs", 0)
    expected = manifest["macs_per_call"] * len(traced_calls)
    forward = totals["model.forward"]
    ops = totals["tensor_ops.conv2d"] + totals["tensor_ops.linear"]
    return [(f"model.macs {forward} == count_model_macs x {len(traced_calls)} calls "
             f"{expected}", forward == expected),
            (f"traced conv+linear MACs {ops} == model.macs {forward}", ops == forward)]


def run_workload(acfd, name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_DIR))
    try:
        subprocess.run([sys.executable, str(HERE / "prepare.py"), "--workload", name,
                        "--seed", str(seed), "--out", str(work)],
                       check=True, timeout=PREPARE_TIMEOUT_S, stdout=subprocess.DEVNULL)
        manifest = json.loads((work / "manifest.json").read_text(encoding="utf-8"))
        machine = machine_record()
        machine["sgemm_gmacs"] = sgemm_gmacs()

        tracer = Tracer() if trace else None
        setup_times: list[float] = []
        process = detect_process(workload, manifest, work)
        warmup = detect_loop(acfd, workload, manifest, 0.0, None)
        calls = detect_loop(acfd, workload, manifest, seconds, tracer, setup_times)
        check_calls([process] + warmup + calls, manifest)
        if tracer is not None:
            write_spans(tracer.spans, WORK_DIR / f"trace-{name}-seed{seed}.jsonl")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    plain = [c for c in calls if not c["traced"]]
    traced = [c for c in calls if c["traced"]]
    checks = [(f"fusion drift {manifest['drift']:.2e} <= {DRIFT_BOUND:g}",
               manifest["drift"] <= DRIFT_BOUND),
              (f"fused MACs {manifest['fused_macs']} < unfused {manifest['unfused_macs']}",
               manifest["fused_macs"] < manifest["unfused_macs"]),
              ("detect process output ok", process["ok"]),
              ("warm-up call output ok", warmup[0]["ok"])]
    e2e = (timing_metrics(plain, setup_times, process["peak_rss_mb"])
           if any(c["ok"] for c in plain) else {})
    layers = {}
    if tracer is not None:
        checks += mac_invariants(tracer, traced, manifest)
        if any(c["ok"] for c in traced) and e2e:
            overhead = (statistics.median(c["seconds"] for c in traced if c["ok"])
                        - e2e["detect_s_p50"]) * 1e3
            layers = layer_metrics(tracer.spans, machine["sgemm_gmacs"], overhead)
            for metric, _, source in PER_LAYER:
                if source in tracer.absent:
                    layers.pop(metric, None)
    return {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "machine": machine, "checks": checks, "calls": calls, "e2e": e2e,
            "layers": layers, "absent": sorted(tracer.absent) if tracer else [],
            "plain": plain, "setup_times": setup_times}


def write_spans(spans, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for s in spans:
            fh.write(json.dumps(dataclasses.asdict(s)) + "\n")


# ---------------------------------------------------------------------------
# report

def report(r: dict) -> dict:
    """Print every metric with its unit; return the final JSON object."""
    w, calls = r["workload"], r["calls"]
    failed = [c for c in calls if not c["ok"]]
    print(f"workload {w.name}  seed {r['seed']}  seconds {r['seconds']:g}  "
          f"trace {int(r['trace'])}  closed loop, 1 caller, 1 image per call")
    print("machine  " + "  ".join(f"{k}={v:.1f}" if isinstance(v, float) else f"{k}={v}"
                                  for k, v in r["machine"].items()))
    for text, ok in r["checks"]:
        print(f"check    {'ok  ' if ok else 'FAIL'} {text}")
    print("calls    s " + " ".join(f"{c['seconds']:.3f}{'t' if c['traced'] else ''}"
                                  for c in calls))
    print(f"setup    {len(r['setup_times'])} loads, s {min(r['setup_times']):.4g} "
          f"to {max(r['setup_times']):.4g}")
    for c in failed[:3]:
        print(f"failed   call {c['request']}: {'; '.join(c['problems'][:3])}", file=sys.stderr)
    plain_ok = [c["seconds"] for c in r["plain"] if c["ok"]]
    notes = {"detect_s_tail": f"(p{tail(plain_ok)[0]:.1f} of {len(plain_ok)} calls)"
             if plain_ok else "",
             "failed_ratio": f"({len(failed)}/{len(calls)})"}
    rows = [(m, r["e2e"].get(m), unit) for m, unit in END_TO_END]
    rows.append(("failed_ratio", len(failed) / len(calls), "ratio"))
    if r["trace"]:
        rows += [(m, r["layers"].get(m), unit) for m, unit, _ in PER_LAYER]
    for metric, value, unit in rows:
        shown = ("absent" if value is None else
                 f"{int(value)}" if float(value).is_integer() else f"{value:.6g}")
        print(f"{metric:<34} {shown:>14}  {unit} {notes.get(metric, '')}".rstrip())
    if r["absent"]:
        print(f"absent   traced functions not found: {', '.join(r['absent'])}")

    wanted = [(m, u) for m, u, _ in PER_LAYER] if r["trace"] else list(END_TO_END)
    values = r["layers"] if r["trace"] else r["e2e"]
    correct = not failed and all(ok for _, ok in r["checks"])
    return {"correct": correct, "attempted": len(calls), "failed": len(failed),
            "metrics": {m: {"value": values[m], "unit": u} for m, u in wanted if m in values}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="acfd detect benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        # each workload in its own process, so no state carries over between them
        codes = [subprocess.run([sys.executable, __file__, "--workload", name,
                                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                                 "--trace", str(args.trace)]).returncode
                 for name in WORKLOADS]
        return max(codes)
    try:
        acfd = load_acfd()
        importlib.import_module("acfd.cli")  # also imports container
    except ImportError as exc:
        print(f"cannot import the program: {exc}", file=sys.stderr)
        return 2
    try:
        result = run_workload(acfd, args.workload, args.seed, args.seconds, bool(args.trace))
    except (subprocess.SubprocessError, OSError) as exc:
        print(f"cannot run the workload: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report(result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
