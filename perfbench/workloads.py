"""The benchmark's workload table and the import of the program under test.

Every workload drives `acfd detect` on seeded inputs. The reasons each one
exists are in README.md and in BENCHMARK.json at the repository root.
"""
from __future__ import annotations

import importlib
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".perfbench"

# The frozen detect defaults the reference re-derives on its own.
TEST_SCALES = ((480, 645), (640, 860), (800, 1075))
GRID_MULTIPLE = 128
CONF_THRESHOLD = 0.08
PER_SCALE_TOP = 1000
NMS_IOU = 0.55
FINAL_TOP = 100
MEAN = 0.5


@dataclass(frozen=True)
class Workload:
    name: str
    config: str                 # "tiny" or "full" model config
    fused: bool                 # which container the detect call loads
    scales: tuple               # (h, w) test scales the detect call runs
    detect_args: tuple          # extra `acfd detect` arguments
    images: int                 # distinct seeded PPMs, cycled by the loop
    setup_loads: int            # container loads timed after each call, for setup_s


WORKLOADS = {w.name: w for w in (
    # Narrow channels: per-op overhead and copies dominate tensor_ops;
    # post-processing of ~3000 candidates and three resizes are visible.
    Workload("detect-tiny-3scale", "tiny", True, TEST_SCALES, (), 3, 3),
    # Wide channels: the 3x3 and 1x1 GEMMs dominate; the 118 MB container
    # load is the other large cost.
    Workload("detect-full-512", "full", True, ((512, 512),),
             ("--single-scale", "512x512"), 2, 1),
    # Same model seed and images as detect-tiny-3scale, unfused: ACB
    # forward, 1x3/3x1 convs and batch norm run only here.
    Workload("detect-tiny-unfused", "tiny", False, TEST_SCALES, (), 3, 3),
)}


def pad_to_grid(hw: tuple[int, int]) -> tuple[int, int]:
    return tuple(-(-v // GRID_MULTIPLE) * GRID_MULTIPLE for v in hw)


def load_acfd():
    """Import `acfd` from this checkout's `src/`, never from anywhere else.

    Raises ImportError when the checkout holds no program source, so a
    directory with only the benchmark fails instead of measuring nothing.
    """
    src = ROOT / "src"
    if not (src / "acfd" / "__init__.py").is_file():
        raise ImportError(f"no program source under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    acfd = importlib.import_module("acfd")
    if Path(acfd.__file__).resolve().parent != (src / "acfd").resolve():
        raise ImportError(f"acfd imported from {acfd.__file__}, not {src}")
    return acfd
