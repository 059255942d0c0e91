"""The input resize, under the module name the benchmark traces.

`acfd detect` resizes each image with `tensor_ops.bilinear_resize`. The
benchmark's tracer (perfbench/tracing.py) wraps it as
`augment.bilinear_resize`, so this module re-exports it and holds nothing
else: training-time transforms are out of scope. When the benchmark's
target moves to `tensor_ops.bilinear_resize`, this module goes.
"""
from .tensor_ops import bilinear_resize
