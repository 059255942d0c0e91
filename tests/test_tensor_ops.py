import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acfd import tensor_ops
from acfd.postprocess import TEST_SCALES
from acfd.tensor_ops import (BNSpec, ConvSpec, ShapeError, batch_norm_infer,
                             bilinear_resize, concat_channels, conv2d,
                             conv_output_shape, global_avg_pool, linear,
                             max_pool2d, relu, resize_nearest, sigmoid)
from reference import conv2d_direct, max_pool2d_direct


def set_block_rows(monkeypatch, rows, x, spec):
    """Make conv2d build its columns `rows` output rows at a time; None keeps
    the shipped COLS_BLOCK_BYTES. The budget is that of `rows` rows of
    columns and their row strip of (rows - 1)*sh + kh padded input rows."""
    if rows is not None:
        ow = conv_output_shape(x.shape[3], spec.kw, spec.stride[1], spec.padding[1])
        wp = x.shape[3] + 2 * spec.padding[1]
        values = rows * spec.kh * spec.kw * ow + ((rows - 1) * spec.stride[0] + spec.kh) * wp
        monkeypatch.setattr(tensor_ops, "COLS_BLOCK_BYTES", values * x.shape[1] * x.itemsize)


def make_conv(weight, bias=None, stride=(1, 1), padding=(0, 0)):
    return ConvSpec(weight=np.asarray(weight, dtype=np.float32),
                    bias=None if bias is None else np.asarray(bias, dtype=np.float32),
                    stride=stride, padding=padding)


class TestConv2d:
    def test_all_ones_3x3_padded(self):
        x = np.ones((1, 1, 3, 3), dtype=np.float32)
        spec = make_conv(np.ones((1, 1, 3, 3)), padding=(1, 1))
        out = conv2d(x, spec)
        assert out[0, 0, 1, 1] == 9.0
        for i, j in [(0, 0), (0, 2), (2, 0), (2, 2)]:
            assert out[0, 0, i, j] == 4.0

    def test_identity_kernel_is_exact_identity(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 1, 5, 7)).astype(np.float32)
        spec = make_conv(np.ones((1, 1, 1, 1)))
        assert np.array_equal(conv2d(x, spec), x)

    def test_asymmetric_kernel_shape(self):
        x = np.zeros((2, 3, 64, 64), dtype=np.float32)
        spec = make_conv(np.zeros((8, 3, 3, 1)), padding=(1, 0))
        assert conv2d(x, spec).shape == (2, 8, 64, 64)

    def test_linearity(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(1, 3, 8, 8)).astype(np.float32)
        y = rng.normal(size=(1, 3, 8, 8)).astype(np.float32)
        spec = make_conv(rng.normal(size=(4, 3, 3, 3)), padding=(1, 1))
        lhs = conv2d(2.5 * x - 1.5 * y, spec)
        rhs = 2.5 * conv2d(x, spec) - 1.5 * conv2d(y, spec)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-5, atol=1e-5)

    def test_channel_mismatch_raises(self):
        spec = make_conv(np.zeros((4, 3, 3, 3)))
        with pytest.raises(ShapeError):
            conv2d(np.zeros((1, 2, 8, 8), dtype=np.float32), spec)

    def test_non_positive_output_raises(self):
        spec = make_conv(np.zeros((1, 1, 5, 5)))
        with pytest.raises(ShapeError):
            conv2d(np.zeros((1, 1, 3, 3), dtype=np.float32), spec)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_direct_reference(self, seed):
        rng = np.random.default_rng(seed)
        n, ci, co = rng.integers(1, 3), rng.integers(1, 4), rng.integers(1, 4)
        h, w = rng.integers(4, 10), rng.integers(4, 10)
        kh, kw = rng.choice([1, 3]), rng.choice([1, 3])
        stride = (int(rng.integers(1, 3)), int(rng.integers(1, 3)))
        padding = (int(rng.integers(0, 2)), int(rng.integers(0, 2)))
        x = rng.normal(size=(n, ci, h, w)).astype(np.float32)
        spec = make_conv(rng.normal(size=(co, ci, kh, kw)),
                         bias=rng.normal(size=co), stride=stride, padding=padding)
        np.testing.assert_allclose(conv2d(x, spec), conv2d_direct(x, spec),
                                   atol=1e-4, rtol=1e-4)

    # rows: output rows per column block (None keeps COLS_BLOCK_BYTES)
    @pytest.mark.parametrize("n, ci, co, hw, kernel, stride, padding, rows", [
        (2, 3, 4, (5, 7), (1, 1), (1, 1), (0, 0), None),
        (1, 3, 2, (7, 6), (1, 1), (2, 2), (0, 0), None),
        (2, 2, 3, (7, 8), (3, 3), (2, 2), (1, 1), None),
        (1, 5, 1, (6, 7), (3, 3), (1, 1), (1, 1), None),
        (1, 5, 4, (6, 7), (3, 3), (1, 1), (1, 1), None),
        (1, 3, 2, (6, 5), (1, 3), (1, 1), (0, 1), None),
        (2, 3, 2, (6, 5), (3, 1), (1, 1), (1, 0), None),
        (1, 5, 4, (6, 7), (3, 3), (1, 1), (1, 1), 1),
        (1, 3, 2, (7, 6), (3, 3), (1, 1), (1, 1), 3),
        (1, 3, 4, (9, 10), (3, 3), (2, 2), (1, 1), 2),
        (1, 3, 2, (6, 5), (1, 3), (1, 1), (0, 1), 4),
        (1, 3, 2, (6, 5), (3, 1), (1, 1), (1, 0), 4),
        (1, 2, 3, (1, 6), (3, 3), (1, 1), (1, 1), 1),
        (1, 2, 3, (6, 1), (3, 3), (1, 1), (1, 1), 4),
        (1, 2, 2, (4, 5), (3, 3), (1, 2), (2, 2), 1),
        (2, 3, 2, (5, 4), (3, 3), (1, 1), (1, 1), 2),
        (1, 2, 3, (3, 4), (1, 1), (1, 1), (2, 2), 1),
    ], ids=["1x1-n2", "1x1-stride2", "3x3-stride2-pad1", "head-out1", "head-out4",
            "acb-1x3", "acb-3x1", "3x3-one-row-blocks", "3x3-blocks-not-dividing-h",
            "stem-3x3-stride2-blocks", "acb-1x3-blocks", "acb-3x1-blocks",
            "1xW-whole-taps-in-padding", "Hx1-whole-taps-in-padding",
            "pad2-one-row-blocks", "n2-blocks", "1x1-pad2-blocks-wholly-in-padding"])
    def test_matches_direct_reference_at_named_shapes(self, n, ci, co, hw, kernel,
                                                      stride, padding, rows,
                                                      monkeypatch):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(n, ci, *hw)).astype(np.float32)
        spec = make_conv(rng.normal(size=(co, ci, *kernel)), bias=rng.normal(size=co),
                         stride=stride, padding=padding)
        set_block_rows(monkeypatch, rows, x, spec)
        out = conv2d(x, spec)
        assert out.dtype == np.float32 and out.flags.c_contiguous
        np.testing.assert_allclose(out, conv2d_direct(x, spec), atol=1e-4, rtol=1e-4)

    @pytest.mark.parametrize("kernel, rows", [
        pytest.param((1, 1), None, id="kernel0"),
        pytest.param((3, 3), None, id="kernel1"),
        pytest.param((3, 3), 4, id="3x3-blocks-not-dividing-h"),
    ])
    def test_non_contiguous_input(self, kernel, rows, monkeypatch):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(2, 6, 9, 12)).astype(np.float32)[:, ::2, 1:, ::-2]
        assert not x.flags.c_contiguous
        spec = make_conv(rng.normal(size=(2, 3, *kernel)), bias=rng.normal(size=2))
        set_block_rows(monkeypatch, rows, x, spec)
        out = conv2d(x, spec)
        assert out.flags.c_contiguous
        np.testing.assert_allclose(out, conv2d_direct(x, spec), atol=1e-4, rtol=1e-4)

    @pytest.mark.parametrize("kernel, stride, rows", [
        pytest.param((1, 1), (1, 1), None, id="kernel0-stride0"),
        pytest.param((3, 3), (2, 1), None, id="kernel1-stride1"),
        pytest.param((3, 3), (2, 1), 1, id="3x3-stride2-one-row-blocks"),
    ])
    def test_float64_stays_float64(self, kernel, stride, rows, monkeypatch):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(2, 3, 7, 6))
        spec = ConvSpec(weight=rng.normal(size=(4, 3, *kernel)), bias=rng.normal(size=4),
                        stride=stride, padding=(1, 1))
        set_block_rows(monkeypatch, rows, x, spec)
        out = conv2d(x, spec)
        assert out.dtype == np.float64 and out.flags.c_contiguous
        np.testing.assert_allclose(out, conv2d_direct(x, spec), atol=1e-10, rtol=0)

    def test_columns_are_built_in_bounded_blocks(self):
        # output (16.8 MB) + one block of columns + slack; whole columns would
        # be 151 MB and a padded input copy another 17 MB
        rng = np.random.default_rng(14)
        x = rng.standard_normal((1, 64, 256, 256), dtype=np.float32)
        spec = make_conv(rng.normal(size=(64, 64, 3, 3)), bias=rng.normal(size=64),
                         padding=(1, 1))
        tracemalloc.start()
        try:
            out = conv2d(x, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == (1, 64, 256, 256)
        assert peak < out.nbytes + tensor_ops.COLS_BLOCK_BYTES + 8 * 2**20

    @pytest.mark.parametrize("kernel, padding", [
        pytest.param((1, 3), (0, 1), id="1x3"),
        pytest.param((3, 1), (1, 0), id="3x1"),
        pytest.param((3, 3), (1, 1), id="3x3"),
    ])
    def test_strided_conv_columns_and_strip_share_the_block_budget(self, kernel, padding):
        # the stride-2 stem convs of the unfused model at the largest default
        # scale; a strip sized by the columns alone held 2.85-4.7 MiB here
        rng = np.random.default_rng(16)
        x = rng.standard_normal((1, 3, 800, 1088), dtype=np.float32)
        spec = make_conv(rng.normal(size=(8, 3, *kernel)), stride=(2, 2), padding=padding)
        tracemalloc.start()
        try:
            out = conv2d(x, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - out.nbytes <= tensor_ops.COLS_BLOCK_BYTES + 2**16

    @pytest.mark.parametrize("bias", [False, True], ids=["no-bias", "bias"])
    @pytest.mark.parametrize("kernel, stride, padding, rows", [
        pytest.param((1, 1), (1, 1), (0, 0), None, id="1x1"),
        pytest.param((3, 3), (1, 1), (1, 1), None, id="3x3"),
        pytest.param((3, 3), (1, 1), (1, 1), 2, id="3x3-blocks"),
        pytest.param((3, 3), (2, 2), (1, 1), None, id="3x3-stride2"),
    ])
    @pytest.mark.parametrize("n", [1, 2])
    def test_out_channel_slice_of_a_wider_buffer(self, n, kernel, stride, padding,
                                                 rows, bias, monkeypatch):
        rng = np.random.default_rng(15)
        x = rng.normal(size=(n, 3, 9, 10)).astype(np.float32)
        spec = make_conv(rng.normal(size=(4, 3, *kernel)),
                         bias=rng.normal(size=4) if bias else None,
                         stride=stride, padding=padding)
        set_block_rows(monkeypatch, rows, x, spec)
        fresh = conv2d(x, spec)
        buf = rng.normal(size=(n, 9, *fresh.shape[2:])).astype(np.float32)
        before = buf.copy()
        got = conv2d(x, spec, out=buf[:, 2:6])
        assert got.base is buf
        assert np.array_equal(buf[:, 2:6], fresh)
        np.testing.assert_allclose(buf[:, 2:6], conv2d_direct(x, spec),
                                   atol=1e-4, rtol=1e-4)
        assert np.array_equal(buf[:, :2], before[:, :2])
        assert np.array_equal(buf[:, 6:], before[:, 6:])

    @pytest.mark.parametrize("shape, dtype", [
        pytest.param((1, 5, 8, 8), np.float32, id="channels"),
        pytest.param((2, 4, 8, 8), np.float32, id="batch"),
        pytest.param((1, 4, 8, 7), np.float32, id="width"),
        pytest.param((1, 4, 8, 8), np.float64, id="dtype"),
    ])
    def test_out_of_the_wrong_shape_raises(self, shape, dtype):
        spec = make_conv(np.ones((4, 3, 3, 3)), padding=(1, 1))
        with pytest.raises(ShapeError):
            conv2d(np.ones((1, 3, 8, 8), dtype=np.float32), spec,
                   out=np.zeros(shape, dtype=dtype))

    @pytest.mark.parametrize("kernel", [(1, 1), (3, 3)])
    def test_out_a_reshape_would_copy_is_rejected(self, kernel):
        # rows of a wider map: (oh, ow) do not merge, so a reshape would copy
        # and the GEMM would fill the copy
        spec = make_conv(np.ones((4, 3, *kernel)), padding=(kernel[0] // 2,) * 2)
        buf = np.zeros((1, 4, 8, 11), dtype=np.float32)
        with pytest.raises(ShapeError):
            conv2d(np.ones((1, 3, 8, 8), dtype=np.float32), spec, out=buf[..., :8])
        assert not buf.any()

    @pytest.mark.parametrize("slack", [0, 1], ids=["tight-cut", "loose-cut"])
    @pytest.mark.parametrize("lo, hi", [(0, 3), (3, 6), (6, 9), (0, 9)],
                             ids=["top-edge", "middle", "bottom-edge", "whole"])
    @pytest.mark.parametrize("kernel", [(1, 1), (3, 3), (1, 3), (3, 1)])
    @pytest.mark.parametrize("n", [1, 2])
    def test_row0_reads_a_cut_of_a_taller_map(self, n, kernel, lo, hi, slack, monkeypatch):
        # output rows [lo, hi) of the whole map, computed from the input rows
        # they read (and `slack` more) into the same rows of a whole-map buffer
        rng = np.random.default_rng(17)
        x = rng.normal(size=(n, 3, 9, 7)).astype(np.float32)
        ph = kernel[0] // 2
        spec = make_conv(rng.normal(size=(4, 3, *kernel)), bias=rng.normal(size=4),
                         padding=(ph, kernel[1] // 2))
        set_block_rows(monkeypatch, 2, x, spec)
        a, b = max(0, lo - ph - slack), min(9, hi + ph + slack)
        buf = np.zeros((n, 4, 9, 7), dtype=np.float32)
        got = conv2d(x[:, :, a:b], spec, buf[:, :, lo:hi], lo - a)
        assert got.base is buf
        np.testing.assert_allclose(buf[:, :, lo:hi], conv2d_direct(x, spec)[:, :, lo:hi],
                                   atol=1e-4, rtol=1e-4)
        assert not buf[:, :, :lo].any() and not buf[:, :, hi:].any()

    @pytest.mark.parametrize("rows", [None, 1], ids=["shipped-blocks", "one-row-blocks"])
    @pytest.mark.parametrize("cut", ["whole", "row0-cut", "out-slice"])
    @pytest.mark.parametrize("n, kernel, stride, padding", [
        pytest.param(1, (1, 1), (1, 1), (0, 0), id="1x1"),
        pytest.param(2, (1, 1), (1, 1), (0, 0), id="1x1-n2"),
        pytest.param(1, (3, 3), (1, 1), (1, 1), id="3x3"),
        pytest.param(2, (3, 3), (2, 2), (1, 1), id="3x3-stride2-n2"),
        pytest.param(1, (1, 3), (1, 1), (0, 1), id="1x3"),
        pytest.param(1, (3, 1), (1, 1), (1, 0), id="3x1"),
    ])
    def test_row_workers_give_the_bytes_of_one_thread(self, n, kernel, stride, padding,
                                                      cut, rows, monkeypatch):
        # 128 channels make every conv here at least three parts of PART_MACS,
        # so each worker count splits it as far as its blocks allow
        rng = np.random.default_rng(18)
        x = rng.standard_normal((n, 128, 40, 48), dtype=np.float32)
        spec = make_conv(rng.normal(size=(128, 128, *kernel)), bias=rng.normal(size=128),
                         stride=stride, padding=padding)
        set_block_rows(monkeypatch, rows, x, spec)
        oh = conv_output_shape(40, kernel[0], stride[0], padding[0])
        ow = conv_output_shape(48, kernel[1], stride[1], padding[1])
        lo, hi = 5, oh - 3  # the row0 cut's output rows, read from row lo - 1 on

        def run():
            if cut == "whole":
                return conv2d(x, spec)
            buf = np.zeros((n, 131, oh, ow), dtype=np.float32)
            if cut == "out-slice":
                conv2d(x, spec, out=buf[:, 1:129])
            else:
                conv2d(x[:, :, (lo - 1) * stride[0]:hi * stride[0] + kernel[0]], spec,
                       buf[:, 1:129, lo:hi], 1)
            return buf

        parts = []
        run_parts = tensor_ops.run_parts
        monkeypatch.setattr(tensor_ops, "run_parts", lambda part, total, count, pool:
                            parts.append(count) or run_parts(part, total, count, pool))
        want = run()
        for workers in (1, 2, 3):
            with tensor_ops.row_workers(workers):
                assert run().tobytes() == want.tobytes(), workers
        assert parts[:3] == [1, 1, 2] and parts[3] in (2, 3)

    def test_one_output_channel_splits_by_images(self, monkeypatch):
        # numpy runs a one-row weight as a matrix-vector product, whose sums
        # move with its width, so each image is one GEMM whatever the workers
        rng = np.random.default_rng(19)
        x = rng.standard_normal((3, 16, 12, 10), dtype=np.float32)
        spec = make_conv(rng.normal(size=(1, 16, 1, 1)))
        calls = []
        run_parts = tensor_ops.run_parts
        monkeypatch.setattr(tensor_ops, "run_parts", lambda part, total, count, pool:
                            calls.append((total, count)) or run_parts(part, total, count, pool))
        monkeypatch.setattr(tensor_ops, "PART_MACS", 1)
        want = conv2d(x, spec)
        with tensor_ops.row_workers(2):
            assert conv2d(x, spec).tobytes() == want.tobytes()
        assert calls == [(3, 1), (3, 2)]

    def test_row0_without_out_raises(self):
        spec = make_conv(np.ones((4, 3, 3, 3)), padding=(1, 1))
        with pytest.raises(ShapeError):
            conv2d(np.ones((1, 3, 8, 8), dtype=np.float32), spec, row0=1)

    def test_matches_scipy_correlate(self):
        scipy_signal = pytest.importorskip("scipy.signal")
        rng = np.random.default_rng(3)
        x = rng.normal(size=(1, 2, 9, 9)).astype(np.float32)
        spec = make_conv(rng.normal(size=(3, 2, 3, 3)), padding=(1, 1))
        ref = np.stack([
            sum(scipy_signal.correlate2d(x[0, c], spec.weight[o, c], mode="same")
                for c in range(2))
            for o in range(3)
        ])[None]
        np.testing.assert_allclose(conv2d(x, spec), ref, atol=1e-4)


class TestBatchNorm:
    def test_scalar_example(self):
        x = np.full((1, 1, 1, 1), 2.0, dtype=np.float32)
        bn = BNSpec(mean=np.array([1.0]), var=np.array([4.0]),
                    gamma=np.array([3.0]), beta=np.array([0.5]), eps=0.0)
        assert batch_norm_infer(x, bn)[0, 0, 0, 0] == pytest.approx(2.0)

    def test_identity_normalization(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(2, 3, 4, 4)).astype(np.float32)
        bn = BNSpec(mean=np.zeros(3), var=np.ones(3),
                    gamma=np.ones(3), beta=np.zeros(3), eps=0.0)
        np.testing.assert_allclose(batch_norm_infer(x.copy(), bn), x, atol=1e-7)

    def test_constant_channel_gives_beta(self):
        mean = np.array([2.0, -1.0])
        bn = BNSpec(mean=mean, var=np.array([3.0, 0.5]),
                    gamma=np.array([1.5, 2.0]), beta=np.array([0.25, -0.75]))
        x = np.broadcast_to(mean.reshape(1, 2, 1, 1), (1, 2, 3, 3)).astype(np.float32)
        out = batch_norm_infer(np.ascontiguousarray(x), bn)
        np.testing.assert_allclose(out[0, 0], 0.25, atol=1e-6)
        np.testing.assert_allclose(out[0, 1], -0.75, atol=1e-6)

    def test_affine_property(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(1, 2, 5, 5)).astype(np.float64)
        bn = BNSpec(mean=rng.normal(size=2), var=rng.uniform(0.5, 2.0, 2),
                    gamma=rng.normal(size=2), beta=rng.normal(size=2))
        a = 1.7
        scale = (bn.gamma / np.sqrt(bn.var + bn.eps)).reshape(1, 2, 1, 1)
        const = (bn.beta - bn.mean * scale[0, :, 0, 0]).reshape(1, 2, 1, 1)
        np.testing.assert_allclose(batch_norm_infer(a * x, bn),
                                   a * scale * x + const, atol=1e-6)

    def test_normalizes_in_place(self):
        x = np.full((1, 1, 2, 2), 2.0, dtype=np.float32)
        bn = BNSpec(mean=np.array([1.0]), var=np.array([4.0]),
                    gamma=np.array([3.0]), beta=np.array([0.5]), eps=0.0)
        assert batch_norm_infer(x, bn) is x
        np.testing.assert_allclose(x, 2.0)

    def test_length_mismatch_raises(self):
        bn = BNSpec(mean=np.zeros(2), var=np.ones(2),
                    gamma=np.ones(2), beta=np.zeros(2))
        with pytest.raises(ShapeError):
            batch_norm_infer(np.zeros((1, 3, 2, 2), dtype=np.float32), bn)

    def test_negative_variance_raises_on_every_call(self):
        # scale_shift is cached once computed; a raise leaves nothing cached
        bn = BNSpec(mean=np.zeros(2), var=np.array([1.0, -1.0]),
                    gamma=np.ones(2), beta=np.zeros(2))
        for _ in range(2):
            with pytest.raises(ValueError):
                batch_norm_infer(np.zeros((1, 2, 2, 2), dtype=np.float32), bn)


class TestActivations:
    def test_relu_values(self):
        x = np.array([[[[-1.5, 2.25, 0.0]]]], dtype=np.float32)
        assert relu(x) is x
        np.testing.assert_array_equal(x, [[[[0.0, 2.25, 0.0]]]])

    def test_sigmoid_zero(self):
        assert sigmoid(np.zeros((1, 1, 1, 1)))[0, 0, 0, 0] == 0.5

    def test_sigmoid_symmetry(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(1, 1, 8, 8)) * 10
        np.testing.assert_allclose(sigmoid(x) + sigmoid(-x), 1.0, atol=1e-12)

    def test_sigmoid_value(self):
        x = np.full((1, 1, 1, 1), 2.0)
        assert sigmoid(x)[0, 0, 0, 0] == pytest.approx(0.880797, abs=1e-6)

    def test_sigmoid_extreme_is_finite(self):
        x = np.array([[[[-500.0, 500.0]]]])
        out = sigmoid(x)
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out, [[[[0.0, 1.0]]]], atol=1e-12)


class TestPooling:
    def test_max_pool_2x2(self):
        x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]], dtype=np.float32)
        out = max_pool2d(x, (2, 2), (2, 2))
        assert out.shape == (1, 1, 1, 1) and out[0, 0, 0, 0] == 4.0

    def test_max_pool_constant_preserved(self):
        x = np.full((1, 2, 8, 8), -3.5, dtype=np.float32)
        out = max_pool2d(x, (3, 3), (2, 2), (1, 1))
        assert out.shape == (1, 2, 4, 4)
        assert np.all(out == -3.5)

    def test_max_pool_table_row(self):
        x = np.zeros((1, 256, 160, 160), dtype=np.float32)
        assert max_pool2d(x, (3, 3), (2, 2), (1, 1)).shape == (1, 256, 80, 80)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int32])
    def test_max_pool_matches_loop_reference(self, dtype):
        rng = np.random.default_rng(17)
        for (h, w), k, s, p in itertools.product([(5, 6), (6, 7)], range(1, 4),
                                                 range(1, 4), range(0, 4)):
            # the second axis takes other values, so kernel, stride and pad differ per axis
            kernel, stride, pad = (k, k % 3 + 1), (s, (s + 1) % 3 + 1), (p, (p + 2) % 4)
            x = (rng.normal(size=(2, 3, h, w)) * 100).astype(dtype)
            got = max_pool2d(x, kernel, stride, pad)
            assert got.dtype == x.dtype and got.flags.c_contiguous
            np.testing.assert_array_equal(got, max_pool2d_direct(x, kernel, stride, pad))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_max_pool_nan_in_window_wins(self, dtype):
        x = np.arange(49, dtype=dtype).reshape(1, 1, 7, 7)
        x[0, 0, 3, 2] = np.nan
        got = max_pool2d(x, (3, 3), (2, 2), (1, 1))
        np.testing.assert_array_equal(got, max_pool2d_direct(x, (3, 3), (2, 2), (1, 1)))
        # only output rows 1-2 of column 1 have input (3, 2) in their window
        assert np.isnan(got[0, 0, 1:3, 1]).all()
        assert np.isnan(got).sum() == 2

    def test_max_pool_makes_no_padded_copy(self):
        # the output, the (oh, w) row maxima and ufunc buffers; a padded copy
        # of the input would add another 4.3 MB
        x = np.random.default_rng(18).standard_normal((1, 64, 128, 128), dtype=np.float32)
        tracemalloc.start()
        try:
            out = max_pool2d(x, (3, 3), (2, 2), (1, 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == (1, 64, 64, 64)
        assert peak <= 3 * out.nbytes + 2**17

    def test_global_avg_pool(self):
        x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]], dtype=np.float32)
        assert global_avg_pool(x)[0, 0, 0, 0] == 2.5
        const = np.full((2, 3, 4, 4), 1.25, dtype=np.float32)
        np.testing.assert_array_equal(global_avg_pool(const),
                                      np.full((2, 3, 1, 1), 1.25))
        assert np.all(global_avg_pool(np.zeros((1, 1, 2, 2))) == 0.0)


class TestLinear:
    def test_identity(self):
        x = np.array([1.0, -2.0, 3.0])
        out = linear(x, np.eye(3), np.zeros(3))
        np.testing.assert_array_equal(out, x)

    def test_zero_weight_gives_bias(self):
        b = np.array([0.5, -0.5])
        out = linear(np.array([9.0, 9.0, 9.0]), np.zeros((2, 3)), b)
        np.testing.assert_array_equal(out, b)

    def test_hand_product(self):
        out = linear(np.array([1.0, 2.0]),
                     np.array([[1.0, 1.0], [1.0, -1.0]]), np.zeros(2))
        np.testing.assert_array_equal(out, [3.0, -1.0])

    def test_mismatch_raises(self):
        with pytest.raises(ShapeError):
            linear(np.zeros(3), np.zeros((2, 4)), np.zeros(2))


class TestResizeNearest:
    def test_upsample_replicates_blocks(self):
        x = np.arange(4, dtype=np.float32).reshape(1, 1, 2, 2)
        out = resize_nearest(x, (4, 4))
        expected = np.repeat(np.repeat(x, 2, axis=2), 2, axis=3)
        np.testing.assert_array_equal(out, expected)

    def test_same_size_is_identity(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(1, 2, 3, 5)).astype(np.float32)
        np.testing.assert_array_equal(resize_nearest(x, (3, 5)), x)

    @pytest.mark.parametrize("target", [
        pytest.param((8, 12), id="2x"),
        pytest.param((12, 6), id="3x-by-1x"),
        pytest.param((4, 6), id="same-size"),
        pytest.param((6, 9), id="1.5x"),
        pytest.param((7, 12), id="non-integer-by-2x"),
        pytest.param((2, 4), id="down"),
    ])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int32])
    def test_bit_identical_to_the_gather(self, target, dtype):
        # whole-multiple targets match a gather bit for bit; the gather's other
        # targets (fractional or downsampling) are rejected
        x = (np.random.default_rng(19).normal(size=(2, 3, 4, 6)) * 100).astype(dtype)
        th, tw = target
        if th % 4 or tw % 6 or th < 4 or tw < 6:
            with pytest.raises(ShapeError, match="whole multiple"):
                resize_nearest(x, target)
            return
        gathered = x[:, :, (np.arange(th) * 4) // th][:, :, :, (np.arange(tw) * 6) // tw]
        got = resize_nearest(x, target)
        assert got.dtype == x.dtype and got.flags.c_contiguous
        assert not np.may_share_memory(got, x)
        assert got.tobytes() == np.ascontiguousarray(gathered).tobytes()

    def test_downsample_rejected(self):
        x = np.full((1, 1, 4, 4), 7.0, dtype=np.float32)
        for target in ((2, 2), (0, 4), (4, 0)):
            with pytest.raises(ShapeError, match="whole multiple"):
                resize_nearest(x, target)


class TestBilinearResize:
    def test_constant_preserved(self):
        img = np.full((1, 3, 10, 14), 0.37, dtype=np.float32)
        out = bilinear_resize(img, (23, 5))
        np.testing.assert_allclose(out, 0.37, atol=1e-6)

    def test_2x_upsample_interpolates(self):
        img = np.array([[[[0.0, 1.0]]]], dtype=np.float32)
        out = bilinear_resize(img, (1, 4))
        np.testing.assert_allclose(out[0, 0, 0], [0.0, 0.25, 0.75, 1.0], atol=1e-6)

    @pytest.mark.parametrize("shape, target, dtype", [
        *[((1, 3, 96, 128), scale, np.float32) for scale in TEST_SCALES],
        ((1, 3, 180, 240), (97, 131), np.float32),
        ((2, 3, 13, 17), (31, 7), np.float32),
        ((1, 2, 1, 9), (5, 4), np.float32),
        ((2, 3, 13, 17), (29, 41), np.float64),
        ((1, 3, 96, 128), (96, 128), np.float32),
    ])
    def test_bit_identical_to_the_2d_gather(self, shape, target, dtype):
        image = np.random.default_rng(5).uniform(0, 1, shape).astype(dtype)
        expected = _bilinear_reference(image, target).tobytes()
        out = bilinear_resize(image, target)
        assert out.dtype == dtype
        assert out.tobytes() == expected
        # into the top-left corner of a larger zero-filled grid, as detect pads
        th, tw = target
        grid = np.zeros((*shape[:2], th + 5, tw + 7), dtype=dtype)
        out = bilinear_resize(image, target, out=grid[:, :, :th, :tw])
        assert np.shares_memory(out, grid) and out.tobytes() == expected
        assert not grid[:, :, th:].any() and not grid[:, :, :, tw:].any()

    def test_resize_into_grid_holds_plane_sized_temporaries(self):
        # a 766x928 image into its 800x1075 corner of an 896x1152 grid: three
        # plane-sized buffers (~9.7 MiB); whole-map temporaries and a copy
        # into the grid would be ~39 MiB
        image = np.random.default_rng(8).uniform(0, 1, (1, 3, 766, 928)).astype(np.float32)
        grid = np.zeros((1, 3, 896, 1152), dtype=np.float32)
        tracemalloc.start()
        try:
            bilinear_resize(image, (800, 1075), out=grid[:, :, :800, :1075])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert grid[:, :, :800, :1075].all()
        assert peak < 4 * 800 * 1075 * image.itemsize

    @pytest.mark.parametrize("hw", [(1, 1), (1, 5), (7, 1), (3, 3), (480, 645), (722, 938)])
    @pytest.mark.parametrize("mean", [0.0, 0.5, 1.0, 127 / 255])
    def test_same_size_is_a_byte_copy(self, hw, mean):
        # a plane as detect normalizes it: uint8 pixels / 255 - mean
        pixels = np.random.default_rng(9).integers(0, 256, (1, 1, *hw))
        plane = pixels.astype(np.float32)
        plane /= 255.0
        plane -= mean
        assert bilinear_resize(plane, hw).tobytes() == plane.tobytes()


def _bilinear_reference(image, target):
    """Every output pixel gathered from its four source pixels at once."""
    h, w = image.shape[2], image.shape[3]
    th, tw = target
    sy = np.clip((np.arange(th) + 0.5) * h / th - 0.5, 0, h - 1)
    sx = np.clip((np.arange(tw) + 0.5) * w / tw - 0.5, 0, w - 1)
    y0, x0 = np.floor(sy).astype(int), np.floor(sx).astype(int)
    y1, x1 = np.minimum(y0 + 1, h - 1), np.minimum(x0 + 1, w - 1)
    fy = (sy - y0).astype(image.dtype)[None, None, :, None]
    fx = (sx - x0).astype(image.dtype)[None, None, None, :]
    top = image[:, :, y0][:, :, :, x0] * (1 - fx) + image[:, :, y0][:, :, :, x1] * fx
    bot = image[:, :, y1][:, :, :, x0] * (1 - fx) + image[:, :, y1][:, :, :, x1] * fx
    return top * (1 - fy) + bot * fy


class TestConcat:
    def test_single_input(self):
        x = np.ones((1, 2, 3, 3), dtype=np.float32)
        cat = concat_channels(x, 0)
        np.testing.assert_array_equal(cat, x)
        assert not np.shares_memory(cat, x)

    def test_channel_arithmetic(self):
        a = np.zeros((2, 2, 4, 4), dtype=np.float32)
        cat = concat_channels(a, 3)
        assert cat.shape == (2, 5, 4, 4) and cat.dtype == np.float32

    def test_roundtrip_slices(self):
        rng = np.random.default_rng(6)
        a = rng.normal(size=(1, 2, 4, 4)).astype(np.float32)
        b = rng.normal(size=(1, 3, 4, 4)).astype(np.float32)
        cat = concat_channels(a, 3)
        cat[:, 2:] = b
        np.testing.assert_array_equal(cat, np.concatenate([a, b], axis=1))
        cat[:, :2] = 0
        assert a.any()

    def test_spatial_mismatch_raises(self):
        # a layer map of another size cannot be written into the buffer
        cat = concat_channels(np.zeros((1, 1, 4, 4), dtype=np.float32), 1)
        with pytest.raises(ShapeError):
            conv2d(np.zeros((1, 1, 5, 4), dtype=np.float32),
                   make_conv(np.ones((1, 1, 1, 1))), out=cat[:, 1:])
        with pytest.raises(ShapeError):
            concat_channels(np.zeros((1, 4, 4), dtype=np.float32), 1)
        with pytest.raises(ShapeError):
            concat_channels(np.zeros((1, 1, 4, 4), dtype=np.float32), -1)


def _enumerate_positions(size, kernel, stride, pad):
    count = 0
    start = 0
    while start + kernel <= size + 2 * pad:
        count += 1
        start += stride
    return count


@settings(max_examples=200, deadline=None)
@given(size=st.integers(1, 64), kernel=st.integers(1, 7),
       stride=st.integers(1, 4), pad=st.integers(0, 3))
def test_output_shape_matches_loop_counting(size, kernel, stride, pad):
    expected = _enumerate_positions(size, kernel, stride, pad)
    got = conv_output_shape(size, kernel, stride, pad)
    if expected > 0:
        assert got == expected
    else:
        assert got < 1


def test_all_ops_preserve_finiteness():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(1, 3, 9, 9)).astype(np.float32) * 1e3
    spec = make_conv(rng.normal(size=(4, 3, 3, 3)), bias=rng.normal(size=4),
                     padding=(1, 1))
    bn = BNSpec(mean=rng.normal(size=4), var=rng.uniform(0.1, 2.0, 4),
                gamma=rng.normal(size=4), beta=rng.normal(size=4))
    out = batch_norm_infer(conv2d(x, spec), bn)
    # relu rectifies in place, so it gets a copy and the other ops see out
    for t in (out, relu(out.copy()), sigmoid(out),
              max_pool2d(out, (3, 3), (2, 2), (1, 1)), global_avg_pool(out),
              resize_nearest(out, (18, 27))):
        assert np.all(np.isfinite(t))
