import tracemalloc

import numpy as np
import pytest

from acfd.augment import (Sample, bilinear_resize, color_jitter, expand,
                          random_crop, resize_to_train, tile_to_anchor_scale)
from acfd.postprocess import multi_scale_sizes


def make_sample(h=100, w=100, boxes=None, seed=7):
    rng = np.random.default_rng(seed)
    image = rng.uniform(0, 1, size=(1, 3, h, w)).astype(np.float32)
    if boxes is None:
        boxes = np.array([[10.0, 10.0, 20.0, 20.0]])
    return Sample(image=image, boxes=np.asarray(boxes, dtype=np.float64),
                  rng_seed=seed)


def boxes_valid(sample):
    b, (h, w) = sample.boxes, sample.hw
    return (np.all(b[:, 2] >= b[:, 0]) and np.all(b[:, 3] >= b[:, 1])
            and np.all(b[:, 0] >= 0) and np.all(b[:, 1] >= 0)
            and np.all(b[:, 2] <= w) and np.all(b[:, 3] <= h))


class TestExpand:
    def test_ratio_one_is_identity(self):
        s = make_sample()
        out = expand(s, 1.0)
        np.testing.assert_array_equal(out.image, s.image)
        np.testing.assert_array_equal(out.boxes, s.boxes)

    def test_translation_arithmetic(self):
        s = make_sample()
        out = expand(s, 2.0, offset=(30, 40))
        assert out.hw == (200, 200)
        np.testing.assert_allclose(out.boxes[0], [40.0, 50.0, 50.0, 60.0])
        np.testing.assert_array_equal(out.image[:, :, 40:140, 30:130], s.image)

    def test_padding_equals_channel_means(self):
        s = make_sample()
        out = expand(s, 2.0, offset=(0, 0))
        means = s.image.mean(axis=(2, 3))
        for c in range(3):
            np.testing.assert_allclose(out.image[0, c, 150:, 150:], means[0, c],
                                       atol=1e-6)

    def test_ratio_below_one_rejected(self):
        with pytest.raises(ValueError):
            expand(make_sample(), 0.9)

    def test_boxes_stay_valid(self):
        s = make_sample(boxes=[[0.0, 0.0, 100.0, 100.0]])
        out = expand(s, 3.7)
        assert boxes_valid(out)


class TestRandomCrop:
    def test_full_crop_is_identity(self):
        s = make_sample()
        out = random_crop(s, crop=(0, 0, 100, 100))
        np.testing.assert_array_equal(out.image, s.image)
        np.testing.assert_array_equal(out.boxes, s.boxes)

    def test_excluded_box_dropped(self):
        s = make_sample(boxes=[[80.0, 80.0, 95.0, 95.0]])
        out = random_crop(s, crop=(0, 0, 50, 50))
        assert out.boxes.shape[0] == 0

    def test_center_inside_box_clipped_and_kept(self):
        s = make_sample(boxes=[[40.0, 40.0, 70.0, 70.0]])
        out = random_crop(s, crop=(0, 0, 60, 60))
        assert out.boxes.shape[0] == 1
        np.testing.assert_allclose(out.boxes[0], [40.0, 40.0, 60.0, 60.0])

    def test_seeded_geometry_is_reproducible(self):
        a = random_crop(make_sample(seed=3))
        b = random_crop(make_sample(seed=3))
        assert a.image.tobytes() == b.image.tobytes()
        assert a.boxes.tobytes() == b.boxes.tobytes()


class TestTileToAnchorScale:
    def test_matching_side_is_identity_scale(self):
        s = make_sample(boxes=[[10.0, 10.0, 74.0, 42.0]])  # long side 64
        out = tile_to_anchor_scale(s, face_idx=0, target_side=64)
        assert out.hw == s.hw
        np.testing.assert_allclose(out.boxes, s.boxes)

    def test_downscale_factor(self):
        s = make_sample(h=200, w=300, boxes=[[0.0, 0.0, 100.0, 50.0]])
        out = tile_to_anchor_scale(s, face_idx=0, target_side=16)
        assert out.hw == (32, 48)  # 0.16 * (200, 300)
        np.testing.assert_allclose(out.boxes[0], [0.0, 0.0, 16.0, 8.0])

    def test_all_boxes_share_the_factor(self):
        boxes = [[10.0, 10.0, 60.0, 35.0], [20.0, 50.0, 40.0, 90.0]]
        s = make_sample(h=128, w=128, boxes=boxes)
        out = tile_to_anchor_scale(s, face_idx=0, target_side=100)
        np.testing.assert_allclose(out.boxes, np.asarray(boxes) * 2.0)

    def test_no_boxes_is_identity(self):
        s = make_sample(boxes=np.zeros((0, 4)))
        out = tile_to_anchor_scale(s)
        np.testing.assert_array_equal(out.image, s.image)
        assert out.boxes.shape[0] == 0


class TestResizeToTrain:
    def test_already_target_identity(self):
        s = make_sample(h=640, w=640)
        out = resize_to_train(s)
        np.testing.assert_array_equal(out.image, s.image)

    def test_axis_scales_applied_to_boxes(self):
        s = make_sample(h=320, w=640, boxes=[[10.0, 10.0, 20.0, 20.0]])
        out = resize_to_train(s)
        assert out.hw == (640, 640)
        np.testing.assert_allclose(out.boxes[0], [10.0, 20.0, 20.0, 40.0])

    def test_corner_box_stays_in_bounds(self):
        s = make_sample(h=100, w=300, boxes=[[290.0, 90.0, 300.0, 100.0]])
        out = resize_to_train(s)
        assert boxes_valid(out)
        np.testing.assert_allclose(out.boxes[0, 2:], [640.0, 640.0])


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
        *[((1, 3, 96, 128), scale, np.float32) for scale in multi_scale_sizes()],
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


class TestDeterminismAndChaining:
    def test_same_seed_bit_identical_chain(self):
        def run():
            s = make_sample(h=120, w=90, seed=42,
                            boxes=[[5.0, 5.0, 40.0, 30.0], [50.0, 40.0, 80.0, 85.0]])
            s = color_jitter(s)
            s = expand(s, 2.5)
            s = random_crop(s)
            s = tile_to_anchor_scale(s)
            return resize_to_train(s)
        a, b = run(), run()
        assert a.image.tobytes() == b.image.tobytes()
        assert a.boxes.tobytes() == b.boxes.tobytes()
        assert a.rng_seed == b.rng_seed

    def test_boxes_valid_after_every_step(self):
        s = make_sample(h=150, w=110, seed=9,
                        boxes=[[5.0, 5.0, 40.0, 30.0], [60.0, 70.0, 100.0, 140.0]])
        for op in (lambda t: color_jitter(t), lambda t: expand(t, 3.0),
                   lambda t: random_crop(t), lambda t: tile_to_anchor_scale(t),
                   lambda t: resize_to_train(t)):
            s = op(s)
            assert boxes_valid(s)

    def test_different_seeds_diverge(self):
        a = expand(make_sample(seed=1), 4.0)
        b = expand(make_sample(seed=2), 4.0)
        assert a.image.shape == b.image.shape
        assert a.image.tobytes() != b.image.tobytes()


class TestColorJitter:
    def test_output_in_unit_range(self):
        out = color_jitter(make_sample(seed=5))
        assert out.image.min() >= 0.0 and out.image.max() <= 1.0

    def test_boxes_untouched(self):
        s = make_sample()
        out = color_jitter(s)
        np.testing.assert_array_equal(out.boxes, s.boxes)
