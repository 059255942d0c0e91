import sys

import numpy as np
import pytest

from acfd import container
from acfd.anchors import anchor_count
from acfd.backbone import BackboneConfig, StageConfig, random_params
from acfd.fusion import map_blocks
from acfd.model import (ModelConfig, _build, build_model, count_model_macs, forward,
                        full_config, fuse_model, named_arrays, tiny_config)
from acfd.tensor_ops import ShapeError, conv2d, linear


# full_config's topology at desk width: two stages of two blocks, and stages whose
# output is wider than their input, so blocks without a residual run as well
NARROW_FULL_TOPOLOGY = ModelConfig(
    backbone=BackboneConfig(stem_channels=(4, 4, 8), stages=(
        StageConfig(1, 4, 12, 3), StageConfig(1, 6, 16, 3), StageConfig(2, 6, 20, 3),
        StageConfig(2, 8, 24, 3), StageConfig(1, 8, 8, 2), StageConfig(1, 8, 8, 2))),
    neck_width=8)


@pytest.fixture(scope="module")
def tiny_model():
    return build_model(tiny_config(), seed=0)


def test_forward_emits_anchor_aligned_outputs(tiny_model):
    img = np.random.default_rng(0).uniform(-1, 1, (1, 3, 128, 128)).astype(np.float32)
    out = forward(tiny_model, img)
    assert out.flat_cls().shape == (1, anchor_count((128, 128)))
    assert out.flat_reg().shape == (1, anchor_count((128, 128)), 4)


def test_forward_640_covers_all_34125_anchors(tiny_model):
    img = np.random.default_rng(2).uniform(-1, 1, (1, 3, 640, 640)).astype(np.float32)
    out = forward(tiny_model, img)
    assert out.flat_cls().shape == (1, 34125)
    assert out.flat_reg().shape == (1, 34125, 4)


def test_fusion_drift_within_budget(tiny_model):
    img = np.random.default_rng(1).uniform(-1, 1, (1, 3, 128, 128)).astype(np.float32)
    for m in (tiny_model, build_model(NARROW_FULL_TOPOLOGY, seed=0)):
        a, b = forward(m, img), forward(fuse_model(m), img)
        worst = max(float(np.abs(x - y).max()) for x, y in zip(a.cls + a.reg, b.cls + b.reg))
        assert worst <= 1e-3


def _foldable_blocks(tree) -> list:
    found = []
    map_blocks(tree, found.append)
    return found


def test_fused_trees_hold_only_plain_convs(tiny_model, tmp_path):
    assert _foldable_blocks(tiny_model)
    fused = fuse_model(tiny_model)
    assert _foldable_blocks(fused) == []
    path = tmp_path / "fused.acfd"
    container.save_file(fused, path)
    assert _foldable_blocks(container.load_file(path)) == []


def test_refusing_double_fusion(tiny_model):
    fused = fuse_model(tiny_model)
    with pytest.raises(ValueError):
        fuse_model(fused)


def test_fused_model_has_fewer_parameters_and_macs(tiny_model):
    fused = fuse_model(tiny_model)
    params = lambda m: sum(a.size for a in named_arrays(m).values())
    assert params(fused) < params(tiny_model)
    unfused_macs = count_model_macs(tiny_model, (128, 128))
    fused_macs = count_model_macs(fused, (128, 128))
    assert fused_macs < unfused_macs
    # every ACB goes from 15 to 9 multiplies per output element
    assert 1.0 < unfused_macs / fused_macs < 15 / 9


def test_config_dict_roundtrip():
    for cfg in (tiny_config(), full_config(), tiny_config(width=16, layer_count=2)):
        assert ModelConfig.from_dict(cfg.to_dict()) == cfg


def test_build_is_seed_deterministic():
    a = build_model(tiny_config(), seed=5)
    b = build_model(tiny_config(), seed=5)
    for (na, va), (nb, vb) in zip(named_arrays(a).items(), named_arrays(b).items()):
        assert na == nb
        np.testing.assert_array_equal(va, vb)


def test_different_seeds_differ():
    a = build_model(tiny_config(), seed=5)
    b = build_model(tiny_config(), seed=6)
    assert not np.array_equal(named_arrays(a)["head.cls.weight"],
                              named_arrays(b)["head.cls.weight"])


@pytest.mark.parametrize("fused", [False, True], ids=["unfused", "fused"])
@pytest.mark.parametrize("config", [tiny_config(), tiny_config(16, 2)],
                         ids=["tiny", "tiny-16x2"])
def test_named_arrays_are_the_built_arrays_in_build_order(config, fused):
    # shapes alone cannot tell two swapped BN stats apart: all four are (c,)
    draw = random_params(np.random.default_rng(0))
    recorded = {}

    def record(name, shape, how):
        recorded[name] = draw(name, shape, how)
        return recorded[name]
    named = named_arrays(_build(config, record, fused))
    assert list(named) == list(recorded)
    assert all(named[name] is recorded[name] for name in recorded)


@pytest.mark.parametrize("hw", [(128, 128), (256, 384)], ids=["128x128", "256x384"])
@pytest.mark.parametrize("fused", [False, True], ids=["unfused", "fused"])
@pytest.mark.parametrize("config", [tiny_config(), tiny_config(16, 2), NARROW_FULL_TOPOLOGY],
                         ids=["tiny", "tiny-16x2", "narrow-full-topology"])
def test_count_model_macs_equals_the_macs_forward_runs(config, fused, hw, monkeypatch):
    m = build_model(config, seed=0)
    m = fuse_model(m) if fused else m
    macs = []

    def counted_conv2d(x, spec, out=None):
        out = conv2d(x, spec, out=out)
        macs.append(out.size * spec.in_c * spec.kh * spec.kw)
        return out

    def counted_linear(x, weight, bias):
        macs.append(x.size // x.shape[-1] * weight.size)
        return linear(x, weight, bias)
    for name, module in list(sys.modules.items()):
        if name.startswith("acfd."):
            for op, counted in ((conv2d, counted_conv2d), (linear, counted_linear)):
                if vars(module).get(op.__name__) is op:
                    monkeypatch.setattr(module, op.__name__, counted)
    image = np.random.default_rng(1).uniform(-1, 1, (1, 3, *hw)).astype(np.float32)
    forward(m, image)
    assert sum(macs) == count_model_macs(m, hw)


@pytest.mark.parametrize("hw", [(100, 128), (128, 200)])
def test_count_model_macs_rejects_sizes_forward_rejects(tiny_model, hw):
    with pytest.raises(ShapeError):
        count_model_macs(tiny_model, hw)
