"""Model builder tests: parameter counts, compute ratios, taps, persistence."""

import numpy as np
import pytest

from srdistill import tensor as T
from srdistill.models import (
    DiscriminatorSpec,
    GeneratorSpec,
    build_discriminator,
    build_generator,
    build_model,
    count_flops,
    count_params,
    load_model,
    params_digest,
    save_model,
)
from srdistill.serialize import CodecError, write_checkpoint
from srdistill.tensor import Tensor

PARAM_REFERENCE = [
    ("resnet", 64, 9, 11_378_179),
    ("resnet", 32, 9, 2_850_563),
    ("resnet", 16, 9, 715_651),
    ("unet", 64, 9, 54_409_603),
    ("unet", 16, 9, 3_403_363),
]


@pytest.mark.parametrize("kind,ngf,n_blocks,expected", PARAM_REFERENCE)
def test_parameter_counts(kind, ngf, n_blocks, expected):
    spec = GeneratorSpec(kind=kind, ngf=ngf, n_blocks=n_blocks, resolution=256)
    model = build_generator(spec, np.random.default_rng(0), dtype=np.float32)
    assert count_params(model) == expected


def test_halving_width_shrinks_params_about_4x():
    for kind in ("resnet", "unet"):
        wide = build_generator(GeneratorSpec(kind, 64, 6), dtype=np.float32)
        slim = build_generator(GeneratorSpec(kind, 32, 6), dtype=np.float32)
        factor = count_params(wide) / count_params(slim)
        assert 3.8 <= factor <= 4.05


def test_flop_ratios_track_width():
    flops = {ngf: count_flops(build_generator(GeneratorSpec("resnet", ngf, 9),
                                              dtype=np.float32), 256)
             for ngf in (64, 32, 16)}
    assert flops[32] / flops[64] == pytest.approx(12.14 / 47.22, rel=0.05)
    assert flops[16] / flops[64] == pytest.approx(3.20 / 47.22, rel=0.07)


def test_flops_scale_with_spatial_area():
    g = build_generator(GeneratorSpec("resnet", 8, 2, resolution=64),
                        dtype=np.float32)
    assert count_flops(g, 128) == 4 * count_flops(g, 64)


def _patch_extent(r, n_layers):
    for _ in range(n_layers):
        r = (r + 2 - 4) // 2 + 1
    return r - 2  # two stride-1 4x4 convs with padding 1 each lose one


@pytest.mark.parametrize("resolution,expected", [(256, 30), (32, 2)])
def test_patch_discriminator_output_grid(resolution, expected):
    assert _patch_extent(resolution, 3) == expected
    d = build_discriminator(DiscriminatorSpec(ndf=8), dtype=np.float32)
    x = Tensor(np.zeros((1, 3, resolution, resolution), dtype=np.float32))
    assert d.forward(x).shape == (1, 1, expected, expected)


def test_resnet_taps_and_default():
    g = build_generator(GeneratorSpec("resnet", 8, 3, resolution=32),
                        dtype=np.float32)
    assert g.default_tap == "res3"
    assert g.taps[:4] == ["stem", "down1", "down2", "res1"]
    x = Tensor(np.random.default_rng(0).normal(size=(1, 3, 32, 32))
               .astype(np.float32))
    feat, out = g.forward_split(x)
    assert feat.shape == (1, 32, 8, 8)  # 4*ngf at quarter resolution
    assert out.shape == (1, 3, 32, 32)


def test_unet_tap_resolutions():
    g = build_generator(GeneratorSpec("unet", 2, 1, resolution=256),
                        dtype=np.float32)
    assert g.default_tap == "down3"
    x = Tensor(np.random.default_rng(1).normal(size=(1, 3, 256, 256))
               .astype(np.float32))
    feat2, _ = g.forward_split(x, "down2")
    feat3, out = g.forward_split(x, "down3")
    assert feat2.shape == (1, 4, 64, 64)
    assert feat3.shape == (1, 8, 32, 32)
    assert out.shape == (1, 3, 256, 256)


def test_forward_split_output_matches_forward_bitwise():
    g = build_generator(GeneratorSpec("resnet", 4, 2, resolution=16),
                        dtype=np.float32)
    x = Tensor(np.random.default_rng(2).normal(size=(1, 3, 16, 16))
               .astype(np.float32))
    _, out_split = g.forward_split(x)
    assert np.array_equal(out_split.data, g.forward(x).data)


def test_unknown_tap_raises():
    g = build_generator(GeneratorSpec("resnet", 4, 2, resolution=16))
    with pytest.raises(KeyError):
        g.forward_split(Tensor(np.zeros((1, 3, 16, 16))), "res99")


def test_generator_output_in_tanh_range():
    g = build_generator(GeneratorSpec("resnet", 4, 1, resolution=16),
                        dtype=np.float32)
    x = Tensor(np.random.default_rng(3).uniform(-1, 1, (2, 3, 16, 16))
               .astype(np.float32))
    y = g.forward(x).data
    assert np.all(y > -1.0) and np.all(y < 1.0)


def test_init_statistics():
    g = build_generator(GeneratorSpec("resnet", 64, 1), dtype=np.float64)
    params = dict(g.named_params())
    w = params["stem.0.weight"].data
    assert abs(w.std() - 0.02) < 0.002
    assert abs(w.mean()) < 0.002
    assert np.all(params["stem.0.bias"].data == 0.0)


def test_build_is_deterministic_per_seed():
    spec = GeneratorSpec("resnet", 8, 2, resolution=32)
    a = build_generator(spec, np.random.default_rng(5), dtype=np.float32)
    b = build_generator(spec, np.random.default_rng(5), dtype=np.float32)
    c = build_generator(spec, np.random.default_rng(6), dtype=np.float32)
    assert params_digest(a.named_params()) == params_digest(b.named_params())
    assert params_digest(a.named_params()) != params_digest(c.named_params())


# sha256 of each fixed-seed float32 build, as the draws were first made: the
# draw order, weight by weight, must not change
@pytest.mark.parametrize("spec, seed, digest", [
    (GeneratorSpec("resnet", 4, 2, resolution=16), 7,
     "15d8f9d3a16249634b5c9afd0fc92c5b62425a1149231cd6e03756fbd08cf570"),
    (GeneratorSpec("unet", 2, resolution=256), 8,
     "2285b3514fe80c2cbd43bb9b5f63de5d0d349bebb6a3801ee17b38600cfcc929"),
    (DiscriminatorSpec(ndf=4, n_layers=2, in_channels=6), 9,
     "54f627260f0d66ea881fd1b2f29bfd282bb456906a98288d5ea54516ca2426fe"),
], ids=["resnet", "unet", "patchgan"])
def test_fixed_seed_builds_are_pinned(spec, seed, digest):
    model = build_model(spec, np.random.default_rng(seed), dtype=np.float32)
    assert params_digest(model.named_params()) == digest


def test_save_load_round_trip(tmp_path):
    spec = GeneratorSpec("resnet", 4, 2, resolution=16)
    g = build_generator(spec, np.random.default_rng(7), dtype=np.float32)
    path = tmp_path / "g.ckpt"
    save_model(path, g)
    g2 = load_model(path)
    assert g2.manifest == g.manifest
    assert params_digest(g2.named_params()) == params_digest(g.named_params())
    x = Tensor(np.random.default_rng(8).normal(size=(1, 3, 16, 16))
               .astype(np.float32))
    assert np.array_equal(g.forward(x).data, g2.forward(x).data)


def test_load_rejects_mismatched_inventory(tmp_path):
    from srdistill.serialize import write_checkpoint

    spec = GeneratorSpec("resnet", 4, 1, resolution=16)
    g = build_generator(spec, dtype=np.float32)
    items = [(n, t.data) for n, t in g.named_params()][:-1]  # drop one record
    path = tmp_path / "bad.ckpt"
    write_checkpoint(path, g.manifest, items)
    with pytest.raises(ValueError):
        load_model(path)


@pytest.mark.parametrize("manifest,key", [
    ({"kind": "resnet"}, "ngf"),
    ({"kind": "patchgan", "ndf": "8", "n_layers": "x", "in_channels": "3"},
     "n_layers"),
])
def test_checkpoint_manifest_missing_or_bad_field_is_a_codec_error(
        tmp_path, manifest, key):
    path = tmp_path / "bad.ckpt"
    write_checkpoint(path, manifest, [])
    with pytest.raises(CodecError, match=key):
        load_model(path)


@pytest.mark.parametrize("fault", ["kind", "ngf", "resolution", "missing", "shape"])
def test_checkpoint_the_model_rejects_is_a_codec_error_naming_the_file(tmp_path, fault):
    g = build_generator(GeneratorSpec("resnet", 4, 1, resolution=16), dtype=np.float32)
    manifest, items = dict(g.manifest), [(n, t.data) for n, t in g.named_params()]
    if fault == "kind":
        manifest["kind"] = "vgg"
    elif fault == "ngf":
        manifest["ngf"] = "0"
    elif fault == "resolution":
        manifest["resolution"] = "6"
    elif fault == "missing":
        items = items[:-1]
    else:
        items[0] = (items[0][0], items[0][1][:1])
    path = tmp_path / "bad.ckpt"
    write_checkpoint(path, manifest, items)
    with pytest.raises(CodecError, match="bad.ckpt"):
        load_model(path)


@pytest.mark.parametrize("fault, culprit", [
    ("extra", "'extra.weight'"),
    ("swapped", "'res1.0.conv2.weight', where the model has 'res1.0.conv1.weight'"),
], ids=["extra", "swapped"])
def test_checkpoint_records_not_the_models_named_params_are_a_codec_error(
        tmp_path, fault, culprit):
    g = build_generator(GeneratorSpec("resnet", 4, 1, resolution=16), dtype=np.float32)
    items = [(n, t.data) for n, t in g.named_params()]
    if fault == "extra":
        items.append(("extra.weight", items[0][1]))
    else:
        # two records of one shape, in each other's place: the names tell
        names = [n for n, _ in items]
        i, j = names.index("res1.0.conv1.weight"), names.index("res1.0.conv2.weight")
        items[i], items[j] = items[j], items[i]
    path = tmp_path / "bad.ckpt"
    write_checkpoint(path, g.manifest, items)
    with pytest.raises(CodecError, match="bad.ckpt") as exc:
        load_model(path)
    assert culprit in str(exc.value)


def test_discriminator_round_trip(tmp_path):
    d = build_discriminator(DiscriminatorSpec(ndf=8, in_channels=6),
                            np.random.default_rng(9), dtype=np.float32)
    path = tmp_path / "d.ckpt"
    save_model(path, d)
    d2 = load_model(path)
    assert d2.manifest["kind"] == "patchgan"
    assert params_digest(d2.named_params()) == params_digest(d.named_params())


def test_spec_validation():
    with pytest.raises(ValueError):
        GeneratorSpec("vgg", 64)
    with pytest.raises(ValueError):
        GeneratorSpec("resnet", 0)
    with pytest.raises(ValueError):
        GeneratorSpec("resnet", 64, n_blocks=0)
    with pytest.raises(ValueError):
        GeneratorSpec("resnet", 64, resolution=30)
    with pytest.raises(ValueError):
        GeneratorSpec("unet", 64, resolution=128)
    with pytest.raises(ValueError):
        DiscriminatorSpec(ndf=0)


def test_set_requires_grad_toggles_and_clears():
    g = build_generator(GeneratorSpec("resnet", 4, 1, resolution=16))
    g.set_requires_grad(False)
    assert all(not t.requires_grad for t in g.params())
    g.set_requires_grad(True)
    assert all(t.requires_grad for t in g.params())


def _count_conv_macs(monkeypatch):
    """Wrap the two conv ops so a real forward tallies its MACs."""
    seen = [0]
    conv2d, conv_t = T.conv2d, T.conv_transpose2d

    def counted_conv2d(x, w, b, **kw):
        out = conv2d(x, w, b, **kw)
        n, o, oh, ow = out.shape
        seen[0] += n * o * oh * ow * w.shape[1] * w.shape[2] * w.shape[3]
        return out

    def counted_conv_t(x, w, b, **kw):
        n, i, h, wd = x.shape
        seen[0] += n * i * h * wd * w.shape[1] * w.shape[2] * w.shape[3]
        return conv_t(x, w, b, **kw)

    monkeypatch.setattr(T, "conv2d", counted_conv2d)
    monkeypatch.setattr(T, "conv_transpose2d", counted_conv_t)
    return seen


@pytest.mark.parametrize("spec,resolution,expected", [
    (GeneratorSpec("unet", 2, resolution=256), 256, 10_477_568),
    (GeneratorSpec("resnet", 4, 2, resolution=64), 64, 8_355_840),
    (DiscriminatorSpec(ndf=4, in_channels=6), 64, 1_075_200),
])
def test_count_macs_matches_a_real_forward(monkeypatch, spec, resolution,
                                           expected):
    model = build_model(spec, dtype=np.float32)
    shape = (1, spec.in_channels, resolution, resolution)
    seen = _count_conv_macs(monkeypatch)
    model.forward(Tensor(np.zeros(shape, dtype=np.float32)))
    assert seen[0] == model.count_macs(shape) == expected


@pytest.mark.parametrize("spec,expected", [
    (GeneratorSpec("resnet", 64), 99_103_014_912),
    (GeneratorSpec("unet", 64), 12_096_372_736),
    (DiscriminatorSpec(ndf=64), 6_293_618_688),
    (DiscriminatorSpec(ndf=64, in_channels=6), 6_394_281_984),
])
def test_count_flops_at_256_px(spec, expected):
    assert count_flops(build_model(spec, dtype=np.float32), 256) == expected


def test_unet_taps_and_parameter_order():
    g = build_generator(GeneratorSpec("unet", 2, resolution=256),
                        dtype=np.float32)
    assert g.taps == ([f"down{k}" for k in range(1, 9)]
                      + [f"up{k}" for k in range(8, 0, -1)])
    names = [n for n, _ in g.named_params()]
    assert names[:2] == ["down1.0.weight", "down1.0.bias"]
    assert names[-2:] == ["up1.1.weight", "up1.1.bias"]
    assert len(names) == 32  # one conv per stage, weight and bias each


def test_layers_look_their_op_up_at_call_time(monkeypatch):
    g = build_generator(GeneratorSpec("resnet", 4, 1, resolution=32),
                        dtype=np.float32)
    d = build_discriminator(DiscriminatorSpec(ndf=4), dtype=np.float32)
    calls = {}
    for op in ("relu", "leaky_relu", "tanh", "instance_norm"):
        def counted(*args, _fn=getattr(T, op), _op=op, **kw):
            calls[_op] = calls.get(_op, 0) + 1
            return _fn(*args, **kw)
        monkeypatch.setattr(T, op, counted)
    x = Tensor(np.zeros((1, 3, 32, 32), dtype=np.float32))
    d.forward(g.forward(x))
    # generator: stem, down1/2, one block (two norms), up1/2, head;
    # discriminator: layer0..layer3, normed from layer1 on
    assert calls == {"relu": 6, "tanh": 1, "leaky_relu": 4,
                     "instance_norm": 7 + 3}


def test_load_model_draws_no_random_init(tmp_path, monkeypatch):
    # the skeleton's weights are all replaced, so it is built without draws,
    # and each parameter is the decoded array, bit for bit
    models = [build_generator(GeneratorSpec("resnet", 4, 2, resolution=16),
                              np.random.default_rng(7), dtype=np.float32),
              build_discriminator(DiscriminatorSpec(ndf=8, in_channels=6),
                                  np.random.default_rng(9), dtype=np.float32)]

    def no_rng(*args, **kwargs):
        raise AssertionError("load_model made a random generator")

    monkeypatch.setattr(np.random, "default_rng", no_rng)
    for i, model in enumerate(models):
        path = tmp_path / f"m{i}.ckpt"
        save_model(path, model)
        loaded = load_model(path)
        for (name, t), (name2, t2) in zip(model.named_params(), loaded.named_params(),
                                          strict=True):
            assert name == name2 and t2.data.dtype == np.float32
            assert t2.data.tobytes() == t.data.tobytes()


def test_checkpoint_manifest_of_a_huge_model_is_a_codec_error(tmp_path):
    # the skeleton may not ask for more weights than the checkpoint stores
    g = build_generator(GeneratorSpec("resnet", 4, 1, resolution=16), dtype=np.float32)
    path = tmp_path / "huge.ckpt"
    write_checkpoint(path, {**g.manifest, "ngf": str(10**12)},
                     [(n, t.data) for n, t in g.named_params()])
    with pytest.raises(CodecError, match="huge.ckpt"):
        load_model(path)


def test_spec_rejects_fields_its_manifest_could_not_read_back():
    # each of these once built, and wrote a manifest that fails to load
    with pytest.raises(ValueError, match="n_blocks"):
        GeneratorSpec("unet", 64, n_blocks=0)
    for resolution in (0, -256):
        with pytest.raises(ValueError, match="resolution"):
            GeneratorSpec("unet", 64, resolution=resolution)
    with pytest.raises(ValueError, match="in_channels"):
        DiscriminatorSpec(in_channels=0)


def test_a_uint8_image_runs_through_a_default_built_generator():
    # integer data become float32, the dtype build_model defaults to
    img = np.random.default_rng(3).integers(0, 256, (16, 16, 3), dtype=np.uint8)
    g = build_model(GeneratorSpec("resnet", 4, 1, resolution=16))
    y = g.forward(Tensor(img.transpose(2, 0, 1)[None]))
    assert y.shape == (1, 3, 16, 16) and y.dtype == np.float32
