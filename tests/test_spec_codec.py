"""The spec codec: round trips over valid specs, and manifest fuzzing."""

import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from srdistill import data as D
from srdistill.models import (
    MODEL_KINDS,
    DiscriminatorSpec,
    GeneratorSpec,
    build_generator,
    load_model,
)
from srdistill.serialize import CodecError, checkpoint_to_bytes, decode_spec, encode_spec

def _at_least(lo):
    """Ints from `lo` up, and now and then a smaller one down to -2, which the
    spec must reject: a manifest cannot hold a negative int."""
    return st.one_of(st.integers(-2, lo + 14), st.integers(lo, 2**40))


@st.composite
def _valid(draw, cls, **fields):
    try:
        return cls(**{k: draw(v) for k, v in fields.items()})
    except ValueError:
        assume(False)


_SPECS = {
    "generator": _valid(
        GeneratorSpec, kind=st.sampled_from(["resnet", "unet"]), ngf=_at_least(1),
        n_blocks=_at_least(1), in_channels=_at_least(1), out_channels=_at_least(1),
        resolution=st.one_of(_at_least(2).map(lambda k: 4 * k),
                             _at_least(1).map(lambda k: 256 * k))),
    "discriminator": _valid(DiscriminatorSpec, ndf=_at_least(1), n_layers=_at_least(1),
                            in_channels=_at_least(1)),
    "unpaired": _valid(
        D.UnpairedDatasetSpec, resolution=_at_least(8), train_samples=_at_least(1),
        test_samples=_at_least(0),
        coverage_lo=st.floats(0.0, 0.6), coverage_hi=st.floats(0.0, 0.6),
        stripe_period=_at_least(2), stripe_contrast=st.floats(0.0, 1.0),
        noise=st.floats(0.0, 1e300), seed=_at_least(0)),
    "paired": _valid(D.PairedDatasetSpec, resolution=_at_least(32),
                     train_samples=_at_least(1), test_samples=_at_least(0),
                     noise=st.floats(0.0, 1e300), seed=_at_least(0)),
}

_KINDS = {**MODEL_KINDS, "unpaired": D.UnpairedDatasetSpec,
          "paired": D.PairedDatasetSpec}


@pytest.mark.parametrize("family", list(_SPECS))
@given(data=st.data())
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
def test_every_valid_spec_round_trips(family, data):
    spec = data.draw(_SPECS[family])
    manifest = spec.manifest()
    assert decode_spec(manifest, _KINDS) == spec
    assert encode_spec(spec, manifest["kind"]) == manifest


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """target -> (manifest, write(manifest) -> load()) for a small valid
    checkpoint, unpaired dataset and paired dataset."""
    root = tmp_path_factory.mktemp("saved")
    g = build_generator(GeneratorSpec("resnet", 4, 1, resolution=32), dtype=np.float32)
    records = checkpoint_to_bytes({}, [(n, t.data) for n, t in g.named_params()])[4:]
    path = root / "g.ckpt"

    def write_checkpoint_text(text):
        path.write_bytes(struct.pack("<I", len(text)) + text + records)
        return lambda: load_model(path)

    out = {"checkpoint": (g.manifest, write_checkpoint_text)}
    for target, spec, save, gen, load in (
            ("unpaired", D.UnpairedDatasetSpec(train_samples=1, test_samples=0),
             D.save_unpaired, lambda s: [D.gen_unpaired(s)], D.load_unpaired),
            ("paired", D.PairedDatasetSpec(resolution=32, train_samples=1, test_samples=1),
             D.save_paired, D.gen_paired, D.load_paired)):
        d = root / target
        save(d, spec, *gen(spec))

        def write_dataset_text(text, d=d, load=load):
            (d / "manifest.txt").write_bytes(text)
            return lambda: load(d)

        out[target] = (spec.manifest(), write_dataset_text)
    return out


# any text, and text that reads as a number of any size
_values = st.one_of(st.text(), st.integers().map(str), st.floats().map(str))


@pytest.mark.parametrize("target", ["checkpoint", "unpaired", "paired"])
@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_arbitrary_manifest_value_raises_only_codec_error(saved, target, data):
    manifest, write = saved[target]
    key = data.draw(st.sampled_from(list(manifest)))
    value = data.draw(_values)
    text = "".join(f"{k}={value if k == key else v}\n" for k, v in manifest.items())
    load = write(text.encode())
    try:
        load()
    except CodecError:
        pass
