"""The streaming codec: file and bytes paths agree, the format is pinned, and
save/load hold no whole-file copy."""

import hashlib
import io
import struct
import tracemalloc

import numpy as np
import pytest

from srdistill import serialize
from srdistill.data import read_image, write_image
from srdistill.models import (
    DiscriminatorSpec,
    GeneratorSpec,
    build_discriminator,
    build_generator,
    load_model,
    save_model,
)
from srdistill.serialize import (
    MAGIC,
    CodecError,
    checkpoint_from_bytes,
    checkpoint_to_bytes,
    read_checkpoint,
    write_checkpoint,
)


def _items(model):
    return [(n, t.data) for n, t in model.named_params()]


def _small_generator():
    return build_generator(GeneratorSpec("resnet", 4, 2, resolution=32),
                           np.random.default_rng(0), dtype=np.float32)


def _small_discriminator():
    return build_discriminator(DiscriminatorSpec(ndf=4, n_layers=2, in_channels=6),
                               np.random.default_rng(1), dtype=np.float64)


# sha256 of each checkpoint as the whole-buffer codec wrote it: the format
# must not change by a byte
@pytest.mark.parametrize("build, digest", [
    (_small_generator, "ce7fabe98d116a442fba9d65e25fe5122cac318327ae32a5acaa64154a1a4c69"),
    (_small_discriminator, "69b5bcab7687f24ad9230639746f9f3b83ead9ea5b6b0ec53f91096a4db81e0f"),
], ids=["resnet_float32", "patchgan_float64"])
def test_checkpoint_bytes_are_pinned(tmp_path, build, digest):
    model = build()
    path = tmp_path / "m.ckpt"
    write_checkpoint(path, model.manifest, _items(model))
    raw = path.read_bytes()
    assert raw == checkpoint_to_bytes(model.manifest, _items(model))
    assert hashlib.sha256(raw).hexdigest() == digest


_TENSORS = {
    "float64": np.arange(12, dtype=np.float64).reshape(3, 4) / 7,
    "rank0": np.array(2.5, dtype=np.float64),
    "zero_size_dim": np.zeros((2, 0, 3), dtype=np.float32),
    "transposed_view": np.arange(6, dtype=np.float32).reshape(2, 3).T,
}


@pytest.mark.parametrize("name", _TENSORS)
def test_written_record_equals_the_bytes_encoding(tmp_path, name):
    arr = _TENSORS[name]
    path = tmp_path / "t.ckpt"
    write_checkpoint(path, {}, [("t", arr)])
    raw = path.read_bytes()
    assert raw == checkpoint_to_bytes({}, [("t", arr)])
    # an empty manifest and the name "t" take the 9 bytes before the record
    assert raw[:21] == struct.pack("<II", 0, 1) + b"t" + MAGIC + struct.pack("<II", 1, arr.ndim)
    assert raw[21 + 4 * arr.ndim:] == arr.astype("<f4").tobytes()

    for _, [(_, got)] in (read_checkpoint(path), checkpoint_from_bytes(raw)):
        assert got.shape == arr.shape and got.dtype == np.float32
        assert got.tobytes() == arr.astype("<f4").tobytes()


def test_file_and_bytes_decoders_agree_on_a_checkpoint(tmp_path):
    g = _small_generator()
    path = tmp_path / "g.ckpt"
    save_model(path, g)
    manifest, params = read_checkpoint(path)
    manifest_b, params_b = checkpoint_from_bytes(path.read_bytes())
    assert manifest == manifest_b == g.manifest
    assert [n for n, _ in params] == [n for n, _ in params_b] == [n for n, _ in _items(g)]
    for (_, a), (_, b), (_, want) in zip(params, params_b, _items(g)):
        assert a.shape == b.shape == want.shape
        assert a.tobytes() == b.tobytes() == want.tobytes()


def _peak_bytes(fn):
    """(result of fn(), peak bytes traced while fn ran, above what was live)."""
    live, _ = tracemalloc.get_traced_memory()
    tracemalloc.reset_peak()
    out = fn()
    return out, tracemalloc.get_traced_memory()[1] - live


def test_save_and_load_hold_no_whole_file_copy(tmp_path):
    # an ngf-64 ResNet-9, the paper's teacher: ~43 MB of float32 parameters
    g = build_generator(GeneratorSpec("resnet", 64, resolution=256),
                        np.random.default_rng(0), dtype=np.float32)
    path = tmp_path / "teacher.ckpt"
    largest = max(a.nbytes for _, a in _items(g))
    tracemalloc.start()
    try:
        _, save_peak = _peak_bytes(lambda: save_model(path, g))
        loaded, load_peak = _peak_bytes(lambda: load_model(path))
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert size > 40e6
    assert save_peak < 1.25 * largest
    assert load_peak < 1.25 * size
    for name, t in loaded.named_params():
        flags = t.data.flags
        assert flags.c_contiguous and flags.aligned, name
        assert flags.writeable and flags.owndata, name
    assert [a.tobytes() for _, a in _items(loaded)] == [a.tobytes() for _, a in _items(g)]


def test_float64_load_converts_each_array_as_it_is_placed(tmp_path):
    # the float64 parameters are 2x the checkpoint; holding every decoded
    # float32 array until the last is placed would peak at 3x
    g = build_generator(GeneratorSpec("resnet", 16, resolution=64),
                        np.random.default_rng(0), dtype=np.float32)
    path = tmp_path / "g.ckpt"
    save_model(path, g)
    tracemalloc.start()
    try:
        loaded, peak = _peak_bytes(lambda: load_model(path, dtype=np.float64))
    finally:
        tracemalloc.stop()
    assert peak < 2.1 * path.stat().st_size
    for (_, a), (_, want) in zip(_items(loaded), _items(g)):
        assert a.dtype == np.float64 and np.array_equal(a, want)


@pytest.mark.parametrize("dims", [(1,) * 70, (0, 2**31, 2**31)],
                         ids=["rank_over_64", "empty_but_too_big"])
@pytest.mark.parametrize("read", [read_checkpoint, load_model],
                         ids=["read_checkpoint", "load_model"])
def test_dims_numpy_cannot_shape_are_a_codec_error_on_every_file_path(tmp_path, dims, read):
    record = (MAGIC + struct.pack(f"<II{len(dims)}I", 1, len(dims), *dims)
              + bytes(4 * int(np.prod(dims))))
    path = tmp_path / "bad"
    g = _small_generator()
    good = checkpoint_to_bytes(g.manifest, _items(g)[:1])
    path.write_bytes(good + struct.pack("<I", 1) + b"x" + record)
    with pytest.raises(CodecError, match=f"rank-{len(dims)}"):
        read(path)


class _ShortReads(io.BytesIO):
    """A stream whose readinto fills only half of what it is asked for."""

    def readinto(self, buffer):
        return super().readinto(memoryview(buffer)[:len(buffer) // 2])


def test_a_short_read_is_a_codec_error():
    raw = checkpoint_to_bytes({}, [("t", np.ones((4, 4), dtype=np.float32))])
    with pytest.raises(CodecError, match="short read of tensor payload: expected 64 bytes, got 32"):
        serialize._decode_checkpoint(serialize._Stream(_ShortReads(raw)))


# each checkpoint here is one the decoder would refuse, or one a record cannot hold
@pytest.mark.parametrize("manifest, params, match", [
    ({"#k": "v"}, [("w", np.zeros(2, dtype=np.float32))], "checkpoint manifest"),
    ({"kind": "x"}, [("w", np.zeros(2)), ("w", np.zeros(2))], "repeated parameter name 'w'"),
    ({"kind": "\udc80"}, [], "checkpoint manifest cannot be encoded"),
    ({}, [("\udc80", np.zeros(2))], "parameter name cannot be encoded"),
    ({}, [("w", np.zeros((0, 2**32), dtype=np.float32))], "parameter 'w'"),
], ids=["unreadable_manifest", "repeated_name", "surrogate_in_manifest",
        "surrogate_in_name", "dim_past_u32"])
def test_a_rejected_checkpoint_raises_before_the_temp_file_is_made(tmp_path, monkeypatch,
                                                                   manifest, params, match):
    opened = []
    real_open = serialize.os.open
    monkeypatch.setattr(serialize.os, "open", lambda *a: opened.append(a) or real_open(*a))
    with pytest.raises(CodecError, match=match):
        write_checkpoint(tmp_path / "m.ckpt", manifest, params)
    with pytest.raises(CodecError, match=match):
        checkpoint_to_bytes(manifest, params)
    assert opened == []
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("arr", [
    np.arange(2 * 3 * 3, dtype=np.uint8).reshape(3, 2, 3).transpose(1, 0, 2),
    np.arange(12, dtype=np.uint8).reshape(3, 4)[:, ::2],
], ids=["ppm_transposed", "pgm_strided"])
def test_netpbm_writes_a_non_contiguous_image_in_row_order(tmp_path, arr):
    path = tmp_path / "x"
    write_image(path, arr)
    h, w = arr.shape[:2]
    magic = b"P6" if arr.ndim == 3 else b"P5"
    assert path.read_bytes() == magic + b"\n%d %d\n255\n" % (w, h) + arr.tobytes()
    assert np.array_equal(read_image(path), arr)


def test_netpbm_comment_running_to_the_end_is_a_truncated_header(tmp_path):
    path = tmp_path / "x.pgm"
    path.write_bytes(b"P5 3 2 # no newline after this comment")
    with pytest.raises(CodecError, match="truncated header"):
        read_image(path)
