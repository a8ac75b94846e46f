"""Checkpoint codec tests: the SRDT record, round trips, and manifests."""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srdistill import data as D
from srdistill.config import ConfigError, format_config, parse_config_text
from srdistill.models import DiscriminatorSpec, GeneratorSpec, build_generator, load_model
from srdistill.serialize import (
    MAGIC,
    CodecError,
    checkpoint_from_bytes,
    checkpoint_to_bytes,
    read_checkpoint,
    write_checkpoint,
)


# a one-record checkpoint's bytes before its SRDT record: an empty manifest, then the name "t"
_PREFIX = struct.pack("<II", 0, 1) + b"t"


def _record_bytes(arr) -> bytes:
    buf = checkpoint_to_bytes({}, [("t", arr)])
    assert buf.startswith(_PREFIX)
    return buf[len(_PREFIX):]


def _decode_record(record: bytes) -> np.ndarray:
    [(_, arr)] = checkpoint_from_bytes(_PREFIX + record)[1]
    return arr


def test_header_layout():
    arr = np.zeros((2, 3), dtype=np.float32)
    buf = _record_bytes(arr)
    assert buf[:4] == MAGIC
    assert int.from_bytes(buf[4:8], "little") == 1  # version
    assert int.from_bytes(buf[8:12], "little") == 2  # rank
    assert int.from_bytes(buf[12:16], "little") == 2
    assert int.from_bytes(buf[16:20], "little") == 3
    assert len(buf) == 20 + 6 * 4


@given(st.lists(st.integers(1, 5), min_size=0, max_size=4))
@settings(max_examples=40, deadline=None)
def test_tensor_round_trip(dims):
    rng = np.random.default_rng(sum(dims) + len(dims))
    arr = rng.normal(size=tuple(dims)).astype(np.float64)
    back = _decode_record(_record_bytes(arr))
    assert back.dtype == np.float32
    assert back.shape == arr.shape
    assert np.array_equal(back, arr.astype(np.float32))


def test_float32_payload_is_exact_for_float32_input():
    rng = np.random.default_rng(0)
    arr = rng.normal(size=(4, 4)).astype(np.float32)
    assert np.array_equal(_decode_record(_record_bytes(arr)), arr)


def test_bad_magic_rejected():
    buf = b"XXXX" + _record_bytes(np.zeros(3))[4:]
    with pytest.raises(CodecError):
        _decode_record(buf)


def test_truncated_payload_names_byte_counts():
    buf = _record_bytes(np.ones((2, 2), dtype=np.float32))
    with pytest.raises(CodecError) as exc:
        _decode_record(buf[:-3])
    msg = str(exc.value)
    assert "16" in msg and "13" in msg  # expected vs available payload bytes


def test_one_record_file_round_trip(tmp_path):
    path = tmp_path / "t.ckpt"
    arr = np.arange(12, dtype=np.float32).reshape(3, 4)
    write_checkpoint(path, {}, [("t", arr)])
    [(_, back)] = read_checkpoint(path)[1]
    assert np.array_equal(back, arr)


def test_bytes_after_the_last_record_are_rejected(tmp_path):
    path = tmp_path / "t.ckpt"
    path.write_bytes(checkpoint_to_bytes({}, [("t", np.zeros(2))]) + b"junk")
    with pytest.raises(CodecError):
        read_checkpoint(path)


def test_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    manifest = {"kind": "resnet", "ngf": "16", "note": "a=b=c"}
    params = [("stem.0.weight", rng.normal(size=(4, 3, 7, 7)).astype(np.float32)),
              ("stem.0.bias", np.zeros(4, dtype=np.float32))]
    path = tmp_path / "model.ckpt"
    write_checkpoint(path, manifest, params)
    got_manifest, got_params = read_checkpoint(path)
    assert got_manifest == manifest
    assert [n for n, _ in got_params] == [n for n, _ in params]
    for (_, a), (_, b) in zip(got_params, params):
        assert np.array_equal(a, b)


def test_checkpoint_preserves_record_order():
    params = [(f"p{i}", np.full(1, i, dtype=np.float32)) for i in range(5)]
    _, got = checkpoint_from_bytes(checkpoint_to_bytes({}, params))
    assert [n for n, _ in got] == [f"p{i}" for i in range(5)]


def test_checkpoint_truncation_rejected():
    buf = checkpoint_to_bytes({"k": "v"}, [("w", np.ones(4, dtype=np.float32))])
    with pytest.raises(CodecError):
        checkpoint_from_bytes(buf[:-5])


def test_write_is_atomic_replace(tmp_path):
    path = tmp_path / "t.ckpt"
    write_checkpoint(path, {}, [("t", np.zeros(2, dtype=np.float32))])
    write_checkpoint(path, {}, [("t", np.ones(3, dtype=np.float32))])
    assert np.array_equal(read_checkpoint(path)[1][0][1], np.ones(3, dtype=np.float32))
    assert list(tmp_path.iterdir()) == [path]  # no temp files left behind


def test_rank_beyond_the_buffer_is_a_codec_error():
    with pytest.raises(CodecError):
        _decode_record(MAGIC + struct.pack("<II", 1, 10 ** 6))
    with pytest.raises(CodecError):
        _decode_record(MAGIC + struct.pack("<I", 1))  # header cut short


def test_dims_whose_product_overflows_int64_are_a_codec_error():
    # 65536**4 == 2**64 wraps to 0 in int64 arithmetic
    buf = MAGIC + struct.pack("<II4I", 1, 4, *(65536,) * 4)
    with pytest.raises(CodecError):
        _decode_record(buf)


@pytest.mark.parametrize("dims", [(1,) * 70, (0, 2**31, 2**31)],
                         ids=["rank_over_64", "empty_but_too_big"])
def test_dims_numpy_cannot_shape_are_a_codec_error(dims):
    buf = MAGIC + struct.pack(f"<II{len(dims)}I", 1, len(dims), *dims)
    with pytest.raises(CodecError, match=f"rank-{len(dims)}"):
        _decode_record(buf + bytes(4 * math.prod(dims)))


def test_non_utf8_manifest_is_a_codec_error():
    buf = struct.pack("<I", 2) + b"\xff\xfe"
    with pytest.raises(CodecError):
        checkpoint_from_bytes(buf)


def test_non_utf8_parameter_name_is_a_codec_error():
    good = checkpoint_to_bytes({}, [("ab", np.zeros(1, dtype=np.float32))])
    buf = good.replace(b"ab", b"\xc3\x28", 1)
    with pytest.raises(CodecError):
        checkpoint_from_bytes(buf)



def _with_manifest(text: bytes) -> bytes:
    return struct.pack("<I", len(text)) + text


def test_manifest_line_without_equals_is_a_codec_error():
    with pytest.raises(CodecError):
        checkpoint_from_bytes(_with_manifest(b"kindXresnet\n"))


def test_repeated_manifest_key_in_a_checkpoint_is_a_codec_error():
    with pytest.raises(CodecError):
        checkpoint_from_bytes(_with_manifest(b"kind=resnet\nkind=unet\n"))


def test_repeated_key_in_a_config_text_is_rejected():
    with pytest.raises(ConfigError):
        parse_config_text("a=1\na=2\n")


@pytest.mark.parametrize("text, fragment", [
    ("=1\n", "line 1: empty key"),
    ("a=1\n  = 2\n", "line 2: empty key"),
    ("# c\n=\n", "line 2: empty key"),
])
def test_empty_key_in_a_config_text_is_rejected(text, fragment):
    with pytest.raises(ConfigError, match=fragment):
        parse_config_text(text)


def test_repeated_parameter_name_is_a_codec_error():
    record = checkpoint_to_bytes({}, [("w", np.zeros(1, dtype=np.float32))])[4:]
    with pytest.raises(CodecError, match="repeated parameter name 'w'"):
        checkpoint_from_bytes(struct.pack("<I", 0) + record + record)


@pytest.mark.parametrize("manifest", [
    {"#k": "v"},      # read back as a comment
    {"a=b": "c"},     # read back as {"a": "b=c"}
    {"": "v"},        # empty key
    {" k": "v"},      # key read back stripped
    {"k": " v "},     # value read back stripped
    {"k": "a\nb=c"},  # read back as two keys
    {"k\nj": "v"},
], ids=["comment-key", "equals-in-key", "empty-key", "padded-key",
        "padded-value", "newline-in-value", "newline-in-key"])
def test_manifest_that_would_not_read_back_is_a_codec_error(manifest):
    with pytest.raises(CodecError):
        checkpoint_to_bytes(manifest, [])


def test_manifest_values_may_hold_equals_and_hash():
    manifest = {"k": "a=b#c"}
    assert checkpoint_from_bytes(checkpoint_to_bytes(manifest, []))[0] == manifest


def test_write_leaves_an_unrelated_tmp_file_alone(tmp_path):
    path = tmp_path / "t.ckpt"
    other = tmp_path / "t.ckpt.tmp"
    other.write_bytes(b"someone else's")
    write_checkpoint(path, {}, [("t", np.ones(2, dtype=np.float32))])
    assert other.read_bytes() == b"someone else's"
    assert sorted(tmp_path.iterdir()) == [path, other]


def test_failed_write_removes_its_temp_file(tmp_path):
    target = tmp_path / "t.ckpt"
    target.mkdir()  # renaming a file over a directory fails
    with pytest.raises(OSError):
        write_checkpoint(target, {}, [("t", np.ones(2, dtype=np.float32))])
    assert list(tmp_path.iterdir()) == [target]


def _save_with(root, target, key, value):
    """Save a valid dataset or checkpoint of `target` at `root` with
    ``manifest[key] = value``; returns its loader."""
    if target == "checkpoint":
        g = build_generator(GeneratorSpec("resnet", 4, 1, resolution=32), dtype=np.float32)
        path = root / "g.ckpt"
        write_checkpoint(path, {**g.manifest, key: value},
                         [(n, t.data) for n, t in g.named_params()])
        return lambda: load_model(path)
    if target == "unpaired":
        spec = D.UnpairedDatasetSpec(resolution=32, train_samples=1, test_samples=0)
        D.save_unpaired(root, spec, D.gen_unpaired(spec))
        loader = D.load_unpaired
    else:
        spec = D.PairedDatasetSpec(resolution=32, train_samples=1, test_samples=0)
        D.save_paired(root, spec, *D.gen_paired(spec))
        loader = D.load_paired
    (root / "manifest.txt").write_text(format_config({**spec.manifest(), key: value}))
    return lambda: loader(root)


# a typo, or a field of a newer spec: read as this spec, it would be a wrong model
@pytest.mark.parametrize("target, key, value", [
    ("checkpoint", "typo_ngf", "99"), ("checkpoint", "levels", "6"),
    ("unpaired", "levels", "6"), ("paired", "coverage_lo", "0.2"),
])
def test_manifest_key_no_field_reads_is_a_codec_error(tmp_path, target, key, value):
    load = _save_with(tmp_path, target, key, value)
    with pytest.raises(CodecError, match=key):
        load()


# int() reads each of these as 32 and float() the underscored one as 0.03
@pytest.mark.parametrize("target, key, value", [
    *((t, "resolution", v) for t in ("unpaired", "paired", "checkpoint")
      for v in ("3_2", "+32", "\u0663\u0662")),
    *((t, "noise", v) for t in ("unpaired", "paired")
      for v in ("nan", "inf", "-inf", "0.0_3")),
])
def test_manifest_number_int_or_float_would_take_loosely_is_a_codec_error(
        tmp_path, target, key, value):
    load = _save_with(tmp_path, target, key, value)
    with pytest.raises(CodecError, match=key):
        load()


# The exact manifest of each spec kind: keys, order and text. Every checkpoint
# and dataset already written carries one of these, so they must not change.
@pytest.mark.parametrize("spec, text", [
    (GeneratorSpec("resnet", 16, 6, resolution=64),
     "kind=resnet\nngf=16\nn_blocks=6\nin_channels=3\nout_channels=3\nresolution=64\n"),
    (GeneratorSpec("unet", 64, in_channels=1, out_channels=2, resolution=512),
     "kind=unet\nngf=64\nn_blocks=9\nin_channels=1\nout_channels=2\nresolution=512\n"),
    (DiscriminatorSpec(),
     "kind=patchgan\nndf=64\nn_layers=3\nin_channels=3\n"),
    (DiscriminatorSpec(ndf=8, n_layers=2, in_channels=6),
     "kind=patchgan\nndf=8\nn_layers=2\nin_channels=6\n"),
    (D.UnpairedDatasetSpec(resolution=64, coverage_lo=0.1, coverage_hi=0.55, noise=0.0,
                           seed=7),
     "kind=unpaired\nresolution=64\ntrain_samples=100\ntest_samples=10\n"
     "coverage_lo=0.1\ncoverage_hi=0.55\nstripe_period=4\nstripe_contrast=0.9\n"
     "noise=0.0\nseed=7\n"),
    (D.PairedDatasetSpec(resolution=48, train_samples=3, noise=1e-05, seed=12),
     "kind=paired\nresolution=48\ntrain_samples=3\ntest_samples=5\n"
     "noise=1e-05\nseed=12\n"),
], ids=["resnet", "unet", "patchgan", "patchgan_paired", "unpaired", "paired"])
def test_manifest_of_each_spec_kind_is_pinned(spec, text):
    assert format_config(spec.manifest()) == text
