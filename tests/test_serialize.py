"""Tensor codec and checkpoint round-trip tests."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srdistill.config import ConfigError, parse_config_text
from srdistill.serialize import (
    MAGIC,
    CodecError,
    checkpoint_from_bytes,
    checkpoint_to_bytes,
    read_checkpoint,
    read_tensor,
    tensor_from_bytes,
    tensor_to_bytes,
    write_checkpoint,
    write_tensor,
)


def test_header_layout():
    arr = np.zeros((2, 3), dtype=np.float32)
    buf = tensor_to_bytes(arr)
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
    back, end = tensor_from_bytes(tensor_to_bytes(arr))
    assert end == len(tensor_to_bytes(arr))
    assert back.dtype == np.float32
    assert back.shape == arr.shape
    assert np.array_equal(back, arr.astype(np.float32))


def test_float32_payload_is_exact_for_float32_input():
    rng = np.random.default_rng(0)
    arr = rng.normal(size=(4, 4)).astype(np.float32)
    back, _ = tensor_from_bytes(tensor_to_bytes(arr))
    assert np.array_equal(back, arr)


def test_bad_magic_rejected():
    buf = b"XXXX" + tensor_to_bytes(np.zeros(3))[4:]
    with pytest.raises(CodecError):
        tensor_from_bytes(buf)


def test_truncated_payload_names_byte_counts():
    buf = tensor_to_bytes(np.ones((2, 2), dtype=np.float32))
    with pytest.raises(CodecError) as exc:
        tensor_from_bytes(buf[:-3])
    msg = str(exc.value)
    assert "16" in msg and "13" in msg  # expected vs available payload bytes


def test_tensor_file_round_trip(tmp_path):
    path = tmp_path / "t.srdt"
    arr = np.arange(12, dtype=np.float32).reshape(3, 4)
    write_tensor(path, arr)
    assert np.array_equal(read_tensor(path), arr)


def test_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "t.srdt"
    path.write_bytes(tensor_to_bytes(np.zeros(2)) + b"junk")
    with pytest.raises(CodecError):
        read_tensor(path)


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
    path = tmp_path / "t.srdt"
    write_tensor(path, np.zeros(2, dtype=np.float32))
    write_tensor(path, np.ones(3, dtype=np.float32))
    assert np.array_equal(read_tensor(path), np.ones(3, dtype=np.float32))
    assert list(tmp_path.iterdir()) == [path]  # no temp files left behind


def test_rank_beyond_the_buffer_is_a_codec_error():
    with pytest.raises(CodecError):
        tensor_from_bytes(MAGIC + struct.pack("<II", 1, 10 ** 6))
    with pytest.raises(CodecError):
        tensor_from_bytes(MAGIC + struct.pack("<I", 1))  # header cut short


def test_dims_whose_product_overflows_int64_are_a_codec_error():
    # 65536**4 == 2**64 wraps to 0 in int64 arithmetic
    buf = MAGIC + struct.pack("<II4I", 1, 4, *(65536,) * 4)
    with pytest.raises(CodecError):
        tensor_from_bytes(buf)


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


def test_repeated_parameter_name_is_a_codec_error():
    w = np.zeros(1, dtype=np.float32)
    buf = checkpoint_to_bytes({}, [("w", w), ("w", w)])
    with pytest.raises(CodecError):
        checkpoint_from_bytes(buf)


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
    path = tmp_path / "t.srdt"
    other = tmp_path / "t.srdt.tmp"
    other.write_bytes(b"someone else's")
    write_tensor(path, np.ones(2, dtype=np.float32))
    assert other.read_bytes() == b"someone else's"
    assert sorted(tmp_path.iterdir()) == [path, other]


def test_failed_write_removes_its_temp_file(tmp_path):
    target = tmp_path / "t.srdt"
    target.mkdir()  # renaming a file over a directory fails
    with pytest.raises(OSError):
        write_tensor(target, np.ones(2, dtype=np.float32))
    assert list(tmp_path.iterdir()) == [target]
