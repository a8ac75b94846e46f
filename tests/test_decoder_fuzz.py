"""Decoder fuzzing: mutated checkpoint and netpbm bytes raise only CodecError."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from srdistill.data import read_image, write_image
from srdistill.models import GeneratorSpec, build_generator, load_model, save_model
from srdistill.serialize import CodecError, read_checkpoint, write_checkpoint

# (op, offset, n, blob): flip XORs byte `offset` with n, insert puts blob
# there, delete drops n bytes from there, truncate cuts there; an offset is
# taken modulo the length + 1, and one in two is in the first 21 bytes,
# where the headers are (a one-record checkpoint's 9-byte prefix and the
# SRDT record's magic, version and rank)
_EDIT = st.tuples(st.sampled_from(["flip", "flip", "insert", "delete", "truncate"]),
                  st.one_of(st.integers(0, 20), st.integers(0, 2**16)),
                  st.integers(1, 255), st.binary(min_size=1, max_size=16))


def _mutate(raw: bytes, edits) -> bytes:
    for op, at, n, blob in edits:
        at %= len(raw) + 1
        if op == "flip" and at < len(raw):
            raw = raw[:at] + bytes([raw[at] ^ n]) + raw[at + 1:]
        elif op == "insert":
            raw = raw[:at] + blob + raw[at:]
        elif op == "delete":
            raw = raw[:at] + raw[at + n:]
        elif op == "truncate":
            raw = raw[:at]
    return raw


@pytest.fixture(scope="module")
def sources(tmp_path_factory):
    """name -> (path of a valid file, its bytes, its reader)."""
    root = tmp_path_factory.mktemp("sources")
    out = {}

    def add(name, write, read, *args):
        path = root / name
        write(path, *args)
        out[name] = (root / f"mutated_{name}", path.read_bytes(), read)

    # one-record checkpoints: a rank raised past numpy's 64 dims reads zero
    # dims from a zero payload; an empty tensor's dims can multiply past
    # numpy's limit after one flip
    def write_record(path, arr):
        write_checkpoint(path, {}, [("t", arr)])

    add("zeros.srdt", write_record, read_checkpoint, np.zeros((16, 16), np.float32))
    add("empty.srdt", write_record, read_checkpoint, np.zeros((0, 2**30, 2**30), np.float32))
    add("values.srdt", write_record, read_checkpoint,
        np.arange(-6, 6, dtype=np.float32).reshape(3, 4))
    add("g.ckpt", save_model, load_model,
        build_generator(GeneratorSpec("resnet", 2, 1, resolution=8), dtype=np.float32))
    rng = np.random.default_rng(0)
    add("x.ppm", write_image, read_image, rng.integers(0, 256, (3, 5, 3), dtype=np.uint8))
    add("x.pgm", write_image, read_image, rng.integers(0, 256, (4, 2), dtype=np.uint8))
    return out


@pytest.mark.parametrize("source", ["zeros.srdt", "empty.srdt", "values.srdt",
                                    "g.ckpt", "x.ppm", "x.pgm"])
@given(edits=st.lists(_EDIT, min_size=1, max_size=3))
@example(edits=[("flip", 17, 0x44, b"\0")])  # zeros.srdt: rank 2 -> 70
@example(edits=[("flip", 28, 0x80, b"\0")])  # empty.srdt: dims (0, 3 * 2**30, 2**30)
@settings(max_examples=100, deadline=None, derandomize=True)
def test_mutated_file_raises_only_codec_error(sources, source, edits):
    path, raw, read = sources[source]
    path.write_bytes(_mutate(raw, edits))
    try:
        read(path)
    except CodecError:
        pass
