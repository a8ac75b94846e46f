"""Binary codecs: SRDT tensor files and named-parameter checkpoints.

Tensor payload layout: magic ``SRDT``, u32 version (=1), u32 rank,
u32 dims[rank], then little-endian float32 values in row-major order.
All multi-byte integers are little-endian. Values are stored as float32
regardless of the in-memory dtype.

A checkpoint is one length-prefixed UTF-8 manifest (key=value lines
describing the architecture spec, in the ``config`` format) followed by a
sequence of (u32 name length, name bytes, SRDT tensor payload) records
with distinct names.
"""

from __future__ import annotations

import math
import os
import struct
from pathlib import Path

import numpy as np

from .config import ConfigError, format_config, parse_config_text

MAGIC = b"SRDT"
VERSION = 1


class CodecError(ValueError):
    """Malformed or truncated serialized data."""


def tensor_to_bytes(arr: np.ndarray) -> bytes:
    arr = np.asarray(arr)
    header = MAGIC + struct.pack("<II", VERSION, arr.ndim)
    header += struct.pack(f"<{arr.ndim}I", *arr.shape)
    body = np.ascontiguousarray(arr, dtype="<f4").tobytes()
    return header + body


def tensor_from_bytes(buf: bytes, offset: int = 0) -> tuple[np.ndarray, int]:
    """Decode one tensor record; returns (array, offset past the record)."""
    if buf[offset:offset + 4] != MAGIC:
        raise CodecError(f"bad magic {buf[offset:offset + 4]!r}, expected {MAGIC!r}")
    offset += 4
    _need(buf, offset, 8, "tensor header")
    version, rank = struct.unpack_from("<II", buf, offset)
    offset += 8
    if version != VERSION:
        raise CodecError(f"unsupported tensor codec version {version}")
    _need(buf, offset, 4 * rank, f"dims of a rank-{rank} tensor")
    dims = struct.unpack_from(f"<{rank}I", buf, offset)
    offset += 4 * rank
    nbytes = 4 * math.prod(dims)  # Python ints: no wrap-around on huge dims
    _need(buf, offset, nbytes, "tensor payload")
    arr = np.frombuffer(buf, dtype="<f4", count=nbytes // 4, offset=offset)
    return arr.reshape(dims).copy(), offset + nbytes


def _need(buf: bytes, offset: int, nbytes: int, what: str) -> None:
    if len(buf) - offset < nbytes:
        raise CodecError(f"truncated {what}: expected {nbytes} bytes, "
                         f"got {max(len(buf) - offset, 0)}")


def _decode(raw: bytes, what: str) -> str:
    try:
        return raw.decode()
    except UnicodeDecodeError as exc:
        raise CodecError(f"{what} is not valid UTF-8: {exc.reason} "
                         f"at byte {exc.start}") from None


def write_tensor(path: str | Path, arr: np.ndarray) -> None:
    _atomic_write(path, tensor_to_bytes(arr))


def read_tensor(path: str | Path) -> np.ndarray:
    buf = Path(path).read_bytes()
    arr, end = tensor_from_bytes(buf)
    if end != len(buf):
        raise CodecError(f"{path}: {len(buf) - end} trailing bytes after tensor")
    return arr


# ---------------------------------------------------------------------------
# checkpoints


def checkpoint_to_bytes(manifest: dict[str, str],
                        params: list[tuple[str, np.ndarray]]) -> bytes:
    lines = format_config(manifest).encode()
    chunks = [struct.pack("<I", len(lines)), lines]
    for name, arr in params:
        nb = name.encode()
        chunks.append(struct.pack("<I", len(nb)))
        chunks.append(nb)
        chunks.append(tensor_to_bytes(arr))
    return b"".join(chunks)


def checkpoint_from_bytes(buf: bytes) -> tuple[dict[str, str], list[tuple[str, np.ndarray]]]:
    _need(buf, 0, 4, "checkpoint manifest length")
    (mlen,) = struct.unpack_from("<I", buf, 0)
    offset = 4
    _need(buf, offset, mlen, "checkpoint manifest")
    try:
        manifest = parse_config_text(_decode(buf[offset:offset + mlen],
                                             "checkpoint manifest"))
    except ConfigError as exc:
        raise CodecError(f"checkpoint manifest: {exc}") from None
    offset += mlen
    params: list[tuple[str, np.ndarray]] = []
    seen: set[str] = set()
    while offset < len(buf):
        _need(buf, offset, 4, "checkpoint record header")
        (nlen,) = struct.unpack_from("<I", buf, offset)
        offset += 4
        _need(buf, offset, nlen, "parameter name")
        name = _decode(buf[offset:offset + nlen], "parameter name")
        if name in seen:
            raise CodecError(f"repeated parameter name {name!r}")
        seen.add(name)
        offset += nlen
        arr, offset = tensor_from_bytes(buf, offset)
        params.append((name, arr))
    return manifest, params


def write_checkpoint(path: str | Path, manifest: dict[str, str],
                     params: list[tuple[str, np.ndarray]]) -> None:
    _atomic_write(path, checkpoint_to_bytes(manifest, params))


def read_checkpoint(path: str | Path) -> tuple[dict[str, str], list[tuple[str, np.ndarray]]]:
    return checkpoint_from_bytes(Path(path).read_bytes())


def _atomic_write(path: str | Path, data: bytes) -> None:
    # write-temp-then-rename so concurrent readers never see partial files
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(data)
    os.replace(tmp, path)
