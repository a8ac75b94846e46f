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
import secrets
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


def manifest_from_bytes(raw: bytes, what: str) -> dict[str, str]:
    """Decode a key=value manifest; bad UTF-8 or a bad line is a CodecError."""
    try:
        return parse_config_text(_decode(raw, what))
    except ConfigError as exc:
        raise CodecError(f"{what}: {exc}") from None


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
    try:
        lines = format_config(manifest).encode()
    except ConfigError as exc:
        raise CodecError(f"checkpoint manifest: {exc}") from None
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
    manifest = manifest_from_bytes(buf[offset:offset + mlen], "checkpoint manifest")
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


def manifest_value(manifest: dict[str, str], key: str, conv):
    """``conv(manifest[key])``; a missing key or a rejected value is a CodecError."""
    if key not in manifest:
        raise CodecError(f"manifest has no {key!r}")
    try:
        return conv(manifest[key])
    except ValueError:
        raise CodecError(f"manifest {key!r}: {manifest[key]!r} is not "
                         f"{conv.__name__}") from None


def _atomic_write(path: str | Path, data: bytes) -> None:
    # write-temp-then-rename so concurrent readers never see partial files.
    # The temp name is unique and O_EXCL never opens an existing file; unlike
    # tempfile.mkstemp (mode 0600), mode 0666 lets the umask set permissions.
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{secrets.token_hex(8)}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
