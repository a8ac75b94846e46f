"""Binary codecs: SRDT tensor files and named-parameter checkpoints.

Tensor payload layout: magic ``SRDT``, u32 version (=1), u32 rank,
u32 dims[rank], then little-endian float32 values in row-major order.
All multi-byte integers are little-endian. Values are stored as float32
regardless of the in-memory dtype.

A checkpoint is one length-prefixed UTF-8 manifest (key=value lines
describing the architecture spec, in the ``config`` format) followed by a
sequence of (u32 name length, name bytes, SRDT tensor payload) records
with distinct names.

Specs (model architectures, datasets) travel as key=value manifests made
by one codec, ``encode_spec``/``decode_spec``. The first key is ``kind``;
then each dataclass field, in declaration order, is one key holding
``str(value)``, except that a 2-tuple field ``f`` is two keys, ``f_lo`` and
``f_hi``. A field named ``kind`` is the kind itself. On decode a ``str``
field takes the manifest's text, and an ``int`` or ``float`` field is
parsed strictly by ``manifest_value``; a key that no field reads is an error.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import os
import secrets
import struct
import typing
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
    try:  # numpy rejects over 64 dims, and nonzero dims too big together, even at size 0
        return arr.reshape(dims).copy(), offset + nbytes
    except ValueError as exc:
        raise CodecError(f"rank-{rank} tensor: {exc}") from None


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
    """``conv(manifest[key])`` for conv ``str``, ``int`` or ``float``, parsed strictly.

    An int is ASCII decimal digits only, a float finite and ASCII without
    underscores; a missing key or any other value is a CodecError.
    """
    if key not in manifest:
        raise CodecError(f"manifest has no {key!r}")
    text = manifest[key]
    if conv is str:
        return text
    try:
        # int() would also take a sign, underscores and non-ASCII digits;
        # float() underscores, non-ASCII digits, nan and inf
        if not text.isascii() or "_" in text or (conv is int and not text.isdigit()):
            raise ValueError
        value = conv(text)
        if conv is float and not math.isfinite(value):
            raise ValueError
        return value
    except ValueError:
        raise CodecError(f"manifest {key!r}: {text!r} is not {conv.__name__}") from None


def encode_spec(spec, kind: str) -> dict[str, str]:
    """The manifest of dataclass `spec`, of `kind` (the key rule is above)."""
    out = {"kind": kind}
    for f in dataclasses.fields(spec):
        value = getattr(spec, f.name)
        if isinstance(value, tuple):
            out[f"{f.name}_lo"], out[f"{f.name}_hi"] = map(str, value)
        else:
            out[f.name] = str(value)
    return out


def decode_spec(manifest: dict[str, str], kinds: dict[str, type]):
    """The spec, of class ``kinds[manifest["kind"]]``; any fault is a CodecError."""
    kind = manifest.get("kind")
    if kind not in kinds:
        raise CodecError(f"manifest kind {kind!r}, expected one of {sorted(kinds)}")
    fields = {}
    for name, hint in _field_types(kinds[kind]):
        if typing.get_origin(hint) is tuple:
            fields[name] = tuple(manifest_value(manifest, f"{name}_{end}", t)
                                 for end, t in zip(("lo", "hi"), typing.get_args(hint)))
        else:
            fields[name] = manifest_value(manifest, name, hint)
    try:
        spec = kinds[kind](**fields)
    except ValueError as exc:
        raise CodecError(f"manifest: {exc}") from None
    # a key no field reads may belong to a newer spec: reading it as this one is wrong
    if unread := sorted(manifest.keys() - encode_spec(spec, kind).keys()):
        raise CodecError(f"manifest keys {unread} are not fields of a {kind!r} spec")
    return spec


@functools.cache
def _field_types(cls) -> tuple[tuple[str, type], ...]:
    hints = typing.get_type_hints(cls)
    return tuple((f.name, hints[f.name]) for f in dataclasses.fields(cls))


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
