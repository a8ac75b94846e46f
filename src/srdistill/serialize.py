"""Binary codecs: named-parameter checkpoints and spec manifests.

A checkpoint is one length-prefixed UTF-8 manifest (key=value lines
describing the architecture spec, in the ``config`` format) followed by a
sequence of (u32 name length, name bytes, SRDT record) records with
distinct names. All multi-byte integers are little-endian.

An SRDT record is one tensor: magic ``SRDT``, u32 version (=1), u32 rank,
u32 dims[rank], then little-endian float32 values in row-major order.
Values are stored as float32 regardless of the in-memory dtype.

There is one codec, and it works over a binary stream. The encoder first
checks every name and shape, so that a checkpoint its decoder would refuse
is a CodecError before any chunk is made. It then yields the manifest, each
record's header, and a view of each tensor's float32 values; the file
writer writes these chunks one by one, so no whole-file buffer is made.
The decoder checks each size from a header against the bytes left in the
stream before it allocates, and reads each payload straight into a fresh,
aligned array of its own. The bytes API is that codec:
``checkpoint_to_bytes`` joins the encoder's chunks and
``checkpoint_from_bytes`` runs the decoder over an ``io.BytesIO``.

Specs (model architectures, datasets) travel as key=value manifests made
by one codec, ``encode_spec``/``decode_spec``. The first key is ``kind``;
then each dataclass field, in declaration order, is one key holding
``str(value)``. A field named ``kind`` is the kind itself. On decode a ``str``
field takes the manifest's text, and an ``int`` or ``float`` field is
parsed strictly by ``manifest_value``; a key that no field reads is an error.
"""

from __future__ import annotations

import dataclasses
import functools
import io
import math
import os
import secrets
import struct
import typing
from collections.abc import Iterable, Iterator
from pathlib import Path
from typing import BinaryIO

import numpy as np

from .config import ConfigError, format_config, parse_config_text

MAGIC = b"SRDT"
VERSION = 1


class CodecError(ValueError):
    """Malformed or truncated serialized data."""


def _decode(raw: bytes, what: str) -> str:
    try:
        return raw.decode()
    except UnicodeDecodeError as exc:
        raise CodecError(f"{what} is not valid UTF-8: {exc.reason} "
                         f"at byte {exc.start}") from None


def _encode(text: str, what: str) -> bytes:
    try:
        return text.encode()
    except UnicodeEncodeError as exc:
        raise CodecError(f"{what} cannot be encoded as UTF-8: {exc.reason} "
                         f"at index {exc.start}") from None


def manifest_from_bytes(raw: bytes, what: str) -> dict[str, str]:
    """Decode a key=value manifest; bad UTF-8 or a bad line is a CodecError."""
    try:
        return parse_config_text(_decode(raw, what))
    except ConfigError as exc:
        raise CodecError(f"{what}: {exc}") from None


# ---------------------------------------------------------------------------
# checkpoints


def checkpoint_to_bytes(manifest: dict[str, str],
                        params: list[tuple[str, np.ndarray]]) -> bytes:
    return b"".join(_checkpoint_chunks(manifest, params))


def checkpoint_from_bytes(buf: bytes) -> tuple[dict[str, str], list[tuple[str, np.ndarray]]]:
    return _decode_checkpoint(_Stream(io.BytesIO(buf)))


def write_checkpoint(path: str | Path, manifest: dict[str, str],
                     params: list[tuple[str, np.ndarray]]) -> None:
    _atomic_write(path, _checkpoint_chunks(manifest, params))


def read_checkpoint(path: str | Path) -> tuple[dict[str, str], list[tuple[str, np.ndarray]]]:
    with open(path, "rb") as f:
        return _decode_checkpoint(_Stream(f))


# ---------------------------------------------------------------------------
# the codec


def _tensor_chunks(arr: np.ndarray) -> Iterator[bytes | memoryview]:
    """The SRDT record of `arr`: its header, then a view of its float32 values
    (a copy only where `arr` is not already C-ordered little-endian float32)."""
    arr = np.asarray(arr, dtype="<f4", order="C")
    yield MAGIC + struct.pack(f"<II{arr.ndim}I", VERSION, arr.ndim, *arr.shape)
    yield _byte_view(arr)


def _checkpoint_chunks(manifest: dict[str, str],
                       params: list[tuple[str, np.ndarray]]) -> Iterator[bytes | memoryview]:
    """The manifest, then each parameter's name record and SRDT record. A
    checkpoint the decoder would refuse is a CodecError before the first chunk."""
    try:
        lines = _encode(format_config(manifest), "checkpoint manifest")
    except ConfigError as exc:
        raise CodecError(f"checkpoint manifest: {exc}") from None
    names: dict[str, bytes] = {}
    for name, arr in params:
        if name in names:
            raise CodecError(f"repeated parameter name {name!r}")
        if max(np.shape(arr), default=0) >= 2**32:
            raise CodecError(f"parameter {name!r}: shape {np.shape(arr)} has a dim "
                             f"past the u32 an SRDT record holds")
        names[name] = _encode(name, "parameter name")
    yield struct.pack("<I", len(lines)) + lines
    for nb, (_, arr) in zip(names.values(), params):
        yield struct.pack("<I", len(nb)) + nb
        yield from _tensor_chunks(arr)


def _byte_view(arr: np.ndarray) -> memoryview:
    """The bytes of C-contiguous `arr`, writable if `arr` is, without a copy."""
    return memoryview(arr.reshape(-1).view(np.uint8))


class _Stream:
    """A binary stream read front to back, knowing how many bytes are left.

    Every read checks its size against what is left before it allocates, so
    a header claiming more than the stream holds is a CodecError, never a
    huge allocation.
    """

    def __init__(self, f: BinaryIO):
        self.f = f
        start = f.tell()
        self.left = max(f.seek(0, os.SEEK_END) - start, 0)
        f.seek(start)

    def need(self, nbytes: int, what: str) -> None:
        if self.left < nbytes:
            raise CodecError(f"truncated {what}: expected {nbytes} bytes, got {self.left}")

    def read(self, nbytes: int, what: str) -> bytes:
        self.need(nbytes, what)
        raw = self.f.read(nbytes)
        self._advance(len(raw), nbytes, what)
        return raw

    def readinto(self, arr: np.ndarray, what: str) -> None:
        """Fill `arr`, which the caller sized after a ``need`` check."""
        self._advance(self.f.readinto(_byte_view(arr)), arr.nbytes, what)

    def _advance(self, got: int | None, nbytes: int, what: str) -> None:
        if got != nbytes:  # the stream shrank under us, or gave a short read
            raise CodecError(f"short read of {what}: expected {nbytes} bytes, got {got}")
        self.left -= nbytes


def _decode_tensor(stream: _Stream) -> np.ndarray:
    magic = stream.read(min(4, stream.left), "tensor magic")
    if magic != MAGIC:
        raise CodecError(f"bad magic {magic!r}, expected {MAGIC!r}")
    version, rank = struct.unpack("<II", stream.read(8, "tensor header"))
    if version != VERSION:
        raise CodecError(f"unsupported tensor codec version {version}")
    dims = struct.unpack(f"<{rank}I", stream.read(4 * rank, f"dims of a rank-{rank} tensor"))
    stream.need(4 * math.prod(dims), "tensor payload")  # Python ints: no wrap-around on huge dims
    try:  # numpy rejects over 64 dims, and nonzero dims too big together, even at size 0
        arr = np.empty(dims, dtype="<f4")
    except ValueError as exc:
        raise CodecError(f"rank-{rank} tensor: {exc}") from None
    stream.readinto(arr, "tensor payload")
    return arr


def _decode_checkpoint(stream: _Stream) -> tuple[dict[str, str], list[tuple[str, np.ndarray]]]:
    (mlen,) = struct.unpack("<I", stream.read(4, "checkpoint manifest length"))
    manifest = manifest_from_bytes(stream.read(mlen, "checkpoint manifest"),
                                   "checkpoint manifest")
    params: list[tuple[str, np.ndarray]] = []
    seen: set[str] = set()
    while stream.left:
        (nlen,) = struct.unpack("<I", stream.read(4, "checkpoint record header"))
        name = _decode(stream.read(nlen, "parameter name"), "parameter name")
        if name in seen:
            raise CodecError(f"repeated parameter name {name!r}")
        seen.add(name)
        params.append((name, _decode_tensor(stream)))
    return manifest, params


# ---------------------------------------------------------------------------
# spec manifests


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
        out[f.name] = str(getattr(spec, f.name))
    return out


def decode_spec(manifest: dict[str, str], kinds: dict[str, type]):
    """The spec, of class ``kinds[manifest["kind"]]``; any fault is a CodecError."""
    kind = manifest.get("kind")
    if kind not in kinds:
        raise CodecError(f"manifest kind {kind!r}, expected one of {sorted(kinds)}")
    fields = {name: manifest_value(manifest, name, hint)
              for name, hint in _field_types(kinds[kind])}
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


def _atomic_write(path: str | Path, chunks: Iterable[bytes | memoryview]) -> None:
    # write-temp-then-rename so concurrent readers never see partial files.
    # The temp name is unique and O_EXCL never opens an existing file; unlike
    # tempfile.mkstemp (mode 0600), mode 0666 lets the umask set permissions.
    # The first chunk is made before the temp file: a checkpoint the encoder
    # rejects leaves nothing behind.
    chunks = iter(chunks)
    first = next(chunks, b"")
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{secrets.token_hex(8)}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(first)
            f.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
