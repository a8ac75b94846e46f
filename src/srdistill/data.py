"""Synthetic translation datasets and image/tensor codecs.

Two desk-scale tasks. The unpaired task is texture swapping with geometry
preserved: both domains show one elliptical object on a plain background,
striped horizontally in domain A and vertically in domain B; translating
should re-orient the stripes while keeping the shape. The paired task maps
per-pixel class labels to deterministically rendered photos of a simple
street scene. An unpaired sample carries its object mask; a paired
sample's label is its ground-truth class mask.

Images travel as binary PPM (P6, color) and PGM (P5, single channel).
``write_image`` writes ``P6`` (``P5`` for an (H, W) array), then
``<width> <height>``, then ``255``, each ended by a newline, then the pixel
rows. ``read_image`` accepts a header of maxval 255 with any run of
whitespace and ``#`` comments between its fields and one whitespace byte
after the last.

Tensors use the affine mapping v/127.5 - 1 into [-1, 1], matching the
generators' tanh output; the inverse rounds back to the exact input bytes.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import format_config
from .serialize import CodecError, decode_spec, encode_spec, manifest_from_bytes

# paired-task palette: class id -> RGB
PALETTE = np.array([
    [135, 180, 235],  # 0 sky
    [160, 95, 80],    # 1 building
    [105, 105, 110],  # 2 road
    [70, 140, 75],    # 3 vegetation
    [200, 180, 60],   # 4 vehicle
], dtype=np.uint8)


@dataclass(frozen=True)
class UnpairedDatasetSpec:
    resolution: int = 32
    train_samples: int = 100
    test_samples: int = 10
    coverage_lo: float = 0.2  # foreground area fraction, drawn in [lo, hi]
    coverage_hi: float = 0.45
    stripe_period: int = 4
    stripe_contrast: float = 0.9
    noise: float = 0.04
    seed: int = 0

    def __post_init__(self):
        if self.resolution < 8:
            raise ValueError(f"resolution must be >= 8, got {self.resolution}")
        if self.train_samples < 1 or self.test_samples < 0:
            raise ValueError("need at least one training sample per domain")
        if not 0.0 < self.coverage_lo <= self.coverage_hi <= 0.6:
            raise ValueError(f"coverage range must satisfy 0 < lo <= hi <= 0.6, "
                             f"got {(self.coverage_lo, self.coverage_hi)}")
        if self.stripe_period < 2:
            raise ValueError("stripe_period must be >= 2")
        if not 0.0 <= self.stripe_contrast <= 1.0:
            raise ValueError("stripe_contrast must be in [0, 1]")
        if not (math.isfinite(self.noise) and self.noise >= 0.0):
            raise ValueError(f"noise must be finite and >= 0, got {self.noise}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    def manifest(self) -> dict[str, str]:
        return encode_spec(self, "unpaired")


@dataclass(frozen=True)
class PairedDatasetSpec:
    resolution: int = 256
    train_samples: int = 20
    test_samples: int = 5
    noise: float = 0.03
    seed: int = 0

    def __post_init__(self):
        if self.resolution < 32:
            raise ValueError(f"resolution must be >= 32, got {self.resolution}")
        if self.train_samples < 1 or self.test_samples < 0:
            raise ValueError("need at least one training sample")
        if not (math.isfinite(self.noise) and self.noise >= 0.0):
            raise ValueError(f"noise must be finite and >= 0, got {self.noise}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    def manifest(self) -> dict[str, str]:
        return encode_spec(self, "paired")


@dataclass
class UnpairedDataset:
    """Images are (N, H, W, 3) uint8; masks are (N, H, W) uint8 in {0, 1}."""

    train_a: np.ndarray
    train_b: np.ndarray
    test_a: np.ndarray
    test_b: np.ndarray
    mask_train_a: np.ndarray
    mask_train_b: np.ndarray
    mask_test_a: np.ndarray
    mask_test_b: np.ndarray


@dataclass
class PairedSample:
    label: np.ndarray  # (H, W) uint8 class ids
    photo: np.ndarray  # (H, W, 3) uint8

    def __post_init__(self):
        if self.label.shape != self.photo.shape[:2]:
            raise ValueError(f"label {self.label.shape} vs photo "
                             f"{self.photo.shape[:2]} resolution mismatch")
        if self.label.max(initial=0) >= len(PALETTE):
            raise ValueError("label contains a class id outside the palette")


# ---------------------------------------------------------------------------
# unpaired generation


def _render_striped_ellipse(rng, spec: UnpairedDatasetSpec, horizontal: bool):
    res = spec.resolution
    target = rng.uniform(spec.coverage_lo, spec.coverage_hi)
    aspect = rng.uniform(0.7, 1.4)
    area = target * res * res
    rx = np.sqrt(area * aspect / np.pi)
    ry = area / (np.pi * rx)
    limit = res / 2.0 - 1.5
    rx, ry = min(rx, limit), min(ry, limit)
    cx = rng.uniform(rx + 0.5, res - rx - 1.5)
    cy = rng.uniform(ry + 0.5, res - ry - 1.5)

    yy, xx = np.ogrid[0:res, 0:res]
    mask = (((xx - cx) / rx) ** 2 + ((yy - cy) / ry) ** 2) <= 1.0

    half = max(1, spec.stripe_period // 2)
    phase = int(rng.integers(0, spec.stripe_period))
    lane = yy if horizontal else xx
    stripe = ((lane + phase) // half) % 2  # one row or column, broadcast

    fg_base = rng.uniform(150.0, 190.0)
    swing = spec.stripe_contrast * 70.0
    fg_val = np.where(stripe == 0, fg_base + swing, fg_base - swing)
    bg_base = rng.uniform(70.0, 110.0)

    # per channel the background, then the stripes copied in where the mask is
    img = np.empty((res, res, 3), dtype=np.float64)
    for c, (fg, bg) in enumerate(((20.0, -10.0), (0.0, 0.0), (-30.0, 15.0))):
        img[..., c].fill(bg_base + bg)
        np.copyto(img[..., c], fg_val + fg, where=mask)
    img += rng.normal(0.0, spec.noise * 255.0, img.shape)
    np.rint(img, out=img)
    return np.clip(img, 0, 255, out=img).astype(np.uint8), mask.astype(np.uint8)


def _unpaired_split(spec, domain, split, count):
    imgs = np.empty((count, spec.resolution, spec.resolution, 3), dtype=np.uint8)
    masks = np.empty((count, spec.resolution, spec.resolution), dtype=np.uint8)
    for i in range(count):
        rng = np.random.default_rng([spec.seed, domain, split, i])
        imgs[i], masks[i] = _render_striped_ellipse(rng, spec,
                                                    horizontal=(domain == 0))
    return imgs, masks


def gen_unpaired(spec: UnpairedDatasetSpec) -> UnpairedDataset:
    train_a, mask_train_a = _unpaired_split(spec, 0, 0, spec.train_samples)
    train_b, mask_train_b = _unpaired_split(spec, 1, 0, spec.train_samples)
    test_a, mask_test_a = _unpaired_split(spec, 0, 1, spec.test_samples)
    test_b, mask_test_b = _unpaired_split(spec, 1, 1, spec.test_samples)
    return UnpairedDataset(train_a, train_b, test_a, test_b,
                           mask_train_a, mask_train_b, mask_test_a, mask_test_b)


# ---------------------------------------------------------------------------
# paired generation


def _render_label_scene(rng, res):
    label = np.zeros((res, res), dtype=np.uint8)  # sky
    horizon = int(rng.uniform(0.45, 0.6) * res)
    label[horizon:] = 2  # road

    for _ in range(int(rng.integers(2, 5))):  # buildings rise from the horizon
        bw = int(rng.uniform(0.1, 0.25) * res)
        bh = int(rng.uniform(0.15, 0.4) * res)
        bx = int(rng.integers(0, max(1, res - bw)))
        label[max(0, horizon - bh):horizon, bx:bx + bw] = 1

    yy, xx = np.ogrid[0:res, 0:res]
    for _ in range(int(rng.integers(1, 4))):  # vegetation blobs near horizon
        r = int(rng.uniform(0.05, 0.12) * res)
        cx = int(rng.integers(r, res - r))
        cy = int(rng.integers(max(r, horizon - 2 * r), horizon + r))
        label[((xx - cx) ** 2 + (yy - cy) ** 2) <= r * r] = 3

    vw = max(2, int(rng.uniform(0.08, 0.15) * res))  # one vehicle on the road
    vh = max(2, vw // 2)
    vx = int(rng.integers(0, max(1, res - vw)))
    vy = int(rng.integers(horizon, max(horizon + 1, res - vh)))
    label[vy:vy + vh, vx:vx + vw] = 4
    return label


def _render_photo(rng, label, noise):
    res = label.shape[0]
    photo = PALETTE[label].astype(np.float64)
    yy, xx = np.ogrid[0:res, 0:res]

    # Each class's update is a ufunc with out=photo and where=mask, not a
    # gather-add-scatter through photo[mask]. Both add or subtract the same
    # two float64 operands at every masked pixel, once, in the same class
    # order, and leave the other pixels unwritten, so the bytes are the same;
    # the draws are the same too, as each rng.normal call still covers the
    # whole image.
    def update(op, term, mask):
        op(photo, term, out=photo, where=mask[..., None])

    update(np.add, ((1.0 - yy / res) * 25.0)[..., None], label == 0)  # sky, brighter up top
    update(np.subtract, 22.0, (label == 1) & (((yy // max(2, res // 32)) % 2) == 0))  # brick
    update(np.add, rng.normal(0.0, 6.0, (res, res, 3)), label == 2)  # road
    update(np.add, rng.normal(0.0, 10.0, (res, res, 1)), label == 3)  # vegetation, grey
    update(np.add, 18.0, (label == 4) & (((xx // max(2, res // 64)) % 3) == 0))  # shine

    photo += rng.normal(0.0, noise * 255.0, photo.shape)
    np.rint(photo, out=photo)
    return np.clip(photo, 0, 255, out=photo).astype(np.uint8)


def _paired_split(spec, split, count):
    samples = []
    for i in range(count):
        rng = np.random.default_rng([spec.seed, 2, split, i])
        label = _render_label_scene(rng, spec.resolution)
        photo = _render_photo(rng, label, spec.noise)
        samples.append(PairedSample(label, photo))
    return samples


def gen_paired(spec: PairedDatasetSpec) -> tuple[list[PairedSample], list[PairedSample]]:
    """Returns (train samples, test samples)."""
    return (_paired_split(spec, 0, spec.train_samples),
            _paired_split(spec, 1, spec.test_samples))


# ---------------------------------------------------------------------------
# image codecs


def write_image(path, img: np.ndarray) -> None:
    """Writes a uint8 (H, W, 3) array as a binary PPM (P6), an (H, W) one as a PGM (P5)."""
    if img.ndim not in (2, 3) or img.shape[2:] not in ((), (3,)):
        raise CodecError(f"netpbm wants (H, W) or (H, W, 3), got {img.shape}")
    if img.dtype != np.uint8:  # a cast would wrap values outside 0..255
        raise CodecError(f"netpbm wants uint8 values, got {img.dtype}")
    with open(path, "wb") as f:  # P5 for (H, W), P6 for (H, W, 3)
        f.write(b"P%d\n%d %d\n255\n" % (3 + img.ndim, img.shape[1], img.shape[0]))
        f.write(np.ascontiguousarray(img))  # the pixels' own buffer, when C-ordered


# The magic, then width, height and maxval, each after a run of whitespace
# and #-to-end-of-line comments, then one whitespace byte. A token runs to the
# next whitespace, so a # inside it is part of it and the run after it opens
# with whitespace.
_HEADER = re.compile(rb"P[56](?:\s|#[^\n]*\n)+([^\s#]\S*)"
                     + rb"\s(?:\s|#[^\n]*\n)*([^\s#]\S*)" * 2 + rb"\s")


def read_image(path) -> np.ndarray:
    """A binary PPM (H, W, 3) or PGM (H, W) file's uint8 pixels; any fault,
    a missing file or a directory too, is a CodecError naming `path`."""
    try:
        raw = Path(path).read_bytes()
    except (FileNotFoundError, IsADirectoryError) as exc:
        raise CodecError(f"{path}: {exc.strerror}") from None
    if raw[:2] not in (b"P5", b"P6"):
        raise CodecError(f"{path}: not a binary PGM/PPM file (magic {raw[:2]!r})")
    header = _HEADER.match(raw)
    if header is None:
        raise CodecError(f"{path}: truncated header")

    # int() would also take a sign, underscores and non-ASCII digits
    for name, t in zip(("width", "height", "maxval"), header.groups()):
        if not t.isdigit():  # bytes: ASCII 0-9 only
            raise CodecError(f"{path}: header {name} {t!r} is not a decimal number")
    try:
        w, h, maxval = (int(t) for t in header.groups())
    except ValueError:  # more digits than int() converts (sys.get_int_max_str_digits)
        raise CodecError(f"{path}: header number has too many digits") from None
    if maxval != 255:
        raise CodecError(f"{path}: only maxval 255 supported, got {maxval}")

    shape = (h, w, 3) if raw.startswith(b"P6") else (h, w)
    expected = math.prod(shape)
    payload = memoryview(raw)[header.end():]
    if len(payload) != expected:
        raise CodecError(f"{path}: payload expected {expected} bytes, "
                         f"got {len(payload)}")
    return np.frombuffer(payload, dtype=np.uint8).reshape(shape)


# ---------------------------------------------------------------------------
# tensor mapping


def image_to_tensor(img: np.ndarray, dtype=np.float32) -> np.ndarray:
    """(H, W, 3) uint8 -> (1, 3, H, W) float in [-1, 1]."""
    if img.ndim != 3 or img.shape[2] != 3:
        raise ValueError(f"expected (H, W, 3) image, got {img.shape}")
    t = img.astype(dtype) / dtype(127.5) - dtype(1.0)
    return t.transpose(2, 0, 1)[None]


def tensor_to_image(t: np.ndarray) -> np.ndarray:
    """(1, 3, H, W) or (3, H, W) float in [-1, 1] -> (H, W, 3) uint8.

    Values outside [-1, 1] clip to 0 or 255; NaN or inf is a ValueError."""
    if t.ndim == 4:
        if t.shape[0] != 1:
            raise ValueError(f"expected batch 1, got {t.shape}")
        t = t[0]
    if t.ndim != 3 or t.shape[0] != 3:
        raise ValueError(f"expected (3, H, W) tensor, got {t.shape}")
    if not np.isfinite(t).all():
        raise ValueError("expected finite values, got NaN or inf")
    v = np.rint((np.asarray(t, dtype=np.float64) + 1.0) * 127.5)
    return np.clip(v, 0, 255).astype(np.uint8).transpose(1, 2, 0)


# ---------------------------------------------------------------------------
# dataset directories


# Part `suffix` of sample i of a split is the file f"{i:04d}{suffix}" in the
# split's directory, an (H, W, 3) image if `suffix` ends in ".ppm", else (H, W).
_UNPAIRED_PARTS = (".ppm", "_mask.pgm")
_PAIRED_PARTS = ("_label.pgm", "_photo.ppm")
# the largest value a file of each part may hold
_PART_MAX = {".ppm": 255, "_photo.ppm": 255, "_mask.pgm": 1, "_label.pgm": len(PALETTE) - 1}
_UNPAIRED_SPLITS = {"trainA": "train_a", "trainB": "train_b",
                    "testA": "test_a", "testB": "test_b"}


def _write_split(d: Path, suffixes, parts) -> None:
    """Writes `parts[k][i]` as part `suffixes[k]` of sample i to directory `d`,
    in place of every file a part's glob matched there, so that `d` reads
    back as exactly these samples."""
    d.mkdir(parents=True, exist_ok=True)
    for suffix in suffixes:
        for old in d.glob(f"*{suffix}"):
            old.unlink()
    for i, sample in enumerate(zip(*parts, strict=True)):
        for suffix, arr in zip(suffixes, sample):
            write_image(d / f"{i:04d}{suffix}", arr)


def _read_split(d: Path, suffixes, count: int, res: int):
    """Each part's (count, res, res[, 3]) stack of the samples in `d`, in the
    name order of their first part's files; a CodecError names the sample."""
    firsts = sorted(d.glob(f"*{suffixes[0]}"))
    if len(firsts) != count:
        raise CodecError(f"{d}: {len(firsts)} *{suffixes[0]} files, the manifest says {count}")
    shapes = [(res, res, 3) if s.endswith(".ppm") else (res, res) for s in suffixes]
    # every file is checked before a stack is allocated, so a huge
    # manifest resolution is a CodecError, not a MemoryError
    parts = [[] for _ in suffixes]
    for first in firsts:
        stem = first.name[:-len(suffixes[0])]
        for suffix, shape, out in zip(suffixes, shapes, parts):
            path = first.with_name(stem + suffix)
            try:
                arr = read_image(path)
            except CodecError as exc:
                raise CodecError(f"{first}: {exc}") from None
            if arr.shape != shape:
                raise CodecError(f"{first}: {path}: shape {arr.shape}, expected {shape}")
            if arr.max(initial=0) > _PART_MAX[suffix]:
                raise CodecError(f"{first}: {path}: value {arr.max()} above "
                                 f"{_PART_MAX[suffix]}, the largest a *{suffix} file holds")
            out.append(arr)
    return [np.array(out, dtype=np.uint8).reshape(count, *shape)
            for out, shape in zip(parts, shapes)]


def _read_spec(root: Path, kinds: dict[str, type]):
    """The spec in the manifest of the dataset at `root`; a CodecError names `root`."""
    try:
        raw = (root / "manifest.txt").read_bytes()
        return decode_spec(manifest_from_bytes(raw, "manifest"), kinds)
    except (FileNotFoundError, IsADirectoryError) as exc:
        raise CodecError(f"{root}: manifest.txt: {exc.strerror}") from None
    except CodecError as exc:
        raise CodecError(f"{root}: {exc}") from None


def save_unpaired(root, spec: UnpairedDatasetSpec, ds: UnpairedDataset) -> None:
    root = Path(root)
    for name, field in _UNPAIRED_SPLITS.items():
        _write_split(root / name, _UNPAIRED_PARTS,
                     (getattr(ds, field), getattr(ds, "mask_" + field)))
    (root / "manifest.txt").write_text(format_config(spec.manifest()))


def load_unpaired(root) -> tuple[UnpairedDatasetSpec, UnpairedDataset]:
    root = Path(root)
    spec = _read_spec(root, {"unpaired": UnpairedDatasetSpec})
    fields = {}
    for name, field in _UNPAIRED_SPLITS.items():
        count = spec.train_samples if name.startswith("train") else spec.test_samples
        fields[field], fields["mask_" + field] = _read_split(
            root / name, _UNPAIRED_PARTS, count, spec.resolution)
    return spec, UnpairedDataset(**fields)


def save_paired(root, spec: PairedDatasetSpec, train, test) -> None:
    root = Path(root)
    for name, samples in (("train", train), ("test", test)):
        _write_split(root / name, _PAIRED_PARTS,
                     ([s.label for s in samples], [s.photo for s in samples]))
    (root / "manifest.txt").write_text(format_config(spec.manifest()))


def load_paired(root) -> tuple[PairedDatasetSpec, list[PairedSample], list[PairedSample]]:
    root = Path(root)
    spec = _read_spec(root, {"paired": PairedDatasetSpec})
    res, splits = spec.resolution, []
    for name, count in (("train", spec.train_samples), ("test", spec.test_samples)):
        labels, photos = _read_split(root / name, _PAIRED_PARTS, count, res)
        splits.append([PairedSample(*s) for s in zip(labels, photos)])
    return spec, splits[0], splits[1]
