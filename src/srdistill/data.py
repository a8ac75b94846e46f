"""Synthetic translation datasets and image/tensor codecs.

Two desk-scale tasks. The unpaired task is texture swapping with geometry
preserved: both domains show one elliptical object on a plain background,
striped horizontally in domain A and vertically in domain B; translating
should re-orient the stripes while keeping the shape. The paired task maps
per-pixel class labels to deterministically rendered photos of a simple
street scene. Every sample comes with a ground-truth class mask.

Images travel as binary PPM (P6, color) and PGM (P5, single channel).
Tensors use the affine mapping v/127.5 - 1 into [-1, 1], matching the
generators' tanh output; the inverse rounds back to the exact input bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import format_config
from .serialize import CodecError, manifest_from_bytes, manifest_value

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
    coverage: tuple[float, float] = (0.2, 0.45)  # foreground area fraction
    stripe_period: int = 4
    stripe_contrast: float = 0.9
    noise: float = 0.04
    seed: int = 0

    def __post_init__(self):
        if self.resolution < 8:
            raise ValueError(f"resolution must be >= 8, got {self.resolution}")
        if self.train_samples < 1 or self.test_samples < 0:
            raise ValueError("need at least one training sample per domain")
        lo, hi = self.coverage
        if not 0.0 < lo <= hi <= 0.6:
            raise ValueError(f"coverage range must satisfy 0 < lo <= hi <= 0.6, "
                             f"got {self.coverage}")
        if self.stripe_period < 2:
            raise ValueError("stripe_period must be >= 2")
        if not 0.0 <= self.stripe_contrast <= 1.0:
            raise ValueError("stripe_contrast must be in [0, 1]")
        if self.noise < 0.0:
            raise ValueError("noise must be >= 0")

    def manifest(self) -> dict[str, str]:
        return {
            "kind": "unpaired",
            "resolution": str(self.resolution),
            "train_samples": str(self.train_samples),
            "test_samples": str(self.test_samples),
            "coverage_lo": repr(self.coverage[0]),
            "coverage_hi": repr(self.coverage[1]),
            "stripe_period": str(self.stripe_period),
            "stripe_contrast": repr(self.stripe_contrast),
            "noise": repr(self.noise),
            "seed": str(self.seed),
        }


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
        if self.noise < 0.0:
            raise ValueError("noise must be >= 0")

    def manifest(self) -> dict[str, str]:
        return {
            "kind": "paired",
            "resolution": str(self.resolution),
            "train_samples": str(self.train_samples),
            "test_samples": str(self.test_samples),
            "noise": repr(self.noise),
            "seed": str(self.seed),
        }


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
    mask: np.ndarray   # same ids as label

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
    lo, hi = spec.coverage
    target = rng.uniform(lo, hi)
    aspect = rng.uniform(0.7, 1.4)
    area = target * res * res
    rx = np.sqrt(area * aspect / np.pi)
    ry = area / (np.pi * rx)
    limit = res / 2.0 - 1.5
    rx, ry = min(rx, limit), min(ry, limit)
    cx = rng.uniform(rx + 0.5, res - rx - 1.5)
    cy = rng.uniform(ry + 0.5, res - ry - 1.5)

    yy, xx = np.mgrid[0:res, 0:res]
    mask = (((xx - cx) / rx) ** 2 + ((yy - cy) / ry) ** 2) <= 1.0

    half = max(1, spec.stripe_period // 2)
    phase = int(rng.integers(0, spec.stripe_period))
    lane = yy if horizontal else xx
    stripe = ((lane + phase) // half) % 2

    fg_base = rng.uniform(150.0, 190.0)
    swing = spec.stripe_contrast * 70.0
    fg_val = np.where(stripe == 0, fg_base + swing, fg_base - swing)
    bg_base = rng.uniform(70.0, 110.0)

    img = np.empty((res, res, 3), dtype=np.float64)
    img[..., 0] = np.where(mask, fg_val + 20.0, bg_base - 10.0)
    img[..., 1] = np.where(mask, fg_val, bg_base)
    img[..., 2] = np.where(mask, fg_val - 30.0, bg_base + 15.0)
    img += rng.normal(0.0, spec.noise * 255.0, img.shape)
    return np.clip(np.rint(img), 0, 255).astype(np.uint8), mask.astype(np.uint8)


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

    for _ in range(int(rng.integers(1, 4))):  # vegetation blobs near horizon
        r = int(rng.uniform(0.05, 0.12) * res)
        cx = int(rng.integers(r, res - r))
        cy = int(rng.integers(max(r, horizon - 2 * r), horizon + r))
        yy, xx = np.mgrid[0:res, 0:res]
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
    yy, xx = np.mgrid[0:res, 0:res]

    sky = label == 0  # brighter toward the top
    photo[sky] += ((1.0 - yy / res) * 25.0)[sky, None]
    brick = (label == 1) & (((yy // max(2, res // 32)) % 2) == 0)
    photo[brick] -= 22.0
    road = label == 2
    photo[road] += rng.normal(0.0, 6.0, (res, res, 3))[road]
    veg = label == 3
    photo[veg] += rng.normal(0.0, 10.0, (res, res, 1)).repeat(3, axis=2)[veg]
    shine = (label == 4) & (((xx // max(2, res // 64)) % 3) == 0)
    photo[shine] += 18.0

    photo += rng.normal(0.0, noise * 255.0, photo.shape)
    return np.clip(np.rint(photo), 0, 255).astype(np.uint8)


def _paired_split(spec, split, count):
    samples = []
    for i in range(count):
        rng = np.random.default_rng([spec.seed, 2, split, i])
        label = _render_label_scene(rng, spec.resolution)
        photo = _render_photo(rng, label, spec.noise)
        samples.append(PairedSample(label, photo, label.copy()))
    return samples


def gen_paired(spec: PairedDatasetSpec) -> tuple[list[PairedSample], list[PairedSample]]:
    """Returns (train samples, test samples)."""
    return (_paired_split(spec, 0, spec.train_samples),
            _paired_split(spec, 1, spec.test_samples))


# ---------------------------------------------------------------------------
# image codecs


def _write_netpbm(path, magic: bytes, arr: np.ndarray) -> None:
    h, w = arr.shape[:2]
    header = magic + b"\n%d %d\n255\n" % (w, h)
    Path(path).write_bytes(header + arr.astype(np.uint8).tobytes())


def write_ppm(path, img: np.ndarray) -> None:
    if img.ndim != 3 or img.shape[2] != 3:
        raise CodecError(f"PPM wants (H, W, 3), got {img.shape}")
    _write_netpbm(path, b"P6", img)


def write_pgm(path, img: np.ndarray) -> None:
    if img.ndim != 2:
        raise CodecError(f"PGM wants (H, W), got {img.shape}")
    _write_netpbm(path, b"P5", img)


def _read_netpbm(path) -> tuple[bytes, np.ndarray]:
    raw = Path(path).read_bytes()
    magic = raw[:2]
    if magic not in (b"P5", b"P6"):
        raise CodecError(f"{path}: not a binary PGM/PPM file (magic {magic!r})")

    # header tokens: width, height, maxval; # comments run to end of line
    pos = 2
    tokens = []
    while len(tokens) < 3:
        if pos >= len(raw):
            raise CodecError(f"{path}: truncated header")
        ch = raw[pos:pos + 1]
        if ch == b"#":
            pos = raw.index(b"\n", pos) + 1 if b"\n" in raw[pos:] else len(raw)
        elif ch.isspace():
            pos += 1
        else:
            end = pos
            while end < len(raw) and not raw[end:end + 1].isspace():
                end += 1
            tokens.append(raw[pos:end])
            pos = end
    pos += 1  # single whitespace after maxval

    try:
        w, h, maxval = (int(t) for t in tokens)
    except ValueError:
        raise CodecError(f"{path}: non-numeric header fields {tokens}")
    if maxval != 255:
        raise CodecError(f"{path}: only maxval 255 supported, got {maxval}")

    channels = 3 if magic == b"P6" else 1
    expected = w * h * channels
    payload = raw[pos:]
    if len(payload) != expected:
        raise CodecError(f"{path}: payload expected {expected} bytes, "
                         f"got {len(payload)}")
    arr = np.frombuffer(payload, dtype=np.uint8)
    return magic, arr.reshape((h, w, 3) if channels == 3 else (h, w))


def read_ppm(path) -> np.ndarray:
    magic, arr = _read_netpbm(path)
    if magic != b"P6":
        raise CodecError(f"{path}: expected P6 color image, found {magic!r}")
    return arr


def read_pgm(path) -> np.ndarray:
    magic, arr = _read_netpbm(path)
    if magic != b"P5":
        raise CodecError(f"{path}: expected P5 gray image, found {magic!r}")
    return arr


def read_image(path) -> np.ndarray:
    return _read_netpbm(path)[1]


# ---------------------------------------------------------------------------
# tensor mapping


def image_to_tensor(img: np.ndarray, dtype=np.float32) -> np.ndarray:
    """(H, W, 3) uint8 -> (1, 3, H, W) float in [-1, 1]."""
    if img.ndim != 3 or img.shape[2] != 3:
        raise ValueError(f"expected (H, W, 3) image, got {img.shape}")
    t = img.astype(dtype) / dtype(127.5) - dtype(1.0)
    return t.transpose(2, 0, 1)[None]


def tensor_to_image(t: np.ndarray) -> np.ndarray:
    """(1, 3, H, W) or (3, H, W) float in [-1, 1] -> (H, W, 3) uint8."""
    if t.ndim == 4:
        if t.shape[0] != 1:
            raise ValueError(f"expected batch 1, got {t.shape}")
        t = t[0]
    if t.ndim != 3 or t.shape[0] != 3:
        raise ValueError(f"expected (3, H, W) tensor, got {t.shape}")
    v = np.rint((np.asarray(t, dtype=np.float64) + 1.0) * 127.5)
    return np.clip(v, 0, 255).astype(np.uint8).transpose(1, 2, 0)


# ---------------------------------------------------------------------------
# dataset directories


def _write_domain(root: Path, name: str, imgs, masks) -> None:
    d = root / name
    d.mkdir(parents=True, exist_ok=True)
    for i in range(len(imgs)):
        write_ppm(d / f"{i:04d}.ppm", imgs[i])
        write_pgm(d / f"{i:04d}_mask.pgm", masks[i])


def _read_domain(root: Path, name: str):
    d = root / name
    paths = sorted(d.glob("*.ppm"))
    imgs = np.stack([read_ppm(p) for p in paths])
    masks = np.stack([read_pgm(p.with_name(p.stem + "_mask.pgm")) for p in paths])
    return imgs, masks


def _read_manifest(root: Path, kind: str) -> dict[str, str]:
    """The manifest of the dataset at `root`, which must be of `kind`."""
    m = manifest_from_bytes((root / "manifest.txt").read_bytes(), f"{root} manifest")
    if m.get("kind") != kind:
        raise CodecError(f"{root}: manifest kind {m.get('kind')!r}, expected {kind!r}")
    return m


def save_unpaired(root, spec: UnpairedDatasetSpec, ds: UnpairedDataset) -> None:
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    _write_domain(root, "trainA", ds.train_a, ds.mask_train_a)
    _write_domain(root, "trainB", ds.train_b, ds.mask_train_b)
    _write_domain(root, "testA", ds.test_a, ds.mask_test_a)
    _write_domain(root, "testB", ds.test_b, ds.mask_test_b)
    (root / "manifest.txt").write_text(format_config(spec.manifest()))


def load_unpaired(root) -> tuple[UnpairedDatasetSpec, UnpairedDataset]:
    root = Path(root)
    m = _read_manifest(root, "unpaired")
    spec = UnpairedDatasetSpec(
        resolution=manifest_value(m, "resolution", int),
        train_samples=manifest_value(m, "train_samples", int),
        test_samples=manifest_value(m, "test_samples", int),
        coverage=(manifest_value(m, "coverage_lo", float),
                  manifest_value(m, "coverage_hi", float)),
        stripe_period=manifest_value(m, "stripe_period", int),
        stripe_contrast=manifest_value(m, "stripe_contrast", float),
        noise=manifest_value(m, "noise", float),
        seed=manifest_value(m, "seed", int),
    )
    train_a, mask_train_a = _read_domain(root, "trainA")
    train_b, mask_train_b = _read_domain(root, "trainB")
    test_a, mask_test_a = _read_domain(root, "testA")
    test_b, mask_test_b = _read_domain(root, "testB")
    return spec, UnpairedDataset(train_a, train_b, test_a, test_b,
                                 mask_train_a, mask_train_b,
                                 mask_test_a, mask_test_b)


def save_paired(root, spec: PairedDatasetSpec, train, test) -> None:
    root = Path(root)
    for name, samples in (("train", train), ("test", test)):
        d = root / name
        d.mkdir(parents=True, exist_ok=True)
        for i, s in enumerate(samples):
            write_pgm(d / f"{i:04d}_label.pgm", s.label)
            write_ppm(d / f"{i:04d}_photo.ppm", s.photo)
    (root / "manifest.txt").write_text(format_config(spec.manifest()))


def load_paired(root) -> tuple[PairedDatasetSpec, list[PairedSample], list[PairedSample]]:
    root = Path(root)
    m = _read_manifest(root, "paired")
    spec = PairedDatasetSpec(
        resolution=manifest_value(m, "resolution", int),
        train_samples=manifest_value(m, "train_samples", int),
        test_samples=manifest_value(m, "test_samples", int),
        noise=manifest_value(m, "noise", float),
        seed=manifest_value(m, "seed", int),
    )
    splits = []
    for name in ("train", "test"):
        samples = []
        for lp in sorted((root / name).glob("*_label.pgm")):
            label = read_pgm(lp)
            photo = read_ppm(lp.with_name(lp.name.replace("_label.pgm",
                                                          "_photo.ppm")))
            samples.append(PairedSample(label, photo, label.copy()))
        splits.append(samples)
    return spec, splits[0], splits[1]
