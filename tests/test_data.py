"""Dataset generator and codec tests."""

import numpy as np
import pytest

from srdistill.data import (
    PALETTE,
    CodecError,
    PairedDatasetSpec,
    UnpairedDatasetSpec,
    gen_paired,
    gen_unpaired,
    image_to_tensor,
    load_paired,
    load_unpaired,
    read_image,
    read_pgm,
    read_ppm,
    save_paired,
    save_unpaired,
    tensor_to_image,
    write_pgm,
    write_ppm,
)


def test_gen_unpaired_is_deterministic():
    spec = UnpairedDatasetSpec(train_samples=4, test_samples=2, seed=11)
    a, b = gen_unpaired(spec), gen_unpaired(spec)
    assert np.array_equal(a.train_a, b.train_a)
    assert np.array_equal(a.train_b, b.train_b)
    assert np.array_equal(a.mask_test_a, b.mask_test_a)


def test_gen_unpaired_counts_and_shapes():
    spec = UnpairedDatasetSpec(resolution=32, train_samples=10, test_samples=3)
    ds = gen_unpaired(spec)
    assert ds.train_a.shape == (10, 32, 32, 3)
    assert ds.train_b.shape == (10, 32, 32, 3)
    assert ds.test_a.shape == (3, 32, 32, 3)
    assert ds.mask_train_a.shape == (10, 32, 32)
    assert set(np.unique(ds.mask_train_a)) <= {0, 1}


def test_every_image_has_foreground():
    ds = gen_unpaired(UnpairedDatasetSpec(train_samples=20, test_samples=5))
    for masks in (ds.mask_train_a, ds.mask_train_b, ds.mask_test_a, ds.mask_test_b):
        assert masks.reshape(len(masks), -1).sum(axis=1).min() > 0


def test_mean_coverage_stays_in_configured_range():
    lo, hi = 0.2, 0.45
    spec = UnpairedDatasetSpec(train_samples=100, test_samples=0,
                               coverage=(lo, hi), seed=3)
    ds = gen_unpaired(spec)
    for masks in (ds.mask_train_a, ds.mask_train_b):
        mean_cov = masks.mean()
        assert lo - 0.05 <= mean_cov <= hi + 0.05


def test_stripe_orientation_differs_between_domains():
    spec = UnpairedDatasetSpec(train_samples=6, test_samples=0, noise=0.0, seed=5)
    ds = gen_unpaired(spec)

    def row_col_variation(img, mask):
        g = img[..., 1].astype(float)
        rows = [g[r][mask[r] > 0] for r in range(img.shape[0])]
        cols = [g[:, c][mask[:, c] > 0] for c in range(img.shape[1])]
        rv = np.mean([v.var() for v in rows if v.size > 1])
        cv = np.mean([v.var() for v in cols if v.size > 1])
        return rv, cv

    for i in range(len(ds.train_a)):
        # horizontal stripes: constant along rows, varying along columns
        rv, cv = row_col_variation(ds.train_a[i], ds.mask_train_a[i])
        assert rv < 1e-9 and cv > 1.0
        rv, cv = row_col_variation(ds.train_b[i], ds.mask_train_b[i])
        assert cv < 1e-9 and rv > 1.0


def test_unpaired_spec_validation():
    with pytest.raises(ValueError):
        UnpairedDatasetSpec(resolution=4)
    with pytest.raises(ValueError):
        UnpairedDatasetSpec(train_samples=0)
    with pytest.raises(ValueError):
        UnpairedDatasetSpec(coverage=(0.5, 0.2))
    with pytest.raises(ValueError):
        UnpairedDatasetSpec(coverage=(0.2, 0.9))


def test_gen_paired_determinism_and_palette():
    spec = PairedDatasetSpec(resolution=64, train_samples=3, test_samples=2, seed=7)
    (train1, test1), (train2, _) = gen_paired(spec), gen_paired(spec)
    assert len(train1) == 3 and len(test1) == 2
    for s1, s2 in zip(train1, train2):
        assert np.array_equal(s1.label, s2.label)
        assert np.array_equal(s1.photo, s2.photo)
    for s in train1:
        assert s.label.shape == s.photo.shape[:2]
        assert s.label.max() < len(PALETTE)
        assert np.array_equal(s.mask, s.label)


def test_paired_photo_tracks_palette_colors():
    spec = PairedDatasetSpec(resolution=64, train_samples=2, test_samples=0,
                             noise=0.0, seed=1)
    train, _ = gen_paired(spec)
    for s in train:
        for cls in np.unique(s.label):
            sel = s.label == cls
            mean_color = s.photo[sel].mean(axis=0)
            # textures perturb but stay near the palette color
            assert np.linalg.norm(mean_color - PALETTE[cls]) < 40


# ---------------------------------------------------------------------------
# codecs


def test_ppm_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    img = rng.integers(0, 256, (5, 7, 3), dtype=np.uint8)
    p = tmp_path / "x.ppm"
    write_ppm(p, img)
    assert np.array_equal(read_ppm(p), img)
    assert np.array_equal(read_image(p), img)


def test_pgm_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    img = rng.integers(0, 256, (4, 6), dtype=np.uint8)
    p = tmp_path / "m.pgm"
    write_pgm(p, img)
    assert np.array_equal(read_pgm(p), img)


def test_header_comments_are_skipped(tmp_path):
    p = tmp_path / "c.pgm"
    p.write_bytes(b"P5\n# made by hand\n3 2\n255\n" + bytes(6))
    assert read_pgm(p).shape == (2, 3)


def test_truncated_payload_names_byte_counts(tmp_path):
    p = tmp_path / "t.ppm"
    write_ppm(p, np.zeros((4, 4, 3), dtype=np.uint8))
    p.write_bytes(p.read_bytes()[:-10])
    with pytest.raises(CodecError) as exc:
        read_ppm(p)
    assert "48" in str(exc.value) and "38" in str(exc.value)


def test_bad_magic_and_maxval_rejected(tmp_path):
    p = tmp_path / "bad.ppm"
    p.write_bytes(b"P3\n1 1\n255\n0 0 0\n")
    with pytest.raises(CodecError):
        read_image(p)
    p.write_bytes(b"P5\n1 1\n65535\n\0\0")
    with pytest.raises(CodecError):
        read_pgm(p)


def test_wrong_format_for_reader(tmp_path):
    p = tmp_path / "m.pgm"
    write_pgm(p, np.zeros((2, 2), dtype=np.uint8))
    with pytest.raises(CodecError):
        read_ppm(p)


def test_tensor_mapping_endpoints():
    img = np.array([[[0, 127, 255]]], dtype=np.uint8).reshape(1, 1, 3)
    t = image_to_tensor(img)
    assert t.shape == (1, 3, 1, 1)
    assert t[0, 0, 0, 0] == pytest.approx(-1.0)
    assert t[0, 2, 0, 0] == pytest.approx(1.0)


def test_tensor_round_trip_is_lossless():
    rng = np.random.default_rng(2)
    img = rng.integers(0, 256, (8, 8, 3), dtype=np.uint8)
    assert np.array_equal(tensor_to_image(image_to_tensor(img)), img)


def test_tensor_to_image_clips_out_of_range():
    t = np.array([2.0, -2.0, 0.0] * 1, dtype=np.float32).reshape(1, 3, 1, 1)
    img = tensor_to_image(t)
    assert img[0, 0, 0] == 255 and img[0, 0, 1] == 0


# ---------------------------------------------------------------------------
# dataset directories


def test_unpaired_save_load_round_trip(tmp_path):
    spec = UnpairedDatasetSpec(train_samples=3, test_samples=2, seed=9)
    ds = gen_unpaired(spec)
    save_unpaired(tmp_path / "d", spec, ds)
    spec2, ds2 = load_unpaired(tmp_path / "d")
    assert spec2 == spec
    assert np.array_equal(ds2.train_a, ds.train_a)
    assert np.array_equal(ds2.test_b, ds.test_b)
    assert np.array_equal(ds2.mask_train_b, ds.mask_train_b)


def test_paired_save_load_round_trip(tmp_path):
    spec = PairedDatasetSpec(resolution=48, train_samples=2, test_samples=1,
                             seed=4)
    train, test = gen_paired(spec)
    save_paired(tmp_path / "p", spec, train, test)
    spec2, train2, test2 = load_paired(tmp_path / "p")
    assert spec2 == spec
    assert len(train2) == 2 and len(test2) == 1
    for a, b in zip(train + test, train2 + test2):
        assert np.array_equal(a.label, b.label)
        assert np.array_equal(a.photo, b.photo)


def test_load_rejects_wrong_manifest_kind(tmp_path):
    spec = PairedDatasetSpec(resolution=48, train_samples=1, test_samples=0)
    train, test = gen_paired(spec)
    save_paired(tmp_path / "p", spec, train, test)
    with pytest.raises(ValueError):
        load_unpaired(tmp_path / "p")


@pytest.mark.parametrize("loader,kind", [(load_unpaired, "unpaired"),
                                         (load_paired, "paired")])
def test_manifest_missing_a_key_is_a_codec_error(tmp_path, loader, kind):
    (tmp_path / "manifest.txt").write_text(f"kind={kind}\n")
    with pytest.raises(CodecError, match="resolution"):
        loader(tmp_path)


@pytest.mark.parametrize("loader,kind", [(load_unpaired, "unpaired"),
                                         (load_paired, "paired")])
def test_manifest_non_numeric_value_is_a_codec_error(tmp_path, loader, kind):
    (tmp_path / "manifest.txt").write_text(f"kind={kind}\nresolution=big\n")
    with pytest.raises(CodecError, match="resolution"):
        loader(tmp_path)


@pytest.mark.parametrize("loader,kind", [(load_unpaired, "unpaired"),
                                         (load_paired, "paired")])
@pytest.mark.parametrize("fault", [b"\xff\xfe", b"resolutionX48", b"resolution=48"],
                         ids=["non_utf8", "line_without_equals", "repeated_key"])
def test_malformed_manifest_is_a_codec_error(tmp_path, loader, kind, fault):
    text = b"kind=%s\nresolution=48\n" % kind.encode()
    (tmp_path / "manifest.txt").write_bytes(text + fault + b"\n")
    with pytest.raises(CodecError, match="manifest"):
        loader(tmp_path)
