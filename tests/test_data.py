"""Dataset generator and codec tests."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srdistill.config import format_config
from srdistill.data import (
    PALETTE,
    CodecError,
    PairedDatasetSpec,
    PairedSample,
    UnpairedDatasetSpec,
    gen_paired,
    gen_unpaired,
    image_to_tensor,
    load_paired,
    load_unpaired,
    read_image,
    save_paired,
    save_unpaired,
    tensor_to_image,
    write_image,
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
                               coverage_lo=lo, coverage_hi=hi, seed=3)
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
        UnpairedDatasetSpec(coverage_lo=0.5, coverage_hi=0.2)
    with pytest.raises(ValueError):
        UnpairedDatasetSpec(coverage_lo=0.2, coverage_hi=0.9)


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
    write_image(p, img)
    assert np.array_equal(read_image(p), img)


def test_pgm_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    img = rng.integers(0, 256, (4, 6), dtype=np.uint8)
    p = tmp_path / "m.pgm"
    write_image(p, img)
    assert np.array_equal(read_image(p), img)


def test_header_comments_are_skipped(tmp_path):
    p = tmp_path / "c.pgm"
    p.write_bytes(b"P5\n# made by hand\n3 2\n255\n" + bytes(6))
    assert read_image(p).shape == (2, 3)


# the six ASCII whitespace bytes, and comments of any bytes up to a newline
_WS = st.sampled_from([b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c"])
_COMMENT = st.binary(max_size=6).map(lambda c: b"#" + c.replace(b"\n", b"") + b"\n")
_RUN = st.lists(_WS | _COMMENT, max_size=3).map(b"".join)


@given(magic=st.sampled_from([b"P5", b"P6"]), h=st.integers(1, 4), w=st.integers(1, 4),
       after_magic=st.lists(_WS | _COMMENT, min_size=1, max_size=4).map(b"".join),
       # a token runs to the next whitespace, so the run after one opens with it
       after_w=st.tuples(_WS, _RUN).map(b"".join),
       after_h=st.tuples(_WS, _RUN).map(b"".join), last=_WS, data=st.data())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_header_fields_between_whitespace_and_comments_read_back(
        tmp_path_factory, magic, h, w, after_magic, after_w, after_h, last, data):
    shape = (h, w, 3) if magic == b"P6" else (h, w)
    pixels = data.draw(st.binary(min_size=math.prod(shape), max_size=math.prod(shape)))
    p = tmp_path_factory.getbasetemp() / "grammar.pnm"
    p.write_bytes(magic + after_magic + b"%d" % w + after_w + b"%d" % h + after_h
                  + b"255" + last + pixels)
    img = read_image(p)
    assert img.shape == shape
    assert img.tobytes() == pixels


@pytest.mark.parametrize("raw", [
    b"P52 3\n255\n" + bytes(6),  # netpbm puts whitespace or a comment after the magic
    b"P5 0 3 255",  # and one whitespace byte after maxval, even before no pixels
], ids=["magic_run_into_width", "no_byte_after_maxval"])
def test_header_without_its_separators_is_a_truncated_header(tmp_path, raw):
    p = tmp_path / "x.pgm"
    p.write_bytes(raw)
    with pytest.raises(CodecError, match="truncated header"):
        read_image(p)


def test_truncated_payload_names_byte_counts(tmp_path):
    p = tmp_path / "t.ppm"
    write_image(p, np.zeros((4, 4, 3), dtype=np.uint8))
    p.write_bytes(p.read_bytes()[:-10])
    with pytest.raises(CodecError) as exc:
        read_image(p)
    assert "48" in str(exc.value) and "38" in str(exc.value)


def test_bad_magic_and_maxval_rejected(tmp_path):
    p = tmp_path / "bad.ppm"
    p.write_bytes(b"P3\n1 1\n255\n0 0 0\n")
    with pytest.raises(CodecError):
        read_image(p)
    p.write_bytes(b"P5\n1 1\n65535\n\0\0")
    with pytest.raises(CodecError):
        read_image(p)


@pytest.mark.parametrize("magic, fields, nbytes, name", [
    (b"P6", b"-2 -3", 18, "width"),
    (b"P5", b"-4 -1", 4, "width"),
    (b"P6", b"+4 4", 48, "width"),
    (b"P6", b"1_0 1", 30, "width"),
    (b"P5", b"4 -4", 16, "height"),
    (b"P5", b"1 1\n+255", 1, "maxval"),
], ids=["minus_ppm", "minus_pgm", "plus", "underscore", "minus_height", "plus_maxval"])
def test_header_fields_are_plain_decimal_digits(tmp_path, magic, fields, nbytes, name):
    p = tmp_path / "h.pnm"
    maxval = b"" if b"\n" in fields else b"\n255"
    p.write_bytes(magic + b"\n" + fields + maxval + b"\n" + bytes(nbytes))
    with pytest.raises(CodecError, match=name):
        read_image(p)


def test_header_number_too_long_for_int_is_a_codec_error(tmp_path):
    p = tmp_path / "long.pgm"
    p.write_bytes(b"P5\n" + b"9" * 5000 + b" 1\n255\n" + bytes(4))
    with pytest.raises(CodecError, match="digits"):
        read_image(p)


@pytest.mark.parametrize("as_directory", [False, True], ids=["missing", "a_directory"])
def test_read_image_of_a_path_that_is_not_a_file_is_a_codec_error(tmp_path, as_directory):
    p = tmp_path / "x.ppm"
    if as_directory:
        p.mkdir()
    with pytest.raises(CodecError) as exc:
        read_image(p)
    assert str(p) in str(exc.value)


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


def test_unpaired_save_over_a_larger_dataset_reads_back_what_was_saved(tmp_path):
    big = UnpairedDatasetSpec(train_samples=3, test_samples=2, seed=1)
    save_unpaired(tmp_path, big, gen_unpaired(big))
    small = UnpairedDatasetSpec(train_samples=2, test_samples=1, seed=2)
    ds = gen_unpaired(small)
    save_unpaired(tmp_path, small, ds)
    assert sorted(p.name for p in (tmp_path / "trainA").iterdir()) == [
        "0000.ppm", "0000_mask.pgm", "0001.ppm", "0001_mask.pgm"]
    spec2, ds2 = load_unpaired(tmp_path)
    assert spec2 == small
    for field in ("train_a", "mask_train_a", "train_b", "test_a", "mask_test_b"):
        assert np.array_equal(getattr(ds2, field), getattr(ds, field)), field


def test_paired_save_over_a_larger_dataset_reads_back_what_was_saved(tmp_path):
    big = PairedDatasetSpec(resolution=48, train_samples=3, test_samples=2, seed=1)
    save_paired(tmp_path, big, *gen_paired(big))
    small = PairedDatasetSpec(resolution=48, train_samples=2, test_samples=1, seed=2)
    train, test = gen_paired(small)
    save_paired(tmp_path, small, train, test)
    assert sorted(p.name for p in (tmp_path / "test").iterdir()) == [
        "0000_label.pgm", "0000_photo.ppm"]
    spec2, train2, test2 = load_paired(tmp_path)
    assert spec2 == small and len(train2) == 2 and len(test2) == 1
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


@pytest.mark.parametrize("key, value", [("coverage_lo", "0.9"), ("stripe_period", "1")])
def test_unpaired_manifest_the_spec_rejects_is_a_codec_error(tmp_path, key, value):
    spec = UnpairedDatasetSpec(train_samples=1, test_samples=0)
    save_unpaired(tmp_path, spec, gen_unpaired(spec))
    (tmp_path / "manifest.txt").write_text(format_config({**spec.manifest(), key: value}))
    with pytest.raises(CodecError, match="manifest"):
        load_unpaired(tmp_path)


def test_paired_manifest_the_spec_rejects_is_a_codec_error(tmp_path):
    spec = PairedDatasetSpec(resolution=32, train_samples=1, test_samples=0)
    save_paired(tmp_path, spec, *gen_paired(spec))
    (tmp_path / "manifest.txt").write_text(format_config({**spec.manifest(), "noise": "-0.5"}))
    with pytest.raises(CodecError, match="noise"):
        load_paired(tmp_path)


def test_unpaired_without_test_samples_round_trips(tmp_path):
    spec = UnpairedDatasetSpec(train_samples=1, test_samples=0)
    save_unpaired(tmp_path, spec, gen_unpaired(spec))
    _, ds = load_unpaired(tmp_path)
    assert ds.test_a.shape == (0, 32, 32, 3) and ds.mask_test_b.shape == (0, 32, 32)


@pytest.mark.parametrize("fault, culprit", [
    ("empty_domain", "testA"),
    ("small_image", "0001.ppm"),
    ("small_mask", "0001_mask.pgm"),
    ("gray_image", "0001.ppm"),
])
def test_malformed_unpaired_domain_is_a_codec_error(tmp_path, fault, culprit):
    spec = UnpairedDatasetSpec(train_samples=2, test_samples=1)
    save_unpaired(tmp_path, spec, gen_unpaired(spec))
    if fault == "empty_domain":
        for f in (tmp_path / "testA").iterdir():
            f.unlink()
    elif fault == "small_image":
        write_image(tmp_path / "trainA" / culprit, np.zeros((16, 16, 3), np.uint8))
    elif fault == "gray_image":  # a PGM where a PPM belongs, at the manifest's size
        write_image(tmp_path / "trainA" / culprit, np.zeros((32, 32), np.uint8))
    else:
        write_image(tmp_path / "trainB" / culprit, np.zeros((16, 16), np.uint8))
    with pytest.raises(CodecError, match=culprit):
        load_unpaired(tmp_path)


@pytest.mark.parametrize("image, culprit", [
    (np.full((32, 32), 250, np.uint8), "0000_label.pgm"),
    (np.zeros((16, 16), np.uint8), "0000_label.pgm"),
    (np.zeros((16, 16, 3), np.uint8), "0000_label.pgm"),
    (None, "train"),
], ids=["class_outside_palette", "small_label", "small_photo", "missing_sample"])
def test_malformed_paired_sample_is_a_codec_error(tmp_path, image, culprit):
    spec = PairedDatasetSpec(resolution=32, train_samples=1, test_samples=0)
    train, test = gen_paired(spec)
    save_paired(tmp_path, spec, train, test)
    if image is None:
        (tmp_path / "train" / "0000_label.pgm").unlink()
    elif image.ndim == 3:
        write_image(tmp_path / "train" / "0000_photo.ppm", image)
    else:
        write_image(tmp_path / "train" / "0000_label.pgm", image)
    with pytest.raises(CodecError, match=culprit):
        load_paired(tmp_path)


@pytest.mark.parametrize("as_directory", [False, True], ids=["deleted", "a_directory"])
@pytest.mark.parametrize("regime, first, missing", [
    ("unpaired", "trainB/0001.ppm", "trainB/0001_mask.pgm"),
    ("paired", "train/0001_label.pgm", "train/0001_photo.ppm"),
], ids=["unpaired", "paired"])
def test_missing_second_file_of_a_sample_is_a_codec_error(tmp_path, regime, first, missing,
                                                         as_directory):
    if regime == "unpaired":
        spec = UnpairedDatasetSpec(train_samples=2, test_samples=1)
        save_unpaired(tmp_path, spec, gen_unpaired(spec))
    else:
        spec = PairedDatasetSpec(resolution=32, train_samples=2, test_samples=1)
        save_paired(tmp_path, spec, *gen_paired(spec))
    (tmp_path / missing).unlink()
    if as_directory:
        (tmp_path / missing).mkdir()
    with pytest.raises(CodecError) as exc:
        (load_unpaired if regime == "unpaired" else load_paired)(tmp_path)
    assert str(tmp_path / first) in str(exc.value)
    assert str(tmp_path / missing) in str(exc.value)


def test_undecodable_second_file_of_a_sample_names_the_sample(tmp_path):
    spec = UnpairedDatasetSpec(train_samples=2, test_samples=1)
    save_unpaired(tmp_path, spec, gen_unpaired(spec))
    mask = tmp_path / "trainB" / "0001_mask.pgm"
    mask.write_bytes(mask.read_bytes()[:-1])
    with pytest.raises(CodecError, match="payload") as exc:
        load_unpaired(tmp_path)
    assert str(tmp_path / "trainB" / "0001.ppm") in str(exc.value)
    assert str(mask) in str(exc.value)


def test_paired_label_and_photo_of_another_size_is_a_codec_error(tmp_path):
    # consistent with each other, but not with the manifest's resolution
    spec = PairedDatasetSpec(resolution=32, train_samples=1, test_samples=0)
    train, test = gen_paired(spec)
    save_paired(tmp_path, spec, train, test)
    write_image(tmp_path / "train" / "0000_label.pgm", np.zeros((40, 40), np.uint8))
    write_image(tmp_path / "train" / "0000_photo.ppm", np.zeros((40, 40, 3), np.uint8))
    with pytest.raises(CodecError, match="0000_label.pgm"):
        load_paired(tmp_path)


def test_unpaired_manifest_of_a_huge_resolution_is_a_codec_error(tmp_path):
    # the images are checked before a stack of the manifest's size is allocated
    spec = UnpairedDatasetSpec(train_samples=1, test_samples=0)
    save_unpaired(tmp_path, spec, gen_unpaired(spec))
    (tmp_path / "manifest.txt").write_text(
        format_config({**spec.manifest(), "resolution": "1000000"}))
    with pytest.raises(CodecError, match="0000.ppm"):
        load_unpaired(tmp_path)


@pytest.mark.parametrize("cls", [UnpairedDatasetSpec, PairedDatasetSpec])
def test_dataset_spec_rejects_a_negative_seed(cls):
    with pytest.raises(ValueError, match="seed"):
        cls(seed=-1)


@pytest.mark.parametrize("noise", [float("nan"), float("inf"), -0.5])
@pytest.mark.parametrize("cls", [UnpairedDatasetSpec, PairedDatasetSpec])
def test_dataset_spec_rejects_noise_that_is_not_finite_and_at_least_zero(cls, noise):
    with pytest.raises(ValueError, match="noise"):
        cls(noise=noise)


@pytest.mark.parametrize("value", [2, 7, 255])
def test_unpaired_mask_value_above_one_is_a_codec_error(tmp_path, value):
    spec = UnpairedDatasetSpec(resolution=16, train_samples=1, test_samples=0)
    save_unpaired(tmp_path, spec, gen_unpaired(spec))
    write_image(tmp_path / "trainA" / "0000_mask.pgm", np.full((16, 16), value, np.uint8))
    with pytest.raises(CodecError, match="trainA/0000_mask.pgm"):
        load_unpaired(tmp_path)


@pytest.mark.parametrize("img", [
    np.array([[300, -1], [2.7, 255]]),
    np.array([[1, 2]], dtype=np.int64),
    np.zeros((2, 2, 3), dtype=np.float32),
    np.zeros((2, 2, 3), dtype=np.uint16),
], ids=["pgm_float", "pgm_int64", "ppm_float32", "ppm_uint16"])
def test_netpbm_writers_reject_values_that_are_not_uint8(tmp_path, img):
    p = tmp_path / "x.pnm"
    with pytest.raises(CodecError, match="uint8"):
        write_image(p, img)
    assert not p.exists()


_LABEL = np.zeros((4, 4), dtype=np.uint8)
_PHOTO = np.zeros((4, 4, 3), dtype=np.uint8)


@pytest.mark.parametrize("call, error, fragment", [
    (lambda p: PairedSample(_LABEL, _PHOTO[:2]), ValueError,
     "resolution mismatch"),
    (lambda p: PairedSample(_LABEL + len(PALETTE), _PHOTO), ValueError,
     "outside the palette"),
    (lambda p: write_image(p, np.zeros((4, 4, 4), dtype=np.uint8)), CodecError,
     "netpbm wants (H, W) or (H, W, 3)"),
    (lambda p: image_to_tensor(_LABEL), ValueError, "expected (H, W, 3) image"),
    (lambda p: tensor_to_image(np.zeros((2, 3, 4, 4))), ValueError, "expected batch 1"),
    (lambda p: tensor_to_image(np.zeros((1, 4, 4, 4))), ValueError,
     "expected (3, H, W) tensor"),
    (lambda p: tensor_to_image(np.full((1, 3, 4, 4), np.nan, dtype=np.float32)),
     ValueError, "expected finite values"),
    (lambda p: tensor_to_image(np.full((3, 4, 4), -np.inf)), ValueError,
     "expected finite values"),
], ids=["paired_resolution", "paired_palette", "netpbm_shape",
        "image_to_tensor_shape", "tensor_to_image_batch", "tensor_to_image_shape",
        "tensor_to_image_nan", "tensor_to_image_inf"])
def test_input_checks_raise(tmp_path, call, error, fragment):
    with pytest.raises(error, match=re.escape(fragment)):
        call(tmp_path / "img")
