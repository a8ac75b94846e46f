"""The output check accepts this code's results and rejects wrong ones."""

import math

import numpy as np
import pytest

import checks
from srdistill.losses import DistillConfig


def _reference():
    return dict(checks.load_references()["cycle64"]["0"])


def test_recorded_reference_is_self_consistent():
    refs = checks.load_references()
    assert {"cycle64", "paired64_p4096", "paired256"} <= set(refs)
    cfg = DistillConfig()
    for seeds in refs.values():
        assert "0" in seeds
        for terms in seeds.values():
            assert checks.check_terms(terms, cfg) == []


def test_missing_reference_file_is_an_error(tmp_path):
    with pytest.raises(FileNotFoundError):
        checks.load_references(tmp_path / "reference.json")


def test_reference_match_and_tolerance():
    ref = _reference()
    assert checks.check_reference(dict(ref), ref) == []
    nudged = {k: v * (1 + 1e-5) for k, v in ref.items()}
    assert checks.check_reference(nudged, ref) == []


def test_perturbed_reference_is_rejected():
    ref = _reference()
    perturbed = dict(ref, sp_a=ref["sp_a"] * 1.01)
    problems = checks.check_reference(_reference(), perturbed)
    assert len(problems) == 1 and "sp_a" in problems[0]
    assert checks.check_reference({"total": ref["total"]}, ref)


def test_nan_loss_is_rejected():
    terms = dict(_reference(), gan_a=math.nan)
    problems = checks.check_terms(terms, DistillConfig())
    assert problems and "gan_a" in problems[0]


def test_total_must_be_the_weighted_sum():
    terms = _reference()
    assert checks.check_terms(terms, DistillConfig()) == []
    terms["total"] += 0.1
    assert checks.check_terms(terms, DistillConfig())


def test_eval_check():
    img = np.zeros((8, 8, 3), np.uint8)
    good = np.zeros((1, 3, 8, 8), np.float32)
    assert checks.check_eval(good, img, img) is None
    assert checks.check_eval(good + np.float32(1.5), img, img)
    bad = good.copy()
    bad[0, 0, 0, 0] = np.nan
    assert checks.check_eval(bad, img, img)
    assert checks.check_eval(good, img[:4], img)
