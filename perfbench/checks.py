"""Output checks for the distillation-step benchmark.

Three kinds of check, all cheap enough to run on every step:

* every loss term is finite and non-negative, and the objective's total
  equals its documented weighted sum of terms;
* on a seed with a recorded reference, the step-1 values (loss terms, the
  D loss and each trained model's gradient norm) match that reference
  within ``RTOL`` (float32; loose enough for reordered sums, blocked
  similarity or another conv algorithm, tight enough to catch a changed
  objective or a wrong gradient);
* every eval output is finite, lies in [-1, 1] and maps to an image of the
  input's shape.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

RTOL = 1e-3
ATOL = 1e-6
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


def load_references(path: Path = REFERENCE_PATH) -> dict:
    """{workload: {seed (str): {term: value}}}; raises when the file is missing."""
    return json.loads(path.read_text())


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= ATOL + RTOL * abs(want)


def expected_total(terms: dict[str, float], cfg) -> float:
    """The objective's total recomputed from its named terms."""
    a, w = cfg.alpha, cfg.cycle_weight
    if "gan_a" in terms:
        return (terms["gan_a"] + terms["gan_b"]
                + cfg.gamma_a * terms["sp_a"] + cfg.gamma_b * terms["sp_b"]
                + w * (a * terms["cyc_gt"] + (1.0 - a) * terms["cyc_kd"]))
    return (terms["gan"] + cfg.gamma_a * terms["sp"]
            + w * (a * terms["l1_gt"] + (1.0 - a) * terms["l1_kd"]))


def check_terms(terms: dict[str, float], cfg) -> list[str]:
    """Problems with one step's loss terms; empty when they are sound."""
    bad = [k for k, v in terms.items() if not math.isfinite(v)]
    if bad:
        return [f"non-finite loss terms: {', '.join(sorted(bad))}"]
    problems = [f"negative loss term {k} = {v!r}"
                for k, v in terms.items() if v < 0.0]
    want = expected_total(terms, cfg)
    if not _close(terms["total"], want):
        problems.append(f"total {terms['total']!r} is not the weighted sum "
                        f"of its terms ({want!r})")
    return problems


def check_reference(terms: dict[str, float], reference: dict[str, float]
                    ) -> list[str]:
    """Problems comparing step-1 terms against a recorded reference."""
    if set(terms) != set(reference):
        return [f"step-1 terms {sorted(terms)} differ from the reference's "
                f"{sorted(reference)}"]
    return [f"step-1 {k} = {terms[k]!r}, reference {reference[k]!r} "
            f"(rtol {RTOL})"
            for k in sorted(reference) if not _close(terms[k], reference[k])]


def check_eval(output: np.ndarray, image: np.ndarray, source: np.ndarray
               ) -> str | None:
    """A problem with one translated test image, or None."""
    if not np.isfinite(output).all():
        return "eval output has non-finite values"
    if output.min() < -1.0 or output.max() > 1.0:
        return (f"eval output leaves [-1, 1]: "
                f"[{output.min()!r}, {output.max()!r}]")
    if image.shape != source.shape or image.dtype != np.uint8:
        return f"eval image {image.shape} {image.dtype} vs input {source.shape}"
    return None
