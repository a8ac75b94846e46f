"""Golden dataset bytes: the generators' output for fixed specs, pinned by digest.

The step-1 values in ``perfbench/reference.json`` depend on these bytes, so a
renderer change that alters a single pixel, or an RNG draw's order, fails here.
The files ``save_unpaired`` and ``save_paired`` write, which perfbench's set-up
writes and reads back, are pinned the same way: names, headers, pixels and
manifest.
"""

import hashlib

import numpy as np
import pytest

from srdistill.data import (
    PairedDatasetSpec,
    UnpairedDatasetSpec,
    gen_paired,
    gen_unpaired,
    save_paired,
    save_unpaired,
)


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        h.update(f"{arr.dtype.str}{arr.shape}".encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def _paired_arrays(spec):
    train, test = gen_paired(spec)
    for s in train + test:
        # the label twice: the pinned digests cover it as the sample's class mask too
        yield from (s.label, s.photo, s.label)


def _unpaired_arrays(spec):
    ds = gen_unpaired(spec)
    for field in ("train_a", "train_b", "test_a", "test_b"):
        yield getattr(ds, field)
        yield getattr(ds, "mask_" + field)


GOLDEN = [
    (PairedDatasetSpec(resolution=32, train_samples=3, test_samples=2, seed=0),
     "5656b505b22116516bc9a6256303033b8e880b0eb09a99fcd60ce06e4cc936fb"),
    (PairedDatasetSpec(resolution=64, train_samples=3, test_samples=1, noise=0.0, seed=5),
     "ef955aa3a0c639f34266d1cae03634b36cd6a6e4d120000931b8a4f4a1eb759f"),
    (PairedDatasetSpec(resolution=256, train_samples=2, test_samples=1, seed=3),
     "f72958ef3be327dde6ffe559d8ae1be34acb9f3061aa3b613aa2b56badcf883f"),
    (UnpairedDatasetSpec(resolution=32, train_samples=3, test_samples=2, seed=0),
     "0d5f4736968ea558c8befec0469039bbbc47a6d6b00162fe5e88206bb76f103d"),
    (UnpairedDatasetSpec(resolution=64, train_samples=2, test_samples=1, seed=4),
     "7dd96a32eed53c8c0c2244fa5b140af4bc760aed160da0827c32296b62f5d07a"),
]


@pytest.mark.parametrize("spec, digest", GOLDEN,
                         ids=["paired32", "paired64", "paired256",
                              "unpaired32", "unpaired64"])
def test_generated_dataset_bytes_are_pinned(spec, digest):
    arrays = (_paired_arrays if isinstance(spec, PairedDatasetSpec) else _unpaired_arrays)(spec)
    assert _digest(arrays) == digest


def _directory_digest(root) -> str:
    """sha256 over each file's path relative to `root` and its bytes, in
    sorted path order."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        data = path.read_bytes()
        h.update(b"%d\0" % len(data) + data)
    return h.hexdigest()


@pytest.mark.parametrize("spec, digest", [
    (UnpairedDatasetSpec(resolution=32, train_samples=3, test_samples=2, seed=0),
     "8b1fcbbb033b0f9e03e9dbc39507065b131d583bf9efafef6472b8b9c1dd145b"),
    (PairedDatasetSpec(resolution=64, train_samples=3, test_samples=2, seed=1),
     "32497ef4c5b0035493ab805abc203567dc812511bf1e070cdbe21a8ef91f09b2"),
], ids=["unpaired32", "paired64"])
def test_saved_dataset_directory_bytes_are_pinned(tmp_path, spec, digest):
    if isinstance(spec, PairedDatasetSpec):
        save_paired(tmp_path, spec, *gen_paired(spec))
    else:
        save_unpaired(tmp_path, spec, gen_unpaired(spec))
    assert _directory_digest(tmp_path) == digest
