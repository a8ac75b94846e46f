"""Dataset-directory fuzzing: a whole paired or unpaired dataset with one file
deleted, truncated or byte-flipped, or one manifest value replaced, reads back
as the original arrays or raises only CodecError."""

import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from srdistill.data import (
    PairedDatasetSpec,
    UnpairedDatasetSpec,
    gen_paired,
    gen_unpaired,
    load_paired,
    load_unpaired,
    save_paired,
    save_unpaired,
)
from srdistill.serialize import CodecError

# "P6\n32 32\n255\n" is 13 bytes; a flip past an image's header would only
# change a pixel, which no reader can tell from a real one, so flips in an
# image stay in its header. A manifest may be flipped anywhere.
_HEADER = 13
_VALUES = ["", "0", "1", "-1", "2", "3", "31", "33", "64", "0.5", "1e9", "1e400",
           "nan", "inf", "-inf", "abc", "0x20", " 32", "32 ", "٣٢",
           "paired", "unpaired", "9" * 40]

# (op, which file, offset, flip mask, manifest value); the file index is
# taken modulo the dataset's file count, the offset modulo the bytes an
# op may touch
_MUTATION = st.tuples(st.sampled_from(["delete", "truncate", "flip", "manifest"]),
                      st.integers(0, 2**16), st.integers(0, 2**16),
                      st.integers(1, 255), st.sampled_from(_VALUES))


def _arrays(regime, root):
    if regime == "unpaired":
        return list(vars(load_unpaired(root)[1]).values())
    _, train, test = load_paired(root)
    return [a for s in train + test for a in (s.label, s.photo)]


@pytest.fixture(scope="module")
def datasets(tmp_path_factory):
    """regime -> (directory of a valid 32 px dataset, its arrays)."""
    root = tmp_path_factory.mktemp("datasets")
    unpaired = UnpairedDatasetSpec(resolution=32, train_samples=2, test_samples=1)
    save_unpaired(root / "unpaired", unpaired, gen_unpaired(unpaired))
    paired = PairedDatasetSpec(resolution=32, train_samples=2, test_samples=1)
    save_paired(root / "paired", paired, *gen_paired(paired))
    return {r: (root / r, _arrays(r, root / r)) for r in ("unpaired", "paired")}


def _mutate(root: Path, mutation) -> None:
    op, which, at, mask, value = mutation
    files = sorted(p for p in root.rglob("*") if p.is_file())
    path = root / "manifest.txt" if op == "manifest" else files[which % len(files)]
    raw = path.read_bytes()
    if op == "delete":
        path.unlink()
    elif op == "truncate":
        path.write_bytes(raw[:at % (len(raw) + 1)])
    elif op == "flip":
        at %= len(raw) if path.name == "manifest.txt" else min(_HEADER, len(raw))
        path.write_bytes(raw[:at] + bytes([raw[at] ^ mask]) + raw[at + 1:])
    else:
        lines = raw.decode().splitlines()
        key = lines[which % len(lines)].split("=", 1)[0]
        lines[which % len(lines)] = f"{key}={value}"
        path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("regime", ["unpaired", "paired"])
@given(mutation=_MUTATION)
@example(mutation=("delete", 0, 0, 1, ""))  # file 0 is the manifest
@settings(max_examples=150, deadline=None, derandomize=True)
def test_mutated_dataset_reads_back_or_raises_only_codec_error(datasets, regime, mutation):
    source, original = datasets[regime]
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / regime
        shutil.copytree(source, root)
        _mutate(root, mutation)
        try:
            got = _arrays(regime, root)
        except CodecError:
            return
    assert len(got) == len(original)
    for a, b in zip(got, original):
        assert a.dtype == b.dtype and np.array_equal(a, b)
