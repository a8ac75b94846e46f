#!/usr/bin/env python3
"""Record the step-1 loss terms that the benchmark's output check compares to.

Run from the repository root:

    python3 perfbench/record_reference.py [--seeds 0-15] [--workload NAME ...]

For each workload and seed it builds one set-up, runs the first distillation
step and stores its loss terms in ``perfbench/reference.json``, merged with
what is already there. Re-record only when a change is meant to alter the
step's results, and say so where the change is described.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

from run import OUT_DIR, ROOT, WORKLOAD_NAMES, pin_blas_threads


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=parse_seeds, default=parse_seeds("0-15"))
    p.add_argument("--workload", nargs="*", choices=WORKLOAD_NAMES,
                   default=list(WORKLOAD_NAMES))
    args = p.parse_args(argv)
    pin_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    import checks
    import workloads as W

    refs = (checks.load_references() if checks.REFERENCE_PATH.is_file()
            else {})
    OUT_DIR.mkdir(exist_ok=True)
    for name in args.workload:
        for seed in args.seeds:
            workdir = tempfile.mkdtemp(prefix="reference-", dir=OUT_DIR)
            try:
                s = W.setup(W.WORKLOADS[name], seed, Path(workdir))
                terms = W.run_step(s, 0).terms
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            problems = checks.check_terms(terms, s.cfg)
            if problems:
                print(f"{name} seed {seed}: {problems}", file=sys.stderr)
                return 1
            refs.setdefault(name, {})[str(seed)] = terms
            print(f"{name} seed {seed}: total {terms['total']!r}")
    checks.REFERENCE_PATH.write_text(json.dumps(refs, indent=1, sort_keys=True)
                                     + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
