#!/usr/bin/env python3
"""Distillation-step benchmark for srdistill.

Run from the repository root, one workload per process:

    python3 perfbench/run.py --workload cycle64 --seed 0 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones (step_s, infer_s, peak_rss_mb, setup_s);
with ``--trace 1`` they are the per-layer ones. Earlier lines hold a
readable table and the run metadata. Scratch files, a run record and the
Chrome trace go under ``.perfbench_out/`` in the repository root.

The benchmark imports ``srdistill`` from ``src/`` next to this directory and
exits with status 2, printing no result, when that is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
# the keys of workloads.WORKLOADS, which cannot be imported before the BLAS
# thread count is pinned
WORKLOAD_NAMES = ("cycle64", "paired64_p4096", "paired256")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


def pin_blas_threads() -> int:
    """Cap BLAS threads at the CPUs this process may use; returns that count.

    Must run before numpy is imported.
    """
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= nproc:
            os.environ[var] = str(nproc)
    return nproc


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0,
                   help="time budget for the timed steps and eval passes")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    nproc = pin_blas_threads()
    src = ROOT / "src"
    if not (src / "srdistill" / "__init__.py").is_file():
        print(f"error: no srdistill package under {src}; run the benchmark "
              f"from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(HERE)]
    import runner
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = Path(tempfile.mkdtemp(prefix=stem + "-", dir=OUT_DIR))
    try:
        report = runner.run(workloads.WORKLOADS[args.workload], args.seed,
                            args.seconds, bool(args.trace), workdir,
                            OUT_DIR / f"{stem}.trace.json" if args.trace else None)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    meta = runner.metadata(ROOT, nproc)
    result = report.result_line()
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "meta": meta,
              "reference_checked": report.reference_checked,
              "problems": report.problems, **result}
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1))

    for problem in report.problems:
        print(f"problem: {problem}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"reference_checked={report.reference_checked}")
    print("# meta " + json.dumps(meta))
    for name, (value, unit) in report.metrics.items():
        print(f"{name:32s} {value:14.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
