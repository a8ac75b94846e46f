#!/usr/bin/env python3
"""Print a bitwise digest of perfbench's steps and eval pass, per workload.

    python tools/step_digest.py [TREE]

TREE is a checkout of the repository (default: the one holding this script);
its ``src`` and ``perfbench`` are imported. For each workload, in a fresh
temporary directory, the script runs ``setup``, three ``run_step`` calls and
one ``run_eval`` at seed 0, and prints one JSON line: every term of every
step as ``float.hex``, ``models.params_digest`` over the trained models, and
a sha256 over the eval outputs and images. Two trees compute the same
numbers when their outputs match under ``diff``.

Three steps amplify last-bit changes on every workload, so a change that
reorders float32 sums shows in the digest. On ``paired256``,
``tensor.BLOCK_ELEMS = 2**20 - 4096``, which moves where a conv's bands of
rows begin, alone moves the step-3 ``grad_student0`` from 88.763 to 91.542.
On ``cycle64``, regathering the flipped-kernel weight gradient at its
input's own pitch, which drops zeros from its sums, leaves the step-1 terms
within 1.1e-9 relative but the step-3 ``grad_student0`` 1.8e-3 apart. On
any workload such a change is checked by its step-1 terms, which must agree
within float32 rounding, and by perfbench's step-1 reference check, not by
``diff``.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

STEPS = 3
SEED = 0


def digest(workloads, models, name: str) -> dict:
    w = workloads.WORKLOADS[name]
    with tempfile.TemporaryDirectory() as tmp:
        s = workloads.setup(w, SEED, Path(tmp))
        steps = [{k: float(v).hex() for k, v in workloads.run_step(s, i).terms.items()}
                 for i in range(STEPS)]
        h = hashlib.sha256()
        for r in workloads.run_eval(s):
            h.update(r.output.tobytes())
            h.update(r.image.tobytes())
    params = [(f"{i}.{n}", t) for i, m in enumerate(s.trained)
              for n, t in m.named_params()]
    return {"workload": name, "steps": steps,
            "params": models.params_digest(params), "eval": h.hexdigest()}


def main(argv: list[str]) -> int:
    tree = Path(argv[0] if argv else Path(__file__).resolve().parent.parent).resolve()
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    import workloads
    from srdistill import models

    for name in workloads.WORKLOADS:
        print(json.dumps(digest(workloads, models, name)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
