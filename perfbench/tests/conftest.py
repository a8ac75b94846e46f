"""Make the benchmark modules and the in-tree srdistill importable.

Run from the repository root: ``python3 -m pytest perfbench/tests``.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]
