"""Regenerate series_small.csv and print how far each column moved.

    python3 tests/golden/regenerate.py

Run from anywhere in a checkout; it puts ``src/`` on the path itself.  The
fresh series comes from ``diffwave.verify.small_series``, the same run the
golden test and P9 serialize.  For every column the script prints the
largest relative change against the committed file, then replaces the
file.  Review that table (and ``git diff``) before committing.
"""

from __future__ import annotations

import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, os.pardir, os.pardir, "src"))

from diffwave.output import SERIES_COLUMNS, read_series_csv, write_series_csv  # noqa: E402
from diffwave.verify import small_series  # noqa: E402

GOLDEN = os.path.join(HERE, "series_small.csv")


def max_relative_change(old, new) -> float:
    """max |new - old| / |old| over the rows; a change from 0 counts as inf."""
    diff = np.abs(new - old)
    scale = np.abs(old)
    rel = np.divide(diff, scale, out=np.where(diff > 0.0, np.inf, 0.0), where=scale > 0.0)
    return float(rel.max(initial=0.0))


def main() -> int:
    old = read_series_csv(GOLDEN)
    write_series_csv(GOLDEN, small_series())
    new = read_series_csv(GOLDEN)
    if len(old["t"]) != len(new["t"]):
        print(f"row count changed: {len(old['t'])} -> {len(new['t'])}")
        return 0
    print(f"{'column':14s} max relative change")
    for name in SERIES_COLUMNS:
        print(f"{name:14s} {max_relative_change(old[name], new[name]):.3e}")
    print(f"wrote {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
