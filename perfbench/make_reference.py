"""Record the display-grid reference rows: every pool cell's metric row.

    python3 perfbench/make_reference.py

Run from the root of a checkout; it takes a few minutes.  ``display-grid``
fails a cell whose ``accuracy`` or ``joint_accuracy`` differs from these
rows and counts cells whose credal fields differ.  Re-record only when a
change is meant to move those fields, and say so where the change is
described.  NaN (an empty determinate or indeterminate split) is stored
as null.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from csdd.experiment import Metrics, Scenario, run_cell  # noqa: E402

import display_grid  # noqa: E402


def main() -> int:
    rows = {}
    for p_f in display_grid.P_FS:
        for seed in range(display_grid.POOL):
            metrics = run_cell(Scenario(train_size=display_grid.TRAIN_SIZE, p_f=p_f, seed=seed))
            rows[display_grid.reference_key(p_f, seed)] = [
                None if math.isnan(v) else v for v in metrics.as_row()
            ]
        print(f"p_f={p_f}: {display_grid.POOL} cells", file=sys.stderr)
    write(rows)
    return 0


def write(rows: dict[str, list]) -> None:
    """One row per line, so a re-recording diffs cell by cell."""
    lines = [f"  {json.dumps(key)}: {json.dumps(row)}" for key, row in rows.items()]
    text = (f'{{\n "fields": {json.dumps(list(Metrics.FIELDS))},\n "rows": {{\n'
            + ",\n".join(lines) + "\n }\n}\n")
    display_grid.REFERENCE.write_text(text, encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
