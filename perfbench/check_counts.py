"""Run one workload traced twice with one seed and compare every count.

    python3 perfbench/check_counts.py --workload cli-queries --seed 1 --seconds 30

Run from the root of a checkout.  Per-layer metrics in units ``count``
and ``bytes`` are exact work counts; they must repeat exactly, or a
speed claim resting on them means nothing.  Exits 1 on any difference.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXACT_UNITS = ("count", "bytes")


def traced_counts(workload: str, seed: int, seconds: int) -> dict[str, float]:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    metrics = json.loads(done.stdout.splitlines()[-1])["metrics"]
    return {name: m["value"] for name, m in metrics.items() if m["unit"] in EXACT_UNITS}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    args = parser.parse_args()
    first = traced_counts(args.workload, args.seed, args.seconds)
    second = traced_counts(args.workload, args.seed, args.seconds)
    differ = sorted(name for name in first if first[name] != second.get(name))
    for name in differ:
        print(f"DIFFERS {name}: {first[name]} then {second.get(name)}")
    print(f"{args.workload} seed {args.seed}: {len(first) - len(differ)} of {len(first)} counts repeat exactly")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
