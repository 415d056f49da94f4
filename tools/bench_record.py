"""Record alternating parent/change benchmark pairs in one ``BENCH_*.json``.

    python3 tools/bench_record.py PARENT_RESULTS CHANGE_RESULTS -o BENCH_<n>.json

Each argument is the ``.bench_out/results`` directory that
``perfbench/run.py`` fills in a checkout: one checkout of the parent
commit, one of the change.  Run the untraced workloads in both, one seed
per pair and the two sides back to back, so that a pair runs the same
work at nearly the same time::

    for seed in 1 2 3 4 5; do
      for w in display-grid cli-queries build-pipeline; do
        (cd parent && python3 perfbench/run.py --workload $w --seed $seed --seconds 15 --trace 0)
        (cd change && python3 perfbench/run.py --workload $w --seed $seed --seconds 15 --trace 0)
      done
    done

A pair is the two ``--trace 0`` result files of one workload and seed.
The record holds each side's commit and source hash, the machine, the
seeds, and per workload the number of pairs, the run length, the failed
operations per side and, for each end-to-end metric of ``BENCHMARK.json``,
each side's values, median and interquartile range (inclusive quartiles)
and the number of pairs the change won, by the metric's direction.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def load(results: Path) -> dict[tuple[str, int], dict]:
    """The untraced result files under ``results`` by (workload, seed)."""
    runs = {}
    for path in sorted(Path(results).glob("*-trace0.json")):
        run = json.loads(path.read_text(encoding="utf-8"))
        runs[run["workload"], run["seed"]] = run
    return runs


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"values": values, "median": statistics.median(values), "iqr": q3 - q1}


def _one(values, what: str):
    """The one value that all of ``values`` share."""
    found = {json.dumps(value, sort_keys=True) for value in values}
    if len(found) != 1:
        raise ValueError(f"the runs disagree on {what}: {sorted(found)}")
    return json.loads(found.pop())


def record(parent: dict, change: dict, spec: dict) -> dict:
    """The BENCH record of the pairs that ``parent`` and ``change``, as
    :func:`load` gives them, share, under ``spec``, a parsed ``BENCHMARK.json``."""
    keys = sorted(parent.keys() & change.keys())
    if not keys:
        raise ValueError("no workload and seed ran on both sides")
    sides = dict(zip(SIDES, (parent, change)))
    every = [runs[key] for runs in sides.values() for key in keys]
    out = {
        "commit": {side: _one((runs[key]["source"]["git_commit"] for key in keys), f"the {side} commit")
                   for side, runs in sides.items()},
        "src_sha256": {side: _one((runs[key]["source"]["src_sha256"] for key in keys), f"the {side} source")
                       for side, runs in sides.items()},
        "machine": _one(({k: v for k, v in run["machine"].items() if k != "pinned_cpu"} for run in every),
                        "the machine"),
        "seeds": sorted({seed for _, seed in keys}),
        "workloads": {},
    }
    for name in sorted({workload for workload, _ in keys}):
        pairs = [key for key in keys if key[0] == name]
        runs = {side: [sides[side][key] for key in pairs] for side in SIDES}
        metrics = {}
        for metric in spec["end_to_end"]:
            values = {side: [run["metrics"][metric["name"]]["value"] for run in runs[side]] for side in SIDES}
            lower = metric["better"] == "lower"
            wins = sum(c < p if lower else c > p for p, c in zip(values["parent"], values["change"]))
            metrics[metric["name"]] = {"unit": metric["unit"], "better": metric["better"], "wins": wins,
                                       **{side: spread(values[side]) for side in SIDES}}
        out["workloads"][name] = {
            "pairs": len(pairs),
            "seeds": [seed for _, seed in pairs],
            "seconds": _one((run["seconds"] for side in SIDES for run in runs[side]), f"{name}'s run length"),
            "attempted": {side: sum(run["attempted"] for run in runs[side]) for side in SIDES},
            "failed": {side: sum(run["failed"] for run in runs[side]) for side in SIDES},
            "metrics": metrics,
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="the parent checkout's .bench_out/results")
    parser.add_argument("change", type=Path, help="the change checkout's .bench_out/results")
    parser.add_argument("-o", "--output", type=Path, required=True)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    try:
        out = record(load(args.parent), load(args.change), spec)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    args.output.write_text(json.dumps(out, indent=2) + "\n", encoding="utf-8")
    for name, workload in out["workloads"].items():
        for metric, item in workload["metrics"].items():
            print(f"{name:15s} {metric:12s} parent {item['parent']['median']:<12.6g} "
                  f"change {item['change']['median']:<12.6g} wins {item['wins']}/{workload['pairs']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
