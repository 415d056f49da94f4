"""Benchmark of the csdd package: one workload, one seed, one run.

    python3 perfbench/run.py --workload display-grid --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The package is imported from ``src/`` of
that checkout.  Human-readable lines come first; the last line of stdout
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics of ``BENCHMARK.json`` with
``--trace 0``, in reference seconds (see ``speed.py``), and its per-layer
metrics with ``--trace 1``.  A result file
with the machine, the run and every count is written to
``.bench_out/results/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from datetime import datetime, timezone
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
UNITS = {
    "setup_s": "s", "peak_rss_mb": "MB", "ops_per_s": "1/s", "op_s_p50": "s", "op_s_p90": "s",
    "compile_s": "s", "learn_s": "s", "io_s": "s",
}


def _import_package():
    """Import csdd from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "csdd" / "__init__.py").is_file():
        sys.exit(f"error: no csdd package under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import csdd

    if Path(csdd.__file__).resolve().parent != SRC / "csdd":
        sys.exit(f"error: imported csdd from {csdd.__file__}, not from {SRC}")


def _workloads():
    import build_pipeline
    import cli_queries
    import display_grid

    return {w.NAME: w for w in (display_grid, cli_queries, build_pipeline)}


def per_layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith(("_s", "_s_p50")):
        return "s"
    if name.endswith("_share"):
        return "ratio"
    if name.endswith(".bytes"):
        return "bytes"
    return "count"


def _machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
    }


def _source() -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    commit = None
    try:
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10, env=env)
        if done.returncode == 0:
            commit = done.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def _expected(trace: int) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_package()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import harness
    import speed

    workloads = _workloads()
    if args.workload not in workloads:
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(workloads)}")
    workload = workloads[args.workload]
    expected = _expected(args.trace)

    cpu = speed.pin_to_one_cpu()
    load_start = os.getloadavg()
    started = datetime.now(timezone.utc).isoformat(timespec="seconds")
    (OUT / "work").mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT / "work"))
    try:
        if args.trace:
            plain, traced, tracer = harness.run_traced(workload, args.seed, workdir, args.seconds)
            rounds = plain + traced
        else:
            rounds, setups, sampler = harness.run_untraced(workload, args.seed, workdir, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r.attempted for r in rounds)
    failures = [m for r in rounds for m in r.failures]
    named = {}
    if args.trace:
        values = harness.per_layer(plain, traced, tracer)
        units = {name: per_layer_unit(name) for name in values}
    else:
        values = harness.end_to_end(rounds, setups, sampler.reference)
        wall = harness.end_to_end(rounds, setups, sampler.wall)
        units = UNITS
        named = {alias: (values[key], UNITS[key]) for alias, key in workload.NAMED.items()}
        named["error_rate"] = (len(failures) / attempted, "ratio")
        named.update({f"wall.{key}": (v, UNITS[key]) for key, v in wall.items() if key != "peak_rss_mb"})
    mismatched = sorted(n for n, u in expected.items() if n not in values or units[n] != u)
    if mismatched:
        sys.exit(f"error: the harness and BENCHMARK.json disagree on {mismatched}")
    metrics = {name: {"value": values[name], "unit": units[name]} for name in expected}

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "started_utc": started,
        "machine": {**_machine(), "pinned_cpu": cpu},
        "load_average": {"start": load_start, "end": os.getloadavg()},
        "source": _source(),
        "round_wall_seconds": [r.seconds for r in rounds],
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:50],
        "named_metrics": {n: {"value": v, "unit": u} for n, (v, u) in named.items()},
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in values.items()},
    }
    if args.trace:
        result["trace_overhead"] = {
            k: values[f"trace.{k}"] for k in ("untraced_s", "traced_s", "overhead_s", "overhead_share")
        }
        result["self_s"] = dict(sorted(tracer.self_time().items()))
    else:
        result["setup_s_samples"] = [sampler.reference(*iv) for iv in setups]
        result["setup_wall_s_samples"] = [sampler.wall(*iv) for iv in setups]
        q = statistics.quantiles(sampler.seconds, n=20)
        result["speed_probe"] = {
            "period_s": speed.PERIOD_S, "reference_s": speed.REFERENCE_S, "samples": len(sampler.seconds),
            "median_s": statistics.median(sampler.seconds), "p5_s": q[0], "p95_s": q[-1],
        }
        result["trace_overhead"] = None  # measured by the traced run of the same workload
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    stem = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    if args.trace:
        with open(f"{stem}.spans.jsonl", "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, op in tracer.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")

    for name, item in {**result["named_metrics"], **result["metrics"]}.items():
        print(f"{name:44s} {item['value']:>16.6g} {item['unit']}")
    for message in failures[:10]:
        print(f"FAILED: {message}")
    print(f"result file: {stem.with_suffix('.json').relative_to(ROOT)}")
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
