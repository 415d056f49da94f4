"""``build-pipeline``: compile, learn, save and load, with no inference.

The formulas are fixed: the implication chain on a right-linear vtree at
each size in ``CHAIN_SIZES``, and the random 3-CNFs on balanced vtrees
drawn from ``CNF_SEEDS``.  Random 3-CNFs of one shape vary by half in
compile, learn and load cost, which would swamp the run-to-run spread, so
the workload seed drives only the sampled datasets.  Every round runs the
whole set, each input through three timed stages:

compile   ``csdd.circuit.compile_formula``
learn     ``collect_counts``, ``bayes_estimate`` and ``idm_estimate`` on a
          dataset sampled in set-up, uniformly over the input's models
io        write the vtree, sdd, psdd and csdd files, then read them back
"""

from __future__ import annotations

from pathlib import Path
from random import Random
from time import perf_counter

from csdd import circuit, formats, learn
from csdd.circuit import Vtree

import inputs
from harness import Round

NAME = "build-pipeline"
OP = "pipeline"   # one pass over the whole input set
# Vtree.right_linear(1100) raises RecursionError at the first benchmarked commit and
# chain compile time grows superlinearly, so the chain stops at 400
CHAIN_SIZES = (100, 200, 400)
CHAIN_ROWS = 2000
CNF_VARS, CNF_CLAUSES = 20, 40
CNF_SEEDS = (1, 4)   # 855 and 879 nodes, 6,521 and 4,470 models
CNF_ROWS = 3000      # about 2,000 distinct rows
ESS = 1.0
# the names this workload's end-to-end metrics also go by
NAMED = {"pipeline_s": "op_s_p50", "compile_s": "compile_s", "learn_s": "learn_s", "io_s": "io_s"}


def setup(seed: int, workdir: Path) -> dict:
    rng = Random(f"{NAME}:{seed}")
    items = []
    for n in CHAIN_SIZES:
        clauses = inputs.chain_clauses(n)
        items.append((f"chain{n}", n, Vtree.right_linear(n), clauses, inputs.chain_models(n), CHAIN_ROWS))
    for j in CNF_SEEDS:
        clauses = inputs.random_3cnf(Random(f"{NAME}:cnf:{j}"), CNF_VARS, CNF_CLAUSES)
        bits = inputs.models(CNF_VARS, clauses)
        items.append((f"cnf{j}", CNF_VARS, Vtree.balanced(CNF_VARS), clauses, bits, CNF_ROWS))
    return {
        "dir": workdir,
        "inputs": [
            {
                "name": name,
                "vtree": vtree,
                "formula": inputs.to_formula(clauses),
                "models": len(bits),
                "dataset": inputs.sample_dataset(rng, n, bits, rows),
            }
            for name, n, vtree, clauses, bits, rows in items
        ],
    }


def trace_rounds(seconds: int) -> int:
    return 1  # an untraced plus a traced round take about 35 s at the first benchmarked commit


def _save_load(item: dict, c, psdd, csdd, base: Path):
    paths = {kind: f"{base}.{kind}" for kind in ("vtree", "sdd", "psdd", "csdd")}
    formats.write_vtree(item["vtree"], paths["vtree"])
    formats.write_sdd(c, paths["sdd"])
    formats.write_psdd(c, psdd, paths["psdd"])
    formats.write_csdd(c, csdd, paths["csdd"])
    vtree = formats.read_vtree(paths["vtree"])
    loaded = {
        "vtree": vtree,
        "sdd": formats.read_sdd(paths["sdd"], vtree),
        "psdd": formats.read_psdd(paths["psdd"], vtree),
        "csdd": formats.read_csdd(paths["csdd"], vtree),
    }
    return paths, loaded


def _rewrite_differs(paths: dict, loaded: dict) -> list[str]:
    texts = {
        "vtree": formats.dumps_vtree(loaded["vtree"]),
        "sdd": formats.dumps_sdd(loaded["sdd"]),
        "psdd": formats.dumps_psdd(*loaded["psdd"]),
        "csdd": formats.dumps_csdd(*loaded["csdd"]),
    }
    return [kind for kind, text in texts.items()
            if Path(paths[kind]).read_bytes() != text.encode("utf-8")]


def run_round(state: dict, k: int, tracer) -> Round:
    out = Round()
    intervals = []
    for item in state["inputs"]:
        name, dataset = item["name"], item["dataset"]
        try:
            with tracer.span("build.input"):
                start = perf_counter()
                c = circuit.compile_formula(item["formula"], item["vtree"])
                compiled = perf_counter()
                counts = learn.collect_counts(c, dataset)
                psdd = learn.bayes_estimate(c, counts, ESS)
                csdd = learn.idm_estimate(c, counts, ESS)
                learned = perf_counter()
                paths, loaded = _save_load(item, c, psdd, csdd, state["dir"] / name)
                done = perf_counter()
        except Exception as exc:  # a raising stage fails the input
            out.raised(f"{name} raised {exc!r}")
            continue
        intervals.append((start, done))
        out.stage("compile_s", start, compiled)
        out.stage("learn_s", compiled, learned)
        out.stage("io_s", learned, done)
        problems = []
        count = circuit.model_count(c)
        if count != item["models"]:
            problems.append(f"model_count {count} != reference {item['models']}")
        root_total = counts.totals.get(c.root)
        if root_total != dataset.total:
            problems.append(f"root context total {root_total} != {dataset.total} rows")
        differs = _rewrite_differs(paths, loaded)
        if differs:
            problems.append("write -> read -> write changed " + ", ".join(differs))
        if problems:
            out.fail(f"{name}: " + "; ".join(problems))
    if len(intervals) == len(state["inputs"]):
        out.op(OP, intervals, attempts=len(intervals))
    else:  # a pass with a raising input has no latency
        out.attempted += len(intervals)
    return out
