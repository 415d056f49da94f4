"""``display-grid``: criterion-8 cells of the noisy seven-segment experiment.

A round is four cells, one per failure probability, each a call to
``csdd.experiment.run_cell`` with d=20.  Cell seeds come from a pool of
``POOL`` seeds per failure probability whose metric rows are recorded in
``reference/display_grid.json``; the workload seed fixes the order in
which a run walks the pool.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from random import Random
from time import perf_counter

from csdd import experiment
from csdd.circuit import compile_formula

from harness import Round

NAME = "display-grid"
OP = "cell"
TRAIN_SIZE = 20
P_FS = (0.05, 0.2, 0.3, 0.4)
POOL = 50
REFERENCE = Path(__file__).resolve().parent / "reference" / "display_grid.json"
# point-model fields: no change to the credal machinery may move them
POINT_FIELDS = ("accuracy", "joint_accuracy")
CREDAL_FIELDS = tuple(f for f in experiment.Metrics.FIELDS if f not in POINT_FIELDS)
# fields that are NaN when the determinate or indeterminate split is empty
SPLIT_FIELDS = ("det_accuracy", "indet_accuracy", "joint_det_accuracy", "joint_indet_accuracy")
# the names this workload's end-to-end metrics also go by
NAMED = {"cells_per_s": "ops_per_s", "cell_s_p50": "op_s_p50"}


def reference_key(p_f: float, seed: int) -> str:
    return f"{p_f}:{seed}"


def setup(seed: int, workdir: Path) -> dict:
    """Load the reference rows and compile the scenario circuit."""
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    if reference["fields"] != list(experiment.Metrics.FIELDS):
        raise RuntimeError("reference rows were recorded for other metric fields")
    compile_formula(experiment.build_scenario_formula(), experiment.scenario_vtree())
    experiment.scenario_circuit()  # run_cell's own (cached) copy
    orders = {}
    for p_f in P_FS:
        order = list(range(POOL))
        Random(f"{NAME}:{seed}:{p_f}").shuffle(order)
        orders[p_f] = order
    rows = {key: [math.nan if v is None else v for v in row] for key, row in reference["rows"].items()}
    return {"rows": rows, "orders": orders}


def trace_rounds(seconds: int) -> int:
    # an untraced plus a traced round take about 9 s at the first benchmarked commit
    return max(1, round(seconds / 10))


def _same(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


def run_round(state: dict, k: int, tracer) -> Round:
    out = Round()
    for p_f in P_FS:
        cell_seed = state["orders"][p_f][k % POOL]
        scenario = experiment.Scenario(train_size=TRAIN_SIZE, p_f=p_f, seed=cell_seed)
        try:
            with tracer.span("experiment.run_cell"):
                start = perf_counter()
                metrics = experiment.run_cell(scenario)
                end = perf_counter()
        except Exception as exc:  # a raising cell is a failed operation
            out.raised(f"cell {p_f}:{cell_seed} raised {exc!r}")
            continue
        out.op(OP, [(start, end)])
        out.count("experiment.test_rows", scenario.test_size)
        reference = dict(zip(experiment.Metrics.FIELDS, state["rows"][reference_key(p_f, cell_seed)]))
        problems = []
        for field in experiment.Metrics.FIELDS:
            value = getattr(metrics, field)
            if math.isnan(value):
                if field not in SPLIT_FIELDS:
                    problems.append(f"{field} is NaN")
            elif not 0.0 <= value <= 1.0:
                problems.append(f"{field}={value} outside [0, 1]")
        for field in POINT_FIELDS:
            if not _same(getattr(metrics, field), reference[field]):
                problems.append(f"{field}={getattr(metrics, field)} != reference {reference[field]}")
        if problems:
            out.fail(f"cell {p_f}:{cell_seed}: " + "; ".join(problems))
        if any(not _same(getattr(metrics, f), reference[f]) for f in CREDAL_FIELDS):
            out.count("experiment.credal_diff_cells", 1)
    return out
