"""``cli-queries``: ``csdd query`` and ``csdd robust`` on model files.

Set-up compiles a seeded random 3-CNF on a balanced vtree, samples
training rows uniformly from its models, learns a point table (``bayes``)
and a credal table (``idm``) with the same equivalent sample size, and
writes the vtree, psdd and csdd files.  The model's seed is fixed, not
the workload seed: random 3-CNFs of one shape vary by a quarter in node
count, which would swamp the run-to-run spread.  The workload seed drives
the query stream.  A round is eight calls of ``csdd.cli.main``
in-process, two of each kind in seeded order, every one with fresh
evidence cut from a random model, so each call re-reads the model files
exactly as the command line does.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path
from random import Random
from time import perf_counter

from csdd import cli, formats, schemas
from csdd.circuit import Vtree, compile_formula, model_count
from csdd.infer import map_query, marginal
from csdd.learn import bayes_estimate, collect_counts, idm_estimate

import inputs
from harness import Round

NAME = "cli-queries"
N_VARS = 16
N_CLAUSES = 30
MODEL_SEED = f"{NAME}:model:2"   # 403 nodes, multiply connected, 1,864 models
TRAIN_ROWS = 1000
ESS = 1.0
KINDS = ("marginal", "conditional", "map", "robust")
TOL = 1e-9
LABELS = {"robust", "weakly_robust", "not_robust"}
# the names this workload's end-to-end metrics also go by
NAMED = {"queries_per_s": "ops_per_s", "query_s_p50": "op_s_p50", "query_s_p90": "op_s_p90"}


def setup(seed: int, workdir: Path) -> dict:
    rng = Random(MODEL_SEED)
    clauses = inputs.random_3cnf(rng, N_VARS, N_CLAUSES)
    model_bits = inputs.models(N_VARS, clauses)
    vtree = Vtree.balanced(N_VARS)
    circuit = compile_formula(inputs.to_formula(clauses), vtree)
    if model_count(circuit) != len(model_bits):
        raise RuntimeError("compiled circuit disagrees with the enumerated models")
    counts = collect_counts(circuit, inputs.sample_dataset(rng, N_VARS, model_bits, TRAIN_ROWS))
    psdd = bayes_estimate(circuit, counts, ESS)
    paths = {name: str(workdir / f"model.{name}") for name in ("vtree", "psdd", "csdd")}
    formats.write_vtree(vtree, paths["vtree"])
    formats.write_psdd(circuit, psdd, paths["psdd"])
    formats.write_csdd(circuit, idm_estimate(circuit, counts, ESS), paths["csdd"])
    return {"seed": seed, "circuit": circuit, "psdd": psdd, "models": model_bits, "paths": paths}


def trace_rounds(seconds: int) -> int:
    # an untraced plus a traced round take about 2.5 s at the first benchmarked commit
    return max(1, round(seconds / 3))


def _query(state: dict, rng: Random, kind: str) -> tuple[list[str], dict]:
    """Command line and the point-model facts its answer is checked against."""
    bits = rng.choice(state["models"])
    chosen = rng.sample(range(1, N_VARS + 1), rng.randint(3, 7))  # evidence, then target
    evidence = {v: bool(bits >> (v - 1) & 1) for v in chosen[:-1]}
    text = ",".join(f"X{v}={int(b)}" for v, b in sorted(evidence.items()))
    paths = state["paths"]
    circuit, psdd = state["circuit"], state["psdd"]
    if kind == "robust":
        argv = ["robust", "--csdd", paths["csdd"], "--psdd", paths["psdd"], "--vtree", paths["vtree"]]
        return argv + ["--evidence", text], {}
    argv = ["query", "--model", paths["csdd"], "--vtree", paths["vtree"], "--type", kind]
    argv += ["--evidence", text]
    if kind == "marginal":
        return argv, {"point": marginal(circuit, psdd, evidence)}
    if kind == "conditional":
        var, val = chosen[-1], rng.random() < 0.5
        point = marginal(circuit, psdd, {**evidence, var: val}) / marginal(circuit, psdd, evidence)
        return argv + ["--target", f"X{var}={int(val)}"], {"point": point}
    return argv, {"point": map_query(circuit, psdd, evidence)[0]}


def _problems(kind: str, payload: dict, facts: dict) -> list[str]:
    schemas.check(payload, schemas.ROBUST if kind == "robust" else schemas.QUERY)
    if kind == "robust":
        out = [] if payload["V"] >= 1.0 - TOL else [f"V={payload['V']} < 1"]
        if payload["label"] not in LABELS:
            out.append(f"unknown label {payload['label']!r}")
        return out
    point = facts["point"]
    if kind == "map":
        return [] if payload["upper"] >= point - TOL else [f"map upper {payload['upper']} < point {point}"]
    if not payload["lower"] - TOL <= point <= payload["upper"] + TOL:
        return [f"point {point} outside [{payload['lower']}, {payload['upper']}]"]
    return []


def _certificates(payload: dict) -> list[str]:
    return [payload[k]["status"] for k in ("certificate", "upper_certificate") if k in payload]


def run_round(state: dict, k: int, tracer) -> Round:
    out = Round()
    rng = Random(f"{NAME}:{state['seed']}:{k}")
    kinds = list(KINDS) * 2
    rng.shuffle(kinds)
    for kind in kinds:
        argv, facts = _query(state, rng, kind)
        op = "robust" if kind == "robust" else f"query.{kind}"
        stdout, stderr = io.StringIO(), io.StringIO()
        try:
            with tracer.span(f"cli.{op}"), contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(stderr):
                start = perf_counter()
                code = cli.main(argv)
                end = perf_counter()
        except Exception as exc:  # an uncaught crash is a failed operation
            out.raised(f"{' '.join(argv)} raised {exc!r}")
            continue
        out.op(op, [(start, end)])
        if code != 0:
            out.fail(f"{' '.join(argv)} exited {code}: {stderr.getvalue().strip()}")
            continue
        try:
            payload = json.loads(stdout.getvalue())
            problems = _problems(kind, payload, facts)
        except (ValueError, KeyError, TypeError) as exc:
            problems = [f"bad payload: {exc!r}"]
        if problems:
            out.fail(f"{' '.join(argv)}: " + "; ".join(problems))
            continue
        for status in _certificates(payload):
            out.count("infer.certificates", 1)
            out.count("infer.possibly_outer", status == "possibly_outer")
    return out
