"""Command-line front end.

Subcommands wire compilation, learning, querying, robustness checking and
the display experiment together.  Machine-readable JSON goes to stdout,
human progress notes to stderr; the exit code is zero exactly when the
command succeeded.  Variables are always addressed as ``X<i>`` (vtree
variable ``i``), whatever header the training dataset had.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack
from pathlib import Path

from . import formats
from .circuit import (
    ENUMERATION_VAR_LIMIT,
    Vtree,
    compile_formula,
    is_consistent,
    model_count,
)
from .experiment import Metrics, Scenario, run_cell
from .fixtures import squares_fixture
from .formula import parse_formula
from .infer import (
    DEFAULT_TOL,
    EvidenceSession,
    credal_map_upper,
    lower_conditional,
    lower_marginal,
    map_query,
    marginal,
    robustness,
    upper_conditional,
    upper_marginal,
)
from .learn import bayes_estimate, collect_counts, idm_estimate, ml_estimate


class CliError(Exception):
    pass


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def _emit(payload: dict) -> None:
    json.dump(payload, sys.stdout, indent=2, sort_keys=True, allow_nan=True)
    sys.stdout.write("\n")


def _var_names(n: int) -> list[str]:
    return [f"X{i}" for i in range(1, n + 1)]


def _parse_assignment(text: str, names: list[str]) -> dict[int, bool]:
    """Parse ``"X1=0,X4=1"`` against the model's variable table."""
    table = {name: i + 1 for i, name in enumerate(names)}
    out: dict[int, bool] = {}
    if not text.strip():
        return out
    for chunk in text.split(","):
        chunk = chunk.strip()
        if "=" not in chunk:
            raise CliError(f"assignment {chunk!r} is not of the form name=0|1")
        name, _, value = chunk.partition("=")
        name = name.strip()
        if name not in table:
            raise CliError(f"unknown variable {name!r}")
        if value.strip() not in ("0", "1"):
            raise CliError(f"variable {name}: expected 0 or 1, got {value.strip()!r}")
        var = table[name]
        if var in out:
            raise CliError(f"variable {name} assigned twice")
        out[var] = value.strip() == "1"
    return out


def _certificate_payload(certificate) -> dict:
    return {
        "status": certificate.status,
        "conflicted": list(certificate.conflicted),
    }


# ---------------------------------------------------------------------------
# compile


def cmd_compile(args) -> int:
    if args.fixture and (args.vtree or args.auto):
        flag = "--vtree" if args.vtree else "--auto"
        raise CliError(f"{flag} does not apply to --fixture, which brings its own vtree")
    if args.fixture == "squares":
        circuit = squares_fixture().circuit
        vtree = circuit.vtree
    elif args.fixture == "seven-segment":
        from .experiment import build_scenario_formula, scenario_vtree

        vtree = scenario_vtree()
        circuit = compile_formula(build_scenario_formula(), vtree)
    else:
        if args.vtree:
            vtree = formats.read_vtree(args.vtree)
        elif not args.auto:
            raise CliError("need --vtree <file> or --auto")
        formula = parse_formula(Path(args.formula).read_text(encoding="utf-8"))
        if args.auto:  # the parser refuses --auto together with --vtree
            vtree = Vtree.balanced(max(formula.variables(), default=1))
        circuit = compile_formula(formula, vtree)

    count = model_count(circuit)
    if count == 0:
        _log("warning: the formula is unsatisfiable; writing a circuit with no models")
    formats.write_sdd(circuit, args.output)
    vtree_out = args.vtree_out or str(Path(args.output).with_suffix(".vtree"))
    formats.write_vtree(vtree, vtree_out)
    cone = circuit.cone()
    payload = {
        "nodes": len(cone),
        "decision_nodes": sum(1 for nid in cone if circuit.nodes[nid].elements),
        "classification": circuit.connectivity().classification,
        "sdd": str(args.output),
        "vtree": vtree_out,
    }
    if circuit.vtree.var_count <= ENUMERATION_VAR_LIMIT:
        payload["models"] = count
    _emit(payload)
    return 0


# ---------------------------------------------------------------------------
# learn


def cmd_learn(args) -> int:
    vtree = formats.read_vtree(args.vtree)
    circuit = formats.read_sdd(args.sdd, vtree)
    dataset = formats.read_dataset(args.data)
    counts = collect_counts(circuit, dataset, strict=not args.lenient)
    if counts.dropped:
        _log(f"warning: dropped {counts.dropped} rows inconsistent with the circuit")
    if args.mode == "ml":
        params = ml_estimate(circuit, counts)
        formats.write_psdd(circuit, params, args.output)
    elif args.mode == "bayes":
        params = bayes_estimate(circuit, counts, args.ess)
        formats.write_psdd(circuit, params, args.output)
    else:
        params = idm_estimate(circuit, counts, args.ess)
        formats.write_csdd(circuit, params, args.output)
    _emit(
        {
            "mode": args.mode,
            "ess": args.ess if args.mode != "ml" else None,
            "rows": dataset.total,
            "dropped": counts.dropped,
            "parameterized_nodes": len(counts.totals),
            "context_totals": {str(nid): total for nid, total in sorted(counts.totals.items())},
            "output": str(args.output),
        }
    )
    return 0


# ---------------------------------------------------------------------------
# shared model loading


def _model_kind(path: str) -> str:
    head = formats.read_header(path)
    if head not in ("psdd", "csdd"):
        raise CliError(f"{path}: expected a psdd or csdd file, found {head!r}")
    return head


def _load_model(path: str, vtree: Vtree):
    kind = _model_kind(path)
    read = formats.read_psdd if kind == "psdd" else formats.read_csdd
    circuit, params = read(path, vtree)
    return circuit, params, kind


# ---------------------------------------------------------------------------
# query


def cmd_query(args) -> int:
    circuit, params, kind = _load_model(args.model, formats.read_vtree(args.vtree))
    names = _var_names(circuit.vtree.var_count)
    evidence = _parse_assignment(args.evidence or "", names)
    if not is_consistent(circuit, evidence):
        raise CliError("evidence violates circuit constraints")
    payload: dict = {"type": args.type, "model": kind, "evidence": args.evidence or ""}
    if args.type == "marginal":
        if kind == "psdd":
            payload["value"] = marginal(circuit, params, evidence)
        else:
            payload["lower"] = lower_marginal(circuit, params, evidence)
            payload["upper"] = upper_marginal(circuit, params, evidence)
    elif args.type == "conditional":
        if not args.target:
            raise CliError("--type conditional needs --target")
        target = _parse_assignment(args.target, names)
        if len(target) != 1:
            raise CliError("--target must assign exactly one variable")
        (var, val), = target.items()
        if var in evidence:
            raise CliError(f"queried variable {var} appears in the evidence")
        if kind == "psdd":
            denom = marginal(circuit, params, evidence)
            if denom <= 0.0:
                raise CliError("evidence has zero probability under the point table")
            payload["value"] = marginal(circuit, params, {**evidence, var: val}) / denom
        else:
            session = EvidenceSession(circuit, params, evidence)
            lo = lower_conditional(circuit, params, var, val, evidence, tol=args.tol,
                                   session=session)
            hi = upper_conditional(circuit, params, var, val, evidence, tol=args.tol,
                                   session=session)
            payload["lower"] = lo.value
            payload["upper"] = hi.value
            payload["iterations"] = lo.iterations + hi.iterations
            payload["certificate"] = _certificate_payload(lo.certificate)
            payload["upper_certificate"] = _certificate_payload(hi.certificate)
    elif args.type == "map":
        if kind == "psdd":
            value, assignment = map_query(circuit, params, evidence)
            payload["value"] = value
            payload["assignment"] = {
                names[var - 1]: int(val)
                for var, val in sorted(assignment.items())
                if var not in evidence
            }
        else:
            payload["upper"] = credal_map_upper(circuit, params, evidence)
    else:
        raise CliError(f"unknown query type {args.type!r}")
    _emit(payload)
    return 0


# ---------------------------------------------------------------------------
# robust


def cmd_robust(args) -> int:
    vtree = formats.read_vtree(args.vtree)
    circuit, csdd, kind = _load_model(args.csdd, vtree)
    if kind != "csdd":
        raise CliError("--csdd must point at a csdd file")
    if _model_kind(args.psdd) != "psdd":
        raise CliError("--psdd must point at a psdd file")
    # the psdd must be written from the csdd's circuit: it is read onto it,
    # which checks its structure line by line instead of building it again
    _, psdd = formats.read_psdd(args.psdd, vtree, onto=circuit)
    names = _var_names(circuit.vtree.var_count)
    evidence = _parse_assignment(args.evidence or "", names)
    if not is_consistent(circuit, evidence):
        raise CliError("evidence violates circuit constraints")
    if args.map:
        xstar = _parse_assignment(args.map, names)
    else:
        _, completion = map_query(circuit, psdd, evidence)
        xstar = {var: val for var, val in completion.items() if var not in evidence}
    verdict = robustness(circuit, csdd, evidence, xstar)
    _emit(
        {
            "V": verdict.value,
            "label": verdict.label,
            "map": {names[var - 1]: int(val) for var, val in sorted(xstar.items())},
            "certificate": _certificate_payload(verdict.certificate),
        }
    )
    return 0


# ---------------------------------------------------------------------------
# experiment


def _run_cell_payload(scenario: Scenario) -> tuple[list, float]:
    start = time.perf_counter()
    row = [scenario.train_size, scenario.p_f, scenario.seed] + run_cell(scenario).as_row()
    return row, time.perf_counter() - start


def _grid_entries(flag: str, text: str, kind, ok, what: str) -> list:
    """The comma-separated entries of ``flag``, each read by ``kind``; a
    :class:`CliError` naming the flag unless every entry reads and is ``ok``."""
    try:
        entries = [kind(tok) for tok in text.split(",")]
    except ValueError:
        entries = None
    if entries is None or not all(map(ok, entries)):
        raise CliError(f"{flag} entries must each be {what}, got {text!r}")
    return entries


def cmd_experiment(args) -> int:
    if args.scenario != "seven-segment":
        raise CliError(f"unknown scenario {args.scenario!r}")
    if args.seeds < 1:
        raise CliError(f"--seeds must be at least 1, got {args.seeds}")
    threads = os.environ.get("CSDD_THREADS", "0")
    if not (threads.isascii() and threads.isdigit()):
        raise CliError(f"CSDD_THREADS must be a non-negative integer, got {threads!r}")
    # checked before any cell runs: a bad entry would only fail inside a worker
    sizes = _grid_entries("--d", args.d, int, lambda d: d > 0, "a positive integer")
    probs = _grid_entries("--pf", args.pf, float, lambda p: 0.0 <= p <= 1.0, "a number in [0, 1]")
    if not 0.0 < args.ess < math.inf:
        raise CliError(f"--ess must be positive and finite, got {args.ess}")
    cells = [
        Scenario(d, pf, args.seed + i, test_size=args.test_size, ess=args.ess)
        for d in sizes
        for pf in probs
        for i in range(args.seeds)
    ]
    # 0: one process per CPU; a forked pool starts all its workers at once,
    # so it gets no more of them than there are cells
    workers = min(int(threads) or os.cpu_count() or 1, len(cells))
    rows = []
    with ExitStack() as stack:
        run = map if workers == 1 else stack.enter_context(ProcessPoolExecutor(max_workers=workers)).map
        for i, (cell, (row, seconds)) in enumerate(zip(cells, run(_run_cell_payload, cells)), 1):
            rows.append(row)
            _log(f"cell {i}/{len(cells)} d={cell.train_size} pf={cell.p_f} seed={cell.seed} {seconds:.2f}s")
    header = ["d", "pf", "seed"] + list(Metrics.FIELDS)
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(x) if isinstance(x, float) else str(x) for x in row))
    Path(args.output).write_text("\n".join(lines) + "\n", encoding="utf-8")
    _emit(
        {
            "scenario": args.scenario,
            "cells": len(rows),
            "seed": args.seed,
            "digit_prior": "uniform",
            "output": str(args.output),
        }
    )
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="csdd", description="Credal sentential decision diagrams."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="compile a formula or fixture into an sdd file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--formula", help="s-expression formula file")
    group.add_argument("--fixture", choices=["squares", "seven-segment"])
    group = p.add_mutually_exclusive_group()
    group.add_argument("--vtree", help="vtree file to normalize for")
    group.add_argument("--auto", action="store_true", help="build a balanced vtree")
    p.add_argument("--vtree-out", help="where to write the vtree (default: alongside the sdd)")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("learn", help="estimate parameters from data")
    p.add_argument("--sdd", required=True)
    p.add_argument("--vtree", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--mode", choices=["ml", "bayes", "idm"], required=True)
    p.add_argument("--ess", type=float, default=1.0, help="equivalent sample size")
    p.add_argument("--lenient", action="store_true", help="drop inconsistent rows")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_learn)

    p = sub.add_parser("query", help="marginal, conditional or map query")
    p.add_argument("--model", required=True, help="psdd or csdd file")
    p.add_argument("--vtree", required=True)
    p.add_argument("--type", choices=["marginal", "conditional", "map"], required=True)
    p.add_argument("--evidence", default="", help='e.g. "X1=0,X4=1"')
    p.add_argument("--target", help='single assignment, e.g. "X1=1"')
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("robust", help="robustness of a most probable completion")
    p.add_argument("--csdd", required=True)
    p.add_argument("--psdd", required=True)
    p.add_argument("--vtree", required=True)
    p.add_argument("--evidence", default="")
    p.add_argument("--map", help="completion to check (default: recompute from the psdd)")
    p.set_defaults(func=cmd_robust)

    p = sub.add_parser("experiment", help="run the display experiment grid")
    p.add_argument("--scenario", default="seven-segment")
    p.add_argument("--d", default="10,15,20,50,100", help="training sizes")
    p.add_argument("--pf", default="0.05,0.1,0.2,0.3,0.4", help="failure probabilities")
    p.add_argument("--seeds", type=int, default=5, help="repetitions per cell")
    p.add_argument("--seed", type=int, default=0, help="base seed")
    p.add_argument("--test-size", type=int, default=140)
    p.add_argument("--ess", type=float, default=1.0)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_experiment)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # parsing leaves the parser unchanged, so one serves every call in the process
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    # RecursionError: compiling a formula nested deeper than the stack allows
    except (CliError, ValueError, OSError, RecursionError) as exc:
        _log(f"error: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
