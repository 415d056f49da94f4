"""Shared fixtures: random model generators and enumeration oracles.

The oracles here are deliberately independent of the message-passing
implementations: joint probabilities come from routing a complete
assignment through the circuit and multiplying local parameters, and
marginals/completions from exhaustive enumeration over those joints.
The scalar references route or evaluate one row at a time, for the
bit-parallel passes to be compared against, and mark top-down one start
at a time, for the single-scan markers in ``csdd.infer``.  The generic
greedy local LP and an all-``fsum`` point pass are kept for the one- and
two-state closed forms to be compared against bit for bit.
"""

from __future__ import annotations

import math
from itertools import product
from random import Random

import pytest

from csdd.circuit import (
    DECISION,
    FALSE,
    LITERAL,
    TRUE,
    Circuit,
    CircuitError,
    Vtree,
    compile_formula,
    evaluate,
    model_count,
    multiplicity_report,
)
from csdd.credal import IntervalCredalSet, enumerate_vertices, normalize_reachable
from csdd.formula import Formula, Var, conj, disj
from csdd.params import CsddParams, PsddParams


# ---------------------------------------------------------------------------
# random generators


def random_vtree(rng: Random, n: int) -> Vtree:
    variables = list(range(1, n + 1))
    rng.shuffle(variables)

    def build(vs):
        if len(vs) == 1:
            return vs[0]
        k = rng.randint(1, len(vs) - 1)
        return (build(vs[:k]), build(vs[k:]))

    return Vtree(build(variables))


def random_formula(rng: Random, n_vars: int, depth: int) -> Formula:
    if depth == 0 or rng.random() < 0.3:
        v = Var(rng.randint(1, n_vars))
        return v if rng.random() < 0.5 else ~v
    parts = [random_formula(rng, n_vars, depth - 1) for _ in range(rng.randint(2, 3))]
    return conj(parts) if rng.random() < 0.5 else disj(parts)


def random_circuit(
    rng: Random,
    n_vars: int,
    singly: bool,
    max_elements: int | None = None,
    max_tries: int = 200,
) -> Circuit:
    """Non-trivial random circuit of the requested connectivity."""
    for _ in range(max_tries):
        vtree = random_vtree(rng, n_vars)
        formula = random_formula(rng, n_vars, depth=rng.randint(2, 3))
        circuit = compile_formula(formula, vtree, share=not singly)
        count = model_count(circuit)
        if not 0 < count < 2 ** n_vars:
            continue
        if max_elements is not None:
            widest = max(
                (len(node.elements) for node in circuit.nodes if node.elements), default=0
            )
            if widest > max_elements:
                continue
        if singly != multiplicity_report(circuit).singly_connected:
            continue
        return circuit
    raise RuntimeError("could not generate a suitable random circuit")


def random_csdd_params(rng: Random, circuit: Circuit, max_width: float) -> CsddParams:
    """Random reachable interval tables with well-separated-from-0/1 bounds."""
    false = circuit.false_ids()
    table = {}
    for nid in circuit.parameterized_ids():
        node = circuit.nodes[nid]
        if node.kind == TRUE:
            p = rng.uniform(0.15, 0.85)
            lo = max(0.05, p - rng.uniform(0, max_width))
            hi = min(0.95, p + rng.uniform(0, max_width))
            table[nid] = IntervalCredalSet((lo, 1.0 - hi), (hi, 1.0 - lo))
            continue
        k = len(node.elements)
        free = [i for i, (_, s) in enumerate(node.elements) if s not in false]
        weights = [rng.uniform(0.2, 1.0) if i in free else 0.0 for i in range(k)]
        total = sum(weights)
        point = [w / total for w in weights]
        lower = [0.0] * k
        upper = [0.0] * k
        for i in free:
            lower[i] = max(0.4 * point[i], point[i] - rng.uniform(0, max_width))
            upper[i] = min(1.0, point[i] + rng.uniform(0, max_width))
        table[nid] = normalize_reachable(lower, upper)
    return CsddParams(table)


def random_psdd_params(rng: Random, circuit: Circuit) -> PsddParams:
    false = circuit.false_ids()
    table = {}
    for nid in circuit.parameterized_ids():
        node = circuit.nodes[nid]
        if node.kind == TRUE:
            p = rng.uniform(0.1, 0.9)
            table[nid] = (p, 1.0 - p)
            continue
        k = len(node.elements)
        free = [i for i, (_, s) in enumerate(node.elements) if s not in false]
        weights = [rng.uniform(0.2, 1.0) if i in free else 0.0 for i in range(k)]
        total = sum(weights)
        table[nid] = tuple(w / total for w in weights)
    return PsddParams(table)


def oracle_size(params: CsddParams) -> int:
    from csdd.credal import CredalSetError

    size = 1
    try:
        for cs in params.table.values():
            size *= len(enumerate_vertices(cs))
    except CredalSetError:  # a local set too wide to enumerate
        return 2 ** 62
    return size


def random_credal_instance(
    rng: Random,
    n_vars: int,
    singly: bool,
    max_width: float,
    max_elements: int | None = None,
    combo_cap: int = 2000,
):
    """(circuit, params) pair small enough for the exhaustive oracle."""
    for _ in range(200):
        circuit = random_circuit(rng, n_vars, singly, max_elements=max_elements)
        params = random_csdd_params(rng, circuit, max_width)
        if oracle_size(params) <= combo_cap:
            return circuit, params
    raise RuntimeError("could not generate an oracle-sized instance")


# ---------------------------------------------------------------------------
# enumeration oracles (independent of the message-passing code)


def brute_joint(circuit: Circuit, params: PsddParams, assignment: dict[int, bool]) -> float:
    """Joint probability by multiplying parameters along the realized tree."""

    def walk(nid: int) -> float:
        node = circuit.nodes[nid]
        if node.kind == FALSE:
            return 0.0
        if node.kind == LITERAL:
            return 1.0 if assignment[node.var] == node.polarity else 0.0
        if node.kind == TRUE:
            pmf = params.table[nid]
            return pmf[0] if assignment[node.var] else pmf[1]
        theta = params.table.get(nid)
        if theta is None:
            return 0.0
        total = 0.0
        for (p, s), t in zip(node.elements, theta):
            vp = walk(p)
            if vp > 0.0:
                return vp * walk(s) * t
        return total

    return walk(circuit.root)


def brute_marginal(circuit: Circuit, params: PsddParams, evidence: dict[int, bool]) -> float:
    free = [v for v in range(1, circuit.vtree.var_count + 1) if v not in evidence]
    total = 0.0
    for values in product((False, True), repeat=len(free)):
        assignment = dict(evidence)
        assignment.update(zip(free, values))
        total += brute_joint(circuit, params, assignment)
    return total


def brute_map(circuit: Circuit, params: PsddParams, evidence: dict[int, bool]):
    free = [v for v in range(1, circuit.vtree.var_count + 1) if v not in evidence]
    best, arg = -1.0, None
    for values in product((False, True), repeat=len(free)):
        assignment = dict(evidence)
        assignment.update(zip(free, values))
        p = brute_joint(circuit, params, assignment)
        if p > best:
            best, arg = p, assignment
    return best, arg


# ---------------------------------------------------------------------------
# scalar references for the bit-parallel passes and the top-down markers


def route_counts(circuit: Circuit, dataset, strict: bool = True):
    """``collect_counts`` one row at a time: a truth pass per row, then a
    walk from the root into the first element whose prime holds."""
    from csdd.learn import ContextCounts, LearnError

    root = circuit.root
    counts: dict[int, list[int]] = {}
    totals: dict[int, int] = {}
    for nid in circuit.parameterized_ids():
        node = circuit.nodes[nid]
        counts[nid] = [0, 0] if node.kind == TRUE else [0] * len(node.elements)
        totals[nid] = 0
    dropped = 0
    nodes = circuit.nodes
    cone = circuit.cone()
    truth = [False] * (max(cone) + 1)
    for assignment, count in dataset.assignments():
        for nid in cone:
            node = nodes[nid]
            if node.kind == FALSE:
                truth[nid] = False
            elif node.kind == TRUE:
                truth[nid] = True
            elif node.kind == LITERAL:
                truth[nid] = assignment[node.var] == node.polarity
            else:
                truth[nid] = any(truth[p] and truth[s] for p, s in node.elements)
        if not truth[root]:
            if strict:
                raise LearnError(f"row {assignment} is inconsistent with the circuit")
            dropped += count
            continue
        stack = [root]
        while stack:
            nid = stack.pop()
            node = nodes[nid]
            if node.kind == TRUE:
                totals[nid] += count
                counts[nid][0 if assignment[node.var] else 1] += count
            elif node.kind == DECISION:
                totals[nid] += count
                for idx, (p, s) in enumerate(node.elements):
                    if truth[p]:
                        counts[nid][idx] += count
                        stack.append(p)
                        stack.append(s)
                        break
                else:
                    raise LearnError(f"no prime of node {nid} matched a consistent row")
    return ContextCounts(counts, totals, dropped)


def greedy_reference(cs: IntervalCredalSet, coeffs, maximize: bool = False):
    """``credal._min_fast``/``_max_fast`` by the generic greedy for every k:
    a stable sort of the states by cost, a mass loop, and ``math.fsum`` for
    the value.  Returns ``(value, point)``."""
    from csdd.credal import EQ_TOL

    keys = [-c for c in coeffs] if maximize else list(coeffs)
    theta = list(cs.lower)
    remaining = 1.0 - math.fsum(theta)
    if remaining > 0:
        for i in sorted(range(cs.k), key=keys.__getitem__):
            room = cs.upper[i] - theta[i]
            if room <= 0:
                continue
            add = room if room < remaining else remaining
            theta[i] += add
            remaining -= add
            if remaining <= EQ_TOL:
                break
    return math.fsum(c * t for c, t in zip(coeffs, theta)), tuple(theta)


def point_pass_reference(circuit: Circuit, params: PsddParams, evidence) -> float:
    """``infer.marginal`` with ``math.fsum`` at every decision node."""
    values: dict[int, float] = {}
    for nid in circuit.cone():
        node = circuit.nodes[nid]
        val = evidence.get(node.var)
        if node.kind == FALSE:
            values[nid] = 0.0
        elif node.kind == LITERAL:
            values[nid] = 1.0 if val is None or val == node.polarity else 0.0
        elif node.kind == TRUE:
            pmf = params.table[nid]
            values[nid] = 1.0 if val is None else (pmf[0] if val else pmf[1])
        elif nid not in params.table:
            values[nid] = 0.0
        else:
            values[nid] = math.fsum(
                values[p] * values[s] * t
                for (p, s), t in zip(node.elements, params.table[nid])
            )
    return values[circuit.root]


def mark_sweep_walk(trace, circuit: Circuit, start: int, low, up, sense: int) -> None:
    """``infer._mark_sweeps`` for one start, by a depth-first walk from it.

    The walk visits each node once and pushes the children whose value
    the swept value depends on: both children of an element with a
    positive contribution, and, for a lower value, a child whose zero
    lower bound alone makes a contribution vanish.
    """
    from csdd.infer import MIN

    sweep = low if sense == MIN else up
    stack = [start]
    seen = set()
    while stack:
        nid = stack.pop()
        if nid in seen:
            continue
        seen.add(nid)
        node = circuit.nodes[nid]
        if node.kind in (TRUE, DECISION):
            trace.record(nid, sweep.vertices[nid])
        for p, s in node.elements:
            vp, vs = sweep.values[p], sweep.values[s]
            if vp > 0.0 and vs > 0.0:
                stack.append(p)
                stack.append(s)
            elif sense == MIN:
                if vp == 0.0 and up.values[p] > 0.0:
                    stack.append(p)
                elif vp > 0.0 and vs == 0.0 and up.values[s] > 0.0:
                    stack.append(s)


def mark_map_walk(trace, circuit: Circuit, params: CsddParams, cm, evidence, start: int) -> None:
    """``infer._mark_map`` for one start, by a depth-first walk through
    every tied element."""
    from csdd.credal import _max_fast

    stack = [start]
    seen = set()
    while stack:
        nid = stack.pop()
        if nid in seen:
            continue
        seen.add(nid)
        node = circuit.nodes[nid]
        if node.kind == TRUE:
            cs = params.table[nid]
            val = evidence.get(node.var)
            if val is None:
                if len(cm.tied[nid]) == 1:
                    coeffs = (1.0, 0.0) if cm.tied[nid][0] == 0 else (0.0, 1.0)
                    trace.record(nid, _max_fast(cs, coeffs)[1])
            elif cm.values[nid] > 0.0:
                coeffs = (1.0, 0.0) if val else (0.0, 1.0)
                trace.record(nid, _max_fast(cs, coeffs)[1])
        elif node.kind == DECISION and nid in params.table:
            cs = params.table[nid]
            for idx in cm.tied[nid]:
                coeffs = tuple(1.0 if i == idx else 0.0 for i in range(cs.k))
                trace.record(nid, _max_fast(cs, coeffs)[1])
                stack.extend(node.elements[idx])


def check_partitions(
    circuit: Circuit,
    exhaustive_limit: int = 16,
    samples: int = 64,
    seed: int = 0,
) -> None:
    """``validate_partitions`` one case and one prime at a time, by ``evaluate``."""
    vtree = circuit.vtree
    rng = Random(seed)
    for nid in circuit.cone():
        node = circuit.nodes[nid]
        if node.kind != DECISION:
            continue
        left_vars = vtree.vars_under(vtree.left(node.vtree))
        if 2 ** len(left_vars) <= exhaustive_limit:
            cases = product((False, True), repeat=len(left_vars))
        else:
            cases = (tuple(rng.random() < 0.5 for _ in left_vars) for _ in range(samples))
        for values in cases:
            assignment = dict(zip(left_vars, values))
            hits = sum(1 for p, _ in node.elements if evaluate(circuit, p, assignment))
            if hits != 1:
                raise CircuitError(
                    f"node {nid}: primes cover left assignment {values} {hits} times (want exactly 1)"
                )


# ---------------------------------------------------------------------------
# shared fixtures


@pytest.fixture(scope="session")
def squares():
    from csdd.fixtures import squares_fixture

    return squares_fixture()


@pytest.fixture(scope="session")
def squares_counts(squares):
    from csdd.fixtures import squares_dataset
    from csdd.learn import collect_counts

    return collect_counts(squares.circuit, squares_dataset())


@pytest.fixture(scope="session")
def squares_idm(squares, squares_counts):
    from csdd.learn import idm_estimate

    return idm_estimate(squares.circuit, squares_counts, 1.0)


@pytest.fixture(scope="session")
def squares_ml(squares, squares_counts):
    from csdd.learn import ml_estimate

    return ml_estimate(squares.circuit, squares_counts)
