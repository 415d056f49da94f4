"""Shared fixtures: random model generators and enumeration oracles.

The oracles here are deliberately independent of the message-passing
implementations: joint probabilities come from routing a complete
assignment through the circuit and multiplying local parameters, and
marginals/completions from exhaustive enumeration over those joints.
The scalar references route or evaluate one row at a time, for the
bit-parallel passes to be compared against, and mark top-down one start
at a time, over a sweep that records each node's pinned point beside its
value, for the single-scan markers in ``csdd.infer``, which solve the
marked problems again.  The generic
greedy local LP and an all-``fsum`` point pass are kept for the one- and
two-state closed forms to be compared against bit for bit, the ratio
vertex with its own fill loop for the one that fills through the
greedy's, and so is the
MAP pass with the generic element loop and its own backtrack, for the
unrolled two-element step and the shared route walk.  The record-
and-pass model loader and the loop forms of ``check_local`` and the
credal-set constructor are kept for the one-pass loader and the unrolled
two-state checks to be compared against.  The credal MAP and robustness
passes that carry up to two attaining completions per node as sorted
tuples are kept for the tie-structure passes to be compared against.
The compiler's apply without the pair loop's inlined exits is kept for
the builder to be compared against node for node, and so are the
recursive formula walks, compile loop and constant builders, for the one
post-order walk and the block-wise constants.  The display experiment's
per-observation ``decide_segments`` (a point pass, one more per segment
with its target added, and a session's sign tests) is kept for the
batched column passes to be compared against, and the route walk that
scans the whole reversed cone for the route-only walk.
:func:`check_map_batch` holds the batched MAP and robustness answers to
these references and to the scalar ``map_query`` and ``robustness``.
"""

from __future__ import annotations

import math
from itertools import product
from random import Random
from typing import Iterable, Sequence

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
    validate_partitions,
)
from csdd.credal import (
    BUILD_TOL,
    CredalSetError,
    IntervalCredalSet,
    enumerate_vertices,
    normalize_reachable,
)
from csdd.formats import _MODE_CSDD, _MODE_PSDD, _MODE_SDD, ParseError, _float, _int
from csdd.formula import And, Const, Formula, Not, Or, Var, conj, disj
from csdd.experiment import SEGMENTS, SegmentDecision, hidden_var
from csdd.infer import EvidenceSession, InferenceError, _check_evidence, _check_target
from csdd.params import SUM_TOL, CsddParams, ParamError, PsddParams, check_local


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
    """``credal._lp`` by the generic greedy for every k:
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


def max_ratio_vertex_reference(cs: IntervalCredalSet, i: int, j: int, scale: float = 1.0):
    """``credal._max_ratio_vertex`` with its own fill loop: state ``i`` takes
    all it can, ``j`` and the rest stay at their lower bounds, and the mass
    left goes to the other states in order.  Returns ``(ratio, point)``."""
    from csdd.credal import EQ_TOL

    if i == j:
        raise CredalSetError("numerator and denominator states must differ")
    if not (0 <= i < cs.k and 0 <= j < cs.k):
        raise CredalSetError("state index out of range")
    if cs.lower[j] <= 0:
        raise CredalSetError(f"state {j} has zero lower probability; the ratio is unbounded")
    rest_lower = math.fsum(cs.lower[m] for m in range(cs.k) if m not in (i, j))
    theta_i = min(cs.upper[i], 1.0 - cs.lower[j] - rest_lower)
    theta = list(cs.lower)
    theta[i] = theta_i
    remaining = 1.0 - math.fsum(theta)
    if remaining > EQ_TOL:
        for m in range(cs.k):
            if m in (i, j):
                continue
            room = cs.upper[m] - theta[m]
            add = room if room < remaining else remaining
            theta[m] += add
            remaining -= add
            if remaining <= EQ_TOL:
                break
    return scale * theta_i / cs.lower[j], tuple(theta)


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


def decide_segments_reference(
    circuit: Circuit,
    psdd: PsddParams,
    csdd: CsddParams,
    observation: dict[int, bool],
    session: EvidenceSession | None = None,
) -> list[SegmentDecision]:
    """``experiment.decide_segments`` one observation at a time."""
    p_obs = point_pass_reference(circuit, psdd, observation)
    if p_obs <= 0.0:
        raise ValueError("observation has zero probability under the point table")
    if session is None:
        session = EvidenceSession(circuit, csdd, observation)
    else:
        session.check(circuit, csdd, observation)
    out = []
    for i in range(1, SEGMENTS + 1):
        var = hidden_var(i)
        p_on = point_pass_reference(circuit, psdd, {**observation, var: True}) / p_obs
        _check_target(circuit, var, True, observation)
        # conditional_sign's test at one half: positive beyond the numerical zero
        if session._sign_test(var, True, 0.5)[0] > session.zero:
            credal = "on"
        elif session._sign_test(var, False, 0.5)[0] > session.zero:
            credal = "off"
        else:
            credal = "indeterminate"
        out.append(SegmentDecision(i, p_on, p_on > 0.5, credal))
    return out


def map_reference(circuit: Circuit, params: PsddParams, evidence):
    """``infer.map_query`` with the generic element loop at every decision
    node and its own backtrack over the cone."""
    _check_evidence(circuit, evidence)
    nodes, cone, root = circuit.nodes, circuit.cone(), circuit.root
    values: dict[int, float] = {}
    choice: dict[int, int] = {}
    for nid in cone:
        node = nodes[nid]
        if node.kind == FALSE:
            values[nid] = 0.0
        elif node.kind == LITERAL:
            val = evidence.get(node.var)
            values[nid] = 1.0 if val is None or val == node.polarity else 0.0
        elif node.kind == TRUE:
            pmf = params.table[nid]
            val = evidence.get(node.var)
            if val is None:
                values[nid] = max(pmf)
                choice[nid] = 0 if pmf[0] >= pmf[1] else 1
            else:
                values[nid] = pmf[0] if val else pmf[1]
        else:
            theta = params.table.get(nid)
            if theta is None:
                values[nid] = 0.0
                continue
            best, arg = 0.0, None
            for idx, ((p, s), t) in enumerate(zip(node.elements, theta)):
                cand = values[p] * values[s] * t
                if arg is None or cand > best:
                    best, arg = cand, idx
            values[nid] = best
            choice[nid] = arg
    if values[root] <= 0.0:
        raise InferenceError("evidence has zero probability under the table")
    assignment = dict(evidence)
    chosen = {root}
    for nid in reversed(cone):
        if nid not in chosen:
            continue
        node = nodes[nid]
        if node.kind == DECISION:
            chosen.update(node.elements[choice[nid]])
        elif node.kind == LITERAL and node.var not in evidence:
            assignment[node.var] = node.polarity
        elif node.kind == TRUE and node.var not in evidence:
            assignment[node.var] = choice[nid] == 0
    return values[root], assignment


class SweepReference:
    """One lower or upper evidence pass: per-node value and pinned point."""

    __slots__ = ("values", "vertices")

    def __init__(self, size: int) -> None:
        self.values = [0.0] * size
        self.vertices: list[tuple[float, ...] | None] = [None] * size


def credal_sweep_reference(
    circuit: Circuit,
    params: CsddParams,
    evidence,
    ids: Sequence[int],
    sense: int,
) -> SweepReference:
    """One evidence's lower or upper sweep as a scalar loop, which each row
    of ``infer._Columns.sweep`` must equal, recording beside each value the
    point its local problem pinned.  Nodes outside ``ids`` read 0.0 and pin
    nothing."""
    from csdd.credal import _lp
    from csdd.infer import MAX

    sweep = SweepReference(len(circuit.nodes))
    values = sweep.values
    vertices = sweep.vertices
    table = params.table
    for nid in ids:
        node = circuit.nodes[nid]
        if node.kind == FALSE:
            values[nid] = 0.0
        elif node.kind == LITERAL:
            val = evidence.get(node.var)
            values[nid] = 1.0 if val is None or val == node.polarity else 0.0
        elif node.kind == TRUE and evidence.get(node.var) is None:
            values[nid] = 1.0
        else:
            if node.kind == TRUE:
                coeffs = (1.0, 0.0) if evidence[node.var] else (0.0, 1.0)
            else:
                coeffs = [values[p] * values[s] for p, s in node.elements]
            value, point = _lp(table[nid], coeffs, sense == MAX) if any(coeffs) else (0.0, None)
            values[nid] = value
            vertices[nid] = point
    return sweep


def mark_sweep_walk(trace, circuit: Circuit, start: int, low, up, sense: int) -> None:
    """``infer._mark_sweeps`` for one start, by a depth-first walk from it
    over :func:`credal_sweep_reference` sweeps, recording their points.

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


def mark_sweeps_reference(trace, circuit: Circuit, low, up, starts) -> None:
    """``infer._mark_sweeps`` by one :func:`mark_sweep_walk` per start, the
    lower starts first: per node the same points in the same order."""
    from csdd.infer import MAX, MIN

    for sense in (MIN, MAX):
        for nid, start_sense in starts:
            if start_sense == sense:
                mark_sweep_walk(trace, circuit, nid, low, up, sense)


def mark_map_walk(trace, circuit: Circuit, params: CsddParams, cm, evidence, start: int) -> None:
    """``infer._mark_map`` for one start, by a depth-first walk through
    every tied element; ``cm`` holds a ``_Tie`` per node id."""
    from csdd.credal import _lp

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
                if len(cm[nid].tied) == 1:
                    coeffs = (1.0, 0.0) if cm[nid].tied[0] == 0 else (0.0, 1.0)
                    trace.record(nid, _lp(cs, coeffs, True)[1])
            elif cm[nid].value > 0.0:
                coeffs = (1.0, 0.0) if val else (0.0, 1.0)
                trace.record(nid, _lp(cs, coeffs, True)[1])
        elif node.kind == DECISION and nid in params.table:
            cs = params.table[nid]
            for idx in cm[nid].tied:
                coeffs = tuple(1.0 if i == idx else 0.0 for i in range(cs.k))
                trace.record(nid, _lp(cs, coeffs, True)[1])
                stack.extend(node.elements[idx])


def _merge_reps(a, b, cap: int = 2):
    out = []
    for ra in a:
        for rb in b:
            merged = tuple(sorted(ra + rb))
            if merged not in out:
                out.append(merged)
            if len(out) >= cap:
                return out
    return out


def _dedup_reps(reps, cap: int = 2):
    out = []
    for rep in reps:
        if rep not in out:
            out.append(rep)
        if len(out) >= cap:
            break
    return out


class CredalMapReference:
    """Upper completion bounds M(n) plus tie structure for backtracking."""

    __slots__ = ("values", "tied", "reps")

    def __init__(self, size: int) -> None:
        self.values = [0.0] * size
        self.tied = [()] * size
        self.reps = [[] for _ in range(size)]

    def ties(self) -> list:
        """The bounds as ``infer._Tie`` records by node id, the count being
        how many completions were carried (at most two)."""
        from csdd.infer import _Tie

        return [_Tie(*fields) for fields in zip(self.values, self.tied, map(len, self.reps))]


def credal_map_reference(circuit: Circuit, params: CsddParams, evidence) -> CredalMapReference:
    """The credal MAP pass (``infer._Columns.credal_map`` on one evidence)
    carrying up to two attaining completions per node as sorted tuples,
    rebuilt at every node."""
    from csdd.infer import _close

    cm = CredalMapReference(len(circuit.nodes))
    table = params.table
    for nid in circuit.cone():
        node = circuit.nodes[nid]
        if node.kind == FALSE:
            continue
        if node.kind == LITERAL:
            val = evidence.get(node.var)
            if val is None:
                cm.values[nid] = 1.0
                cm.reps[nid] = [((node.var, node.polarity),)]
            else:
                cm.values[nid] = 1.0 if val == node.polarity else 0.0
                cm.reps[nid] = [()]
        elif node.kind == TRUE:
            cs = table[nid]
            val = evidence.get(node.var)
            if val is None:
                up_true, up_false = cs.upper
                cm.values[nid] = max(up_true, up_false)
                states = []
                if _close(up_true, cm.values[nid]):
                    states.append(0)
                if _close(up_false, cm.values[nid]):
                    states.append(1)
                cm.tied[nid] = tuple(states)
                cm.reps[nid] = [((node.var, st == 0),) for st in states]
            else:
                cm.values[nid] = cs.upper[0 if val else 1]
                cm.reps[nid] = [()]
        else:
            cs = table.get(nid)
            if cs is None:
                continue
            best, cands = 0.0, []
            for idx, (p, s) in enumerate(node.elements):
                value = cs.upper[idx] * cm.values[p] * cm.values[s]
                cands.append(value)
                if value > best:
                    best = value
            tied = tuple(
                idx for idx, value in enumerate(cands) if value > 0.0 and _close(value, best)
            )
            cm.values[nid] = best
            cm.tied[nid] = tied
            cm.reps[nid] = _dedup_reps(
                rep
                for p, s in (node.elements[idx] for idx in tied)
                for rep in _merge_reps(cm.reps[p], cm.reps[s])
            )
    return cm


def attaining_reference(
    circuit: Circuit, params: CsddParams, evidence, xstar, want_certificate: bool = True
):
    """``infer.robustness`` carrying up to two attaining completions per
    node as sorted tuples, and choosing the certificate's candidates by
    their own tie test.  Ties use ``infer._close``.  It tests consistency
    with ``is_consistent`` and sweeps the complete assignment over the
    whole cone, where ``robustness`` sweeps only its route, with
    :func:`credal_sweep_reference`, whose recorded points the certificate
    marks by :func:`mark_sweeps_reference`."""
    from csdd.infer import (
        EXACT,
        MAX,
        MIN,
        NOT_ROBUST,
        ExactnessCertificate,
        InferenceError,
        InferenceTrace,
        RobustnessVerdict,
        _check_evidence,
        _close,
        _label,
        _mark_map,
        _route,
        exactness_certificate,
    )
    from csdd.circuit import is_consistent

    _check_evidence(circuit, evidence)
    _check_evidence(circuit, xstar)
    total = dict(evidence)
    for var, val in xstar.items():
        if var in evidence:
            raise InferenceError(f"variable {var} is both queried and observed")
        total[var] = bool(val)
    if len(total) != circuit.vtree.var_count:
        raise InferenceError("evidence and completion must cover all variables")
    if not is_consistent(circuit, total):
        return RobustnessVerdict(1.0, NOT_ROBUST, (), InferenceTrace() if want_certificate else None,
                                 ExactnessCertificate(EXACT) if want_certificate else None)
    cm = credal_map_reference(circuit, params, evidence)
    nodes, cone, root = circuit.nodes, circuit.cone(), circuit.root
    low_xe = credal_sweep_reference(circuit, params, total, cone, MIN)
    realized, route = _route(circuit, total)
    on_route = set(route)
    table = params.table

    values = {}
    reps = {}
    # candidates kept for the certificate pass:
    #   ('A', j) stay on the realized branch, ('U', i, j, point) switch to i
    cands = {}
    for nid in cone:
        if nid not in on_route:
            continue
        node = nodes[nid]
        if node.kind == LITERAL:
            values[nid] = 1.0
            reps[nid] = [((node.var, node.polarity),)] if node.var in xstar else [()]
            continue
        if node.kind == TRUE:
            if node.var not in xstar:
                values[nid] = 1.0
                reps[nid] = [()]
                continue
            cs = table[nid]
            want_true = xstar[node.var]
            if want_true:
                l = cs.lower[0]
                flip = (1.0 - l) / l if l > 0 else math.inf
                point = (l, 1.0 - l)
            else:
                u = cs.upper[0]
                flip = u / (1.0 - u) if u < 1 else math.inf
                point = (u, 1.0 - u)
            value = max(1.0, flip)
            values[nid] = value
            rep_list = []
            if _close(1.0, value):
                rep_list.append(((node.var, want_true),))
            if flip >= value or _close(flip, value):
                rep_list = _dedup_reps(rep_list + [((node.var, not want_true),)])
            reps[nid] = rep_list
            cands[nid] = [(flip, ("T", point))]
            continue
        # realized decision node
        j = realized[nid]
        pj, sj = node.elements[j]
        cs = table[nid]
        local = []
        stay = values[pj] * values[sj]
        local.append((stay, ("A", j)))
        denom = low_xe.values[pj] * low_xe.values[sj]
        for i, (pi, si) in enumerate(node.elements):
            if i == j or cs.upper[i] <= 0.0:
                continue
            num = cm.values[pi] * cm.values[si]
            if num <= 0.0:
                continue
            if denom <= 0.0 or cs.lower[j] <= 0.0:
                local.append((math.inf, ("U", i, j, None)))
                continue
            ratio, point = max_ratio_vertex_reference(cs, i, j, num / denom)
            local.append((ratio, ("U", i, j, point)))
        best = max(value for value, _ in local)
        values[nid] = best
        rep_list = []
        for value, tag in local:
            if not (value == best or _close(value, best)):
                continue
            if tag[0] == "A":
                rep_list = _dedup_reps(rep_list + _merge_reps(reps[pj], reps[sj]))
            else:
                i = tag[1]
                pi, si = node.elements[i]
                rep_list = _dedup_reps(rep_list + _merge_reps(cm.reps[pi], cm.reps[si]))
        reps[nid] = rep_list
        cands[nid] = local
    value = values[root]

    trace = certificate = None
    if want_certificate:
        trace = InferenceTrace()
        map_starts = []
        sweep_starts = []
        marked = {root}
        for nid in reversed(cone):
            if nid not in marked:
                continue
            node = nodes[nid]
            best = values.get(nid)
            for cand_value, tag in cands.get(nid, ()):
                if not (cand_value >= best or _close(cand_value, best)):
                    continue
                if tag[0] == "T":
                    trace.record(nid, tag[1])
                elif tag[0] == "A":
                    marked.update(node.elements[tag[1]])
                else:
                    _, i, j, point = tag
                    trace.record(nid, point)
                    map_starts += node.elements[i]
                    sweep_starts += ((child, MIN) for child in node.elements[j])
        _mark_map(trace, circuit, params, cm.ties(), evidence, map_starts)
        up_xe = credal_sweep_reference(circuit, params, total, cone, MAX)
        mark_sweeps_reference(trace, circuit, low_xe, up_xe, sweep_starts)
        certificate = exactness_certificate(trace, circuit.connectivity())

    attaining = tuple(reps[root])
    return RobustnessVerdict(value, _label(value, attaining, xstar), attaining, trace, certificate)


def walk_route_reference(circuit: Circuit, pick):
    """``infer._walk_route`` as a scan of the whole reversed cone, marking
    the picked element's children of each decision node on the route."""
    nodes = circuit.nodes
    realized: dict[int, int] = {}
    on_route = {circuit.root}
    for nid in reversed(circuit.cone()):
        if nid in on_route and nodes[nid].kind == DECISION:
            j = realized[nid] = pick(nid)
            on_route.update(nodes[nid].elements[j])
    return realized, sorted(on_route)


def check_map_batch(
    circuit: Circuit,
    psdd: PsddParams,
    csdd: CsddParams,
    evidences: Sequence[dict[int, bool]],
    want_certificate: bool = False,
):
    """Assert that ``infer._map_robustness`` answers each evidence by
    ``repr`` as :func:`map_reference` (value and completion),
    :func:`credal_map_reference` (the ``_Tie`` record, value, ties and
    count, at every node of the cone), :func:`attaining_reference` (V, label
    and attaining set) and the scalar ``robustness`` of the completion's free
    variables without a certificate (the whole verdict).  With
    ``want_certificate``, the route step on the MAP choices' route and the
    evidence's row of the batch's credal MAP pass also certifies as the
    scalar call does (status and points).  Returns the batch's answers."""
    from csdd.infer import MIN, _Columns, _map_completion, _map_robustness, _robust_on_route, robustness

    batch = _Columns(circuit, evidences)
    got = _map_robustness(batch, psdd, csdd)
    rows, values, cone = batch.credal_map(csdd), batch.map(psdd), circuit.cone()
    assert len(got) == len(evidences) == len(rows)
    for j, (evidence, (value, completion, verdict)) in enumerate(zip(evidences, got)):
        assert repr((value, completion)) == repr(map_reference(circuit, psdd, evidence))
        row, ref = rows[j], credal_map_reference(circuit, csdd, evidence).ties()
        assert repr([row[n] for n in cone]) == repr([ref[n] for n in cone])
        xstar = {v: b for v, b in completion.items() if v not in evidence}
        want = attaining_reference(circuit, csdd, evidence, xstar)
        assert repr((verdict.value, verdict.label, verdict.attaining)) == repr(
            (want.value, want.label, want.attaining))
        assert repr(verdict) == repr(robustness(circuit, csdd, evidence, xstar, False))
        if want_certificate:
            found = _map_completion(circuit, psdd, values, j, evidence)[1]
            (low,) = zip(*_Columns(circuit, [completion]).sweep(csdd, MIN, found[1]))
            certified = _robust_on_route(circuit, csdd, evidence, xstar, completion, found, row, low,
                                         True)
            scalar = robustness(circuit, csdd, evidence, xstar, True)
            assert repr((certified.value, certified.label, certified.attaining, certified.certificate,
                         certified.trace.uses)) == repr((scalar.value, scalar.label, scalar.attaining,
                                                         scalar.certificate, scalar.trace.uses))
    return got


def check_partitions(
    circuit: Circuit,
    exhaustive_limit: int = 1024,
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
# the compiler's apply before its pair loop inlined its own exits, verbatim


_TT = {FALSE: 0b00, TRUE: 0b11}  # bit 1: value at var=true, bit 0: at var=false


def apply_reference(self, a: int, b: int, op: str) -> int:
    """``CircuitBuilder._apply`` before its pair loop inlined its own exits,
    verbatim, but for a terminal's truth table, which it derives from the
    terminal's kind and polarity by its own ``_TT`` (the builder keeps the table)."""
    # constants decide the result
    absorbing, neutral = (self._is_false, self._is_true) if op == "and" else (
        self._is_true, self._is_false)
    if absorbing[a] or neutral[b]:
        return a
    if absorbing[b] or neutral[a]:
        return b
    if a == b:
        return a
    key = (op, a, b) if a < b else (op, b, a)
    if key in self._apply_memo:
        return self._apply_memo[key]
    na, nb = self.circuit.node(a), self.circuit.node(b)
    if na.vtree != nb.vtree:
        raise CircuitError("apply operands must be normalized for the same vtree node")
    if na.kind != DECISION:
        ta = _TT[na.kind] if na.kind in _TT else (0b10 if na.polarity else 0b01)
        tb = _TT[nb.kind] if nb.kind in _TT else (0b10 if nb.polarity else 0b01)
        result = self._terminal(na.vtree, (ta & tb) if op == "and" else (ta | tb))
    else:
        raw: list[tuple[int, int]] = []
        for pa, sa in na.elements:
            for pb, sb in nb.elements:
                prime = self._apply(pa, pb, "and")
                if self._is_false[prime]:
                    continue
                raw.append((prime, self._apply(sa, sb, op)))
        # compression: merge elements that share a sub
        by_sub: dict[int, int] = {}
        for prime, sub in raw:
            if sub in by_sub:
                by_sub[sub] = self._apply(by_sub[sub], prime, "or")
            else:
                by_sub[sub] = prime
        result = self._decision(na.vtree, [(p, s) for s, p in by_sub.items()])
    self._apply_memo[key] = result
    return result


# ---------------------------------------------------------------------------
# the formula walks, compile loop and constant builders before the one
# post-order walk, verbatim: the per-class overrides as one dispatch each


def variables_reference(formula: Formula) -> frozenset[int]:
    """The per-class ``Formula.variables`` overrides before the walk."""
    if isinstance(formula, Const):
        return frozenset()
    if isinstance(formula, Var):
        return frozenset((formula.var,))
    if isinstance(formula, Not):
        return variables_reference(formula.child)
    return frozenset().union(*(variables_reference(c) for c in formula.children))


def evaluate_reference(formula: Formula, assignment) -> bool:
    """The per-class ``Formula.evaluate`` overrides before the walk."""
    if isinstance(formula, Const):
        return formula.value
    if isinstance(formula, Var):
        return bool(assignment[formula.var])
    if isinstance(formula, Not):
        return not evaluate_reference(formula.child, assignment)
    if isinstance(formula, And):
        return all(evaluate_reference(c, assignment) for c in formula.children)
    return any(evaluate_reference(c, assignment) for c in formula.children)


def compile_reference(self, formula: Formula) -> int:
    """``CircuitBuilder._compile`` before the post-order fold."""
    if isinstance(formula, Const):
        return self.true_at(self.vtree.root) if formula.value else self.false_at(self.vtree.root)
    if isinstance(formula, Var):
        return self.literal(formula.var, True)
    if isinstance(formula, Not):
        return self.negate(self._compile(formula.child))
    if isinstance(formula, (And, Or)):
        op = "and" if isinstance(formula, And) else "or"
        if not formula.children:
            return self._compile(Const(op == "and"))
        ids = [self._compile(child) for child in formula.children]
        nodes, rank = self.circuit.nodes, self._rank
        ids.sort(key=lambda nid: rank[nodes[nid].vtree])
        acc = ids[0]
        for nid in ids[1:]:
            acc = self.apply(acc, nid, op)
        return acc
    raise CircuitError(f"unknown formula node {formula!r}")


def true_at_reference(self, vid: int) -> int:
    """``CircuitBuilder.true_at`` before the post-order block."""
    key = (vid, True)
    if key in self._constant_memo:
        return self._constant_memo[key]
    if self.vtree.is_leaf(vid):
        nid = self._terminal(vid, 0b11)
    else:
        nid = self._decision(
            vid, [(self.true_at(self.vtree.left(vid)), self.true_at(self.vtree.right(vid)))]
        )
    self._constant_memo[key] = nid
    return nid


def false_at_reference(self, vid: int) -> int:
    """``CircuitBuilder.false_at`` before the right-spine walk."""
    key = (vid, False)
    if key in self._constant_memo:
        return self._constant_memo[key]
    if self.vtree.is_leaf(vid):
        nid = self._terminal(vid, 0b00)
    else:
        nid = self._decision(
            vid, [(self.true_at(self.vtree.left(vid)), self.false_at(self.vtree.right(vid)))]
        )
    self._constant_memo[key] = nid
    return nid


# ---------------------------------------------------------------------------
# the model loader and parameter rules before the one-pass loader, verbatim


def _lines(text: str) -> Iterable[tuple[int, list[str]]]:
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line == "c" or line.startswith("c "):
            continue
        yield lineno, line.split()


def loads_reference(text: str, vtree: Vtree, mode: str):
    count = None
    order: list[int] = []                     # file ids in appearance order
    raw: dict[int, tuple] = {}                # file id -> parsed record
    header = mode
    for lineno, toks in _lines(text):
        if toks[0] == header:
            if count is not None:
                raise ParseError(lineno, "duplicate header")
            if len(toks) != 2:
                raise ParseError(lineno, f"header is '{header} <count>'")
            count = _int(toks[1], lineno, "node count")
            continue
        if count is None:
            raise ParseError(lineno, f"missing '{header} <count>' header")
        kind = toks[0]
        if kind not in ("F", "T", "L", "D"):
            raise ParseError(lineno, f"unknown node line {kind!r}")
        fid = _int(toks[1], lineno, "node id")
        if fid in raw:
            raise ParseError(lineno, f"duplicate node id {fid}")
        if kind == "F":
            if len(toks) != 2:
                raise ParseError(lineno, "false line is 'F <id>'")
            raw[fid] = ("F", lineno)
        elif kind == "T":
            if mode == _MODE_SDD:
                if len(toks) != 2:
                    raise ParseError(lineno, "true line is 'T <id>'")
                raw[fid] = ("T", lineno)
            else:
                want = 5 if mode == _MODE_PSDD else 6
                if len(toks) != want:
                    raise ParseError(lineno, f"true line has {want} fields in a {mode} file")
                vid = _int(toks[2], lineno, "vtree id")
                var = _int(toks[3], lineno, "variable")
                numbers = [_float(t, lineno, "parameter") for t in toks[4:]]
                raw[fid] = ("Tp", lineno, vid, var, numbers)
        elif kind == "L":
            if len(toks) != 4:
                raise ParseError(lineno, "literal line is 'L <id> <vtree> <literal>'")
            vid = _int(toks[2], lineno, "vtree id")
            lit = _int(toks[3], lineno, "literal")
            if lit == 0:
                raise ParseError(lineno, "literal 0 is invalid")
            raw[fid] = ("L", lineno, vid, lit)
        else:
            step = {"sdd": 2, "psdd": 3, "csdd": 4}[mode]
            if len(toks) < 4:
                raise ParseError(lineno, "decision line is 'D <id> <vtree> <k> ...'")
            vid = _int(toks[2], lineno, "vtree id")
            k = _int(toks[3], lineno, "element count")
            if k < 1:
                raise ParseError(lineno, "decision nodes need at least one element")
            rest = toks[4:]
            if len(rest) != k * step:
                raise ParseError(lineno, f"expected {k * step} element fields, got {len(rest)}")
            elements = []
            numbers = []
            for e in range(k):
                chunk = rest[e * step:(e + 1) * step]
                p = _int(chunk[0], lineno, "prime id")
                s = _int(chunk[1], lineno, "sub id")
                for ref in (p, s):
                    if ref not in raw:
                        raise ParseError(lineno, f"forward reference to node {ref}")
                elements.append((p, s))
                numbers.extend(_float(t, lineno, "parameter") for t in chunk[2:])
            raw[fid] = ("D", lineno, vid, elements, numbers)
        order.append(fid)
    if count is None:
        raise ParseError(1, f"missing '{header} <count>' header")
    if len(order) != count:
        raise ParseError(1, f"header declares {count} nodes, found {len(order)}")

    # resolve the leaf vtree node of bare T/F lines from their use sites
    leaf_pin: dict[int, int] = {}
    for fid in order:
        rec = raw[fid]
        if rec[0] != "D":
            continue
        _, lineno, vid, elements, _ = rec
        if not 0 <= vid < vtree.node_count or vtree.is_leaf(vid):
            raise ParseError(lineno, f"vtree node {vid} is not internal")
        for ref, side in [(p, vtree.left(vid)) for p, _ in elements] + [
            (s, vtree.right(vid)) for _, s in elements
        ]:
            rec_ref = raw[ref]
            if rec_ref[0] in ("F", "T") and vtree.is_leaf(side):
                if ref not in leaf_pin:
                    leaf_pin[ref] = side
                elif leaf_pin[ref] != side:
                    raise ParseError(
                        rec_ref[1], f"constant node {ref} used under two different leaves"
                    )

    circuit = Circuit(vtree)
    pending: dict[int, tuple[int, list[float]]] = {}  # node -> (line, per-state numbers)
    remap: dict[int, int] = {}
    for fid in order:
        rec = raw[fid]
        tag, lineno = rec[0], rec[1]
        if tag in ("F", "T"):
            leaf = leaf_pin.get(fid)
            if leaf is None:
                if vtree.var_count == 1:
                    leaf = vtree.root
                else:
                    raise ParseError(lineno, f"cannot infer the leaf of constant node {fid}")
            remap[fid] = circuit.add_false(leaf) if tag == "F" else circuit.add_true(leaf)
        elif tag == "Tp":
            _, _, vid, var, numbers = rec
            if not 0 <= vid < vtree.node_count or not vtree.is_leaf(vid):
                raise ParseError(lineno, f"vtree node {vid} is not a leaf")
            if vtree.var(vid) != var:
                raise ParseError(lineno, f"leaf {vid} holds variable {vtree.var(vid)}, not {var}")
            nid = circuit.add_true(vid)
            remap[fid] = nid
            # the states (var true, var false) as a D line lists them:
            # theta, 1 - theta in a psdd file, l, u, 1 - u, 1 - l in a csdd one
            pending[nid] = (lineno, numbers + [1.0 - x for x in reversed(numbers)])
        elif tag == "L":
            _, _, vid, lit = rec
            var = abs(lit)
            if var > vtree.var_count:
                raise ParseError(lineno, f"literal variable {var} outside the vtree")
            if vtree.leaf_of(var) != vid:
                raise ParseError(lineno, f"variable {var} lives at leaf {vtree.leaf_of(var)}, not {vid}")
            remap[fid] = circuit.add_literal(var, lit > 0)
        else:
            _, _, vid, elements, numbers = rec
            mapped = [(remap[p], remap[s]) for p, s in elements]
            try:
                nid = circuit.add_decision(vid, mapped)
            except ValueError as exc:
                raise ParseError(lineno, str(exc)) from None
            if nid != len(circuit.nodes) - 1:
                raise ParseError(lineno, "duplicate decision node (same vtree and elements)")
            remap[fid] = nid
            if mode != _MODE_SDD:
                pending[nid] = (lineno, numbers)
    # add_decision has checked id precedence and vtree normalization node by
    # node, so the partition check is the only whole-circuit structure pass
    root_fid = order[-1]
    circuit.set_root(remap[root_fid])
    try:
        validate_partitions(circuit)
    except ValueError as exc:
        raise ParseError(raw[root_fid][1], str(exc)) from None
    if mode == _MODE_SDD:
        return circuit
    # the checks of PsddParams/CsddParams.validate, node by node, plus the
    # file's own rule for the slots of unsatisfiable nodes
    false = circuit.false_ids()
    point_table: dict[int, tuple[float, ...]] = {}
    credal_table: dict[int, IntervalCredalSet] = {}
    for nid, (lineno, numbers) in pending.items():
        if nid in false:
            if any(numbers):
                raise ParseError(lineno, "unsatisfiable node must carry all-zero parameters")
            continue
        try:
            if mode == _MODE_PSDD:
                check_local(circuit, nid, numbers)
                point_table[nid] = tuple(numbers)
            else:
                lower, upper = tuple(numbers[0::2]), tuple(numbers[1::2])
                check_local(circuit, nid, lower, upper)
                credal_table[nid] = IntervalCredalSet(lower, upper)
        except ValueError as exc:
            raise ParseError(lineno, str(exc)) from None
    if mode == _MODE_PSDD:
        return circuit, PsddParams(point_table)
    return circuit, CsddParams(credal_table)


def check_local_reference(
    circuit: Circuit, nid: int, lower: Sequence[float], upper: Sequence[float] | None = None
) -> None:
    """Raise :class:`ParamError` unless these are valid local parameters of ``nid``.

    ``lower`` alone is a point pmf: finite, non-negative and summing to one.
    With ``upper`` each state has the interval ``0 <= lower <= upper <= 1``.
    A state whose sub is unsatisfiable must be exactly 0 (``[0, 0]``).
    """
    node = circuit.nodes[nid]
    k = 2 if node.kind == TRUE else len(node.elements)
    if len(lower) != k:
        raise ParamError(f"node {nid}: expected {k} states, got {len(lower)}")
    if upper is None:
        if not all(map(math.isfinite, lower)):
            raise ParamError(f"node {nid}: probabilities {tuple(lower)} are not all finite")
        if min(lower) < 0.0:
            raise ParamError(f"node {nid}: negative probability")
        try:
            total = math.fsum(lower)
        except OverflowError:  # finite entries whose partial sums pass 1e308
            total = math.inf
        if not abs(total - 1.0) <= SUM_TOL:
            raise ParamError(f"node {nid}: probabilities sum to {total}")
        upper = lower
    else:
        for i, (l, u) in enumerate(zip(lower, upper)):
            if not 0.0 <= l <= u <= 1.0:
                raise ParamError(f"node {nid}: state {i}: invalid interval [{l}, {u}]")
        if len(upper) != k:
            raise ParamError(f"node {nid}: expected {k} upper bounds, got {len(upper)}")
    false = circuit.false_ids()
    for i, (_, s) in enumerate(node.elements):  # a TRUE terminal has no sub
        if upper[i] != 0.0 and s in false:  # every entry is non-negative by now
            raise ParamError(f"node {nid}: state {i} has a false sub but probability up to {upper[i]}")


def credal_set_reference(lower, upper) -> None:
    """``IntervalCredalSet.__post_init__`` by its generic loops: raises on a set it refuses."""
    if len(lower) != len(upper) or not lower:
        raise CredalSetError("lower/upper must be equal-length, non-empty vectors")
    for i, (l, u) in enumerate(zip(lower, upper)):
        if not (-BUILD_TOL <= l <= u <= 1 + BUILD_TOL):
            raise CredalSetError(f"state {i}: invalid interval [{l}, {u}]")
    sl, su = math.fsum(lower), math.fsum(upper)
    if sl > 1 + BUILD_TOL or su < 1 - BUILD_TOL:
        raise CredalSetError(f"empty credal set: sum(lower)={sl}, sum(upper)={su}")
    for i in range(len(lower)):
        rest_u = su - upper[i]
        rest_l = sl - lower[i]
        if lower[i] + rest_u < 1 - BUILD_TOL or upper[i] + rest_l > 1 + BUILD_TOL:
            raise CredalSetError(f"state {i}: bounds are not reachable")


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
