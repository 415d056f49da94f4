"""Inference over point and credal parameter tables.

Precise queries (probability of evidence, most probable completion) are
single bottom-up passes.  Credal queries replace each decision-node sum
with a local linear program over the node's credal set:

* lower/upper probability of evidence is exact for every topology;
* lower/upper conditional probability of a single variable runs the
  evidence pass inside a sign test whose crossing in [0, 1] is found by a
  safeguarded Illinois (regula falsi) search: the sign stays positive at
  the bracket's left edge and non-positive at its right edge, and the
  left edge is returned, so the answer never passes the crossing;
  an :class:`EvidenceSession` runs the evidence passes once per
  evidence, takes consistency from its upper pass (a truth pass runs only
  when that is 0) and runs the sign test itself for every target (each
  target's spine and sign-test plan are cached on the circuit);
* robustness checks whether one most-probable completion stays optimal
  for every parameter table between the bounds: a credal MAP pass and a
  truth pass over the cone, then the completion's sweeps, tied options and
  completion counts (at most 2) over the completion's route only (under
  a memo scope, the route :func:`map_query` walked stands in for the
  truth pass).

On circuits with shared structure the conditional and robustness passes
may optimize one shared credal set toward different extreme points in
different subproblems.  The result is then an outer bound: never tighter
than the truth.  A certificate records which extreme point each local
program used, solving again the sweep problems it marks (sweeps carry
values only), and flags shared nodes with divergent choices; a brute-force
refinement enumerates their extreme points to recover the exact value.

Bottom-up passes scan the cone, or a route, forward, children first.  The
top-down passes after them (the MAP backtrack, a completion's route and
the certificates' marking) scan it in reverse, pushing marks from each
marked node to its children, so a certificate marks in one top-down pass
however many nodes it starts from.  A robustness verdict's attaining
completions are read off the tied options by a depth-first walk.

A node's result in a bottom-up pass depends only on the table and on the
evidence under its vtree node.  So a batch of credal queries on one
interval table may open a private ``_PassMemo`` scope around its calls.
While it is open, the passes that solve local LPs (the evidence sweeps,
the sign tests and the credal MAP pass) on its circuit, root and table
return per node and evidence under it what a pass computed there before,
and :func:`robustness` takes the route :func:`map_query` walked for the
same completion instead of running a truth pass.  Calls on any other
circuit, root or table do not consult it.  The display experiment's
``run_cell`` opens one per cell, with unchanged answers; outside a scope
nothing is reused.
"""

from __future__ import annotations

import math
from contextvars import ContextVar
from dataclasses import dataclass
from functools import partial
from itertools import product
from typing import Iterable, Mapping, Sequence

from .circuit import (
    Circuit,
    ConnectivityReport,
    DECISION,
    FALSE,
    LITERAL,
    TRUE,
    _truth_bits,
    is_consistent,
)
from .credal import (
    _max_fast,
    _max_ratio_vertex,
    _min_fast,
    enumerate_vertices,
)
from .params import CsddParams, PsddParams

__all__ = [
    "InferenceError",
    "Query",
    "InferenceTrace",
    "ExactnessCertificate",
    "ConditionalResult",
    "EvidenceSession",
    "RobustnessVerdict",
    "EXACT",
    "POSSIBLY_OUTER",
    "ROBUST",
    "WEAKLY_ROBUST",
    "NOT_ROBUST",
    "marginal",
    "joint_probability",
    "map_query",
    "lower_marginal",
    "upper_marginal",
    "conditional_sign",
    "lower_conditional",
    "upper_conditional",
    "credal_map_upper",
    "robustness",
    "exactness_certificate",
    "strong_extension_oracle",
    "brute_force_exact",
]

ZERO_TOL = 1e-12        # numerical zero; sign tests scale it by the upper evidence probability
TIE_REL = 1e-12         # relative tolerance for max ties
V_TOL = 1e-9            # robustness verdict threshold on V - 1
DEFAULT_BISECTION_TOL = 1e-6  # bracket width at which the conditional search stops
MIN_CROSSING_TOL = 2.0 ** -50  # finest bracket whose edges floats can still split
ORACLE_CAP = 10 ** 6
ORACLE_VAR_LIMIT = 16

EXACT = "exact"
POSSIBLY_OUTER = "possibly_outer"
ROBUST = "robust"
WEAKLY_ROBUST = "weakly_robust"
NOT_ROBUST = "not_robust"

MIN, MAX = 0, 1


class InferenceError(ValueError):
    """Invalid query (inconsistent evidence, bad target, guard overrun)."""


@dataclass(frozen=True)
class Query:
    """A reusable query description for the oracle and brute-force paths.

    ``kind`` is one of ``marginal``, ``conditional`` (lower conditional of
    ``target``), ``map`` or ``robustness``.  Assignments are stored as
    sorted (var, value) tuples so queries hash.
    """

    kind: str
    evidence: tuple[tuple[int, bool], ...]
    target: tuple[int, bool] | None = None
    xstar: tuple[tuple[int, bool], ...] | None = None

    @classmethod
    def make(cls, kind, evidence: Mapping[int, bool], target=None, xstar=None) -> "Query":
        return cls(
            kind,
            tuple(sorted((int(v), bool(b)) for v, b in evidence.items())),
            None if target is None else (int(target[0]), bool(target[1])),
            None if xstar is None else tuple(sorted((int(v), bool(b)) for v, b in xstar.items())),
        )

    @property
    def evidence_dict(self) -> dict[int, bool]:
        return dict(self.evidence)

    @property
    def xstar_dict(self) -> dict[int, bool] | None:
        return None if self.xstar is None else dict(self.xstar)


class InferenceTrace:
    """Per-query record of the extreme point every local program used.

    ``uses[node]`` holds the distinct optimizing points seen for that
    node's credal set; a node whose value did not pin any point (e.g. an
    unobserved terminal) records nothing; a sweep's points are re-solved
    where marked.  ``sigma[(node, element)]`` stores the sibling marginal
    consumed by a conditional pass.
    """

    def __init__(self) -> None:
        self.uses: dict[int, list[tuple[float, ...]]] = {}
        self.sigma: dict[tuple[int, int], tuple[str, float]] = {}

    def record(self, nid: int, point: tuple[float, ...] | None) -> None:
        if point is None:
            return
        seen = self.uses.setdefault(nid, [])
        for other in seen:
            if all(abs(a - b) <= ZERO_TOL for a, b in zip(other, point)):
                return
        seen.append(tuple(point))

    def conflicted(self, multiplicity: Mapping[int, int]) -> tuple[int, ...]:
        return tuple(
            nid
            for nid, points in sorted(self.uses.items())
            if multiplicity.get(nid, 1) > 1 and len(points) > 1
        )


@dataclass(frozen=True)
class ExactnessCertificate:
    status: str
    conflicted: tuple[int, ...] = ()

    @property
    def is_exact(self) -> bool:
        return self.status == EXACT


def exactness_certificate(trace: InferenceTrace, report: ConnectivityReport) -> ExactnessCertificate:
    """Exact unless a shared node's credal set was pinned to two extreme points.

    Singly connected circuits have no shared nodes, hence always come out
    exact.
    """
    conflicted = trace.conflicted(report.multiplicity)
    return ExactnessCertificate(POSSIBLY_OUTER if conflicted else EXACT, conflicted)


@dataclass
class ConditionalResult:
    value: float
    iterations: int
    bracket: tuple[float, float]
    trace: InferenceTrace | None
    certificate: ExactnessCertificate | None


@dataclass
class RobustnessVerdict:
    """V, its label, and ``attaining``: at most two completions attaining V
    (a :func:`brute_force_exact` refinement joins its leaves', up to four).

    Each completion is a sorted tuple of (var, value) pairs over the
    unobserved variables, ``xstar`` first when it attains.  On ``xstar``'s
    route, keeping its element or state comes before switching to another
    element, by index; below a switch, tied elements go by index and a
    terminal's true state before its false one; within one element the
    prime's completion varies slowest.
    """

    value: float
    label: str
    attaining: tuple[tuple[tuple[int, bool], ...], ...]
    trace: InferenceTrace | None
    certificate: ExactnessCertificate | None


# ---------------------------------------------------------------------------
# precise queries


def _check_evidence(circuit: Circuit, evidence: Mapping[int, bool]) -> None:
    for var in evidence:
        if not 1 <= var <= circuit.vtree.var_count:
            raise InferenceError(f"evidence variable {var} is not in the circuit")


class _PassMemo:
    """A scope, ``with _PassMemo(circuit, params):``, in which the credal
    passes on this circuit, root and interval table reuse their results.

    In a decomposable circuit a node's result depends only on the table and
    on the evidence over the variables under its vtree node.  Each pass
    keeps one dict keyed by the node id and the evidence masked to those
    variables: evidence packs into ``pos | neg << n`` (bit ``v - 1`` of
    ``pos``/``neg`` set when variable ``v`` is observed true/false), and a
    node's mask covers its variables in both halves.  Where a pass would
    solve a local problem again (a decision node with a credal set and, in
    the sweeps, an observed TRUE terminal) it returns the stored floats (a
    sweep's value alone, under ``("sweep", sense)`` for cone and route), so
    the answers are bit for bit those without a memo.  :func:`map_query`
    leaves its completion's route in ``routes``, keyed by the packed
    assignment, for :func:`robustness` to pop: a route depends only on the
    circuit, its root and the assignment, so any table may use it.

    The open memo is a context variable, so threads do not see each
    other's; leaving a scope, also through an exception, reopens the one
    around it.  It grows with every distinct evidence it sees: open one for
    a batch of queries on one table and drop it with the batch.
    """

    __slots__ = ("circuit", "root", "params", "routes", "masks", "passes", "_n", "_tokens")

    def __init__(self, circuit: Circuit, params: CsddParams) -> None:
        vtree = circuit.vtree
        self.circuit, self.root, self.params = circuit, circuit.root, params
        n = self._n = vtree.var_count
        self.masks = [m | m << n for m in (vtree.mask(node.vtree) for node in circuit.nodes)]
        self.passes: dict[tuple, dict] = {}
        self.routes: dict[int, tuple[dict[int, int], list[int]]] = {}
        self._tokens: list = []

    def __enter__(self) -> "_PassMemo":
        self._tokens.append(_OPEN_MEMO.set(self))
        return self

    def __exit__(self, *exc) -> None:
        _OPEN_MEMO.reset(self._tokens.pop())

    def pack(self, evidence: Mapping[int, bool]) -> int:
        """The evidence as ``pos | neg << n``, the key its entries take masked."""
        n, key = self._n, 0
        for var, val in evidence.items():
            if val is not None and 1 <= var <= n:  # no node reads any other variable
                key |= 1 << (var - 1 if val else var - 1 + n)
        return key


_OPEN_MEMO: ContextVar[_PassMemo | None] = ContextVar("csdd_pass_memo", default=None)


def _open_memo(circuit: Circuit, params: CsddParams | None = None) -> _PassMemo | None:
    """The open memo if it was built for this circuit object, its current root
    and, when ``params`` is given, this table object; else ``None``."""
    memo = _OPEN_MEMO.get()
    if memo is None or memo.circuit is not circuit or memo.root != circuit.root:
        return None
    return memo if params is None or memo.params is params else None


def _reuse(
    circuit: Circuit, params: CsddParams, kind: tuple, evidence: Mapping[int, bool]
) -> tuple[dict | None, Sequence[int], int]:
    """The open memo's entries of pass ``kind``, its node masks and the packed
    evidence; ``(None, (), 0)`` when none is open for this circuit, root and table."""
    memo = _open_memo(circuit, params)
    if memo is None:
        return None, (), 0
    return memo.passes.setdefault(kind, {}), memo.masks, memo.pack(evidence)


def _point_pass(
    circuit: Circuit,
    params: PsddParams,
    evidence: Mapping[int, bool],
    ids: Sequence[int],
    values: dict[int, float],
) -> dict[int, float]:
    """Point-table value of each node of ``ids`` (children first) under the
    evidence, written into ``values``, which holds every child outside ``ids``
    at its value under the evidence."""
    nodes = circuit.nodes
    for nid in ids:
        node = nodes[nid]
        if node.kind == FALSE:
            values[nid] = 0.0
        elif node.kind == LITERAL:
            val = evidence.get(node.var)
            values[nid] = 1.0 if val is None or val == node.polarity else 0.0
        elif node.kind == TRUE:
            val = evidence.get(node.var)
            pmf = params.table[nid]
            values[nid] = 1.0 if val is None else (pmf[0] if val else pmf[1])
        else:
            theta = params.table.get(nid)
            if theta is None:  # unsatisfiable decision node, no distribution
                values[nid] = 0.0
            elif len(theta) == 2:
                # two products of probabilities: fsum rounds them as one
                # addition does, and "+ 0.0" gives its +0.0 for a zero sum
                (p0, s0), (p1, s1) = node.elements
                a, b = values[p0] * values[s0] * theta[0], values[p1] * values[s1] * theta[1]
                values[nid] = a + b + 0.0
            else:
                values[nid] = math.fsum(
                    values[p] * values[s] * t for (p, s), t in zip(node.elements, theta)
                )
    return values


def marginal(circuit: Circuit, params: PsddParams, evidence: Mapping[int, bool]) -> float:
    """Probability of the (partial) evidence under the point table."""
    _check_evidence(circuit, evidence)
    return _point_pass(circuit, params, evidence, circuit.cone(), {})[circuit.root]


def _spine_marginal(
    circuit: Circuit,
    params: PsddParams,
    evidence: Mapping[int, bool],
    values: Mapping[int, float],
    var: int,
    val: bool,
) -> float:
    """``marginal(circuit, params, {**evidence, var: val})`` from ``values``,
    the node values of the pass on ``evidence``: only the nodes on ``var``'s
    spine are recomputed, by the same per-node code, so the result is
    bit-identical."""
    spine = circuit.spine(var)
    return _point_pass(circuit, params, {**evidence, var: val}, spine, dict(values))[circuit.root]


def joint_probability(circuit: Circuit, params: PsddParams, assignment: Mapping[int, bool]) -> float:
    """Probability of a complete assignment."""
    if len(assignment) != circuit.vtree.var_count:
        raise InferenceError("joint probability needs a complete assignment")
    return marginal(circuit, params, assignment)


def map_query(
    circuit: Circuit,
    params: PsddParams,
    evidence: Mapping[int, bool],
) -> tuple[float, dict[int, bool]]:
    """Most probable completion of the unobserved variables.

    Returns ``(P(x*, e), x*)``; ties break toward the lowest element index
    and toward the true state of a terminal.  Requires consistent evidence.
    Under a :class:`_PassMemo` scope for the circuit and its root, the
    completion's route, as :func:`_route` gives it, is left in the memo's
    ``routes`` for :func:`robustness`: every chosen element has a positive
    value, so its prime is the one prime true under the evidence and the
    completion.
    """
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
            elif len(theta) == 2:
                # the loop below unrolled: the first of two equal products wins
                (p0, s0), (p1, s1) = node.elements
                a, b = values[p0] * values[s0] * theta[0], values[p1] * values[s1] * theta[1]
                values[nid], choice[nid] = (b, 1) if b > a else (a, 0)
            else:
                best, arg = 0.0, None
                for idx, ((p, s), t) in enumerate(zip(node.elements, theta)):
                    cand = values[p] * values[s] * t
                    if arg is None or cand > best:
                        best, arg = cand, idx
                values[nid] = best
                choice[nid] = arg
    if values[root] <= 0.0:
        raise InferenceError("evidence has zero probability under the table")
    found = _walk_route(circuit, choice.__getitem__)
    assignment = dict(evidence)
    for nid in reversed(found[1]):  # top-down, so keys come in reverse cone order
        node = nodes[nid]
        if node.kind == LITERAL and node.var not in evidence:
            assignment[node.var] = node.polarity
        elif node.kind == TRUE and node.var not in evidence:
            assignment[node.var] = choice[nid] == 0
    memo = _open_memo(circuit)
    if memo is not None:
        memo.routes[memo.pack(assignment)] = found
    return values[root], assignment


# ---------------------------------------------------------------------------
# credal evidence passes


def _credal_sweep(
    circuit: Circuit,
    params: CsddParams,
    evidence: Mapping[int, bool],
    ids: Sequence[int],
    sense: int,
) -> list[float]:
    """Evidence value of each node of ``ids``, children first; nodes outside
    read 0.0.  Under a complete assignment its route gives the cone's values:
    off it, every prime is false and sweeps to 0.0."""
    values = [0.0] * len(circuit.nodes)
    table = params.table
    opt = _min_fast if sense == MIN else _max_fast
    memo, masks, ev = _reuse(circuit, params, ("sweep", sense), evidence)
    for nid in ids:
        node = circuit.nodes[nid]
        if node.kind == LITERAL:
            val = evidence.get(node.var)
            values[nid] = 1.0 if val is None or val == node.polarity else 0.0
        elif node.kind == TRUE and evidence.get(node.var) is None:
            values[nid] = 1.0
        elif node.kind != FALSE:  # FALSE reads 0.0
            if memo is not None:
                key = nid, ev & masks[nid]
                hit = memo.get(key)
                if hit is not None:
                    values[nid] = hit
                    continue
            value = values[nid] = _sweep_problem(table, nid, node, evidence, values, opt)[0]
            if memo is not None:
                memo[key] = value
    return values


def _sweep_problem(table, nid: int, node, evidence: Mapping[int, bool], values, opt):
    """``(value, point)`` of a sweep's problem at an observed TRUE terminal or
    a decision node, children at ``values``; ``(0.0, None)`` on zero coefficients."""
    if node.kind == TRUE:
        coeffs = (1.0, 0.0) if evidence[node.var] else (0.0, 1.0)
    else:
        coeffs = [values[p] * values[s] for p, s in node.elements]
    return opt(table[nid], coeffs) if any(coeffs) else (0.0, None)


def lower_marginal(circuit: Circuit, params: CsddParams, evidence: Mapping[int, bool]) -> float:
    """Exact lower probability of the evidence, any topology."""
    _check_evidence(circuit, evidence)
    return _credal_sweep(circuit, params, evidence, circuit.cone(), MIN)[circuit.root]


def upper_marginal(circuit: Circuit, params: CsddParams, evidence: Mapping[int, bool]) -> float:
    """Exact upper probability of the evidence, any topology."""
    _check_evidence(circuit, evidence)
    return _credal_sweep(circuit, params, evidence, circuit.cone(), MAX)[circuit.root]


def _mark_sweeps(
    trace: InferenceTrace,
    circuit: Circuit,
    params: CsddParams,
    evidence: Mapping[int, bool],
    ids: Sequence[int],
    low: Sequence[float],
    up: Sequence[float],
    starts: Sequence[tuple[int, int]],
) -> None:
    """Record the extreme points that realize the swept values at ``starts``.

    ``low``/``up`` sweep ``evidence`` over ``ids``, which must hold every
    node a mark reaches; ``starts`` holds (node, sense) pairs.  Marks run
    top-down, one reverse scan per sense, solving each marked sweep problem
    again.  For a lower value, elements whose contribution vanishes only
    because a child's lower bound is zero pin that child too (the zero must
    be attained); contributions that are zero for every member are free.
    """
    table = params.table
    for sense, values in ((MIN, low), (MAX, up)):
        marked = {nid for nid, start_sense in starts if start_sense == sense}
        if not marked:
            continue
        opt = _min_fast if sense == MIN else _max_fast
        for nid in reversed(ids):
            if nid not in marked:
                continue
            node = circuit.nodes[nid]
            if node.kind == DECISION or node.kind == TRUE and evidence.get(node.var) is not None:
                trace.record(nid, _sweep_problem(table, nid, node, evidence, values, opt)[1])
            for p, s in node.elements:
                vp, vs = values[p], values[s]
                if vp > 0.0 and vs > 0.0:
                    marked.update((p, s))
                elif sense == MIN:
                    if vp == 0.0 and up[p] > 0.0:
                        marked.add(p)
                    elif vp > 0.0 and vs == 0.0 and up[s] > 0.0:
                        marked.add(s)


# ---------------------------------------------------------------------------
# conditional queries


def _sign_plan(circuit: Circuit, var: int) -> list[tuple]:
    """The structure of ``var``'s sign test, kept next to its spine until the
    root moves: per spine node, children first, its id, its kind and, for a
    literal, its polarity; for a decision node, per element, its query-side
    child (on the spine), its sibling and whether the sibling is FALSE."""
    plan = circuit._sign_plans.get(var)
    if plan is None:
        nodes, on_spine = circuit.nodes, set(circuit.spine(var))
        plan = circuit._sign_plans[var] = []
        for nid in circuit.spine(var):
            node = nodes[nid]
            sides = node.polarity
            if node.kind == DECISION:
                pairs = node.elements if node.elements[0][0] in on_spine else (
                    (s, p) for p, s in node.elements)
                sides = tuple((u, w, nodes[w].kind == FALSE) for u, w in pairs)
            plan.append((nid, node.kind, sides))
    return plan


class EvidenceSession:
    """Evidence-side work shared by every conditional query on one evidence.

    Built for one (circuit, params, evidence) triple: it checks the
    evidence once and runs the lower and upper evidence sweeps once.  A
    positive upper evidence probability proves that some model extends the
    evidence, so only at 0 does a truth pass decide whether to raise
    :class:`InferenceError`.  It then runs the sign test for any target
    from the target's plan, cached on the circuit.  Pass it as ``session=`` to
    :func:`conditional_sign`, :func:`lower_conditional` and
    :func:`upper_conditional`; a call whose circuit, root, params or
    evidence differ from the session's raises :class:`InferenceError`.
    A session built under a :class:`_PassMemo` scope for (circuit, params)
    keeps that memo for its untraced sign tests, also after the scope
    closes, and packs the evidence once for them; its sweeps find the
    scope themselves.
    """

    def __init__(self, circuit: Circuit, params: CsddParams, evidence: Mapping[int, bool]) -> None:
        _check_evidence(circuit, evidence)
        self.circuit = circuit
        self.params = params
        self.evidence = dict(evidence)
        self.root = circuit.root
        self._memo = _open_memo(circuit, params)
        self.low, self.up = (_credal_sweep(circuit, params, self.evidence, circuit.cone(), sense)
                             for sense in (MIN, MAX))
        self._key = None if self._memo is None else self._memo.pack(self.evidence)
        upper = self.up[self.root]
        if upper <= 0.0 and not is_consistent(circuit, evidence):
            raise InferenceError("evidence violates circuit constraints")
        # every sign-test message is at most the upper evidence probability
        # in size, so the numerical zero scales with it
        self.zero = ZERO_TOL * upper

    def check(self, circuit: Circuit, params: CsddParams, evidence: Mapping[int, bool]) -> None:
        """Raise unless the session was built for exactly these arguments."""
        if (
            circuit is not self.circuit
            or params is not self.params
            or circuit.root != self.root
            or dict(evidence) != self.evidence
        ):
            raise InferenceError("session was built for another circuit, table or evidence")

    def _sign_test(
        self, var: int, val: bool, mu: float, trace: InferenceTrace | None = None
    ) -> float:
        """Root message of the threshold test at ``mu``; positive iff the
        lower conditional of ``var = val`` exceeds ``mu``.

        One bottom-up pass over ``var``'s spine, read from its sign-test
        plan; the sibling's bound comes from the evidence sweeps.
        """
        table = self.params.table
        low_values, up_values = self.low, self.up
        msg: dict[int, float] = {}
        starts: list[tuple[int, int]] = []  # sibling values the trace must pin
        memo = None
        if trace is None and self._memo is not None:  # a trace needs every node's points
            memo, masks = self._memo.passes.setdefault(("sign", var, val, mu), {}), self._memo.masks
            ev = self._key
        for nid, kind, sides in _sign_plan(self.circuit, var):
            if kind == DECISION:
                cs = table.get(nid)
                if cs is None:
                    msg[nid] = 0.0  # unsatisfiable decision node
                    continue
                if memo is not None:
                    key = nid, ev & masks[nid]
                    hit = memo.get(key)
                    if hit is not None:
                        msg[nid] = hit
                        continue
                # a negative message takes the sibling's upper value (a FALSE
                # sibling is 0.0 in both sweeps)
                coeffs = [(m := msg[u]) * (up_values if m < 0.0 else low_values)[w]
                          for u, w, _ in sides]
                value, point = _min_fast(cs, coeffs)
                msg[nid] = value
                if memo is not None:
                    memo[key] = value
                if trace is not None:
                    for idx, (u, w, w_false) in enumerate(sides):
                        upper = msg[u] < 0.0 and not w_false  # a FALSE sibling reads as lower
                        sigma = (up_values if upper else low_values)[w]
                        trace.sigma[(nid, idx)] = ("upper" if upper else "lower", sigma)
                        starts.append((w, MAX if upper else MIN))  # FALSE marks nothing
                    trace.record(nid, point if any(coeffs) else None)
            elif kind == LITERAL:
                msg[nid] = (1.0 - mu) if sides == val else -mu
            elif kind == TRUE:
                cs = table[nid]
                state = 0 if val else 1
                lx, ux = cs.lower[state], cs.upper[state]
                lnot, unot = cs.lower[1 - state], cs.upper[1 - state]
                msg[nid] = min((1.0 - mu) * lx - mu * unot, (1.0 - mu) * ux - mu * lnot)
                if trace is not None:
                    # the minimum pins the member with the smaller target mass
                    trace.record(nid, (lx, unot) if state == 0 else (unot, lx))
            else:
                msg[nid] = 0.0
        if trace is not None:
            _mark_sweeps(trace, self.circuit, self.params, self.evidence, self.circuit.cone(),
                         self.low, self.up, starts)
        return msg[self.root]


def _check_target(circuit: Circuit, var: int, val: bool, evidence: Mapping[int, bool]) -> None:
    if var in evidence:
        raise InferenceError(f"queried variable {var} appears in the evidence")
    _check_evidence(circuit, {var: val})


def _session(
    circuit: Circuit,
    params: CsddParams,
    var: int,
    val: bool,
    evidence: Mapping[int, bool],
    session: EvidenceSession | None,
) -> EvidenceSession:
    """Check the target; return ``session`` once it matches, else a one-shot session."""
    _check_target(circuit, var, val, evidence)
    if session is None:
        return EvidenceSession(circuit, params, evidence)
    session.check(circuit, params, evidence)
    return session


def conditional_sign(
    circuit: Circuit,
    params: CsddParams,
    mu: float,
    var: int,
    val: bool,
    evidence: Mapping[int, bool],
    session: EvidenceSession | None = None,
) -> int:
    """Sign of ``lower P(var=val | evidence) - mu`` (0 means numerical zero).

    One sign-test pass: the exact decision whether the (possibly outer)
    lower conditional exceeds ``mu``, with no search and no tolerance.
    ``session`` works as for :func:`lower_conditional`.
    """
    if not math.isfinite(mu):  # its messages would be NaN, which reads as a zero sign
        raise InferenceError(f"threshold must be finite, got {mu}")
    session = _session(circuit, params, var, val, evidence, session)
    value = session._sign_test(var, bool(val), mu)
    return (value > session.zero) - (value < -session.zero)


def _find_crossing(value_at, tol: float, zero: float = ZERO_TOL) -> tuple[float, float, int]:
    """Bracket the sign change of ``value_at`` in [0, 1] to width ``tol``.

    The sign is positive where ``value_at(mu) > zero``.  Returns
    ``(lo, hi, passes)`` with a positive sign at ``lo`` and a non-positive
    one at ``hi``, ``hi - lo <= tol``, and the number of ``value_at``
    calls; ``(0, 0, 1)`` when the sign at 0 is already non-positive.
    ``value_at(1)`` must be non-positive, as every sign-test message is
    at ``mu = 1``.  A ``tol`` below ``MIN_CROSSING_TOL`` is raised to it:
    a narrower bracket could not be split and the search would not end.

    Illinois steps (regula falsi that halves the value kept at an edge
    retained twice in a row) land on the crossing in a few passes on the
    piecewise-linear sign test.  Each trial is clamped at least
    ``tol / 2`` inside the bracket, so a trial next to a found crossing
    closes the bracket, and a secant step that fails to halve the
    bracket is followed by a bisection step, so no search takes more
    than about twice the passes of plain bisection.
    """
    g_lo = value_at(0.0) - zero
    if g_lo <= 0.0:
        return 0.0, 0.0, 1
    lo, hi = 0.0, 1.0
    g_hi = value_at(1.0) - zero
    passes = 2
    tol = max(tol, MIN_CROSSING_TOL)
    margin = 0.5 * tol
    bisect = False
    last = None  # edge moved by the previous step
    while hi - lo > tol:
        width = hi - lo
        if bisect:
            mu = lo + 0.5 * width
        else:
            mu = lo + width * g_lo / (g_lo - g_hi)
            mu = min(max(mu, lo + margin), hi - margin)
        g = value_at(mu) - zero
        passes += 1
        if g > 0.0:
            lo, g_lo = mu, g
            if last == "lo":
                g_hi *= 0.5
            last = "lo"
        else:
            hi, g_hi = mu, g
            if last == "hi":
                g_lo *= 0.5
            last = "hi"
        bisect = not bisect and hi - lo > 0.5 * width
    return lo, hi, passes


def lower_conditional(
    circuit: Circuit,
    params: CsddParams,
    var: int,
    val: bool,
    evidence: Mapping[int, bool],
    tol: float = DEFAULT_BISECTION_TOL,
    want_certificate: bool = True,
    session: EvidenceSession | None = None,
) -> ConditionalResult:
    """Lower conditional probability of a single variable given evidence.

    Narrows a bracket on the sign test's crossing with a safeguarded
    Illinois search until it is at most ``tol`` wide, and returns the
    bracket's left edge, where the sign is still positive, so the answer
    never passes the crossing.  Exact on singly connected circuits up to
    ``tol``; an outer bound otherwise, flagged through the certificate.
    ``iterations`` counts sign-test passes.  ``session``, built for the
    same circuit, params and evidence, shares the evidence passes across
    queries; without it a one-shot session is built.
    """
    if not 0 < tol < 1:  # [0, 1] is already 1 wide: a tol of 1 or more asks for nothing
        raise InferenceError("tolerance must be positive and below 1")
    session = _session(circuit, params, var, val, evidence, session)
    sign_test = partial(session._sign_test, var, bool(val))
    lo, hi, iterations = _find_crossing(sign_test, tol, session.zero)
    trace = certificate = None
    if want_certificate:
        trace = InferenceTrace()
        sign_test(lo, trace)
        certificate = exactness_certificate(trace, circuit.connectivity())
    return ConditionalResult(lo, iterations, (lo, hi), trace, certificate)


def upper_conditional(
    circuit: Circuit,
    params: CsddParams,
    var: int,
    val: bool,
    evidence: Mapping[int, bool],
    tol: float = DEFAULT_BISECTION_TOL,
    want_certificate: bool = True,
    session: EvidenceSession | None = None,
) -> ConditionalResult:
    """Upper conditional via conjugacy with the complementary lower query."""
    inner = lower_conditional(
        circuit, params, var, not val, evidence, tol, want_certificate, session
    )
    return ConditionalResult(
        1.0 - inner.value, inner.iterations, inner.bracket, inner.trace, inner.certificate
    )


# ---------------------------------------------------------------------------
# credal MAP and robustness

Rep = tuple[tuple[int, bool], ...]


def _close(a: float, b: float) -> bool:
    """Tie test for maxima: equal within ``TIE_REL``; an infinity ties only with itself."""
    return a == b or abs(a - b) <= TIE_REL * max(1.0, abs(a), abs(b)) < math.inf


class _Ties:
    """Per-node result of a max pass: the value, the options attaining it in
    tie order, and how many completions attain it, capped at 2.

    A TRUE terminal's options are its states (0 true, 1 false) and a
    decision node's are element indices.  A literal, or a terminal whose
    state is fixed, has no options and one completion.
    """

    __slots__ = ("values", "tied", "counts")

    def __init__(self, size: int) -> None:
        self.values = [0.0] * size
        self.tied: list[tuple[int, ...]] = [()] * size
        self.counts = [0] * size


def _credal_map(
    circuit: Circuit,
    params: CsddParams,
    evidence: Mapping[int, bool],
) -> _Ties:
    """Upper completion bounds M(n), tied in element order and true state first."""
    cm = _Ties(len(circuit.nodes))
    values, tied, counts = cm.values, cm.tied, cm.counts
    table = params.table
    memo, masks, ev = _reuse(circuit, params, ("credal_map",), evidence)
    for nid in circuit.cone():
        node = circuit.nodes[nid]
        if node.kind == FALSE:
            continue
        if node.kind == LITERAL:
            val = evidence.get(node.var)
            values[nid] = 1.0 if val is None or val == node.polarity else 0.0
            counts[nid] = 1
        elif node.kind == TRUE:
            cs = table[nid]
            val = evidence.get(node.var)
            if val is None:
                best = values[nid] = max(cs.upper)
                tied[nid] = tuple(st for st in (0, 1) if _close(cs.upper[st], best))
                counts[nid] = len(tied[nid])
            else:
                values[nid] = cs.upper[0 if val else 1]
                counts[nid] = 1
        else:
            cs = table.get(nid)
            if cs is None:
                continue
            if memo is not None:
                key = nid, ev & masks[nid]
                hit = memo.get(key)
                if hit is not None:
                    values[nid], tied[nid], counts[nid] = hit
                    continue
            cands = [cs.upper[idx] * values[p] * values[s] for idx, (p, s) in enumerate(node.elements)]
            best = values[nid] = max(0.0, *cands)
            tied[nid] = tuple(
                idx for idx, value in enumerate(cands) if value > 0.0 and _close(value, best)
            )
            counts[nid] = min(2, sum(
                counts[p] * counts[s] for p, s in (node.elements[idx] for idx in tied[nid])
            ))
            if memo is not None:
                memo[key] = best, tied[nid], counts[nid]
    return cm


def credal_map_upper(circuit: Circuit, params: CsddParams, evidence: Mapping[int, bool]) -> float:
    """``max over completions x of upper P(x, evidence)``."""
    _check_evidence(circuit, evidence)
    return _credal_map(circuit, params, evidence).values[circuit.root]


def _mark_map(
    trace: InferenceTrace,
    circuit: Circuit,
    params: CsddParams,
    cm: _Ties,
    evidence: Mapping[int, bool],
    starts: Iterable[int],
) -> None:
    """Record the extreme points that realize the completion bounds at
    ``starts``, marking top-down through every tied element."""
    marked = set(starts)
    for nid in reversed(circuit.cone()):
        if nid not in marked:
            continue
        node = circuit.nodes[nid]
        if node.kind == TRUE:
            cs = params.table[nid]
            val = evidence.get(node.var)
            if val is None:
                states = cm.tied[nid]
                if len(states) == 1:
                    coeffs = (1.0, 0.0) if states[0] == 0 else (0.0, 1.0)
                    trace.record(nid, _max_fast(cs, coeffs)[1])
            elif cm.values[nid] > 0.0:
                coeffs = (1.0, 0.0) if val else (0.0, 1.0)
                trace.record(nid, _max_fast(cs, coeffs)[1])
        elif node.kind == DECISION:
            cs = params.table.get(nid)
            if cs is None:
                continue
            for idx in cm.tied[nid]:
                coeffs = tuple(1.0 if i == idx else 0.0 for i in range(cs.k))
                trace.record(nid, _max_fast(cs, coeffs)[1])
                marked.update(node.elements[idx])


def _walk_route(circuit: Circuit, pick) -> tuple[dict[int, int], list[int]]:
    """The route from the root through element ``pick(nid)`` of each decision
    node on it: that element's index per decision node, and the route's ids,
    ascending."""
    nodes = circuit.nodes
    realized: dict[int, int] = {}
    on_route = {circuit.root}
    for nid in reversed(circuit.cone()):
        if nid in on_route and nodes[nid].kind == DECISION:
            j = realized[nid] = pick(nid)
            on_route.update(nodes[nid].elements[j])
    return realized, sorted(on_route)


def _route(
    circuit: Circuit, assignment: Mapping[int, bool]
) -> tuple[dict[int, int], list[int]] | None:
    """``None`` when the complete assignment violates the circuit; else the
    realized element index per decision node on its route, and the route's
    ids, ascending."""
    nodes, cone = circuit.nodes, circuit.cone()
    pos = {var: 1 if val else 0 for var, val in assignment.items()}
    neg = {var: 1 - bit for var, bit in pos.items()}
    truth = _truth_bits(nodes, cone, pos, neg, 1)
    if not truth[circuit.root]:
        return None
    # a true node has exactly one element whose prime is true
    return _walk_route(circuit, lambda nid: next(
        idx for idx, (p, _) in enumerate(nodes[nid].elements) if truth[p]))


def robustness(
    circuit: Circuit,
    params: CsddParams,
    evidence: Mapping[int, bool],
    xstar: Mapping[int, bool],
    want_certificate: bool = True,
) -> RobustnessVerdict:
    """Is ``xstar`` the most probable completion for every compatible table?

    Computes ``V = max over completions x, over tables, of
    P(x, e) / P(xstar, e)`` bottom-up along ``xstar``'s route: one credal
    MAP pass and one truth pass over the cone, and ``xstar``'s own sweeps
    over the route only.  V is exact on singly connected circuits and
    an upper bound otherwise (robust verdicts are certain, non-robust ones
    may be conservative).  The verdict is robust when only ``xstar``
    attains V = 1, weakly robust when the maximum is tied, and not robust
    otherwise (including inconsistent ``xstar``).  Under a
    :class:`_PassMemo` scope for (circuit, params) the credal MAP pass and
    the route's sweeps, whose values are the cone's, reuse the memo's
    entries; under a scope for the circuit and its root, the route
    :func:`map_query` left for this completion is popped and saves the
    truth pass.
    """
    _check_evidence(circuit, evidence)
    _check_evidence(circuit, xstar)
    total = dict(evidence)
    for var, val in xstar.items():
        if var in evidence:
            raise InferenceError(f"variable {var} is both queried and observed")
        total[var] = bool(val)
    if len(total) != circuit.vtree.var_count:
        raise InferenceError("evidence and completion must cover all variables")
    memo = _open_memo(circuit)  # map_query may have left xstar's route there
    found = (memo and memo.routes.pop(memo.pack(total), None)) or _route(circuit, total)
    if found is None:
        return RobustnessVerdict(1.0, NOT_ROBUST, (), InferenceTrace() if want_certificate else None,
                                 ExactnessCertificate(EXACT) if want_certificate else None)
    realized, route = found
    cm = _credal_map(circuit, params, evidence)
    low_xe = _credal_sweep(circuit, params, total, route, MIN)
    table = params.table
    nodes, root = circuit.nodes, circuit.root

    # options on the route: a TRUE terminal keeps xstar's state or flips it;
    # a decision node stays on its realized element or switches to another,
    # whose completions come from the credal MAP pass
    rob = _Ties(len(nodes))
    values, tied, counts = rob.values, rob.tied, rob.counts
    points: dict[tuple[int, int], tuple[float, ...] | None] = {}  # pinned by a flip or switch
    for nid in route:
        node = nodes[nid]
        if node.kind == LITERAL or node.kind == TRUE and node.var not in xstar:
            values[nid], counts[nid] = 1.0, 1
            continue
        if node.kind == TRUE:
            cs = table[nid]
            if xstar[node.var]:
                l = cs.lower[0]
                flip = (1.0 - l) / l if l > 0 else math.inf
                points[nid, 1] = (l, 1.0 - l)
                local = [(1.0, 0, 1), (flip, 1, 1)]
            else:
                u = cs.upper[0]
                flip = u / (1.0 - u) if u < 1 else math.inf
                points[nid, 0] = (u, 1.0 - u)
                local = [(1.0, 1, 1), (flip, 0, 1)]
        else:
            j = realized[nid]
            pj, sj = node.elements[j]
            cs = table[nid]
            local = [(values[pj] * values[sj], j, counts[pj] * counts[sj])]
            denom = low_xe[pj] * low_xe[sj]
            for i, (pi, si) in enumerate(node.elements):
                if i == j or cs.upper[i] <= 0.0:
                    continue
                num = cm.values[pi] * cm.values[si]
                if num <= 0.0:
                    continue
                if denom <= 0.0 or cs.lower[j] <= 0.0:
                    ratio, points[nid, i] = math.inf, None
                else:
                    ratio, points[nid, i] = _max_ratio_vertex(cs, i, j, num / denom)
                local.append((ratio, i, cm.counts[pi] * cm.counts[si]))
        best = values[nid] = max(value for value, _, _ in local)
        kept = [(opt, n) for value, opt, n in local if _close(value, best)]
        tied[nid] = tuple(opt for opt, _ in kept)
        counts[nid] = min(2, sum(n for _, n in kept))
    value = values[root]

    trace = certificate = None
    if want_certificate:
        trace = InferenceTrace()
        map_starts: list[int] = []
        sweep_starts: list[tuple[int, int]] = []
        marked = {root}
        for nid in reversed(route):
            if nid not in marked:
                continue
            node = nodes[nid]
            for opt in tied[nid]:
                trace.record(nid, points.get((nid, opt)))  # staying pins no point
                if node.kind == TRUE:
                    continue
                j = realized[nid]
                if opt == j:
                    marked.update(node.elements[j])
                else:
                    map_starts += node.elements[opt]
                    sweep_starts += ((child, MIN) for child in node.elements[j])
        _mark_map(trace, circuit, params, cm, evidence, map_starts)
        up_xe = _credal_sweep(circuit, params, total, route, MAX)
        _mark_sweeps(trace, circuit, params, total, route, low_xe, up_xe, sweep_starts)
        certificate = exactness_certificate(trace, circuit.connectivity())

    attaining = tuple(_completion(circuit, evidence, rob, cm, realized, k) for k in range(counts[root]))
    return RobustnessVerdict(value, _label(value, attaining, xstar), attaining, trace, certificate)


def _completion(
    circuit: Circuit,
    evidence: Mapping[int, bool],
    rob: _Ties,
    cm: _Ties,
    realized: Mapping[int, int],
    k: int,
) -> Rep:
    """The ``k``-th completion attaining the robustness pass's value at the root.

    Completions are ordered by option in tie order, then with the prime's
    completion varying slowest.  A depth-first walk: at each node it picks
    the option holding the ``k``-th completion and splits ``k`` between
    the option's prime and sub.  Staying on the realized element keeps
    reading the robustness pass; a switch reads the credal MAP pass.
    """
    nodes = circuit.nodes
    out: list[tuple[int, bool]] = []
    stack = [(True, circuit.root, k)]
    while stack:
        on_route, nid, k = stack.pop()
        node = nodes[nid]
        options = (rob if on_route else cm).tied[nid]
        if node.kind == LITERAL:
            if node.var not in evidence:
                out.append((node.var, node.polarity))
        elif node.kind == TRUE:
            if options:
                out.append((node.var, options[k] == 0))
        else:
            for opt in options:
                stay = on_route and opt == realized[nid]
                counts = (rob if stay else cm).counts
                p, s = node.elements[opt]
                if k < counts[p] * counts[s]:
                    stack += ((stay, p, k // counts[s]), (stay, s, k % counts[s]))
                    break
                k -= counts[p] * counts[s]
    return tuple(sorted(out))


def _label(value: float, attaining: Sequence[Rep], xstar: Mapping[int, bool]) -> str:
    """Robust when only ``xstar`` attains V = 1, weakly robust on a tie."""
    if math.isinf(value) or value > 1.0 + V_TOL:
        return NOT_ROBUST
    if tuple(sorted((int(v), bool(b)) for v, b in xstar.items())) not in attaining:
        return NOT_ROBUST
    return WEAKLY_ROBUST if len(attaining) >= 2 else ROBUST


# ---------------------------------------------------------------------------
# oracles and brute force


def _functional(circuit: Circuit, params: PsddParams, query: Query) -> float:
    evidence = query.evidence_dict
    if query.kind == "marginal":
        return marginal(circuit, params, evidence)
    if query.kind == "conditional":
        var, val = query.target
        denom = marginal(circuit, params, evidence)
        if denom <= 0.0:
            raise InferenceError("conditional oracle hit zero evidence probability")
        num = marginal(circuit, params, {**evidence, var: val})
        return num / denom
    if query.kind == "map":
        return map_query(circuit, params, evidence)[0]
    if query.kind == "robustness":
        denom = joint_probability(circuit, params, {**evidence, **query.xstar_dict})
        if denom <= 0.0:
            raise InferenceError("robustness oracle hit zero completion probability")
        return map_query(circuit, params, evidence)[0] / denom
    raise InferenceError(f"unknown query kind {query.kind!r}")


def strong_extension_oracle(
    circuit: Circuit,
    params: CsddParams,
    query: Query,
    sense: str = "min",
    cap: int = ORACLE_CAP,
) -> float:
    """Exhaustive extremum over every combination of local extreme points.

    Exponential reference implementation used to validate the polynomial
    passes; guarded by a combination cap and a variable limit.
    """
    if circuit.vtree.var_count > ORACLE_VAR_LIMIT:
        raise InferenceError(f"oracle guarded at {ORACLE_VAR_LIMIT} variables")
    ids = circuit.parameterized_ids()
    vertex_lists, _ = _conflict_combos(params, ids, cap)
    best = None
    better = min if sense == "min" else max
    for combo in product(*vertex_lists):
        table = PsddParams({nid: v.point for nid, v in zip(ids, combo)})
        value = _functional(circuit, table, query)
        best = value if best is None else better(best, value)
    return best


def brute_force_exact(
    circuit: Circuit,
    params: CsddParams,
    query: Query,
    result: ConditionalResult | RobustnessVerdict,
    cap: int = ORACLE_CAP,
    tol: float = 1e-12,
):
    """Exact refinement of a possibly-outer conditional or robustness result.

    Enumerates extreme points of the conflicted nodes, re-runs the query
    with those nodes pinned, and recurses if new conflicts appear; exact
    leaves are evaluated on the precise table the trace pinned.  Cost is
    exponential only in the number of conflicted credal sets.
    """
    if result.certificate is None:
        raise InferenceError("brute force needs a result carrying a certificate")
    if result.certificate.is_exact:
        # nothing to refine: the algorithm's own output stands
        return result.value if query.kind == "conditional" else result
    if query.kind == "conditional":
        return _brute_conditional(circuit, params, query, result, cap, tol)
    if query.kind == "robustness":
        return _brute_robustness(circuit, params, query, result, cap)
    raise InferenceError("brute force applies to conditional and robustness queries")


def _conflict_combos(params: CsddParams, ids: Sequence[int], cap: int):
    vertex_lists = [enumerate_vertices(params.table[nid]) for nid in ids]
    combos = 1
    for lst in vertex_lists:
        combos *= len(lst)
        if combos > cap:
            raise InferenceError(f"would enumerate more than {cap} tables")
    return vertex_lists, combos


def _brute_conditional(circuit, params, query, result, cap, tol) -> float:
    if result.certificate.is_exact:
        if result.trace is not None and result.trace.uses:
            table = params.select({nid: uses[0] for nid, uses in result.trace.uses.items() if uses})
            return _functional(circuit, table, query)
        return result.value
    conflicted = result.certificate.conflicted
    vertex_lists, combos = _conflict_combos(params, conflicted, cap)
    var, val = query.target
    best = None
    for combo in product(*vertex_lists):
        pinned = params.pinned({nid: v.point for nid, v in zip(conflicted, combo)})
        res = lower_conditional(circuit, pinned, var, val, query.evidence_dict, tol=tol)
        value = _brute_conditional(circuit, pinned, query, res, max(1, cap // combos), tol)
        best = value if best is None else min(best, value)
    return best


def _brute_robustness(circuit, params, query, result, cap) -> RobustnessVerdict:
    if result.certificate.is_exact:
        return result
    conflicted = result.certificate.conflicted
    vertex_lists, combos = _conflict_combos(params, conflicted, cap)
    evidence, xstar = query.evidence_dict, query.xstar_dict
    best_value = 0.0
    attaining: list[Rep] = []
    for combo in product(*vertex_lists):
        pinned = params.pinned({nid: v.point for nid, v in zip(conflicted, combo)})
        res = robustness(circuit, pinned, evidence, xstar)
        leaf = _brute_robustness(circuit, pinned, query, res, max(1, cap // combos))
        if leaf.value > best_value and not _close(leaf.value, best_value):
            best_value = leaf.value
            attaining = list(leaf.attaining)
        elif _close(leaf.value, best_value):
            attaining = list(dict.fromkeys(attaining + list(leaf.attaining)))[:4]
    label = _label(best_value, attaining, xstar)
    return RobustnessVerdict(best_value, label, tuple(attaining), None, ExactnessCertificate(EXACT))
