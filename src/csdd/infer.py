"""Inference over point and credal parameter tables.

Precise queries (probability of evidence, most probable completion) are
single bottom-up passes.  Credal queries replace each decision-node sum
with a local linear program over the node's credal set, solved by
``credal._lp`` in either sense:

* lower/upper probability of evidence is exact for every topology;
* a lower/upper conditional of one variable is the crossing of a sign
  test, the evidence pass with the threshold inside, concave in it:
  Newton steps on the test's own slope find it, and a pass confirms the
  sign positive at the returned left edge, so it never passes the
  crossing.  An :class:`EvidenceSession` runs the evidence passes once per
  evidence, takes consistency from its upper pass (a truth pass runs only
  when that is 0) and runs the sign test for every target from a plan of
  its spine cached on the circuit;
* robustness checks whether one most-probable completion stays optimal
  for every table between the bounds: a credal MAP pass and a truth pass
  over the cone, then the completion's sweeps, tied options and
  completion counts (at most 2) over its route only.

On circuits with shared structure these passes may optimize one shared
credal set toward different extreme points in different subproblems: the
result is an outer bound.  A certificate records which extreme point each
local program used (re-solving the sweep problems it marks, as sweeps
keep values only) and flags shared nodes with divergent choices; a
brute-force refinement enumerates their extreme points for the exact value.
A set of one or two states carries its two possible optimizers, so every
such program, in a pass or a certificate, is a lookup, as is a wider
set's program in a greedy order it has met.

Bottom-up passes scan the cone, or a route, children first; a
certificate's marking scans it in reverse, pushing marks to children, so
it marks in one pass.  A completion's route (the MAP backtrack, or the
truth route of a complete assignment) is walked from the root along the
chosen elements only.  Attaining completions are read off the tied
options by a depth-first walk.

A node's result in a bottom-up pass depends only on the table and the
evidence under its vtree node.  A batch of evidences known up front runs
node-major: the private ``_Columns`` passes fill a column per node, one
entry per evidence, the scalar pass's result bit for bit, and solve a
wide node once per distinct evidence under it, by ``_lp`` itself.  Their
inputs follow one terminal rule: a terminal reads its pass's ``free``
entry where its variable is unobserved, else ``on`` or ``off`` by its
value, and a FALSE or table-less decision node its pass's empty one.  The display experiment
decides a cell's distinct observations with them, and finds their MAP
completions and the completions' robustness by :func:`_map_robustness`:
the MAP and credal MAP passes as columns, then per completion only the
route-local steps, on the route its MAP choices walk, so no truth pass
runs.  The point, MAP and credal MAP passes have only the column form:
:func:`marginal`, :func:`map_query`, :func:`credal_map_upper` and
:func:`robustness` run them on a batch of one.  A max pass's result at a
node is one record, a :class:`_Tie`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from itertools import chain, product
from typing import Iterable, Mapping, NamedTuple, Sequence

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
from .credal import _lp, _max_ratio_vertex, enumerate_vertices
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
POINT_TOL = 1e-12       # certificate points this close in every coordinate count as one
TIE_REL = 1e-12         # relative tolerance for max ties
V_TOL = 1e-9            # robustness verdict threshold on V - 1
DEFAULT_TOL = 1e-6      # bracket width at which the conditional search stops
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

    def __post_init__(self) -> None:
        """Refuse an unknown kind, a conditional without a target or a
        robustness query without ``xstar``, which the oracles could not read,
        and, in the algorithms' words, an observed target or ``xstar``
        variable, which the oracles would read as observed."""
        if self.kind not in ("marginal", "conditional", "map", "robustness"):
            raise InferenceError(f"unknown query kind {self.kind!r}")
        observed = dict(self.evidence)
        if self.kind == "conditional":
            if self.target is None:
                raise InferenceError("a conditional query needs a target")
            if self.target[0] in observed:
                raise InferenceError(f"queried variable {self.target[0]} appears in the evidence")
        if self.kind == "robustness":
            if self.xstar is None:
                raise InferenceError("a robustness query needs xstar")
            for var, _ in self.xstar:
                if var in observed:
                    raise InferenceError(f"variable {var} is both queried and observed")

    @classmethod
    def make(cls, kind, evidence: Mapping[int, bool], target=None, xstar=None) -> "Query":
        """The query, its assignments refused as :func:`_check_evidence` refuses
        evidence, but for the circuit's variable range, which it does not know,
        then as the class refuses it."""
        _check_pairs(chain(evidence.items(), [] if target is None else [target], (xstar or {}).items()))
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
            if all(abs(a - b) <= POINT_TOL for a, b in zip(other, point)):
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


# the passes read a missing variable as unobserved and bool() reads None as false
_NO_VALUE = "variable {} has value None; leave an unobserved variable out"
_ZERO_MAP = "evidence has zero probability under the table"
_UNCOVERED = "evidence and completion must cover all variables"


def _check_evidence(circuit: Circuit, evidence: Mapping[int, bool]) -> None:
    """Refuse a variable that is not an id of the circuit's vtree and a value
    other than ``True`` or ``False`` (the ints 0 and 1 equal them): the passes
    compare values with a state, so any other reads as neither state."""
    _check_pairs(evidence.items(), circuit.vtree.var_count)


def _check_pairs(pairs: Iterable[tuple[int, bool]], n: int | None = None) -> None:
    """:func:`_check_evidence`'s rule on (variable, value) pairs; without
    ``n``, any int is a variable."""
    for var, val in pairs:
        if not (isinstance(var, int) and (n is None or 1 <= var <= n)):
            where = "in the circuit" if n is not None else "a variable id"
            raise InferenceError(f"evidence variable {var!r} is not {where}")
        if val is None:
            raise InferenceError(_NO_VALUE.format(var))
        if not (isinstance(val, int) and val in (0, 1)):
            raise InferenceError(f"variable {var} has value {val!r}; a value is True or False")


def _pack(evidence: Mapping[int, bool], n: int) -> int:
    """Bit ``v - 1`` of ``pos``/``neg`` of ``pos | neg << n`` is set when
    variable ``v`` is observed true/false (``None`` is unobserved)."""
    key = 0
    for var, val in evidence.items():
        if val is not None and 1 <= var <= n:  # no node reads any other variable
            key |= 1 << (var - 1 if val else var - 1 + n)
    return key


def marginal(circuit: Circuit, params: PsddParams, evidence: Mapping[int, bool]) -> float:
    """Probability of the (partial) evidence under the point table."""
    _check_evidence(circuit, evidence)
    return _Columns(circuit, [evidence]).point(params)[circuit.root][0]


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
    The pass is :meth:`_Columns.map` on a batch of one; a batch of evidences
    shares it (as :func:`_map_robustness` does).
    """
    _check_evidence(circuit, evidence)
    values = _Columns(circuit, [evidence]).map(params)
    if values[circuit.root][0] <= 0.0:
        raise InferenceError(_ZERO_MAP)
    return values[circuit.root][0], _map_completion(circuit, params, values, 0, evidence)[0]


def _map_completion(circuit: Circuit, params: PsddParams, values: list, j: int,
                    evidence: Mapping[int, bool]):
    """``(completion, route)`` of row ``j`` of the MAP pass's columns
    ``values``, ``evidence`` that row's: each decision node on the route
    chooses its first element of largest product, by the pass's own float
    operations, and a free TRUE terminal its true state unless the false
    one is strictly likelier.  The route is :func:`_route`'s, as every
    chosen element has a positive value, so its prime is the one true prime."""
    nodes, table = circuit.nodes, params.table

    def pick(nid: int) -> int:
        elements, theta = nodes[nid].elements, table[nid]
        if len(theta) == 2:  # the common case, without building a list
            (p0, s0), (p1, s1) = elements
            a, b = values[p0][j] * values[s0][j] * theta[0], values[p1][j] * values[s1][j] * theta[1]
            return 1 if b > a else 0  # as the pass picks: b only if b > a
        cands = [values[p][j] * values[s][j] * t for (p, s), t in zip(elements, theta)]
        return cands.index(max(cands))

    found = _walk_route(circuit, pick)
    assignment = {var: bool(val) for var, val in evidence.items()}  # the ints 0 and 1 as states
    for nid in reversed(found[1]):  # top-down, so keys come in reverse cone order
        node = nodes[nid]
        if node.kind == LITERAL and node.var not in evidence:
            assignment[node.var] = node.polarity
        elif node.kind == TRUE and node.var not in evidence:
            assignment[node.var] = table[nid][0] >= table[nid][1]
    return assignment, found


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
    off it, every prime is false and sweeps to 0.0.  An observed TRUE terminal
    and a one- or two-element decision node are ``_lp`` unrolled to its float."""
    values = [0.0] * len(circuit.nodes)
    table, maximize = params.table, sense == MAX
    for nid in ids:
        node = circuit.nodes[nid]
        if node.kind == LITERAL:
            val = evidence.get(node.var)
            values[nid] = 1.0 if val is None or val == node.polarity else 0.0
        elif node.kind == TRUE and evidence.get(node.var) is None:
            values[nid] = 1.0
        elif node.kind == TRUE or len(node.elements) == 2:
            if node.kind == TRUE:  # observed
                c0, c1 = (1.0, 0.0) if evidence[node.var] else (0.0, 1.0)
            else:
                (p0, s0), (p1, s1) = node.elements
                c0, c1 = values[p0] * values[s0], values[p1] * values[s1]
            if c0 or c1:  # else 0.0, as the guard of _sweep_problem gives
                x0, x1 = table[nid]._optima[c0 < c1 if maximize else c1 < c0]
                value = c0 * x0 + c1 * x1 + 0.0
                values[nid] = value if value - value == 0.0 else _lp(table[nid], (c0, c1), maximize)[0]
        elif len(node.elements) == 1:  # both optima are the one point; fsum of one term is it
            ((p, s),) = node.elements
            if c0 := values[p] * values[s]:
                values[nid] = c0 * table[nid]._optima[0][0] + 0.0
        elif node.kind != FALSE:  # FALSE reads 0.0
            values[nid] = _sweep_problem(table, nid, node, evidence, values, maximize)[0]
    return values


def _sweep_problem(table, nid: int, node, evidence: Mapping[int, bool], values, maximize: bool):
    """``(value, point)`` of a sweep's problem at an observed TRUE terminal or
    a decision node, children at ``values``; ``(0.0, None)`` on zero coefficients:
    any marked by :func:`_mark_sweeps`, and :func:`_credal_sweep`'s wide nodes."""
    if node.kind == TRUE:
        coeffs = (1.0, 0.0) if evidence[node.var] else (0.0, 1.0)
    else:
        coeffs = [values[p] * values[s] for p, s in node.elements]
    return _lp(table[nid], coeffs, maximize) if any(coeffs) else (0.0, None)


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
        for nid in reversed(ids):
            if nid not in marked:
                continue
            node = circuit.nodes[nid]
            if node.kind == DECISION or node.kind == TRUE and evidence.get(node.var) is not None:
                trace.record(nid, _sweep_problem(table, nid, node, evidence, values, sense == MAX)[1])
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
    A session holds no cache: a one- or two-state set keeps its own
    greedy points.
    """

    def __init__(self, circuit: Circuit, params: CsddParams, evidence: Mapping[int, bool]) -> None:
        _check_evidence(circuit, evidence)
        self.circuit = circuit
        self.params = params
        self.evidence = dict(evidence)
        self.root = circuit.root
        self.low, self.up = (_credal_sweep(circuit, params, self.evidence, circuit.cone(), sense)
                             for sense in (MIN, MAX))
        upper = self.up[self.root]
        if upper <= 0.0 and not is_consistent(circuit, evidence):
            raise InferenceError("evidence violates circuit constraints")
        self.zero = _zero(upper)

    def check(self, circuit: Circuit, params: CsddParams, evidence: Mapping[int, bool]) -> None:
        """Raise unless the session was built for exactly these arguments."""
        if (
            circuit is not self.circuit
            or params is not self.params
            or circuit.root != self.root
            or dict(evidence) != self.evidence
        ):
            raise InferenceError("session was built for another circuit, table or evidence")

    def _sign_test(self, var: int, val: bool, mu: float, trace: InferenceTrace | None = None,
                   starts: list[tuple[int, int]] | None = None) -> tuple[float, float]:
        """Root message of the threshold test at ``mu``, positive iff the lower
        conditional of ``var = val`` exceeds ``mu``, and its slope in ``mu``:
        one pass over ``var``'s spine plan, siblings read from the sweeps.

        Each message is a minimum of pieces linear in ``mu`` and takes the
        slope of the piece chosen: the root's is a supergradient of a concave
        function.  A ``trace`` receives the spine's points and sibling values,
        ``starts`` the (sibling, sense) pairs for :func:`_mark_sweeps`.
        """
        table = self.params.table
        low_values, up_values = self.low, self.up
        msg: dict[int, float] = {}
        rate: dict[int, float] = {}  # each message's slope in mu
        for nid, kind, sides in _sign_plan(self.circuit, var):
            if kind == DECISION:
                cs = table.get(nid)
                if cs is None:
                    msg[nid] = rate[nid] = 0.0  # unsatisfiable decision node
                    continue
                # a negative message takes the sibling's upper value (a FALSE
                # sibling is 0.0 in both sweeps)
                if len(sides) == 2:  # _lp unrolled: its point depends only on c1 < c0
                    (u0, w0, _), (u1, w1, _) = sides
                    s0 = (up_values if msg[u0] < 0.0 else low_values)[w0]
                    s1 = (up_values if msg[u1] < 0.0 else low_values)[w1]
                    coeffs = c0, c1 = msg[u0] * s0, msg[u1] * s1
                    point = x0, x1 = cs._optima[c1 < c0]
                    value = c0 * x0 + c1 * x1 + 0.0  # _lp's sum, finite while |mu| < 1e300
                    rate[nid] = x0 * rate[u0] * s0 + x1 * rate[u1] * s1
                else:
                    sibs = [(up_values if msg[u] < 0.0 else low_values)[w] for u, w, _ in sides]
                    coeffs = [msg[u] * s for (u, _, _), s in zip(sides, sibs)]
                    value, point = _lp(cs, coeffs)
                    rate[nid] = sum(t * rate[u] * s for t, (u, _, _), s in zip(point, sides, sibs))
                msg[nid] = value
                if trace is not None:
                    for idx, (u, w, w_false) in enumerate(sides):
                        upper = msg[u] < 0.0 and not w_false  # a FALSE sibling reads as lower
                        sigma = (up_values if upper else low_values)[w]
                        trace.sigma[(nid, idx)] = ("upper" if upper else "lower", sigma)
                        starts.append((w, MAX if upper else MIN))  # FALSE marks nothing
                    trace.record(nid, point if any(coeffs) else None)
            elif kind == LITERAL or kind == TRUE:
                msg[nid], rate[nid], point = _threshold_message(table, nid, kind, sides, val, mu)
                if trace is not None:
                    trace.record(nid, point)
            else:
                msg[nid] = rate[nid] = 0.0
        return msg[self.root], rate[self.root]


def _threshold_message(table, nid: int, kind: int, sides, val: bool, mu: float):
    """``(message, slope, point)`` of the sign test of ``var = val`` at ``mu``
    at a literal of ``var`` of polarity ``sides`` or at ``var``'s TRUE
    terminal ``nid``, for both sign tests.  The literal's message is
    ``1 - mu`` or ``-mu``; the terminal's is the smaller of its two lines,
    and ``point`` the member that minimum pins (``None`` for a literal)."""
    if kind == LITERAL:
        return (1.0 - mu) if sides == val else -mu, -1.0, None
    cs, state = table[nid], 0 if val else 1
    lx, ux = cs.lower[state], cs.upper[state]
    lnot, unot = cs.lower[1 - state], cs.upper[1 - state]
    low_line, up_line = (1.0 - mu) * lx - mu * unot, (1.0 - mu) * ux - mu * lnot
    value, slope = (up_line, -ux - lnot) if up_line < low_line else (low_line, -lx - unot)  # min()'s pick
    # the minimum pins the member with the smaller target mass
    return value, slope, (lx, unot) if state == 0 else (unot, lx)


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
    if not (isinstance(mu, (int, float)) and math.isfinite(mu)):  # NaN would read as a zero sign
        raise InferenceError(f"threshold must be a finite number, got {mu!r}")
    session = _session(circuit, params, var, val, evidence, session)
    return _sign(session._sign_test(var, bool(val), mu)[0], session.up[session.root])


def _zero(upper: float) -> float:
    """The numerical zero of a sign test on evidence of upper probability
    ``upper``: every message is at most that in size, so the zero scales with it."""
    return ZERO_TOL * upper


def _sign(value: float, upper: float) -> int:
    """A sign test's verdict, -1, 0 or +1, on its root message ``value`` for
    evidence of upper probability ``upper``: 0 within :func:`_zero`."""
    zero = _zero(upper)
    return (value > zero) - (value < -zero)


def _find_crossing(value_at, tol: float, zero: float = ZERO_TOL, confirm=None) -> tuple[float, float, int]:
    """Bracket the sign change of ``value_at`` in [0, 1] to width ``tol``.

    ``value_at(mu)`` gives a value, of positive sign above ``zero``, and its
    piece's slope; it runs the pass at 1, which must be non-positive as every
    sign test is, and ``confirm`` (default ``value_at``) every later one.
    Returns ``(lo, hi, passes)``: passes found the sign positive at ``lo`` and
    non-positive at ``hi`` (both 0 if it is at 0), ``hi - lo <= tol``, which
    is raised to ``MIN_CROSSING_TOL`` at least, and ``passes`` counts them.

    Newton steps run down from 1 (Dinkelbach's method, on the sign test).
    A concave function lies below its tangents, so the one at ``hi`` proves
    the sign non-positive from its root up (on [0, 1] if its slope is not
    negative).  ``hi`` goes a quarter ``tol`` past the root, a cushion for
    rounding, and a confirming pass a ``tol`` below ends the search if
    positive, else Newton goes on from there: k pieces take k + 1 passes.
    Bisection takes over after ``ceil(log2(1 / tol)) + 1`` passes, or if a
    slope steeper at ``lo`` than at ``hi`` makes a pass check ``hi`` and it
    is positive, so no search takes over ``2 * ceil(log2(1 / tol)) + 3``.
    """
    tol = max(tol, MIN_CROSSING_TOL)
    confirm, newton_passes = confirm or value_at, math.ceil(math.log2(1.0 / tol)) + 1
    lo, hi, (value, slope), passes = None, 1.0, value_at(1.0), 1
    while lo is None and hi > 0.0 and passes <= newton_passes:
        root = hi - (value - zero) / slope if slope < 0.0 else -math.inf
        top = min(hi, max(root + 0.25 * tol, tol))
        mu = max(top - tol, 0.0)
        while top - mu > tol:  # top - tol rounded down
            mu = math.nextafter(mu, top)
        found, found_slope = confirm(mu)
        passes += 1
        if found <= zero:
            hi, value, slope = mu, found, found_slope
        elif top == hi or found_slope >= slope:
            lo, hi = mu, top
        else:  # steeper at mu than at hi, so not concave: a pass checks top
            passes += 1
            lo, hi = (top, hi) if confirm(top)[0] > zero else (mu, top)
    while hi > 0.0 and (lo is None or hi - lo > tol):  # bisection, down to 0 until lo is found
        floor = 0.0 if lo is None else lo
        mu = 0.0 if hi <= floor + tol else floor + 0.5 * (hi - floor)
        passes += 1
        lo, hi = (mu, hi) if confirm(mu)[0] > zero else (lo, mu)
    return (0.0, 0.0, passes) if hi == 0.0 else (lo, hi, passes)


def lower_conditional(
    circuit: Circuit,
    params: CsddParams,
    var: int,
    val: bool,
    evidence: Mapping[int, bool],
    tol: float = DEFAULT_TOL,
    want_certificate: bool = True,
    session: EvidenceSession | None = None,
) -> ConditionalResult:
    """Lower conditional probability of a single variable given evidence.

    Newton steps on the sign test (:func:`_find_crossing`) bracket its
    crossing to ``tol``; the left edge, where a pass confirmed the sign still
    positive, is returned, so the answer never passes the crossing.  Exact on
    singly connected circuits up to ``tol``; an outer bound otherwise, flagged
    by the certificate, traced on that confirming pass.  ``iterations`` counts
    every sign-test pass.  ``session``, for the same circuit, params and
    evidence, shares the evidence passes; else a one-shot one is built.
    """
    # [0, 1] is already 1 wide: a tol of 1 or more asks for nothing
    if not (isinstance(tol, (int, float)) and 0 < tol < 1):
        raise InferenceError(f"tolerance must be a number, positive and below 1, got {tol!r}")
    session = _session(circuit, params, var, val, evidence, session)
    sign_test = partial(session._sign_test, var, bool(val))
    traced: dict[float, tuple] = {}  # trace and sweep starts of every pass but the first
    def confirm(mu: float) -> tuple[float, float]:
        traced[mu] = trace, starts = InferenceTrace(), []
        return sign_test(mu, trace, starts)
    lo, hi, passes = _find_crossing(sign_test, tol, session.zero, confirm if want_certificate else None)
    trace = certificate = None
    if want_certificate:
        trace, starts = traced[lo]  # only lo's pass marks the sweep problems it read
        _mark_sweeps(trace, circuit, params, evidence, circuit.cone(), session.low, session.up, starts)
        certificate = exactness_certificate(trace, circuit.connectivity())
    return ConditionalResult(lo, passes, (lo, hi), trace, certificate)


def upper_conditional(
    circuit: Circuit,
    params: CsddParams,
    var: int,
    val: bool,
    evidence: Mapping[int, bool],
    tol: float = DEFAULT_TOL,
    want_certificate: bool = True,
    session: EvidenceSession | None = None,
) -> ConditionalResult:
    """Upper conditional via conjugacy with the complementary lower query,
    whose bracket ``(lo, hi)`` becomes ``(1 - hi, 1 - lo)``."""
    inner = lower_conditional(circuit, params, var, not val, evidence, tol, want_certificate, session)
    (lo, hi), up = inner.bracket, 1.0 - inner.value
    return ConditionalResult(up, inner.iterations, (1.0 - hi, 1.0 - lo), inner.trace, inner.certificate)


# ---------------------------------------------------------------------------
# batched passes


class _Tie(NamedTuple):
    """A node's result in a max pass: its value, the options attaining it in
    tie order, and how many completions attain it, capped at 2.

    A TRUE terminal's options are its states (0 true, 1 false) and a
    decision node's are element indices.  A literal, or a terminal whose
    state is fixed, has no options and one completion.
    """

    value: float
    tied: tuple[int, ...]
    count: int


_FIXED = _Tie(1.0, (), 1)  # a literal its evidence allows, or an observed terminal on a route
_BLOCKED = _Tie(0.0, (), 1)  # a literal its evidence contradicts
_NO_COMPLETION = _Tie(0.0, (), 0)  # a FALSE node, or an unsatisfiable decision node


class _Columns:
    """Node-major passes over a batch of evidences on one circuit.

    A pass visits each node of its cone (or spine) once and fills a column,
    one entry per evidence.  Every pass fills its inputs by one terminal
    rule, :meth:`_inputs`, so its own loop holds only its decision rule.
    The point, MAP and credal MAP passes are :func:`marginal`'s,
    :func:`map_query`'s and :func:`credal_map_upper`'s (and
    :func:`robustness`'s); the sweep and sign test give the scalar pass's
    result (:func:`_credal_sweep`, :meth:`EvidenceSession._sign_test`), bit
    for bit, by the same float operations.  An LP over one or two states is
    ``_lp`` unrolled into one comprehension over the child columns: the
    set's cached optimum that ``c1 < c0`` (``c0 < c1`` when maximizing)
    picks, and its sum, with no ``fsum`` for a non-finite one, which no
    sweep of a table gives.  Any other LP (``_lp`` on a row built from the
    child columns), ``fsum`` or wide max runs once per distinct evidence
    under the node: its key, the packed evidence (:func:`_pack`) masked to
    the node's variables.  The evidences are not checked.
    """

    def __init__(self, circuit: Circuit, evidences: Sequence[Mapping[int, bool]]) -> None:
        n = self.n = circuit.vtree.var_count
        self.circuit, self.evidences, self.size = circuit, evidences, len(evidences)
        self.obs = [None] + [[e.get(var) for e in evidences] for var in range(1, n + 1)]
        self.keys = [_pack(e, n) for e in evidences]

    def point(self, params: PsddParams) -> list:
        """Point-pass columns by node id; ``None`` off the cone."""
        cols = [None] * len(self.circuit.nodes)
        return self._point(params, self.circuit.cone(), cols, self.obs, self.keys)

    def spine(self, params: PsddParams, base: list, var: int, val: bool) -> list[float]:
        """Root column of the point pass with ``var = val`` added to every
        evidence: ``var``'s spine runs again over ``base``, the point columns."""
        obs = self.obs[:var] + [[val] * self.size] + self.obs[var + 1:]
        cols = base[:]  # the spine's columns replace base's in a copy
        # the keys need no bit for var: this pass sets it alike in every evidence
        return self._point(params, self.circuit.spine(var), cols, obs, self.keys)[self.circuit.root]

    def _inputs(self, ids, cols: list, obs, table, true_terms, unit=1.0, zero=0.0, empty=0.0) -> list:
        """Fill ``cols`` at the inputs of ``ids`` by the one terminal rule and
        return the other ids, decision nodes with a table entry, in order.  A
        terminal's entry is ``free`` where its variable is unobserved in
        ``obs``, else ``on`` or ``off`` by its value; a literal's triple is
        ``unit`` and ``zero`` by its polarity, a TRUE terminal's
        ``true_terms(entry)``.  A FALSE or table-less decision node, which no
        evidence satisfies, takes ``empty``."""
        nodes, blank, decisions = self.circuit.nodes, [empty] * self.size, []
        literal = (unit, zero, unit), (unit, unit, zero)  # by polarity
        append = decisions.append
        for nid in ids:
            node = nodes[nid]
            if node.kind == DECISION and nid in table:
                append(nid)
            elif node.kind == LITERAL or node.kind == TRUE:
                free, on, off = true_terms(table[nid]) if node.kind == TRUE else literal[node.polarity]
                cols[nid] = [free if v is None else on if v else off for v in obs[node.var]]
            else:
                cols[nid] = blank
        return decisions

    def _point(self, params, ids, cols, obs, keys):
        nodes, table = self.circuit.nodes, params.table
        for nid in self._inputs(ids, cols, obs, table, lambda t: (1.0, t[0], t[1])):
            elements, theta = nodes[nid].elements, table[nid]
            if len(theta) == 2:
                # two products of probabilities: fsum rounds them as one
                # addition does, and "+ 0.0" gives its +0.0 for a zero sum
                (p0, s0), (p1, s1) = elements
                t0, t1 = theta
                cols[nid] = [a * b * t0 + c * d * t1 + 0.0
                             for a, b, c, d in zip(cols[p0], cols[s0], cols[p1], cols[s1])]
            elif len(theta) == 1:  # fsum of one finite product is the product plus 0.0
                ((p, s),), (t,) = elements, theta
                cols[nid] = [a * b * t + 0.0 for a, b in zip(cols[p], cols[s])]
            else:
                kids = [(cols[p], cols[s], t) for (p, s), t in zip(elements, theta)]
                cols[nid] = self._per_key(nid, keys, lambda j: math.fsum(
                    [a[j] * b[j] * t for a, b, t in kids]))
        return cols

    def map(self, params: PsddParams) -> list:
        """:func:`map_query`'s MAP pass as value columns by node id, ``None``
        off the cone: a decision node's value is its largest element
        product; :func:`_map_completion` reads the choices off a row."""
        nodes, table = self.circuit.nodes, params.table
        values: list = [None] * len(nodes)
        for nid in self._inputs(self.circuit.cone(), values, self.obs, table,
                                lambda t: (max(t), t[0], t[1])):  # free: the larger entry
            elements, theta = nodes[nid].elements, table[nid]
            if len(theta) == 2:
                (p0, s0), (p1, s1) = elements
                t0, t1 = theta
                # max(x, y) without the call: y only if y > x
                values[nid] = [y if (y := c * d * t1) > (x := a * b * t0) else x
                               for a, b, c, d in zip(values[p0], values[s0], values[p1], values[s1])]
            elif len(theta) == 1:
                ((p, s),), (t,) = elements, theta
                values[nid] = [a * b * t for a, b in zip(values[p], values[s])]
            else:
                kids = [(values[p], values[s], t) for (p, s), t in zip(elements, theta)]
                values[nid] = self._per_key(nid, self.keys, lambda j, kids=kids: max(
                    [a[j] * b[j] * t for a, b, t in kids]))
        return values

    def credal_map(self, params: CsddParams) -> list[tuple[_Tie, ...]]:
        """Upper completion bounds M(n), per evidence a row of :class:`_Tie`
        records by node id, ``None`` off the cone; tied in element order and
        true state first.  The pass fills a column per node and rows whose
        evidence under the node agrees share one entry."""
        def true_terms(cs):
            upper = cs.upper
            best = max(upper)
            tied = tuple(st for st in (0, 1) if _close(upper[st], best))
            return _Tie(best, tied, len(tied)), _Tie(upper[0], (), 1), _Tie(upper[1], (), 1)

        nodes, table = self.circuit.nodes, params.table
        cols: list = [[None] * self.size] * len(nodes)
        for nid in self._inputs(self.circuit.cone(), cols, self.obs, table,
                                true_terms, _FIXED, _BLOCKED, _NO_COMPLETION):
            kids = [(u, cols[p], cols[s]) for u, (p, s) in zip(table[nid].upper, nodes[nid].elements)]
            def solve(j, kids=kids):
                cands = [u * a[j].value * b[j].value for u, a, b in kids]
                best = max(0.0, *cands)
                tied = tuple(i for i, c in enumerate(cands) if c > 0.0 and _close(c, best))
                return _Tie(best, tied, min(2, sum(kids[i][1][j].count * kids[i][2][j].count
                                                   for i in tied)))
            cols[nid] = self._per_key(nid, self.keys, solve)
        return list(zip(*cols))

    def sweep(self, params: CsddParams, sense: int) -> list:
        """Evidence-sweep columns by node id; ``None`` off the cone."""
        nodes, table, maximize = self.circuit.nodes, params.table, sense == MAX
        cols: list = [None] * len(nodes)
        for nid in self._inputs(self.circuit.cone(), cols, self.obs, table, lambda cs: (
                1.0, _lp(cs, (1.0, 0.0), maximize)[0], _lp(cs, (0.0, 1.0), maximize)[0])):
            elements, cs = nodes[nid].elements, table[nid]
            if len(elements) == 2:  # _lp unrolled: its point depends only on c1 < c0
                (p0, s0), (p1, s1) = elements
                (a0, a1), (b0, b1) = cs._optima
                terms = zip(cols[p0], cols[s0], cols[p1], cols[s1])
                if maximize:
                    cols[nid] = [c0 * b0 + c1 * b1 + 0.0 if (c0 := a * b) < (c1 := c * d)
                                 else c0 * a0 + c1 * a1 + 0.0 for a, b, c, d in terms]
                else:
                    cols[nid] = [c0 * b0 + c1 * b1 + 0.0 if (c1 := c * d) < (c0 := a * b)
                                 else c0 * a0 + c1 * a1 + 0.0 for a, b, c, d in terms]
            elif len(elements) == 1:  # both optima are the one point
                ((p, s),), x = elements, cs._optima[0][0]
                cols[nid] = [a * b * x + 0.0 for a, b in zip(cols[p], cols[s])]
            else:
                kids = [(cols[p], cols[s]) for p, s in elements]
                cols[nid] = self._per_key(nid, self.keys, lambda j: _lp(
                    cs, [a[j] * b[j] for a, b in kids], maximize)[0])
        return cols

    def sign(self, params: CsddParams, var: int, val: bool, mu: float,
             low: list, up: list, rows: Sequence[int] | None = None) -> list[int]:
        """:func:`_sign` of the sign test of ``var = val`` at ``mu`` for the
        evidences at ``rows`` (all by default), given the sweeps' columns."""
        table = params.table
        if rows is None:
            keys, pick = self.keys, lambda col: col
        else:
            keys, pick = [self.keys[j] for j in rows], lambda col: [col[j] for j in rows]
        size = len(keys)
        msg: dict[int, list[float]] = {}
        for nid, kind, sides in _sign_plan(self.circuit, var):
            if kind == DECISION and nid in table:
                # a negative message takes the sibling's upper value
                cs = table[nid]
                if len(sides) == 2:  # _lp unrolled, as in the sweep
                    (u0, w0, _), (u1, w1, _) = sides
                    (a0, a1), (b0, b1) = cs._optima
                    terms = zip(msg[u0], pick(low[w0]), pick(up[w0]), msg[u1], pick(low[w1]), pick(up[w1]))
                    msg[nid] = [
                        c0 * b0 + c1 * b1 + 0.0
                        if (c1 := m1 * (h1 if m1 < 0.0 else l1)) < (c0 := m0 * (h0 if m0 < 0.0 else l0))
                        else c0 * a0 + c1 * a1 + 0.0 for m0, l0, h0, m1, l1, h1 in terms]
                elif len(sides) == 1:
                    ((u, w, _),), x = sides, cs._optima[0][0]
                    msg[nid] = [m * (h if m < 0.0 else l) * x + 0.0
                                for m, l, h in zip(msg[u], pick(low[w]), pick(up[w]))]
                else:
                    kids = [(msg[u], pick(low[w]), pick(up[w])) for u, w, _ in sides]
                    msg[nid] = self._per_key(nid, keys, lambda j: _lp(
                        cs, [(m := ms[j]) * (h[j] if m < 0.0 else l[j]) for ms, l, h in kids])[0])
            elif kind == LITERAL or kind == TRUE:
                msg[nid] = [_threshold_message(table, nid, kind, sides, val, mu)[0]] * size
            else:
                msg[nid] = [0.0] * size
        root = self.circuit.root
        return list(map(_sign, msg[root], pick(up[root])))

    def _per_key(self, nid: int, keys: Sequence[int], solve) -> list:
        """``solve(j)`` for each row ``j``, called once per distinct key under node ``nid``."""
        if len(keys) == 1:  # nothing to share
            return [solve(0)]
        mask = self.circuit.vtree.mask(self.circuit.nodes[nid].vtree)
        mask |= mask << self.n
        seen: dict[int, float] = {}
        for j, key in enumerate(keys):
            if key & mask not in seen:
                seen[key & mask] = solve(j)
        return [seen[key & mask] for key in keys]


# ---------------------------------------------------------------------------
# credal MAP and robustness

Rep = tuple[tuple[int, bool], ...]


def _close(a: float, b: float) -> bool:
    """Tie test for maxima: equal within ``TIE_REL``; an infinity ties only with itself."""
    return a == b or abs(a - b) <= TIE_REL * max(1.0, abs(a), abs(b)) < math.inf


def credal_map_upper(circuit: Circuit, params: CsddParams, evidence: Mapping[int, bool]) -> float:
    """``max over completions x of upper P(x, evidence)``: the credal MAP
    pass, :meth:`_Columns.credal_map`, on a batch of one."""
    _check_evidence(circuit, evidence)
    return _Columns(circuit, [evidence]).credal_map(params)[0][circuit.root].value


def _mark_map(
    trace: InferenceTrace,
    circuit: Circuit,
    params: CsddParams,
    cm: Sequence[_Tie],
    evidence: Mapping[int, bool],
    starts: Iterable[int],
) -> None:
    """Record the extreme points that realize the completion bounds ``cm``,
    read by node id, at ``starts``, marking top-down through every tied element."""
    marked = set(starts)
    for nid in reversed(circuit.cone()):
        if nid not in marked:
            continue
        node = circuit.nodes[nid]
        if node.kind == TRUE:
            val = evidence.get(node.var)
            if val is None:  # free: a point is pinned when one state attains
                states = cm[nid].tied
            else:  # observed: when its state's bound is positive
                states = (0 if val else 1,) if cm[nid].value > 0.0 else ()
            if len(states) == 1:
                coeffs = (1.0, 0.0) if states[0] == 0 else (0.0, 1.0)
                trace.record(nid, _lp(params.table[nid], coeffs, True)[1])
        elif node.kind == DECISION:
            cs = params.table.get(nid)
            if cs is None:
                continue
            for idx in cm[nid].tied:
                coeffs = tuple(1.0 if i == idx else 0.0 for i in range(cs.k))
                trace.record(nid, _lp(cs, coeffs, True)[1])
                marked.update(node.elements[idx])


def _walk_route(circuit: Circuit, pick) -> tuple[dict[int, int], list[int]]:
    """The route from the root through element ``pick(nid)`` of each decision
    node on it: that element's index per decision node, and the route's ids,
    ascending."""
    nodes = circuit.nodes
    realized: dict[int, int] = {}
    on_route, stack = set(), [circuit.root]
    while stack:  # top-down from the root, along the picked elements only
        nid = stack.pop()
        if nid not in on_route:
            on_route.add(nid)
            if nodes[nid].kind == DECISION:
                j = realized[nid] = pick(nid)
                stack += nodes[nid].elements[j]
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
    MAP pass and one truth pass over the cone, then :func:`_robust_on_route`,
    ``xstar``'s own sweeps and options over the route only.  V is exact on
    singly connected circuits and an upper bound otherwise (robust verdicts
    are certain, non-robust ones may be conservative).  The verdict is
    robust when only ``xstar`` attains V = 1, weakly robust when the maximum
    is tied, and not robust otherwise (including inconsistent ``xstar``).
    A batch of MAP completions runs the two cone passes as columns instead
    (:func:`_map_robustness`).
    """
    _check_evidence(circuit, evidence)
    _check_evidence(circuit, xstar)
    total = dict(evidence)
    for var, val in xstar.items():
        if var in evidence:
            raise InferenceError(f"variable {var} is both queried and observed")
        total[var] = bool(val)
    if len(total) != circuit.vtree.var_count:
        raise InferenceError(_UNCOVERED)
    found = _route(circuit, total)
    if found is None:
        return RobustnessVerdict(1.0, NOT_ROBUST, (), InferenceTrace() if want_certificate else None,
                                 ExactnessCertificate(EXACT) if want_certificate else None)
    cm = _Columns(circuit, [evidence]).credal_map(params)[0]
    return _robust_on_route(circuit, params, evidence, xstar, total, found, cm, want_certificate)


def _robust_on_route(circuit: Circuit, params: CsddParams, evidence: Mapping[int, bool],
                     xstar: Mapping[int, bool], total: Mapping[int, bool], found,
                     cm: Sequence[_Tie], want_certificate: bool) -> RobustnessVerdict:
    """:func:`robustness` of ``xstar`` given ``total``, the evidence and
    ``xstar``, its route ``found`` (as :func:`_route` gives it) and ``cm``, the
    evidence's row of :meth:`_Columns.credal_map`: the route's lower sweep,
    each route node's options, the attaining completions and the verdict."""
    realized, route = found
    low_xe = _credal_sweep(circuit, params, total, route, MIN)
    table = params.table
    nodes, root = circuit.nodes, circuit.root

    # options on the route: a TRUE terminal keeps xstar's state or flips it;
    # a decision node stays on its realized element or switches to another,
    # whose completions come from the credal MAP pass
    rob: list = [None] * len(nodes)  # a _Tie per route node
    points: dict[tuple[int, int], tuple[float, ...] | None] = {}  # pinned by a flip or switch
    for nid in route:
        node = nodes[nid]
        if node.kind == LITERAL or node.kind == TRUE and node.var not in xstar:
            rob[nid] = _FIXED
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
            local = [(rob[pj].value * rob[sj].value, j, rob[pj].count * rob[sj].count)]
            denom = low_xe[pj] * low_xe[sj]
            for i, (pi, si) in enumerate(node.elements):
                if i == j or cs.upper[i] <= 0.0:
                    continue
                num = cm[pi].value * cm[si].value
                if num <= 0.0:
                    continue
                if denom <= 0.0 or cs.lower[j] <= 0.0:
                    ratio, points[nid, i] = math.inf, None
                else:
                    ratio, points[nid, i] = _max_ratio_vertex(cs, i, j, num / denom)
                local.append((ratio, i, cm[pi].count * cm[si].count))
        best = max(value for value, _, _ in local)
        kept = [(opt, n) for value, opt, n in local if _close(value, best)]
        rob[nid] = _Tie(best, tuple(opt for opt, _ in kept), min(2, sum(n for _, n in kept)))
    value = rob[root].value

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
            for opt in rob[nid].tied:
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

    attaining = tuple(_completion(circuit, evidence, rob, cm, realized, k) for k in range(rob[root].count))
    return RobustnessVerdict(value, _label(value, attaining, xstar), attaining, trace, certificate)


def _map_robustness(batch: _Columns, psdd: PsddParams, csdd: CsddParams
                    ) -> list[tuple[float, dict[int, bool], RobustnessVerdict]]:
    """``(value, completion, verdict)`` for each evidence ``e`` of ``batch``,
    by ``repr`` what ``map_query(circuit, psdd, e)`` and ``robustness(circuit,
    csdd, e, xstar, want_certificate=False)`` answer, ``xstar`` the
    completion's free variables.  The MAP and credal MAP passes run as
    columns; each completion and its route come from its MAP choices, so no
    truth pass runs, and :func:`_robust_on_route` reads the evidence's row
    of the credal MAP pass.  Raises as the first failing evidence alone
    does."""
    circuit, root = batch.circuit, batch.circuit.root
    values, cms, out = batch.map(psdd), batch.credal_map(csdd), []
    for j, evidence in enumerate(batch.evidences):
        _check_evidence(circuit, evidence)
        if values[root][j] <= 0.0:
            raise InferenceError(_ZERO_MAP)
        completion, found = _map_completion(circuit, psdd, values, j, evidence)
        if len(completion) != circuit.vtree.var_count:  # a root below the vtree's
            raise InferenceError(_UNCOVERED)
        xstar = {var: val for var, val in completion.items() if var not in evidence}
        out.append((values[root][j], completion, _robust_on_route(
            circuit, csdd, evidence, xstar, completion, found, cms[j], False)))
    return out


def _completion(
    circuit: Circuit,
    evidence: Mapping[int, bool],
    rob: Sequence[_Tie],
    cm: Sequence[_Tie],
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
        options = (rob if on_route else cm)[nid].tied
        if node.kind == LITERAL:
            if node.var not in evidence:
                out.append((node.var, node.polarity))
        elif node.kind == TRUE:
            if options:
                out.append((node.var, options[k] == 0))
        else:
            for opt in options:
                stay = on_route and opt == realized[nid]
                ties = rob if stay else cm
                p, s = node.elements[opt]
                n_p, n_s = ties[p].count, ties[s].count
                if k < n_p * n_s:
                    stack += ((stay, p, k // n_s), (stay, s, k % n_s))
                    break
                k -= n_p * n_s
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
    denom = joint_probability(circuit, params, {**evidence, **query.xstar_dict})  # robustness
    if denom <= 0.0:
        raise InferenceError("robustness oracle hit zero completion probability")
    return map_query(circuit, params, evidence)[0] / denom


def strong_extension_oracle(
    circuit: Circuit,
    params: CsddParams,
    query: Query,
    sense: str = "min",
    cap: int = ORACLE_CAP,
) -> float:
    """Exhaustive extremum over every combination of local extreme points.

    Exponential reference implementation used to validate the polynomial
    passes; guarded by a combination cap and a variable limit.  ``sense``
    is ``"min"`` or ``"max"``.
    """
    if sense not in ("min", "max"):
        raise InferenceError(f"sense must be 'min' or 'max', got {sense!r}")
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
