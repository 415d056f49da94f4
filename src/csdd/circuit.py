"""Vtrees and SDD circuits.

A vtree is a full binary tree whose leaves are the Boolean variables; it
fixes how every circuit node decomposes its variable set.  A circuit is an
append-only store of terminal and decision nodes, each tagged with the
vtree node it is normalized for.  Decision nodes are lists of
(prime, sub) element pairs whose primes partition the assignments of the
left vtree variables.  A node's id is its index in the store; ids grow
from the inputs toward the root, so the id order is always a topological
order.

The module also provides the structural analyses used by the inference
algorithms (context multiplicity, connectivity classification) and a small
apply/negate compiler that turns formulas into circuits normalized for a
given vtree.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from random import Random
from typing import Mapping, Sequence

from .formula import And, Const, Formula, Not, Or, Var

__all__ = [
    "Vtree",
    "SddNode",
    "Circuit",
    "ConnectivityReport",
    "CircuitBuilder",
    "CircuitError",
    "FALSE",
    "TRUE",
    "LITERAL",
    "DECISION",
    "SINGLY_CONNECTED",
    "MULTIPLY_CONNECTED",
    "evaluate",
    "enumerate_models",
    "model_count",
    "multiplicity_report",
    "compile_formula",
    "validate_partitions",
    "is_consistent",
]


class CircuitError(ValueError):
    """Violation of vtree or circuit structural invariants."""


# node kinds
FALSE = 0
TRUE = 1
LITERAL = 2
DECISION = 3

SINGLY_CONNECTED = "singly_connected"
MULTIPLY_CONNECTED = "multiply_connected"

ENUMERATION_VAR_LIMIT = 24
TREE_COPY_CAP = 10 ** 6  # most nodes a share=False compile may produce


class Vtree:
    """Full binary tree over variables ``1..n``.

    Node ids follow in-order positions: with ``n`` leaves there are
    ``2n - 1`` nodes, leaves sit at even ids and internal nodes at odd ids.
    Construct from a nested tuple structure, e.g. ``Vtree(((1, 2), (3, 4)))``.
    """

    def __init__(self, structure) -> None:
        var: list[int] = []
        left: list[int] = []
        right: list[int] = []
        post: list[int] = []
        # iterative in-order numbering: a frame is (shape, -1) while its left
        # subtree is numbered, then (None, id) while its right one is
        stack: list[tuple] = []
        shape = structure
        while True:
            while not isinstance(shape, int):
                if not (isinstance(shape, tuple) and len(shape) == 2):
                    raise CircuitError(f"vtree structure nodes are ints or pairs, got {shape!r}")
                stack.append((shape, -1))
                shape = shape[0]
            done = len(var)
            var.append(shape)
            left.append(-1)
            right.append(-1)
            post.append(done)
            while stack:
                pending, vid = stack.pop()
                if vid < 0:  # left subtree done: number this node, descend right
                    vid = len(var)
                    var.append(0)
                    left.append(done)
                    right.append(-1)
                    stack.append((None, vid))
                    shape = pending[1]
                    break
                right[vid] = done
                post.append(vid)
                done = vid
            else:
                break
        self.root = done
        count = len(var)
        self._var = var
        self._left = left
        self._right = right
        self._parent = [-1] * count
        self._leaf_of: dict[int, int] = {}
        for vid in range(count):
            if left[vid] < 0:
                if var[vid] in self._leaf_of:
                    raise CircuitError(f"variable {var[vid]} appears twice in the vtree")
                self._leaf_of[var[vid]] = vid
            else:
                self._parent[left[vid]] = vid
                self._parent[right[vid]] = vid
        n = len(self._leaf_of)
        if set(self._leaf_of) != set(range(1, n + 1)):
            raise CircuitError("vtree variables must be exactly 1..n")
        # masks bottom-up: post-order puts both children before their parent
        self._mask = [0] * count
        for vid in post:
            self._mask[vid] = (
                1 << (var[vid] - 1) if left[vid] < 0 else self._mask[left[vid]] | self._mask[right[vid]]
            )
        self._post = tuple(post)
        self._key = (tuple(var), tuple(left), tuple(right))
        self.var_count = n
        self.node_count = count

    @classmethod
    def balanced(cls, n: int) -> "Vtree":
        def build(lo: int, hi: int):
            if lo == hi:
                return lo
            mid = (lo + hi) // 2
            return (build(lo, mid), build(mid + 1, hi))

        if n < 1:
            raise CircuitError("vtree needs at least one variable")
        return cls(build(1, n))

    @classmethod
    def right_linear(cls, n: int) -> "Vtree":
        if n < 1:
            raise CircuitError("vtree needs at least one variable")
        shape: object = n
        for var in range(n - 1, 0, -1):
            shape = (var, shape)
        return cls(shape)

    def is_leaf(self, vid: int) -> bool:
        return self._left[vid] < 0

    def var(self, vid: int) -> int:
        return self._var[vid]

    def left(self, vid: int) -> int:
        return self._left[vid]

    def right(self, vid: int) -> int:
        return self._right[vid]

    def parent(self, vid: int) -> int:
        return self._parent[vid]

    def mask(self, vid: int) -> int:
        return self._mask[vid]

    def leaf_of(self, var: int) -> int:
        return self._leaf_of[var]

    def contains_var(self, vid: int, var: int) -> bool:
        return bool(self._mask[vid] >> (var - 1) & 1)

    def vars_under(self, vid: int) -> tuple[int, ...]:
        mask = self._mask[vid]
        out = []
        while mask:  # one step per variable under vid, not per variable in the vtree
            low = mask & -mask
            out.append(low.bit_length())
            mask ^= low
        return tuple(out)

    def post_order(self) -> tuple[int, ...]:
        """Node ids in post-order, left subtree first: children before parents."""
        return self._post

    def structure(self):
        """Nested tuple form, inverse of the constructor."""
        shapes: dict[int, object] = {}
        for vid in self._post:
            shapes[vid] = (
                self._var[vid] if self.is_leaf(vid)
                else (shapes.pop(self._left[vid]), shapes.pop(self._right[vid]))
            )
        return shapes[self.root]

    def __eq__(self, other: object) -> bool:
        # the in-order arrays determine the tree, and comparing them never recurses
        return isinstance(other, Vtree) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        # the text of ``structure()``, written from an explicit stack: the
        # nested tuple's own repr recurses once per level
        parts = ["Vtree("]
        stack: list = [")", self.root]
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                parts.append(item)
            elif self.is_leaf(item):
                parts.append(str(self._var[item]))
            else:
                stack += (")", self._right[item], ", ", self._left[item], "(")
        return "".join(parts)


@dataclass(frozen=True, slots=True)
class SddNode:
    """One circuit node, stored at its id in :attr:`Circuit.nodes`;
    ``elements`` is empty unless ``kind == DECISION``."""

    kind: int
    vtree: int
    var: int = 0
    polarity: bool = True
    elements: tuple[tuple[int, int], ...] = ()


class _OpenNode:
    """SddNode's slot layout without the frozen ``__setattr__``."""

    __slots__ = ("kind", "vtree", "var", "polarity", "elements")


def _new_node(kind, vtree, var=0, polarity=True, elements=()) -> SddNode:
    """``SddNode(kind, vtree, var, polarity, elements)`` without its ``__init__``,
    which sets each field by ``object.__setattr__``: filling the open twin, then
    giving it SddNode's class, costs a third, and it is as frozen."""
    node = _OpenNode()
    node.kind, node.vtree, node.var, node.polarity, node.elements = kind, vtree, var, polarity, elements
    node.__class__ = SddNode
    return node


@dataclass(frozen=True)
class ConnectivityReport:
    multiplicity: dict[int, int]
    classification: str
    multi_nodes: tuple[int, ...]

    @property
    def singly_connected(self) -> bool:
        return self.classification == SINGLY_CONNECTED


class Circuit:
    """Append-only node store over a fixed vtree: ``nodes[i]`` is node ``i``.

    Terminals are created fresh on every call (the same literal may appear
    many times, each occurrence its own node).  Decision nodes are unique
    per (vtree node, element list): re-adding an existing one returns the
    stored id.  A circuit has one root: :meth:`set_root` stores it and
    derives its cone and false nodes, and every analysis reads that root.
    Circuits are immutable once built; every read operation is safe to run
    concurrently.
    """

    def __init__(self, vtree: Vtree) -> None:
        self.vtree = vtree
        self.nodes: list[SddNode] = []
        self._decision_cache: dict[tuple, int] = {}
        # facts of the root: set_root replaces every one of them
        self._root_id: int | None = None
        self._cone: list[int] = []
        self._false_ids: frozenset[int] = frozenset()
        self._connectivity: ConnectivityReport | None = None
        self._spines: dict[int, list[int]] = {}
        self._sign_plans: dict[int, list[tuple]] = {}  # filled by infer._sign_plan

    def __len__(self) -> int:
        return len(self.nodes)

    def node(self, nid: int) -> SddNode:
        if not 0 <= nid < len(self.nodes):
            raise CircuitError(f"unknown node id {nid}")
        return self.nodes[nid]

    def _add(self, kind: int, leaf_vtree: int, var: int, polarity: bool = True) -> int:
        nodes = self.nodes
        nodes.append(_new_node(kind, leaf_vtree, var, polarity))
        return len(nodes) - 1

    def add_false(self, leaf_vtree: int) -> int:
        self._check_leaf(leaf_vtree)
        return self._add(FALSE, leaf_vtree, self.vtree.var(leaf_vtree))

    def add_true(self, leaf_vtree: int) -> int:
        self._check_leaf(leaf_vtree)
        return self._add(TRUE, leaf_vtree, self.vtree.var(leaf_vtree))

    def add_literal(self, var: int, polarity: bool) -> int:
        return self._add(LITERAL, self.vtree.leaf_of(var), var, bool(polarity))

    def _check_leaf(self, vid: int) -> None:
        if not 0 <= vid < self.vtree.node_count or not self.vtree.is_leaf(vid):
            raise CircuitError(f"vtree node {vid} is not a leaf")

    def add_decision(self, vtree_id: int, elements: Sequence[tuple[int, int]]) -> int:
        vl = self.vtree._left[vtree_id]  # is_leaf, left and right read the same arrays
        if vl < 0:
            raise CircuitError(f"vtree node {vtree_id} is a leaf; decision nodes need an internal node")
        if type(elements) is not tuple:
            elements = tuple(map(tuple, elements))
        if not elements:
            raise CircuitError("decision node needs at least one element")
        key = (vtree_id, elements)
        try:
            hit = self._decision_cache.get(key)
        except TypeError:  # a tuple whose pairs are lists
            elements = tuple(map(tuple, elements))
            key = (vtree_id, elements)
            hit = self._decision_cache.get(key)
        if hit is not None:
            return hit
        nodes = self.nodes
        nid = len(nodes)
        vr = self.vtree._right[vtree_id]
        for p, s in elements:
            if not (0 <= p < nid and 0 <= s < nid):
                raise CircuitError("element ids must precede their decision node")
            prime = nodes[p]
            if prime.vtree != vl:
                raise CircuitError(f"prime {p} not normalized for vtree node {vl}")
            if nodes[s].vtree != vr:
                raise CircuitError(f"sub {s} not normalized for vtree node {vr}")
            if prime.kind == FALSE:
                raise CircuitError("false primes are not allowed")
        self._decision_cache[key] = nid
        nodes.append(_new_node(DECISION, vtree_id, 0, True, elements))
        return nid

    def _add_like(self, node: SddNode, elements: tuple[tuple[int, int], ...] = ()) -> int:
        """Add a node of ``node``'s kind, vtree node and literal; a decision
        node gets ``elements``, its (prime, sub) ids in this circuit."""
        if node.kind == DECISION:
            return self.add_decision(node.vtree, elements)
        if node.kind == LITERAL:
            return self.add_literal(node.var, node.polarity)
        return (self.add_true if node.kind == TRUE else self.add_false)(node.vtree)

    @property
    def root(self) -> int | None:
        """The root's node id; only :meth:`set_root` changes it."""
        return self._root_id

    def set_root(self, nid: int) -> None:
        """Make ``nid`` the root and derive its cone and false nodes."""
        self.node(nid)
        cone = _reach(self.nodes, (nid,))
        free = [1] * (self.vtree.var_count + 1)  # one row, every variable free
        sat = _truth_bits(self.nodes, cone, free, free, 1)
        self._root_id = nid
        self._cone = cone
        self._false_ids = frozenset(i for i in cone if not sat[i])
        self._connectivity = None
        self._spines = {}
        self._sign_plans = {}

    def cone(self) -> list[int]:
        """Ids of all nodes reachable from the root, ascending (= topological)."""
        if self._root_id is None:
            raise CircuitError("circuit has no root")
        return self._cone

    def spine(self, var: int) -> list[int]:
        """Ids of the root's cone whose vtree contains ``var``, ascending:
        the only nodes whose value evidence on ``var`` can change."""
        cached = self._spines.get(var)
        if cached is None:
            contains, nodes = self.vtree.contains_var, self.nodes
            cached = self._spines[var] = [i for i in self.cone() if contains(nodes[i].vtree, var)]
        return cached

    def false_ids(self) -> frozenset[int]:
        """Nodes of the root's cone whose sentence is unsatisfiable.

        In normalized form the false constant below an internal vtree node
        is a decision chain, not a terminal; those chains carry no
        distribution and their probability is identically zero.
        """
        self.cone()  # raises when there is no root
        return self._false_ids

    def parameterized_ids(self) -> list[int]:
        """Nodes carrying a distribution: TRUE terminals and satisfiable
        decision nodes (unsatisfiable ones induce no distribution)."""
        false = self.false_ids()
        return [
            nid
            for nid in self._cone
            if self.nodes[nid].kind in (TRUE, DECISION) and nid not in false
        ]

    def extract(self, root: int) -> "Circuit":
        """Copy the root's cone into a fresh, densely numbered circuit."""
        self.node(root)
        out = Circuit(self.vtree)
        remap: dict[int, int] = {}
        for nid in _reach(self.nodes, (root,)):
            node = self.nodes[nid]
            remap[nid] = out._add_like(node, tuple((remap[p], remap[s]) for p, s in node.elements))
        out.set_root(remap[root])
        return out

    def connectivity(self) -> ConnectivityReport:
        """The root's :func:`multiplicity_report`, computed on first use."""
        if self._connectivity is None:
            self._connectivity = multiplicity_report(self)
        return self._connectivity


def _reach(nodes: Sequence[SddNode], starts) -> list[int]:
    """Ids reachable from ``starts``, ascending (= topological)."""
    seen = set(starts)
    stack = list(seen)
    while stack:
        for p, s in nodes[stack.pop()].elements:
            if p not in seen:
                seen.add(p)
                stack.append(p)
            if s not in seen:
                seen.add(s)
                stack.append(s)
    return sorted(seen)


_BIT_CHARS = bytes.maketrans(b"\x00\x01", b"01")


def _pack_bits(flags) -> int:
    """The int whose bit ``r`` is the truth of ``flags[r]``."""
    return int(bytes(map(bool, flags))[::-1].translate(_BIT_CHARS) or b"0", 2)


def _truth_bits(
    nodes: Sequence[SddNode], ids: Sequence[int], pos, neg, full: int
) -> dict[int, int]:
    """Satisfiability of every node in ``ids`` on many assignments at once.

    Bit ``r`` of ``pos[var]`` (``neg[var]``) is set when assignment ``r``
    lets ``var`` be true (false): a complete assignment sets one of the
    two, a partial one sets both for its free variables.  ``full`` has one
    bit set per assignment.  ``ids`` must be closed under children and in
    topological order.  Bit ``r`` of a result is set when some extension
    of assignment ``r`` satisfies the node.  A decision node is the
    disjunction of its elements' conjunctions, which is exact on partial
    assignments too: a prime and its sub share no variable.
    """
    truth: dict[int, int] = {}
    for nid in ids:
        node = nodes[nid]
        kind = node.kind
        if kind == DECISION:
            value = 0
            for p, s in node.elements:
                value |= truth[p] & truth[s]
        elif kind == LITERAL:
            value = (pos if node.polarity else neg)[node.var]
        else:
            value = full if kind == TRUE else 0
        truth[nid] = value
    return truth


def evaluate(circuit: Circuit, nid: int, assignment: Mapping[int, bool]) -> bool:
    """Truth of the node's sentence under a complete assignment of its variables.

    A decision node takes its first element with a true prime and is that
    element's sub.  The walk keeps an explicit stack, so depth is not
    bounded by the recursion limit.
    """
    node = circuit.node(nid)
    vtree = circuit.vtree
    for var in vtree.vars_under(node.vtree):
        if var not in assignment:
            raise CircuitError(f"assignment is missing variable {var}")
    nodes, memo = circuit.nodes, {}
    stack = [nid]  # nodes whose children are being evaluated, the top one next
    while stack:
        i = stack[-1]
        n = nodes[i]
        if n.kind == DECISION:
            # the first element with a true prime decides, by its sub
            value, pending = False, None
            for p, s in n.elements:
                if p not in memo:
                    pending = p
                elif not memo[p]:
                    continue
                elif s not in memo:
                    pending = s
                else:
                    value = memo[s]
                break
            if pending is not None:
                stack.append(pending)
                continue
            memo[i] = value
        else:
            memo[i] = n.kind == TRUE or n.kind == LITERAL and bool(assignment[n.var]) == n.polarity
        stack.pop()
    return memo[nid]


def enumerate_models(circuit: Circuit, nid: int) -> set[tuple[bool, ...]]:
    """All satisfying complete assignments of the node, by exhaustive evaluation.

    Models are value tuples ordered by ascending variable id over
    ``circuit.vtree.vars_under(node.vtree)``.  Guarded against blow-up.
    """
    node = circuit.node(nid)
    scope = circuit.vtree.vars_under(node.vtree)
    if len(scope) > ENUMERATION_VAR_LIMIT:
        raise CircuitError(f"refusing to enumerate over {len(scope)} > {ENUMERATION_VAR_LIMIT} variables")
    models = set()
    for values in product((False, True), repeat=len(scope)):
        if evaluate(circuit, nid, dict(zip(scope, values))):
            models.add(values)
    return models


def model_count(circuit: Circuit) -> int:
    """Number of models over the root's variables, via one bottom-up pass."""
    counts: dict[int, int] = {}
    for i in circuit.cone():
        n = circuit.nodes[i]
        if n.kind == FALSE:
            counts[i] = 0
        elif n.kind == TRUE:
            counts[i] = 2
        elif n.kind == LITERAL:
            counts[i] = 1
        else:
            counts[i] = sum(counts[p] * counts[s] for p, s in n.elements)
    return counts[circuit.root]


def multiplicity_report(circuit: Circuit) -> ConnectivityReport:
    """Context counts per node and the singly/multiply connected verdict.

    A node's multiplicity is the number of distinct root-to-node element
    paths; the root has multiplicity one.
    """
    cone = circuit.cone()
    mult = {i: 0 for i in cone}
    mult[circuit.root] = 1
    for i in reversed(cone):  # a node's parents come after it, so m >= 1
        m = mult[i]
        for p, s in circuit.nodes[i].elements:
            mult[p] += m
            mult[s] += m
    multi = tuple(i for i in cone if mult[i] > 1)
    cls = SINGLY_CONNECTED if not multi else MULTIPLY_CONNECTED
    return ConnectivityReport(mult, cls, multi)


def validate_partitions(
    circuit: Circuit,
    exhaustive_limit: int = 1024,
    samples: int = 64,
    seed: int = 0,
) -> None:
    """Check that every decision node's primes partition the left assignments.

    A node whose left vtree has at most ``exhaustive_limit`` states (by
    default 1,024: 10 left variables) is checked on all of them; a wider
    node on ``samples`` assignments of its own, drawn from ``Random(seed)``
    node by node in topological order.  ``samples`` must be positive.  Cases
    are packed one per bit and primes are evaluated on all of them in
    bit-parallel passes.

    Left variable sets are laminar (any two are nested or disjoint), so all
    exhaustive nodes share one pass over the root's cone: the variables of
    each maximal exhaustive left set take bit positions ``0..w-1`` of the
    ``2 ** W`` cases of ``itertools.product``, ``W`` the widest set's width.
    A node with ``w`` left variables then sees each of its left assignments
    ``2 ** (W - w)`` times, so every case covered exactly once is every
    assignment covered exactly once.  A sampled node gets a pass over its
    own primes' cones.  The first node in topological order with a case
    covered zero or several times is reported, with its lowest such case.
    For an exhaustive node that is its lowest in its own product order, which
    the shared pass gives: its left variables keep their order among the bit
    positions, so its lowest bad shared case has every other position false.
    """
    if samples < 1:
        raise CircuitError(f"samples must be positive, got {samples}")
    vtree = circuit.vtree
    left, masks = vtree._left, vtree._mask
    nodes = circuit.nodes
    cone = circuit.cone()
    decisions = [nid for nid in cone if nodes[nid].kind == DECISION]
    widths: dict[int, int] = {}  # exhaustive left vtree node -> its width
    sampled: set[int] = set()    # vtree nodes whose decision nodes are sampled
    for vid in {nodes[nid].vtree for nid in decisions}:
        width = masks[left[vid]].bit_count()
        if 2 ** width <= exhaustive_limit:
            widths[left[vid]] = width
        else:
            sampled.add(vid)
    truth: dict[int, int] = {}
    full, pos = 0, []
    if widths:
        width = max(widths.values())
        full = (1 << 2 ** width) - 1
        bits = _product_bits(width)
        pos = [full] * (vtree.var_count + 1)  # a variable no exhaustive node reads stays free
        neg = pos[:]
        placed = 0
        # widest first: a set that meets one already placed is nested in it
        for lid in sorted(widths, key=widths.__getitem__, reverse=True):
            if not masks[lid] & placed:
                placed |= masks[lid]
                for var, value in zip(vtree.vars_under(lid), bits):
                    pos[var], neg[var] = value, full ^ value
        truth = _truth_bits(nodes, cone, pos, neg, full)
    rng = Random(seed)
    for nid in decisions:
        node = nodes[nid]
        own, cases = truth, full
        if node.vtree in sampled:
            left_vars = vtree.vars_under(left[node.vtree])
            width = len(left_vars)
            draws = [rng.random() < 0.5 for _ in range(samples * width)]
            var_bits = {var: _pack_bits(draws[i::width]) for i, var in enumerate(left_vars)}
            cases = (1 << samples) - 1
            neg_bits = {var: cases ^ value for var, value in var_bits.items()}
            primes = _reach(nodes, [p for p, _ in node.elements])
            own = _truth_bits(nodes, primes, var_bits, neg_bits, cases)
        once = twice = 0
        for p, _ in node.elements:
            t = own[p]
            twice |= once & t
            once |= t
        bad = twice | cases ^ once  # the cases covered several times or not at all
        if bad:
            if node.vtree not in sampled:
                left_vars, var_bits = vtree.vars_under(left[node.vtree]), pos
            k = (bad & -bad).bit_length() - 1
            values = tuple(bool(var_bits[var] >> k & 1) for var in left_vars)
            hits = sum(own[p] >> k & 1 for p, _ in node.elements)
            raise CircuitError(
                f"node {nid}: primes cover left assignment {values} {hits} times (want exactly 1)"
            )


def _product_bits(width: int) -> list[int]:
    """Per position, the packed values of all ``2 ** width`` cases.

    Case ``k`` is row ``k`` of ``itertools.product``: position 0 is its top
    bit.  Position ``i`` is set on the upper half of every run of
    ``2 * half`` cases, ``half = 2 ** (width - 1 - i)``; that run pattern
    times the repunit of period ``2 * half`` tiles it over all cases.
    """
    full = (1 << 2 ** width) - 1
    bits = []
    for i in range(width):
        half = 1 << (width - 1 - i)
        bits.append((((1 << half) - 1) << half) * (full // ((1 << 2 * half) - 1)))
    return bits


def is_consistent(circuit: Circuit, evidence: Mapping[int, bool]) -> bool:
    """Whether some model of the root extends the partial assignment."""
    n = circuit.vtree.var_count
    pos = [1] * (n + 1)
    neg = [1] * (n + 1)
    for var, val in evidence.items():
        if val is not None and 1 <= var <= n:  # no literal reads any other variable
            (neg if val else pos)[var] = 0
    return bool(_truth_bits(circuit.nodes, circuit.cone(), pos, neg, 1)[circuit.root])


class CircuitBuilder:
    """Bottom-up compiler: literals combined through apply/negate.

    Every constructor and operation is memoized over one node store, so
    structurally equal nodes are reused, as canonical SDD apply assumes;
    the results are generally multiply connected.
    ``compile_formula(..., share=False)`` turns a result into a tree.
    """

    def __init__(self, vtree: Vtree) -> None:
        self.vtree = vtree
        self.circuit = Circuit(vtree)
        self._terminal_memo: dict[tuple, int] = {}
        self._apply_memo: dict[tuple, int] = {}
        self._negate_memo: dict[int, int] = {}
        self._constant_memo: dict[tuple, int] = {}
        self._is_false: dict[int, bool] = {}
        self._is_true: dict[int, bool] = {}
        # a terminal's truth table: bit 1 its value at var=true, bit 0 at var=false
        self._tt: dict[int, int] = {}
        # n-ary And/Or fold their operands in this order: descendants first
        self._rank = [0] * vtree.node_count
        for rank, vid in enumerate(vtree.post_order()):
            self._rank[vid] = rank

    # -- node constructors ------------------------------------------------

    def _terminal(self, leaf: int, tt: int) -> int:
        key = (leaf, tt)
        if key in self._terminal_memo:
            return self._terminal_memo[key]
        circuit = self.circuit
        if tt == 0b00:
            nid = circuit.add_false(leaf)
        elif tt == 0b11:
            nid = circuit.add_true(leaf)
        else:
            nid = circuit.add_literal(circuit.vtree.var(leaf), tt == 0b10)
        self._is_false[nid] = tt == 0b00
        self._is_true[nid] = tt == 0b11
        self._tt[nid] = tt
        self._terminal_memo[key] = nid
        return nid

    def literal(self, var: int, polarity: bool = True) -> int:
        return self._terminal(self.vtree.leaf_of(var), 0b10 if polarity else 0b01)

    def true_at(self, vid: int) -> int:
        # vid's subtree is the post-order block of 2 * leaves - 1 nodes ending at its
        # rank; subtrees made before are skipped whole, the rest made children first
        vtree, memo, post = self.vtree, self._constant_memo, self.vtree.post_order()
        if (vid, True) in memo:
            return memo[vid, True]
        todo, i = [], self._rank[vid]
        stop = i - 2 * vtree.mask(vid).bit_count() + 1
        while i > stop:
            if (post[i], True) in memo:  # and so has every node below it
                i -= 2 * vtree.mask(post[i]).bit_count() - 2
            else:
                todo.append(post[i])
            i -= 1
        for v in reversed(todo):
            memo[v, True] = self._terminal(v, 0b11) if vtree.is_leaf(v) else self._decision(
                v, [(memo[vtree.left(v), True], memo[vtree.right(v), True])])
        return memo[vid, True]

    def false_at(self, vid: int) -> int:
        # down the right spine to a leaf or a node that has its FALSE, making
        # each left child's TRUE on the way down, then the FALSEs back up; a
        # leaf's FALSE is its terminal, which _terminal already memoizes
        vtree, memo, spine, v = self.vtree, self._constant_memo, [], vid
        while (v, False) not in memo and not vtree.is_leaf(v):
            spine.append((v, self.true_at(vtree.left(v))))
            v = vtree.right(v)
        nid = self._terminal(v, 0b00) if vtree.is_leaf(v) else memo[v, False]
        for v, prime in reversed(spine):
            nid = memo[v, False] = self._decision(v, [(prime, nid)])
        return nid

    def _decision(self, vid: int, elements: list[tuple[int, int]]) -> int:
        elements = tuple(sorted(elements))
        nid = self.circuit.add_decision(vid, elements)
        if nid not in self._is_false:
            self._is_false[nid] = all(self._is_false[s] for _, s in elements)
            self._is_true[nid] = all(self._is_true[s] for _, s in elements)
        return nid

    # -- boolean operations ------------------------------------------------

    def negate(self, a: int) -> int:
        if a in self._negate_memo:
            return self._negate_memo[a]
        node = self.circuit.node(a)
        if node.kind == DECISION:
            result = self._decision(node.vtree, [(p, self.negate(s)) for p, s in node.elements])
        else:
            result = self._terminal(node.vtree, self._tt[a] ^ 0b11)
        self._negate_memo[a] = result
        self._negate_memo[result] = a
        return result

    def apply(self, a: int, b: int, op: str) -> int:
        """Conjoin or disjoin two nodes; operands may sit at different vtree nodes."""
        if op not in ("and", "or"):
            raise CircuitError(f"unknown operation {op!r}")
        va = self.circuit.node(a).vtree
        vb = self.circuit.node(b).vtree
        if va != vb:
            join = self._join(va, vb)
            a = self.lift(a, join)
            b = self.lift(b, join)
        return self._apply(a, b, op)

    def _join(self, va: int, vb: int) -> int:
        """Lowest common ancestor: the first ancestor of ``va`` covering ``vb``'s variables."""
        vtree = self.vtree
        need = vtree.mask(vb)
        v = va
        while vtree.mask(v) & need != need:
            v = vtree.parent(v)
        return v

    def lift(self, a: int, target: int) -> int:
        """Re-normalize a node for an ancestor vtree node (same sentence)."""
        if self._is_false[a]:
            return self.false_at(target)
        if self._is_true[a]:
            return self.true_at(target)
        v = self.circuit.node(a).vtree
        while v != target:
            parent = self.vtree.parent(v)
            if parent == -1:
                raise CircuitError("lift target is not an ancestor")
            if self.vtree.left(parent) == v:
                elements = [(a, self.true_at(self.vtree.right(parent)))]
                neg = self.negate(a)
                if not self._is_false[neg]:
                    elements.append((neg, self.false_at(self.vtree.right(parent))))
                a = self._decision(parent, elements)
            else:
                a = self._decision(parent, [(self.true_at(self.vtree.left(parent)), a)])
            v = parent
        return a

    def _apply(self, a: int, b: int, op: str) -> int:
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
            ta, tb = self._tt[a], self._tt[b]
            result = self._terminal(na.vtree, (ta & tb) if op == "and" else (ta | tb))
        else:
            # the exits below mirror this method's head: the calls that would
            # pass it are made in the same order, so node ids are unchanged
            is_false, is_true, cached = self._is_false, self._is_true, self._apply_memo.get
            raw: list[tuple[int, int]] = []
            for pa, sa in na.elements:
                for pb, sb in nb.elements:
                    if is_false[pa] or is_true[pb]:
                        prime = pa
                    elif is_false[pb] or is_true[pa]:
                        prime = pb
                    elif pa == pb:
                        prime = pa
                    else:
                        prime = cached(("and", pa, pb) if pa < pb else ("and", pb, pa))
                        if prime is None:
                            prime = self._apply(pa, pb, "and")
                    if is_false[prime]:
                        continue
                    if absorbing[sa] or neutral[sb]:
                        sub = sa
                    elif absorbing[sb] or neutral[sa]:
                        sub = sb
                    elif sa == sb:
                        sub = sa
                    else:
                        sub = cached((op, sa, sb) if sa < sb else (op, sb, sa))
                        if sub is None:
                            sub = self._apply(sa, sb, op)
                    raw.append((prime, sub))
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

    # -- formula compilation -----------------------------------------------

    def compile(self, formula: Formula) -> int:
        """Node id of the formula's sentence; ``lift`` it to normalize it for the root.

        The operands of an n-ary And/Or are combined in post-order of the
        vtree nodes they are normalized for, so a node's descendants are
        folded before it: apply costs the product of its operands' sizes,
        and this keeps the intermediate results small.
        """
        missing = formula.variables() - set(range(1, self.vtree.var_count + 1))
        if missing:
            raise CircuitError(f"formula uses variables outside the vtree: {sorted(missing)}")
        return self._compile(formula)

    def _compile(self, formula: Formula) -> int:
        # one fold over the formula's post-order: a node takes its operands off
        # the stack, so children compile left to right before it, as by recursion
        root, nodes, rank = self.vtree.root, self.circuit.nodes, self._rank
        ids: list[int] = []
        for node in formula.postorder():
            if isinstance(node, (And, Or)) and node.children:
                op = "and" if isinstance(node, And) else "or"
                start = len(ids) - len(node.children)
                operands = sorted(ids[start:], key=lambda nid: rank[nodes[nid].vtree])
                nid = operands[0]
                for other in operands[1:]:
                    nid = self.apply(nid, other, op)
                ids[start:] = [nid]
            elif isinstance(node, Not):
                ids[-1] = self.negate(ids[-1])
            elif isinstance(node, Var):
                ids.append(self.literal(node.var, True))
            elif isinstance(node, (Const, And, Or)):  # a constant, or an empty And/Or
                true = node.value if isinstance(node, Const) else isinstance(node, And)
                ids.append(self.true_at(root) if true else self.false_at(root))
            else:
                raise CircuitError(f"unknown formula node {node!r}")
        return ids[0]

    def finish(self, root: int) -> Circuit:
        """Garbage-collect into a fresh circuit holding only the root's cone."""
        return self.circuit.extract(root)


def compile_formula(formula: Formula, vtree: Vtree, share: bool = True) -> Circuit:
    """Compile a formula into a circuit normalized for the vtree.

    ``share=False`` returns the tree copy of the shared result: one fresh
    node per root-to-node path, so the circuit is singly connected.  A
    copy of more than ``TREE_COPY_CAP`` nodes raises :class:`CircuitError`
    before any node is copied.
    """
    builder = CircuitBuilder(vtree)
    root = builder.lift(builder.compile(formula), vtree.root)
    circuit = builder.finish(root)
    if share:
        return circuit
    size = sum(circuit.connectivity().multiplicity.values())
    if size > TREE_COPY_CAP:
        raise CircuitError(
            f"the unshared circuit would have {size} nodes, more than {TREE_COPY_CAP}"
        )
    return _tree_copy(circuit)


def _tree_copy(circuit: Circuit) -> Circuit:
    """The root's cone with every shared node copied once per context.

    Nodes are added in post-order from an explicit stack, children before
    their parent, so the copy's ids stay topological.  A decision frame is
    pushed once to expand it and once more, marked expanded, to add it from
    its children's copies.
    """
    nodes = circuit.nodes
    out = Circuit(circuit.vtree)
    copies: list[int] = []  # copied children, element by element, awaiting their parent
    stack = [(circuit.root, False)]
    while stack:
        nid, expanded = stack.pop()
        node = nodes[nid]
        elements = ()
        if node.kind == DECISION:
            if not expanded:
                stack.append((nid, True))
                for p, s in reversed(node.elements):
                    stack += ((s, False), (p, False))
                continue
            width = 2 * len(node.elements)
            ids = copies[-width:]
            del copies[-width:]
            elements = tuple(zip(ids[::2], ids[1::2]))
        copies.append(out._add_like(node, elements))
    out.set_root(copies[0])
    return out
