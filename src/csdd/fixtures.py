"""Built-in demonstration models.

``squares``: four Boolean pixels (top-left, then clockwise) where a legal
image has at least one black and at least two white pixels, leaving 10 of
the 16 images.  The hand-built circuit keeps one terminal per use, so
every node has a single context (singly connected).

``shared_node``: a four-variable circuit for
``(x1 and x2 and x4) or (not x1 and x2 and not x4)`` in which one
sub-circuit is shared between two decision nodes; the canonical example of
a multiply connected model, with an interval parameter sitting inside the
shared part.
"""

from __future__ import annotations

from dataclasses import dataclass

from .circuit import TRUE, Circuit, Vtree
from .credal import IntervalCredalSet
from .formula import Formula, Var, disj
from .learn import Dataset
from .params import CsddParams, PsddParams

__all__ = [
    "SquaresFixture",
    "squares_fixture",
    "squares_vtree",
    "squares_formula",
    "squares_dataset",
    "SharedNodeFixture",
    "shared_node_fixture",
]


def squares_vtree() -> Vtree:
    return Vtree(((1, 2), (3, 4)))


def squares_formula() -> Formula:
    """At least one black pixel and at least two white ones."""
    xs = [Var(i) for i in range(1, 5)]
    at_least_one = disj(xs)
    two_white = disj(
        ~xs[i] & ~xs[j] for i in range(4) for j in range(i + 1, 4)
    )
    return at_least_one & two_white


@dataclass(frozen=True)
class SquaresFixture:
    """Hand-built squares circuit with named handles for its pieces.

    The root has three elements (both-white, exactly-one-black-on-top,
    both-black primes over x1 x2); ``top_right_on`` and ``top_any`` are
    the parameterized TRUE terminals inside ``right_when_white`` and
    ``right_when_mixed``.
    """

    circuit: Circuit
    root: int
    left_white: int          # prime: not x1 and not x2
    right_when_white: int    # sub over (x3, x4): (not x3 and x4) or x3
    left_mixed: int          # prime: x1 xor x2
    right_when_mixed: int    # sub: (x3 and not x4) or not x3
    left_black: int          # prime: x1 and x2
    right_when_black: int    # sub: not x3 and not x4
    top_white: int           # TRUE terminal under right_when_white (x4 side)
    top_mixed: int           # TRUE terminal under right_when_mixed (x4 side)


def squares_fixture() -> SquaresFixture:
    vt = squares_vtree()
    c = Circuit(vt)
    leaf = {var: vt.leaf_of(var) for var in (1, 2, 3, 4)}
    v_left = vt.left(vt.root)
    v_right = vt.right(vt.root)

    # prime 1: both top pixels white
    p1 = c.add_decision(
        v_left,
        [
            (c.add_literal(1, False), c.add_literal(2, False)),
            (c.add_literal(1, True), c.add_false(leaf[2])),
        ],
    )
    # its sub: x4 alone, or x3 with x4 free
    top_white = c.add_true(leaf[4])
    s1 = c.add_decision(
        v_right,
        [
            (c.add_literal(3, False), c.add_literal(4, True)),
            (c.add_literal(3, True), top_white),
        ],
    )
    # prime 2: exactly one of the top pixels black
    p2 = c.add_decision(
        v_left,
        [
            (c.add_literal(1, True), c.add_literal(2, False)),
            (c.add_literal(1, False), c.add_literal(2, True)),
        ],
    )
    top_mixed = c.add_true(leaf[4])
    s2 = c.add_decision(
        v_right,
        [
            (c.add_literal(3, True), c.add_literal(4, False)),
            (c.add_literal(3, False), top_mixed),
        ],
    )
    # prime 3: both top pixels black, forcing both bottom pixels white
    p3 = c.add_decision(
        v_left,
        [
            (c.add_literal(1, True), c.add_literal(2, True)),
            (c.add_literal(1, False), c.add_false(leaf[2])),
        ],
    )
    s3 = c.add_decision(
        v_right,
        [
            (c.add_literal(3, False), c.add_literal(4, False)),
            (c.add_literal(3, True), c.add_false(leaf[4])),
        ],
    )
    root = c.add_decision(vt.root, [(p1, s1), (p2, s2), (p3, s3)])
    c.set_root(root)
    return SquaresFixture(c, root, p1, s1, p2, s2, p3, s3, top_white, top_mixed)


# observation counts for the ten legal images, keyed by (x1, x2, x3, x4)
SQUARES_COUNTS = {
    (True, False, False, True): 30,
    (False, True, True, False): 8,
    (False, False, True, True): 5,
    (True, True, False, False): 17,
    (False, True, False, True): 3,
    (True, False, True, False): 0,
    (False, False, False, True): 12,
    (False, True, False, False): 2,
    (True, False, False, False): 9,
    (False, False, True, False): 14,
}


def squares_dataset() -> Dataset:
    """The 100-observation training set over the ten legal images."""
    rows = [(values, count) for values, count in SQUARES_COUNTS.items() if count > 0]
    return Dataset(("X1", "X2", "X3", "X4"), rows)


@dataclass(frozen=True)
class SharedNodeFixture:
    circuit: Circuit
    root: int
    shared: int        # decision node with two contexts
    shared_top: int    # TRUE terminal inside it, also with two contexts
    vtree: Vtree

    def params(self, low: float = 0.3, high: float = 0.8) -> CsddParams:
        """Point parameters everywhere except [low, high] on the shared terminal."""
        c = self.circuit
        false = c.false_ids()
        table = {}
        for nid in c.parameterized_ids():
            node = c.nodes[nid]
            if nid == self.shared_top:
                table[nid] = IntervalCredalSet((low, 1.0 - high), (high, 1.0 - low))
            elif node.kind == TRUE:
                table[nid] = IntervalCredalSet.point((0.7, 0.3))
            else:
                pmf = [0.0] * len(node.elements)
                free = [i for i, (_, s) in enumerate(node.elements) if s not in false]
                for i in free:
                    pmf[i] = 1.0 / len(free)
                table[nid] = IntervalCredalSet.point(pmf)
        return CsddParams(table)

    def point_params(self) -> PsddParams:
        table = {}
        for nid, cs in self.params(0.5, 0.5).table.items():
            table[nid] = cs.lower
        return PsddParams(table)


def shared_node_fixture() -> SharedNodeFixture:
    vt = Vtree(((1, (2, 3)), 4))
    c = Circuit(vt)
    v1 = vt.parent(vt.leaf_of(1))      # internal node over x1 (x2 x3)
    v23 = vt.parent(vt.leaf_of(2))     # internal node over x2 x3

    shared_top = c.add_true(vt.leaf_of(3))
    shared = c.add_decision(
        v23,
        [
            (c.add_literal(2, True), shared_top),
            (c.add_literal(2, False), c.add_false(vt.leaf_of(3))),
        ],
    )

    def false23() -> int:
        return c.add_decision(v23, [(c.add_true(vt.leaf_of(2)), c.add_false(vt.leaf_of(3)))])

    def not_x2() -> int:
        return c.add_decision(
            v23,
            [
                (c.add_literal(2, False), c.add_true(vt.leaf_of(3))),
                (c.add_literal(2, True), c.add_false(vt.leaf_of(3))),
            ],
        )

    p1 = c.add_decision(v1, [(c.add_literal(1, True), shared), (c.add_literal(1, False), false23())])
    p2 = c.add_decision(v1, [(c.add_literal(1, False), shared), (c.add_literal(1, True), false23())])
    p3 = c.add_decision(v1, [(c.add_literal(1, True), not_x2()), (c.add_literal(1, False), not_x2())])
    root = c.add_decision(
        vt.root,
        [
            (p1, c.add_literal(4, True)),
            (p2, c.add_literal(4, False)),
            (p3, c.add_false(vt.leaf_of(4))),
        ],
    )
    c.set_root(root)
    return SharedNodeFixture(c, root, shared, shared_top, vt)
