"""Vtree and circuit structure: evaluation, models, connectivity, compile."""

import sys
import time
from dataclasses import make_dataclass, replace
from functools import partial
from itertools import product
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csdd import circuit as circuit_module
from csdd.circuit import (
    TREE_COPY_CAP,
    Circuit,
    CircuitBuilder,
    CircuitError,
    Vtree,
    _pack_bits,
    _product_bits,
    compile_formula,
    enumerate_models,
    evaluate,
    is_consistent,
    model_count,
    multiplicity_report,
    validate_partitions,
)
from csdd.fixtures import shared_node_fixture, squares_fixture, squares_formula, squares_vtree
from csdd.formula import (
    FALSE as F_CONST,
    TRUE as T_CONST,
    And,
    FormulaError,
    Not,
    Or,
    Var,
    conj,
    disj,
    parse_formula,
)

from conftest import (
    apply_reference,
    check_partitions,
    compile_reference,
    evaluate_reference,
    false_at_reference,
    random_circuit,
    random_formula,
    random_vtree,
    true_at_reference,
    variables_reference,
)


class TestVtree:
    def test_inorder_ids(self):
        vt = squares_vtree()
        assert vt.node_count == 7
        assert [vt.var(i) for i in (0, 2, 4, 6)] == [1, 2, 3, 4]
        assert vt.left(3) == 1 and vt.right(3) == 5
        assert vt.root == 3

    def test_vars_under(self):
        vt = Vtree(((1, (2, 3)), 4))
        assert vt.vars_under(vt.root) == (1, 2, 3, 4)
        assert vt.vars_under(vt.parent(vt.leaf_of(2))) == (2, 3)

    def test_rejects_duplicate_variable(self):
        with pytest.raises(CircuitError):
            Vtree(((1, 2), (2, 3)))

    def test_rejects_non_contiguous(self):
        with pytest.raises(CircuitError):
            Vtree((1, 3))

    def test_balanced_and_right_linear(self):
        assert Vtree.balanced(5).var_count == 5
        assert Vtree.right_linear(4).structure() == (1, (2, (3, 4)))
        for n in (0, -1):
            for build in (Vtree.balanced, Vtree.right_linear):
                with pytest.raises(CircuitError, match="^vtree needs at least one variable$"):
                    build(n)

    def test_post_order_left_first(self):
        assert squares_vtree().post_order() == (0, 2, 1, 4, 6, 5, 3)

    def test_structure_inverts_constructor(self):
        rng = Random(9)
        for _ in range(20):
            vt = random_vtree(rng, rng.randint(1, 12))
            again = Vtree(vt.structure())
            assert again == vt and hash(again) == hash(vt)
            assert [again.mask(v) for v in range(vt.node_count)] == [
                vt.mask(v) for v in range(vt.node_count)
            ]
        assert Vtree((1, (2, 3))) != Vtree(((1, 2), 3))

    def test_rejects_malformed_shape(self):
        with pytest.raises(CircuitError, match="ints or pairs"):
            Vtree((1, (2, 3, 4)))

    def test_repr_is_the_structure(self):
        assert repr(Vtree(1)) == "Vtree(1)"
        assert repr(Vtree(((1, 2), (3, 4)))) == "Vtree(((1, 2), (3, 4)))"
        rng = Random(21)
        for _ in range(20):
            vt = random_vtree(rng, rng.randint(1, 12))
            assert repr(vt) == f"Vtree({vt.structure()!r})"

    def test_deep_repr(self):
        text = repr(Vtree.right_linear(5000))
        assert text.startswith("Vtree((1, (2, (3, ")
        assert text.endswith("(4999, 5000)" + ")" * 4999)


class TestEvaluate:
    def test_squares_permitted_image(self, squares):
        assert evaluate(squares.circuit, squares.root, {1: False, 2: False, 3: False, 4: True})

    def test_squares_forbidden_image(self, squares):
        assert not evaluate(squares.circuit, squares.root, {1: True, 2: False, 3: True, 4: True})

    def test_true_terminal_any_assignment(self):
        vt = Vtree(1)
        c = Circuit(vt)
        nid = c.add_true(vt.root)
        assert evaluate(c, nid, {1: False}) and evaluate(c, nid, {1: True})

    def test_incomplete_assignment_rejected(self, squares):
        with pytest.raises(CircuitError):
            evaluate(squares.circuit, squares.root, {1: True})

    def test_unknown_node_rejected(self, squares):
        with pytest.raises(CircuitError):
            evaluate(squares.circuit, 10_000, {1: True, 2: True, 3: True, 4: True})

    def test_deep_implication_chain(self):
        # 2,000 variables on a right-linear vtree nest deeper than the recursion limit
        n = 2000
        formula = _chain(n)
        circuit = compile_formula(formula, Vtree.right_linear(n))
        satisfied = {v: v > n // 2 for v in range(1, n + 1)}
        violated = {**satisfied, n // 2: True, n // 2 + 1: False}  # x1000 holds, x1001 does not
        for assignment, value in ((satisfied, True), (violated, False)):
            assert formula.evaluate(assignment) is value
            assert evaluate(circuit, circuit.root, assignment) is value


class TestEnumerateModels:
    def test_squares_has_ten_legal_images(self, squares):
        models = enumerate_models(squares.circuit, squares.root)
        assert len(models) == 10
        # the legal images: at least one black, at least two white
        for values in product((False, True), repeat=4):
            legal = any(values) and sum(values) <= 2
            assert (values in models) == legal

    def test_false_terminal_empty(self):
        vt = Vtree(1)
        c = Circuit(vt)
        assert enumerate_models(c, c.add_false(vt.root)) == set()

    def test_single_literal(self):
        vt = Vtree(1)
        c = Circuit(vt)
        assert enumerate_models(c, c.add_literal(1, True)) == {(True,)}

    def test_guard(self):
        vt = Vtree.balanced(25)
        c = Circuit(vt)
        builder = CircuitBuilder(vt)
        nid = builder.true_at(vt.root)
        with pytest.raises(CircuitError):
            enumerate_models(builder.circuit, nid)


class TestConnectivity:
    def test_squares_singly_connected(self, squares):
        report = multiplicity_report(squares.circuit)
        assert report.singly_connected
        assert all(m == 1 for m in report.multiplicity.values())

    def test_shared_node_has_two_contexts(self):
        fx = shared_node_fixture()
        report = multiplicity_report(fx.circuit)
        assert report.classification == "multiply_connected"
        assert report.multiplicity[fx.shared] == 2
        assert report.multiplicity[fx.shared_top] == 2
        assert fx.shared in report.multi_nodes

    def test_single_decision_over_literals(self):
        vt = Vtree((1, 2))
        c = Circuit(vt)
        root = c.add_decision(
            vt.root,
            [
                (c.add_literal(1, True), c.add_literal(2, True)),
                (c.add_literal(1, False), c.add_literal(2, False)),
            ],
        )
        c.set_root(root)
        assert multiplicity_report(c).singly_connected


def _shared_3cnf() -> Circuit:
    rng = Random(8)
    clauses = [
        disj(Var(v) if rng.random() < 0.5 else Not(Var(v)) for v in rng.sample(range(1, 9), 3))
        for _ in range(12)
    ]
    return compile_formula(conj(clauses), Vtree.balanced(8))


def _root_facts(circuit: Circuit, ids=None):
    """Everything the circuit derives from its root, with node ``i``
    renamed ``ids[i]``."""
    name = (lambda i: i) if ids is None else ids.__getitem__
    return (
        [name(i) for i in circuit.cone()],
        {name(i) for i in circuit.false_ids()},
        [name(i) for i in circuit.parameterized_ids()],
        {name(i): m for i, m in circuit.connectivity().multiplicity.items()},
        model_count(circuit),
        {v: [name(i) for i in circuit.spine(v)] for v in range(1, circuit.vtree.var_count + 1)},
    )


class TestRootCaches:
    @pytest.mark.parametrize("make", [
        lambda: squares_fixture().circuit,
        lambda: shared_node_fixture().circuit,
        _shared_3cnf,
    ], ids=["squares", "shared-node", "3cnf"])
    def test_set_root_never_leaves_a_stale_fact(self, make):
        circuit = make()
        top = circuit.root
        below = max(
            (nid for nid in circuit.cone() if circuit.nodes[nid].elements and nid != top),
            key=lambda nid: len(circuit.extract(nid)),
        )
        for nid in (top, below, top):
            circuit.set_root(nid)
            # extract numbers the node's cone densely in ascending id order
            seen, stack = {nid}, [nid]
            while stack:
                for child in (c for e in circuit.nodes[stack.pop()].elements for c in e):
                    if child not in seen:
                        seen.add(child)
                        stack.append(child)
            order = sorted(seen)
            fresh = circuit.extract(nid)
            assert len(fresh) == len(order)
            assert _root_facts(circuit) == _root_facts(fresh, order)

    def test_unknown_root_refused(self):
        c = squares_fixture().circuit
        for bad in (len(c), -1):
            with pytest.raises(CircuitError):
                c.set_root(bad)
            with pytest.raises(CircuitError):
                c.extract(bad)

    def test_set_root_resets_false_ids(self):
        vt = Vtree((1, 2))
        c = Circuit(vt)
        sat = c.add_decision(vt.root, [(c.add_literal(1, True), c.add_literal(2, True))])
        leaf2 = vt.leaf_of(2)
        unsat = c.add_decision(
            vt.root,
            [
                (c.add_literal(1, True), c.add_false(leaf2)),
                (c.add_literal(1, False), c.add_false(leaf2)),
            ],
        )
        c.set_root(sat)
        assert c.false_ids() == frozenset()
        c.set_root(unsat)
        # the extracted copy numbers the cone densely, in cone order
        assert c.false_ids() == {c.cone()[i] for i in c.extract(unsat).false_ids()}
        assert unsat in c.false_ids()

    @pytest.mark.parametrize("singly", [True, False])
    def test_spine_is_the_filtered_cone(self, singly):
        rng = Random(31)
        for _ in range(10):
            c = random_circuit(rng, rng.randint(3, 6), singly=singly)
            for var in range(1, c.vtree.var_count + 1):
                spine = c.spine(var)
                assert spine == [
                    nid for nid in c.cone() if c.vtree.contains_var(c.nodes[nid].vtree, var)
                ]
                assert c.spine(var) is spine

    def test_spine_follows_set_root(self):
        c = squares_fixture().circuit
        top = c.root
        below = c.nodes[top].elements[0][0]
        whole = c.spine(1)
        c.set_root(below)
        assert c.spine(1) == [nid for nid in c.cone() if nid in whole]
        assert top not in c.spine(1)
        c.set_root(top)
        # set_root clears the spines: rebuilt equal, then cached
        assert c.spine(1) == whole
        assert c.spine(1) is c.spine(1)


class TestTopologicalOrder:
    """``Circuit.cone`` lists every prime and sub before its decision node."""

    def test_children_precede_parents(self, squares):
        order = squares.circuit.cone()
        position = {nid: i for i, nid in enumerate(order)}
        for nid in order:
            for p, s in squares.circuit.nodes[nid].elements:
                assert position[p] < position[nid]
                assert position[s] < position[nid]
        assert order[-1] == squares.root

    def test_random_circuits_keep_precedence(self):
        rng = Random(7)
        for _ in range(10):
            circuit = random_circuit(rng, rng.randint(3, 6), singly=bool(rng.getrandbits(1)))
            order = circuit.cone()
            assert len(order) == len(set(order))
            position = {nid: i for i, nid in enumerate(order)}
            for nid in order:
                for p, s in circuit.nodes[nid].elements:
                    assert position[p] < position[nid] and position[s] < position[nid]


class TestApply:
    def test_contradiction_is_false(self):
        vt = Vtree(1)
        b = CircuitBuilder(vt)
        nid = b.apply(b.literal(1, True), b.literal(1, False), "and")
        assert model_count(b.finish(nid)) == 0

    def test_excluded_middle_is_true(self):
        vt = Vtree((1, 2))
        b = CircuitBuilder(vt)
        nid = b.apply(b.literal(1, True), b.literal(1, False), "or")
        nid = b.lift(nid, vt.root)
        assert model_count(b.finish(nid)) == 4

    def test_apply_soundness_on_random_formulas(self):
        rng = Random(11)
        for _ in range(25):
            n = rng.randint(2, 5)
            vt = random_vtree(rng, n)
            f, g = random_formula(rng, n, 2), random_formula(rng, n, 2)
            b = CircuitBuilder(vt)
            a_id = b.lift(b.compile(f), vt.root)
            b_id = b.lift(b.compile(g), vt.root)
            both = b.apply(a_id, b_id, "and")
            either = b.apply(a_id, b_id, "or")
            neg = b.negate(a_id)
            ma = enumerate_models(b.circuit, a_id)
            mb = enumerate_models(b.circuit, b_id)
            assert enumerate_models(b.circuit, both) == ma & mb
            assert enumerate_models(b.circuit, either) == ma | mb
            full = set(product((False, True), repeat=n))
            assert enumerate_models(b.circuit, neg) == full - ma

    def test_constant_operands_short_circuit(self):
        vt = Vtree.balanced(4)
        b = CircuitBuilder(vt)
        a = b.lift(b.compile(parse_formula("(or x1 (and x2 (not x4)))")), vt.root)
        top, bottom = b.true_at(vt.root), b.false_at(vt.root)
        memo, size = dict(b._apply_memo), len(b.circuit)
        for x, y in ((a, top), (top, a)):
            assert b._apply(x, y, "and") == a
            assert b._apply(x, y, "or") == top
        for x, y in ((a, bottom), (bottom, a)):
            assert b._apply(x, y, "and") == bottom
            assert b._apply(x, y, "or") == a
        # answered from the flags alone: no apply recursion, no new nodes
        assert b._apply_memo == memo and len(b.circuit) == size

    def test_vtree_mismatch_rejected(self):
        vt = Vtree((1, 2))
        b = CircuitBuilder(vt)
        with pytest.raises(CircuitError):
            b._apply(b.literal(1, True), b.literal(2, True), "and")


class TestCompileFormula:
    def test_squares_formula_matches_fixture(self, squares):
        compiled = compile_formula(squares_formula(), squares_vtree())
        validate_partitions(compiled)
        assert enumerate_models(compiled, compiled.root) == enumerate_models(
            squares.circuit, squares.root
        )

    def test_constant_true_has_all_models(self):
        compiled = compile_formula(T_CONST, Vtree.balanced(3))
        assert model_count(compiled) == 8

    def test_unsatisfiable_compiles_to_empty(self):
        compiled = compile_formula(Var(1) & ~Var(1), Vtree.balanced(2))
        assert model_count(compiled) == 0

    def test_unbound_variable_rejected(self):
        with pytest.raises(CircuitError):
            compile_formula(Var(5), Vtree.balanced(3))

    def test_unbound_variable_deep_in_nested_formula(self):
        # operators nest to the left, so x50 ends up 40 levels down
        formula = Var(1) | ~Var(50)
        for var in range(2, 40):
            formula = formula & (Var(var) | ~Var(var - 1))
        with pytest.raises(CircuitError) as err:
            compile_formula(formula, Vtree.balanced(39))
        assert str(err.value) == "formula uses variables outside the vtree: [50]"

    def test_unshared_compilation_is_singly_connected(self):
        rng = Random(3)
        for _ in range(5):
            n = rng.randint(3, 6)
            formula = random_formula(rng, n, 2)
            tree = compile_formula(formula, random_vtree(rng, n), share=False)
            assert multiplicity_report(tree).singly_connected

    def test_unshared_is_the_tree_copy_of_the_shared_circuit(self):
        # one node per root-to-node path of the shared circuit, no more
        rng = Random(17)
        for _ in range(60):
            n = rng.randint(2, 7)
            vtree = random_vtree(rng, n)
            formula = random_formula(rng, n, 3)
            shared = compile_formula(formula, vtree)
            tree = compile_formula(formula, vtree, share=False)
            assert len(tree) == sum(multiplicity_report(shared).multiplicity.values())
            assert multiplicity_report(tree).singly_connected
            assert enumerate_models(tree, tree.root) == enumerate_models(shared, shared.root)

    def test_tree_copy_of_a_deep_circuit(self):
        # x_n lifted to the root of a right-linear vtree: n decision levels
        n = 3000
        tree = compile_formula(Var(n), Vtree.right_linear(n), share=False)
        assert len(tree) == 2 * n - 1
        assert multiplicity_report(tree).singly_connected
        assert model_count(tree) == 2 ** (n - 1)

    def test_unshared_size_guard(self):
        # the tree copy of the implication chain has 333,499 nodes at n=100
        tree = compile_formula(_chain(100), Vtree.right_linear(100), share=False)
        assert len(tree) == 333_499 <= TREE_COPY_CAP
        start = time.perf_counter()
        with pytest.raises(CircuitError, match="more than 1000000"):
            compile_formula(_chain(400), Vtree.right_linear(400), share=False)
        assert time.perf_counter() - start < 1.0

    def test_every_compiled_circuit_validates(self):
        rng = Random(5)
        for _ in range(10):
            n = rng.randint(2, 6)
            circuit = compile_formula(random_formula(rng, n, 3), random_vtree(rng, n))
            validate_partitions(circuit)


def _shuffled(formula, rng: Random):
    """The same formula with the children of every And/Or in random order."""
    if isinstance(formula, Not):
        return Not(_shuffled(formula.child, rng))
    if isinstance(formula, (And, Or)):
        children = [_shuffled(child, rng) for child in formula.children]
        rng.shuffle(children)
        return type(formula)(tuple(children))
    return formula


def _chain(n: int):
    return conj(disj((~Var(i), Var(i + 1))) for i in range(1, n))


class TestFoldOrder:
    """n-ary And/Or are folded in vtree post-order, whatever the child order."""

    @pytest.mark.parametrize("share", [True, False])
    def test_child_order_does_not_change_the_circuit(self, share):
        rng = Random(13)
        for _ in range(30):
            n = rng.randint(2, 7)
            vtree = random_vtree(rng, n)
            formula = random_formula(rng, n, 3)
            plain = compile_formula(formula, vtree)
            shuffled = compile_formula(_shuffled(formula, rng), vtree, share=share)
            assert enumerate_models(shuffled, shuffled.root) == enumerate_models(plain, plain.root)
            if share:
                assert len(shuffled) == len(plain)
            else:
                assert multiplicity_report(shuffled).singly_connected

    def test_chain_compile_is_linear_in_work(self):
        # a left fold in clause order would allocate about 242k nodes here
        n = 400
        vtree = Vtree.right_linear(n)
        builder = CircuitBuilder(vtree)
        root = builder.lift(builder.compile(_chain(n)), vtree.root)
        assert len(builder.circuit) <= 20 * n
        assert model_count(builder.finish(root)) == n + 1


class _ReferenceBuilder(CircuitBuilder):
    _apply = apply_reference


class _CountingBuilder(CircuitBuilder):
    def __init__(self, vtree: Vtree) -> None:
        super().__init__(vtree)
        self.apply_calls = 0

    def _apply(self, a: int, b: int, op: str) -> int:
        self.apply_calls += 1
        return super()._apply(a, b, op)


def _random_3cnf(rng: Random, n: int, m: int):
    """``m`` clauses of three distinct variables out of ``1..n``, random signs."""
    return conj(
        disj(Var(v) if rng.random() < 0.5 else ~Var(v) for v in rng.sample(range(1, n + 1), 3))
        for _ in range(m)
    )


class TestApplyParity:
    """The pair loop's inlined exits allocate node for node what plain apply does."""

    @staticmethod
    def _build(cls, formulas, vtree: Vtree):
        builder = cls(vtree)
        roots = [builder.lift(builder.compile(f), vtree.root) for f in formulas]
        return builder, roots

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), count=st.integers(1, 3))
    def test_random_formulas(self, seed, count):
        # several formulas in one builder also reuse the memo across compiles
        rng = Random(seed)
        n = rng.randint(2, 8)
        vtree = random_vtree(rng, n)
        formulas = [random_formula(rng, n, 3) for _ in range(count)]
        builder, roots = self._build(CircuitBuilder, formulas, vtree)
        reference, reference_roots = self._build(_ReferenceBuilder, formulas, vtree)
        assert roots == reference_roots
        assert builder.circuit.nodes == reference.circuit.nodes

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_3cnf_on_20_variables(self, seed):
        # the shape of the build benchmark's 3-CNFs: 40 clauses, balanced vtree
        formula = _random_3cnf(Random(seed), 20, 40)
        vtree = Vtree.balanced(20)
        builder, roots = self._build(_CountingBuilder, [formula], vtree)
        reference, reference_roots = self._build(_ReferenceBuilder, [formula], vtree)
        assert roots == reference_roots
        assert builder.circuit.nodes == reference.circuit.nodes
        # plain apply makes 150,000 to 250,000 calls here, most answered at its head
        assert builder.apply_calls <= 60_000


class _RecursiveBuilder(CircuitBuilder):
    _compile = compile_reference
    true_at = true_at_reference
    false_at = false_at_reference


@st.composite
def _formulas(draw, n: int):
    """Formulas over ``x1..xn`` with constants, negations and And/Or of 0-3 children."""
    leaves = st.one_of(st.sampled_from([T_CONST, F_CONST]), st.integers(1, n).map(Var))
    return draw(st.recursive(leaves, lambda kids: st.one_of(
        kids.map(Not),
        st.lists(kids, max_size=3).map(lambda c: And(tuple(c))),
        st.lists(kids, max_size=3).map(lambda c: Or(tuple(c))),
    ), max_leaves=12))


class TestFormulaWalk:
    """The post-order walk answers what the recursive definitions did."""

    def test_postorder_visits_each_occurrence_children_first(self):
        a, b = Var(1), Var(2)
        f = (a & b) | ~a
        assert list(f.postorder()) == [a, b, And((a, b)), a, Not(a), f]
        assert list(And(()).postorder()) == [And(())]

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_walk_matches_the_recursive_references(self, data):
        n = data.draw(st.integers(1, 6))
        formulas = data.draw(st.lists(_formulas(n), min_size=1, max_size=3))
        for f in formulas:
            assert f.variables() == variables_reference(f)
            for values in product((False, True), repeat=n):
                assignment = dict(enumerate(values, 1))
                assert f.evaluate(assignment) == evaluate_reference(f, assignment)
        # the fold and the constants make the same nodes in the same order
        vtree = random_vtree(Random(data.draw(st.integers(0, 2**32 - 1))), n)
        builder, roots = TestApplyParity._build(CircuitBuilder, formulas, vtree)
        reference, reference_roots = TestApplyParity._build(_RecursiveBuilder, formulas, vtree)
        assert roots == reference_roots
        assert builder.circuit.nodes == reference.circuit.nodes

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_constants_in_any_order(self, seed):
        # later calls find some subtrees' constants made, others not
        rng = Random(seed)
        vtree = random_vtree(rng, rng.randint(1, 12))
        calls = [(rng.randrange(vtree.node_count), rng.random() < 0.5) for _ in range(8)]
        stores = []
        for cls in (CircuitBuilder, _RecursiveBuilder):
            builder = cls(vtree)
            ids = [builder.true_at(v) if true else builder.false_at(v) for v, true in calls]
            stores.append((ids, builder.circuit.nodes))
        assert stores[0] == stores[1]

    def test_chain_on_400_variables_matches_the_references(self):
        vtree = Vtree.right_linear(400)
        builder, roots = TestApplyParity._build(CircuitBuilder, [_chain(400)], vtree)
        reference, reference_roots = TestApplyParity._build(_RecursiveBuilder, [_chain(400)], vtree)
        assert roots == reference_roots
        assert builder.circuit.nodes == reference.circuit.nodes


def _corrupt(circuit: Circuit, nid: int, mode: str, *more: tuple[int, str]) -> Circuit:
    """Copy with decision nodes' partitions broken: ``overlap`` repeats a
    node's first element, ``gap`` drops its last one.  ``more`` holds
    further (node, mode) pairs broken in the same copy."""
    bad = circuit.extract(circuit.root)
    for nid, mode in ((nid, mode), *more):
        node = bad.nodes[nid]
        elements = node.elements + node.elements[:1] if mode == "overlap" else node.elements[:-1]
        bad.nodes[nid] = replace(node, elements=elements)
    return bad


def _partition_error(check, circuit: Circuit) -> str | None:
    try:
        check(circuit)
    except CircuitError as exc:
        return str(exc)
    return None


class TestPartitionParity:
    """The bit-parallel partition check against the scalar reference."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        balanced=st.booleans(),
        limit=st.sampled_from([16, 64]),
        mode=st.sampled_from(["overlap", "gap"]),
        pick=st.integers(0, 2**16),
        second=st.booleans(),
    )
    def test_corrupted_node_same_message(self, seed, balanced, limit, mode, pick, second):
        # 10 balanced variables put 5 under the root's left child: with a limit
        # of 16 cases that is the sampled branch.  A random vtree on up to 12
        # variables has maximal exhaustive left sets of several widths, next
        # to sampled nodes at either limit
        rng = Random(seed)
        n = 10 if balanced else rng.randint(2, 12)
        vtree = Vtree.balanced(n) if balanced else random_vtree(rng, n)
        circuit = compile_formula(random_formula(rng, n, 3), vtree)
        fast = partial(validate_partitions, exhaustive_limit=limit)
        slow = partial(check_partitions, exhaustive_limit=limit)
        assert _partition_error(fast, circuit) is None
        assert _partition_error(slow, circuit) is None
        wide = [nid for nid in circuit.cone() if len(circuit.nodes[nid].elements) >= 2]
        if not wide:
            return
        more = [(wide[(pick >> 8) % len(wide)], rng.choice(["overlap", "gap"]))] if second else []
        bad = _corrupt(circuit, wide[pick % len(wide)], mode, *more)
        assert _partition_error(fast, bad) == _partition_error(slow, bad)
        assert _partition_error(validate_partitions, bad) == _partition_error(check_partitions, bad)

    @pytest.mark.parametrize("limit", [16, 64, 1024])
    def test_one_shared_pass_for_every_exhaustive_node(self, monkeypatch, limit):
        # on 12 balanced variables the root's left side has 6 variables and
        # its children's 3: at a limit of 16 the root's nodes are sampled, at
        # 64 and 1,024 every node is exhaustive
        rng = Random(limit)
        vtree = Vtree.balanced(12)
        passes = []
        real = circuit_module._truth_bits
        monkeypatch.setattr(circuit_module, "_truth_bits", lambda *args: passes.append(1) or real(*args))
        seen = {"sampled": 0, "exhaustive vtree nodes": 0}
        failed = 0
        for _ in range(20):
            circuit = compile_formula(random_formula(rng, 12, 4), vtree)
            decisions = [nid for nid in circuit.cone() if circuit.nodes[nid].elements]
            vids = [circuit.nodes[nid].vtree for nid in decisions]
            wide = [2 ** len(vtree.vars_under(vtree.left(vid))) > limit for vid in vids]
            passes.clear()
            validate_partitions(circuit, exhaustive_limit=limit)
            assert len(passes) == (not all(wide)) + sum(wide)
            # a failing exhaustive node is named from the shared pass: the
            # failing call adds no pass beyond the sampled nodes checked before it
            exhaustive = [nid for nid, sampled in zip(decisions, wide)
                          if not sampled and len(circuit.nodes[nid].elements) >= 2]
            if exhaustive:
                nid = rng.choice(exhaustive)
                bad = _corrupt(circuit, nid, rng.choice(["overlap", "gap"]))
                order = [d for d in bad.cone() if bad.nodes[d].elements]
                before = sum(2 ** len(vtree.vars_under(vtree.left(bad.nodes[d].vtree))) > limit
                             for d in order[:order.index(nid)])
                passes.clear()
                message = _partition_error(partial(validate_partitions, exhaustive_limit=limit), bad)
                assert message is not None and message.startswith(f"node {nid}: ")
                assert len(passes) == 1 + before
                slow = partial(check_partitions, exhaustive_limit=limit)
                assert message == _partition_error(slow, bad)
                failed += 1
            seen["sampled"] += sum(wide)
            shared = {vid for vid, sampled in zip(vids, wide) if not sampled}
            seen["exhaustive vtree nodes"] = max(seen["exhaustive vtree nodes"], len(shared))
        # one pass per exhaustive vtree node would count more than one
        assert seen["exhaustive vtree nodes"] >= 3, seen
        assert (seen["sampled"] > 0) == (limit == 16), seen
        assert failed >= 10

    @pytest.mark.parametrize("mode", ["overlap", "gap"])
    def test_exhaustive_branch(self, squares, mode):
        bad = _corrupt(squares.circuit, squares.root, mode)
        message = _partition_error(validate_partitions, bad)
        assert message is not None and message.startswith(f"node {squares.root}: ")
        assert message == _partition_error(check_partitions, bad)

    def test_reports_first_case_in_product_order(self):
        # the gap is (False, True) and (True, False): the first in product order is reported
        vt = Vtree(((1, 2), 3))
        c = Circuit(vt)
        inner, leaf3 = vt.parent(vt.leaf_of(1)), vt.leaf_of(3)

        def equal_bits(equal: bool) -> int:  # x1 == x2, or x1 != x2
            return c.add_decision(inner, [(c.add_literal(1, True), c.add_literal(2, equal)),
                                          (c.add_literal(1, False), c.add_literal(2, not equal))])

        xnor, xor = equal_bits(True), equal_bits(False)
        c.set_root(c.add_decision(vt.root, [(xnor, c.add_true(leaf3)), (xor, c.add_false(leaf3))]))
        validate_partitions(c)
        bad = _corrupt(c, c.root, "gap")
        message = f"node {c.root}: primes cover left assignment (False, True) 0 times (want exactly 1)"
        assert _partition_error(validate_partitions, bad) == message
        assert _partition_error(check_partitions, bad) == message

    @pytest.mark.parametrize("mode", ["overlap", "gap"])
    def test_sampled_branch(self, mode):
        vtree = Vtree.balanced(10)
        circuit = compile_formula((Var(1) | Var(2)) & (Var(6) | Var(7)), vtree)
        root = circuit.root
        assert len(vtree.vars_under(vtree.left(circuit.nodes[root].vtree))) == 5
        assert len(circuit.nodes[root].elements) >= 2
        bad = _corrupt(circuit, root, mode)
        for seed in range(5):
            message = _partition_error(
                lambda c: validate_partitions(c, exhaustive_limit=16, seed=seed), bad)
            assert message is not None and message.startswith(f"node {root}: ")
            assert message == _partition_error(
                lambda c: check_partitions(c, exhaustive_limit=16, seed=seed), bad)

    @pytest.mark.parametrize("mode", ["overlap", "gap"])
    def test_sampled_at_the_default_limit(self, mode):
        # 22 balanced variables put 11 under the root's left child: 2,048 cases
        vtree = Vtree.balanced(22)
        circuit = compile_formula((Var(1) | Var(2)) & (Var(12) | Var(13)), vtree)
        root = circuit.root
        assert len(vtree.vars_under(vtree.left(circuit.nodes[root].vtree))) == 11
        assert len(circuit.nodes[root].elements) >= 2
        bad = _corrupt(circuit, root, mode)
        for seed in range(5):
            message = _partition_error(lambda c: validate_partitions(c, seed=seed), bad)
            assert message is not None and message.startswith(f"node {root}: ")
            assert message == _partition_error(lambda c: check_partitions(c, seed=seed), bad)

    def test_product_bits_in_closed_form(self):
        for width in range(1, 11):
            expected = [_pack_bits(k >> (width - 1 - i) & 1 for k in range(2 ** width))
                        for i in range(width)]
            assert _product_bits(width) == expected

    @pytest.mark.parametrize("samples", [0, -3])
    def test_non_positive_sample_count_refused(self, samples):
        # with no case drawn, nothing could ever be reported bad
        vtree = Vtree.balanced(10)
        circuit = compile_formula((Var(1) | Var(2)) & (Var(6) | Var(7)), vtree)
        bad = _corrupt(circuit, circuit.root, "gap")
        for c in (circuit, bad):
            with pytest.raises(CircuitError, match=f"samples must be positive, got {samples}"):
                validate_partitions(c, exhaustive_limit=16, samples=samples)

    @pytest.mark.parametrize("seed", range(5))
    def test_two_corrupted_vtree_nodes_report_the_first_in_cone_order(self, seed):
        # on 10 balanced variables with a limit of 16 cases, only the vtree
        # root has a sampled left side (5 variables); every lower vtree node is
        # checked exhaustively, in the one truth pass they all share
        rng = Random(seed)
        vtree = Vtree.balanced(10)
        checked = {"exhaustive": 0, "sampled": 0}
        for _ in range(60):
            circuit = compile_formula(random_formula(rng, 10, 4), vtree)
            wide = [nid for nid in circuit.cone() if len(circuit.nodes[nid].elements) >= 2]
            pairs = [(a, b) for a in wide for b in wide
                     if a < b and circuit.nodes[a].vtree != circuit.nodes[b].vtree]
            if not pairs:
                continue
            a, b = rng.choice(pairs)
            bad = _corrupt(circuit, a, rng.choice(["overlap", "gap"]),
                           (b, rng.choice(["overlap", "gap"])))
            message = _partition_error(
                lambda c: validate_partitions(c, exhaustive_limit=16, seed=seed), bad)
            assert message is not None
            assert message == _partition_error(
                lambda c: check_partitions(c, exhaustive_limit=16, seed=seed), bad)
            sampled = circuit.nodes[b].vtree == vtree.root
            checked["sampled" if sampled else "exhaustive"] += 1
        assert min(checked.values()) >= 3, checked


class TestConsistency:
    def test_partial_evidence(self, squares):
        assert is_consistent(squares.circuit, {1: True})
        assert is_consistent(squares.circuit, {})
        # three black pixels are never legal
        assert not is_consistent(squares.circuit, {1: True, 2: True, 3: True})

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), singly=st.booleans(), data=st.data())
    def test_matches_model_enumeration(self, seed, singly, data):
        rng = Random(seed)
        n = rng.randint(3, 6)
        circuit = random_circuit(rng, n, singly=singly)
        evidence = data.draw(st.dictionaries(st.integers(1, n), st.booleans()))
        expected = any(
            all(model[var - 1] == val for var, val in evidence.items())
            for model in enumerate_models(circuit, circuit.root)
        )
        assert is_consistent(circuit, evidence) == expected
        # no literal reads a variable outside 1..n, nor one at the end of a list
        outside = data.draw(st.fixed_dictionaries(
            {0: st.booleans(), -1: st.booleans(), n + 1: st.booleans()}
        ))
        assert is_consistent(circuit, {**outside, **evidence}) == expected


class TestFalseIds:
    @pytest.mark.parametrize("singly", [True, False])
    def test_false_exactly_when_no_model(self, singly):
        rng = Random(23)
        for _ in range(15):
            circuit = random_circuit(rng, rng.randint(3, 6), singly=singly)
            root_false = circuit.false_ids()
            for nid in range(len(circuit)):
                circuit.set_root(nid)
                unsat = model_count(circuit) == 0
                assert (nid in circuit.false_ids()) == unsat
                assert (nid in root_false) == unsat


class TestFormulaParser:
    def test_round_trip_evaluation(self):
        text = "(and (or x1 x2) (not x3))"
        f = parse_formula(text)
        assert f.evaluate({1: True, 2: False, 3: False})
        assert not f.evaluate({1: False, 2: False, 3: False})

    def test_constants(self):
        assert parse_formula("true") is T_CONST
        assert parse_formula("false") is F_CONST

    ERRORS = [
        ("(and x1", "missing ')'"),
        ("(", "unexpected end of input after '('"),
        ("", "unexpected end of input"),
        (")", "unexpected ')'"),
        ("x1 x2", "trailing tokens starting at 'x2'"),
        ("(xor x1 x2)", "unknown operator 'xor'"),
        ("(not x1 x2)", "'not' takes exactly one argument"),
        ("x0", "variable ids are positive, got 0"),
        ("y1", "unknown token 'y1'"),
        ("()", "missing ')'"),
        ("(())", "unknown operator '('"),
        ("(x1)", "unknown operator 'x1'"),
        ("(and x1))", "trailing tokens starting at ')'"),
        # variable numbers are ASCII digits: no other digit reads as one
        ("x\u0663", "unknown token 'x\u0663'"),
        ("x\uff13", "unknown token 'x\uff13'"),
        ("x\u00b2", "unknown token 'x\u00b2'"),
    ]

    @pytest.mark.parametrize("sep", ["\x0c", "\x85", "\u2028"])
    def test_comment_runs_to_the_newline(self, sep):
        # str.splitlines also breaks at these, which ended the comment early
        assert parse_formula(f"(and x1 ; x3 {sep} x4)\r\n x2)") == parse_formula("(and x1 x2)")

    def test_errors(self):
        for text, message in self.ERRORS:
            with pytest.raises(FormulaError) as err:
                parse_formula(text)
            assert str(err.value) == message, text


DEPTH = 5000
CYCLE = 20  # the deep formulas cycle through x1..x20


def _shape(formula) -> list[tuple]:
    """The walk's node kinds, variables and arities: a comparison that does
    not rest on the formulas' own ``==``."""
    return [(type(node).__name__, getattr(node, "var", None), len(getattr(node, "children", ())))
            for node in formula.postorder()]


def _deep_reprs() -> list[str]:
    """The dataclass ``repr`` of each of :func:`_deep_cases`' formulas."""
    leaf = "Var(var=1)"
    return [
        "".join(f"And(children=(Var(var={(DEPTH - 1 - i) % CYCLE + 1}), " for i in reversed(range(DEPTH)))
        + leaf + "))" * DEPTH,
        "And(children=(" * DEPTH + leaf
        + "".join(f", Var(var={(i + 1) % CYCLE + 1})))" for i in range(DEPTH)),
        "Not(child=" * DEPTH + leaf + ")" * DEPTH,
    ]


def _deep_cases():
    """(text, the formula built bottom-up, its value with every variable true)."""
    right, left, negated = Var(1), Var(1), Var(1)
    for i in range(DEPTH):
        right = And((Var((DEPTH - 1 - i) % CYCLE + 1), right))
        left = And((left, Var((i + 1) % CYCLE + 1)))
        negated = Not(negated)
    return [
        ("".join(f"(and x{i % CYCLE + 1} " for i in range(DEPTH)) + "x1" + ")" * DEPTH, right, True),
        ("(and " * DEPTH + "x1" + "".join(f" x{(i + 1) % CYCLE + 1})" for i in range(DEPTH)),
         left, True),
        ("(not " * DEPTH + "x1" + ")" * DEPTH, negated, DEPTH % 2 == 0),
    ]


class TestDeepFormulas:
    """5,000 levels parse, walk and compile at the default recursion limit."""

    @pytest.mark.parametrize("case", [0, 1, 2], ids=["right-and", "left-and", "not"])
    def test_parse_walk_and_compile(self, case):
        assert sys.getrecursionlimit() < DEPTH
        text, built, value = _deep_cases()[case]
        formula = parse_formula(text)
        assert _shape(formula) == _shape(built)
        assert formula.variables() == (frozenset({1}) if case == 2 else frozenset(range(1, CYCLE + 1)))
        everything = {var: True for var in range(1, CYCLE + 1)}
        assert formula.evaluate(everything) is value
        assert formula.evaluate({**everything, 1: False}) is (not value if case == 2 else False)
        circuit = compile_formula(formula, Vtree.balanced(CYCLE))
        assert model_count(circuit) == (2 ** (CYCLE - 1) if case == 2 else 1)

    @pytest.mark.parametrize("case", [0, 1, 2], ids=["right-and", "left-and", "not"])
    def test_compare_hash_and_print(self, case):
        assert sys.getrecursionlimit() < DEPTH
        text, built, _ = _deep_cases()[case]
        formula = parse_formula(text)
        assert formula is not built and formula == built and not formula != built
        assert hash(formula) == hash(built)
        assert {formula: 1}[built] == 1
        assert repr(formula) == _deep_reprs()[case]
        # the innermost leaf changed: the comparison walks to the bottom
        at = text.rindex("x1)") if case == 0 else text.index("x1")
        other = parse_formula(text[:at] + "x2" + text[at + 2:])
        assert formula != other and not formula == other


# reference twins of Not, And and Or: plain dataclasses, whose __eq__,
# __hash__ and __repr__ are the generated, recursive ones
_GENERATED = {cls: make_dataclass(cls.__name__, [(field, object)], frozen=True)
              for cls, field in ((Not, "child"), (And, "children"), (Or, "children"))}


def _generated(formula):
    """The formula rebuilt from :data:`_GENERATED` (recursive: shallow formulas only)."""
    if isinstance(formula, Not):
        return _GENERATED[Not](_generated(formula.child))
    if isinstance(formula, (And, Or)):
        return _GENERATED[type(formula)](tuple(map(_generated, formula.children)))
    return formula


def _rebuilt(formula):
    """An equal formula of new node objects (recursive: shallow formulas only)."""
    if isinstance(formula, Not):
        return Not(_rebuilt(formula.child))
    if isinstance(formula, (And, Or)):
        return type(formula)(tuple(map(_rebuilt, formula.children)))
    return Var(formula.var) if isinstance(formula, Var) else formula


class TestFormulaDunders:
    """On shallow formulas ``==``, ``hash`` and ``repr`` answer what the
    generated dataclass methods did."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_match_the_generated_methods(self, data):
        f, g = data.draw(_formulas(3)), data.draw(_formulas(3))
        for a, b in ((f, g), (g, f), (f, f), (f, _rebuilt(f))):
            assert (a == b) == (_generated(a) == _generated(b)), (a, b)
            assert (a != b) == (_generated(a) != _generated(b)), (a, b)
        for h in (f, g):
            assert hash(h) == hash(_generated(h)) and repr(h) == repr(_generated(h))

    def test_other_classes_differ(self):
        a = Var(1)
        assert Not(a) != a and a != Not(a) and And((a,)) != Or((a,)) and And(()) != Or(())
        assert And((a, a)) != And((a,)) and Not(a) != "Not(child=Var(var=1))"
        assert repr(And((a,))) == "And(children=(Var(var=1),))" and repr(Or(())) == "Or(children=())"


def _two_literals() -> Circuit:
    circuit = Circuit(Vtree((1, 2)))  # vtree ids: 0 leaf x1, 1 the root, 2 leaf x2
    circuit.add_literal(1, True)
    circuit.add_literal(2, True)
    return circuit


class TestAdderRefusals:
    """The node adders and the builder's operations refuse a malformed
    request with a :class:`CircuitError` naming the fault."""

    @pytest.mark.parametrize("request_, message", [
        (lambda c, b: c.add_true(1), "vtree node 1 is not a leaf"),
        (lambda c, b: c.add_decision(0, ((0, 1),)),
         "vtree node 0 is a leaf; decision nodes need an internal node"),
        (lambda c, b: c.add_decision(1, ()), "decision node needs at least one element"),
        (lambda c, b: c.add_decision(1, ((0, 5),)), "element ids must precede their decision node"),
        (lambda c, b: c.add_decision(1, ((c.add_false(0), 1),)), "false primes are not allowed"),
        (lambda c, b: c.cone(), "circuit has no root"),
        (lambda c, b: b.apply(b.literal(1), b.literal(2), "xor"), "unknown operation 'xor'"),
        (lambda c, b: b.lift(b.literal(1), 2), "lift target is not an ancestor"),
    ])
    def test_refused_by_name(self, request_, message):
        with pytest.raises(CircuitError) as err:
            request_(_two_literals(), CircuitBuilder(Vtree((1, 2))))
        assert str(err.value) == message

    def test_element_pairs_as_lists_are_the_tuple_node(self):
        circuit = _two_literals()
        nid = circuit.add_decision(1, ([0, 1],))
        assert circuit.add_decision(1, ((0, 1),)) == nid and circuit.nodes[nid].elements == ((0, 1),)
