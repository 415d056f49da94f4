"""Point-table queries: probability of evidence and most probable completion."""

import math
from itertools import product
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csdd.circuit import DECISION, LITERAL, TRUE, Vtree, Circuit, enumerate_models
from csdd.formats import dumps_psdd, loads_psdd
from csdd.infer import (
    InferenceError,
    _PassMemo,
    _point_pass,
    _route,
    _spine_marginal,
    joint_probability,
    map_query,
    marginal,
)
from csdd.params import PsddParams

from conftest import (
    brute_joint,
    brute_map,
    brute_marginal,
    map_reference,
    point_pass_reference,
    random_circuit,
    random_psdd_params,
)


class TestMarginal:
    def test_squares_single_image(self, squares, squares_ml):
        e = {1: False, 2: False, 3: False, 4: True}
        assert marginal(squares.circuit, squares_ml, e) == pytest.approx(0.12, abs=1e-12)

    def test_inconsistent_evidence_is_zero(self, squares, squares_ml):
        assert marginal(squares.circuit, squares_ml, {1: True, 2: True, 3: True}) == 0.0

    def test_empty_evidence_normalizes(self, squares, squares_ml):
        assert marginal(squares.circuit, squares_ml, {}) == pytest.approx(1.0, abs=1e-12)

    def test_matches_enumeration_on_random_models(self):
        rng = Random(101)
        for _ in range(20):
            n = rng.randint(3, 6)
            circuit = random_circuit(rng, n, singly=bool(rng.getrandbits(1)))
            params = random_psdd_params(rng, circuit)
            evidence = {
                v: bool(rng.getrandbits(1)) for v in range(1, n + 1) if rng.random() < 0.5
            }
            got = marginal(circuit, params, evidence)
            want = brute_marginal(circuit, params, evidence)
            assert got == pytest.approx(want, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), singly=st.booleans(), data=st.data())
    def test_spine_reevaluation_is_bit_identical(self, seed, singly, data):
        rng = Random(seed)
        n = rng.randint(3, 6)
        circuit = random_circuit(rng, n, singly=singly)
        params = random_psdd_params(rng, circuit)
        evidence = data.draw(st.dictionaries(st.integers(1, n), st.booleans()))
        values = _point_pass(circuit, params, evidence, circuit.cone(), {})
        for var in range(1, n + 1):
            if var in evidence:
                continue
            for val in (True, False):
                got = _spine_marginal(circuit, params, evidence, values, var, val)
                assert got == marginal(circuit, params, {**evidence, var: val})

    def test_joint_requires_complete_assignment(self, squares, squares_ml):
        with pytest.raises(InferenceError):
            joint_probability(squares.circuit, squares_ml, {1: True})

    def test_unknown_variable_rejected(self, squares, squares_ml):
        with pytest.raises(InferenceError):
            marginal(squares.circuit, squares_ml, {9: True})


def _with_negative_zeros(rng: Random, circuit: Circuit, params: PsddParams) -> PsddParams:
    """Some TRUE terminals pinned to a state, the other written as -0.0, and
    the table read back through the psdd loader."""
    table = dict(params.table)
    for nid, pmf in table.items():
        if circuit.nodes[nid].kind == TRUE and rng.random() < 0.5:
            table[nid] = (-0.0, 1.0) if rng.random() < 0.5 else (1.0, -0.0)
    _, loaded = loads_psdd(dumps_psdd(circuit, PsddParams(table)), circuit.vtree)
    return loaded


class TestPointPassBitIdentity:
    """The two-element decision sum gives the ``fsum`` pass's value bit for
    bit, to the sign of zero."""

    def _check(self, circuit, params):
        n = circuit.vtree.var_count
        for row in product((None, True, False), repeat=n):
            evidence = {v: val for v, val in enumerate(row, 1) if val is not None}
            want = repr(point_pass_reference(circuit, params, evidence))
            assert repr(marginal(circuit, params, evidence)) == want, evidence
            values = _point_pass(circuit, params, evidence, circuit.cone(), {})
            for var in range(1, n + 1):
                if var in evidence:
                    continue
                for val in (True, False):
                    got = _spine_marginal(circuit, params, evidence, values, var, val)
                    want = repr(point_pass_reference(circuit, params, {**evidence, var: val}))
                    assert repr(got) == want, (evidence, var, val)

    def test_negative_zero_table(self):
        # both subs read -0.0 under X2 = 1: fsum returns +0.0, a bare sum -0.0
        vt = Vtree((1, 2))
        c = Circuit(vt)
        x1, not_x1 = c.add_literal(1, True), c.add_literal(1, False)
        t_a, t_b = c.add_true(vt.right(vt.root)), c.add_true(vt.right(vt.root))
        root = c.add_decision(vt.root, [(x1, t_a), (not_x1, t_b)])
        c.set_root(root)
        text = dumps_psdd(c, PsddParams({t_a: (-0.0, 1.0), t_b: (-0.0, 1.0), root: (0.5, 0.5)}))
        assert "-0.0" in text
        _, params = loads_psdd(text, vt)
        assert repr(marginal(c, params, {2: True})) == "0.0"
        self._check(c, params)

    def test_random_models(self):
        rng = Random(1103)
        for _ in range(30):
            n = rng.randint(3, 5)
            circuit = random_circuit(rng, n, singly=bool(rng.getrandbits(1)))
            params = random_psdd_params(rng, circuit)
            self._check(circuit, params)
            self._check(circuit, _with_negative_zeros(rng, circuit, params))


class TestMapQuery:
    def test_squares_no_evidence_matches_enumeration(self, squares, squares_ml):
        value, assignment = map_query(squares.circuit, squares_ml, {})
        want_value, want_assignment = brute_map(squares.circuit, squares_ml, {})
        assert value == pytest.approx(want_value, abs=1e-12)
        assert assignment == want_assignment
        assert value == pytest.approx(
            joint_probability(squares.circuit, squares_ml, assignment), abs=1e-12
        )

    def test_evidence_forcing_one_model(self, squares, squares_ml):
        e = {1: True, 2: True, 3: False}  # only the both-black image remains
        value, assignment = map_query(squares.circuit, squares_ml, e)
        assert assignment == {1: True, 2: True, 3: False, 4: False}
        assert value == pytest.approx(marginal(squares.circuit, squares_ml, e), abs=1e-12)

    def test_tie_breaks_to_lowest_element(self):
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
        params = PsddParams({root: (0.5, 0.5)})
        value, assignment = map_query(c, params, {})
        best, _ = brute_map(c, params, {})
        assert value == pytest.approx(best, abs=0) == 0.5
        assert assignment == {1: True, 2: True}  # first element wins the tie

    def test_matches_enumeration_on_random_models(self):
        rng = Random(202)
        for _ in range(20):
            n = rng.randint(3, 6)
            circuit = random_circuit(rng, n, singly=bool(rng.getrandbits(1)))
            params = random_psdd_params(rng, circuit)
            evidence = {}
            from csdd.circuit import enumerate_models

            model = next(iter(sorted(enumerate_models(circuit, circuit.root))))
            keep = [v for v in range(1, n + 1) if rng.random() < 0.4]
            evidence = {v: model[v - 1] for v in keep}
            value, assignment = map_query(circuit, params, evidence)
            want, _ = brute_map(circuit, params, evidence)
            assert value == pytest.approx(want, abs=1e-12)
            assert brute_joint(circuit, params, assignment) == pytest.approx(value, abs=1e-12)

    def test_zero_probability_evidence_rejected(self, squares, squares_ml):
        with pytest.raises(InferenceError):
            map_query(squares.circuit, squares_ml, {1: True, 2: True, 3: True})


def _tied_params(rng: Random, circuit: Circuit) -> PsddParams:
    """A random point table in which about half the TRUE terminals are
    uniform and about half the two-element decision nodes meet two equal
    MAP products when nothing is observed."""
    table = dict(random_psdd_params(rng, circuit).table)
    best = {}
    for nid in circuit.cone():
        node = circuit.nodes[nid]
        if node.kind == LITERAL:
            best[nid] = 1.0
        elif node.kind == TRUE:
            if rng.random() < 0.5:
                table[nid] = (0.5, 0.5)
            best[nid] = max(table[nid])
        elif nid in table:
            prods = [best[p] * best[s] for p, s in node.elements]
            if len(prods) == 2 and min(prods) > 0.0 and rng.random() < 0.5:
                a, b = prods
                t0 = b / (a + b)
                t1 = 1.0 - t0
                for _ in range(8):  # step t1 to where the rounded products meet
                    if a * t0 == b * t1:
                        break
                    t1 = math.nextafter(t1, math.inf if b * t1 < a * t0 else -math.inf)
                table[nid] = (t0, t1)
            best[nid] = max(c * t for c, t in zip(prods, table[nid]))
        else:
            best[nid] = 0.0
    return PsddParams(table)


def _two_element_ties(circuit: Circuit, params: PsddParams) -> int:
    """Two-element decision nodes whose two MAP products are equal, without evidence."""
    best, ties = {}, 0
    for nid in circuit.cone():
        node = circuit.nodes[nid]
        if node.kind == LITERAL:
            best[nid] = 1.0
        elif node.kind == TRUE:
            best[nid] = max(params.table[nid])
        elif node.kind == DECISION and nid in params.table:
            cands = [best[p] * best[s] * t for (p, s), t in zip(node.elements, params.table[nid])]
            ties += len(cands) == 2 and cands[0] == cands[1]
            best[nid] = max(cands)
        else:
            best[nid] = 0.0
    return ties


class TestMapQueryReference:
    """``map_query`` answers as the generic-loop MAP pass with its own
    backtrack: the same value and assignment, keys in the same order, and
    the route it leaves in an open memo is ``_route``'s for that assignment."""

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_matches_reference(self, seed):
        rng = Random(seed)
        n = rng.randint(3, 6)
        circuit = random_circuit(rng, n, singly=bool(rng.getrandbits(1)))
        params = _tied_params(rng, circuit)
        if rng.getrandbits(1):
            params = _with_negative_zeros(rng, circuit, params)
        models = sorted(enumerate_models(circuit, circuit.root))
        for _ in range(6):
            model = rng.choice(models)
            # evidence keys in random order: the assignment keeps them first
            evidence = {v: model[v - 1] for v in rng.sample(range(1, n + 1), rng.randint(0, n - 1))}
            try:
                want = map_reference(circuit, params, evidence)
            except InferenceError:
                with pytest.raises(InferenceError, match="zero probability"):
                    map_query(circuit, params, evidence)
                continue
            with _PassMemo(circuit, params) as memo:
                got = map_query(circuit, params, evidence)
            assert repr(got) == repr(want)  # a dict's repr lists its keys in order
            assert memo.routes == {memo.pack(want[1]): _route(circuit, want[1])}

    def test_tables_force_ties(self):
        rng = Random(5)
        ties = 0
        for _ in range(20):
            circuit = random_circuit(rng, rng.randint(3, 6), singly=bool(rng.getrandbits(1)))
            ties += _two_element_ties(circuit, _tied_params(rng, circuit))
        assert ties > 0
