"""Interval-valued inference: evidence bounds, conditionals, completions,
robustness, certificates and the brute-force refinement."""

import ast
import json
import math
import sys
import threading
from contextlib import nullcontext
from itertools import product
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csdd import formats, infer
from csdd.circuit import (
    DECISION,
    FALSE,
    LITERAL,
    TRUE,
    Circuit,
    Vtree,
    compile_formula,
    enumerate_models,
    evaluate,
    is_consistent,
)
from csdd.cli import main
from csdd.credal import IntervalCredalSet, _min_fast, normalize_reachable
from csdd.fixtures import shared_node_fixture, squares_fixture
from csdd.infer import (
    EXACT,
    NOT_ROBUST,
    POSSIBLY_OUTER,
    ROBUST,
    WEAKLY_ROBUST,
    ZERO_TOL,
    DEFAULT_BISECTION_TOL,
    MAX,
    MIN,
    EvidenceSession,
    InferenceError,
    InferenceTrace,
    Query,
    brute_force_exact,
    conditional_sign,
    credal_map_upper,
    exactness_certificate,
    joint_probability,
    lower_conditional,
    lower_marginal,
    map_query,
    marginal,
    robustness,
    strong_extension_oracle,
    upper_conditional,
    upper_marginal,
    _PassMemo,
    _credal_map,
    _credal_sweep,
    _find_crossing,
    _mark_map,
    _mark_sweeps,
    _open_memo,
    _route,
    _sign_plan,
)
from csdd.formula import TRUE as T_CONST
from csdd.learn import Dataset, collect_counts, ml_estimate
from csdd.params import CsddParams, PsddParams

from conftest import (
    attaining_reference,
    brute_joint,
    credal_map_reference,
    credal_sweep_reference,
    mark_map_walk,
    mark_sweep_walk,
    mark_sweeps_reference,
    random_circuit,
    random_credal_instance,
    random_csdd_params,
    random_psdd_params,
)

EVIDENCE_DARK_CORNER = {1: False, 2: False, 3: False, 4: True}


class TestEvidenceBounds:
    def test_squares_lower_value(self, squares, squares_idm):
        got = lower_marginal(squares.circuit, squares_idm, EVIDENCE_DARK_CORNER)
        assert got == pytest.approx(12 / 32 * 31 / 101, abs=1e-12)

    def test_degenerate_table_collapses(self, squares, squares_ml):
        cparams = CsddParams.degenerate(squares_ml)
        for evidence in ({}, {1: False}, EVIDENCE_DARK_CORNER, {2: True, 4: False}):
            point = marginal(squares.circuit, squares_ml, evidence)
            assert lower_marginal(squares.circuit, cparams, evidence) == pytest.approx(
                point, abs=1e-12
            )
            assert upper_marginal(squares.circuit, cparams, evidence) == pytest.approx(
                point, abs=1e-12
            )

    def test_matches_oracle_any_topology(self):
        rng = Random(404)
        for _ in range(8):
            singly = bool(rng.getrandbits(1))
            circuit, params = random_credal_instance(rng, rng.randint(3, 5), singly, 0.25)
            n = circuit.vtree.var_count
            evidence = {
                v: bool(rng.getrandbits(1)) for v in range(1, n + 1) if rng.random() < 0.6
            }
            q = Query.make("marginal", evidence)
            assert lower_marginal(circuit, params, evidence) == pytest.approx(
                strong_extension_oracle(circuit, params, q, "min"), abs=1e-9
            )
            assert upper_marginal(circuit, params, evidence) == pytest.approx(
                strong_extension_oracle(circuit, params, q, "max"), abs=1e-9
            )

    def test_sandwiches_every_member(self, squares, squares_idm):
        rng = Random(7)
        for evidence in ({}, {4: True}, {1: False, 3: True}):
            lo = lower_marginal(squares.circuit, squares_idm, evidence)
            hi = upper_marginal(squares.circuit, squares_idm, evidence)
            assert lo <= hi + 1e-15
            for _ in range(50):
                member = _random_member(rng, squares_idm)
                p = marginal(squares.circuit, member, evidence)
                assert lo - 1e-12 <= p <= hi + 1e-12

    def test_zero_iff_inconsistent_over_all_states(self, squares, squares_idm):
        models = enumerate_models(squares.circuit, squares.root)
        for values in product((False, True), repeat=4):
            state = dict(zip((1, 2, 3, 4), values))
            lo = lower_marginal(squares.circuit, squares_idm, state)
            hi = upper_marginal(squares.circuit, squares_idm, state)
            if values in models:
                assert lo > 0.0
            else:
                assert hi == 0.0


def _random_member(rng: Random, params: CsddParams) -> PsddParams:
    """Random convex combination of each set's extreme points."""
    from csdd.credal import enumerate_vertices

    table = {}
    for nid, cs in params.table.items():
        vertices = enumerate_vertices(cs)
        weights = [rng.random() for _ in vertices]
        total = sum(weights)
        point = tuple(
            math.fsum(w * v.point[i] for w, v in zip(weights, vertices)) / total
            for i in range(cs.k)
        )
        table[nid] = point
    return PsddParams(table)


class TestConditional:
    def test_example_trace_values(self, squares, squares_idm):
        evidence = {2: False, 3: False, 4: True}
        res = lower_conditional(squares.circuit, squares_idm, 1, True, evidence, tol=1e-9)
        sigma = {k[1]: v for k, v in res.trace.sigma.items() if k[0] == squares.root}
        # sibling of the negative-message branch: upper bound 13/32, exactly
        assert sigma[0] == ("upper", 13 / 32)
        direction, value = sigma[1]
        assert direction == "lower"
        assert value == pytest.approx(484 / 795, abs=1e-12)
        assert sigma[2][1] == 0.0

    def test_example_fixed_point_matches_oracle(self, squares, squares_idm):
        evidence = {2: False, 3: False, 4: True}
        res = lower_conditional(squares.circuit, squares_idm, 1, True, evidence, tol=1e-7)
        q = Query.make("conditional", evidence, target=(1, True))
        oracle = strong_extension_oracle(squares.circuit, squares_idm, q, "min")
        assert res.value == pytest.approx(oracle, abs=1e-6)
        assert res.certificate.status == EXACT

    def test_threshold_collapses_at_zero(self, squares, squares_idm):
        evidence = {2: False, 3: False, 4: True}
        sign = conditional_sign(squares.circuit, squares_idm, 0.0, 1, True, evidence)
        lo = lower_marginal(squares.circuit, squares_idm, {**evidence, 1: True})
        assert (sign > 0) == (lo > 1e-12)

    def test_threshold_collapses_at_one(self, squares, squares_idm):
        evidence = {2: False, 3: False, 4: True}
        assert conditional_sign(squares.circuit, squares_idm, 1.0, 1, True, evidence) <= 0

    @pytest.mark.parametrize("mu", [math.nan, math.inf, -math.inf])
    def test_nonfinite_threshold_rejected(self, squares, squares_idm, mu):
        # the messages would be NaN and read as a zero sign, though every
        # lower probability exceeds -inf
        with pytest.raises(InferenceError, match="threshold"):
            conditional_sign(squares.circuit, squares_idm, mu, 1, True, {3: False, 4: True})

    def test_degenerate_equals_point_conditional(self, squares, squares_ml):
        cparams = CsddParams.degenerate(squares_ml)
        evidence = {3: False, 4: True}
        denom = marginal(squares.circuit, squares_ml, evidence)
        point = marginal(squares.circuit, squares_ml, {**evidence, 1: True}) / denom
        res = lower_conditional(squares.circuit, cparams, 1, True, evidence, tol=1e-8)
        up = upper_conditional(squares.circuit, cparams, 1, True, evidence, tol=1e-8)
        assert res.value == pytest.approx(point, abs=1e-6)
        assert up.value == pytest.approx(point, abs=1e-6)

    def test_singly_connected_matches_oracle(self):
        rng = Random(505)
        for _ in range(6):
            circuit, params = random_credal_instance(rng, rng.randint(3, 5), True, 0.2,
                                                     max_elements=3)
            n = circuit.vtree.var_count
            var, evidence = _pick_conditional_query(rng, circuit)
            q = Query.make("conditional", evidence, target=(var, True))
            lo = lower_conditional(circuit, params, var, True, evidence, tol=1e-7)
            up = upper_conditional(circuit, params, var, True, evidence, tol=1e-7)
            assert lo.certificate.status == EXACT
            assert lo.value == pytest.approx(
                strong_extension_oracle(circuit, params, q, "min"), abs=1e-6
            )
            assert up.value == pytest.approx(
                strong_extension_oracle(circuit, params, q, "max"), abs=1e-6
            )

    def test_outer_bound_on_shared_structure(self):
        rng = Random(606)
        for _ in range(6):
            circuit, params = random_credal_instance(rng, rng.randint(3, 5), False, 0.25)
            var, evidence = _pick_conditional_query(rng, circuit)
            q = Query.make("conditional", evidence, target=(var, True))
            res = lower_conditional(circuit, params, var, True, evidence, tol=1e-7)
            oracle = strong_extension_oracle(circuit, params, q, "min")
            # the left bracket edge sits strictly below the algorithm's own
            # crossing, which is itself an outer bound
            assert res.value <= oracle
            session = EvidenceSession(circuit, params, evidence)
            sign = lambda mu: conditional_sign(
                circuit, params, mu, var, True, evidence, session=session
            )
            assert abs(res.value - _bisection(sign, 1e-7)) <= 1e-7
            if res.certificate.status == EXACT:
                assert res.value == pytest.approx(oracle, abs=1e-6)

    def test_sign_changes_at_most_once(self):
        rng = Random(707)
        for _ in range(5):
            circuit, params = random_credal_instance(rng, 4, bool(rng.getrandbits(1)), 0.3)
            var, evidence = _pick_conditional_query(rng, circuit)
            session = EvidenceSession(circuit, params, evidence)
            signs = [
                conditional_sign(circuit, params, mu / 40, var, True, evidence, session=session)
                for mu in range(41)
            ]
            # once non-positive, never positive again
            seen_nonpos = False
            for s in signs:
                if s <= 0:
                    seen_nonpos = True
                elif seen_nonpos:
                    pytest.fail(f"sign sequence {signs} is not single-crossing")

    def test_bounds_sandwich_every_member(self, squares, squares_idm):
        rng = Random(515)
        evidence = {3: False, 4: True}
        lo = lower_conditional(squares.circuit, squares_idm, 1, True, evidence, tol=1e-7)
        hi = upper_conditional(squares.circuit, squares_idm, 1, True, evidence, tol=1e-7)
        for _ in range(50):
            member = _random_member(rng, squares_idm)
            denom = marginal(squares.circuit, member, evidence)
            p = marginal(squares.circuit, member, {**evidence, 1: True}) / denom
            assert lo.value - 1e-6 <= p <= hi.value + 1e-6

    @pytest.mark.parametrize("tol", [0.0, -1e-6, math.nan])
    def test_nonpositive_or_nan_tolerance_rejected(self, squares, squares_idm, tol):
        for query in (lower_conditional, upper_conditional):
            with pytest.raises(InferenceError, match="tolerance"):
                query(squares.circuit, squares_idm, 1, True, {3: False, 4: True}, tol=tol)

    @pytest.mark.parametrize("tol", [1.0, 2.5, math.inf])
    def test_tolerance_of_one_or_more_rejected(self, squares, squares_idm, tol):
        # [0, 1] already meets such a tol: the answer would be the vacuous bracket
        for query in (lower_conditional, upper_conditional):
            with pytest.raises(InferenceError, match="below 1"):
                query(squares.circuit, squares_idm, 1, True, {3: False, 4: True}, tol=tol)

    def test_target_in_evidence_rejected(self, squares, squares_idm):
        with pytest.raises(InferenceError):
            lower_conditional(squares.circuit, squares_idm, 1, True, {1: False})

    def test_inconsistent_evidence_rejected(self, squares, squares_idm):
        with pytest.raises(InferenceError):
            lower_conditional(squares.circuit, squares_idm, 4, True, {1: True, 2: True, 3: True})


def _pick_conditional_query(rng: Random, circuit: Circuit):
    from csdd.circuit import is_consistent

    n = circuit.vtree.var_count
    models = sorted(enumerate_models(circuit, circuit.root))
    for _ in range(50):
        var = rng.randint(1, n)
        model = models[rng.randrange(len(models))]
        keep = [v for v in range(1, n + 1) if v != var and rng.random() < 0.5]
        evidence = {v: model[v - 1] for v in keep}
        # require both target states feasible so the conditional is informative
        if is_consistent(circuit, {**evidence, var: True}) and is_consistent(
            circuit, {**evidence, var: False}
        ):
            return var, evidence
    return var, {}


def _bisection(sign, tol: float) -> float:
    """Reference search: plain bisection of the sign test, left edge."""
    if sign(0.0) <= 0:
        return 0.0
    lo, hi = 0.0, 1.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if sign(mid) > 0:
            lo = mid
        else:
            hi = mid
    return lo


def _same_result(a, b) -> bool:
    return (
        (a.value, a.iterations, a.bracket, a.certificate)
        == (b.value, b.iterations, b.bracket, b.certificate)
        and a.trace.uses == b.trace.uses
        and a.trace.sigma == b.trace.sigma
    )


class TestEvidenceSession:
    @pytest.mark.parametrize("singly", [True, False])
    def test_session_matches_one_shot(self, singly):
        rng = Random(808 if singly else 909)
        for _ in range(5):
            circuit, params = random_credal_instance(rng, rng.randint(3, 5), singly, 0.25)
            _, evidence = _pick_conditional_query(rng, circuit)
            session = EvidenceSession(circuit, params, evidence)
            for var in range(1, circuit.vtree.var_count + 1):
                if var in evidence:
                    continue
                for val in (True, False):
                    for query in (lower_conditional, upper_conditional):
                        shared = query(circuit, params, var, val, evidence, tol=1e-7,
                                       session=session)
                        alone = query(circuit, params, var, val, evidence, tol=1e-7)
                        assert _same_result(shared, alone)

    def test_sign_with_session_matches_one_shot(self):
        rng = Random(707)
        for singly in (True, False):
            for _ in range(4):
                circuit, params = random_credal_instance(rng, rng.randint(3, 5), singly, 0.25)
                _, evidence = _pick_conditional_query(rng, circuit)
                session = EvidenceSession(circuit, params, evidence)
                for var in range(1, circuit.vtree.var_count + 1):
                    if var in evidence:
                        continue
                    for val, mu in product((True, False), (0.0, 0.25, 0.5, 0.75, 1.0)):
                        shared = conditional_sign(circuit, params, mu, var, val, evidence,
                                                  session=session)
                        assert shared == conditional_sign(circuit, params, mu, var, val, evidence)

    def test_session_for_other_arguments_rejected(self, squares, squares_idm, squares_ml):
        evidence = {3: False, 4: True}
        session = EvidenceSession(squares.circuit, squares_idm, evidence)
        other_params = CsddParams.degenerate(squares_ml)
        other_circuit = squares_fixture().circuit
        calls = [
            (squares.circuit, squares_idm, {3: False}),
            (squares.circuit, squares_idm, {3: False, 4: False}),
            (squares.circuit, squares_idm, {2: False, 3: False, 4: True}),
            (squares.circuit, other_params, evidence),
            (other_circuit, squares_idm, evidence),
        ]
        for circuit, params, ev in calls:
            for query in (lower_conditional, upper_conditional):
                with pytest.raises(InferenceError):
                    query(circuit, params, 1, True, ev, session=session)
            with pytest.raises(InferenceError):
                conditional_sign(circuit, params, 0.5, 1, True, ev, session=session)
        # the matching calls go through
        lower_conditional(squares.circuit, squares_idm, 1, True, dict(evidence), session=session)
        conditional_sign(squares.circuit, squares_idm, 0.5, 1, True, dict(evidence), session=session)

    def test_session_rejected_after_root_change(self, squares_idm):
        fx = squares_fixture()
        session = EvidenceSession(fx.circuit, squares_idm, {4: True})
        fx.circuit.set_root(fx.circuit.nodes[fx.root].elements[0][0])
        with pytest.raises(InferenceError):
            lower_conditional(fx.circuit, squares_idm, 1, True, {4: True}, session=session)
        with pytest.raises(InferenceError):
            conditional_sign(fx.circuit, squares_idm, 0.5, 1, True, {4: True}, session=session)

    def test_inconsistent_evidence_rejected(self, squares, squares_idm):
        with pytest.raises(InferenceError):
            EvidenceSession(squares.circuit, squares_idm, {1: True, 2: True, 3: True})


def _piecewise(root: float, left_slope: float, right_slope: float):
    """Decreasing two-piece linear function crossing zero at ``root``."""

    def value_at(mu: float) -> float:
        gap = root - mu
        return gap * (left_slope if gap > 0 else right_slope)

    return value_at


def _concave(root: float, slopes):
    """Minimum of lines through (root, 0), like the sign test's message."""

    def value_at(mu: float) -> float:
        return min(slope * (root - mu) + 0.01 * k * (1.0 - mu) for k, slope in enumerate(slopes))

    return value_at


class TestFindCrossing:
    ROOTS = (1e-9, 1e-5, 0.01, 0.5 - 1e-7, 0.5, 0.5 + 1e-7, 0.99, 1 - 1e-5, 1 - 1e-9, 1.0)
    SLOPE_RATIOS = tuple(10.0 ** e for e in range(-9, 10))

    @staticmethod
    def _check(value_at, tol: float) -> None:
        calls = []

        def counted(mu: float) -> float:
            calls.append(mu)
            return value_at(mu)

        lo, hi, passes = _find_crossing(counted, tol)
        assert passes == len(calls)
        assert passes <= 2 * math.ceil(math.log2(1 / tol)) + 3
        assert 0.0 <= lo <= hi <= 1.0
        assert hi - lo <= tol
        assert value_at(hi) <= ZERO_TOL
        if (lo, hi) == (0.0, 0.0):
            assert value_at(0.0) <= ZERO_TOL
        else:
            assert value_at(lo) > ZERO_TOL

    @pytest.mark.parametrize("tol", [1e-4, 1e-6, 1e-9])
    def test_two_piece_functions(self, tol):
        for root in self.ROOTS:
            for scale in (1e-3, 1.0, 1e3):
                for ratio in self.SLOPE_RATIOS:
                    self._check(_piecewise(root, scale, scale * ratio), tol)

    @pytest.mark.parametrize("tol", [1e-4, 1e-6, 1e-9])
    def test_concave_functions(self, tol):
        rng = Random(1971)
        for root in self.ROOTS:
            for _ in range(10):
                slopes = [10.0 ** rng.uniform(-9, 9) for _ in range(rng.randint(1, 6))]
                self._check(_concave(root, slopes), tol)

    def test_nonpositive_at_zero_exits_at_once(self):
        assert _find_crossing(_piecewise(0.0, 1.0, 1.0), 1e-6) == (0.0, 0.0, 1)
        assert _find_crossing(lambda mu: -1.0, 1e-6) == (0.0, 0.0, 1)

    def test_tolerance_below_float_resolution_terminates(self, squares, squares_idm):
        for root in self.ROOTS:
            lo, hi, passes = _find_crossing(_piecewise(root, 1.0, 1e9), 1e-300)
            assert hi - lo <= 2.0 ** -50
            assert passes <= 2 * 50 + 3
        res = lower_conditional(squares.circuit, squares_idm, 1, True,
                                {2: False, 3: False, 4: True}, tol=1e-17)
        assert res.bracket[1] - res.bracket[0] <= 2.0 ** -50

    def test_tiny_evidence_probability_keeps_the_answer(self):
        # every variable at 0.5: P(evidence) = 2**-43 lies below ZERO_TOL, yet the
        # conditional is 0.5; the sign test's zero scales with P(evidence)
        n = 44
        circuit = compile_formula(T_CONST, Vtree.right_linear(n))
        rows = [((True,) * n, 1), ((False,) * n, 1)]
        counts = collect_counts(circuit, Dataset(tuple(f"X{i}" for i in range(1, n + 1)), rows))
        params = CsddParams.degenerate(ml_estimate(circuit, counts))
        evidence = {var: True for var in range(2, n + 1)}
        low = lower_conditional(circuit, params, 1, True, evidence)
        assert 0.5 - 1e-6 <= low.value <= 0.5
        assert low.iterations > 1
        up = upper_conditional(circuit, params, 1, True, evidence)
        assert 0.5 <= up.value <= 0.5 + 1e-6

    def test_lands_within_tol_of_linear_root(self):
        lo, hi, passes = _find_crossing(_piecewise(0.3, 2.0, 2.0), 1e-6)
        assert 0.3 - 1e-6 <= lo < 0.3 <= hi + 1e-12
        # f(0), f(1), the secant step onto the root, one step to close
        assert passes <= 4


class TestSharedNodeExample:
    def test_outer_approximation_and_flag(self):
        fx = shared_node_fixture()
        params = fx.params(0.3, 0.8)
        res = lower_conditional(fx.circuit, params, 1, True, {3: True}, tol=1e-9)
        # the two uses of the shared terminal pull its parameter apart,
        # so the bound is strictly below the exact value and gets flagged
        q = Query.make("conditional", {3: True}, target=(1, True))
        oracle = strong_extension_oracle(fx.circuit, params, q, "min")
        assert res.value < oracle - 1e-6
        assert res.certificate.status == POSSIBLY_OUTER
        assert fx.shared_top in res.certificate.conflicted

    def test_degenerate_interval_is_exact(self):
        fx = shared_node_fixture()
        params = fx.params(0.55, 0.55)
        res = lower_conditional(fx.circuit, params, 1, True, {3: True}, tol=1e-9)
        assert res.certificate.status == EXACT
        q = Query.make("conditional", {3: True}, target=(1, True))
        assert res.value == pytest.approx(
            strong_extension_oracle(fx.circuit, params, q, "min"), abs=1e-6
        )

    def test_brute_force_recovers_exact_value(self):
        fx = shared_node_fixture()
        params = fx.params(0.3, 0.8)
        q = Query.make("conditional", {3: True}, target=(1, True))
        res = lower_conditional(fx.circuit, params, 1, True, {3: True}, tol=1e-9)
        refined = brute_force_exact(fx.circuit, params, q, res)
        oracle = strong_extension_oracle(fx.circuit, params, q, "min")
        assert refined == pytest.approx(oracle, abs=1e-9)
        assert refined >= res.value - 1e-12


class TestCredalMap:
    def test_point_table_equals_map(self, squares, squares_ml):
        cparams = CsddParams.degenerate(squares_ml)
        for evidence in ({}, {3: False, 4: True}, {1: False}):
            want, _ = map_query(squares.circuit, squares_ml, evidence)
            assert credal_map_upper(squares.circuit, cparams, evidence) == pytest.approx(
                want, abs=1e-12
            )

    def test_single_variable_rule(self):
        vt = Vtree(1)
        c = Circuit(vt)
        nid = c.add_true(vt.root)
        c.set_root(nid)
        params = CsddParams({nid: IntervalCredalSet((0.3, 0.4), (0.6, 0.7))})
        assert credal_map_upper(c, params, {}) == pytest.approx(0.7, abs=1e-15)

    def test_matches_double_enumeration(self):
        rng = Random(808)
        for _ in range(6):
            circuit, params = random_credal_instance(rng, rng.randint(3, 5),
                                                     bool(rng.getrandbits(1)), 0.25)
            n = circuit.vtree.var_count
            models = sorted(enumerate_models(circuit, circuit.root))
            model = models[rng.randrange(len(models))]
            keep = [v for v in range(1, n + 1) if rng.random() < 0.4]
            evidence = {v: model[v - 1] for v in keep}
            got = credal_map_upper(circuit, params, evidence)
            want = strong_extension_oracle(circuit, params, Query.make("map", evidence), "max")
            assert got == pytest.approx(want, abs=1e-9)


class TestRobustness:
    def test_point_unique_argmax_is_robust(self, squares, squares_ml):
        cparams = CsddParams.degenerate(squares_ml)
        _, xstar = map_query(squares.circuit, squares_ml, {})
        verdict = robustness(squares.circuit, cparams, {}, xstar)
        assert verdict.label == ROBUST
        assert verdict.value == pytest.approx(1.0, abs=1e-12)

    def test_point_tied_argmax_is_weakly_robust(self):
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
        cparams = CsddParams.degenerate(params)
        _, xstar = map_query(c, params, {})
        verdict = robustness(c, cparams, {}, xstar)
        assert verdict.label == WEAKLY_ROBUST
        assert verdict.value == pytest.approx(1.0, abs=1e-12)
        assert len(verdict.attaining) == 2

    def test_inconsistent_completion_not_robust(self, squares, squares_idm):
        verdict = robustness(squares.circuit, squares_idm, {},
                             {1: True, 2: True, 3: True, 4: True})
        assert verdict.label == NOT_ROBUST
        assert verdict.value == 1.0

    def test_value_at_least_one(self):
        rng = Random(909)
        for _ in range(10):
            circuit, params = random_credal_instance(rng, rng.randint(3, 5),
                                                     bool(rng.getrandbits(1)), 0.25)
            evidence, xstar = _pick_map_instance(rng, circuit, params)
            verdict = robustness(circuit, params, evidence, xstar)
            assert verdict.value >= 1.0 - 1e-12

    def test_singly_connected_matches_oracle(self):
        rng = Random(111)
        for _ in range(6):
            circuit, params = random_credal_instance(rng, rng.randint(3, 5), True, 0.2,
                                                     max_elements=3)
            evidence, xstar = _pick_map_instance(rng, circuit, params)
            verdict = robustness(circuit, params, evidence, xstar)
            q = Query.make("robustness", evidence, xstar=xstar)
            oracle = strong_extension_oracle(circuit, params, q, "max")
            assert verdict.value == pytest.approx(oracle, abs=1e-6)
            assert verdict.certificate.status == EXACT

    def test_conservative_on_shared_structure(self):
        rng = Random(222)
        for _ in range(6):
            circuit, params = random_credal_instance(rng, rng.randint(3, 5), False, 0.25)
            evidence, xstar = _pick_map_instance(rng, circuit, params)
            verdict = robustness(circuit, params, evidence, xstar)
            q = Query.make("robustness", evidence, xstar=xstar)
            oracle = strong_extension_oracle(circuit, params, q, "max")
            assert verdict.value >= oracle - 1e-6
            if verdict.certificate.status == EXACT:
                assert verdict.value == pytest.approx(oracle, abs=1e-6)
            else:
                refined = brute_force_exact(circuit, params, q, verdict)
                assert refined.value == pytest.approx(oracle, abs=1e-9)

    def test_robust_iff_every_member_agrees(self):
        rng = Random(333)
        seen = set()
        for _ in range(8):
            circuit, params = random_credal_instance(rng, 4, True, 0.15, max_elements=3)
            evidence, xstar = _pick_map_instance(rng, circuit, params)
            verdict = robustness(circuit, params, evidence, xstar)
            q = Query.make("robustness", evidence, xstar=xstar)
            oracle = strong_extension_oracle(circuit, params, q, "max")
            strict = _oracle_strict_ratio(circuit, params, evidence, xstar)
            if verdict.label == ROBUST:
                assert strict < 1.0 - 1e-9
            elif verdict.label == NOT_ROBUST:
                assert oracle > 1.0 - 1e-9
            seen.add(verdict.label)

    def test_infinite_value_lists_only_attaining_completions(self):
        # X1 may have no mass on its true state, so flipping it gives V = inf;
        # keeping X1 = 1 and flipping X2 reaches only 0.7 / 0.3
        circuit, params = _chain([IntervalCredalSet((0.0, 0.4), (0.6, 1.0)),
                                  IntervalCredalSet((0.3, 0.3), (0.7, 0.7))])
        verdict = robustness(circuit, params, {}, {1: True, 2: True})
        assert verdict.value == math.inf
        assert verdict.label == NOT_ROBUST
        assert verdict.attaining == (((1, False), (2, False)),)

    def test_infinite_value_marks_only_attaining_options(self):
        # TRUE node 2 is shared; only the options reaching V = inf pin it,
        # and they agree
        vtree = formats.loads_vtree("vtree 5\nL 0 3\nL 2 2\nL 4 1\nI 3 2 4\nI 1 0 3\n")
        circuit, params = formats.loads_csdd(
            "csdd 8\nL 0 0 3\nL 1 4 1\nT 2 2 2 1.1102230246251565e-16 0.5232045940313444\n"
            "T 3 4 1 0.0 0.33239921614774753\nD 4 3 1 2 3 1.0 1.0\nL 5 0 -3\n"
            "D 6 3 1 2 1 1.0 1.0\nD 7 1 2 0 4 0.5837253766108306 0.6753461658615943 "
            "5 6 0.32465383413840565 0.41627462338916943\n",
            vtree,
        )
        verdict = robustness(circuit, params, {1: True}, {2: False, 3: True})
        assert verdict.value == math.inf
        assert verdict.certificate.status == EXACT
        assert verdict.attaining == (((2, False), (3, False)),)

    def test_refinement_never_below_one(self):
        # terminals without mass on their true state make some ratios
        # infinite; the refinement must not lose them to its 0.0 start
        rng = Random(3)
        refined_count = 0
        for _ in range(200):
            circuit, params = random_credal_instance(rng, rng.randint(3, 5), False, 0.25)
            _zero_true_lower_bounds(rng, circuit, params)
            models = sorted(enumerate_models(circuit, circuit.root))
            model = models[rng.randrange(len(models))]
            evidence, xstar = {}, {}
            for var in range(1, circuit.vtree.var_count + 1):
                (evidence if rng.random() < 0.3 else xstar)[var] = model[var - 1]
            if not xstar:
                continue
            verdict = robustness(circuit, params, evidence, xstar)
            if verdict.certificate.is_exact:
                continue
            refined = brute_force_exact(circuit, params,
                                        Query.make("robustness", evidence, xstar=xstar), verdict)
            refined_count += 1
            assert 1.0 - 1e-12 <= refined.value <= verdict.value * (1.0 + 1e-12)
            if refined.label != NOT_ROBUST:
                assert refined.attaining[0] == tuple(sorted(xstar.items()))
        assert refined_count >= 10


def _zero_true_lower_bounds(rng: Random, circuit: Circuit, params: CsddParams) -> None:
    """Give about 40% of the TRUE terminals no lower mass on their true state."""
    for nid, cs in params.table.items():
        if circuit.nodes[nid].kind == TRUE and rng.random() < 0.4:
            params.table[nid] = normalize_reachable((0.0, cs.lower[1]), (cs.upper[0], 1.0))


def _pick_map_instance(rng: Random, circuit: Circuit, params: CsddParams):
    n = circuit.vtree.var_count
    models = sorted(enumerate_models(circuit, circuit.root))
    member = params.select({})
    for _ in range(50):
        model = models[rng.randrange(len(models))]
        keep = [v for v in range(1, n + 1) if rng.random() < 0.4]
        evidence = {v: model[v - 1] for v in keep}
        try:
            _, completion = map_query(circuit, member, evidence)
        except InferenceError:
            continue
        xstar = {v: val for v, val in completion.items() if v not in evidence}
        if xstar:
            return evidence, xstar
    raise RuntimeError("no usable map instance")


def _oracle_strict_ratio(circuit, params, evidence, xstar):
    """max over completions other than xstar, over extreme tables, of the ratio."""
    from csdd.credal import enumerate_vertices

    node_ids = circuit.parameterized_ids()
    best = 0.0
    free = [v for v in range(1, circuit.vtree.var_count + 1) if v not in evidence]
    for combo in product(*(enumerate_vertices(params.table[nid]) for nid in node_ids)):
        table = PsddParams({nid: v.point for nid, v in zip(node_ids, combo)})
        denom = joint_probability(circuit, table, {**evidence, **xstar})
        if denom <= 0:
            return math.inf
        for values in product((False, True), repeat=len(free)):
            completion = dict(zip(free, values))
            if completion == xstar:
                continue
            num = joint_probability(circuit, table, {**evidence, **completion})
            best = max(best, num / denom)
    return best


class TestBruteForce:
    def test_exact_certificate_returns_own_output(self, squares, squares_idm):
        evidence = {2: False, 3: False, 4: True}
        res = lower_conditional(squares.circuit, squares_idm, 1, True, evidence, tol=1e-8)
        q = Query.make("conditional", evidence, target=(1, True))
        assert brute_force_exact(squares.circuit, squares_idm, q, res) == res.value

    def test_random_shared_instances_match_full_oracle(self):
        rng = Random(444)
        flagged = 0
        for _ in range(10):
            circuit, params = random_credal_instance(rng, rng.randint(3, 5), False, 0.3)
            var, evidence = _pick_conditional_query(rng, circuit)
            q = Query.make("conditional", evidence, target=(var, True))
            res = lower_conditional(circuit, params, var, True, evidence, tol=1e-7)
            oracle = strong_extension_oracle(circuit, params, q, "min")
            refined = brute_force_exact(circuit, params, q, res)
            if res.certificate.status == POSSIBLY_OUTER:
                # refinement must land exactly on the enumerated optimum
                flagged += 1
                assert refined == pytest.approx(oracle, abs=1e-9)
            else:
                # certified-exact answers carry only the search tolerance
                assert refined == res.value
                assert res.value == pytest.approx(oracle, abs=1e-6)
        # the generator must actually exercise the refinement path
        assert flagged >= 1


def _uniform_point_params(circuit: Circuit) -> PsddParams:
    """Point table with forced ties: every TRUE terminal at (0.5, 0.5) and
    every decision node uniform over its satisfiable elements."""
    false = circuit.false_ids()
    table = {}
    for nid in circuit.parameterized_ids():
        node = circuit.nodes[nid]
        if node.kind == TRUE:
            table[nid] = (0.5, 0.5)
        else:
            free = [s not in false for _, s in node.elements]
            table[nid] = tuple(1.0 / sum(free) if f else 0.0 for f in free)
    return PsddParams(table)


def _enumeration_label(circuit, params, evidence, xstar) -> str:
    """Robust iff xstar is the unique most probable completion, weakly robust
    iff it is one of several, by enumerating every completion's joint."""
    free = sorted(xstar)
    joints = {}
    for values in product((False, True), repeat=len(free)):
        completion = dict(zip(free, values))
        key = tuple(sorted(completion.items()))
        joints[key] = brute_joint(circuit, params, {**evidence, **completion})
    best = max(joints.values())
    argmax = [key for key, p in joints.items() if p >= best * (1.0 - 1e-9)]
    if tuple(sorted(xstar.items())) not in argmax:
        return NOT_ROBUST
    return ROBUST if len(argmax) == 1 else WEAKLY_ROBUST


def _random_query(rng: Random, circuit: Circuit, member: PsddParams):
    """Evidence from a random model, and as xstar its MAP completion under
    ``member``, the model's own completion, or random values."""
    n = circuit.vtree.var_count
    models = sorted(enumerate_models(circuit, circuit.root))
    model = models[rng.randrange(len(models))]
    evidence = {v: model[v - 1] for v in range(1, n + 1) if rng.random() < 0.35}
    if len(evidence) == n:
        del evidence[rng.choice(sorted(evidence))]
    how = rng.randrange(3)
    if how == 0:
        _, completion = map_query(circuit, member, evidence)
        return evidence, {v: b for v, b in completion.items() if v not in evidence}
    if how == 1:
        return evidence, {v: model[v - 1] for v in range(1, n + 1) if v not in evidence}
    return evidence, {v: bool(rng.getrandbits(1)) for v in range(1, n + 1) if v not in evidence}


def _tie_instance(rng: Random, case: int):
    """Shared or tree circuits in turn; credal tables, credal tables with zero
    lower bounds, or forced-tie point tables, each every third pair of cases."""
    singly = bool(case % 2)
    kind = ("credal", "zero lower", "tied")[case // 2 % 3]
    if kind == "tied":
        circuit = random_circuit(rng, rng.randint(3, 5), singly)
        return circuit, CsddParams.degenerate(_uniform_point_params(circuit))
    circuit, params = random_credal_instance(rng, rng.randint(3, 5), singly, 0.25)
    if kind == "zero lower":
        _zero_true_lower_bounds(rng, circuit, params)
    return circuit, params


def _assert_matches_reference(circuit, params, evidence, xstar):
    """``robustness`` against ``attaining_reference`` with and without a
    certificate, bit for bit; returns the verdict without one."""
    for want_certificate in (True, False):
        got = robustness(circuit, params, evidence, xstar, want_certificate)
        want = attaining_reference(circuit, params, evidence, xstar, want_certificate)
        assert got.value.hex() == want.value.hex()
        assert (got.label, got.attaining) == (want.label, want.attaining)
        if want_certificate:
            assert got.certificate == want.certificate
            assert got.trace.uses == want.trace.uses
        else:
            assert got.certificate is got.trace is None
    return got


class TestTieStructure:
    """Robustness from per-node tied options and completion counts."""

    def test_forced_ties_match_enumeration(self):
        rng = Random(5)
        seen = set()
        for _ in range(400):
            circuit = random_circuit(rng, rng.randint(3, 5), bool(rng.getrandbits(1)))
            point = _uniform_point_params(circuit)
            evidence, xstar = _random_query(rng, circuit, point)
            verdict = robustness(circuit, CsddParams.degenerate(point), evidence, xstar)
            assert verdict.label == _enumeration_label(circuit, point, evidence, xstar)
            seen.add(verdict.label)
        assert seen == {ROBUST, WEAKLY_ROBUST, NOT_ROBUST}

    def test_matches_rep_carrying_reference(self):
        rng = Random(13)
        seen = set()
        for case in range(600):
            circuit, params = _tie_instance(rng, case)
            evidence, xstar = _random_query(rng, circuit, params.select({}))
            cm = credal_map_reference(circuit, params, evidence)
            assert credal_map_upper(circuit, params, evidence).hex() == cm.values[circuit.root].hex()
            got = _assert_matches_reference(circuit, params, evidence, xstar)
            xs = tuple(sorted(xstar.items()))
            if xs in got.attaining:
                # _label relies on xstar coming first; xstar's own ratio is 1
                assert got.attaining[0] == xs
                assert got.label in (ROBUST, WEAKLY_ROBUST)
                seen.add(got.label)
        assert seen == {ROBUST, WEAKLY_ROBUST}


def _route_by_evaluate(circuit: Circuit, total) -> list[int]:
    """Nodes reached from the root through each element whose prime is true."""
    route, stack = set(), [circuit.root]
    while stack:
        nid = stack.pop()
        route.add(nid)
        for p, s in circuit.nodes[nid].elements:
            if evaluate(circuit, p, total):
                stack += (p, s)
                break
    return sorted(route)


class TestRoute:
    """Robustness computes the facts about ``xstar`` on its route only."""

    def test_random_completions_match_full_cone_reference(self):
        # the reference sweeps the whole cone and tests consistency itself
        rng = Random(29)
        consistent = 0
        for case in range(400):
            circuit, params = _tie_instance(rng, case)
            n = circuit.vtree.var_count
            evidence = {v: bool(rng.getrandbits(1)) for v in range(1, n) if rng.random() < 0.3}
            xstar = {v: bool(rng.getrandbits(1)) for v in range(1, n + 1) if v not in evidence}
            total = {**evidence, **xstar}
            found = _route(circuit, total)
            assert (found is not None) == is_consistent(circuit, total)
            consistent += found is not None
            _assert_matches_reference(circuit, params, evidence, xstar)
        assert consistent == 189  # of 400: both branches well covered

    def test_sweeps_visit_the_route_only(self, monkeypatch):
        def no_consistency_test(*args):
            raise AssertionError("robustness tested consistency apart from its route")

        visited = []

        def spy(circuit, params, evidence, ids, sense, **memo):
            visited.append(list(ids))
            return _credal_sweep(circuit, params, evidence, ids, sense, **memo)

        monkeypatch.setattr(infer, "is_consistent", no_consistency_test)
        monkeypatch.setattr(infer, "_credal_sweep", spy)
        rng = Random(31)
        shorter = 0
        for case in range(120):
            circuit, params = _tie_instance(rng, case)
            evidence, xstar = _random_query(rng, circuit, params.select({}))
            found = _route(circuit, {**evidence, **xstar})
            for want_certificate in (True, False):
                visited.clear()
                robustness(circuit, params, evidence, xstar, want_certificate)
                if found is None:
                    assert visited == []
                else:
                    route = found[1]
                    assert visited == [route] * (1 + want_certificate)
                    assert route == _route_by_evaluate(circuit, {**evidence, **xstar})
                    shorter += len(route) < len(circuit.cone())
        assert shorter == 186  # calls whose route is shorter than the cone


def _point_sets(trace: InferenceTrace) -> dict[int, set[tuple[float, ...]]]:
    return {nid: set(points) for nid, points in trace.uses.items()}


class TestMarkers:
    """The one-scan markers record what one depth-first walk per start does."""

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), singly=st.booleans())
    def test_marks_equal_the_union_of_walks(self, seed, singly):
        rng = Random(seed)
        circuit, params = random_credal_instance(rng, rng.randint(3, 6), singly, 0.3)
        # a zero lower bound on some terminals gives lower values of zero
        # under positive upper values, where the lower sweep's rule differs
        _zero_true_lower_bounds(rng, circuit, params)
        n = circuit.vtree.var_count
        evidence = {v: bool(rng.getrandbits(1)) for v in range(1, n + 1) if rng.random() < 0.5}
        cone = circuit.cone()
        low = _credal_sweep(circuit, params, evidence, cone, MIN)
        up = _credal_sweep(circuit, params, evidence, cone, MAX)
        # the walks read the points the reference sweeps recorded
        low_ref = credal_sweep_reference(circuit, params, evidence, cone, MIN)
        up_ref = credal_sweep_reference(circuit, params, evidence, cone, MAX)
        assert repr((low, up)) == repr((low_ref.values, up_ref.values))
        cm = _credal_map(circuit, params, evidence)
        sweep_starts = [(rng.choice(cone), rng.choice((MIN, MAX))) for _ in range(rng.randint(1, 6))]
        map_starts = [rng.choice(cone) for _ in range(rng.randint(1, 6))]

        got, want = InferenceTrace(), InferenceTrace()
        _mark_sweeps(got, circuit, params, evidence, cone, low, up, sweep_starts)
        for nid, sense in sweep_starts:
            mark_sweep_walk(want, circuit, nid, low_ref, up_ref, sense)
        assert _point_sets(got) == _point_sets(want)

        got, want = InferenceTrace(), InferenceTrace()
        _mark_map(got, circuit, params, cm, evidence, map_starts)
        for nid in map_starts:
            mark_map_walk(want, circuit, params, cm, evidence, nid)
        assert _point_sets(got) == _point_sets(want)


DEEP_VARS = 3000


def _chain(sets):
    """Right-linear chain over ``len(sets)`` variables; ``sets[v - 1]`` is
    variable v's TRUE terminal set.

    Every internal vtree node has one decision node with one element: a
    TRUE prime, then the rest of the chain.
    """
    vtree = Vtree.right_linear(len(sets))
    circuit = Circuit(vtree)
    table = {}
    spine = []
    vid = vtree.root
    while not vtree.is_leaf(vid):
        spine.append(vid)
        vid = vtree.right(vid)
    rest = circuit.add_true(vid)
    table[rest] = sets[vtree.var(vid) - 1]
    for vid in reversed(spine):
        prime = circuit.add_true(vtree.left(vid))
        table[prime] = sets[vtree.var(vtree.left(vid)) - 1]
        rest = circuit.add_decision(vid, [(prime, rest)])
        table[rest] = IntervalCredalSet((1.0,), (1.0,))
    circuit.set_root(rest)
    return circuit, CsddParams(table)


@pytest.fixture(scope="module")
def deep_model(tmp_path_factory):
    """Chain over ``DEEP_VARS`` variables, written and read back.

    The lower-greedy point table puts all mass on the true states, so every
    answer is exact in floating point.
    """
    circuit, params = _chain([IntervalCredalSet((0.6, 0.0), (1.0, 0.4))] * DEEP_VARS)
    d = tmp_path_factory.mktemp("deep")
    formats.write_vtree(circuit.vtree, d / "m.vtree")
    formats.write_csdd(circuit, params, d / "m.csdd")
    formats.write_psdd(circuit, params.select({}), d / "m.psdd")
    circuit, params = formats.read_csdd(d / "m.csdd", formats.read_vtree(d / "m.vtree"))
    return d, circuit, params


class TestDeepModel:
    """Queries on a chain deeper than the default recursion limit."""

    def test_queries_return(self, deep_model):
        _, circuit, params = deep_model
        assert sys.getrecursionlimit() < DEEP_VARS
        xstar = {var: True for var in range(1, DEEP_VARS + 1)}
        verdict = robustness(circuit, params, {}, xstar)
        assert (verdict.value, verdict.label) == (1.0, ROBUST)
        assert verdict.certificate.is_exact
        assert lower_conditional(circuit, params, DEEP_VARS, True, {}).value == pytest.approx(
            0.6, abs=1e-6
        )
        assert credal_map_upper(circuit, params, {}) == 1.0
        assert map_query(circuit, params.select({}), {}) == (1.0, xstar)

    def test_cli_robust(self, deep_model, capsys):
        d, _, _ = deep_model
        code = main(
            ["robust", "--csdd", str(d / "m.csdd"), "--psdd", str(d / "m.psdd"),
             "--vtree", str(d / "m.vtree")]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["label"] == ROBUST

    @pytest.mark.parametrize("n", [50, DEEP_VARS])
    def test_tied_chain(self, n):
        # every terminal ties its two states, so every node has two completions
        circuit, params = _chain([IntervalCredalSet((0.3, 0.5), (0.5, 0.7))] * n)
        xstar = {var: False for var in range(1, n + 1)}
        verdict = robustness(circuit, params, {}, xstar)
        assert (verdict.value, verdict.label) == (1.0, WEAKLY_ROBUST)
        second = {**xstar, n: True}
        assert verdict.attaining == (tuple(sorted(xstar.items())), tuple(sorted(second.items())))
        if n == 50:  # the reference rebuilds completions per node, quadratic in depth
            assert verdict.attaining == attaining_reference(circuit, params, {}, xstar).attaining


# ROADMAP item 1: the sign test's numerical zero scales with the upper
# evidence probability while its messages scale with the lower one
_SCALE_LIMIT = pytest.mark.xfail(
    strict=True, reason="sign-test resolution falls with lower/upper P(e) (ROADMAP item 1)"
)


@pytest.mark.parametrize("n", [10, *(pytest.param(n, marks=_SCALE_LIMIT) for n in (30, 40, 50, 60))])
def test_chain_conditional_is_exact_at_scale(n):
    # independent variables: the exact lower P(Xn = 1 | X1..X(n-1) true) is 0.3
    circuit, params = _chain([IntervalCredalSet((0.3, 0.5), (0.5, 0.7))] * n)
    got = lower_conditional(circuit, params, n, True, {v: True for v in range(1, n)})
    assert got.certificate.is_exact  # singly connected
    assert 0.3 - DEFAULT_BISECTION_TOL <= got.value <= 0.3


def _repeating_evidence(rng: Random, circuit: Circuit, length: int) -> list[dict[int, bool]]:
    """Consistent evidence leaving a variable free, each value drawn from one
    of two models, so sub-assignments (and whole evidence) repeat."""
    n = circuit.vtree.var_count
    models = sorted(enumerate_models(circuit, circuit.root))
    pool = [models[rng.randrange(len(models))] for _ in range(2)]
    out = []
    while len(out) < length:
        evidence = {v: rng.choice(pool)[v - 1] for v in range(1, n + 1) if rng.random() < 0.6}
        if len(evidence) < n and is_consistent(circuit, evidence):
            out.append(evidence)
    return out


class TestPassMemo:
    """Credal passes under a ``_PassMemo`` scope answer bit for bit as without
    one, the memo holds one entry per distinct (node, evidence under the
    node), and no call on another circuit, root or table consults it."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_memo_answers_as_without(self, seed):
        rng = Random(seed)
        circuit = random_circuit(rng, rng.randint(3, 6), singly=bool(rng.getrandbits(1)))
        csdd = random_csdd_params(rng, circuit, 0.3)
        psdd = random_psdd_params(rng, circuit)
        credal_memo = _PassMemo(circuit, csdd)
        sweep_memo = _PassMemo(circuit, csdd)  # the lower cone sweeps' entries alone
        nodes, cone, vtree = circuit.nodes, circuit.cone(), circuit.vtree
        met = set()  # (node, evidence under it) where the lower sweep consults the memo
        for evidence in _repeating_evidence(rng, circuit, 12):
            free = [v for v in range(1, vtree.var_count + 1) if v not in evidence]
            for sense in (MIN, MAX):
                want = _credal_sweep(circuit, csdd, evidence, cone, sense)
                with credal_memo:
                    got = _credal_sweep(circuit, csdd, evidence, cone, sense)
                assert repr(got) == repr(want)
            with sweep_memo:
                _credal_sweep(circuit, csdd, evidence, cone, MIN)
            for nid in cone:
                node = nodes[nid]
                if node.kind == DECISION or node.kind == TRUE and node.var in evidence:
                    under = vtree.vars_under(node.vtree)
                    met.add((nid, frozenset((v, evidence[v]) for v in under if v in evidence)))
            want = _credal_map(circuit, csdd, evidence)
            with credal_memo:
                got = _credal_map(circuit, csdd, evidence)
            assert repr((got.values, got.tied, got.counts)) == repr(
                (want.values, want.tied, want.counts)
            )

            plain = EvidenceSession(circuit, csdd, evidence)
            with credal_memo:
                memoized = EvidenceSession(circuit, csdd, evidence)
            # bound when built and packed once, for the sign tests run after the scope
            assert memoized._memo is credal_memo
            assert memoized._key == credal_memo.pack(evidence)
            for var, val, mu in product(free, (True, False), (0.0, 0.25, 0.5, 0.9)):
                want = plain._sign_test(var, val, mu)
                assert repr(memoized._sign_test(var, val, mu)) == repr(want)
                signs = [conditional_sign(circuit, csdd, mu, var, val, evidence, session)
                         for session in (memoized, plain)]
                assert signs[0] == signs[1]
            # a traced sign test skips the memo: the certificate sees every node
            got = lower_conditional(circuit, csdd, free[0], True, evidence, session=memoized)
            want = lower_conditional(circuit, csdd, free[0], True, evidence, session=plain)
            assert (got.value, got.certificate, got.trace.uses, got.trace.sigma) == (
                want.value, want.certificate, want.trace.uses, want.trace.sigma
            )

            completion = map_query(circuit, psdd, evidence)
            xstars = ({v: completion[1][v] for v in free},
                      {v: bool(rng.getrandbits(1)) for v in free})
            for xstar, certify in product(xstars, (False, True)):
                want = robustness(circuit, csdd, evidence, xstar, certify)
                with credal_memo:
                    got = robustness(circuit, csdd, evidence, xstar, certify)
                if certify:
                    assert (got.certificate, got.trace.uses) == (want.certificate, want.trace.uses)
                else:
                    assert repr(got) == repr(want)
        assert sum(map(len, sweep_memo.passes.values())) == len(met)

    def test_memo_is_refused_elsewhere(self):
        rng = Random(3)
        circuit = random_circuit(rng, 5, singly=False)
        csdd, psdd = random_csdd_params(rng, circuit, 0.3), random_psdd_params(rng, circuit)
        memo = _PassMemo(circuit, csdd)
        xstar = map_query(circuit, psdd, {})[1]
        evidence = {1: xstar[1]}
        free = [v for v in xstar if v not in evidence]

        def answers(circuit, csdd):
            session = EvidenceSession(circuit, csdd, evidence)
            under = circuit.vtree.vars_under(circuit.nodes[circuit.root].vtree)
            cm = _credal_map(circuit, csdd, evidence)
            completion = map_query(circuit, psdd, evidence)
            verdict = robustness(circuit, csdd, evidence, {v: xstar[v] for v in free})
            return repr((
                _credal_sweep(circuit, csdd, evidence, circuit.cone(), MIN),
                (cm.values, cm.tied, cm.counts),
                [session._sign_test(var, True, 0.5) for var in free if var in under],
                completion,
                (verdict.value, verdict.label, verdict.attaining, verdict.certificate,
                 verdict.trace.uses),
            ))

        def scoped(circuit, csdd, truth_passes):
            """Answers under the memo equal the one-shot ones, with this many
            ``_route`` calls; the memo keeps no route."""
            want = answers(circuit, csdd)
            calls = []
            with memo, pytest.MonkeyPatch.context() as mp:
                mp.setattr(infer, "_route", lambda *args: calls.append(1) or _route(*args))
                assert answers(circuit, csdd) == want
            assert len(calls) == truth_passes and memo.routes == {}

        # equal tables and an equal circuit, but other objects: no entry is
        # made; a route depends on the circuit and its root alone, so another
        # table still takes the one map_query left
        scoped(circuit, CsddParams(dict(csdd.table)), 0)
        assert memo.passes == {}
        scoped(circuit.extract(circuit.root), csdd, 1)
        assert memo.passes == {}
        root = circuit.root
        circuit.set_root(max(nid for nid in circuit.parameterized_ids() if nid != root))
        try:
            scoped(circuit, csdd, 1)
        finally:
            circuit.set_root(root)
        assert memo.passes == {}
        # the memo's own circuit, root and table
        scoped(circuit, csdd, 0)
        assert memo.passes

    def test_scopes_nest_and_unwind(self):
        rng = Random(5)
        circuit = random_circuit(rng, 4, singly=False)
        csdd = random_csdd_params(rng, circuit, 0.3)
        outer, inner = _PassMemo(circuit, csdd), _PassMemo(circuit, csdd)
        seen = []
        thread = threading.Thread(target=lambda: seen.append(_open_memo(circuit, csdd)))
        assert _open_memo(circuit, csdd) is None
        with outer as opened:
            assert opened is outer and _open_memo(circuit, csdd) is outer
            with inner:
                assert _open_memo(circuit, csdd) is inner
                lower_marginal(circuit, csdd, {1: True})
            assert _open_memo(circuit, csdd) is outer
            with pytest.raises(RuntimeError, match="inside"):
                with inner:
                    raise RuntimeError("inside")
            assert _open_memo(circuit, csdd) is outer
            with outer:  # an open memo may open again
                assert _open_memo(circuit, csdd) is outer
            assert _open_memo(circuit, csdd) is outer
            thread.start()
            thread.join()
            lower_marginal(circuit, csdd, {2: False})
        assert _open_memo(circuit, csdd) is None
        assert seen == [None]  # another thread does not see this thread's memo
        # each memo holds the entries of the pass run while it was innermost
        assert all(hit[1] == inner.pack({1: True}) & inner.masks[hit[0]]
                   for entries in inner.passes.values() for hit in entries)
        assert all(hit[1] == outer.pack({2: False}) & outer.masks[hit[0]]
                   for entries in outer.passes.values() for hit in entries)
        assert inner.passes and outer.passes


class TestNoPrivateParameters:
    def test_no_parameter_name_starts_with_underscore(self):
        """What a caller may pass is public: batch state travels in a scope."""
        found = []
        for path in sorted((Path(infer.__file__).parent).glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                    args = node.args
                    params = args.posonlyargs + args.args + args.kwonlyargs
                    params += [a for a in (args.vararg, args.kwarg) if a is not None]
                    found += [f"{path.name}:{node.lineno} {a.arg}"
                              for a in params if a.arg.startswith("_")]
        assert found == []


def _sign_test_reference(session: EvidenceSession, var: int, val: bool, mu: float, trace=None):
    """The sign test read off the circuit node by node, without a plan and
    over reference sweeps: the root message and the sibling bound each
    element consumed.  A ``trace`` receives the points the spine pinned and
    then, by one walk per sibling, the points the reference sweeps recorded."""
    circuit, table, evidence = session.circuit, session.params.table, session.evidence
    nodes = circuit.nodes
    low, up = (credal_sweep_reference(circuit, session.params, evidence, circuit.cone(), sense)
               for sense in (MIN, MAX))
    msg, sigma, starts = {}, {}, []
    for nid in circuit.spine(var):
        node = nodes[nid]
        if node.kind == FALSE or node.kind == DECISION and nid not in table:
            msg[nid] = 0.0
        elif node.kind == LITERAL:
            msg[nid] = (1.0 - mu) if node.polarity == val else -mu
        elif node.kind == TRUE:
            cs, state = table[nid], 0 if val else 1
            msg[nid] = min((1.0 - mu) * cs.lower[state] - mu * cs.upper[1 - state],
                           (1.0 - mu) * cs.upper[state] - mu * cs.lower[1 - state])
            if trace is not None:
                lx, unot = cs.lower[state], cs.upper[1 - state]
                trace.record(nid, (lx, unot) if state == 0 else (unot, lx))
        else:
            coeffs = []
            for idx, (p, s) in enumerate(node.elements):
                u, w = (p, s) if p in msg else (s, p)
                upper = msg[u] < 0.0 and nodes[w].kind != FALSE
                sigma[nid, idx] = ("upper" if upper else "lower", (up if upper else low).values[w])
                starts.append((w, MAX if upper else MIN))
                coeffs.append(msg[u] * sigma[nid, idx][1])
            msg[nid], point = _min_fast(table[nid], coeffs)
            if trace is not None:
                trace.record(nid, point if any(coeffs) else None)
    if trace is not None:
        mark_sweeps_reference(trace, circuit, low, up, starts)
    return msg[circuit.root], sigma


def _pin_true_states(rng: Random, circuit: Circuit, params: CsddParams) -> None:
    """Give about a third of the TRUE terminals a [0, 0] set on one state."""
    for nid in list(params.table):
        if circuit.nodes[nid].kind == TRUE and rng.random() < 0.35:
            point = (1.0, 0.0) if rng.getrandbits(1) else (0.0, 1.0)
            params.table[nid] = IntervalCredalSet(point, point)


class TestEvidenceFactsOnce:
    """A display observation's facts come from the passes it runs anyway:
    consistency from the session's upper sweep, xstar's route from the MAP
    pass, and one structural sign-test plan per target."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_session_raises_exactly_on_inconsistent_evidence(self, seed):
        rng = Random(seed)
        circuit = random_circuit(rng, rng.randint(3, 6), singly=bool(rng.getrandbits(1)))
        csdd = random_csdd_params(rng, circuit, 0.3)
        if rng.getrandbits(1):
            _pin_true_states(rng, circuit, csdd)
        n = circuit.vtree.var_count
        truth_passes = []

        def counted(circuit, evidence):
            truth_passes.append(dict(evidence))
            return is_consistent(circuit, evidence)

        for _ in range(6):
            evidence = {v: bool(rng.getrandbits(1)) for v in range(1, n + 1) if rng.random() < 0.5}
            consistent = is_consistent(circuit, evidence)
            upper = upper_marginal(circuit, csdd, evidence)
            for scope in (nullcontext(), _PassMemo(circuit, csdd)):
                truth_passes.clear()
                with scope, pytest.MonkeyPatch.context() as mp:
                    mp.setattr(infer, "is_consistent", counted)
                    if consistent:
                        session = EvidenceSession(circuit, csdd, evidence)
                        assert session.up[circuit.root] == upper
                    else:
                        with pytest.raises(InferenceError) as raised:
                            EvidenceSession(circuit, csdd, evidence)
                        assert str(raised.value) == "evidence violates circuit constraints"
                # a positive upper probability already proves consistency
                assert truth_passes == ([evidence] if upper <= 0.0 else [])

    def test_consistent_evidence_of_upper_probability_zero(self):
        # X1 = 1 is a model's value, but every member gives it no mass
        circuit, csdd = _chain([IntervalCredalSet((0.0, 1.0), (0.0, 1.0)),
                                IntervalCredalSet((0.3, 0.5), (0.5, 0.7))])
        assert is_consistent(circuit, {1: True})
        assert upper_marginal(circuit, csdd, {1: True}) == 0.0
        session = EvidenceSession(circuit, csdd, {1: True})
        assert session.zero == 0.0
        assert conditional_sign(circuit, csdd, 0.5, 2, True, {1: True}, session) == 0

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_handed_route_is_the_truth_route(self, seed):
        rng = Random(seed)
        circuit = random_circuit(rng, rng.randint(3, 6), singly=bool(rng.getrandbits(1)))
        csdd, psdd = random_csdd_params(rng, circuit, 0.3), random_psdd_params(rng, circuit)
        # a memo for another table object still carries the routes, not the passes
        credal_memo, route_memo = _PassMemo(circuit, csdd), _PassMemo(circuit, CsddParams(dict(csdd.table)))
        truth_passes = []

        def counted(*args):
            truth_passes.append(1)
            return _route(*args)

        for evidence in _repeating_evidence(rng, circuit, 8):
            _, completion = map_query(circuit, psdd, evidence)
            xstar = {v: b for v, b in completion.items() if v not in evidence}
            other = {v: bool(rng.getrandbits(1)) for v in xstar}
            for certify, memo in product((False, True), (credal_memo, route_memo)):
                key = memo.pack(completion)
                with memo, pytest.MonkeyPatch.context() as mp:
                    mp.setattr(infer, "_route", counted)
                    assert map_query(circuit, psdd, evidence)[1] == completion
                    assert memo.routes[key] == _route(circuit, completion)
                    truth_passes.clear()
                    got = robustness(circuit, csdd, evidence, xstar, certify)
                    assert truth_passes == [] and key not in memo.routes  # popped, no truth pass
                    map_query(circuit, psdd, evidence)
                    # any other completion runs its truth pass and answers as one-shot
                    other_got = robustness(circuit, csdd, evidence, other, False)
                    assert truth_passes == ([] if other == xstar else [1])
                    memo.routes.clear()
                assert repr(other_got) == repr(robustness(circuit, csdd, evidence, other, False))
                want = robustness(circuit, csdd, evidence, xstar, certify)
                if certify:
                    assert repr((got.value, got.label, got.attaining, got.certificate)) == repr(
                        (want.value, want.label, want.attaining, want.certificate))
                    assert repr(got.trace.uses) == repr(want.trace.uses)
                else:
                    assert repr(got) == repr(want)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_plan_sign_tests_match_reference(self, seed):
        rng = Random(seed)
        circuit = random_circuit(rng, rng.randint(3, 6), singly=bool(rng.getrandbits(1)))
        csdd = random_csdd_params(rng, circuit, 0.3)
        memo = _PassMemo(circuit, csdd)
        n = circuit.vtree.var_count
        for evidence in _repeating_evidence(rng, circuit, 6):
            plain = EvidenceSession(circuit, csdd, evidence)
            with memo:
                memoized = EvidenceSession(circuit, csdd, evidence)
            free = [v for v in range(1, n + 1) if v not in evidence]
            for var, val, mu in product(free, (True, False), (0.0, 0.3, 0.5, 1.0)):
                want, sigma = _sign_test_reference(plain, var, val, mu)
                assert repr(plain._sign_test(var, val, mu)) == repr(want)
                assert repr(memoized._sign_test(var, val, mu)) == repr(want)
                trace = InferenceTrace()
                assert repr(plain._sign_test(var, val, mu, trace)) == repr(want)
                assert repr(trace.sigma) == repr(sigma)

    def test_two_tables_alternate_without_leaks(self):
        rng = Random(41)
        circuit = random_circuit(rng, 5, singly=False)
        n = circuit.vtree.var_count
        evidences = _repeating_evidence(rng, circuit, 8)
        plans = {var: _sign_plan(circuit, var) for var in range(1, n + 1)}
        for round_ in range(3):
            # fresh tables and memos each round, so a dropped one's id may come back
            tables = [random_csdd_params(rng, circuit, 0.3) for _ in range(2)]
            memos = [_PassMemo(circuit, table) for table in tables]
            for evidence in evidences:
                # a key depends on the circuit only
                assert memos[1].pack(evidence) == memos[0].pack(evidence)
                free = [v for v in range(1, n + 1) if v not in evidence]
                for k in (round_ % 2, 1 - round_ % 2):
                    with memos[1 - k]:  # the other table's memo is not consulted
                        plain = EvidenceSession(circuit, tables[k], evidence)
                    with memos[k]:
                        shared = EvidenceSession(circuit, tables[k], evidence)
                    for var, val in product(free, (True, False)):
                        assert repr(shared._sign_test(var, val, 0.5)) == repr(
                            _sign_test_reference(plain, var, val, 0.5)[0])
            del tables, memos
        # plans hold structure only: one per variable until the root moves
        assert all(_sign_plan(circuit, var) is plan for var, plan in plans.items())
        root = circuit.root
        circuit.set_root(circuit.nodes[root].elements[0][1])
        try:
            for var in range(1, n + 1):
                assert _sign_plan(circuit, var) is not plans[var]
                assert [nid for nid, _, _ in _sign_plan(circuit, var)] == circuit.spine(var)
        finally:
            circuit.set_root(root)


class TestValueSweeps:
    """Sweeps carry values only: a certificate solves the sweep problems it
    marks again and records what sweeps recording their points would."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), singly=st.booleans())
    def test_certificates_match_recorded_points(self, seed, singly):
        rng = Random(seed)
        circuit = random_circuit(rng, rng.randint(3, 6), singly=singly)
        csdd, psdd = random_csdd_params(rng, circuit, 0.3), random_psdd_params(rng, circuit)
        if rng.getrandbits(1):
            _zero_true_lower_bounds(rng, circuit, csdd)
        report, memo = circuit.connectivity(), _PassMemo(circuit, csdd)
        n = circuit.vtree.var_count
        for evidence in _repeating_evidence(rng, circuit, 4):
            free = [v for v in range(1, n + 1) if v not in evidence]
            var = rng.choice(free)
            with memo:
                memoized = EvidenceSession(circuit, csdd, evidence)
            for session, val, upper in product(
                (EvidenceSession(circuit, csdd, evidence), memoized), (True, False), (False, True)
            ):
                query = upper_conditional if upper else lower_conditional
                got = query(circuit, csdd, var, val, evidence, session=session)
                # an upper conditional is certified by the complement's lower one
                want = InferenceTrace()
                _, sigma = _sign_test_reference(session, var, val != upper, got.bracket[0], want)
                # per node the same points in the same order; nodes come in walk order
                assert repr(sorted(got.trace.uses.items())) == repr(sorted(want.uses.items()))
                assert repr(got.trace.sigma) == repr(sigma)
                assert got.certificate == exactness_certificate(want, report)
            completion = map_query(circuit, psdd, evidence)[1]
            xstars = ({v: completion[v] for v in free}, {v: bool(rng.getrandbits(1)) for v in free})
            for xstar, scope in product(xstars, (nullcontext(), memo)):
                with scope:
                    got = robustness(circuit, csdd, evidence, xstar)
                want = attaining_reference(circuit, csdd, evidence, xstar)
                assert repr((got.value, got.certificate, sorted(got.trace.uses.items()))) == repr(
                    (want.value, want.certificate, sorted(want.trace.uses.items())))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), singly=st.booleans())
    def test_route_sweeps_are_the_cone_sweeps(self, seed, singly):
        rng = Random(seed)
        circuit = random_circuit(rng, rng.randint(3, 6), singly=singly)
        csdd = random_csdd_params(rng, circuit, 0.3)
        memo, cone = _PassMemo(circuit, csdd), circuit.cone()
        models = sorted(enumerate_models(circuit, circuit.root))
        for _ in range(6):
            total = dict(enumerate(rng.choice(models), 1))
            route = _route(circuit, total)[1]
            partial = {v: b for v, b in total.items() if rng.random() < 0.5}
            for sense in (MIN, MAX):
                want = _credal_sweep(circuit, csdd, total, cone, sense)
                # memo entries of route, cone and partial-evidence sweeps mix
                for ids, scope in product((route, cone), (nullcontext(), memo)):
                    with scope:
                        got = _credal_sweep(circuit, csdd, total, ids, sense)
                    assert repr([got[nid] for nid in ids]) == repr([want[nid] for nid in ids])
                with memo:
                    got = _credal_sweep(circuit, csdd, partial, cone, sense)
                assert repr(got) == repr(_credal_sweep(circuit, csdd, partial, cone, sense))
