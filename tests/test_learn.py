"""Context counting and the three estimators on the squares model."""

import math
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csdd.circuit import Circuit, Vtree, compile_formula, enumerate_models
from csdd.fixtures import shared_node_fixture, squares_dataset, squares_fixture
from csdd.learn import (
    Dataset,
    LearnError,
    bayes_estimate,
    collect_counts,
    idm_estimate,
    ml_estimate,
)
from csdd.params import ParamError, PsddParams
from conftest import brute_joint, random_circuit, random_formula, random_vtree, route_counts


class TestCollectCounts:
    def test_squares_root_counts(self, squares, squares_counts):
        assert squares_counts.counts[squares.root] == [31, 52, 17]
        assert squares_counts.totals[squares.root] == 100

    def test_squares_deep_counts(self, squares, squares_counts):
        # sub of the both-white branch sees the 31 both-white rows
        assert squares_counts.counts[squares.right_when_white] == [12, 19]
        # its TRUE terminal sees the 19 rows continuing with the third pixel on
        assert squares_counts.counts[squares.top_white] == [5, 14]
        assert squares_counts.counts[squares.left_mixed] == [39, 13]
        assert squares_counts.counts[squares.right_when_mixed] == [8, 44]
        assert squares_counts.counts[squares.top_mixed] == [33, 11]

    def test_empty_dataset_all_zero(self, squares):
        empty = Dataset(("X1", "X2", "X3", "X4"), [])
        counts = collect_counts(squares.circuit, empty)
        assert all(total == 0 for total in counts.totals.values())

    def test_shared_node_accumulates_over_contexts(self):
        fx = shared_node_fixture()
        rows = [
            ((True, True, True, True), 1),
            ((True, True, False, True), 1),
            ((False, True, True, False), 1),
            ((False, True, False, False), 1),
        ]
        counts = collect_counts(fx.circuit, Dataset(("X1", "X2", "X3", "X4"), rows))
        # every row passes through the shared node, once per its own context
        assert counts.totals[fx.shared] == 4
        assert counts.counts[fx.shared_top] == [2, 2]

    def test_inconsistent_row_strict_raises(self, squares):
        bad = Dataset(("X1", "X2", "X3", "X4"), [((True, True, True, True), 1)])
        with pytest.raises(LearnError):
            collect_counts(squares.circuit, bad)

    def test_inconsistent_row_lenient_drops(self, squares):
        bad = Dataset(
            ("X1", "X2", "X3", "X4"),
            [((True, True, True, True), 2), ((False, False, False, True), 3)],
        )
        counts = collect_counts(squares.circuit, bad, strict=False)
        assert counts.dropped == 2
        assert counts.totals[squares.root] == 3

    def test_counts_conserved_at_root(self):
        rng = Random(31)
        for _ in range(5):
            circuit = random_circuit(rng, 4, singly=True)
            from csdd.circuit import enumerate_models

            models = sorted(enumerate_models(circuit, circuit.root))
            rows = [(m, rng.randint(1, 5)) for m in models]
            ds = Dataset(tuple(f"X{i}" for i in range(1, 5)), rows)
            counts = collect_counts(circuit, ds)
            assert counts.totals[circuit.root] == ds.total


def _compiled(seed: int, n: int, share: bool):
    rng = Random(seed)
    formula = random_formula(rng, n, rng.randint(1, 3))
    return compile_formula(formula, random_vtree(rng, n), share=share)


def _names(n: int) -> tuple[str, ...]:
    return tuple(f"X{i}" for i in range(1, n + 1))


def _learn_error(call) -> str | None:
    try:
        call()
    except LearnError as exc:
        return str(exc)
    return None


class TestCountsMatchScalarRouter:
    """The bit-parallel counter against the one-row-at-a-time router."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 6),
        share=st.booleans(),
        picks=st.lists(st.tuples(st.integers(0, 2**12), st.integers(1, 1000)), max_size=12),
    )
    def test_consistent_rows(self, seed, n, share, picks):
        circuit = _compiled(seed, n, share)
        models = sorted(enumerate_models(circuit, circuit.root))
        rows = [(models[i % len(models)], count) for i, count in picks] if models else []
        ds = Dataset(_names(n), rows)
        got = collect_counts(circuit, ds)
        assert got == route_counts(circuit, ds)
        assert got.dropped == 0

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 6),
        share=st.booleans(),
        data=st.data(),
    )
    def test_lenient_drops_and_strict_message(self, seed, n, share, data):
        circuit = _compiled(seed, n, share)
        rows = data.draw(
            st.lists(
                st.tuples(st.tuples(*[st.booleans()] * n), st.integers(1, 1000)), max_size=12
            )
        )
        ds = Dataset(_names(n), rows)
        assert collect_counts(circuit, ds, strict=False) == route_counts(circuit, ds, strict=False)
        assert _learn_error(lambda: collect_counts(circuit, ds)) == _learn_error(
            lambda: route_counts(circuit, ds)
        )

    def test_single_row_and_no_rows(self):
        rng = Random(17)
        for _ in range(10):
            circuit = random_circuit(rng, 5, singly=bool(rng.getrandbits(1)))
            models = sorted(enumerate_models(circuit, circuit.root))
            for rows in ([], [(rng.choice(models), 1)], [(rng.choice(models), 300)]):
                ds = Dataset(_names(5), rows)
                assert collect_counts(circuit, ds) == route_counts(circuit, ds)

    def test_strict_message_names_first_inconsistent_row(self, squares):
        rows = [
            ((False, False, False, True), 3),
            ((True, False, True, True), 1),
            ((True, True, True, True), 2),
        ]
        ds = Dataset(("X1", "X2", "X3", "X4"), rows)
        with pytest.raises(LearnError) as exc:
            collect_counts(squares.circuit, ds)
        assert str(exc.value) == (
            "row {1: True, 2: False, 3: True, 4: True} is inconsistent with the circuit"
        )
        lenient = collect_counts(squares.circuit, ds, strict=False)
        assert lenient == route_counts(squares.circuit, ds, strict=False)
        assert lenient.dropped == 3

    def test_fixtures_match(self, squares):
        fx = shared_node_fixture()
        rows = [((a, True, c, a), 7 * a + 3 * c + 1) for a in (False, True) for c in (False, True)]
        ds = Dataset(("X1", "X2", "X3", "X4"), rows)
        assert collect_counts(fx.circuit, ds) == route_counts(fx.circuit, ds)
        assert collect_counts(squares.circuit, squares_dataset()) == route_counts(
            squares.circuit, squares_dataset()
        )


class TestMlEstimate:
    def test_squares_root(self, squares, squares_ml):
        assert squares_ml.table[squares.root] == (0.31, 0.52, 0.17)

    def test_uniform_two_way(self):
        fx = squares_fixture()
        rows = [
            ((False, False, False, True), 1),
            ((False, False, True, False), 1),
            ((True, False, False, True), 1),  # keep the other contexts non-empty
            ((True, True, False, False), 1),
        ]
        counts = collect_counts(fx.circuit, Dataset(("X1", "X2", "X3", "X4"), rows))
        ml = ml_estimate(fx.circuit, counts)
        assert ml.table[fx.right_when_white] == (0.5, 0.5)

    def test_zero_feasible_context_raises(self, squares):
        # nothing ever reaches the both-black branch
        rows = [((False, False, False, True), 4)]
        counts = collect_counts(squares.circuit, Dataset(("X1", "X2", "X3", "X4"), rows))
        with pytest.raises(LearnError):
            ml_estimate(squares.circuit, counts)

    @staticmethod
    def _false_chain_circuit():
        """x1 ? (x2 ? T3 : x3) : FALSE over vtree (1, (2, 3)), its FALSE the
        chain (T2, F3), so the TRUE terminal T2 is reached only inside it."""
        circuit = Circuit(Vtree((1, (2, 3))))
        x1, not_x1 = circuit.add_literal(1, True), circuit.add_literal(1, False)
        x2, not_x2 = circuit.add_literal(2, True), circuit.add_literal(2, False)
        t2, t3, x3 = circuit.add_true(2), circuit.add_true(4), circuit.add_literal(3, True)
        false_chain = circuit.add_decision(3, [(t2, circuit.add_false(4))])
        right = circuit.add_decision(3, [(x2, t3), (not_x2, x3)])
        circuit.set_root(circuit.add_decision(1, [(x1, right), (not_x1, false_chain)]))
        return circuit, t2, t3

    def test_prime_inside_a_false_chain_gets_a_uniform_placeholder(self):
        circuit, t2, t3 = self._false_chain_circuit()
        rows = [((True, True, True), 2), ((True, True, False), 1), ((True, False, True), 1)]
        counts = collect_counts(circuit, Dataset(("X1", "X2", "X3"), rows))
        assert counts.totals[t2] == 0
        ml = ml_estimate(circuit, counts)
        assert ml.table[t2] == (0.5, 0.5)
        assert ml.table[t3] == (2 / 3, 1 / 3)

    def test_empty_feasible_context_beside_a_false_chain_raises(self):
        circuit, _, t3 = self._false_chain_circuit()
        rows = [((True, False, True), 3)]  # nothing takes x2 true, so nothing reaches T3
        counts = collect_counts(circuit, Dataset(("X1", "X2", "X3"), rows))
        with pytest.raises(LearnError, match=f"node {t3} has an empty context"):
            ml_estimate(circuit, counts)

    def test_matches_zero_width_interval_limit(self, squares, squares_counts, squares_ml):
        # the interval construction at s -> 0 collapses onto the frequencies
        tiny = idm_estimate(squares.circuit, squares_counts, 1e-9)
        for nid, pmf in squares_ml.table.items():
            cs = tiny.table[nid]
            for p, l, u in zip(pmf, cs.lower, cs.upper):
                assert abs(p - l) < 1e-9 and abs(u - p) < 1e-9

    def test_likelihood_locally_maximal(self, squares, squares_ml):
        dataset = squares_dataset()

        def loglik(params):
            return sum(
                count * math.log(brute_joint(squares.circuit, params, dict(zip((1, 2, 3, 4), row))))
                for row, count in dataset.rows
            )

        base = loglik(squares_ml)
        rng = Random(2)
        from csdd.params import PsddParams

        for _ in range(20):
            table = {}
            for nid, pmf in squares_ml.table.items():
                bumped = [max(1e-6, p + rng.uniform(-1e-3, 1e-3)) if p > 0 else 0.0 for p in pmf]
                total = sum(bumped)
                table[nid] = tuple(b / total for b in bumped)
            assert loglik(PsddParams(table)) <= base + 1e-12


class TestBayesEstimate:
    def test_root_with_unit_mass(self, squares, squares_counts):
        params = bayes_estimate(squares.circuit, squares_counts, 1.0)
        expected = tuple((n + Fraction(1, 3)) / 101 for n in (31, 52, 17))
        for got, want in zip(params.table[squares.root], expected):
            assert got == pytest.approx(float(want), abs=1e-15)

    def test_prior_only_is_uniform(self, squares):
        empty = Dataset(("X1", "X2", "X3", "X4"), [])
        counts = collect_counts(squares.circuit, empty)
        params = bayes_estimate(squares.circuit, counts, 1.0)
        assert params.table[squares.top_white] == (0.5, 0.5)
        assert params.table[squares.root] == pytest.approx((1 / 3, 1 / 3, 1 / 3))

    def test_smoothing_vanishes_with_mass(self, squares, squares_counts, squares_ml):
        params = bayes_estimate(squares.circuit, squares_counts, 1e-9)
        for nid, pmf in squares_ml.table.items():
            assert params.table[nid] == pytest.approx(pmf, abs=1e-9)

    def test_rejects_nonpositive_mass(self, squares, squares_counts):
        with pytest.raises(LearnError):
            bayes_estimate(squares.circuit, squares_counts, 0.0)

    @pytest.mark.parametrize("ess", [math.nan, math.inf])
    def test_rejects_nonfinite_mass(self, squares, squares_counts, ess):
        with pytest.raises(LearnError, match="finite"):
            bayes_estimate(squares.circuit, squares_counts, ess)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_point_table_rejects_nonfinite_entry(self, squares, squares_ml, bad):
        # NaN passes both the sign and the sum check, so finiteness is its own check
        table = dict(squares_ml.table)
        table[squares.root] = (bad, 0.5, 0.5)
        with pytest.raises(ParamError, match="finite"):
            PsddParams(table).validate(squares.circuit)


class TestIdmEstimate:
    def test_squares_intervals_match_hand_computation(self, squares, squares_idm):
        cases = {
            squares.root: ([31, 52, 17], 101),
            squares.right_when_white: ([12, 19], 32),
            squares.left_mixed: ([39, 13], 53),
            squares.right_when_mixed: ([8, 44], 53),
            squares.top_white: ([5, 14], 20),
            squares.top_mixed: ([33, 11], 45),
        }
        for nid, (counts, denom) in cases.items():
            cs = squares_idm.table[nid]
            for state, n in enumerate(counts):
                assert cs.lower[state] == pytest.approx(n / denom, abs=1e-15)
                assert cs.upper[state] == pytest.approx((n + 1) / denom, abs=1e-15)

    @pytest.mark.parametrize("ess", [math.nan, math.inf])
    def test_rejects_nonfinite_mass(self, squares, squares_counts, ess):
        with pytest.raises(LearnError, match="finite"):
            idm_estimate(squares.circuit, squares_counts, ess)

    def test_vacuous_without_data(self, squares):
        empty = Dataset(("X1", "X2", "X3", "X4"), [])
        counts = collect_counts(squares.circuit, empty)
        params = idm_estimate(squares.circuit, counts, 1.0)
        assert params.table[squares.top_white].lower == (0.0, 0.0)
        assert params.table[squares.top_white].upper == (1.0, 1.0)

    def test_contains_ml_and_bayes_points(self, squares, squares_counts, squares_idm, squares_ml):
        bayes = bayes_estimate(squares.circuit, squares_counts, 1.0)
        for nid, cs in squares_idm.table.items():
            assert cs.contains(squares_ml.table[nid])
            assert cs.contains(bayes.table[nid])

    def test_nesting_in_prior_mass(self, squares, squares_counts):
        small = idm_estimate(squares.circuit, squares_counts, 1.0)
        large = idm_estimate(squares.circuit, squares_counts, 2.0)
        for nid in small.table:
            a, b = small.table[nid], large.table[nid]
            assert all(bl <= al + 1e-12 for al, bl in zip(a.lower, b.lower))
            assert all(bu >= au - 1e-12 for au, bu in zip(a.upper, b.upper))

    def test_forced_branch_is_sharp(self, squares, squares_idm):
        # a single feasible element tightens to probability one
        cs = squares_idm.table[squares.left_white]
        assert cs.lower == (1.0, 0.0) and cs.upper == (1.0, 0.0)


class TestRefusals:
    """A dataset row of the wrong width or count, and a dataset of the wrong
    width for its circuit, are refused by name."""

    @pytest.mark.parametrize("make, message", [
        (lambda circuit: Dataset(("A", "B"), [((True,), 1)]), "row width 1 != 2 variables"),
        (lambda circuit: Dataset(("A",), [((True,), 0)]), "row counts must be >= 1, got 0"),
        (lambda circuit: collect_counts(circuit, Dataset(("A",), [((True,), 1)])),
         "dataset has 1 variables, circuit 4"),
    ])
    def test_refused_by_name(self, squares, make, message):
        with pytest.raises(LearnError) as err:
            make(squares.circuit)
        assert str(err.value) == message


class TestParamsRefusals:
    @pytest.mark.parametrize("dropped", [(30,), (4, 30), (4, 5, 9, 14, 15, 19, 24, 29, 30)])
    def test_missing_nodes_are_named(self, squares, squares_counts, dropped):
        table = bayes_estimate(squares.circuit, squares_counts, 1.0).table
        params = PsddParams({nid: pmf for nid, pmf in table.items() if nid not in dropped})
        with pytest.raises(ParamError) as err:
            params.validate(squares.circuit)
        assert str(err.value) == f"missing parameters for nodes {list(dropped)}"
