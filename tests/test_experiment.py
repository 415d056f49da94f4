"""Seven-segment scenario: constraint, generation, classification, scores."""

import json
import math
from itertools import product
from pathlib import Path
from random import Random

import pytest

from csdd import experiment, infer
from csdd.circuit import enumerate_models, model_count
from csdd.experiment import (
    DIGIT_PATTERNS,
    SEGMENTS,
    Metrics,
    Scenario,
    SegmentPrediction,
    build_scenario_formula,
    classify_segments,
    decide_segments,
    evaluate_predictions,
    generate_data,
    hidden_var,
    observed_var,
    run_cell,
    scenario_circuit,
    scenario_vtree,
    u80_score,
    _decide_batch,
)
from csdd.infer import _Columns
from csdd.learn import bayes_estimate, collect_counts, idm_estimate
from csdd.params import CsddParams, PsddParams

from conftest import (
    check_map_batch,
    decide_segments_reference,
    random_circuit,
    random_csdd_params,
    random_psdd_params,
)


class TestScenarioFormula:
    def test_ten_distinct_digits(self):
        assert len(set(DIGIT_PATTERNS)) == 10
        for pattern in DIGIT_PATTERNS:
            assert len(pattern) == 7

    def test_hidden_projection_is_the_digit_set(self):
        formula = build_scenario_formula()
        projection = set()
        for values in product((False, True), repeat=14):
            if formula.evaluate({i + 1: v for i, v in enumerate(values)}):
                projection.add(values[:7])
        assert projection == set(DIGIT_PATTERNS)

    def test_fully_lit_digit_satisfies(self):
        formula = build_scenario_formula()
        pattern = DIGIT_PATTERNS[1]
        assignment = {hidden_var(i + 1): v for i, v in enumerate(pattern)}
        assignment.update({observed_var(i + 1): v for i, v in enumerate(pattern)})
        assert formula.evaluate(assignment)

    def test_shown_but_dark_segment_violates(self):
        formula = build_scenario_formula()
        pattern = DIGIT_PATTERNS[1]  # segment 1 is dark for this digit
        assignment = {hidden_var(i + 1): v for i, v in enumerate(pattern)}
        assignment.update({observed_var(i + 1): False for i in range(7)})
        assignment[observed_var(1)] = True
        assert not formula.evaluate(assignment)

    def test_circuit_matches_formula_model_count(self):
        formula = build_scenario_formula()
        count = sum(
            1
            for values in product((False, True), repeat=14)
            if formula.evaluate({i + 1: v for i, v in enumerate(values)})
        )
        assert model_count(scenario_circuit()) == count

    def test_vtree_pairs_segments(self):
        vt = scenario_vtree()
        for i in range(1, 8):
            assert vt.parent(vt.leaf_of(hidden_var(i))) == vt.parent(vt.leaf_of(observed_var(i)))


class TestGeneration:
    def test_noise_free_shows_everything(self):
        ds = generate_data(50, 0.0, Random(1))
        for row, _ in ds.rows:
            assert row[:7] == row[7:]

    def test_full_noise_shows_nothing(self):
        ds = generate_data(50, 1.0, Random(2))
        for row, _ in ds.rows:
            assert not any(row[7:])

    def test_rows_satisfy_the_constraint(self):
        formula = build_scenario_formula()
        ds = generate_data(200, 0.3, Random(3))
        for row, _ in ds.rows:
            assert formula.evaluate({i + 1: v for i, v in enumerate(row)})

    def test_flip_rate_within_three_sigma(self):
        p_f = 0.25
        n = 10_000
        ds = generate_data(n, p_f, Random(4))
        lit = flips = 0
        for row, count in ds.rows:
            for i in range(7):
                if row[i]:
                    lit += count
                    if not row[7 + i]:
                        flips += count
        rate = flips / lit
        sigma = math.sqrt(p_f * (1 - p_f) / lit)
        assert abs(rate - p_f) <= 3 * sigma


@pytest.fixture(scope="module")
def trained():
    circuit = scenario_circuit()
    train = generate_data(80, 0.1, Random(11))
    counts = collect_counts(circuit, train)
    return circuit, bayes_estimate(circuit, counts, 1.0), idm_estimate(circuit, counts, 1.0)


class TestClassification:

    def test_noise_free_posteriors_are_sharp(self):
        circuit = scenario_circuit()
        train = generate_data(60, 0.0, Random(21))
        counts = collect_counts(circuit, train)
        psdd = bayes_estimate(circuit, counts, 1.0)
        csdd = idm_estimate(circuit, counts, 1.0)
        pattern = DIGIT_PATTERNS[7]
        observation = {observed_var(i + 1): v for i, v in enumerate(pattern)}
        preds = classify_segments(circuit, psdd, csdd, observation, tol=1e-5)
        for pred, actual in zip(preds, pattern):
            # with no noise the observation pins each lit segment
            if actual:
                assert pred.probability > 0.99
                assert pred.credal == "on"

    def test_interval_brackets_point(self, trained):
        circuit, psdd, csdd = trained
        observation = {observed_var(i + 1): v for i, v in enumerate(DIGIT_PATTERNS[3])}
        for pred in classify_segments(circuit, psdd, csdd, observation, tol=1e-5):
            assert pred.lower - 1e-4 <= pred.probability <= pred.upper + 1e-4

    def test_vacuous_intervals_abstain(self, trained):
        circuit, psdd, _ = trained
        vacuous = CsddParams(
            {
                nid: _vacuify(cs)
                for nid, cs in trained[2].table.items()
            }
        )
        observation = {observed_var(i + 1): v for i, v in enumerate(DIGIT_PATTERNS[2])}
        preds = classify_segments(circuit, psdd, vacuous, observation, tol=1e-3)
        undetermined = [p for p in preds if p.credal == "indeterminate"]
        determined_by_logic = [p for p in preds if p.lower > 0.999 or p.upper < 0.001]
        # every segment is either logically pinned by the constraint or abstained
        assert len(undetermined) + len(determined_by_logic) == 7

    def test_degenerate_credal_equals_point(self, trained):
        circuit, psdd, _ = trained
        degenerate = CsddParams.degenerate(psdd)
        observation = {observed_var(i + 1): v for i, v in enumerate(DIGIT_PATTERNS[5])}
        for pred in classify_segments(circuit, psdd, degenerate, observation, tol=1e-5):
            assert pred.lower == pytest.approx(pred.probability, abs=1e-3)
            assert pred.upper == pytest.approx(pred.probability, abs=1e-3)
            assert pred.determinate

    def test_committed_answers_dominate_every_member(self, trained):
        # whenever the credal model answers "on", every compatible point
        # table's posterior clears one half as well (and dually for "off")
        from csdd.credal import enumerate_vertices
        from csdd.infer import marginal
        from csdd.params import PsddParams

        circuit, psdd, csdd = trained
        rng = Random(77)
        observation = {observed_var(i + 1): v for i, v in enumerate(DIGIT_PATTERNS[4])}
        preds = classify_segments(circuit, psdd, csdd, observation, tol=1e-4)
        assert any(p.determinate for p in preds)
        for _ in range(20):
            table = {}
            for nid, cs in csdd.table.items():
                vertices = enumerate_vertices(cs)
                weights = [rng.random() for _ in vertices]
                total = sum(weights)
                table[nid] = tuple(
                    sum(w * v.point[i] for w, v in zip(weights, vertices)) / total
                    for i in range(cs.k)
                )
            member = PsddParams(table)
            p_obs = marginal(circuit, member, observation)
            for pred in preds:
                posterior = (
                    marginal(circuit, member, {**observation, hidden_var(pred.segment): True})
                    / p_obs
                )
                if pred.credal == "on":
                    assert posterior > 0.5
                elif pred.credal == "off":
                    assert posterior < 0.5


ALL_OBSERVATIONS = [
    {observed_var(i + 1): v for i, v in enumerate(shown)}
    for shown in product((False, True), repeat=7)
]


class TestLabels:
    """The credal label is the sign test at one half, whatever ``tol``."""

    def test_decide_matches_classify(self, trained):
        circuit, psdd, csdd = trained
        for observation in ALL_OBSERVATIONS:
            decided = decide_segments(circuit, psdd, csdd, observation)
            classified = classify_segments(circuit, psdd, csdd, observation)
            assert [(d.segment, d.probability, d.point_on, d.credal) for d in decided] == [
                (c.segment, c.probability, c.point_on, c.credal) for c in classified
            ]

    def test_labels_agree_with_bounds_outside_the_tol_band(self, trained):
        circuit, psdd, csdd = trained
        tol = 1e-3
        for observation in ALL_OBSERVATIONS:
            for pred in classify_segments(circuit, psdd, csdd, observation, tol=tol):
                if pred.lower > 0.5 + tol:
                    assert pred.credal == "on"
                if pred.upper < 0.5 - tol:
                    assert pred.credal == "off"

    def test_labels_do_not_depend_on_tol(self, trained):
        circuit, psdd, csdd = trained
        for observation in ALL_OBSERVATIONS:
            labels = {
                tol: [p.credal for p in classify_segments(circuit, psdd, csdd, observation, tol)]
                for tol in (1e-2, 1e-4, 1e-6)
            }
            assert labels[1e-2] == labels[1e-4] == labels[1e-6]


def _outcome(decide, *args):
    """The answer's repr, or the refusal's type and words."""
    try:
        return repr(decide(*args))
    except ValueError as exc:
        return type(exc).__name__, str(exc)


def _one_by_one(circuit, psdd, csdd, observations):
    return [decide_segments_reference(circuit, psdd, csdd, o) for o in observations]


def _cell_tables(p_f, seed):
    """A display cell's tables and its distinct observations, in order of
    first appearance, as ``run_cell`` draws them."""
    scenario = Scenario(train_size=20, p_f=p_f, seed=seed)
    circuit = scenario_circuit()
    rng = Random(f"sevenseg:{scenario.train_size}:{scenario.p_f}:{scenario.seed}")
    counts = collect_counts(circuit, generate_data(scenario.train_size, p_f, rng))
    shown = [tuple(on and rng.random() >= p_f for on in DIGIT_PATTERNS[rng.randrange(10)])
             for _ in range(scenario.test_size)]
    observations = [{observed_var(i + 1): s[i] for i in range(SEGMENTS)} for s in dict.fromkeys(shown)]
    return circuit, bayes_estimate(circuit, counts, 1.0), idm_estimate(circuit, counts, 1.0), observations


class TestBatchedDecisions:
    """``_decide_batch`` gives, by ``repr``, what the per-observation
    ``decide_segments_reference`` gives each observation, and refuses a
    batch as the first failing observation is refused alone."""

    @pytest.mark.parametrize("p_f", [0.05, 0.2, 0.3, 0.4])
    def test_display_cells(self, p_f):
        for seed in (0, 1, 2):
            circuit, psdd, csdd, observations = _cell_tables(p_f, seed)
            assert repr(_decide_batch(_Columns(circuit, observations), psdd, csdd)) == repr(
                _one_by_one(circuit, psdd, csdd, observations))

    def test_every_observation(self, trained):
        circuit, psdd, csdd = trained
        assert repr(_decide_batch(_Columns(circuit, ALL_OBSERVATIONS), psdd, csdd)) == repr(
            _one_by_one(circuit, psdd, csdd, ALL_OBSERVATIONS))

    def test_repeated_observations_and_a_batch_of_one(self, trained):
        circuit, psdd, csdd = trained
        rng = Random(5)
        batch = [rng.choice(ALL_OBSERVATIONS[:6]) for _ in range(20)]
        assert repr(_decide_batch(_Columns(circuit, batch), psdd, csdd)) == repr(
            _one_by_one(circuit, psdd, csdd, batch))
        for observation in ALL_OBSERVATIONS[::9]:
            want = repr(decide_segments_reference(circuit, psdd, csdd, observation))
            assert repr(_decide_batch(_Columns(circuit, [observation]), psdd, csdd)[0]) == want
            assert repr(decide_segments(circuit, psdd, csdd, observation)) == want
        assert _decide_batch(_Columns(circuit, []), psdd, csdd) == []

    def test_random_circuits_with_wide_nodes(self):
        rng = Random(2025)
        wide = 0
        while wide < 10:
            # hidden variables 1..7 are the targets; the rest are observed
            n = rng.randint(8, 10)
            circuit = random_circuit(rng, n, singly=bool(rng.getrandbits(1)))
            csdd = random_csdd_params(rng, circuit, 0.3)
            if all(cs.k <= 2 for cs in csdd.table.values()):
                continue  # no decision node of 3-6 elements
            wide += 1
            psdd = random_psdd_params(rng, circuit)
            models = sorted(enumerate_models(circuit, circuit.root))
            pool = []
            for _ in range(6):
                model = rng.choice(models)
                pool.append({v: model[v - 1] for v in range(SEGMENTS + 1, n + 1) if rng.random() < 0.7})
            batch = [rng.choice(pool) for _ in range(10)]
            assert repr(_decide_batch(_Columns(circuit, batch), psdd, csdd)) == repr(
                _one_by_one(circuit, psdd, csdd, batch))

    def test_refusals(self, trained):
        circuit, psdd, csdd = trained
        good = ALL_OBSERVATIONS[37]
        # segment 1 never shows under this table, so an observation showing it has probability 0
        dark = PsddParams({nid: (0.0, 1.0) if circuit.nodes[nid].var == observed_var(1) else pmf
                           for nid, pmf in psdd.table.items()})
        unseen = {observed_var(i + 1): i < 1 for i in range(SEGMENTS)}
        bad = [
            {**good, hidden_var(3): True},                          # an observed target
            {**good, observed_var(1): True, hidden_var(1): False},  # inconsistent evidence
            {**good, observed_var(2): None},
            {**good, 99: True},
        ]
        cases = [(psdd, [b]) for b in bad] + [
            (psdd, [good, bad[0], bad[1]]),
            (psdd, [good, bad[1], bad[0]]),
            (psdd, [good, bad[3], bad[2]]),
            (dark, [unseen]),
            (dark, [{observed_var(i + 1): False for i in range(SEGMENTS)}, unseen, bad[0]]),
        ]
        kinds = set()
        for table, batch in cases:
            want = _outcome(_one_by_one, circuit, table, csdd, batch)
            assert isinstance(want, tuple), batch
            assert _outcome(_decide_batch, _Columns(circuit, batch), table, csdd) == want, batch
            kinds.add(want)
        assert ("ValueError", "observation has zero probability under the point table") in kinds
        assert ("InferenceError", f"queried variable {hidden_var(3)} appears in the evidence") in kinds
        assert ("InferenceError", "evidence variable 99 is not in the circuit") in kinds


class TestBatchedMapRobustness:
    """A cell's MAP completions and their robustness come from one column
    batch: every distinct observation of the display cells gets, by ``repr``,
    the references' and the scalar calls' answers, and ``run_cell`` makes no
    per-observation MAP, credal MAP or truth pass."""

    @pytest.mark.parametrize("p_f", [0.05, 0.2, 0.3, 0.4])
    def test_display_cells(self, p_f):
        for seed in range(6):
            circuit, psdd, csdd, observations = _cell_tables(p_f, seed)
            check_map_batch(circuit, psdd, csdd, observations)

    def test_run_cell_runs_no_scalar_map_pass(self, monkeypatch):
        scenario = Scenario(train_size=20, p_f=0.4, seed=3)
        want = repr(run_cell(scenario))

        def refused(name):
            def call(*args, **kwargs):
                raise AssertionError(f"run_cell called {name}")
            return call

        for module, name in ((infer, "map_query"), (infer, "robustness"), (infer, "credal_map_upper"),
                             (infer, "_route"), (experiment, "map_query"), (experiment, "robustness")):
            monkeypatch.setattr(module, name, refused(name))
        assert repr(run_cell(scenario)) == want


def _vacuify(cs):
    from csdd.credal import normalize_reachable

    eps = 1e-3
    free = sum(1 for u in cs.upper if u > 0)
    lower = tuple(0.0 if u == 0.0 else eps for u in cs.upper)
    upper = tuple(0.0 if u == 0.0 else 1.0 - eps * (free - 1) for u in cs.upper)
    return normalize_reachable(lower, upper)


class TestMetrics:
    def _pred(self, seg, credal, point_on):
        lo, hi = (0.9, 1.0) if credal == "on" else (0.0, 0.1) if credal == "off" else (0.2, 0.8)
        return SegmentPrediction(seg, 0.9 if point_on else 0.1, lo, hi, point_on, credal)

    def test_all_determinate_correct(self):
        preds = [self._pred(i, "on", True) for i in range(1, 8)]
        metrics = evaluate_predictions([(preds, tuple([True] * 7))])
        assert metrics.accuracy == 1.0
        assert metrics.u80 == 1.0
        assert metrics.determinacy == 1.0

    def test_all_indeterminate(self):
        preds = [self._pred(i, "indeterminate", True) for i in range(1, 8)]
        metrics = evaluate_predictions([(preds, tuple([True] * 7))])
        assert metrics.determinacy == 0.0
        assert metrics.u80 == pytest.approx(0.8)
        assert math.isnan(metrics.det_accuracy)

    def test_mixed_hand_case(self):
        preds = [
            self._pred(1, "on", True),              # determinate correct
            self._pred(2, "on", True),              # determinate correct
            self._pred(3, "on", True),              # determinate wrong
            self._pred(4, "indeterminate", True),   # abstention
        ]
        truth = (True, True, False, True)
        metrics = evaluate_predictions([(preds, truth)])
        assert metrics.u80 == pytest.approx((1 + 1 + 0 + 0.8) / 4)

    def test_u80_rule(self):
        assert u80_score(1, True) == pytest.approx(1.0)
        assert u80_score(2, True) == pytest.approx(0.8)
        assert u80_score(1, False) == 0.0

    def test_split_decomposition(self):
        rng = Random(9)
        preds = []
        truth = []
        for i in range(1, 8):
            credal = rng.choice(["on", "off", "indeterminate"])
            preds.append(self._pred(i, credal, bool(rng.getrandbits(1))))
            truth.append(bool(rng.getrandbits(1)))
        m = evaluate_predictions([(preds, tuple(truth))])
        det_acc = 0.0 if math.isnan(m.det_accuracy) else m.det_accuracy
        indet_acc = 0.0 if math.isnan(m.indet_accuracy) else m.indet_accuracy
        combined = m.determinacy * det_acc + (1 - m.determinacy) * indet_acc
        assert combined == pytest.approx(m.accuracy, abs=1e-12)


class TestRunCell:
    def test_metrics_in_range_and_deterministic(self):
        scenario = Scenario(train_size=15, p_f=0.2, seed=5, test_size=40)
        a = run_cell(scenario)
        b = run_cell(scenario)
        assert a.as_row() == b.as_row()
        for name in Metrics.FIELDS:
            value = getattr(a, name)
            assert math.isnan(value) or 0.0 <= value <= 1.0

    def test_noise_free_cell_is_perfect(self):
        metrics = run_cell(Scenario(train_size=40, p_f=0.0, seed=3, test_size=30))
        assert metrics.accuracy == 1.0
        assert metrics.determinacy == 1.0
        assert metrics.u80 == 1.0

    def test_determinacy_shrinks_with_wider_intervals(self):
        tight = run_cell(Scenario(train_size=25, p_f=0.2, seed=8, test_size=40, ess=1.0))
        wide = run_cell(Scenario(train_size=25, p_f=0.2, seed=8, test_size=40, ess=4.0))
        assert wide.determinacy <= tight.determinacy + 1e-12


# the display benchmark's recorded metric rows, one per pool cell (d 20)
DISPLAY_REFERENCE = Path(__file__).resolve().parents[1] / "perfbench/reference/display_grid.json"


class TestDisplayReference:
    """Pool cells of the display benchmark give its recorded rows exactly,
    credal fields included."""

    @pytest.mark.parametrize("p_f", [0.05, 0.2, 0.3, 0.4])
    def test_pool_rows(self, p_f):
        reference = json.loads(DISPLAY_REFERENCE.read_text(encoding="utf-8"))
        assert reference["fields"] == list(Metrics.FIELDS)
        for seed in (0, 1):
            got = run_cell(Scenario(train_size=20, p_f=p_f, seed=seed)).as_row()
            want = [math.nan if v is None else v for v in reference["rows"][f"{p_f}:{seed}"]]
            for field, a, b in zip(Metrics.FIELDS, got, want):
                assert a == b or math.isnan(a) and math.isnan(b), (p_f, seed, field)

    # The two pool cells whose credal fields already differ from the recorded
    # rows: a change to the sign test flips them first, so their current rows
    # are pinned here.
    BORDERLINE = {
        33: [0.8653061224489796, 0.8306122448979592, 0.9127764127764127, 0.6325301204819277,
             0.8936734693877527, 0.5928571428571429, 0.5, 0.6714285714285714,
             0.5142857142857142],
        36: [0.8663265306122448, 0.7938775510204081, 0.9357326478149101, 0.599009900990099,
             0.9077551020408132, 0.5, 0.40714285714285714, 0.5964912280701754,
             0.43373493975903615],
    }

    @pytest.mark.parametrize("seed", sorted(BORDERLINE))
    def test_borderline_pool_rows(self, seed):
        got = run_cell(Scenario(train_size=20, p_f=0.4, seed=seed)).as_row()
        for field, a, b in zip(Metrics.FIELDS, got, self.BORDERLINE[seed], strict=True):
            assert a == b or math.isnan(a) and math.isnan(b), (seed, field)


class TestScenarioChecks:
    @pytest.mark.parametrize("test_size", [0, -2])
    def test_test_size_below_one_refused(self, test_size):
        with pytest.raises(ValueError, match="at least one test row"):
            Scenario(train_size=20, p_f=0.2, seed=0, test_size=test_size)
