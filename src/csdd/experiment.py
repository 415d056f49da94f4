"""Noisy seven-segment display scenario.

Seven hidden segment states (x1..x7, vtree variables 1..7) drive seven
observed ones (o1..o7, variables 8..14).  A digit fixes the hidden
pattern; every lit segment independently fails to show with probability
``p_f``, and a dark segment never shows.  The constraint circuit encodes

    (o_i -> x_i for every segment)  and  (x is one of the ten digits)

over a vtree pairing each (x_i, o_i) under one parent, with the pairs
arranged in a balanced tree.

A run draws a training set, learns a point table (Bayesian smoothing) and
a credal table (interval estimates) with the same equivalent sample size,
then classifies each segment of fresh observations: the point model
thresholds P(x_i = on | o) at one half, the credal model answers on / off
only when the whole posterior interval clears one half (a sign test at
one half decides it) and abstains otherwise.  Joint variants do the same
at the level of the full hidden vector, using the most probable
completion and its robustness check.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cache, reduce
from random import Random
from typing import Sequence
from .circuit import Circuit, Vtree, compile_formula
from .formula import Formula, Var, conj, disj
from .infer import (
    MAX,
    MIN,
    NOT_ROBUST,
    EvidenceSession,
    _check_evidence,
    _check_target,
    _Columns,
    _map_robustness,
    lower_conditional,
    map_query,  # noqa: F401  (a binding perfbench's tracing wraps)
    marginal,  # noqa: F401  (a binding perfbench's tracing wraps)
    robustness,  # noqa: F401  (a binding perfbench's tracing wraps)
    upper_conditional,
)
from .learn import Dataset, bayes_estimate, collect_counts, idm_estimate
from .params import CsddParams, PsddParams

__all__ = [
    "DIGIT_PATTERNS",
    "SEGMENTS",
    "Scenario",
    "SegmentDecision",
    "SegmentPrediction",
    "Metrics",
    "build_scenario_formula",
    "scenario_vtree",
    "scenario_circuit",
    "generate_data",
    "decide_segments",
    "classify_segments",
    "evaluate_predictions",
    "run_cell",
]

SEGMENTS = 7

# segment patterns of the digits 0..9 (top, top-right, bottom-right,
# bottom, bottom-left, top-left, middle)
DIGIT_PATTERNS: tuple[tuple[bool, ...], ...] = tuple(
    tuple(bool(b) for b in bits)
    for bits in [
        (1, 1, 1, 1, 1, 1, 0),
        (0, 1, 1, 0, 0, 0, 0),
        (1, 1, 0, 1, 1, 0, 1),
        (1, 1, 1, 1, 0, 0, 1),
        (0, 1, 1, 0, 0, 1, 1),
        (1, 0, 1, 1, 0, 1, 1),
        (1, 0, 1, 1, 1, 1, 1),
        (1, 1, 1, 0, 0, 0, 0),
        (1, 1, 1, 1, 1, 1, 1),
        (1, 1, 1, 1, 0, 1, 1),
    ]
)

VARIABLE_NAMES = tuple(f"X{i}" for i in range(1, 8)) + tuple(f"O{i}" for i in range(1, 8))


def hidden_var(i: int) -> int:
    """Vtree variable of hidden segment i (1-based)."""
    return i


def observed_var(i: int) -> int:
    """Vtree variable of observed segment i (1-based)."""
    return SEGMENTS + i


def build_scenario_formula() -> Formula:
    """Display constraint: observations imply their segments, and the
    hidden vector is one of the ten digit patterns."""
    masking = conj(
        ~Var(observed_var(i)) | Var(hidden_var(i)) for i in range(1, SEGMENTS + 1)
    )
    digits = disj(
        conj(
            Var(hidden_var(i)) if on else ~Var(hidden_var(i))
            for i, on in enumerate(pattern, start=1)
        )
        for pattern in DIGIT_PATTERNS
    )
    return masking & digits


def scenario_vtree() -> Vtree:
    """Balanced tree over the seven (hidden, observed) leaf pairs."""

    def balance(lo: int, hi: int):
        if lo == hi:
            return (hidden_var(lo), observed_var(lo))
        mid = (lo + hi) // 2
        return (balance(lo, mid), balance(mid + 1, hi))

    return Vtree(balance(1, SEGMENTS))


@cache
def scenario_circuit() -> Circuit:
    """Compiled display constraint (cached; the circuit is immutable)."""
    return compile_formula(build_scenario_formula(), scenario_vtree())


def generate_data(n: int, p_f: float, rng: Random) -> Dataset:
    """Draw ``n`` display rows: uniform digit, independent show failures."""
    if n < 1:
        raise ValueError("need at least one row")
    if not 0.0 <= p_f <= 1.0:
        raise ValueError(f"failure probability {p_f} outside [0, 1]")
    tally: dict[tuple[bool, ...], int] = {}
    for _ in range(n):
        pattern = DIGIT_PATTERNS[rng.randrange(10)]
        observed = tuple(on and rng.random() >= p_f for on in pattern)
        row = pattern + observed
        tally[row] = tally.get(row, 0) + 1
    return Dataset(VARIABLE_NAMES, [(row, count) for row, count in tally.items()])


@dataclass(frozen=True)
class SegmentDecision:
    segment: int
    probability: float        # point-model posterior of "on"
    point_on: bool
    credal: str               # "on" | "off" | "indeterminate"

    @property
    def determinate(self) -> bool:
        return self.credal != "indeterminate"


@dataclass(frozen=True)
class SegmentPrediction:
    """A :class:`SegmentDecision` with the credal posterior's bounds."""

    segment: int
    probability: float
    lower: float
    upper: float
    point_on: bool
    credal: str

    determinate = SegmentDecision.determinate


def decide_segments(
    circuit: Circuit,
    psdd: PsddParams,
    csdd: CsddParams,
    observation: dict[int, bool],
) -> list[SegmentDecision]:
    """Per-segment point posterior and credal label for one observation.

    The label is the conditional algorithm's sign test at one half: "on"
    when lower P(x_i = on | o) > 1/2, "off" when lower P(x_i = off | o)
    > 1/2, "indeterminate" otherwise.  The answers come from
    :func:`_decide_batch` on this one observation.
    """
    return _decide_batch(_Columns(circuit, [observation]), psdd, csdd)[0]


def _decide_batch(batch: _Columns, psdd: PsddParams, csdd: CsddParams) -> list[list[SegmentDecision]]:
    """:func:`decide_segments` of each observation of ``batch`` by column passes:
    P(x_i = on, o) reruns x_i's spine over the point pass.  Raises as the
    first failing observation alone does."""
    circuit, observations = batch.circuit, batch.evidences
    point = batch.point(psdd)
    low, up = batch.sweep(csdd, MIN), batch.sweep(csdd, MAX)
    p_obs = point[circuit.root]
    for observation, p in zip(observations, p_obs):
        if p <= 0.0:
            raise ValueError("observation has zero probability under the point table")
        # P(o) > 0 proves a model extends o: a session's consistency check passes
        _check_evidence(circuit, observation)
        for i in range(1, SEGMENTS + 1):
            _check_target(circuit, hidden_var(i), True, observation)
    out: list[list[SegmentDecision]] = [[] for _ in observations]
    for i in range(1, SEGMENTS + 1):
        var = hidden_var(i)
        p_on = [v / p for v, p in zip(batch.spine(psdd, point, var, True), p_obs)]
        on = [sign > 0 for sign in batch.sign(csdd, var, True, 0.5, low, up)]
        rest = [j for j, yes in enumerate(on) if not yes]
        off = dict(zip(rest, batch.sign(csdd, var, False, 0.5, low, up, rest)))
        for j, decisions in enumerate(out):
            credal = "on" if on[j] else "off" if off[j] > 0 else "indeterminate"
            decisions.append(SegmentDecision(i, p_on[j], p_on[j] > 0.5, credal))
    return out


def classify_segments(
    circuit: Circuit,
    psdd: PsddParams,
    csdd: CsddParams,
    observation: dict[int, bool],
    tol: float = 1e-4,
) -> list[SegmentPrediction]:
    """:func:`decide_segments` plus each segment's credal bounds, found to
    ``tol``; the labels do not depend on ``tol``."""
    session = EvidenceSession(circuit, csdd, observation)
    out = []
    for d in decide_segments(circuit, psdd, csdd, observation):
        var = hidden_var(d.segment)
        lo = lower_conditional(circuit, csdd, var, True, observation, tol=tol,
                               want_certificate=False, session=session).value
        hi = upper_conditional(circuit, csdd, var, True, observation, tol=tol,
                               want_certificate=False, session=session).value
        out.append(SegmentPrediction(d.segment, d.probability, lo, hi, d.point_on, d.credal))
    return out


@dataclass
class Metrics:
    """Segment-level and joint (full hidden vector) scores, all in [0, 1].

    ``det_accuracy``/``indet_accuracy`` are the point model's accuracy on
    the instances the credal model answered / left open; they are NaN when
    the corresponding split is empty.
    """

    accuracy: float
    determinacy: float
    det_accuracy: float
    indet_accuracy: float
    u80: float
    joint_accuracy: float
    joint_determinacy: float
    joint_det_accuracy: float
    joint_indet_accuracy: float

    FIELDS = (
        "accuracy", "determinacy", "det_accuracy", "indet_accuracy", "u80",
        "joint_accuracy", "joint_determinacy", "joint_det_accuracy",
        "joint_indet_accuracy",
    )

    def as_row(self) -> list[float]:
        return [getattr(self, name) for name in self.FIELDS]


def u80_score(set_size: int, contains_truth: bool) -> float:
    """Utility-discounted accuracy of a set-valued prediction.

    ``2.2 / |Y| - 1.2 / |Y|^2`` when the truth is in the set Y, else 0;
    a binary abstention containing the truth scores 0.8.
    """
    if not contains_truth:
        return 0.0
    return (11 * set_size - 6) / (5 * set_size * set_size)


def _mean(values: list[float]) -> float:
    # left to right: sum() of floats is compensated from Python 3.12 on,
    # which would make the rows depend on the Python version
    return reduce(operator.add, values, 0.0) / len(values) if values else math.nan


def evaluate_predictions(
    per_instance: list[tuple[Sequence[SegmentDecision | SegmentPrediction], tuple[bool, ...]]],
    joint: list[tuple[dict[int, bool], bool, bool]] | None = None,
) -> Metrics:
    """Aggregate scores; ``joint`` rows are (completion, robust?, correct?)."""
    point_hits: list[float] = []
    det_hits: list[float] = []
    indet_hits: list[float] = []
    u80: list[float] = []
    for predictions, truth in per_instance:
        if len(truth) != len(predictions):
            raise ValueError("prediction/truth length mismatch")
        for pred, actual in zip(predictions, truth):
            hit = 1.0 if pred.point_on == actual else 0.0
            point_hits.append(hit)
            if pred.determinate:
                det_hits.append(hit)
                credal_hit = (pred.credal == "on") == actual
                u80.append(u80_score(1, credal_hit))
            else:
                indet_hits.append(hit)
                u80.append(u80_score(2, True))
    joint = joint or []
    joint_hits = [1.0 if ok else 0.0 for _, _, ok in joint]
    joint_det = [hit for (_, det, _), hit in zip(joint, joint_hits) if det]
    joint_indet = [hit for (_, det, _), hit in zip(joint, joint_hits) if not det]
    return Metrics(
        accuracy=_mean(point_hits),
        determinacy=len(det_hits) / len(point_hits) if point_hits else math.nan,
        det_accuracy=_mean(det_hits),
        indet_accuracy=_mean(indet_hits),
        u80=_mean(u80),
        joint_accuracy=_mean(joint_hits),
        joint_determinacy=len(joint_det) / len(joint_hits) if joint_hits else math.nan,
        joint_det_accuracy=_mean(joint_det),
        joint_indet_accuracy=_mean(joint_indet),
    )


@dataclass(frozen=True)
class Scenario:
    """One experiment cell: training size, failure probability, seed."""

    train_size: int
    p_f: float
    seed: int
    test_size: int = 140
    ess: float = 1.0

    def __post_init__(self) -> None:
        if self.test_size < 1:
            raise ValueError(f"need at least one test row, got test size {self.test_size}")


def run_cell(scenario: Scenario) -> Metrics:
    """Train point and credal tables on one draw and score a fresh test set."""
    circuit = scenario_circuit()
    rng = Random(f"sevenseg:{scenario.train_size}:{scenario.p_f}:{scenario.seed}")
    train = generate_data(scenario.train_size, scenario.p_f, rng)
    counts = collect_counts(circuit, train)
    psdd = bayes_estimate(circuit, counts, scenario.ess)
    csdd = idm_estimate(circuit, counts, scenario.ess)

    tests = []
    for _ in range(scenario.test_size):
        pattern = DIGIT_PATTERNS[rng.randrange(10)]
        tests.append((pattern, tuple(on and rng.random() >= scenario.p_f for on in pattern)))
    distinct = list(dict.fromkeys(shown for _, shown in tests))
    observations = [{observed_var(i + 1): shown[i] for i in range(SEGMENTS)} for shown in distinct]
    # one batch of the distinct observations for the decisions, the MAP
    # completions and their robustness
    batch = _Columns(circuit, observations)
    decided = _decide_batch(batch, psdd, csdd)
    mapped = _map_robustness(batch, psdd, csdd)
    # answers per distinct observation: (segment decisions, completion, determinacy)
    answers: dict[tuple[bool, ...], tuple[list[SegmentDecision], dict[int, bool], bool]] = {}
    for shown, preds, (_, completion, verdict) in zip(distinct, decided, mapped):
        xstar = {hidden_var(i + 1): completion[hidden_var(i + 1)] for i in range(SEGMENTS)}
        answers[shown] = (preds, xstar, verdict.label != NOT_ROBUST)
    per_instance, joint = [], []
    for pattern, shown in tests:
        preds, xstar, det = answers[shown]
        per_instance.append((preds, pattern))
        joint.append((xstar, det, all(xstar[hidden_var(i + 1)] == pattern[i] for i in range(SEGMENTS))))
    return evaluate_predictions(per_instance, joint)
