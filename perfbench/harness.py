"""Round loop and statistics shared by all workloads.

A workload module provides ``NAME``, ``NAMED`` (the workload's own names
for the generic end-to-end metrics), ``setup(seed, workdir)``,
``run_round(state, k, tracer)`` returning a ``Round``, and
``trace_rounds(seconds)``.  Rounds are a fixed amount of work derived
from the seed and the round number, so two runs with one seed do the
same work round by round.  A round records the ``perf_counter`` interval
of each operation and stage; the harness turns intervals into seconds
once the run is over, with the speed samples taken during it.
"""

from __future__ import annotations

import resource
import statistics
from collections import Counter
from time import perf_counter

from speed import SpeedSampler
from tracing import SPAN_NAMES, NullTracer, Tracer

SETUP_SAMPLES = 5
# root spans the workloads open around each operation
OP_SPANS = (
    "experiment.run_cell",
    "cli.query.marginal", "cli.query.conditional", "cli.query.map", "cli.robust",
    "build.input",
)
CLI_P50 = {
    "cli.query.marginal_s_p50": "query.marginal",
    "cli.query.conditional_s_p50": "query.conditional",
    "cli.query.map_s_p50": "query.map",
    "cli.robust_s_p50": "robust",
}
STAGES = ("compile_s", "learn_s", "io_s")
# counts the tracer hooks and the workloads' checks accumulate
EXACT_COUNTS = (
    "infer.lower_conditional.iterations", "infer.upper_conditional.iterations",
    "experiment.test_rows", "experiment.credal_diff_cells",
    "infer.certificates", "infer.possibly_outer",
    "formats.read.bytes", "formats.write.bytes",
    "circuit.nodes_allocated", "circuit.nodes_kept", "learn.collect_counts.rows",
)


class Round:
    """Operation intervals, failures and harness-side counts of one round."""

    def __init__(self) -> None:
        self.ops: list[tuple[str, list[tuple[float, float]]]] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.counts: Counter = Counter()
        self.stages: list[tuple[str, float, float]] = []

    def op(self, kind: str, intervals: list[tuple[float, float]], attempts: int = 1) -> None:
        """One operation, timed over ``intervals`` (the checks between them are not)."""
        self.attempted += attempts
        self.ops.append((kind, intervals))

    def raised(self, message: str) -> None:
        self.attempted += 1
        self.failures.append(message)

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def count(self, name: str, n: int) -> None:
        self.counts[name] += n

    def stage(self, name: str, start: float, end: float) -> None:
        self.stages.append((name, start, end))

    @property
    def seconds(self) -> float:
        """Wall seconds of the round's operations, as traced runs (which sample no speed) time them."""
        return sum(end - start for _, intervals in self.ops for start, end in intervals)


def quantile(values: list[float], q: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def run_untraced(workload, seed: int, workdir, seconds: int) -> tuple[list[Round], list[tuple], SpeedSampler]:
    """Closed loop, one client: rounds back to back until ``seconds`` pass.

    Set-up is timed ``SETUP_SAMPLES`` times, spread over the run: a shared
    machine's speed can drift over tens of seconds, and samples taken back
    to back would all land in one phase.  The first set-up's state is used.
    Speed is sampled throughout, set-ups included.
    """
    setups: list[tuple[float, float]] = []
    sampler = SpeedSampler()

    def timed_setup():
        start = perf_counter()
        state = workload.setup(seed, workdir)
        setups.append((start, perf_counter()))
        return state

    with sampler.running():
        state = timed_setup()
        rounds = []
        start = perf_counter()
        while not rounds or perf_counter() - start < seconds:
            rounds.append(workload.run_round(state, len(rounds), NullTracer()))
            if len(setups) < SETUP_SAMPLES and perf_counter() - start >= seconds * len(setups) / SETUP_SAMPLES:
                timed_setup()
        while len(setups) < SETUP_SAMPLES:
            timed_setup()
    return rounds, setups, sampler


def run_traced(workload, seed: int, workdir, seconds: int) -> tuple[list[Round], list[Round], Tracer]:
    """Each of a fixed number of rounds untraced, then again traced.

    The work is fixed so that every count repeats exactly between two runs
    with one seed; running each round both ways on the same inputs gives
    the tracing overhead.
    """
    state = workload.setup(seed, workdir)
    tracer = Tracer()
    plain, traced = [], []
    for k in range(workload.trace_rounds(seconds)):
        plain.append(workload.run_round(state, k, NullTracer()))
        with tracer.installed():
            traced.append(workload.run_round(state, k, tracer))
    return plain, traced, tracer


def end_to_end(rounds: list[Round], setups: list[tuple], seconds) -> dict[str, float]:
    """End-to-end metrics, each interval measured by ``seconds(start, end)``."""
    latencies = [sum(seconds(*iv) for iv in intervals) for r in rounds for _, intervals in r.ops]
    if not latencies:
        raise RuntimeError("no operation completed")
    out = {
        "setup_s": statistics.median(seconds(start, end) for start, end in setups),
        "peak_rss_mb": peak_rss_mb(),
        "ops_per_s": len(latencies) / sum(latencies),
        "op_s_p50": quantile(latencies, 0.5),
        "op_s_p90": quantile(latencies, 0.9),
    }
    for stage in STAGES:
        totals = [sum(seconds(start, end) for name, start, end in r.stages if name == stage)
                  for r in rounds if any(name == stage for name, _, _ in r.stages)]
        if totals:
            out[stage] = statistics.mean(totals)
    return out


def per_layer(plain: list[Round], traced: list[Round], tracer: Tracer) -> dict[str, float]:
    calls, busy = tracer.calls(), tracer.busy()
    counts = tracer.counts + sum((r.counts for r in traced), Counter())
    plain_s = sum(r.seconds for r in plain)
    traced_s = sum(r.seconds for r in traced)
    out: dict[str, float] = {}
    for name in SPAN_NAMES + sorted(OP_SPANS):
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.busy_s"] = busy[name]
        out[f"{name}.busy_share"] = _ratio(busy[name], traced_s)
    for key in EXACT_COUNTS:
        out[key] = counts[key]
    for name in ("infer.lower_conditional", "infer.upper_conditional"):
        out[f"{name}.iterations_per_call"] = _ratio(counts[f"{name}.iterations"], calls[name])
    test_rows = counts["experiment.test_rows"]
    out["experiment.repeat_obs_share"] = 1.0 - _ratio(calls["experiment.classify_segments"], test_rows) if test_rows else 0.0
    out["infer.possibly_outer_share"] = _ratio(counts["infer.possibly_outer"], counts["infer.certificates"])
    out["circuit.kept_share"] = _ratio(counts["circuit.nodes_kept"], counts["circuit.nodes_allocated"])
    out["learn.collect_counts.rows_per_s"] = _ratio(counts["learn.collect_counts.rows"], busy["learn.collect_counts"])
    by_kind: dict[str, list[float]] = {}
    for r in traced:
        for kind, intervals in r.ops:
            by_kind.setdefault(kind, []).append(sum(end - start for start, end in intervals))
    for metric, kind in CLI_P50.items():
        out[metric] = statistics.median(by_kind[kind]) if kind in by_kind else 0.0
    out["trace.untraced_s"] = plain_s
    out["trace.traced_s"] = traced_s
    out["trace.overhead_s"] = traced_s - plain_s
    out["trace.overhead_share"] = _ratio(traced_s - plain_s, plain_s)
    out["trace.spans"] = len(tracer.spans)
    return out


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0
