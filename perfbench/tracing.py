"""In-memory spans and counts around csdd's layer boundaries.

A traced pass replaces each public function at the place its caller looks
it up (``csdd.experiment.lower_conditional``, ``csdd.formats.read_csdd``,
...) with a wrapper that records a span (name, start, end, parent span,
operation) and feeds the call's arguments and result to an optional
counting hook.  Because the wrapper sits at the caller's binding, calls
made inside the callee (``upper_conditional`` calling ``lower_conditional``
within ``csdd.infer``) are not counted twice.  Everything is restored when
the pass ends; untraced passes run the package unmodified.
"""

from __future__ import annotations

import importlib
import os
from collections import Counter
from contextlib import contextmanager, nullcontext
from time import perf_counter


def _iterations(args, result):
    return {"iterations": result.iterations}


def _rows(args, result):
    return {"rows": len(args[1].rows)}


def _bytes_read(args, result):
    return {"bytes": os.path.getsize(args[0])}


def _bytes_written(args, result):
    return {"bytes": os.path.getsize(args[-1])}


# (module, attribute, span name, counting hook)
WRAPS = [
    ("csdd.experiment", "classify_segments", "experiment.classify_segments", None),
    ("csdd.experiment", "lower_conditional", "infer.lower_conditional", _iterations),
    ("csdd.experiment", "upper_conditional", "infer.upper_conditional", _iterations),
    ("csdd.experiment", "marginal", "infer.marginal", None),
    ("csdd.experiment", "map_query", "infer.map_query", None),
    ("csdd.experiment", "robustness", "infer.robustness", None),
    ("csdd.experiment", "collect_counts", "learn.collect_counts", _rows),
    ("csdd.experiment", "bayes_estimate", "learn.estimate", None),
    ("csdd.experiment", "idm_estimate", "learn.estimate", None),
    ("csdd.cli", "is_consistent", "circuit.is_consistent", None),
    ("csdd.cli", "marginal", "infer.marginal", None),
    ("csdd.cli", "lower_marginal", "infer.lower_marginal", None),
    ("csdd.cli", "upper_marginal", "infer.upper_marginal", None),
    ("csdd.cli", "lower_conditional", "infer.lower_conditional", _iterations),
    ("csdd.cli", "upper_conditional", "infer.upper_conditional", _iterations),
    ("csdd.cli", "map_query", "infer.map_query", None),
    ("csdd.cli", "credal_map_upper", "infer.credal_map_upper", None),
    ("csdd.cli", "robustness", "infer.robustness", None),
    ("csdd.formats", "validate_partitions", "circuit.validate_partitions", None),
    ("csdd.circuit", "compile_formula", "circuit.compile", None),
    ("csdd.learn", "collect_counts", "learn.collect_counts", _rows),
    ("csdd.learn", "bayes_estimate", "learn.estimate", None),
    ("csdd.learn", "idm_estimate", "learn.estimate", None),
] + [
    ("csdd.formats", f"read_{kind}", "formats.read", _bytes_read)
    for kind in ("vtree", "sdd", "psdd", "csdd")
] + [
    ("csdd.formats", f"write_{kind}", "formats.write", _bytes_written)
    for kind in ("vtree", "sdd", "psdd", "csdd")
]

SPAN_NAMES = sorted({name for _, _, name, _ in WRAPS})


class Tracer:
    """Spans and counts of the traced passes of one run.

    ``spans`` holds ``(id, name, start, end, parent, op)`` tuples, ``op``
    being the id of the operation's root span; ``counts`` holds
    ``"<span>.<key>"`` totals from the hooks plus compiler node counts.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._next = 0
        self._op: int | None = None

    @contextmanager
    def span(self, name: str):
        sid = self._next
        self._next += 1
        parent = self._stack[-1] if self._stack else None
        if parent is None:
            self._op = sid
        self._stack.append(sid)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans.append((sid, name, start, end, parent, self._op))

    def _wrap(self, fn, name, hook):
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if hook is not None:
                for key, n in hook(args, result).items():
                    self.counts[f"{name}.{key}"] += n
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every boundary in ``WRAPS`` for the duration of the block."""
        saved = []
        try:
            for module_name, attr, name, hook in WRAPS:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn, name, hook))
            builder = importlib.import_module("csdd.circuit").CircuitBuilder
            finish = builder.finish
            saved.append((builder, "finish", finish))
            tracer = self

            def counted_finish(self_, root):
                # the builder's store holds every node the compile allocated
                result = finish(self_, root)
                tracer.counts["circuit.nodes_allocated"] += len(self_.circuit)
                tracer.counts["circuit.nodes_kept"] += len(result)
                return result

            builder.finish = counted_finish
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def busy(self) -> dict[str, float]:
        """Inclusive seconds per span name."""
        out: dict[str, float] = Counter()
        for _, name, start, end, _, _ in self.spans:
            out[name] += end - start
        return out

    def self_time(self) -> dict[str, float]:
        """Seconds per span name not covered by its child spans."""
        child: dict[int, float] = Counter()
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, float] = Counter()
        for sid, name, start, end, _, _ in self.spans:
            out[name] += end - start - child[sid]
        return out

    def calls(self) -> Counter:
        return Counter(name for _, name, *_ in self.spans)


class NullTracer:
    """Stand-in for untraced passes: operation spans cost nothing."""

    def span(self, name: str):
        return nullcontext()
