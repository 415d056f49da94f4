"""Datasets, context statistics and parameter estimators.

Counting routes every instance from the root: at each decision node the
unique element whose prime the instance satisfies is incremented and the
walk recurses into both the prime and the sub.  A node reached through
several contexts (shared structure) accumulates counts across all of them.
All rows are routed at once: each row is one bit of a Python ``int``, one
bottom-up pass gives every node's truth on every row, and one top-down
pass carries each node's context, the set of rows reaching it, as a mask.

Three estimators turn counts into parameter tables: maximum likelihood,
Bayesian smoothing with a symmetric prior of total mass ``s`` spread over
the feasible states, and interval estimates ``[n/(N+s), (n+s)/(N+s)]``
tightened to reachable form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .circuit import Circuit, DECISION, TRUE, _pack_bits, _truth_bits
from .credal import IntervalCredalSet, normalize_reachable
from .params import CsddParams, PsddParams, _forbidden_states

__all__ = [
    "LearnError",
    "Dataset",
    "ContextCounts",
    "collect_counts",
    "ml_estimate",
    "bayes_estimate",
    "idm_estimate",
]


class LearnError(ValueError):
    """Inconsistent data or an estimator precondition failure."""


@dataclass
class Dataset:
    """Complete Boolean rows with positive multiplicities.

    ``variables[i]`` names vtree variable ``i + 1``; each row is a value
    tuple in that order.
    """

    variables: tuple[str, ...]
    rows: list[tuple[tuple[bool, ...], int]]

    def __post_init__(self) -> None:
        width = len(self.variables)
        for values, count in self.rows:
            if len(values) != width:
                raise LearnError(f"row width {len(values)} != {width} variables")
            if count < 1:
                raise LearnError(f"row counts must be >= 1, got {count}")

    @property
    def total(self) -> int:
        return sum(count for _, count in self.rows)

    def assignments(self) -> Iterable[tuple[dict[int, bool], int]]:
        for values, count in self.rows:
            yield {i + 1: bool(v) for i, v in enumerate(values)}, count


@dataclass
class ContextCounts:
    """Per-node sufficient statistics.

    ``counts[nid]`` is a per-state vector: one entry per element of a
    decision node, or (var true, var false) for a TRUE terminal.
    ``totals[nid]`` is the number of instance visits (the context total).
    """

    counts: dict[int, list[int]]
    totals: dict[int, int]
    dropped: int = 0


def _feasible_reachable(circuit: Circuit) -> set[int]:
    # nodes with at least one context free of false subs
    false = circuit.false_ids()
    reach = {circuit.root}
    for nid in reversed(circuit.cone()):
        if nid not in reach:
            continue
        for p, s in circuit.nodes[nid].elements:
            reach.add(p)
            if s not in false:
                reach.add(s)
    return reach


def collect_counts(circuit: Circuit, dataset: Dataset, strict: bool = True) -> ContextCounts:
    """Route every instance through the circuit and tally element choices.

    Rows inconsistent with the circuit raise in strict mode and are
    dropped (counted in ``dropped``) otherwise.

    Bit ``r`` of every mask stands for row ``r``.  A bit-parallel truth
    pass gives each node's truth on all rows.  A top-down pass then
    splits each decision node's context (the rows reaching it) among its
    elements, each row going to the first element whose prime it
    satisfies, and passes each element's share on to its prime and sub.
    Contexts reaching a node from several parents are joined by union,
    which is exact: primes sit at ``left(v)`` and subs at ``right(v)`` of
    their decision node's vtree node ``v``, so a row's route meets each
    vtree node, hence each circuit node, at most once.  A mask's count,
    the sum of its rows' multiplicities, is read off the bit-planes of
    the multiplicities.
    """
    if len(dataset.variables) != circuit.vtree.var_count:
        raise LearnError(
            f"dataset has {len(dataset.variables)} variables, circuit {circuit.vtree.var_count}"
        )
    counts: dict[int, list[int]] = {}
    totals: dict[int, int] = {}
    for nid in circuit.parameterized_ids():
        node = circuit.nodes[nid]
        counts[nid] = [0, 0] if node.kind == TRUE else [0] * len(node.elements)
        totals[nid] = 0
    nodes, cone, root = circuit.nodes, circuit.cone(), circuit.root
    rows = dataset.rows
    full = (1 << len(rows)) - 1
    columns = list(zip(*(values for values, _ in rows))) or [()] * circuit.vtree.var_count
    var_bits = [0] + [_pack_bits(column) for column in columns]  # indexed by variable
    multiplicities = [count for _, count in rows]
    planes = [
        _pack_bits(count >> j & 1 for count in multiplicities)
        for j in range(max(multiplicities, default=0).bit_length())
    ]

    def weight(mask: int) -> int:
        return sum((mask & plane).bit_count() << j for j, plane in enumerate(planes))

    truth = _truth_bits(nodes, cone, var_bits, [full ^ bits for bits in var_bits], full)
    inconsistent = full ^ truth[root]
    if inconsistent and strict:
        values = rows[(inconsistent & -inconsistent).bit_length() - 1][0]
        assignment = {i + 1: bool(v) for i, v in enumerate(values)}
        raise LearnError(f"row {assignment} is inconsistent with the circuit")
    context = {root: truth[root]}
    for nid in reversed(cone):
        ctx = context.pop(nid, 0)
        if not ctx:
            continue
        node = nodes[nid]
        if node.kind == TRUE:
            totals[nid] = weight(ctx)
            on = ctx & var_bits[node.var]
            counts[nid] = [weight(on), weight(ctx ^ on)]
        elif node.kind == DECISION:
            totals[nid] = weight(ctx)
            vector = counts[nid]
            rest = ctx
            for idx, (p, s) in enumerate(node.elements):
                hit = rest & truth[p]
                if hit:
                    rest ^= hit
                    vector[idx] = weight(hit)
                    context[p] = context.get(p, 0) | hit
                    context[s] = context.get(s, 0) | hit
            if rest:  # primes partition the left space; cannot happen
                raise LearnError(f"no prime of node {nid} matched a consistent row")
    return ContextCounts(counts, totals, weight(inconsistent))


def ml_estimate(circuit: Circuit, counts: ContextCounts) -> PsddParams:
    """Relative frequencies per context.  Every feasible context must occur.

    Nodes whose contexts are all infeasible (under a false sub) get a
    uniform placeholder; no query can reach them.
    """
    feasible = _feasible_reachable(circuit)
    table: dict[int, tuple[float, ...]] = {}
    for nid, vector in counts.counts.items():
        forbidden = _forbidden_states(circuit, nid)
        total = counts.totals[nid]
        if total == 0:
            if nid in feasible:
                raise LearnError(
                    f"node {nid} has an empty context (no data reaches it); "
                    "maximum likelihood is undefined there, use a prior"
                )
            free = [i for i, bad in enumerate(forbidden) if not bad]
            table[nid] = tuple(1.0 / len(free) if not bad else 0.0 for bad in forbidden)
            continue
        table[nid] = tuple(c / total for c in vector)
    params = PsddParams(table)
    params.validate(circuit)
    return params


def bayes_estimate(circuit: Circuit, counts: ContextCounts, ess: float) -> PsddParams:
    """Symmetric-prior smoothing: ``(n_i + s/k') / (N + s)``.

    The prior mass ``s`` spreads over the feasible states only, so states
    with a false sub keep probability exactly zero.
    """
    if not 0 < ess < math.inf:
        raise LearnError(f"equivalent sample size must be positive and finite, got {ess}")
    table: dict[int, tuple[float, ...]] = {}
    for nid, vector in counts.counts.items():
        forbidden = _forbidden_states(circuit, nid)
        free = sum(1 for bad in forbidden if not bad)
        total = counts.totals[nid]
        table[nid] = tuple(
            0.0 if bad else (c + ess / free) / (total + ess)
            for c, bad in zip(vector, forbidden)
        )
    params = PsddParams(table)
    params.validate(circuit)
    return params


def idm_estimate(circuit: Circuit, counts: ContextCounts, ess: float) -> CsddParams:
    """Interval estimates ``[n/(N+s), (n+s)/(N+s)]`` per feasible state.

    States with a false sub get [0, 0]; the result is tightened to
    reachable form, which never changes the feasible set.
    """
    if not 0 < ess < math.inf:
        raise LearnError(f"equivalent sample size must be positive and finite, got {ess}")
    table: dict[int, IntervalCredalSet] = {}
    for nid, vector in counts.counts.items():
        forbidden = _forbidden_states(circuit, nid)
        total = counts.totals[nid]
        lower = tuple(0.0 if bad else c / (total + ess) for c, bad in zip(vector, forbidden))
        upper = tuple(0.0 if bad else (c + ess) / (total + ess) for c, bad in zip(vector, forbidden))
        table[nid] = normalize_reachable(lower, upper)
    params = CsddParams(table)
    params.validate(circuit)
    return params
