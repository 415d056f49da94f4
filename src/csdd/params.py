"""Parameter tables attached to circuits.

A table maps node ids to local distributions: decision nodes carry a
distribution over their elements (in element order) and TRUE terminals a
distribution over (var true, var false).  Point tables parameterize a
single distribution; credal tables carry an interval credal set per node
and describe the whole family of point tables between the bounds.

States whose sub is unsatisfiable must have probability exactly zero
([0, 0] in the credal case): the induced joint is zero exactly off the
circuit's models.  Unsatisfiable decision nodes induce no distribution and
take no table entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from .circuit import Circuit, TRUE
from .credal import IntervalCredalSet, _lp, _small_reachable

__all__ = ["ParamError", "PsddParams", "CsddParams", "check_local"]

SUM_TOL = 1e-9


class ParamError(ValueError):
    """Missing, extra or invalid local parameters."""


def _forbidden_states(circuit: Circuit, nid: int) -> tuple[bool, ...]:
    node = circuit.nodes[nid]
    if node.kind == TRUE:
        return (False, False)
    false = circuit.false_ids()
    return tuple(s in false for _, s in node.elements)


def check_local(
    circuit: Circuit, nid: int, lower: Sequence[float], upper: Sequence[float] | None = None
) -> tuple[float, ...] | IntervalCredalSet:
    """The table entry of these local parameters of ``nid``: ``lower`` for
    a point pmf, else ``IntervalCredalSet(lower, upper)``.

    ``lower`` alone is a point pmf: finite, non-negative and summing to one.
    With ``upper`` each state has the interval ``0 <= lower <= upper <= 1``.
    A state whose sub is unsatisfiable must be exactly 0 (``[0, 0]``).
    Raises :class:`ParamError` at the first of these rules that fails, then
    :class:`CredalSetError` if the set is empty or not reachable.
    """
    node = circuit.nodes[nid]
    elements = node.elements
    # one or two states passing every rule, the usual entry, meet the rules
    # unrolled: the point's or the set's closed form, then no mass on a false
    # sub (elements[0] and [-1] are all); others meet them one by one, worded
    if len(lower) == (2 if node.kind == TRUE else len(elements)) and (
            _small_pmf(lower) if upper is None else _small_reachable(lower, upper)):
        mass, false = upper or lower, circuit.false_ids()
        if not elements or not (mass[0] and elements[0][1] in false or mass[-1] and elements[-1][1] in false):
            return lower if upper is None else IntervalCredalSet._accepted(lower, upper)
    _node_rule(circuit, nid, lower, upper)
    return lower if upper is None else IntervalCredalSet(lower, upper)


def _small_pmf(lower: Sequence[float]) -> bool:
    """Whether one or two states pass the point rule of :func:`_node_rule`: two
    finite entries sum as ``fsum`` does, inf where it overflows."""
    return (0 < len(lower) <= 2 and 0.0 <= lower[0] and 0.0 <= lower[-1]
            and abs(lower[0] + (lower[1] if len(lower) == 2 else 0.0) - 1.0) <= SUM_TOL)


def _node_rule(circuit: Circuit, nid: int, lower: Sequence[float], upper: Sequence[float] | None) -> None:
    """Raise :class:`ParamError` unless the parameters pass the rules of
    :func:`check_local` that come before the set rule."""
    node = circuit.nodes[nid]
    k = 2 if node.kind == TRUE else len(node.elements)
    if len(lower) != k:
        raise ParamError(f"node {nid}: expected {k} states, got {len(lower)}")
    # one or two states pass the checks below, unrolled, before any of them runs
    if upper is None:
        if not _small_pmf(lower):
            if not all(map(math.isfinite, lower)):
                raise ParamError(f"node {nid}: probabilities {tuple(lower)} are not all finite")
            if min(lower) < 0.0:
                raise ParamError(f"node {nid}: negative probability")
            try:
                total = math.fsum(lower)
            except OverflowError:  # finite entries whose partial sums pass 1e308
                total = math.inf
            if not abs(total - 1.0) <= SUM_TOL:
                raise ParamError(f"node {nid}: probabilities sum to {total}")
        upper = lower
    elif not (0 < k <= 2 and len(upper) == k and 0.0 <= lower[0] <= upper[0] <= 1.0
              and 0.0 <= lower[-1] <= upper[-1] <= 1.0):
        for i, (l, u) in enumerate(zip(lower, upper)):
            if not 0.0 <= l <= u <= 1.0:
                raise ParamError(f"node {nid}: state {i}: invalid interval [{l}, {u}]")
        if len(upper) != k:  # the false-sub loop reads upper[i] for every state
            raise ParamError(f"node {nid}: expected {k} upper bounds, got {len(upper)}")
    false = circuit.false_ids()
    for i, (_, s) in enumerate(node.elements):  # a TRUE terminal has no sub
        if upper[i] != 0.0 and s in false:  # every entry is non-negative by now
            raise ParamError(f"node {nid}: state {i} has a false sub but probability up to {upper[i]}")


def _wanted(circuit: Circuit, table: Mapping) -> list[int]:
    """The nodes a table must parameterize, once it is known to cover them."""
    wanted = circuit.parameterized_ids()
    missing = [nid for nid in wanted if nid not in table]
    if missing:
        raise ParamError(f"missing parameters for nodes {missing}")
    return wanted


@dataclass
class PsddParams:
    """Point parameter table: ``table[node id] -> pmf tuple``."""

    table: dict[int, tuple[float, ...]]

    def validate(self, circuit: Circuit) -> None:
        for nid in _wanted(circuit, self.table):
            check_local(circuit, nid, self.table[nid])


@dataclass
class CsddParams:
    """Credal parameter table: ``table[node id] -> IntervalCredalSet``."""

    table: dict[int, IntervalCredalSet]

    def validate(self, circuit: Circuit) -> None:
        # every IntervalCredalSet passed the set rule when it was built
        for nid in _wanted(circuit, self.table):
            _node_rule(circuit, nid, self.table[nid].lower, self.table[nid].upper)

    @classmethod
    def degenerate(cls, params: PsddParams) -> "CsddParams":
        """Zero-width table containing exactly one point table."""
        return cls({nid: IntervalCredalSet.point(pmf) for nid, pmf in params.table.items()})

    def select(self, points: Mapping[int, tuple[float, ...]]) -> PsddParams:
        """Point table from chosen members; unlisted nodes take their lower-greedy centre."""
        table = {}
        for nid, cs in self.table.items():
            if nid in points:
                table[nid] = tuple(points[nid])
            else:
                table[nid] = _lp(cs, (0.0,) * cs.k)[1]
        return PsddParams(table)

    def pinned(self, points: Mapping[int, tuple[float, ...]]) -> "CsddParams":
        """Copy with the given nodes collapsed to point sets."""
        table = dict(self.table)
        for nid, point in points.items():
            table[nid] = IntervalCredalSet.point(point)
        return CsddParams(table)

