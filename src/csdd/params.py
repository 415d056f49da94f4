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
from typing import Mapping

from .circuit import Circuit, TRUE
from .credal import IntervalCredalSet, _greedy_min_point

__all__ = ["ParamError", "PsddParams", "CsddParams"]

SUM_TOL = 1e-9


class ParamError(ValueError):
    """Missing, extra or invalid local parameters."""


def _forbidden_states(circuit: Circuit, nid: int) -> tuple[bool, ...]:
    node = circuit.nodes[nid]
    if node.kind == TRUE:
        return (False, False)
    false = circuit.false_ids()
    return tuple(s in false for _, s in node.elements)


@dataclass
class PsddParams:
    """Point parameter table: ``table[node id] -> pmf tuple``."""

    table: dict[int, tuple[float, ...]]

    def validate(self, circuit: Circuit, root: int | None = None) -> None:
        wanted = circuit.parameterized_ids(root)
        missing = [nid for nid in wanted if nid not in self.table]
        if missing:
            raise ParamError(f"missing parameters for nodes {missing}")
        for nid in wanted:
            pmf = self.table[nid]
            forbidden = _forbidden_states(circuit, nid)
            if len(pmf) != len(forbidden):
                raise ParamError(f"node {nid}: expected {len(forbidden)} states, got {len(pmf)}")
            if not all(math.isfinite(p) for p in pmf):
                raise ParamError(f"node {nid}: probabilities {pmf} are not all finite")
            if any(p < 0 for p in pmf):
                raise ParamError(f"node {nid}: negative probability")
            if abs(math.fsum(pmf) - 1.0) > SUM_TOL:
                raise ParamError(f"node {nid}: probabilities sum to {math.fsum(pmf)}")
            for i, (p, bad) in enumerate(zip(pmf, forbidden)):
                if bad and p != 0.0:
                    raise ParamError(f"node {nid}: state {i} has a false sub but theta={p}")


@dataclass
class CsddParams:
    """Credal parameter table: ``table[node id] -> IntervalCredalSet``."""

    table: dict[int, IntervalCredalSet]

    def validate(self, circuit: Circuit, root: int | None = None) -> None:
        wanted = circuit.parameterized_ids(root)
        missing = [nid for nid in wanted if nid not in self.table]
        if missing:
            raise ParamError(f"missing credal sets for nodes {missing}")
        for nid in wanted:
            cs = self.table[nid]
            forbidden = _forbidden_states(circuit, nid)
            if cs.k != len(forbidden):
                raise ParamError(f"node {nid}: expected {len(forbidden)} states, got {cs.k}")
            for i, bad in enumerate(forbidden):
                if bad and (cs.lower[i] != 0.0 or cs.upper[i] != 0.0):
                    raise ParamError(f"node {nid}: state {i} has a false sub but bounds "
                                     f"[{cs.lower[i]}, {cs.upper[i]}]")

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
                table[nid] = _greedy_min_point(cs, (0.0,) * cs.k)
        return PsddParams(table)

    def pinned(self, points: Mapping[int, tuple[float, ...]]) -> "CsddParams":
        """Copy with the given nodes collapsed to point sets."""
        table = dict(self.table)
        for nid, point in points.items():
            table[nid] = IntervalCredalSet.point(point)
        return CsddParams(table)

    def max_width(self) -> float:
        return max((cs.width for cs in self.table.values()), default=0.0)

