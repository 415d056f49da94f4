"""Interval credal sets over k-state categorical variables.

A credal set here is the polytope of probability mass functions
``{p : lower <= p <= upper, sum(p) = 1}``.  Sets are kept *reachable*
(every endpoint attainable by some member), which lets every local linear
program close in O(k log k) with a greedy mass allocation instead of a
general LP solver; one- and two-state sets close in O(1) by the same
float operations.  Vertices of the polytope have at most one coordinate
strictly between its bounds; they are enumerated in a deterministic order
so optimizers can be compared by index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

__all__ = [
    "CredalSetError",
    "IntervalCredalSet",
    "Vertex",
    "normalize_reachable",
    "enumerate_vertices",
]

EQ_TOL = 1e-12          # comparisons between probabilities / optima
BUILD_TOL = 1e-9        # constructor rejects violations beyond this
VERTEX_GUARD_K = 12


class CredalSetError(ValueError):
    """Empty or malformed credal set, or a guard violation."""


@dataclass(frozen=True)
class Vertex:
    """An extreme point; ``index`` refers to the deterministic enumeration."""

    point: tuple[float, ...]
    index: int | None = None


@dataclass(frozen=True)
class IntervalCredalSet:
    """Reachable probability-interval credal set.

    ``lower[i] == upper[i] == 0`` encodes a forbidden state.  Construction
    validates bounds, non-emptiness and reachability within ``BUILD_TOL``;
    use :func:`normalize_reachable` to tighten raw bounds first.
    """

    lower: tuple[float, ...]
    upper: tuple[float, ...]

    def __post_init__(self) -> None:
        lower, upper = self.lower, self.upper
        if len(lower) == 2 == len(upper):
            # the checks below, unrolled, accept the set: within the bounds its
            # entries are finite, so each fsum is the rounded sum of two terms
            (l0, l1), (u0, u1) = lower, upper
            sl, su = l0 + l1, u0 + u1
            if (-BUILD_TOL <= l0 <= u0 <= 1 + BUILD_TOL and -BUILD_TOL <= l1 <= u1 <= 1 + BUILD_TOL
                    and sl <= 1 + BUILD_TOL and su >= 1 - BUILD_TOL
                    and l0 + (su - u0) >= 1 - BUILD_TOL and u0 + (sl - l0) <= 1 + BUILD_TOL
                    and l1 + (su - u1) >= 1 - BUILD_TOL and u1 + (sl - l1) <= 1 + BUILD_TOL):
                return
        elif len(lower) == 1 == len(upper):
            # the checks below accept a lone state exactly when it can hold all the mass
            if -BUILD_TOL <= lower[0] <= upper[0] <= 1 + BUILD_TOL and lower[0] >= 1 - BUILD_TOL:
                return
        if len(lower) != len(upper) or not lower:
            raise CredalSetError("lower/upper must be equal-length, non-empty vectors")
        for i, (l, u) in enumerate(zip(lower, upper)):
            if not (-BUILD_TOL <= l <= u <= 1 + BUILD_TOL):
                raise CredalSetError(f"state {i}: invalid interval [{l}, {u}]")
        sl, su = math.fsum(lower), math.fsum(upper)
        if sl > 1 + BUILD_TOL or su < 1 - BUILD_TOL:
            raise CredalSetError(f"empty credal set: sum(lower)={sl}, sum(upper)={su}")
        for i in range(len(lower)):
            rest_u = su - upper[i]
            rest_l = sl - lower[i]
            if lower[i] + rest_u < 1 - BUILD_TOL or upper[i] + rest_l > 1 + BUILD_TOL:
                raise CredalSetError(f"state {i}: bounds are not reachable")

    @classmethod
    def point(cls, pmf: Sequence[float]) -> "IntervalCredalSet":
        p = tuple(float(x) for x in pmf)
        return cls(p, p)

    @property
    def k(self) -> int:
        return len(self.lower)

    def contains(self, pmf: Sequence[float], tol: float = BUILD_TOL) -> bool:
        if abs(math.fsum(pmf) - 1.0) > tol:
            return False
        return all(l - tol <= p <= u + tol for p, l, u in zip(pmf, self.lower, self.upper))


def normalize_reachable(lower: Sequence[float], upper: Sequence[float]) -> IntervalCredalSet:
    """Tighten raw interval bounds to reachable form (same feasible set)."""
    lower = tuple(float(x) for x in lower)
    upper = tuple(float(x) for x in upper)
    if len(lower) != len(upper) or not lower:
        raise CredalSetError("lower/upper must be equal-length, non-empty vectors")
    sl, su = math.fsum(lower), math.fsum(upper)
    if sl > 1 + BUILD_TOL or su < 1 - BUILD_TOL:
        raise CredalSetError(f"empty credal set: sum(lower)={sl}, sum(upper)={su}")
    new_lower = [min(max(l, 1.0 - (su - u)), u) for l, u in zip(lower, upper)]
    new_upper = [max(min(u, 1.0 - (sl - l)), l) for l, u in zip(lower, upper)]
    # the tightened bounds can cross by a rounding ulp; repair pairwise
    for i, (l, u) in enumerate(zip(new_lower, new_upper)):
        if l > u:
            new_lower[i] = u
    return IntervalCredalSet(tuple(new_lower), tuple(new_upper))


def _greedy_min_point(cs: IntervalCredalSet, coeffs: Sequence[float]) -> tuple[float, ...]:
    # start at the lower bounds, hand the remaining mass to the cheapest states.
    # Bit-identity contract: the two-state and one-state forms are the loop
    # unrolled, the same float operations in the same order, so every caller
    # gets the point the loop would give, to the sign of zero.
    lower, upper = cs.lower, cs.upper
    if len(lower) == 2:
        swap = coeffs[1] < coeffs[0]  # sorted() visits state 0 first on a tie
        (ta, tb), (ua, ub) = (lower[::-1], upper[::-1]) if swap else (lower, upper)
        remaining = 1.0 - (ta + tb)
        room = ua - ta
        if remaining > 0 and room > 0:
            add = room if room < remaining else remaining
            ta += add
            remaining -= add
        if remaining > (EQ_TOL if room > 0 else 0.0):  # the loop breaks only after an add
            room = ub - tb
            if room > 0:
                tb += room if room < remaining else remaining
        return (tb, ta) if swap else (ta, tb)
    if len(lower) == 1:
        (l,), (u,) = lower, upper
        remaining, room = 1.0 - l, u - l
        return (l + (room if room < remaining else remaining),) if remaining > 0 and room > 0 else lower
    theta = list(lower)
    remaining = 1.0 - math.fsum(theta)
    if remaining > 0:
        for i in sorted(range(cs.k), key=coeffs.__getitem__):
            room = upper[i] - theta[i]
            if room <= 0:
                continue
            add = room if room < remaining else remaining
            theta[i] += add
            remaining -= add
            if remaining <= EQ_TOL:
                break
    return tuple(theta)


def _min_fast(cs: IntervalCredalSet, coeffs: Sequence[float]) -> tuple[float, tuple[float, ...]]:
    # the local LP: its minimum and the greedy optimizer, as a bare point
    return _with_value(coeffs, _greedy_min_point(cs, coeffs))


def _max_fast(cs: IntervalCredalSet, coeffs: Sequence[float]) -> tuple[float, tuple[float, ...]]:
    return _with_value(coeffs, _greedy_min_point(cs, [-c for c in coeffs]))


def _with_value(coeffs: Sequence[float], point: tuple[float, ...]) -> tuple[float, tuple[float, ...]]:
    # fsum rounds a finite two-term sum as one addition does, and "+ 0.0" gives
    # its +0.0 for a zero sum; fsum keeps the rest, raising on overflow or inf - inf
    if len(point) <= 2:
        value = coeffs[0] * point[0] + (coeffs[1] * point[1] if len(point) == 2 else 0.0) + 0.0
        if value - value == 0.0:
            return value, point
    return math.fsum(c * t for c, t in zip(coeffs, point)), point


def enumerate_vertices(cs: IntervalCredalSet) -> list[Vertex]:
    """All extreme points, deduplicated, in ascending lexicographic order."""
    if cs.k > VERTEX_GUARD_K:
        raise CredalSetError(f"vertex enumeration guarded at k <= {VERTEX_GUARD_K}, got {cs.k}")
    return list(_vertex_cache(cs))


@lru_cache(maxsize=4096)
def _vertex_cache(cs: IntervalCredalSet) -> tuple[Vertex, ...]:
    k = cs.k
    points: list[tuple[float, ...]] = []
    if k == 1:
        points.append((1.0,))
    else:
        # a vertex has at most one coordinate strictly inside its interval
        for free in range(k):
            others = [i for i in range(k) if i != free]
            for bits in range(1 << (k - 1)):
                theta = [0.0] * k
                total = 0.0
                for j, i in enumerate(others):
                    theta[i] = cs.upper[i] if bits >> j & 1 else cs.lower[i]
                    total += theta[i]
                residual = 1.0 - total
                if cs.lower[free] - EQ_TOL <= residual <= cs.upper[free] + EQ_TOL:
                    theta[free] = min(max(residual, cs.lower[free]), cs.upper[free])
                    points.append(tuple(theta))
    points.sort()
    unique: list[tuple[float, ...]] = []
    for p in points:
        if unique and all(abs(a - b) <= EQ_TOL for a, b in zip(unique[-1], p)):
            continue
        unique.append(p)
    return tuple(Vertex(p, i) for i, p in enumerate(unique))


def _max_ratio_vertex(
    cs: IntervalCredalSet, i: int, j: int, scale: float = 1.0
) -> tuple[float, tuple[float, ...]]:
    if i == j:
        raise CredalSetError("numerator and denominator states must differ")
    if not (0 <= i < cs.k and 0 <= j < cs.k):
        raise CredalSetError("state index out of range")
    if cs.lower[j] <= 0:
        raise CredalSetError(
            f"state {j} has zero lower probability; the ratio is unbounded"
        )
    rest_lower = math.fsum(cs.lower[m] for m in range(cs.k) if m not in (i, j))
    theta_i = min(cs.upper[i], 1.0 - cs.lower[j] - rest_lower)
    theta = list(cs.lower)
    theta[i] = theta_i
    remaining = 1.0 - math.fsum(theta)
    if remaining > EQ_TOL:
        for m in range(cs.k):
            if m in (i, j):
                continue
            room = cs.upper[m] - theta[m]
            add = room if room < remaining else remaining
            theta[m] += add
            remaining -= add
            if remaining <= EQ_TOL:
                break
    return scale * theta_i / cs.lower[j], tuple(theta)
