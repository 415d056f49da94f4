"""Interval credal sets over k-state categorical variables.

A credal set here is the polytope of probability mass functions
``{p : lower <= p <= upper, sum(p) = 1}``.  Sets are kept *reachable*
(every endpoint attainable by some member), which lets every local linear
program close in O(k log k) with a greedy mass allocation instead of a
general LP solver: ``_lp`` solves one, in either sense.  A set of one or
two states has only two greedy optimizers, found once and cached on the
set, so its programs close in O(1) with the same floats.  Vertices of the
polytope have at most one coordinate strictly between its bounds; they
are enumerated in a deterministic order.
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


class _Optima:
    """The only points the greedy gives a one- or two-state set: for
    ``coeffs[1] < coeffs[0]`` false, then true (one state: one point twice).
    The first read stores them in the instance dict, outside the fields,
    ``==``, ``hash`` and ``repr``, where later reads find them; unlike
    ``functools.cached_property`` on Python 3.11, it takes no lock."""

    def __get__(self, cs: "IntervalCredalSet | None", owner=None):
        if cs is None:  # read on the class
            return self
        lower, upper = cs.lower, cs.upper
        if len(lower) == 1:
            optima = (_greedy_fill(lower, upper, (0,)),) * 2
        else:
            optima = _greedy_fill(lower, upper, (0, 1)), _greedy_fill(lower, upper, (1, 0))
        object.__setattr__(cs, "_optima", optima)
        return optima


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
        if _small_reachable(lower, upper):
            return
        sl, su = _bound_sums(lower, upper)
        for i, (l, u) in enumerate(zip(lower, upper)):
            if l + (su - u) < 1 - BUILD_TOL or u + (sl - l) > 1 + BUILD_TOL:
                raise CredalSetError(f"state {i}: bounds are not reachable")

    @classmethod
    def _accepted(cls, lower: tuple[float, ...], upper: tuple[float, ...]) -> "IntervalCredalSet":
        """``cls(lower, upper)`` for bounds the caller has already found to
        pass :meth:`__post_init__`, which does not run again."""
        cs = object.__new__(cls)
        object.__setattr__(cs, "lower", lower)  # as the frozen dataclass's __init__ does
        object.__setattr__(cs, "upper", upper)
        return cs

    @classmethod
    def point(cls, pmf: Sequence[float]) -> "IntervalCredalSet":
        p = tuple(float(x) for x in pmf)
        return cls(p, p)

    @property
    def k(self) -> int:
        return len(self.lower)

    _optima = _Optima()

    def contains(self, pmf: Sequence[float], tol: float = BUILD_TOL) -> bool:
        if abs(math.fsum(pmf) - 1.0) > tol:
            return False
        return all(l - tol <= p <= u + tol for p, l, u in zip(pmf, self.lower, self.upper))


def normalize_reachable(lower: Sequence[float], upper: Sequence[float]) -> IntervalCredalSet:
    """Tighten raw interval bounds to reachable form (same feasible set)."""
    lower, upper = tuple(map(float, lower)), tuple(map(float, upper))
    sl, su = _bound_sums(lower, upper)
    new_lower = [min(max(l, 1.0 - (su - u)), u) for l, u in zip(lower, upper)]
    new_upper = [max(min(u, 1.0 - (sl - l)), l) for l, u in zip(lower, upper)]
    # the tightened bounds can cross by a rounding ulp; repair pairwise
    for i, (l, u) in enumerate(zip(new_lower, new_upper)):
        if l > u:
            new_lower[i] = u
    return IntervalCredalSet(tuple(new_lower), tuple(new_upper))


def _small_reachable(lower: Sequence[float], upper: Sequence[float]) -> bool:
    """Whether a one- or two-state set within ``0 <= lower <= upper <= 1``
    passes the checks of :class:`IntervalCredalSet`, in closed form: two such
    entries sum as ``fsum`` does, and a lone state must hold all the mass.
    The loops of those checks word the refusal of any other set."""
    if len(lower) == 2 == len(upper):
        (l0, l1), (u0, u1) = lower, upper
        sl, su = l0 + l1, u0 + u1
        return (0.0 <= l0 <= u0 <= 1.0 and 0.0 <= l1 <= u1 <= 1.0
                and sl <= 1 + BUILD_TOL and su >= 1 - BUILD_TOL
                and l0 + (su - u0) >= 1 - BUILD_TOL and u0 + (sl - l0) <= 1 + BUILD_TOL
                and l1 + (su - u1) >= 1 - BUILD_TOL and u1 + (sl - l1) <= 1 + BUILD_TOL)
    return len(lower) == 1 == len(upper) and 1 - BUILD_TOL <= lower[0] <= upper[0] <= 1.0


def _bound_sums(lower: Sequence[float], upper: Sequence[float]) -> tuple[float, float]:
    """``(fsum(lower), fsum(upper))``; raises :class:`CredalSetError` unless the
    bounds have one shape, intervals within [0, 1] and room for all the mass."""
    if len(lower) != len(upper) or not lower:
        raise CredalSetError("lower/upper must be equal-length, non-empty vectors")
    for i, (l, u) in enumerate(zip(lower, upper)):
        if not (-BUILD_TOL <= l <= u <= 1 + BUILD_TOL):
            raise CredalSetError(f"state {i}: invalid interval [{l}, {u}]")
    sl, su = math.fsum(lower), math.fsum(upper)
    if sl > 1 + BUILD_TOL or su < 1 - BUILD_TOL:
        raise CredalSetError(f"empty credal set: sum(lower)={sl}, sum(upper)={su}")
    return sl, su


def _greedy_fill(lower: tuple[float, ...], upper: tuple[float, ...], order: Sequence[int]) -> tuple[float, ...]:
    # start at the lower bounds, hand the remaining mass to the states in order
    theta = list(lower)
    remaining = 1.0 - math.fsum(theta)
    if remaining > 0:
        for i in order:
            room = upper[i] - theta[i]
            if room <= 0:
                continue
            add = room if room < remaining else remaining
            theta[i] += add
            remaining -= add
            if remaining <= EQ_TOL:
                break
    return tuple(theta)


def _lp(
    cs: IntervalCredalSet, coeffs: Sequence[float], maximize: bool = False
) -> tuple[float, tuple[float, ...]]:
    """The local LP: the minimum (maximum if ``maximize``) of ``coeffs . p``
    over ``cs`` and the greedy optimizer, as a bare point.

    The greedy fills the cheapest (dearest) states first, ties in state
    order.  A one- or two-state set picks its optimum as that order would
    (one state: ``coeffs[-1]`` is ``coeffs[0]``, and both optima are its one
    point).  A finite sum of at most two terms is rounded as one addition
    (``fsum`` rounds it alike, and ``+ 0.0`` gives its +0.0 for a zero sum);
    ``fsum`` takes any other, raising on overflow or ``inf - inf``.
    """
    k = len(cs.lower)
    if k <= 2:
        point = cs._optima[coeffs[0] < coeffs[-1] if maximize else coeffs[-1] < coeffs[0]]
        value = coeffs[0] * point[0] + (coeffs[1] * point[1] if k == 2 else 0.0) + 0.0
        if value - value == 0.0:
            return value, point
    else:
        keys = [-c for c in coeffs] if maximize else coeffs
        point = _greedy_fill(cs.lower, cs.upper, sorted(range(k), key=keys.__getitem__))
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
