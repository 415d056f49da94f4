"""Interval credal sets: reachability, greedy programs, vertices, ratios."""

import dataclasses
import math
import sys
import threading
from fractions import Fraction
from itertools import permutations, product
from random import Random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from csdd.circuit import Circuit, Vtree
from csdd.credal import (
    BUILD_TOL,
    CredalSetError,
    IntervalCredalSet,
    _WIDE_OPTIMA,
    _lp,
    _max_ratio_vertex,
    enumerate_vertices,
    normalize_reachable,
)
from csdd.params import SUM_TOL, CsddParams, ParamError, check_local

from conftest import check_local_reference, credal_set_reference, greedy_reference, max_ratio_vertex_reference

EXAMPLE_ROOT = IntervalCredalSet(
    (31 / 101, 52 / 101, 17 / 101), (32 / 101, 53 / 101, 18 / 101)
)


def random_reachable(rng: Random, k: int, width: float = 0.5) -> IntervalCredalSet:
    weights = [rng.uniform(0.05, 1.0) for _ in range(k)]
    total = sum(weights)
    point = [w / total for w in weights]
    lower = [max(0.0, p - rng.uniform(0, width)) for p in point]
    upper = [min(1.0, p + rng.uniform(0, width)) for p in point]
    return normalize_reachable(lower, upper)


@st.composite
def raw_bounds(draw, max_k: int = 4):
    k = draw(st.integers(2, max_k))
    point = draw(
        st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k).map(
            lambda ws: [w / sum(ws) for w in ws]
        )
    )
    deltas = draw(st.lists(st.floats(0.0, 0.4), min_size=2 * k, max_size=2 * k))
    lower = [max(0.0, p - d) for p, d in zip(point, deltas[:k])]
    upper = [min(1.0, p + d) for p, d in zip(point, deltas[k:])]
    return lower, upper


class TestNormalizeReachable:
    def test_spec_example_k2(self):
        cs = normalize_reachable((0.3, 0.3), (0.9, 0.9))
        assert cs.lower == (0.3, 0.3)
        assert cs.upper == pytest.approx((0.7, 0.7), abs=0)

    def test_already_reachable_fixed_point(self):
        cs = normalize_reachable(EXAMPLE_ROOT.lower, EXAMPLE_ROOT.upper)
        assert cs == EXAMPLE_ROOT

    def test_interval_estimates_are_reachable(self):
        # counts (31, 52, 17), N = 100, s = 1: raw bounds already reachable
        lower = tuple(n / 101 for n in (31, 52, 17))
        upper = tuple((n + 1) / 101 for n in (31, 52, 17))
        assert normalize_reachable(lower, upper) == IntervalCredalSet(lower, upper)

    def test_single_feasible_state_collapses(self):
        cs = normalize_reachable((0.7, 0.0), (1.0, 0.0))
        assert cs.lower == (1.0, 0.0) and cs.upper == (1.0, 0.0)

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 1: max(l, 1 - (su - u)) in floats rounds some zero-count "
        "IDM lower bounds up to 1.1102230246251565e-16"))
    def test_zero_count_idm_lower_bound_stays_zero(self):
        # two-state counts [n, 0] and [0, n] at three ess values, bounded as
        # idm_estimate bounds them: the zero count's lower bound is 0
        spurious = []
        for ess in (0.5, 1.0, 2.0):
            for n in range(1, 400):
                for counts in ((n, 0), (0, n)):
                    cs = normalize_reachable([c / (n + ess) for c in counts],
                                             [(c + ess) / (n + ess) for c in counts])
                    if cs.lower[counts.index(0)] != 0.0:
                        spurious.append((ess, counts, cs.lower))
        assert not spurious, f"{len(spurious)} of 2394, first {spurious[0]}"

    def test_empty_rejected(self):
        with pytest.raises(CredalSetError):
            normalize_reachable((0.6, 0.6), (0.7, 0.7))
        with pytest.raises(CredalSetError):
            normalize_reachable((0.1, 0.1), (0.3, 0.3))

    @given(raw_bounds())
    @settings(max_examples=200, deadline=None)
    def test_same_feasible_vertices(self, bounds):
        lower, upper = bounds
        cs = normalize_reachable(lower, upper)
        # tightening never cuts feasible points: every vertex satisfies raw bounds
        for vertex in enumerate_vertices(cs):
            assert all(l - 1e-9 <= x <= u + 1e-9 for x, l, u in zip(vertex.point, lower, upper))
            assert math.fsum(vertex.point) == pytest.approx(1.0, abs=1e-9)


def _is_vertex(cs: IntervalCredalSet, point) -> bool:
    return any(all(abs(a - b) <= 1e-9 for a, b in zip(v.point, point))
               for v in enumerate_vertices(cs))


class TestLinearPrograms:
    def test_example_root_minimum(self):
        value, point = _lp(EXAMPLE_ROOT, (12 / 32, 0.0, 0.0))
        assert value == pytest.approx(12 / 32 * 31 / 101, abs=1e-15)
        assert point[0] == pytest.approx(31 / 101, abs=0)

    def test_example_root_maximum(self):
        value, _ = _lp(EXAMPLE_ROOT, (1.0, 0.0, 0.0), True)
        assert value == pytest.approx(32 / 101, abs=1e-15)

    def test_point_set(self):
        cs = IntervalCredalSet.point((0.2, 0.5, 0.3))
        coeffs = (3.0, -1.0, 2.0)
        expected = 0.2 * 3 - 0.5 + 0.3 * 2
        assert _lp(cs, coeffs)[0] == pytest.approx(expected, abs=1e-12)
        assert _lp(cs, coeffs, True)[0] == pytest.approx(expected, abs=1e-12)

    def test_greedy_matches_vertex_enumeration(self):
        rng = Random(42)
        for _ in range(1000):
            cs = random_reachable(rng, rng.randint(2, 4))
            coeffs = tuple(rng.uniform(-2, 2) for _ in range(cs.k))
            lo, lo_point = _lp(cs, coeffs)
            hi, hi_point = _lp(cs, coeffs, True)
            values = [
                math.fsum(c * x for c, x in zip(coeffs, v.point))
                for v in enumerate_vertices(cs)
            ]
            assert lo == pytest.approx(min(values), abs=1e-12)
            assert hi == pytest.approx(max(values), abs=1e-12)
            # each optimizer is one of the listed extreme points
            assert _is_vertex(cs, lo_point) and _is_vertex(cs, hi_point)

    def test_duality(self):
        rng = Random(5)
        for _ in range(100):
            cs = random_reachable(rng, rng.randint(2, 5))
            coeffs = tuple(rng.uniform(-1, 1) for _ in range(cs.k))
            neg = tuple(-c for c in coeffs)
            assert _lp(cs, coeffs, True)[0] == pytest.approx(-_lp(cs, neg)[0], abs=1e-12)

    def test_monotone_in_interval_width(self):
        rng = Random(9)
        for _ in range(100):
            cs = random_reachable(rng, 3, width=0.1)
            wider = normalize_reachable(
                tuple(max(0.0, l - 0.05) for l in cs.lower),
                tuple(min(1.0, u + 0.05) for u in cs.upper),
            )
            coeffs = tuple(rng.uniform(-1, 1) for _ in range(3))
            assert _lp(wider, coeffs)[0] <= _lp(cs, coeffs)[0] + 1e-12
            assert _lp(wider, coeffs, True)[0] >= _lp(cs, coeffs, True)[0] - 1e-12


def _outcome(fn, *args):
    """``repr`` of a (value, point) result, so the sign of zero counts, or the
    type of the exception raised."""
    try:
        value, point = fn(*args)
    except (OverflowError, ValueError) as exc:
        return type(exc).__name__
    return repr((value, tuple(point)))


def _slack_set(rng: Random, k: int) -> IntervalCredalSet:
    """A reachable set whose free mass is near ``EQ_TOL``, where the greedy
    loop's stopping rule decides the point."""
    weights = [rng.uniform(0.05, 1.0) for _ in range(k)]
    point = [w / sum(weights) for w in weights]
    scale = 10.0 ** rng.uniform(-14, -9)
    lower = [max(0.0, p - rng.choice((0.0, scale * rng.random()))) for p in point]
    upper = [min(1.0, p + rng.choice((0.0, scale * rng.random()))) for p in point]
    return normalize_reachable(lower, upper)


# coefficients as sign tests and sweeps produce them: zeros of both signs
# (a sign test at mu = 0 multiplies -0.0), negatives and ties
EDGE_COEFFS = (0.0, -0.0, 1.0, -1.0, 0.5, -0.25, 3.0)


class TestClosedForm:
    """The one LP entry gives the generic greedy's value and point bit for
    bit, in both senses: in closed form on one or two states, by its own
    greedy fill on more."""

    EDGE_SETS = (
        IntervalCredalSet.point((0.25, 0.75)),
        IntervalCredalSet.point((-0.0, 1.0)),  # a psdd file may hold -0.0
        IntervalCredalSet.point((1.0,)),
        IntervalCredalSet((1.0, 0.0), (1.0, 0.0)),  # a [0, 0] forbidden state
        IntervalCredalSet((0.0, 1.0), (0.0, 1.0)),
        IntervalCredalSet((0.0, 0.0), (1.0, 1.0)),  # vacuous
        IntervalCredalSet((0.2, 0.3), (0.7, 0.8)),
        IntervalCredalSet((0.3, 0.7 - 5e-13), (0.3, 0.7)),  # point state visited first
        IntervalCredalSet((0.3 - 4e-13, 0.7 - 4e-13), (0.3, 0.7)),
        IntervalCredalSet((1.0 - 5e-10,), (1.0,)),
        IntervalCredalSet((1.0 - 5e-10,), (1.0 + 5e-10,)),
        IntervalCredalSet((1.0,), (1.0 + 5e-10,)),
    )

    @staticmethod
    def _random_set(rng: Random, ks=(1, 2)) -> IntervalCredalSet:
        k = rng.choice(ks)
        return random_reachable(rng, k) if rng.random() < 0.5 else _slack_set(rng, k)

    @staticmethod
    def _random_coeffs(rng: Random, k: int) -> list[float]:
        pick = rng.random()
        if pick < 0.3:
            return [rng.choice(EDGE_COEFFS) for _ in range(k)]
        if pick < 0.4:
            return [rng.uniform(-2, 2)] * k
        return [rng.uniform(-2, 2) for _ in range(k)]

    @staticmethod
    def _check(cs, coeffs):
        coeffs = tuple(coeffs)
        for maximize in (False, True):
            want = _outcome(greedy_reference, cs, coeffs, maximize)
            assert _outcome(_lp, cs, coeffs, maximize) == want, (cs, coeffs, maximize)
            assert _outcome(_lp, cs, list(coeffs), maximize) == want, (cs, coeffs, maximize)

    def test_random_sets(self):
        rng = Random(1101)
        for _ in range(3000):
            cs = self._random_set(rng)
            self._check(cs, self._random_coeffs(rng, cs.k))

    def test_edge_sets(self):
        special = EDGE_COEFFS + (math.inf, -math.inf, math.nan, 1e308, -1e308)
        for cs in self.EDGE_SETS:
            for coeffs in product(special, repeat=cs.k):
                self._check(cs, coeffs)

    def test_larger_sets(self):
        # three to five states, by the greedy fill: ties keep state order in both senses
        rng = Random(1105)
        for _ in range(2000):
            cs = self._random_set(rng, (3, 4, 5))
            self._check(cs, self._random_coeffs(rng, cs.k))

    def test_optima_are_cached_on_the_set(self):
        rng = Random(1104)
        sets = list(self.EDGE_SETS) + [self._random_set(rng) for _ in range(500)]
        builders = (
            lambda seen: IntervalCredalSet(seen.lower, seen.upper),
            lambda seen: IntervalCredalSet._accepted(seen.lower, seen.upper),
            lambda seen: IntervalCredalSet.point(seen.lower) if seen.lower == seen.upper else None,
        )
        built = 0
        for seen in sets:
            for build in builders:
                cs = build(seen)  # not read before
                if cs is None:
                    continue
                built += 1
                identity = (hash(cs), repr(cs), dataclasses.fields(cs))
                optima = cs._optima
                want = tuple(greedy_reference(cs, coeffs)[1] for coeffs in ((0.0, 0.0), (1.0, 0.0)))
                assert repr(optima) == repr(want), cs
                assert cs._optima is optima
                # the cache sits outside the fields: the set compares, hashes and prints as before
                assert cs == seen and (hash(cs), repr(cs), dataclasses.fields(cs)) == identity
                assert dataclasses.astuple(cs) == (cs.lower, cs.upper)
                assert vars(cs) == {"lower": cs.lower, "upper": cs.upper, "_optima": optima}
        assert built > 2 * len(sets)

    def test_wide_optima_are_cached_on_the_set(self):
        # three to six states: _lp keeps each greedy order's point on the set,
        # in both senses and with ties, outside the fields
        rng = Random(1106)
        sets = [self._random_set(rng, (3, 4, 5, 6)) for _ in range(300)]
        builders = (
            lambda seen: IntervalCredalSet(seen.lower, seen.upper),
            lambda seen: IntervalCredalSet._accepted(seen.lower, seen.upper),
        )
        for seen in sets:
            for build in builders:
                cs = build(seen)  # not read before
                identity = (hash(cs), repr(cs), dataclasses.fields(cs))
                for _ in range(10):
                    coeffs = self._random_coeffs(rng, cs.k)
                    for maximize in (False, True):
                        value, point = _lp(cs, coeffs, maximize)
                        assert repr((value, point)) == _outcome(greedy_reference, cs, coeffs, maximize)
                        assert _lp(cs, tuple(coeffs), maximize)[1] is point  # the same order again
                optima = cs._optima
                assert 0 < len(optima) <= _WIDE_OPTIMA
                for order, point in optima.items():
                    assert point is _lp(cs, [order.index(i) for i in range(cs.k)])[1]
                assert cs == seen and (hash(cs), repr(cs), dataclasses.fields(cs)) == identity
                assert dataclasses.astuple(cs) == (cs.lower, cs.upper)
                assert vars(cs) == {"lower": cs.lower, "upper": cs.upper, "_optima": optima}

    def test_wide_optima_are_bounded(self):
        # every order of six states, twice over: far more distinct orders than
        # the bound, each answer still the greedy's and the cache never past it
        cs = normalize_reachable((0.05, 0.1, 0.0, 0.15, 0.1, 0.05), (0.4, 0.3, 0.25, 0.5, 0.35, 0.3))
        orders = list(permutations(range(6)))
        assert len(orders) > 2 * _WIDE_OPTIMA
        sizes = set()
        for maximize in (False, True):
            for order in orders:
                coeffs = [float(order.index(i)) for i in range(6)]
                want = _outcome(greedy_reference, cs, coeffs, maximize)
                value, point = _lp(cs, coeffs, maximize)
                assert repr((value, point)) == want
                assert _lp(cs, coeffs, maximize)[1] is point
                sizes.add(len(cs._optima))
        assert max(sizes) == _WIDE_OPTIMA and min(sizes) == 1  # filled up, emptied, filled again

    def test_wide_optima_shared_by_threads(self):
        # threads that share a set race on its cache: every answer is still
        # the greedy's, and the cache passes the bound by at most one per thread
        cs = normalize_reachable((0.05, 0.1, 0.0, 0.15, 0.1, 0.05), (0.4, 0.3, 0.25, 0.5, 0.35, 0.3))
        rows = [[float(order.index(i)) for i in range(6)] for order in permutations(range(6))]
        want = [_outcome(greedy_reference, cs, row, True) for row in rows]
        sizes, wrong = [], []

        def work(shift):
            for n in range(len(rows)):
                j = (n + shift) % len(rows)
                if repr(_lp(cs, rows[j], True)) != want[j]:
                    wrong.append(rows[j])
                sizes.append(len(cs._optima))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(shift,)) for shift in (0, 180, 360, 540)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(sizes) == 4 * len(rows) and not wrong
        assert max(sizes) <= _WIDE_OPTIMA + len(threads)

    def test_select_centres(self):
        rng = Random(1102)
        sets = [random_reachable(rng, rng.randint(1, 4)) for _ in range(200)]
        sets += [_slack_set(rng, rng.randint(1, 3)) for _ in range(200)]
        sets += [IntervalCredalSet((0.0, 0.0), (1.0, 1.0)), IntervalCredalSet.point((-0.0, 1.0))]
        table = CsddParams(dict(enumerate(sets))).select({}).table
        for nid, cs in enumerate(sets):
            _, want = greedy_reference(cs, (0.0,) * cs.k)
            assert repr(table[nid]) == repr(want)


class TestVertices:
    def test_two_state_interval(self):
        cs = IntervalCredalSet((0.3, 0.3), (0.7, 0.7))
        points = [v.point for v in enumerate_vertices(cs)]
        assert points == [(0.3, 0.7), (0.7, 0.3)]

    def test_point_set_single_vertex(self):
        cs = IntervalCredalSet.point((0.25, 0.75))
        assert [v.point for v in enumerate_vertices(cs)] == [(0.25, 0.75)]

    def test_vertices_sum_to_one_and_respect_bounds(self):
        rng = Random(17)
        for _ in range(200):
            cs = random_reachable(rng, rng.randint(2, 5))
            for vertex in enumerate_vertices(cs):
                assert math.fsum(vertex.point) == pytest.approx(1.0, abs=1e-12)
                assert cs.contains(vertex.point)

    def test_indexes_are_dense(self):
        cs = EXAMPLE_ROOT
        assert [v.index for v in enumerate_vertices(cs)] == list(
            range(len(enumerate_vertices(cs)))
        )

    def test_guard(self):
        k = 13
        cs = IntervalCredalSet.point(tuple(1.0 / k for _ in range(k)))
        with pytest.raises(CredalSetError):
            enumerate_vertices(cs)


@st.composite
def _ratio_problems(draw):
    """A reachable set of 2-6 states from bounds in [0, 1] or ``FUSED_VALUES``
    (the vacuous set if no pmf fits them), and two distinct states, the
    second with a positive lower bound."""
    k = draw(st.integers(2, 6))
    bounds = draw(st.lists(st.one_of(st.sampled_from(FUSED_VALUES), st.floats(0.0, 1.0)),
                           min_size=2 * k, max_size=2 * k))
    try:
        cs = normalize_reachable(tuple(map(min, bounds[:k], bounds[k:])),
                                 tuple(map(max, bounds[:k], bounds[k:])))
    except CredalSetError:
        cs = normalize_reachable((0.0,) * k, (1.0,) * k)
    i, j = draw(st.permutations(range(k)))[:2]
    assume(cs.lower[j] > 0.0)
    return cs, i, j


class TestMaxRatio:
    def test_point_set(self):
        cs = IntervalCredalSet.point((0.2, 0.5, 0.3))
        assert _max_ratio_vertex(cs, 0, 1, 2.0)[0] == pytest.approx(2.0 * 0.2 / 0.5, abs=1e-12)

    def test_two_state_interval(self):
        cs = IntervalCredalSet((0.3, 0.3), (0.7, 0.7))
        assert _max_ratio_vertex(cs, 0, 1)[0] == pytest.approx(0.7 / 0.3, abs=1e-12)

    def test_zero_denominator_rejected(self):
        cs = IntervalCredalSet((0.0, 0.0), (1.0, 1.0))
        with pytest.raises(CredalSetError):
            _max_ratio_vertex(cs, 0, 1)

    def test_matches_vertex_scan(self):
        rng = Random(23)
        for _ in range(300):
            cs = random_reachable(rng, rng.randint(2, 4))
            i = rng.randrange(cs.k)
            j = (i + 1 + rng.randrange(cs.k - 1)) % cs.k
            if cs.lower[j] <= 0:
                continue
            scan = max(v.point[i] / v.point[j] for v in enumerate_vertices(cs))
            value, point = _max_ratio_vertex(cs, i, j)
            assert value == pytest.approx(scan, rel=1e-9)
            # the optimizer is a member of the set that attains the ratio
            assert cs.contains(point) and point[i] / point[j] == pytest.approx(value, rel=1e-9)

    @settings(max_examples=500, deadline=None)
    @given(problem=_ratio_problems(), scale=st.one_of(st.just(1.0), st.floats(1e-3, 1e3)))
    # the fill meets a -0.0 lower bound with no room before the mass runs out
    @example(problem=(IntervalCredalSet((0.5, -0.0, 0.2, 0.1), (0.6, 0.0, 0.4, 0.3)), 0, 2), scale=1.0)
    def test_fill_matches_the_loop(self, problem, scale):
        # the mass left after state i goes through the greedy's fill, which
        # gives the loop's ratio and point bit for bit, except that the loop
        # adds a zero room to a -0.0 bound (giving +0.0) where the fill skips it
        cs, i, j = problem
        got = _outcome(_max_ratio_vertex, cs, i, j, scale)
        want = _outcome(max_ratio_vertex_reference, cs, i, j, scale)
        if any(math.copysign(1.0, l) < 0.0 for l in cs.lower):
            assert _max_ratio_vertex(cs, i, j, scale) == max_ratio_vertex_reference(cs, i, j, scale)
        else:
            assert got == want, (cs, i, j, scale)

    def test_matches_grid_search(self):
        # dense grid over the 3-state simplex slice inside the box
        cs = normalize_reachable((0.2, 0.3, 0.1), (0.5, 0.6, 0.4))
        best = 0.0
        steps = 400
        for a in range(steps + 1):
            t0 = 0.2 + (0.5 - 0.2) * a / steps
            t1_lo = max(0.3, 1 - t0 - 0.4)
            t1_hi = min(0.6, 1 - t0 - 0.1)
            if t1_lo > t1_hi:
                continue
            for b in range(steps + 1):
                t1 = t1_lo + (t1_hi - t1_lo) * b / steps
                best = max(best, t0 / t1)
        assert _max_ratio_vertex(cs, 0, 1)[0] == pytest.approx(best, abs=1e-3)


class TestValidation:
    def test_rejects_inverted_interval(self):
        with pytest.raises(CredalSetError):
            IntervalCredalSet((0.5, 0.5), (0.4, 0.5))

    def test_rejects_unreachable(self):
        with pytest.raises(CredalSetError):
            IntervalCredalSet((0.3, 0.3), (0.9, 0.9))

    def test_exact_rational_endpoints_survive(self):
        cs = EXAMPLE_ROOT
        assert cs.lower[0] == 31 / 101
        assert Fraction(31, 101) == Fraction(cs.lower[0]).limit_denominator(10**6)


def _verdict(check, *args):
    """None when the check accepts, else the refusal's type and message."""
    try:
        check(*args)
    except ValueError as exc:
        return type(exc).__name__, str(exc)
    return None


# values on or next to every bound the two rules test
EDGE_VALUES = (
    0.0, -0.0, 1.0, 0.5, BUILD_TOL, -BUILD_TOL, -BUILD_TOL / 2, 1 - BUILD_TOL,
    1 + BUILD_TOL / 2, 1 + BUILD_TOL, 1 + 2 * BUILD_TOL, SUM_TOL / 2, 1 - SUM_TOL / 2,
    1e308, math.nan, math.inf, -math.inf,
)
NUDGES = (0.0, 5e-17, -5e-17, BUILD_TOL, -BUILD_TOL, SUM_TOL, -SUM_TOL)


def _random_sets(rng: Random, k: int) -> tuple[tuple[float, ...], ...]:
    """(lower, upper, pmf): a reachable set around a random pmf, each number
    at times replaced by an edge value or by the complement of the state
    before it, nudged."""
    weights = [rng.random() for _ in range(k)]
    pmf = [w / sum(weights) for w in weights]
    cs = normalize_reachable(
        [max(0.0, p - rng.uniform(0, 0.3)) for p in pmf],
        [min(1.0, p + rng.uniform(0, 0.3)) for p in pmf],
    )
    out = (list(cs.lower), list(cs.upper), pmf)
    for numbers in out:
        for i in range(k):
            r = rng.random()
            if r < 0.1:
                numbers[i] = rng.choice(EDGE_VALUES)
            elif r < 0.2:
                numbers[i] = 1.0 - numbers[i - 1] + rng.choice(NUDGES)
    return tuple(map(tuple, out))


def _check_local_nodes() -> list[tuple[Circuit, int]]:
    """A TRUE terminal, a two-element decision node whose second sub is
    false, and a one-element decision node, each the root of its circuit."""
    vt = Vtree((1, 2))
    builds = [
        lambda c: c.add_true(vt.leaf_of(2)),
        lambda c: c.add_decision(vt.root, [
            (c.add_literal(1, True), c.add_true(vt.leaf_of(2))),
            (c.add_literal(1, False), c.add_false(vt.leaf_of(2))),
        ]),
        lambda c: c.add_decision(vt.root, [(c.add_true(vt.leaf_of(1)), c.add_literal(2, True))]),
    ]
    out = []
    for build in builds:
        circuit = Circuit(vt)
        circuit.set_root(build(circuit))
        out.append((circuit, circuit.root))
    return out


def _assert_entry(circuit: Circuit, nid: int, *args) -> None:
    """``check_local`` refuses as ``check_local_reference`` and then, for a
    set, ``credal_set_reference`` do, or returns the entry: the pmf itself,
    or a set equal to the constructed one and with its hash."""
    try:
        check_local_reference(circuit, nid, *args)
        if len(args) == 2:
            credal_set_reference(*args)
    except ValueError as exc:
        assert _verdict(check_local, circuit, nid, *args) == (type(exc).__name__, str(exc)), (nid, args)
        return
    got = check_local(circuit, nid, *args)
    if len(args) == 1:
        assert got is args[0], (nid, args)
    else:
        built = IntervalCredalSet(*args)
        assert got == built and hash(got) == hash(built), (nid, args)
        assert (got.lower, got.upper) == args, (nid, args)


class TestUnrolledTwoStateChecks:
    """``check_local`` and ``IntervalCredalSet`` accept one- and two-state
    sets by one closed form; they must accept and refuse, with the same
    message, exactly what the loops of the reference copies do, and
    ``check_local`` must return the entry the reference builds."""

    EDGE_SETS = [
        ((0.0,), (0.0,)),                          # a forbidden lone state
        ((0.0, 1.0), (0.0, 1.0)),                  # a forbidden state beside a certain one
        ((0.0, 0.0), (0.0, 0.0)),
        ((0.0, 0.0), (1.0, 1.0)),                  # vacuous
        ((-BUILD_TOL / 2, 0.5), (0.5, 1 + BUILD_TOL / 2)),
        ((-2 * BUILD_TOL, 0.5), (0.5, 1.0)),
        ((0.5, 0.5 + BUILD_TOL / 2), (0.5, 0.5 + BUILD_TOL / 2)),
        ((0.5, 0.5 + 2 * BUILD_TOL), (0.5, 0.5 + 2 * BUILD_TOL)),
        ((1 - BUILD_TOL / 2, 0.0), (1.0, BUILD_TOL / 2)),
        ((-0.0, 1.0), (-0.0, 1.0)),
        ((-0.0, -0.0), (1.0, 1.0)),
        ((-0.0, -0.0), (-0.0, -0.0)),
        ((1e308, 1e308), (1e308, 1e308)),          # sums that overflow
        ((0.0, 0.0), (1e308, 1e308)),
        ((1.0,), (1.0,)),
        ((1 + BUILD_TOL / 2,), (1 + BUILD_TOL / 2,)),
    ]

    def _assert_same(self, nodes, lower, upper, pmf=None):
        assert _verdict(IntervalCredalSet, lower, upper) == _verdict(
            credal_set_reference, lower, upper
        ), (lower, upper)
        for circuit, nid in nodes:
            for args in ((lower, upper), (lower,), (upper,), (pmf or lower,)):
                _assert_entry(circuit, nid, *args)

    def test_edge_sets(self):
        nodes = _check_local_nodes()
        for lower, upper in self.EDGE_SETS:
            self._assert_same(nodes, lower, upper)

    def test_random_sets(self):
        rng = Random(2024)
        nodes = _check_local_nodes()
        accepted = [0, 0]
        for n in range(3000):
            lower, upper, pmf = _random_sets(rng, 1 + n % 2)
            self._assert_same(nodes, lower, upper, pmf)
            accepted[0] += _verdict(IntervalCredalSet, lower, upper) is None
            accepted[1] += _verdict(check_local, *nodes[0], pmf) is None
        # each rule's closed form accepts some sets and passes the rest to its loop
        assert all(300 < count < 2700 for count in accepted), accepted


def _built(circuit: Circuit, nid: int, lower, upper):
    """``IntervalCredalSet(lower, upper)`` if the reference rules accept the
    bounds, else None."""
    try:
        check_local_reference(circuit, nid, lower, upper)
        credal_set_reference(lower, upper)
    except ValueError:
        return None
    return IntervalCredalSet(lower, upper)


# on and next to every bound the closed form has: a lone state at 1, sums at
# 1 +- BUILD_TOL, a signed zero, and the least upper a false sub may not have
FUSED_VALUES = (
    0.0, -0.0, 5e-324, 0.25, 0.5, 0.75, 1.0, math.nextafter(1.0, 2.0), 1 + 1e-10,
    0.5 - BUILD_TOL, 0.5 + BUILD_TOL, 1 - BUILD_TOL, math.nextafter(1 - BUILD_TOL, 0.0),
    1 + BUILD_TOL,
    math.nextafter(0.5 + BUILD_TOL / 2, 1.0), math.nextafter(0.5 - BUILD_TOL / 2, 0.0),
)


class TestFusedCredalSet:
    """``check_local`` is the one accept step for a set: it returns a set
    exactly when ``check_local_reference`` and then ``credal_set_reference``
    accept the bounds, equal to the constructed one and with its hash."""

    def _assert_same(self, nodes, lower, upper):
        for circuit, nid in nodes:
            _assert_entry(circuit, nid, lower, upper)

    def test_boundary_pairs(self):
        nodes = _check_local_nodes()
        accepted = [0, 0]
        for lo0, up0 in product(FUSED_VALUES, repeat=2):
            self._assert_same(nodes, (lo0,), (up0,))
            accepted[0] += _built(*nodes[2], (lo0,), (up0,)) is not None
        for lower in product(FUSED_VALUES, repeat=2):
            for upper in product(FUSED_VALUES, repeat=2):
                self._assert_same(nodes, lower, upper)
                accepted[1] += _built(*nodes[0], lower, upper) is not None
        for lower, upper in TestUnrolledTwoStateChecks.EDGE_SETS:
            self._assert_same(nodes, lower, upper)
        assert accepted[0] > 0 and accepted[1] > 100, accepted
        # a false second sub may carry 0.0 but not 5e-324
        circuit, nid = nodes[1]
        assert check_local(circuit, nid, (1.0, 0.0), (1.0, 0.0)) == IntervalCredalSet((1.0, 0.0), (1.0, 0.0))
        with pytest.raises(ParamError, match="false sub"):
            check_local(circuit, nid, (1.0, 0.0), (1.0, 5e-324))

    def test_random_pairs(self):
        rng = Random(23)
        nodes = _check_local_nodes()
        for n in range(3000):
            lower, upper, _ = _random_sets(rng, 1 + n % 2)
            self._assert_same(nodes, lower, upper)

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 2).flatmap(lambda k: st.tuples(*[
            st.tuples(*[st.one_of(st.sampled_from(FUSED_VALUES), st.floats(-0.1, 1.1))] * k)
        ] * 2))
    )
    def test_property(self, bounds):
        self._assert_same(_check_local_nodes(), *bounds)


class TestUpperLength:
    """An ``upper`` of another length than the node's state count is a
    ``ParamError`` before the false-sub rule reads ``upper[i]``."""

    @pytest.mark.parametrize("lower, upper", [
        ((0.5, 0.5), (1.0,)),
        ((1.0, 0.0), (1.0,)),
        ((1.0, 0.0), (1.0, 0.0, 0.0)),  # a CredalSetError from the constructor before
        ((0.5, 0.5), ()),
    ])
    def test_refused(self, lower, upper):
        circuit, nid = _check_local_nodes()[1]  # the second sub is false
        message = f"node {nid}: expected 2 upper bounds, got {len(upper)}"
        for check in (check_local, check_local_reference):
            with pytest.raises(ParamError) as info:
                check(circuit, nid, lower, upper)
            assert str(info.value) == message

    def test_invalid_interval_comes_first(self):
        circuit, nid = _check_local_nodes()[1]
        with pytest.raises(ParamError, match="state 0: invalid interval"):
            check_local(circuit, nid, (0.7, 0.3), (0.6,))


class TestShapeRefusals:
    """Bounds of two shapes or of no state, and state indices that a ratio
    cannot take, are refused by name."""

    SHAPE = "lower/upper must be equal-length, non-empty vectors"
    POINT = IntervalCredalSet.point((0.2, 0.5, 0.3))

    @pytest.mark.parametrize("make, message", [
        (lambda: IntervalCredalSet((0.5,), (0.5, 0.5)), SHAPE),
        (lambda: IntervalCredalSet((), ()), SHAPE),
        (lambda: normalize_reachable((0.2, 0.3), (0.9,)), SHAPE),
        (lambda: _max_ratio_vertex(TestShapeRefusals.POINT, 1, 1), "numerator and denominator states must differ"),
        (lambda: _max_ratio_vertex(TestShapeRefusals.POINT, 0, 3), "state index out of range"),
        (lambda: _max_ratio_vertex(TestShapeRefusals.POINT, -1, 0), "state index out of range"),
    ])
    def test_refused_by_name(self, make, message):
        with pytest.raises(CredalSetError) as err:
            make()
        assert str(err.value) == message
