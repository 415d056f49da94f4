"""Seeded inputs shared by the workloads: formulas, their models, datasets.

Everything here is derived from a ``random.Random`` the caller seeds, and
nothing depends on how csdd compiles a formula: models are enumerated by
a small solver of our own, so the same seed gives the same rows on every
version of the package, and the enumerated count is an independent
reference for ``model_count``.
"""

from __future__ import annotations

from random import Random

from csdd.formula import Var, conj, disj
from csdd.learn import Dataset

Clause = tuple[int, ...]  # signed literals: v means x_v, -v means not x_v


def random_3cnf(rng: Random, n: int, m: int) -> list[Clause]:
    """``m`` clauses of three distinct variables out of ``1..n``, random signs."""
    return [
        tuple(v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), 3))
        for _ in range(m)
    ]


def chain_clauses(n: int) -> list[Clause]:
    """The implication chain ``x_i -> x_{i+1}``; its models are ``0^j 1^(n-j)``."""
    return [(-i, i + 1) for i in range(1, n)]


def to_formula(clauses: list[Clause]):
    return conj(disj(Var(l) if l > 0 else ~Var(-l) for l in c) for c in clauses)


def models(n: int, clauses: list[Clause]) -> list[int]:
    """All models as bit masks (bit ``v - 1`` is ``x_v``), ascending.

    Depth-first over ``x_1..x_n``; a clause is tested once its highest
    variable is set, which prunes early enough for the sizes used here.
    """
    by_last: list[list[tuple[int, int]]] = [[] for _ in range(n + 1)]
    for c in clauses:
        pos = sum(1 << (l - 1) for l in c if l > 0)
        neg = sum(1 << (-l - 1) for l in c if l < 0)
        by_last[max(abs(l) for l in c)].append((pos, neg))
    out = []
    stack = [(0, 0)]
    while stack:
        k, bits = stack.pop()
        if k == n:
            out.append(bits)
            continue
        for b in (0, 1):
            nb = bits | (b << k)
            if all((nb & pos) or (~nb & neg) for pos, neg in by_last[k + 1]):
                stack.append((k + 1, nb))
    return sorted(out)


def sample_dataset(rng: Random, n: int, model_bits: list[int], draws: int) -> Dataset:
    """``draws`` rows, uniform over the given models, tallied into counts."""
    tally: dict[int, int] = {}
    for _ in range(draws):
        bits = rng.choice(model_bits)
        tally[bits] = tally.get(bits, 0) + 1
    names = tuple(f"X{i}" for i in range(1, n + 1))
    rows = [(tuple(bool(b >> i & 1) for i in range(n)), k) for b, k in sorted(tally.items())]
    return Dataset(names, rows)


def chain_models(n: int) -> list[int]:
    return sorted(((1 << n) - 1) ^ ((1 << j) - 1) for j in range(n + 1))
