"""Exact rank: sparse elimination agrees with the dense Bareiss reference and known values."""

from __future__ import annotations

import random

from fractions import Fraction

import pytest

from conftest import bareiss_rank
from initalg.linalg import exact_rank, exact_rank_sparse


def to_sparse(rows):
    return [{j: v for j, v in enumerate(row) if v} for row in rows]


def test_known_ranks():
    assert exact_rank([]) == 0
    assert exact_rank([[0, 0], [0, 0]]) == 0
    assert exact_rank([[1, 2], [2, 4]]) == 1
    assert exact_rank([[1, 0], [0, 1]]) == 2
    assert exact_rank([[Fraction(1, 2), Fraction(1, 3)], [1, 1]]) == 2


def test_ragged_rejected():
    with pytest.raises(ValueError):
        exact_rank([[1, 2], [1]])


def test_sparse_known_ranks():
    assert exact_rank_sparse([]) == 0
    assert exact_rank_sparse([{}, {}]) == 0
    assert exact_rank_sparse(to_sparse([[1, 2], [2, 4]])) == 1
    assert exact_rank_sparse(to_sparse([[1, 0], [0, 1], [1, 1]])) == 2


def test_dense_and_sparse_agree_on_random_matrices():
    rng = random.Random(424242)
    for _ in range(40):
        m = rng.randint(1, 6)
        n = rng.randint(1, 6)
        rows = [
            [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
            for _ in range(m)
        ]
        # plant some dependencies
        if m >= 2 and rng.random() < 0.5:
            rows[-1] = [2 * v for v in rows[0]]
        dense = bareiss_rank(rows)
        sparse = exact_rank_sparse(to_sparse(rows))
        assert dense == sparse == exact_rank(rows) <= min(m, n)


def test_duplicate_rows_do_not_inflate_rank():
    row = {0: Fraction(1), 3: Fraction(-2)}
    assert exact_rank_sparse([dict(row) for _ in range(5)]) == 1


def _random_entry(rng):
    """An int, a Fraction (denominator up to 9) or an explicit zero of either type."""
    kind = rng.random()
    if kind < 0.2:
        return rng.choice([0, Fraction(0)])
    if kind < 0.5:
        return rng.randint(-9, 9)
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def test_sparse_matches_dense_reference_on_rational_matrices():
    rng = random.Random(20260612)
    matrices = []
    for _ in range(240):
        m, n = rng.randint(1, 12), rng.randint(1, 12)
        rows = [[_random_entry(rng) for _ in range(n)] for _ in range(m)]
        # plant dependencies: some rows become rational combinations of others
        for r in range(1, m):
            if rng.random() < 0.3:
                sources = rng.sample(range(r), rng.randint(1, min(3, r)))
                coeffs = [Fraction(rng.randint(-5, 5), rng.randint(1, 9)) for _ in sources]
                rows[r] = [sum((c * rows[s][k] for c, s in zip(coeffs, sources)), Fraction(0))
                           for k in range(n)]
        matrices.append(rows)
    matrices.append([[Fraction(1, i + j + 1) for j in range(10)] for i in range(10)])
    for rows in matrices:
        # keep explicit zeros in the dicts
        sparse = [{j: v for j, v in enumerate(row) if v or rng.random() < 0.5} for row in rows]
        before = [dict(r) for r in sparse]
        rank = exact_rank_sparse(sparse)
        assert rank == bareiss_rank(rows) <= min(len(rows), len(rows[0]))
        assert sparse == before
        assert [[type(v) for v in r.values()] for r in sparse] == [
            [type(v) for v in r.values()] for r in before
        ]
    assert exact_rank_sparse(to_sparse(matrices[-1])) == 10
