"""Exact rank of rational matrices: sparse row reduction, plus a dense Bareiss reference."""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence


def exact_rank(rows: Sequence[Sequence[Fraction | int]]) -> int:
    """Rank over the rationals of dense rows of Fraction/int, by fraction-free Bareiss.

    The dense reference that tests check `exact_rank_sparse` against; the
    library ranks its matrices with `exact_rank_sparse`.
    """
    if not rows:
        return 0
    width = len(rows[0])
    mat: list[list[int]] = []
    for row in rows:
        if len(row) != width:
            raise ValueError("ragged matrix")
        fr = [Fraction(v) for v in row]
        mult = lcm(*(v.denominator for v in fr)) if fr else 1
        mat.append([int(v * mult) for v in fr])
    m, n = len(mat), width
    rank = 0
    prev = 1
    for col in range(n):
        pivot = next((r for r in range(rank, m) if mat[r][col] != 0), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        p = mat[rank][col]
        for r in range(rank + 1, m):
            for c in range(col + 1, n):
                mat[r][c] = (p * mat[r][c] - mat[r][col] * mat[rank][c]) // prev
            mat[r][col] = 0
        prev = p
        rank += 1
        if rank == m:
            break
    return rank


def exact_rank_sparse(rows: Iterable[dict[int, Fraction]]) -> int:
    """Rank over the rationals of sparsely stored rows, pivoting on the largest column.

    Effective when rows are near-echelon for the chosen column numbering
    (e.g. graded pieces of an ideal with columns sorted by a monomial order).
    """
    pivots: dict[int, dict[int, Fraction]] = {}
    rank = 0
    for row in rows:
        work = {c: Fraction(v) for c, v in row.items() if v}
        while work:
            lead = max(work)
            pivot = pivots.get(lead)
            if pivot is None:
                inv = work[lead]
                pivots[lead] = {c: v / inv for c, v in work.items()}
                rank += 1
                break
            factor = work.pop(lead)
            for c, v in pivot.items():
                if c == lead:
                    continue
                nv = work.get(c, Fraction(0)) - factor * v
                if nv:
                    work[c] = nv
                else:
                    work.pop(c, None)
    return rank
