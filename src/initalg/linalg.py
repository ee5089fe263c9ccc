"""Exact rank of rational matrices: fraction-free sparse elimination, dense Bareiss reference.

Both routines clear each row to integers once and eliminate over the
integers (Bareiss 1968 for the dense one, primitive integer pivots for the
sparse one); no `Fraction` is built during elimination.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
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


def exact_rank_sparse(rows: Iterable[dict[int, Fraction | int]]) -> int:
    """Rank over the rationals of sparsely stored rows, pivoting on the largest column.

    Each row is cleared to integers once (by the lcm of its denominators)
    and reduced against primitive integer pivots with a positive lead: with
    pivot lead a and work entry c, g = gcd(a, c), the work row becomes
    (a/g)*work - (c/g)*pivot.  A row that survives becomes a pivot after its
    content is divided out.  The caller's dicts are not modified.

    Effective when rows are near-echelon for the chosen column numbering
    (e.g. graded pieces of an ideal with columns sorted by a monomial order).
    """
    pivots: dict[int, tuple[int, list[tuple[int, int]]]] = {}
    for row in rows:
        if all(type(v) is int for v in row.values()):
            work = {k: v for k, v in row.items() if v}
        else:
            mult = lcm(*(v.denominator for v in row.values()))
            work = {k: v.numerator * (mult // v.denominator) for k, v in row.items() if v}
        while work:
            lead = max(work)
            pivot = pivots.get(lead)
            if pivot is None:
                content = gcd(*work.values())
                if work[lead] < 0:
                    content = -content
                a = work.pop(lead) // content
                pivots[lead] = (a, [(k, v // content) for k, v in work.items()])
                break
            a, tail = pivot
            c = work.pop(lead)
            g = gcd(a, c)
            if g != a:
                scale = a // g
                for k in work:
                    work[k] *= scale
            c //= g
            for k, v in tail:
                nv = work.get(k, 0) - c * v
                if nv:
                    work[k] = nv
                else:
                    del work[k]
    return len(pivots)
