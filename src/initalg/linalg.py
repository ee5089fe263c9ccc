"""Exact rank of rational matrices by fraction-free sparse elimination.

Each row is cleared to integers once and reduced against primitive integer
pivots, so no `Fraction` is built during elimination.  `exact_rank_sparse` is
the one elimination loop, and dense rows take the same route; the dense
Bareiss elimination (Bareiss 1968) is the tests' reference.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence


def exact_rank(rows: Sequence[Sequence[Fraction | int]]) -> int:
    """Rank over the rationals of dense rows of Fraction/int, by `exact_rank_sparse`."""
    if any(len(row) != len(rows[0]) for row in rows):
        raise ValueError("ragged matrix")
    return exact_rank_sparse({j: Fraction(v) for j, v in enumerate(row) if v} for row in rows)


def exact_rank_sparse(rows: Iterable[dict[int, Fraction | int]]) -> int:
    """Rank over the rationals of sparsely stored rows, pivoting on the largest column.

    Effective when rows are near-echelon for the chosen column numbering
    (e.g. graded pieces of an ideal with columns sorted by a monomial order).
    A pivot maps its lead column to (a, tail), a primitive integer row with
    positive lead a.  Each row is cleared to integers once (by the lcm of its
    denominators) and reduced: with pivot lead a and work entry c,
    g = gcd(a, c), the work row becomes (a/g)*work - (c/g)*pivot.  A row that
    survives becomes a pivot after its content is divided out, so the pivots
    stay an echelon basis of the span.  The caller's row dicts are not modified.
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
