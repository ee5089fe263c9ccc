"""Exact two-phase simplex with Bland's anti-cycling rule on an integer tableau.

Exact, with no tolerance knobs; meant for the small problems of the weight
oracle.  The tableau is fraction-free (Edmonds 1967; Bareiss 1968): for the
basis B of the integer rows and D = |det B| > 0 it holds D*(B^-1 A | B^-1 b),
and the objective row D times the reduced costs.  A pivot on entry p of row
i keeps row i (negated first if p < 0, which only an artificial drive-out
meets), sets D to |p| and turns each other row k into (p*row_k - a_kj*row_i)/D,
exact by Cramer's rule and checked.  Dividing by D > 0 keeps every sign and
ratio, so the pivots are Bland's on the rational tableau.  Scaling an input
row to integers leaves that tableau unchanged, and its slack and artificial
keep the entry +-1, which scales their columns by positive factors: phase 1
prices the artificial of a row scaled by s at L/s (L the lcm of the s).

`linear_program(c, constraints, then=objectives)` minimizes c after one
phase 1, then each objective of `then` over the optimal face so far: where
each column with reduced cost d_j > 0 at the last optimal basis is zero.
Later stages bar those columns from entering and price from the current
basis, which fixes each earlier optimum as an equality row would.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from initalg.poly import _Value

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

LE, GE, EQ = "<=", ">=", "=="


class LPResult(_Value):
    status: str
    x: tuple[Fraction, ...] | None
    pivots: int  # over phase 1, the artificial drive-out and every stage


def linear_program(
    c: Sequence[Fraction | int],
    constraints: Sequence[tuple[Sequence[Fraction | int], str, Fraction | int]],
    then: Sequence[Sequence[Fraction | int]] = (),
) -> LPResult:
    """Minimize c.x subject to the given (coeffs, sense, rhs) rows and x >= 0,
    then each objective of `then` in turn; UNBOUNDED if any stage is unbounded."""
    n = len(c)
    objectives = [_integer_row(obj)[0] for obj in (c, *then)]
    if any(len(obj) != n for obj in objectives):
        raise ValueError("objective arity mismatch")
    rows: list[tuple[list[int], str, int]] = []  # (scaled coeffs + rhs, sense, scale)
    for coeffs, sense, b in constraints:
        if len(coeffs) != n:
            raise ValueError("constraint arity mismatch")
        if sense not in (LE, GE, EQ):
            raise ValueError(f"bad sense {sense!r}")
        row, scale = _integer_row([*coeffs, b])
        if row[-1] < 0:  # normalize to nonnegative right-hand side
            row = [-v for v in row]
            sense = {LE: GE, GE: LE, EQ: EQ}[sense]
        rows.append((row, sense, scale))

    # column layout: structural | slack/surplus | artificial | rhs
    art0 = n + sum(1 for _, s, _ in rows if s != EQ)
    width = art0 + sum(1 for _, s, _ in rows if s != LE)
    T, basis, slack, art = [], [], n, art0
    for row, sense, _ in rows:
        T.append(row[:n] + [0] * (width - n) + row[n:])
        if sense != EQ:
            T[-1][slack] = 1 if sense == LE else -1
            slack += 1
        if sense != LE:
            T[-1][art] = 1
            art += 1
        basis.append(slack - 1 if sense == LE else art - 1)
    tab = _Tableau(T, basis)

    if width > art0:
        # phase 1: minimize the sum of artificial variables, each in its row's unscaled units
        scales = [scale for _, s, scale in rows if s != LE]
        obj = tab.price([0] * art0 + [lcm(*scales) // s for s in scales] + [0])
        if tab.optimize(obj, range(width)) != OPTIMAL:
            raise RuntimeError("phase 1 is always bounded, but the pivot loop found it unbounded")
        if obj[width] != 0:
            return LPResult(INFEASIBLE, None, tab.pivots)
        # drive remaining artificials out of the basis; a row left with one is redundant
        for i in range(len(T)):
            if tab.basis[i] >= art0 and any(T[i][:art0]):
                tab.pivot(i, next(j for j in range(art0) if T[i][j]), None)
        keep = [i for i, b in enumerate(tab.basis) if b < art0]
        T[:] = [T[i][:art0] + T[i][-1:] for i in keep]
        tab.basis = [tab.basis[i] for i in keep]

    # phase 2: one stage per objective, each on the optimal face of the last
    allowed = range(art0)
    for cost in objectives:
        obj = tab.price(cost + [0] * (art0 + 1 - n))
        if tab.optimize(obj, allowed) == UNBOUNDED:
            return LPResult(UNBOUNDED, None, tab.pivots)
        allowed = [j for j in allowed if obj[j] == 0]
    value = {b: row[-1] for b, row in zip(tab.basis, T)}
    x = tuple(Fraction(value.get(j, 0), tab.det) for j in range(n))
    return LPResult(OPTIMAL, x, tab.pivots)


def _integer_row(values: Sequence[Fraction | int]) -> tuple[list[int], int]:
    """The values times the least positive integer that clears their denominators, and it."""
    if all(type(v) is int for v in values):
        return list(values), 1
    fracs = [Fraction(v) for v in values]
    scale = lcm(*(v.denominator for v in fracs))
    return [v.numerator * (scale // v.denominator) for v in fracs], scale


class _Tableau:
    """Integer rows D*(B^-1 A | B^-1 b), basis column per row, D, pivot count."""

    def __init__(self, rows: list[list[int]], basis: list[int]):
        self.rows, self.basis, self.det, self.pivots = rows, basis, 1, 0

    def price(self, cost: list[int]) -> list[int]:
        """Objective row for `cost` (rhs entry 0): D*cost minus cost_B times the rows."""
        obj = [self.det * v for v in cost]
        for row, b in zip(self.rows, self.basis):
            if cost[b]:
                obj = [u - cost[b] * v for u, v in zip(obj, row)]
        return obj

    def optimize(self, obj: list[int], allowed) -> str:
        """Pivot until no column of `allowed` (ascending) has a negative reduced cost."""
        T, basis = self.rows, self.basis
        while True:
            enter = next((j for j in allowed if obj[j] < 0), None)  # Bland: first index
            if enter is None:
                return OPTIMAL
            candidates = [i for i, row in enumerate(T) if row[enter] > 0]
            if not candidates:
                return UNBOUNDED
            best = candidates[0]
            for i in candidates[1:]:  # least ratio rhs/entry, by cross-multiplication
                lhs, rhs = T[i][-1] * T[best][enter], T[best][-1] * T[i][enter]
                if lhs < rhs or (lhs == rhs and basis[i] < basis[best]):
                    best = i
            self.pivot(best, enter, obj)

    def pivot(self, i: int, j: int, obj: list[int] | None) -> None:
        T, D = self.rows, self.det
        p = T[i][j]  # p < 0: negating row i first negates every row and obj after the pivot
        row = T[i] = T[i] if p > 0 else [-v for v in T[i]]
        p = abs(p)
        for k in range(len(T)):
            if k != i:
                T[k] = _bareiss(T[k], p, T[k][j], row, D)
        if obj is not None:
            obj[:] = _bareiss(obj, p, obj[j], row, D)
        self.basis[i], self.det, self.pivots = j, p, self.pivots + 1


def _bareiss(row: list[int], p: int, a: int, pivot_row: list[int], D: int) -> list[int]:
    """(p*row - a*pivot_row) / D, raising unless D divides every entry."""
    if not a and p == D:
        return row
    new = [p * u - a * v for u, v in zip(row, pivot_row)] if a else [p * u for u in row]
    if D == 1:
        return new
    if gcd(*new) % D:
        raise RuntimeError(f"inexact Bareiss division by {D}: the tableau is corrupt")
    return [v // D for v in new]
