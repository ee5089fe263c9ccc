"""Exact two-phase simplex over the rationals with Bland's anti-cycling rule.

Small and entirely exact: every entry is a `fractions.Fraction`, so there are
no tolerance knobs.  Intended for the small feasibility/canonicalization
problems of the weight oracle, not for large-scale optimization.

`linear_program(c, constraints, then=objectives)` minimizes c, then each
objective of `then` in turn over the optimal face so far, after one phase 1.
At an optimal basis the objective is its optimum plus sum d_j x_j over the
nonbasic columns, all reduced costs d_j >= 0, so the optimal face is where
each column with d_j > 0 is zero.  Later stages bar those columns from
entering and price their objective from the current basis: the same optimum
as fixing each stage's value by an equality row and solving from scratch.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

LE, GE, EQ = "<=", ">=", "=="


@dataclass(frozen=True)
class LPResult:
    status: str
    x: tuple[Fraction, ...] | None


def linear_program(
    c: Sequence[Fraction | int],
    constraints: Sequence[tuple[Sequence[Fraction | int], str, Fraction | int]],
    then: Sequence[Sequence[Fraction | int]] = (),
) -> LPResult:
    """Minimize c.x subject to the given (coeffs, sense, rhs) rows and x >= 0,
    then each objective of `then` in turn; UNBOUNDED if any stage is unbounded."""
    n = len(c)
    objectives = [[Fraction(v) for v in obj] for obj in (c, *then)]
    if any(len(obj) != n for obj in objectives):
        raise ValueError("objective arity mismatch")
    rows: list[list[Fraction]] = []
    senses: list[str] = []
    rhs: list[Fraction] = []
    for coeffs, sense, b in constraints:
        if len(coeffs) != n:
            raise ValueError("constraint arity mismatch")
        if sense not in (LE, GE, EQ):
            raise ValueError(f"bad sense {sense!r}")
        row = [Fraction(v) for v in coeffs]
        b = Fraction(b)
        if b < 0:  # normalize to nonnegative right-hand side
            row = [-v for v in row]
            b = -b
            sense = {LE: GE, GE: LE, EQ: EQ}[sense]
        rows.append(row)
        senses.append(sense)
        rhs.append(b)

    m = len(rows)
    # column layout: structural | slack/surplus | artificial | rhs
    n_slack = sum(1 for s in senses if s != EQ)
    slack_col = {}
    art_col = {}
    col = n
    for i, s in enumerate(senses):
        if s != EQ:
            slack_col[i] = col
            col += 1
    for i, s in enumerate(senses):
        if s in (GE, EQ):
            art_col[i] = col
            col += 1
    width = col
    T = [[Fraction(0)] * (width + 1) for _ in range(m)]
    basis = [0] * m
    for i in range(m):
        T[i][: n] = rows[i]
        T[i][width] = rhs[i]
        if senses[i] == LE:
            T[i][slack_col[i]] = Fraction(1)
            basis[i] = slack_col[i]
        elif senses[i] == GE:
            T[i][slack_col[i]] = Fraction(-1)
            T[i][art_col[i]] = Fraction(1)
            basis[i] = art_col[i]
        else:
            T[i][art_col[i]] = Fraction(1)
            basis[i] = art_col[i]

    artificial = set(art_col.values())

    if artificial:
        # phase 1: minimize the sum of artificial variables
        obj = [Fraction(1) if j in artificial else Fraction(0) for j in range(width + 1)]
        obj[width] = Fraction(0)
        for i in range(m):
            if basis[i] in artificial:
                for j in range(width + 1):
                    obj[j] -= T[i][j]
        status = _pivot_loop(T, obj, basis, range(width))
        if status != OPTIMAL:
            raise RuntimeError(f"phase 1 is always bounded, but the pivot loop returned {status}")
        if -obj[width] != 0:
            return LPResult(INFEASIBLE, None)
        # drive remaining artificials out of the basis
        for i in range(m):
            if basis[i] in artificial:
                pivot_j = next(
                    (j for j in range(width) if j not in artificial and T[i][j] != 0), None
                )
                if pivot_j is not None:
                    _pivot(T, [Fraction(0)] * (width + 1), basis, i, pivot_j)
        keep = [i for i in range(m) if basis[i] not in artificial]
        T = [T[i] for i in keep]
        basis = [basis[i] for i in keep]
        m = len(T)
        for row in T:
            for j in artificial:
                row[j] = Fraction(0)

    # phase 2: one stage per objective, each on the optimal face of the last
    allowed = [j for j in range(width) if j not in artificial]
    for c in objectives:
        obj = c + [Fraction(0)] * (width + 1 - n)
        for i in range(m):
            coef = obj[basis[i]]
            if coef != 0:
                for j in range(width + 1):
                    obj[j] -= coef * T[i][j]
        if _pivot_loop(T, obj, basis, allowed) == UNBOUNDED:
            return LPResult(UNBOUNDED, None)
        allowed = [j for j in allowed if obj[j] == 0]
    x = [Fraction(0)] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = T[i][width]
    return LPResult(OPTIMAL, tuple(x))


def _pivot_loop(T, obj, basis, allowed) -> str:
    """Pivot until no column of `allowed` (ascending) has a negative reduced cost."""
    while True:
        enter = next((j for j in allowed if obj[j] < 0), None)  # Bland: first index
        if enter is None:
            return OPTIMAL
        best_i = None
        best_ratio = None
        for i in range(len(T)):
            if T[i][enter] > 0:
                ratio = T[i][-1] / T[i][enter]
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[i] < basis[best_i])
                ):
                    best_i, best_ratio = i, ratio
        if best_i is None:
            return UNBOUNDED
        _pivot(T, obj, basis, best_i, enter)


def _pivot(T, obj, basis, i, j):
    piv = T[i][j]
    T[i] = [v / piv for v in T[i]]
    for k in range(len(T)):
        if k != i and T[k][j] != 0:
            coef = T[k][j]
            T[k] = [a - coef * b for a, b in zip(T[k], T[i])]
    if obj[j] != 0:
        coef = obj[j]
        for idx in range(len(obj)):
            obj[idx] -= coef * T[i][idx]
    basis[i] = j
