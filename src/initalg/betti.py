"""Graded Betti numbers via Koszul homology with exact linear algebra.

beta_{i,j} = dim Tor_i(R/I, K)_j is read off the degree-j strand of the
Koszul complex on the variables tensored with R/I: quotient arithmetic is
normal forms against a reduced Gröbner basis, strand dimensions come from the
Hilbert function, and ranks are exact.  No free resolution is ever built.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Sequence

from initalg.groebner import MonomialIdeal, ReducedGroebnerBasis, buchberger
from initalg.hilbert import UnitIdealError, hilbert_series_monomial
from initalg.linalg import exact_rank_sparse
from initalg.orders import MonomialOrder, RevLex
from initalg.poly import (
    Monomial,
    PolyRing,
    Polynomial,
    WeightVector,
    is_weight_homogeneous,
)


class BettiInconsistencyError(RuntimeError):
    """A theorem-guaranteed identity failed; indicates an implementation bug."""


@dataclass(frozen=True)
class BettiTable:
    """Nonzero graded Betti numbers of a standard-graded quotient ring."""

    ring: PolyRing
    entries: dict[tuple[int, int], int]  # (homological degree i, internal degree j) -> beta
    j_max: int
    complete: bool

    def beta(self, i: int, j: int) -> int:
        return self.entries.get((i, j), 0)

    def projective_dimension(self) -> int:
        self._require_complete()
        return max((i for (i, _j) in self.entries), default=0)

    def regularity(self) -> int:
        self._require_complete()
        return max((j - i for (i, j) in self.entries), default=0)

    def _require_complete(self):
        if not self.complete:
            raise ValueError(
                f"Betti table truncated at internal degree {self.j_max}; "
                "raise j_max to certify projective dimension and regularity"
            )


def _check_standard_graded(gens: Sequence[Polynomial]):
    ones = WeightVector.ones(gens[0].ring.n)
    if not all(is_weight_homogeneous(g, ones) for g in gens):
        raise ValueError("generators must be homogeneous for the standard grading")


def default_internal_degree_bound(ini: MonomialIdeal) -> int:
    """Degree of the lcm of the minimal generators (a Taylor-complex bound)."""
    if not ini.mingens:
        return 0
    lcm = ini.mingens[0]
    for m in ini.mingens[1:]:
        lcm = lcm.lcm(m)
    return lcm.degree()


def graded_betti(
    gens: Sequence[Polynomial],
    j_max: int | None = None,
    order: MonomialOrder | None = None,
) -> BettiTable:
    """Betti table of R/(gens) for internal degrees <= j_max.

    The default bound is the Taylor bound of the initial ideal, which covers
    every nonzero entry; a smaller explicit bound may leave the table
    incomplete (flagged, and refused by projdim/regularity).  The unit ideal
    raises `UnitIdealError`: R/(1) is the zero module, which has no
    projective dimension or regularity to report.
    """
    if not gens:
        raise ValueError("need generators (possibly the zero polynomial)")
    _check_standard_graded(gens)
    return _betti_table(buchberger(gens, RevLex() if order is None else order), j_max)


def _betti_table(gb: ReducedGroebnerBasis, j_max: int | None) -> BettiTable:
    """`graded_betti` of the ideal whose reduced Gröbner basis is `gb`."""
    ring = gb.ring
    n = ring.n
    ini = gb.initial_ideal()
    if any(m.is_one() for m in ini.mingens):
        raise UnitIdealError("unit ideal: the quotient is the zero ring")
    if j_max is None:
        j_max = default_internal_degree_bound(ini)
    if j_max < 0:
        raise ValueError("j_max must be nonnegative")

    series = hilbert_series_monomial(ini)
    hf = series.expand(j_max)
    numerator = series.numerator  # = H(t) * (1-t)^n for the standard grading

    std = {d: ini.standard_monomials(WeightVector.ones(n), d) for d in range(j_max + 1)}
    std_index: dict[int, dict[tuple[int, ...], int]] = {
        d: {m.exponents: i for i, m in enumerate(ms)} for d, ms in std.items()
    }

    # normal form of x_var * m as (column among the next degree's standard
    # monomials, coefficient) pairs; a coefficient is an int when integral
    fragments: dict[tuple[int, tuple[int, ...]], list[tuple[int, Fraction | int]]] = {}

    def nf_times_var(var: int, exps: tuple[int, ...], target: dict[tuple[int, ...], int]):
        key = (var, exps)
        frag = fragments.get(key)
        if frag is None:
            shifted = exps[:var] + (exps[var] + 1,) + exps[var + 1:]
            if shifted in target:  # standard: its own normal form
                frag = [(target[shifted], 1)]
            else:
                nf = gb.normal_form(Polynomial.from_dict(ring, {Monomial(shifted): Fraction(1)}))
                frag = [
                    (target[t.mono.exponents],
                     t.coeff.numerator if t.coeff.denominator == 1 else t.coeff)
                    for t in nf.terms
                ]
            fragments[key] = frag
        return frag

    def strand_rank(i: int, j: int) -> int:
        """Rank of the Koszul differential from exterior degree i, internal degree j."""
        if i < 1 or i > n or j - i < 0 or j - i + 1 > j_max:
            return 0
        source_monos = std.get(j - i, [])
        target_monos = std_index.get(j - i + 1, {})
        target_sets = {S: k for k, S in enumerate(combinations(range(n), i - 1))}
        if not source_monos or not target_monos or not target_sets:
            return 0
        width = len(target_monos)
        # per subset S: (var, sign, first column of the block of S minus var)
        faces = [
            [(var, pos % 2, target_sets[S[:pos] + S[pos + 1:]] * width)
             for pos, var in enumerate(S)]
            for S in combinations(range(n), i)
        ]
        rows = []
        for face in faces:
            for m in source_monos:
                exps = m.exponents
                row: dict[int, Fraction | int] = {}
                for var, odd, base in face:
                    for col, c in nf_times_var(var, exps, target_monos):
                        row[base + col] = -c if odd else c
                rows.append(row)
        return exact_rank_sparse(rows)

    ranks: dict[tuple[int, int], int] = {}
    entries: dict[tuple[int, int], int] = {}
    for j in range(j_max + 1):
        for i in range(min(j, n) + 1):
            if (i, j) not in ranks:
                ranks[(i, j)] = strand_rank(i, j)
            if (i + 1, j) not in ranks:
                ranks[(i + 1, j)] = strand_rank(i + 1, j)
            dim = comb(n, i) * (hf[j - i] if 0 <= j - i <= j_max else 0)
            beta = dim - ranks[(i, j)] - ranks[(i + 1, j)]
            if beta < 0:
                raise BettiInconsistencyError(f"negative Betti number at {(i, j)}")
            if beta:
                entries[(i, j)] = beta
        euler = sum((-1) ** i * entries.get((i, j), 0) for i in range(n + 1))
        expected = numerator[j] if j < len(numerator) else 0
        if euler != expected:
            raise BettiInconsistencyError(
                f"Euler check failed in degree {j}: {euler} != {expected}"
            )
    complete = all(c == 0 for c in numerator[j_max + 1 :])
    return BettiTable(ring, entries, j_max, complete)


@dataclass(frozen=True)
class BettiComparison:
    """Entrywise comparison of the tables of R/I and R/ini(I)."""

    quotient: BettiTable
    initial: BettiTable
    projdim: tuple[int, int]  # (R/I, R/ini)
    regularity: tuple[int, int]


def betti_comparison(
    gens: Sequence[Polynomial], order: MonomialOrder | None = None
) -> BettiComparison:
    """Tables for R/I and R/ini(I); the quotient's numbers never exceed the monomial ones.

    Both tables run to the Taylor bound of ini(I), which covers every nonzero entry.

    The entrywise inequality (and those for projective dimension and
    regularity) is a theorem, so any violation raises an internal error
    rather than producing a report.
    """
    if order is None:
        order = RevLex()
    if not gens:
        raise ValueError("need generators")
    _check_standard_graded(gens)
    gb = buchberger(gens, order)
    quotient = _betti_table(gb, None)
    initial = graded_betti(list(gb.initial_ideal().polynomials()) or [gens[0].ring.zero()])
    for (i, j), beta in quotient.entries.items():
        if beta > initial.beta(i, j):
            raise BettiInconsistencyError(
                f"beta_{i},{j}: quotient {beta} exceeds initial {initial.beta(i, j)}"
            )
    pd = (quotient.projective_dimension(), initial.projective_dimension())
    rg = (quotient.regularity(), initial.regularity())
    if pd[0] > pd[1] or rg[0] > rg[1]:
        raise BettiInconsistencyError("projective dimension or regularity inequality violated")
    return BettiComparison(quotient, initial, pd, rg)


def format_betti_table(table: BettiTable) -> str:
    """Conventional layout: rows are j - i, columns are homological degree i."""
    if not table.entries:
        return "(zero table)"
    max_i = max(i for (i, _j) in table.entries)
    max_row = max(j - i for (i, j) in table.entries)
    lines = []
    header = ["    "] + [f"{i:>6}" for i in range(max_i + 1)]
    lines.append("".join(header))
    for row in range(max_row + 1):
        cells = [f"{row:>4}"]
        for i in range(max_i + 1):
            v = table.beta(i, row + i)
            cells.append(f"{v if v else '.':>6}")
        lines.append("".join(cells))
    return "\n".join(lines)
