"""Graded Betti numbers: the table of ini(I), in closed form or over its lcm
lattice, corrected to R/I.

beta_{i,j} = dim Tor_i(R/I, K)_j.  The table of R/ini(I) comes first.  When
the minimal generators u_1, ..., u_m of ini(I), in non-decreasing degree,
have linear quotients (each colon (u_1, ..., u_{k-1}) : u_k is generated by
r_k variables), beta_{i+1,i+deg u_k} sums C(r_k, i) over k (Herzog-Takayama
2002; Herzog-Hibi, Monomial Ideals, Cor. 8.2.2).  When a greedy search finds
no such order, only elements b of the lcm lattice carry nonzero multigraded
Betti numbers (Gasharov-Peeva-Welker 1999), and beta_{i,b} is the reduced
homology of the upper Koszul complex K^b (Miller-Sturmfels 2005, Thm 1.34),
ranked on small ±1 boundary matrices.  Either way, the alternating sum of
each degree must equal the Hilbert numerator of ini(I), computed apart.

R/I and R/ini(I) have the same Hilbert function, so the degree-j strands of
the Koszul complex on the variables tensored with either quotient have the
same dimensions.  Under the degeneration to ini(I) a strand rank can only
drop, and the two tables differ only by those drops, which are possible only
where beta_{i,j}(ini) and beta_{i-1,j}(ini) are both nonzero (consecutive
cancellation, Peeva 2004).  Only those strands of R/I are ranked, exactly,
with quotient arithmetic by normal forms against a reduced Gröbner basis.
One Buchberger pair loop serves both: ini(I) is read from the leads of its
rows, and the reduced basis is built from the same rows only when a strand
is ranked.  No free resolution is ever built.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import combinations
from math import comb
from typing import Sequence

from initalg.groebner import MonomialIdeal, _groebner_rows, _lead_ideal, _reduced_basis
from initalg.hilbert import UnitIdealError, hilbert_series_monomial
from initalg.linalg import exact_rank_sparse
from initalg.orders import MonomialOrder, RevLex
from initalg.poly import (
    Monomial,
    PolyRing,
    Polynomial,
    WeightVector,
    _Value,
    is_weight_homogeneous,
)


class BettiInconsistencyError(RuntimeError):
    """A theorem-guaranteed identity failed; indicates an implementation bug."""


class BettiTable(_Value):
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
    return sum(map(max, zip(*(m.exponents for m in ini.mingens))))


def graded_betti(
    gens: Sequence[Polynomial],
    j_max: int | None = None,
    order: MonomialOrder | None = None,
) -> BettiTable:
    """Betti table of R/(gens) for internal degrees <= j_max.

    The default bound is the Taylor bound of the initial ideal, which covers
    every nonzero entry; below it the table is flagged incomplete, and
    projdim/regularity are refused, even when no entry is missing.  The
    unit ideal raises `UnitIdealError`: R/(1) is the zero module, which has
    no projective dimension or regularity to report.
    """
    if not gens:
        raise ValueError("need generators (possibly the zero polynomial)")
    if j_max is not None:
        if not isinstance(j_max, int) or isinstance(j_max, bool):
            raise ValueError(f"j_max must be an integer, got {j_max!r}")
        if j_max < 0:
            raise ValueError("j_max must be nonnegative")
    _check_standard_graded(gens)
    return _betti_tables(gens, RevLex() if order is None else order, j_max)[0]


def _lcm_lattice(gens: Sequence[tuple[int, ...]], j_max: int) -> list[tuple[int, ...]]:
    """Sorted lcms of nonempty sets of `gens` (exponent tuples) of degree <= j_max.

    An lcm of degree > j_max stays above j_max under further lcms, so it is
    dropped at once.
    """
    gens = [g for g in gens if sum(g) <= j_max]
    lattice = set(gens)
    frontier = gens
    while frontier:
        grown = []
        for b in frontier:
            for g in gens:
                c = tuple(map(max, b, g))
                if c not in lattice and sum(c) <= j_max:
                    lattice.add(c)
                    grown.append(c)
        frontier = grown
    return sorted(lattice)


def _upper_koszul_betti(b: tuple[int, ...], gens: Sequence[tuple[int, ...]]) -> list[int]:
    """[beta_{1,b}, beta_{2,b}, ...] of R/M: dim H~_{i-2} of K^b = {F : x^{b-F} in M}.

    x^{b-F} is in M when a generator g divides x^b and F avoids every k with
    g_k = b_k, so K^b is generated by one facet (a bitmask of variables) per
    generator dividing x^b.  b is an lcm of generators, so each variable of
    b is missing from some facet: K^b is never a cone.  The reduced homology
    comes from the ranks of the ±1 boundary maps, by face size.
    """
    masks = {
        sum(1 << k for k, (a, e) in enumerate(zip(g, b)) if a < e)
        for g in gens
        if all(a <= e for a, e in zip(g, b))
    }
    faces = {0}
    for f in masks:
        sub = f
        while sub:
            faces.add(sub)
            sub = (sub - 1) & f
    sizes = {face: bin(face).count("1") for face in faces}
    by_size: list[list[int]] = [[] for _ in range(max(sizes.values()) + 1)]
    for face in sorted(faces):
        by_size[sizes[face]].append(face)
    ranks = [0]
    for size in range(1, len(by_size)):
        lower = {face: k for k, face in enumerate(by_size[size - 1])}
        rows = []
        for face in by_size[size]:
            row, sign, rest = {}, 1, face
            while rest:
                bit = rest & -rest
                row[lower[face ^ bit]] = sign
                sign, rest = -sign, rest ^ bit
            rows.append(row)
        ranks.append(exact_rank_sparse(rows))
    ranks.append(0)
    return [len(by_size[s]) - ranks[s] - ranks[s + 1] for s in range(len(by_size))]


def _lattice_entries(gens: Sequence[tuple[int, ...]], j_max: int) -> dict[tuple[int, int], int]:
    """Graded Betti numbers of R/(gens) in degrees <= j_max, summed over the lcm lattice."""
    entries = {(0, 0): 1}
    for b in _lcm_lattice(gens, j_max):
        j = sum(b)
        for i, beta in enumerate(_upper_koszul_betti(b, gens), start=1):
            if beta:
                entries[(i, j)] = entries.get((i, j), 0) + beta
    return entries


def _linear_quotients(gens: Sequence[tuple[int, ...]]) -> list[tuple[int, int]] | None:
    """(deg u_k, r_k) along an order of `gens` with linear quotients, or None.

    `gens` is a minimal generating set.  The colon (u_1, ..., u_{k-1}) : u_k
    is generated by the quotients u_i / gcd(u_i, u_k); it is generated by
    variables when each quotient is divisible by one that is a variable, and
    r_k counts those variables.  The search is greedy in non-decreasing
    degree: it places the first generator of the lowest degree left whose
    colon is generated by variables, and gives up when there is none.
    """
    placed: list[tuple[int, ...]] = []
    found = []
    left = sorted(gens, key=sum)
    while left:
        low = sum(left[0])
        for pos, u in enumerate(left):
            if sum(u) > low:
                return None
            linear, supports = 0, []
            for p in placed:
                diff = [(v, a - b) for v, (a, b) in enumerate(zip(p, u)) if a > b]
                if len(diff) == 1 and diff[0][1] == 1:
                    linear |= 1 << diff[0][0]
                supports.append(sum(1 << v for v, _ in diff))
            if all(mask & linear for mask in supports):
                break
        else:
            return None
        placed.append(left.pop(pos))
        found.append((low, bin(linear).count("1")))
    return found


def _initial_entries(ini: MonomialIdeal, j_max: int) -> dict[tuple[int, int], int]:
    """Graded Betti numbers of R/ini in degrees <= j_max: the closed form, else the lattice.

    A generator of degree > j_max divides no monomial of degree <= j_max.
    """
    gens = [m.exponents for m in ini.mingens if m.degree() <= j_max]
    quotients = _linear_quotients(gens)
    if quotients is None:
        entries = _lattice_entries(gens, j_max)
    else:
        entries = {(0, 0): 1}
        for d, r in quotients:
            for i in range(min(r, j_max - d) + 1):
                entries[(i + 1, i + d)] = entries.get((i + 1, i + d), 0) + comb(r, i)
    return dict(sorted(entries.items(), key=lambda e: (e[0][1], e[0][0])))


def _betti_tables(
    gens: Sequence[Polynomial], order: MonomialOrder, j_max: int | None
) -> tuple[BettiTable, BettiTable]:
    """Tables of R/I and of R/ini(I), I = (gens), ini taken under `order`.

    ini(I) comes from the leads of one Buchberger pair loop, and the reduced
    basis from its rows, on the first normal form a strand needs.  R/I and
    R/ini have the same Hilbert function, so their Koszul strands K_{i,j}
    have the same dimensions, and the ini table fixes every ini strand rank
    r_{i,j} (downward in i from r_{n+1,j} = 0).  With delta_{i,j} = rank_I - r_{i,j},
    beta_{i,j}(R/I) = beta_{i,j}(ini) - delta_{i,j} - delta_{i+1,j}; a
    strand of R/I is ranked only where beta_{i,j}(ini) and
    beta_{i-1,j}(ini) are both nonzero, since delta_{i,j} = 0 elsewhere.
    """
    ring = gens[0].ring
    n = ring.n
    rows = _groebner_rows(gens, order, None)
    ini = _lead_ideal(ring, rows)
    if any(m.is_one() for m in ini.mingens):
        raise UnitIdealError("unit ideal: the quotient is the zero ring")
    taylor = default_internal_degree_bound(ini)
    if j_max is None:
        j_max = taylor
    reduced_basis = cache(lambda: _reduced_basis(ring, order, rows))

    series = hilbert_series_monomial(ini)
    hf = series.expand(j_max)
    numerator = series.numerator  # = H(t) * (1-t)^n for the standard grading
    initial = _initial_entries(ini, j_max)

    # column of each standard monomial of a degree, for ranked strands only
    columns: dict[int, dict[tuple[int, ...], int]] = {}

    def standard(d: int) -> dict[tuple[int, ...], int]:
        if d not in columns:
            monos = ini.standard_monomials(WeightVector.ones(n), d)
            columns[d] = {m.exponents: k for k, m in enumerate(monos)}
        return columns[d]

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
                nf = reduced_basis().normal_form(
                    Polynomial.from_dict(ring, {Monomial(shifted): Fraction(1)}))
                frag = [
                    (target[t.mono.exponents],
                     t.coeff.numerator if t.coeff.denominator == 1 else t.coeff)
                    for t in nf.terms
                ]
            fragments[key] = frag
        return frag

    def strand_rank(i: int, j: int) -> int:
        """Rank of the Koszul differential of R/I from exterior degree i, internal degree j."""
        source_monos, target_monos = standard(j - i), standard(j - i + 1)
        if not source_monos or not target_monos:
            return 0
        target_sets = {S: k for k, S in enumerate(combinations(range(n), i - 1))}
        width = len(target_monos)
        # per subset S: (var, sign, first column of the block of S minus var)
        faces = [
            [(var, pos % 2, target_sets[S[:pos] + S[pos + 1:]] * width)
             for pos, var in enumerate(S)]
            for S in combinations(range(n), i)
        ]
        rows = []
        for face in faces:
            for exps in source_monos:
                row: dict[int, Fraction | int] = {}
                for var, odd, base in face:
                    for col, c in nf_times_var(var, exps, target_monos):
                        row[base + col] = -c if odd else c
                rows.append(row)
        return exact_rank_sparse(rows)

    entries: dict[tuple[int, int], int] = {}
    for j in range(j_max + 1):
        ini_ranks = [0] * (n + 2)
        for i in range(n, -1, -1):
            dim = comb(n, i) * (hf[j - i] if j >= i else 0)
            ini_ranks[i] = dim - initial.get((i, j), 0) - ini_ranks[i + 1]
        delta = [0] * (n + 2)
        for i in range(2, min(j, n) + 1):
            if (i, j) in initial and (i - 1, j) in initial:
                delta[i] = strand_rank(i, j) - ini_ranks[i]
                if delta[i] < 0:
                    raise BettiInconsistencyError(
                        f"strand rank at {(i, j)} is smaller for I than for its initial ideal"
                    )
        for i in range(min(j, n) + 1):
            beta = initial.get((i, j), 0) - delta[i] - delta[i + 1]
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
    # every nonzero entry of R/ini, hence of R/I, sits at an element of the
    # lcm lattice, and the lcm of all generators tops it at the Taylor
    # bound; the Hilbert numerator cannot certify this, since beta_{i,j}
    # and beta_{i+1,j} cancel in it
    complete = j_max >= taylor
    quotient = BettiTable(ring, entries, j_max, complete)
    initial_table = BettiTable(ring, initial, j_max, complete)
    if j_max >= taylor and all(e <= 1 for m in ini.mingens for e in m.exponents):
        _check_squarefree_transfer(quotient, initial_table)
    return quotient, initial_table


def _check_squarefree_transfer(quotient: BettiTable, initial: BettiTable):
    """pd and reg of R/I equal those of R/ini(I) when ini(I) is squarefree.

    Conca-Varbaro (Invent. Math. 2020).  Both tables must cover the whole lcm
    lattice of ini(I).
    """
    for name in ("projective_dimension", "regularity"):
        ours, theirs = getattr(quotient, name)(), getattr(initial, name)()
        if ours != theirs:
            raise BettiInconsistencyError(
                f"squarefree initial ideal, but {name.replace('_', ' ')} {ours} != {theirs}"
            )


class BettiComparison(_Value):
    """Entrywise comparison of the tables of R/I and R/ini(I)."""

    quotient: BettiTable
    initial: BettiTable
    projdim: tuple[int, int]  # (R/I, R/ini)
    regularity: tuple[int, int]


def betti_comparison(
    gens: Sequence[Polynomial], order: MonomialOrder | None = None
) -> BettiComparison:
    """Tables for R/I and R/ini(I); the quotient's numbers never exceed the monomial ones.

    Both tables run to the Taylor bound of ini(I), which covers every nonzero
    entry, and come from one Buchberger pair loop and one table of ini(I).

    The quotient's table is the initial one minus strand rank drops, and a
    negative drop raises an internal error, so the entrywise inequality (and
    those for projective dimension and regularity) holds by construction.
    """
    if order is None:
        order = RevLex()
    if not gens:
        raise ValueError("need generators")
    _check_standard_graded(gens)
    quotient, initial = _betti_tables(gens, order, None)
    pd = (quotient.projective_dimension(), initial.projective_dimension())
    rg = (quotient.regularity(), initial.regularity())
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
