"""Hilbert series and functions, Krull dimension, and the symmetry certificate.

Everything runs through weighted monomial ideals: series from the pivot
recursion on exponent tuples, building no `Monomial`; Krull dimension on
support bitmasks; subalgebra functions by counting the semigroup of an initial
algebra; the transfer check compares two initial ideals of one graded ideal.
Numerators are integer polynomials stored as dense coefficient tuples.
"""

from __future__ import annotations

from itertools import combinations
from operator import mul
from typing import Sequence

from initalg.groebner import MonomialIdeal, _minimal, initial_ideal
from initalg.orders import MonomialOrder, leading_term
from initalg.poly import Monomial, Polynomial, WeightVector, _Value, format_terms, is_weight_homogeneous
from initalg.sagbi import SagbiState


def _trim(coeffs: Sequence[int]) -> tuple[int, ...]:
    coeffs = list(coeffs)
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _divide_by_one_minus_power(coeffs: tuple[int, ...], e: int) -> tuple[int, ...] | None:
    """Exact quotient by 1 - t^e, or None when not divisible."""
    work = list(coeffs)
    deg = len(work) - 1
    if deg < e:
        return None if any(work) else (0,)
    q = [0] * (deg - e + 1)
    for i in range(deg, e - 1, -1):
        q[i - e] = -work[i]
        work[i] = 0
        work[i - e] -= q[i - e]
    if any(work):
        return None
    return _trim(q)


class HilbertSeries(_Value):
    """N(t) / prod(1 - t^{e}) with integer numerator coefficients."""

    numerator: tuple[int, ...]
    denominator_degrees: tuple[int, ...]

    def __init__(self, numerator: tuple[int, ...], denominator_degrees: tuple[int, ...]):
        numerator, denominator_degrees = _trim(numerator), tuple(sorted(denominator_degrees))
        if any(e < 1 for e in denominator_degrees):
            raise ValueError("denominator degrees must be positive")
        super().__init__(numerator, denominator_degrees)

    def expand(self, d_max: int) -> tuple[int, ...]:
        """Power-series coefficients in degrees 0..d_max."""
        if type(d_max) is not int:
            raise ValueError(f"d_max must be an integer, got {d_max!r}")
        if d_max < 0:
            raise ValueError("d_max must be nonnegative")
        c = [0] * (d_max + 1)
        for i, v in enumerate(self.numerator[: d_max + 1]):
            c[i] = v
        for e in self.denominator_degrees:  # multiply by 1/(1-t^e) = sum t^{ke}
            for d in range(e, d_max + 1):
                c[d] += c[d - e]
        return tuple(c)

    def reduced(self) -> HilbertSeries:
        """Cancel whole (1 - t^e) factors shared with the numerator, smallest e first.

        One ascending pass: if (1 - t^a) does not divide N, it does not divide
        N / (1 - t^b) either, so a failed divisor never succeeds later.
        """
        if not any(self.numerator):
            return self
        num, kept = self.numerator, []
        for e in self.denominator_degrees:
            q = _divide_by_one_minus_power(num, e)
            if q is None:
                kept.append(e)
            else:
                num = q
        return HilbertSeries(num, tuple(kept))

    def __str__(self) -> str:
        # constant term first, as `poly.format_poly` writes a polynomial in t
        num = format_terms(("t",), [((i,), c, 1) for i, c in enumerate(self.numerator) if c])
        if not self.denominator_degrees:
            return num
        parts = []
        for e in sorted(set(self.denominator_degrees)):
            k = self.denominator_degrees.count(e)
            base = "(1-t)" if e == 1 else f"(1-t^{e})"
            parts.append(base if k == 1 else f"{base}^{k}")
        return f"({num}) / " + " ".join(parts)


def hilbert_series_monomial(M: MonomialIdeal, weight: WeightVector | None = None) -> HilbertSeries:
    """Series of R/M under the weighted grading, denominator over all variables.

    Recurses on exponent tuples (Bayer-Stillman 1992; Bigatti 1997): with x
    the variable in the most generators (lowest index on ties) and e its least
    positive exponent, N(M) = N(M + (x^e)) + t^(e w(x)) N(M : x^e).  x^e is no
    generator and divides every one with x, so M + (x^e) = F + (x^e), F those
    free of x, with numerator (1 - t^(e w(x))) N(F); `_minimal` minimalizes
    M : x^e.  Both shrink however high the exponents.  The base case
    (pairwise coprime generators) contributes prod(1 - t^{deg g}).
    """
    n = M.ring.n
    if weight is None:
        weight = WeightVector.ones(n)
    if weight.n != n:
        raise ValueError("weight arity does not match ring")
    w = weight.entries

    def numerator(gens: list[tuple[int, ...]]) -> list[int]:
        columns = list(zip(*gens))
        counts = [len(gens) - column.count(0) for column in columns]
        shared = max(counts, default=0)
        if shared < 2:  # pairwise coprime generators
            out = [1]
            for g in gens:
                d = sum(map(mul, g, w))
                out = [a - b for a, b in zip(out + [0] * d, [0] * d + out)]
            return out
        x = counts.index(shared)
        e = min(filter(None, columns[x]))
        free = numerator([g for g in gens if not g[x]])
        colon = numerator(_minimal(n, [g[:x] + (g[x] - e,) + g[x + 1:] if g[x] else g for g in gens]))
        # N(F) + t^d (N(M : x^e) - N(F)), d = e w(x)
        d = e * w[x]
        out = free + [0] * (d + max(len(colon) - len(free), 0))
        for i, c in enumerate(colon):
            out[i + d] += c
        for i, c in enumerate(free):
            out[i + d] -= c
        return out

    return HilbertSeries(_trim(numerator([g.exponents for g in M.mingens])), w)


class UnitIdealError(ValueError):
    """The ideal is the whole ring, so the quotient is the zero ring."""


def krull_dim_monomial(M: MonomialIdeal) -> int:
    """Largest size of a variable set T containing no minimal generator's
    support: with supports and T as bitmasks, s & ~T is nonzero for every s."""
    supports = {sum(1 << i for i, e in enumerate(g.exponents) if e) for g in M.mingens}
    if 0 in supports:
        raise UnitIdealError("unit ideal: the quotient is the zero ring")
    bits = [1 << i for i in range(M.ring.n)]
    return next(size for size in range(len(bits), -1, -1) for T in combinations(bits, size)
                if all(s & ~sum(T) for s in supports))


def semigroup_counts(
    generators: Sequence[Monomial], degrees: Sequence[int], d_max: int
) -> tuple[int, ...]:
    """Count distinct semigroup elements by degree: dim of a monomial algebra's pieces."""
    if d_max < 0:
        raise ValueError("d_max must be nonnegative")
    if len(generators) != len(degrees):
        raise ValueError("one degree per generator")
    if any(d < 1 for d in degrees):
        raise ValueError("generator degrees must be positive")
    layers: list[set[tuple[int, ...]]] = [set() for _ in range(d_max + 1)]
    zero = tuple([0] * len(generators[0].exponents)) if generators else ()
    layers[0].add(zero)
    for d in range(1, d_max + 1):
        for g, w in zip(generators, degrees):
            if w <= d:
                for v in layers[d - w]:
                    layers[d].add(tuple(a + b for a, b in zip(v, g.exponents)))
    return tuple(len(layer) for layer in layers)


def hilbert_series_subalgebra(
    state: SagbiState, d_max: int = 10, grading: WeightVector | None = None
) -> tuple[int, ...]:
    """Hilbert function of a graded subalgebra, via its initial algebra's semigroup.

    Takes the state from `sagbi_complete`: only the leading monomials of a
    Sagbi basis span the initial algebra.  For a truncated state the values
    are only certified up to the truncation degree; larger requests are refused.
    """
    if not isinstance(state, SagbiState):
        raise TypeError("hilbert_series_subalgebra takes the SagbiState from sagbi_complete")
    if type(d_max) is not int:
        raise ValueError(f"d_max must be an integer, got {d_max!r}")
    if state.truncated_at is not None and d_max > state.truncated_at:
        raise ValueError(
            f"Sagbi state truncated at degree {state.truncated_at}: "
            f"cannot certify values up to {d_max}"
        )
    if grading is None:
        grading = WeightVector.ones(state.gens[0].ring.n)
    for f in state.gens:
        if not is_weight_homogeneous(f, grading):
            raise ValueError("generators must be homogeneous for the grading")
    inis = [leading_term(f, state.order).mono for f in state.gens]
    degs = [grading.degree(m) for m in inis]
    return semigroup_counts(inis, degs, d_max)


class HilbertComparison(_Value):
    """Hilbert functions of R/ini(I) under two orders/weights, degree by degree."""

    ok: bool
    d_max: int
    first_values: tuple[int, ...]
    second_values: tuple[int, ...]
    first_series: HilbertSeries
    second_series: HilbertSeries


def compare_hilbert(
    gens: Sequence[Polynomial],
    first: MonomialOrder,
    second: MonomialOrder,
    grading: WeightVector | None = None,
    d_max: int = 12,
) -> HilbertComparison:
    """Cross-check the transfer of Hilbert functions through two initial ideals.

    The ideal must be homogeneous for the grading; then R/I and every R/ini(I)
    share one Hilbert function, so the two monomial computations must agree.
    """
    if not gens:
        raise ValueError("need generators")
    ring = gens[0].ring
    if grading is None:
        grading = WeightVector.ones(ring.n)
    for g in gens:
        if not is_weight_homogeneous(g, grading):
            raise ValueError("generators must be homogeneous for the grading")
    series = []
    values = []
    for order in (first, second):
        M = initial_ideal(list(gens), order)
        H = hilbert_series_monomial(M, grading)
        series.append(H)
        values.append(H.expand(d_max))
    return HilbertComparison(
        values[0] == values[1], d_max, values[0], values[1], series[0], series[1]
    )


def gorenstein_symmetry_check(series: HilbertSeries) -> bool:
    """Symmetry certificate: the fully cancelled numerator is palindromic up to sign.

    Under the Stanley hypotheses (graded Cohen-Macaulay domain, which this
    artifact does not verify) symmetry of the h-vector characterizes
    Gorenstein rings; without them the check is only a necessary-shape test.
    """
    if not any(series.numerator):
        raise ValueError("zero series")
    h = series.reduced().numerator
    rev = tuple(reversed(h))
    return rev == h or rev == tuple(-c for c in h)
