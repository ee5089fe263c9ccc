"""Hilbert series and functions, Krull dimension, and the symmetry certificate.

Everything runs through weighted monomial ideals: series come from the
pivot-splitting recursion, subalgebra Hilbert functions from counting the
monomial semigroup of an initial algebra, and the transfer check compares the
functions of two initial ideals of the same graded ideal.  Numerators are
integer polynomials stored as dense coefficient tuples.
"""

from __future__ import annotations

from itertools import combinations
from typing import Sequence

from initalg.groebner import MonomialIdeal, initial_ideal
from initalg.orders import MonomialOrder, leading_term
from initalg.poly import Monomial, Polynomial, WeightVector, _Value, format_terms, is_weight_homogeneous
from initalg.sagbi import SagbiState


def _trim(coeffs: Sequence[int]) -> tuple[int, ...]:
    coeffs = list(coeffs)
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _poly_mul(p: Sequence[int], q: Sequence[int]) -> list[int]:
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return out


def _poly_add(p: Sequence[int], q: Sequence[int]) -> list[int]:
    out = [0] * max(len(p), len(q))
    for i, a in enumerate(p):
        out[i] += a
    for i, b in enumerate(q):
        out[i] += b
    return out


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


def _pivot_variable(mingens: Sequence[Monomial], n: int) -> int | None:
    """The variable shared by the most generators (lowest index on ties), or None."""
    counts = [0] * n
    for g in mingens:
        for i in g.support():
            counts[i] += 1
    shared = [i for i in range(n) if counts[i] >= 2]
    if not shared:
        return None
    return max(shared, key=lambda i: (counts[i], -i))


def hilbert_series_monomial(M: MonomialIdeal, weight: WeightVector | None = None) -> HilbertSeries:
    """Series of R/M under the weighted grading, denominator over all variables.

    Splits on x^e, x a shared variable and e its least positive exponent:
    N(M) = N(M + (x^e)) + t^(e w(x)) N(M : x^e); x^e is no generator, so both
    branches shrink however high the exponents.  The base case (pairwise
    coprime generators) contributes prod(1 - t^{deg g}).
    """
    n = M.ring.n
    if weight is None:
        weight = WeightVector.ones(n)
    if weight.n != n:
        raise ValueError("weight arity does not match ring")

    def numerator(gens: tuple[Monomial, ...]) -> list[int]:
        piv = _pivot_variable(gens, n)
        if piv is None:  # pairwise coprime generators
            out = [1]
            for g in gens:
                d = weight.degree(g)
                factor = [1] + [0] * (d - 1) + [-1] if d else [0]
                out = _poly_mul(out, factor)
            return out
        e = min([g.exponents[piv] for g in gens if g.exponents[piv]])
        x = Monomial(tuple(e if i == piv else 0 for i in range(n)))
        plus = MonomialIdeal.from_monomials(M.ring, gens + (x,)).mingens
        colon = MonomialIdeal.from_monomials(
            M.ring,
            tuple(g.divide(x) if x.divides(g) else g for g in gens),
        ).mingens
        shifted = [0] * (e * weight.entries[piv]) + numerator(colon)
        return _poly_add(numerator(plus), shifted)

    return HilbertSeries(_trim(numerator(M.mingens)), weight.entries)


class UnitIdealError(ValueError):
    """The ideal is the whole ring, so the quotient is the zero ring."""


def krull_dim_monomial(M: MonomialIdeal) -> int:
    """Largest size of a variable set containing no minimal generator's support."""
    if any(g.is_one() for g in M.mingens):
        raise UnitIdealError("unit ideal: the quotient is the zero ring")
    n = M.ring.n
    supports = [set(g.support()) for g in M.mingens]
    for size in range(n, -1, -1):
        for T in combinations(range(n), size):
            ts = set(T)
            if not any(s <= ts for s in supports):
                return size
    raise AssertionError("unreachable: the empty set always qualifies for proper ideals")


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
