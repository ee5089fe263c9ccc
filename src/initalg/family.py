"""The one-parameter flat degeneration from an ideal to its weight-initial ideal.

Homogenizing a reduced weight-order Gröbner basis of I with respect to a
positive weight gives generators (in fact a Gröbner basis) of the total ideal
in R[t]; its t=0 fiber is the ideal of initial forms and every t=c fiber with
c nonzero is isomorphic to I.  Homogenizing arbitrary generators instead of a
Gröbner basis can produce a strictly smaller ideal, hence the GB-first shape.
Freeness over K[t] is certified degree by degree by comparing the Hilbert
functions of two monomial ideals of R[t]: ini(I) R[t] and ini(J).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, Sequence

from initalg.groebner import MonomialIdeal, ReducedGroebnerBasis, buchberger, initial_ideal
from initalg.hilbert import hilbert_series_monomial
from initalg.orders import ExtendedOrder, MonomialOrder, RevLex, WeightOrder, leading_monomial
from initalg.poly import (
    Monomial,
    PolyRing,
    Polynomial,
    Scalar,
    WeightVector,
    _Value,
    homogenize,
    specialize_t,
    weighted_degree,
)


class HomogenizedFamily(_Value):
    """Total ideal over K[t] interpolating between I (t=1) and its initial forms (t=0)."""

    _fields = ("weight", "base_gb", "total")

    def __init__(
        self,
        weight: WeightVector,
        base_gb: ReducedGroebnerBasis,  # reduced GB of I under the weight-refined order
        total: ReducedGroebnerBasis,  # reduced GB of the homogenized ideal in R[t]
    ):
        super().__init__(weight, base_gb, total)

    @property
    def ring(self) -> PolyRing:
        return self.base_gb.ring

    @property
    def extended_ring(self) -> PolyRing:
        return self.total.ring

    def __iter__(self) -> Iterator[Polynomial]:
        return iter(self.total)


def homogenize_ideal(
    gens: Sequence[Polynomial],
    weight: WeightVector,
    tiebreak: MonomialOrder | None = None,
) -> HomogenizedFamily:
    """Build the family: homogenize the reduced weight-order GB of (gens).

    The homogenized elements are themselves the reduced GB of the total ideal
    under the extended order (the t-free leading monomials are inherited),
    so no second Buchberger run is needed.
    """
    if tiebreak is None:
        tiebreak = RevLex()
    order = WeightOrder(weight, tiebreak)
    gb = buchberger(gens, order)
    ring_t = gb.ring.extend()
    ext_order = ExtendedOrder(weight, tiebreak)
    lifted = tuple(homogenize(g, weight, ring_t) for g in gb)
    lifted = tuple(sorted(lifted, key=lambda g: ext_order.key(leading_monomial(g, ext_order))))
    total = ReducedGroebnerBasis(ring_t, ext_order, lifted)
    return HomogenizedFamily(weight, gb, total)


def fiber(family: HomogenizedFamily, c: Scalar) -> tuple[Polynomial, ...]:
    """Generators of the fiber ideal at t=c, in the base ring."""
    return tuple(specialize_t(g, Fraction(c)) for g in family.total)


class FreenessReport(_Value):
    """Degreewise comparison of standard-monomial counts with quotient dimensions."""

    _fields = ("ok", "bound", "rows")

    def __init__(
        self,
        ok: bool,
        bound: int,
        rows: tuple[tuple[int, int, int], ...],  # (degree, standard count, quotient dimension)
    ):
        super().__init__(ok, bound, rows)


def freeness_basis_check(family: HomogenizedFamily, degree_bound: int | None = None) -> FreenessReport:
    """Certify K[t]-freeness of the quotient up to a degree bound.

    The candidate basis is {t^e * m} with m a standard monomial of the base
    initial ideal; in each extended degree d its cardinality is the Hilbert
    function of R[t]/ini(I)R[t], and it must match dim (R[t]/J)_d, J the
    total ideal.  J is homogeneous for the extended weight, which the total
    order refines, so dim (R[t]/J)_d is the Hilbert function of R[t]/ini(J)
    (Macaulay).  Both come from `hilbert_series_monomial`; ini(J) comes from
    a Buchberger run on J's elements, so no step assumes that they are a
    Gröbner basis.
    """
    a, ring_t = family.weight, family.extended_ring
    if degree_bound is None:
        degree_bound = 2 * max((weighted_degree(g, a) for g in family.base_gb), default=1)
    if type(degree_bound) is not int:
        raise ValueError(f"degree bound must be an integer, got {degree_bound!r}")
    if degree_bound < 0:
        raise ValueError("degree bound must be nonnegative")
    a_ext = a.extend()
    lifted = MonomialIdeal.from_monomials(
        ring_t, (Monomial(m.exponents + (0,)) for m in family.base_gb.initial_ideal()))
    gens = family.total.elements  # none for the zero ideal, whose initial ideal is (0)
    total = initial_ideal(gens, family.total.order) if gens else MonomialIdeal(ring_t, ())
    standard = hilbert_series_monomial(lifted, a_ext).expand(degree_bound)
    dims = hilbert_series_monomial(total, a_ext).expand(degree_bound)
    rows = tuple(zip(range(degree_bound + 1), standard, dims))
    return FreenessReport(all(s == dim for _, s, dim in rows), degree_bound, rows)
