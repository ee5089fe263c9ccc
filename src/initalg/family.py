"""The one-parameter flat degeneration from an ideal to its weight-initial ideal.

Homogenizing a reduced weight-order Gröbner basis of I with respect to a
positive weight gives generators (in fact a Gröbner basis) of the total ideal
in R[t]; its t=0 fiber is the ideal of initial forms and every t=c fiber with
c nonzero is isomorphic to I.  Homogenizing arbitrary generators instead of a
Gröbner basis can produce a strictly smaller ideal, hence the GB-first shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import add
from typing import Iterator, Sequence

from initalg.groebner import ReducedGroebnerBasis, buchberger
from initalg.linalg import exact_rank_sparse
from initalg.orders import (
    ExtendedOrder,
    MonomialOrder,
    RevLex,
    WeightOrder,
    leading_monomial,
    packing,
)
from initalg.poly import (
    PolyRing,
    Polynomial,
    Scalar,
    WeightVector,
    homogenize,
    monomials_of_weight,
    specialize_t,
    weighted_degree,
)


@dataclass(frozen=True)
class HomogenizedFamily:
    """Total ideal over K[t] interpolating between I (t=1) and its initial forms (t=0)."""

    weight: WeightVector
    base_gb: ReducedGroebnerBasis  # reduced GB of I under the weight-refined order
    total: ReducedGroebnerBasis  # reduced GB of the homogenized ideal in R[t]

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


@dataclass(frozen=True)
class FreenessReport:
    """Degreewise comparison of standard-monomial counts with quotient dimensions."""

    ok: bool
    bound: int
    rows: tuple[tuple[int, int, int], ...]  # (degree, standard count, quotient dimension)


def freeness_basis_check(family: HomogenizedFamily, degree_bound: int | None = None) -> FreenessReport:
    """Certify K[t]-freeness of the quotient up to a degree bound.

    The candidate basis is {t^e * m} with m a standard monomial of the base
    initial ideal; in each extended degree its cardinality must match the
    exact codimension of the total ideal's graded piece.
    """
    a = family.weight
    n = family.extended_ring.n
    if degree_bound is None:
        top = max((weighted_degree(g, a) for g in family.base_gb), default=1)
        degree_bound = 2 * top
    if degree_bound < 0:
        raise ValueError("degree bound must be nonnegative")
    ini = family.base_gb.initial_ideal()
    a_ext = a.extend()
    # every exponent is at most the degree bound, so the packed key is exact
    pack = packing(family.total.order, n, max(degree_bound, 1).bit_length()).pack
    # each element once: (weighted degree, integer terms); scaling keeps the rank
    elements = []
    for g in family.total:
        scale = lcm(*(t.coeff.denominator for t in g.terms))
        terms = [(t.mono.exponents, t.coeff.numerator * (scale // t.coeff.denominator))
                 for t in g.terms]
        elements.append((weighted_degree(g, a_ext), terms))
    # the monomials of each weighted degree, ascending by exponents: columns and multipliers
    monos = [monomials_of_weight(n, a_ext, d) for d in range(degree_bound + 1)]
    rows = []
    ok = True
    standard = 0
    for d in range(degree_bound + 1):
        standard += len(ini.standard_monomials(a, d))
        # columns sorted by the extended order keep the rows near-echelon
        ambient = sorted(monos[d], key=lambda m: pack(m.exponents))
        index = {mono.exponents: i for i, mono in enumerate(ambient)}
        sparse = []
        for gd, terms in elements:
            if gd > d:
                continue
            for mult in monos[d - gd]:
                me = mult.exponents
                sparse.append({index[tuple(map(add, me, e))]: c for e, c in terms})
        dim = len(ambient) - exact_rank_sparse(sparse)
        rows.append((d, standard, dim))
        if standard != dim:
            ok = False
    return FreenessReport(ok, degree_bound, tuple(rows))
