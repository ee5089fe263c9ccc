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
from typing import Iterator, Sequence

from initalg.groebner import ReducedGroebnerBasis, buchberger
from initalg.linalg import _reduce_into
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
    initial ideal; in each extended degree d its cardinality must match the
    exact codimension of J_d, J the total ideal.  J_d = t*J_{d-1} + the sum
    of R_{d - deg g}*g over the elements g, R the t-free monomials; since
    multiplying by t is injective and keeps the order, t times the echelon
    basis of J_{d-1} is one of t*J_{d-1}, and only the t-free multiples m*g
    are reduced against it.  The rank does not assume a Gröbner basis.
    """
    a, n = family.weight, family.extended_ring.n
    if degree_bound is None:
        degree_bound = 2 * max((weighted_degree(g, a) for g in family.base_gb), default=1)
    if type(degree_bound) is not int:
        raise ValueError(f"degree bound must be an integer, got {degree_bound!r}")
    if degree_bound < 0:
        raise ValueError("degree bound must be nonnegative")
    a_ext = a.extend()
    # every exponent used is at most the degree bound, so the packed words are exact
    words = packing(family.total.order, n, max(degree_bound, 1).bit_length())
    pack, t_word = words.pack, words.units[-1]
    # each element once: (weighted degree, integer terms on words); scaling keeps the rank
    elements = []
    for g in family.total:
        scale = lcm(*(t.coeff.denominator for t in g.terms))
        elements.append((weighted_degree(g, a_ext), [
            (pack(t.mono.exponents), t.coeff.numerator * (scale // t.coeff.denominator)) for t in g.terms]))
    # generators of ini(I) above the bound divide no monomial checked here, nor fit the words
    ini = [pack(m.exponents + (0,)) for m in family.base_gb.initial_ideal() if a.degree(m) <= degree_bound]
    base: list[list[int]] = []  # the t-free monomials of each weighted degree, as words
    rows, pivots, standard, columns = [], {}, 0, 0
    for d in range(degree_bound + 1):
        base.append([pack(m.exponents + (0,)) for m in monomials_of_weight(n - 1, a, d)])
        columns += len(base[d])  # degree d holds t^(d-k) * m for every m in base[k]
        standard += sum(1 for w in base[d] if not words.dividing(ini, w))
        pivots = {lead + t_word: (c, [(k + t_word, v) for k, v in tail]) for lead, (c, tail) in pivots.items()}
        _reduce_into(({m + w: c for w, c in terms} for gd, terms in elements if gd <= d for m in base[d - gd]),
                     pivots)
        rows.append((d, standard, columns - len(pivots)))
    return FreenessReport(all(s == dim for _, s, dim in rows), degree_bound, tuple(rows))
