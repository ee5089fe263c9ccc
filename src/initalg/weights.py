"""Weight vectors realizing finitely many monomial comparisons.

Given pairs (m, n) that must satisfy m > n, produce a strictly positive
integral weight a with a.(exp m - exp n) >= 1 for every pair, canonicalized
(minimal entry sum, then lexicographically smallest, then integerized), or
raise with a Farkas certificate: nonnegative multipliers c, not all zero,
with sum c_i (exp m_i - exp n_i) <= 0 componentwise, proving no weight works.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from initalg.groebner import buchberger
from initalg.orders import MonomialOrder, sorted_terms
from initalg.poly import Monomial, Polynomial, WeightVector
from initalg.sagbi import sagbi_test
from initalg.simplex import EQ, GE, INFEASIBLE, LE, OPTIMAL, linear_program


class InfeasibleComparisons(ValueError):
    """No positive weight realizes the comparisons; carries the Farkas certificate."""

    def __init__(self, pairs, certificate: tuple[int, ...]):
        super().__init__(f"comparisons admit no positive weight (certificate {certificate})")
        self.pairs = tuple(pairs)
        self.certificate = certificate


def _integerize(values: Sequence[Fraction]) -> tuple[int, ...]:
    mult = lcm(*(v.denominator for v in values)) if values else 1
    ints = [int(v * mult) for v in values]
    g = gcd(*ints) if any(ints) else 1
    return tuple(v // g for v in ints)


def find_weight(
    pairs: Sequence[tuple[Monomial, Monomial]], n_vars: int | None = None
) -> WeightVector:
    """Canonical strictly positive integral weight a with a.m > a.n for every pair."""
    pairs = list(pairs)
    if n_vars is None:
        if not pairs:
            raise ValueError("need n_vars when the comparison set is empty")
        n_vars = len(pairs[0][0].exponents)
    if not pairs:
        return WeightVector.ones(n_vars)
    diffs = []
    for m, n in pairs:
        if len(m.exponents) != n_vars or len(n.exponents) != n_vars:
            raise ValueError("monomial arity mismatch in comparison set")
        if m == n:
            raise ValueError("comparison pair with equal monomials")
        diffs.append(tuple(a - b for a, b in zip(m.exponents, n.exponents)))

    # substitute a = 1 + x with x >= 0: gamma.x >= 1 - gamma.1; minimize the
    # entry sum, then the entries left to right
    base = [(g, GE, 1 - sum(g)) for g in diffs]
    res = linear_program([1] * n_vars, base, then=_units(n_vars))
    if res.status == INFEASIBLE:
        raise InfeasibleComparisons(pairs, _farkas_certificate(diffs))
    if res.status != OPTIMAL:
        raise RuntimeError(f"weight LP must be optimal, got {res.status}")
    a = _integerize([1 + v for v in res.x])
    if min(a) <= 0 or not verify_weight(WeightVector(a), pairs):
        raise RuntimeError(f"weight LP gave {a}, which does not realize the comparisons")
    return WeightVector(a)


def _units(n: int) -> list[list[int]]:
    return [[int(i == j) for i in range(n)] for j in range(n)]


def _farkas_certificate(diffs: Sequence[tuple[int, ...]]) -> tuple[int, ...]:
    """Lexicographically least c >= 0 with entry sum 1 and sum c_i gamma_i <= 0, integerized."""
    m = len(diffs)
    cons = [([d[j] for d in diffs], LE, 0) for j in range(len(diffs[0]))]  # Gamma^T c <= 0
    cons.append(([1] * m, EQ, 1))
    first, *rest = _units(m)
    res = linear_program(first, cons, then=rest)
    if res.status != OPTIMAL:
        raise RuntimeError("alternative system must be feasible by Farkas")
    cert = _integerize(res.x)
    combo = [sum(c * d[j] for c, d in zip(cert, diffs)) for j in range(len(diffs[0]))]
    if min(cert) < 0 or not any(cert) or max(combo) > 0:
        raise RuntimeError(f"Farkas LP gave {cert}, which certifies nothing")
    return cert


def verify_weight(a: WeightVector, pairs: Sequence[tuple[Monomial, Monomial]]) -> bool:
    """Independent validator: every pair strictly separated by a."""
    return all(a.degree(m) > a.degree(n) for m, n in pairs)


def comparison_pairs(polys: Sequence[Polynomial], order: MonomialOrder):
    """(leading monomial, trailing monomial) pairs over all given polynomials."""
    pairs = []
    for f in polys:
        ts = sorted_terms(f, order)
        lead = ts[0].mono
        for t in ts[1:]:
            pairs.append((lead, t.mono))
    return pairs


def represent_order_by_weight(
    gens: Sequence[Polynomial], order: MonomialOrder
) -> WeightVector:
    """A weight a with ini_a = ini_order on the reduced GB of (gens), hence on the ideal."""
    pairs = []  # comparison_pairs of the elements, read off the rows
    for (lead, _, _), *tail in buchberger(gens, order)._terms():
        lead = Monomial(lead)
        pairs.extend((lead, Monomial(e)) for e, _, _ in tail)
    return find_weight(pairs, n_vars=gens[0].ring.n)


def represent_sagbi_by_weight(gens: Sequence[Polynomial], order: MonomialOrder) -> WeightVector:
    """A weight a with ini_a(f) = leading term of f for every Sagbi generator f."""
    if not sagbi_test(gens, order)[0]:
        raise ValueError("generators are not a Sagbi basis under this order")
    return find_weight(comparison_pairs(gens, order), n_vars=gens[0].ring.n)
