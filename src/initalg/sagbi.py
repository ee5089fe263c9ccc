"""Initial algebras: subduction, the Sagbi criterion, bounded completion.

A finite generating set F of a subalgebra is a Sagbi basis when the leading
monomials of F generate the whole initial algebra.  The criterion mirrors
Buchberger: lift each binomial relation among the leading monomials to the
corresponding difference of products of generators and subduct; all
remainders must vanish.  Completion can provably run forever (the initial
algebra need not be finitely generated), so a degree cap is mandatory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from initalg.groebner import (
    AlgebraKernel,
    _ToricIdeal,
    buchberger,
    initial_ideal_weight,
    presentation_kernel,
)
from initalg.orders import MonomialOrder, RevLex, leading_term, monic
from initalg.poly import (
    Monomial,
    PolyRing,
    Polynomial,
    RingMismatchError,
    WeightVector,
    initial_form,
    power_product,
    weighted_degree,
)


@dataclass(frozen=True)
class SubductionStep:
    """One subtraction: coeff times the product of generators with these exponents."""

    coeff: Fraction
    exponents: tuple[int, ...]


@dataclass(frozen=True)
class SubductionResult:
    remainder: Polynomial
    steps: tuple[SubductionStep, ...]

    def replay(self, gens: Sequence[Polynomial]) -> Polynomial:
        """Re-expand the certificate: sum of the steps plus the remainder."""
        ring = self.remainder.ring
        acc = self.remainder
        for step in self.steps:
            acc = acc + step.coeff * power_product(ring, gens, step.exponents)
        return acc


@dataclass(frozen=True)
class SagbiState:
    """Generators together with the completion verdict."""

    gens: tuple[Polynomial, ...]
    order: MonomialOrder
    truncated_at: int | None = None  # None means the Sagbi test closed

    @property
    def confirmed(self) -> bool:
        return self.truncated_at is None


def _check_subalgebra_gens(gens: Sequence[Polynomial]) -> PolyRing:
    if not gens:
        raise ValueError("need at least one subalgebra generator")
    ring = gens[0].ring
    for g in gens:
        if g.ring != ring:
            raise RingMismatchError("generators from different rings")
        if g.is_zero() or all(t.mono.is_one() for t in g.terms):
            raise ValueError("subalgebra generators must be nonconstant")
    return ring


def _sort_gens(gens: Sequence[Polynomial], order: MonomialOrder) -> list[Polynomial]:
    def k(f: Polynomial):
        return (
            order.key(leading_term(f, order).mono),
            tuple((t.mono.exponents, t.coeff) for t in f.terms),
        )

    return sorted(gens, key=k)


def factor_over_monomials(target: Monomial, monos: Sequence[Monomial]) -> tuple[int, ...] | None:
    """Exponents c >= 0 with prod monos[i]^c[i] == target, or None.

    Searches depth-first, trying large exponents first, so the returned
    solution is the lexicographically largest one; generators are nonconstant,
    which bounds every exponent.
    """
    n = len(target.exponents)

    def rec(i: int, remaining: tuple[int, ...], acc: list[int]):
        if all(r == 0 for r in remaining):
            return acc + [0] * (len(monos) - i)
        if i == len(monos):
            return None
        exps = monos[i].exponents
        cap = min(r // e for r, e in zip(remaining, exps) if e > 0)
        for c in range(cap, -1, -1):
            rest = tuple(r - c * e for r, e in zip(remaining, exps))
            found = rec(i + 1, rest, acc + [c])
            if found is not None:
                return found
        return None

    found = rec(0, target.exponents, [])
    return tuple(found) if found is not None else None


def subduct_with_certificate(
    f: Polynomial, gens: Sequence[Polynomial], order: MonomialOrder
) -> SubductionResult:
    """Subtract products of generators while the leading monomial factors over their initials.

    The remainder is 0 (f lies in the algebra generated by `gens`) or has a
    leading monomial outside the semigroup of the generators' initials.  The
    recorded steps replay to f = sum(steps) + remainder.
    """
    ring = _check_subalgebra_gens(gens)
    if f.ring != ring:
        raise RingMismatchError("polynomial and generators from different rings")
    inis = [leading_term(g, order) for g in gens]
    steps: list[SubductionStep] = []
    work = f
    while not work.is_zero():
        t = leading_term(work, order)
        c = factor_over_monomials(t.mono, [it.mono for it in inis])
        if c is None:
            break
        lead_coeff = t.coeff
        for it, e in zip(inis, c):
            lead_coeff /= it.coeff**e
        steps.append(SubductionStep(lead_coeff, c))
        work = work - lead_coeff * power_product(ring, gens, c)
    return SubductionResult(work, tuple(steps))


def subduct(f: Polynomial, gens: Sequence[Polynomial], order: MonomialOrder) -> Polynomial:
    return subduct_with_certificate(f, gens, order).remainder


def _sagbi_round(
    gens: Sequence[Polynomial], order: MonomialOrder, ideal: _ToricIdeal
) -> tuple[bool, tuple[Polynomial, ...]]:
    """Sagbi test of sorted `gens`, `ideal` the toric ideal of their leading monomials.

    A kernel pair (u, v) lifts to f^u / c^u - f^v / c^v, c the leading coefficients.
    """
    ring = gens[0].ring
    inis = [leading_term(g, order) for g in gens]
    witnesses = []
    for u, v in ideal.kernel():
        lift = ring.zero()
        for exps, sign in ((u, 1), (v, -1)):
            scale = math.prod(it.coeff**e for it, e in zip(inis, exps) if e)
            lift = lift + (Fraction(sign) / scale) * power_product(ring, gens, exps)
        if lift.is_zero():
            continue
        rem = subduct(lift, gens, order)
        if not rem.is_zero():
            witnesses.append(monic(rem, order))
    witnesses = _sort_gens(set(witnesses), order)
    return (not witnesses, tuple(witnesses))


def sagbi_test(
    gens: Sequence[Polynomial], order: MonomialOrder
) -> tuple[bool, tuple[Polynomial, ...]]:
    """Sagbi criterion: every lifted syzygy of the initial monomials subducts to zero.

    Returns (ok, witnesses); witnesses are the nonzero remainders, monic,
    sorted by the order. The generator list is sorted internally so the
    verdict does not depend on input ordering.
    """
    _check_subalgebra_gens(gens)
    gens = _sort_gens(gens, order)
    exps = [leading_term(g, order).mono.exponents for g in gens]
    return _sagbi_round(gens, order, _ToricIdeal(gens[0].ring.n, exps))


def sagbi_complete(
    gens: Sequence[Polynomial], order: MonomialOrder, degree_cap: int
) -> SagbiState:
    """Adjoin subduction remainders of lifted syzygies up to the degree cap.

    Ends Confirmed when the test closes; ends TruncatedAtDegree(cap) when the
    only outstanding witnesses exceed the cap (the initial algebra may be
    infinitely generated, so unbounded completion is not offered).  One
    toric ideal of the leading monomials serves the whole completion: each
    adjoined witness inserts its leading monomial into it.  Every lift is
    subducted in every round, as more generators can change its remainder.
    """
    _check_subalgebra_gens(gens)
    if degree_cap < 1:
        raise ValueError("degree cap must be positive")
    if degree_cap < max(g.total_degree() for g in gens):
        raise ValueError("degree cap below a generator degree")
    current = _sort_gens(gens, order)
    exps = [leading_term(g, order).mono.exponents for g in current]
    ideal = _ToricIdeal(current[0].ring.n, exps)
    while True:
        ok, witnesses = _sagbi_round(current, order, ideal)
        if ok:
            return SagbiState(tuple(current), order, None)
        admissible = [w for w in witnesses if w.total_degree() <= degree_cap]
        if not admissible:
            return SagbiState(tuple(current), order, degree_cap)
        w = admissible[0]
        current = _sort_gens(current + [w], order)
        ideal.insert(current.index(w), leading_term(w, order).mono.exponents)


def minimalize_semigroup(monos: Sequence[Monomial]) -> tuple[Monomial, ...]:
    """Drop monomials that are products of the others (semigroup redundancy).

    One pass by ascending degree tests each m against the kept prefix only: its
    factors have smaller degree, and a dropped one is a product of kept ones.
    """
    kept: list[Monomial] = []
    for m in sorted(set(monos), key=lambda m: (m.degree(), m.exponents)):
        if not m.is_one() and factor_over_monomials(m, kept) is None:
            kept.append(m)
    return tuple(kept)


def initial_algebra_gens(state: SagbiState) -> tuple[Monomial, ...]:
    """Minimalized leading monomials of a (possibly truncated) `sagbi_complete` state."""
    if not isinstance(state, SagbiState):
        raise TypeError("initial_algebra_gens takes the SagbiState from sagbi_complete")
    return minimalize_semigroup([leading_term(g, state.order).mono for g in state.gens])


@dataclass(frozen=True)
class InitialKernelReport:
    """Comparison of ini_b(relations of f) with the relations of the initial forms."""

    ok: bool
    image_weights: WeightVector  # b: the a-degrees of the generators
    kernel: AlgebraKernel  # relations among the f_i
    initial_kernel: AlgebraKernel  # relations among the ini_a(f_i)
    kernel_initial_forms: tuple[Polynomial, ...]  # generators of ini_b(kernel)


def kernel_initial_check(
    gens: Sequence[Polynomial],
    weight: WeightVector,
    names: Sequence[str] | None = None,
) -> InitialKernelReport:
    """Check ini_b(Ker(Y -> f)) == Ker(Y -> ini_a(f)) with b the a-degrees of the f_i.

    The caller asserts that the initial forms of the generators generate the
    whole initial algebra (e.g. after a passing Sagbi test under the refined
    order); under that hypothesis the two ideals agree.  Both sides are
    compared as reduced revlex bases.
    """
    ring = _check_subalgebra_gens(gens)
    if weight.n != ring.n:
        raise RingMismatchError("weight arity does not match ring")
    image_weights = WeightVector(tuple(weighted_degree(f, weight) for f in gens))
    kernel = presentation_kernel(list(gens), names=names)
    forms = [initial_form(f, weight) for f in gens]
    initial_kernel = presentation_kernel(forms, names=names)
    if kernel.gens:
        forms_of_kernel = initial_ideal_weight(list(kernel.gens), image_weights)
    else:
        forms_of_kernel = ()
    lhs = buchberger(list(forms_of_kernel), RevLex()).elements if forms_of_kernel else ()
    # a presentation kernel is already its reduced revlex basis, ascending by lead
    ok = lhs == initial_kernel.gens
    return InitialKernelReport(ok, image_weights, kernel, initial_kernel, forms_of_kernel)
