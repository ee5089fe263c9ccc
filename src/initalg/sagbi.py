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
import operator
from functools import cached_property
from fractions import Fraction
from typing import Sequence

from initalg.groebner import (
    AlgebraKernel,
    _cleared,
    _first_bits,
    _IntPoly,
    _Overflow,
    _Presentation,
    buchberger,
    initial_ideal_weight,
    presentation_kernel,
)
from initalg.orders import MonomialOrder, Packing, RevLex, leading_term, packing
from initalg.poly import (
    Monomial,
    PolyRing,
    Polynomial,
    RingMismatchError,
    WeightVector,
    _Value,
    initial_form,
    power_product,
    weighted_degree,
)


class SubductionStep(_Value):
    """One subtraction: coeff times the product of generators with these exponents."""

    coeff: Fraction
    exponents: tuple[int, ...]


class SubductionResult(_Value):
    remainder: Polynomial
    steps: tuple[SubductionStep, ...]

    def replay(self, gens: Sequence[Polynomial]) -> Polynomial:
        """Re-expand the certificate: sum of the steps plus the remainder."""
        ring = self.remainder.ring
        acc = self.remainder
        for step in self.steps:
            acc = acc + step.coeff * power_product(ring, gens, step.exponents)
        return acc


class SagbiState(_Value):
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


def _factor(
    leads: Sequence[tuple[int, ...]], memo: dict, target: tuple[int, ...]
) -> tuple[int, ...] | None:
    """Exponents c >= 0 with sum c_i leads[i] == target, the lexicographically
    largest, or None.

    Searches depth-first, trying large exponents first; generators are
    nonconstant, which bounds every exponent.  `memo` maps (i, remaining) to
    the answer over leads[i:], so it holds for these leads only.  The search
    has no budget: the memo only removes repeated work.
    """
    k = len(leads)

    def rec(i: int, remaining: tuple[int, ...]) -> tuple[int, ...] | None:
        if not any(remaining):
            return (0,) * (k - i)
        if i == k:
            return None
        key = (i, remaining)
        if key not in memo:
            exps, memo[key] = leads[i], None
            for c in range(min(r // e for r, e in zip(remaining, exps) if e), -1, -1):
                found = rec(i + 1, tuple(r - c * e for r, e in zip(remaining, exps)))
                if found is not None:
                    memo[key] = (c,) + found
                    break
        return memo[key]

    return rec(0, target)


def factor_over_monomials(target: Monomial, monos: Sequence[Monomial]) -> tuple[int, ...] | None:
    """Exponents c >= 0 with prod monos[i]^c[i] == target, or None.

    The lexicographically largest solution, found by the search that `_Kept`
    memoizes while its leads stand; here the memo lasts one call.
    """
    return _factor([m.exponents for m in monos], {}, target.exponents)


def _subtract(work: _IntPoly, m: int, p: _IntPoly) -> None:
    """work -= m * p, in place."""
    for w, b in p.items():
        if v := work.get(w, 0) - m * b:
            work[w] = v
        else:
            del work[w]


class _Kept:
    """One Sagbi completion, test or subduction on packed words: the generators
    `gens` (sorted, for a completion), `ideal`, the toric ideal of their
    leading monomials (built on first use), each product of powers built
    once, the last result of each lift, and the memo of the factor search.

    Polynomials are fraction-free integer dicts keyed by the words of an
    `orders.Packing` of the order, as `groebner._Reducer` keeps its rows.  A
    generator f is kept as F = q f, primitive with a positive lead
    coefficient, and named by a serial number, not its position (an adjoined
    witness shifts the sorted positions): a product by the (serial, exponent)
    pairs of its nonzero exponents, F^e being the one-factor product, and a
    lift's result by its two products' keys.  A lift is formed from its two
    products each time it is subducted.  `memo` maps (position, remaining
    exponents) to the search's answer over the current leads, and starts
    again at each insertion.  An exponent that outgrows the packing raises
    `_Overflow`; `widening` then repacks every product twice as wide and
    retries.
    """

    def __init__(self, gens: Sequence[Polynomial], order: MonomialOrder):
        self.ring, self.order = gens[0].ring, order
        top = max(e for g in gens for t in g.terms for e in t.mono.exponents)
        self.packing = packing(order, self.ring.n, _first_bits(top))
        self.gens: list[Polynomial] = []
        self.leads: list[tuple[int, ...]] = []
        self.serials: list[int] = []
        self.named: list[tuple[Polynomial, tuple[int, ...]]] = []  # (f, lead) by serial
        self.scales: dict[int, Fraction] = {}  # q of F = q f, by serial
        self.products: dict[tuple, _IntPoly] = {(): {0: 1}}
        self.results: dict[tuple, tuple] = {}
        self.memo: dict[tuple, tuple[int, ...] | None] = {}
        for g in gens:
            self._adjoin(len(self.gens), g)

    @cached_property
    def ideal(self) -> _Presentation:
        return _Presentation(self.ring.n, [({e: 1}, 1) for e in self.leads])

    def _adjoin(self, pos: int, f: Polynomial) -> None:
        lead = leading_term(f, self.order).mono.exponents
        self.gens.insert(pos, f)
        self.leads.insert(pos, lead)
        self.serials.insert(pos, len(self.named))
        self.named.append((f, lead))

    def insert(self, w: Polynomial) -> None:
        """Adjoin the witness w at its sorted position, to `ideal` too."""
        ideal = self.ideal
        pos = _sort_gens(self.gens + [w], self.order).index(w)
        self._adjoin(pos, w)
        self.memo = {}  # keyed by position, so it holds for the old leads only
        ideal.insert(pos, self.leads[pos])

    def _use(self, new: Packing) -> None:
        old, self.packing = self.packing, new

        def repack(p: _IntPoly) -> _IntPoly:
            return {new.pack(old.unpack(w)): c for w, c in p.items()}

        self.products = {key: repack(p) for key, p in self.products.items()}

    def widening(self, step):
        """step(), retried with twice the field width while it overflows."""
        while True:
            try:
                return step()
            except _Overflow:
                self._use(packing(self.order, self.ring.n, 2 * self.packing.bits))

    def primitive(self, f: Polynomial) -> tuple[_IntPoly, Fraction]:
        """(F, q): F = q f keyed by words, primitive, with a positive lead coefficient."""
        coeffs, d = _cleared(f)
        P = self.packing
        if max(map(max, coeffs)) >> P.bits:
            raise _Overflow
        F = {P.pack(e): c for e, c in coeffs.items()}
        h = math.gcd(*F.values())
        if F[max(F)] < 0:
            h = -h
        return {w: c // h for w, c in F.items()}, Fraction(d, h)

    def _mul(self, a: _IntPoly, b: _IntPoly) -> _IntPoly:
        acc: _IntPoly = {}
        get = acc.get
        for wa, ca in a.items():
            for wb, cb in b.items():
                w = wa + wb
                acc[w] = get(w, 0) + ca * cb
        guard = self.packing.guard
        if any(w & guard for w in acc):
            raise _Overflow
        return {w: c for w, c in acc.items() if c}

    def factor(self, target: tuple[int, ...]) -> tuple[int, ...] | None:
        """`factor_over_monomials` of `target` over the leads, through `memo`."""
        return _factor(self.leads, self.memo, target)

    def _key(self, exps: Sequence[int]) -> tuple:
        return tuple((s, e) for s, e in zip(self.serials, exps) if e)

    def product(self, key: tuple) -> _IntPoly:
        """The product of F^e over the (serial, e) of `key`, kept with each prefix
        of the key, and F^e with each lower power of F."""
        products = self.products
        if key not in products:
            (s, e), rest = key[-1], key[:-1]
            if rest:
                products[key] = self._mul(self.product(rest), self.product(key[-1:]))
            else:
                if ((s, 1),) not in products:
                    products[(s, 1),], self.scales[s] = self.primitive(self.named[s][0])
                for j in range(2, e + 1):  # a loop, not a recursion: e may pass the recursion limit
                    if ((s, j),) not in products:
                        products[(s, j),] = self._mul(products[(s, j - 1),], products[(s, 1),])
        return products[key]

    def subduct(
        self, work: _IntPoly, scale: Fraction | None = None
    ) -> tuple[_IntPoly, Fraction | None, list[SubductionStep], list[tuple[int, ...]]]:
        """(r, scale', steps, met): subtract products from `work` (consumed)
        while its lead factors over the leading monomials, fraction-free as
        `_Reducer.reduce_ints` cancels a term.  r is 0 or has a lead that does
        not factor; `met` lists the exponents of every lead met.  With work =
        scale f, r / scale' is the remainder of f and `steps` its exact
        certificate; without, no steps are recorded.
        """
        unpack, steps, met = self.packing.unpack, [], []
        while work:
            t = max(work)
            met.append(unpack(t))
            c = self.factor(met[-1])
            if c is None:
                break
            key = self._key(c)
            p = self.product(key)
            a = p[t]
            g = math.gcd(a, work[t])
            m = work[t] // g
            if g != a:  # scale by a / g, dividing out the content h first
                h = math.gcd(m, *work.values())
                m //= h
                work = {w: v // h * (a // g) for w, v in work.items()}
                if scale is not None:
                    scale = scale * (a // g) / h
            if scale is not None:
                q = math.prod(self.scales[s] ** e for s, e in key)
                steps.append(SubductionStep(m * q / scale, c))
            _subtract(work, m, p)
        return work, scale, steps, met

    def witness(self, u: Sequence[int], v: Sequence[int]) -> Polynomial | None:
        """The monic remainder of the lift monic(f^u) - monic(f^v), or None for 0.

        The last result stands while no generator adjoined since has a lead
        dividing a lead its subduction met: such a generator takes exponent 0
        in every factorization of those leads, so the subduction repeats step
        for step."""
        key = (self._key(u), self._key(v))
        if key in self.results:
            seen, met, w = self.results[key]
            if not any(all(map(operator.le, lead, t)) for _, lead in self.named[seen:] for t in met):
                self.results[key] = (len(self.named), met, w)
                return w
        pu, pv = self.product(key[0]), self.product(key[1])
        au, av = pu[max(pu)], pv[max(pv)]
        g = math.gcd(au, av)
        lift = {w: c * (av // g) for w, c in pu.items()}
        _subtract(lift, au // g, pv)
        r, _, _, met = self.subduct(lift)
        w = None
        if r:
            lc, unpack = r[max(r)], self.packing.unpack
            w = Polynomial.from_dict(self.ring, {Monomial(unpack(m)): Fraction(c, lc) for m, c in r.items()})
        self.results[key] = (len(self.named), met, w)
        return w


def subduct_with_certificate(
    f: Polynomial, gens: Sequence[Polynomial], order: MonomialOrder
) -> SubductionResult:
    """Subtract products of generators while the leading monomial factors over their initials.

    The remainder is 0 (f lies in the algebra generated by `gens`) or has a
    leading monomial outside the semigroup of the generators' initials.  The
    recorded steps replay to f = sum(steps) + remainder; the factorization of
    each step is the lexicographically largest.  Runs on the words of `_Kept`.
    """
    ring = _check_subalgebra_gens(gens)
    if f.ring != ring:
        raise RingMismatchError("polynomial and generators from different rings")
    if f.is_zero():
        return SubductionResult(f, ())
    kept = _Kept(gens, order)
    r, scale, steps, _ = kept.widening(lambda: kept.subduct(*kept.primitive(f)))
    unpack = kept.packing.unpack
    remainder = Polynomial.from_dict(ring, {Monomial(unpack(w)): c / scale for w, c in r.items()})
    return SubductionResult(remainder, tuple(steps))


def subduct(f: Polynomial, gens: Sequence[Polynomial], order: MonomialOrder) -> Polynomial:
    return subduct_with_certificate(f, gens, order).remainder


def _sagbi_round(kept: _Kept) -> tuple[bool, tuple[Polynomial, ...]]:
    """Sagbi test of the sorted `kept.gens` on `kept.ideal`, the toric ideal of
    their leading monomials.

    A kernel pair (u, v) lifts to f^u / c^u - f^v / c^v, c the leading
    coefficients: c^u is the leading coefficient of f^u, so the lift is
    monic(f^u) - monic(f^v).
    """
    witnesses = set()
    for u, _, ((v, _),) in kept.ideal.kernel():
        w = kept.widening(lambda: kept.witness(u, v))
        if w is not None:
            witnesses.add(w)
    witnesses = _sort_gens(witnesses, kept.order)
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
    return _sagbi_round(_Kept(_sort_gens(gens, order), order))


def sagbi_complete(
    gens: Sequence[Polynomial], order: MonomialOrder, degree_cap: int
) -> SagbiState:
    """Adjoin subduction remainders of lifted syzygies up to the degree cap.

    Ends Confirmed when the test closes; ends TruncatedAtDegree(cap) when the
    only outstanding witnesses exceed the cap (the initial algebra may be
    infinitely generated, so unbounded completion is not offered).  One
    toric ideal of the leading monomials serves the whole completion: each
    adjoined witness inserts its leading monomial into it.  Products of
    powers are built once (`_Kept`).  A lift is subducted again when a
    generator adjoined since has a lead dividing a lead its last subduction
    met, even if that one ended in 0: the lexicographically largest
    factorization of that lead can change, and with it the remainder.
    """
    _check_subalgebra_gens(gens)
    if type(degree_cap) is not int:
        raise ValueError(f"degree cap must be an integer, got {degree_cap!r}")
    if degree_cap < 1:
        raise ValueError("degree cap must be positive")
    if degree_cap < max(g.total_degree() for g in gens):
        raise ValueError("degree cap below a generator degree")
    kept = _Kept(_sort_gens(gens, order), order)
    while True:
        ok, witnesses = _sagbi_round(kept)
        if ok:
            return SagbiState(tuple(kept.gens), order, None)
        admissible = [w for w in witnesses if w.total_degree() <= degree_cap]
        if not admissible:
            return SagbiState(tuple(kept.gens), order, degree_cap)
        kept.insert(admissible[0])


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


class InitialKernelReport(_Value):
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
