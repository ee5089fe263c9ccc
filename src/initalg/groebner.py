"""Division, Buchberger's algorithm, reduced Gröbner bases, initial ideals,
elimination, and kernels of polynomial or monomial algebra maps."""

from __future__ import annotations

import bisect
import heapq
import math
import operator
import os
from functools import cached_property
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from initalg.orders import (
    DegLex,
    EliminationOrder,
    MonomialOrder,
    Packing,
    RevLex,
    WeightOrder,
    _order_rows,
    leading_coeff,
    leading_monomial,
    leading_term,
    packing,
)
from initalg.poly import (
    Monomial,
    PolyRing,
    Polynomial,
    RingMismatchError,
    Term,
    WeightVector,
    ZeroPolynomialError,
    _Value,
    initial_form,
    is_weight_homogeneous,
    monomials_of_weight,
)

STEP_LIMIT_ENV = "INITALG_STEP_LIMIT"


class StepLimitExceeded(RuntimeError):
    """The Buchberger loop hit the configured step budget."""


def _step_limit(explicit: int | None) -> int | None:
    if explicit is not None:
        if not isinstance(explicit, int) or isinstance(explicit, bool) or explicit < 0:
            raise ValueError(f"step_limit must be a nonnegative integer, got {explicit!r}")
        return explicit
    raw = os.environ.get(STEP_LIMIT_ENV)
    if not raw:
        return None
    if not raw.strip().isdecimal():
        raise ValueError(f"{STEP_LIMIT_ENV} must be a nonnegative integer, got {raw!r}")
    return int(raw)


def _check_gens(gens: Sequence[Polynomial]) -> PolyRing:
    if not gens:
        raise ValueError("need at least one generator")
    ring = gens[0].ring
    if any(g.ring != ring for g in gens):
        raise RingMismatchError("generators from different rings")
    return ring


def divide(
    f: Polynomial, divisors: Sequence[Polynomial], order: MonomialOrder
) -> tuple[tuple[Polynomial, ...], Polynomial]:
    """Multivariate division: f = sum q_i d_i + r with no monomial of r in (lt(d_i)).

    Among applicable divisors the one with the smallest leading monomial under
    `order` is used, then the smallest index, so the result is deterministic.
    """
    ring = f.ring
    if any(d.is_zero() for d in divisors):
        raise ZeroPolynomialError("zero divisor in division")
    leads = [(leading_monomial(d, order), leading_coeff(d, order)) for d in divisors]
    quotients = [ring.zero() for _ in divisors]
    remainder: dict[Monomial, Fraction] = {}
    work = f
    while not work.is_zero():
        t = leading_term(work, order)
        candidates = [i for i, (lm, _) in enumerate(leads) if lm.divides(t.mono)]
        if candidates:
            i = min(candidates, key=lambda i: (order.key(leads[i][0]), i))
            lm, lc = leads[i]
            factor = Polynomial(ring, (Term(t.coeff / lc, t.mono.divide(lm)),))
            quotients[i] = quotients[i] + factor
            work = work - factor * divisors[i]
        else:
            remainder[t.mono] = t.coeff
            work = work - Polynomial(ring, (t,))
    return tuple(quotients), Polynomial.from_dict(ring, remainder)


# a polynomial with integer coefficients, keyed by exponent tuple or by word
_IntPoly = dict[tuple[int, ...] | int, int]


def _cleared(f: Polynomial) -> tuple[_IntPoly, int]:
    """(F, d) with f = F / d, F with integer coefficients and d > 0."""
    d = math.lcm(*(t.coeff.denominator for t in f.terms))
    return {t.mono.exponents: t.coeff.numerator * (d // t.coeff.denominator) for t in f.terms}, d


class _Overflow(Exception):
    """An exponent outgrew the packing; `_Reducer.widening` repacks and retries."""


def _first_bits(top: int) -> int:
    """The first field width: room for 4 times the largest exponent `top`, and at least 255."""
    return max(8, top.bit_length() + 2)


class _Reducer:
    """Divisors prepared for repeated reduction under one order, on integers
    and packed monomials.

    Monomials are words of an `orders.Packing` of the order: ints that compare
    as the order does, add as monomials multiply, and test divisibility with
    one mask.  Each divisor is kept as a row (lead, a, tail): the word of
    its lead, the lead coefficient a > 0 of its primitive integer multiple,
    and the tail as (word - lead, coefficient) pairs, so the tail of X^m
    times the row is m + offset.  `rows` and `leads` are in insertion order.
    `table` holds (lead, index, a, tail) sorted, so the first entry whose lead
    divides a monomial is the divisor `divide` would pick.

    The first packing comes from the first polynomial taken (`_first_bits`).
    An input exponent that does not fit, or a new monomial that sets a guard
    bit, raises `_Overflow` before it is compared; `widening` then doubles
    the field width, repacks every row and retries the step, so exponents of
    any size stay exact.  Only the reducer holds its current `packing`.
    Pass a reducer as `G` to `normal_form` to reuse its table.

    `sigs` maps the index of a row to its signature word while the signature
    route of `_route_rows` runs, and is empty otherwise.
    """

    def __init__(self, order: MonomialOrder, polys: Iterable[Polynomial] = ()):
        self.order = order
        self.ring: PolyRing | None = None
        self.rows: list[tuple] = []
        self.leads: list[int] = []
        self.table: list[tuple] = []
        self.sigs: dict[int, int] = {}
        self.packing = None
        for p in polys:
            self.add(p)

    def __len__(self) -> int:
        return len(self.rows)

    def _use(self, new: Packing, at: int | None = None) -> None:
        """Switch to the packing `new`, repacking the rows in place; with `at`,
        every exponent vector gains a zero entry at `at` (a new variable)."""
        old, self.packing = self.packing, new
        if self.rows:
            unpack = old.unpack

            def pack(e: tuple[int, ...]) -> int:
                return new.pack(e if at is None else e[:at] + (0,) + e[at:])

            for k, (lead, a, tail) in enumerate(self.rows):
                word = pack(unpack(lead))
                tail = tuple((pack(unpack(lead + off)) - word, b) for off, b in tail)
                self.rows[k] = (word, a, tail)
                self.leads[k] = word
            self.table = sorted((row[0], k) + row[1:] for k, row in enumerate(self.rows))

    def _take(self, f: Polynomial, mismatch: str) -> None:
        """Check f's ring (the first one is taken, with the first packing)."""
        if self.ring is None:
            self.ring = f.ring
            top = max((e for t in f.terms for e in t.mono.exponents), default=0)
            self._use(packing(self.order, f.ring.n, _first_bits(top)))
        elif f.ring != self.ring:
            raise RingMismatchError(mismatch)

    def widening(self, step, keep: int | None = None):
        """step(), retried with twice the field width while it overflows; with
        `keep`, the rows past the first `keep` are dropped before each retry."""
        while True:
            try:
                return step()
            except _Overflow:
                if keep is not None:  # `_use` rebuilds the table from the rows left
                    del self.rows[keep:], self.leads[keep:], self.table[:]
                self._use(packing(self.order, self.packing.n, 2 * self.packing.bits))

    def _packed(self, coeffs: _IntPoly) -> _IntPoly:
        """`coeffs` keyed by words; `_Overflow` if an exponent does not fit."""
        P = self.packing
        if max(map(max, coeffs), default=0) >> P.bits:
            raise _Overflow
        return {P.pack(e): c for e, c in coeffs.items()}

    def add(self, p: Polynomial) -> None:
        """Append the primitive integer multiple of p and extend the divisor table."""
        if p.is_zero():
            raise ZeroPolynomialError("zero divisor in division")
        self._take(p, "divisors from different rings")
        coeffs = _cleared(p)[0]
        self.add_row(self.widening(lambda: self._packed(coeffs)))

    def add_row(self, coeffs: _IntPoly) -> None:
        """Append the primitive multiple, with positive lead, of nonzero integer
        `coeffs` (keyed by word), which is consumed."""
        lead = max(coeffs)
        content = math.gcd(*coeffs.values())
        if coeffs[lead] < 0:
            content = -content
        tail = tuple((m - lead, c // content) for m, c in coeffs.items() if m != lead)
        a = coeffs[lead] // content
        bisect.insort(self.table, (lead, len(self.rows), a, tail))
        self.leads.append(lead)
        self.rows.append((lead, a, tail))

    def s_pair(self, i: int, j: int, L: int | None = None) -> _IntPoly:
        """(a_j/g) X^(L-l_i) tail_i - (a_i/g) X^(L-l_j) tail_j of rows i and j,
        g = gcd(a_i, a_j), L = lcm(l_i, l_j) or a given multiple of it: a_i a_j / g
        times the S-polynomial of the two monic divisors, times X^L / lcm."""
        (li, ai, ti), (lj, aj, tj) = self.rows[i], self.rows[j]
        if L is None:
            L = self.packing.lcm(li, lj)
        g = math.gcd(ai, aj)
        acc: _IntPoly = {}
        for tail, c in ((ti, aj // g), (tj, -(ai // g))):
            for off, b in tail:
                m = L + off
                if v := acc.get(m, 0) + c * b:
                    acc[m] = v
                else:
                    del acc[m]
        guard = self.packing.guard
        if any(m & guard for m in acc):
            raise _Overflow
        return acc

    def reduce_ints(self, work: _IntPoly, bound: int | None = None) -> tuple[_IntPoly, int, int]:
        """(r, num, den) with r integer, num, den > 0, and r * den / num the
        remainder of `work` (keyed by word) by `divide`'s rule.  `work` is consumed.
        With a signature word `bound`, a row k with a signature in `sigs` is
        skipped where its multiple's signature X^(t - l) sigs[k] is not below
        it, and a signature word that sets a guard bit raises `_Overflow`.

        Fraction-free: to cancel c X^t by a row (a, tail) with lead l, work
        and the remainder kept so far are scaled by k = a / g, g = gcd(a, c),
        and (c / g) X^(t - l) tail is subtracted.  A step that scales first
        divides out the content h of work, remainder and c / g, so common
        factors do not pile up; num / den is the product of the factors k / h.
        The heap holds negated words, so it pops the largest monomial first.
        """
        table, guard, sigs = self.table, self.packing.guard, self.sigs
        heap = [-m for m in work]
        heapq.heapify(heap)
        kept: _IntPoly = {}
        num = den = 1
        while heap:
            t = -heapq.heappop(heap)
            c = work.pop(t, None)
            if c is None:  # cancelled after it was pushed
                continue
            for lead, k, a, tail in table:
                if not (t - lead) & guard:
                    if bound is not None and k in sigs:
                        s = t - lead + sigs[k]
                        if s & guard:
                            raise _Overflow
                        if s >= bound:
                            continue
                    g = math.gcd(a, c)
                    c //= g
                    if g != a:
                        k = a // g
                        h = math.gcd(c, *work.values(), *kept.values())
                        c //= h
                        work = {e: v // h * k for e, v in work.items()}
                        kept = {e: v // h * k for e, v in kept.items()}
                        num *= k
                        den *= h
                    for off, b in tail:
                        m = t + off
                        old = work.get(m)
                        if old is None:
                            if m & guard:
                                raise _Overflow
                            work[m] = -c * b
                            heapq.heappush(heap, -m)
                        elif v := old - c * b:
                            work[m] = v
                        else:
                            del work[m]
                    break
            else:
                kept[t] = c
        return kept, num, den

    def reduce(self, f: Polynomial) -> Polynomial:
        """Remainder of f by `divide`'s rule: denominators cleared, reduced on integers."""
        self._take(f, "polynomials from different rings")
        coeffs, d = _cleared(f)
        r, num, den = self.widening(lambda: self.reduce_ints(self._packed(coeffs)))
        s = Fraction(num * d, den)
        unpack = self.packing.unpack
        return Polynomial.from_dict(f.ring, {Monomial(unpack(m)): c / s for m, c in r.items()})


def normal_form(f: Polynomial, G: Sequence[Polynomial], order: MonomialOrder) -> Polynomial:
    """Remainder of f under full tail reduction modulo G.

    Equals ``divide(f, G, order)[1]``: among applicable divisors the one with
    the smallest leading monomial is used, then the smallest index.  The
    reduction runs fraction-free on the integer rows of a `_Reducer`, and the
    exact remainder is divided out at the end.
    """
    reducer = G if isinstance(G, _Reducer) and G.order == order else _Reducer(order, G)
    return reducer.reduce(f)


def s_polynomial(f: Polynomial, g: Polynomial, order: MonomialOrder) -> Polynomial:
    """(L / lt(f)) f - (L / lt(g)) g, L = lcm of the leads, built from the tails alone."""
    if f.ring != g.ring:
        raise RingMismatchError("polynomials from different rings")
    lf, lg = leading_term(f, order), leading_term(g, order)
    L = tuple(map(max, lf.mono.exponents, lg.mono.exponents))
    acc: dict[tuple[int, ...], Fraction] = {}
    for p, lead, sign in ((f, lf, 1), (g, lg, -1)):
        scale = sign / lead.coeff
        shift = tuple(map(operator.sub, L, lead.mono.exponents))
        for t in p.terms:
            if t is not lead:
                m = tuple(map(operator.add, t.mono.exponents, shift))
                acc[m] = acc.get(m, 0) + scale * t.coeff
    return Polynomial.from_dict(f.ring, {Monomial(e): c for e, c in acc.items()})


class MonomialIdeal(_Value):
    """Monomial ideal given by its minimal (antichain) generators."""

    _fields = ("ring", "mingens")

    def __init__(self, ring: PolyRing, mingens: tuple[Monomial, ...]):
        super().__init__(ring, mingens)

    @staticmethod
    def from_monomials(ring: PolyRing, monos: Iterable[Monomial]) -> MonomialIdeal:
        monos = sorted(set(monos), key=lambda m: (m.degree(), m.exponents))
        kept: list[Monomial] = []
        for m in monos:
            if not any(k.divides(m) for k in kept):
                kept.append(m)
        return MonomialIdeal(ring, tuple(kept))

    def contains(self, mono: Monomial) -> bool:
        return any(g.divides(mono) for g in self.mingens)

    def standard_monomials(self, weight: WeightVector, degree: int) -> list[Monomial]:
        """Monomials of weighted degree `degree` outside the ideal, ascending by exponents."""
        return [m for m in monomials_of_weight(self.ring.n, weight, degree) if not self.contains(m)]

    def polynomials(self) -> tuple[Polynomial, ...]:
        return tuple(Polynomial(self.ring, (Term(Fraction(1), m),)) for m in self.mingens)

    def __iter__(self) -> Iterator[Monomial]:
        return iter(self.mingens)

    def __len__(self) -> int:
        return len(self.mingens)


class ReducedGroebnerBasis(_Value):
    """The unique reduced Gröbner basis of an ideal for a fixed order.

    Elements are monic, fully reduced against each other, and sorted ascending
    by leading monomial.  A basis from `buchberger` keeps the interreduced
    primitive integer rows of a `_Reducer` and makes the monic Fraction
    `elements` from them only when they are first read; one built from
    elements makes its rows from them.  `normal_form`, `contains`,
    `initial_ideal` and `_terms` read the rows.
    """

    _fields = ("ring", "order", "elements")

    def __init__(self, ring: PolyRing, order: MonomialOrder, elements: tuple[Polynomial, ...]):
        super().__init__(ring, order, elements)

    @classmethod
    def _from_rows(cls, ring: PolyRing, order: MonomialOrder, reducer: _Reducer) -> ReducedGroebnerBasis:
        gb = cls.__new__(cls)
        _Value.__init__(gb, ring, order)  # every field but `elements`, read off the rows
        gb.__dict__["_reducer"] = reducer
        return gb

    @cached_property
    def elements(self) -> tuple[Polynomial, ...]:
        unpack = self._reducer.packing.unpack
        return tuple(_monic(self.ring, row, unpack) for row in self._reducer.rows)

    def __iter__(self) -> Iterator[Polynomial]:
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def normal_form(self, f: Polynomial) -> Polynomial:
        return normal_form(f, self._reducer, self.order)

    @cached_property
    def _reducer(self) -> _Reducer:
        return _Reducer(self.order, self.elements)

    def contains(self, f: Polynomial) -> bool:
        return self.normal_form(f).is_zero()

    def leading_monomials(self) -> tuple[Monomial, ...]:
        return tuple(leading_monomial(g, self.order) for g in self.elements)

    def initial_ideal(self) -> MonomialIdeal:
        return _lead_ideal(self.ring, self._reducer)

    def _terms(self) -> list[list[tuple[tuple[int, ...], int, int]]]:
        """Each monic element as its terms (exponents, numerator, denominator),
        descending in the order, read off its row: the input of `format_terms`."""
        P = self._reducer.packing  # None for no rows
        return [[(P.unpack(lead), 1, 1)] + [
            (P.unpack(lead + off), c // g, a // g) for off, c in sorted(tail, reverse=True)
            for g in [math.gcd(c, a)]] for lead, a, tail in self._reducer.rows]


def _interreduce(basis: _Reducer, rows: Iterable[tuple] | None = None) -> _Reducer:
    # `rows` of basis (default all) in one pass ascending by lead, dropping a
    # row when a kept lead divides its lead; a lead dividing a monomial of the
    # tail is at most it, so reducing the tail once by the reduced prefix is
    # final.  The tail reduces to r * den / num: the row is a num X^lead + den r
    reduced = _Reducer(basis.order)
    reduced.ring = basis.ring
    reduced._use(basis.packing)
    for lead, a, tail in sorted(basis.rows if rows is None else rows, key=operator.itemgetter(0)):
        if not reduced.packing.dividing(reduced.leads, lead):
            r, num, den = reduced.reduce_ints({lead + off: b for off, b in tail})
            row = {m: den * c for m, c in r.items()}
            row[lead] = a * num
            reduced.add_row(row)
    return reduced


def _monic(ring: PolyRing, row: tuple, unpack) -> Polynomial:
    lead, a, tail = row
    coeffs = {Monomial(unpack(lead + off)): Fraction(c, a) for off, c in tail}
    coeffs[Monomial(unpack(lead))] = Fraction(1)
    return Polynomial.from_dict(ring, coeffs)


def _pairs(basis, limit: int | None) -> Iterator[tuple[int, int]]:
    """Yield the S-pairs (i, j) of `basis.leads` that survive the criteria.

    The leads are words of `basis.packing`, which the basis replaces when it
    widens: the leads are then repacked in place and the waiting pairs are
    keyed again.  Pairs wait in a heap keyed (lcm word, (i, j)), a word
    comparing as the order does: Buchberger's normal strategy.  The leads,
    the first ones and those appended while iterating, are installed in
    order before the next pair is taken, by the criteria of Gebauer and
    Möller (1988).  For a new lead h:

    - a waiting pair (i, j) of lcm L dies if h divides L and both
      lcm(i, h) and lcm(j, h) differ from L;
    - of the pairs (k, h), k running over the rows that no later lead
      divides, those whose lcm another one's properly divides are dropped;
      of those of equal lcm one stays (the smallest k), and none if one of
      them has coprime leads;
    - a row whose lead h divides takes part in no later pair.

    Yielding more than `limit` pairs raises StepLimitExceeded.
    """
    leads = basis.leads
    queue: list[tuple] = []  # (lcm word, (i, j))
    rows: list[int] = []  # the rows that new leads still pair with
    steps = installed = 0
    P = None
    while True:
        if basis.packing is not P:  # first or widened: the words change, their order does not
            P = basis.packing
            lcm, guard = P.lcm, P.guard
            for pos, (_, (i, j)) in enumerate(queue):
                queue[pos] = (lcm(leads[i], leads[j]), (i, j))
        for new in range(installed, len(leads)):
            h = leads[new]
            alive = [(L, (i, j)) for L, (i, j) in queue
                     if (L - h) & guard or lcm(leads[i], h) == L or lcm(leads[j], h) == L]
            if len(alive) < len(queue):
                queue = alive
                heapq.heapify(queue)
            # ascending words: a proper divisor of L comes before L
            minimal: dict[int, int] = {}  # lcm -> smallest k, for the lcms no other properly divides
            coprime: set[int] = set()
            for L, k in sorted((lcm(leads[k], h), k) for k in rows):
                if L == leads[k] + h:
                    coprime.add(L)
                if L not in minimal and all((L - m) & guard for m in minimal):
                    minimal[L] = k
            for L, k in minimal.items():
                if L not in coprime:
                    heapq.heappush(queue, (L, (k, new)))
            rows = [k for k in rows if (leads[k] - h) & guard]
            rows.append(new)
        installed = len(leads)
        if not queue:
            return
        _, pair = heapq.heappop(queue)
        steps += 1
        if limit is not None and steps > limit:
            raise StepLimitExceeded(f"exceeded {limit} S-polynomial reductions")
        yield pair


def _groebner_rows(
    gens: Sequence[Polynomial], order: MonomialOrder, step_limit: int | None
) -> _Reducer:
    """A Gröbner basis of the ideal of `gens` as the rows of a `_Reducer`,
    neither interreduced nor made monic: the pair loop of `buchberger`.

    Each element is a primitive integer row, reduced fraction-free against
    the table by the same rule as `divide`, and a nonzero remainder is
    appended as a primitive row.  Monomials are packed words
    (`orders.Packing`): the order comparison, the monomial product and the
    divisibility test are each one int operation, and the pair criteria run
    on words too.  The field width comes from the input's exponents; a step
    whose exponents outgrow it sets a guard bit, and the reducer widens the
    packing, repacks the rows and redoes the step, so no exponent is ever
    cut.  The step budget (argument or the INITALG_STEP_LIMIT environment
    variable) bounds the number of S-polynomial reductions.  When every
    generator is zero there is no row.  `_route_rows` completes the rows.
    """
    _check_gens(gens)
    limit = _step_limit(step_limit)
    basis = _Reducer(order)
    polys = [g for g in gens if not g.is_zero()]
    if polys:
        basis._take(polys[0], "generators from different rings")
        _route_rows(basis, [_cleared(g)[0] for g in polys], limit)
    return basis


def _route_rows(basis: _Reducer, cleared: list[_IntPoly], limit: int | None) -> None:
    """Append to the empty, packed `basis` the rows of a Gröbner basis of the
    ideal of the nonzero integer polynomials `cleared` (keyed by exponent
    vector), for `_groebner_rows` and the first basis of `_Presentation`
    (whose `insert` adjoins each later row by `_signature_step`).

    Two routes give the same leads, hence the same reduced basis.  When
    every generator is homogeneous (`_homogeneous`), `_complete_rows` takes
    pairs by the normal strategy, pruned by the Gebauer-Möller criteria;
    otherwise `_signature_rows` adjoins the generators one at a time by a
    signature loop.  The rule is a measured crossover: the signature loop
    makes no zero reduction on cyclic-5 and katsura-5, but twice the
    reductions of Gebauer-Möller on the quadrics of rational normal curves
    and on the total ideal of a flat family.  On ungraded toric kernels
    (binomial rows) the signature loop was the faster route too.
    """
    if _homogeneous(cleared, basis.order, basis.packing.n):
        for F in cleared:
            basis.add_row(basis.widening(lambda: basis._packed(F)))
        _complete_rows(basis, limit)
    else:
        _signature_rows(basis, [(max(map(sum, F)), F) for F in cleared], limit)


def _homogeneous(rows: list[_IntPoly], order: MonomialOrder, n: int) -> bool:
    """Whether every integer polynomial of `rows` (keyed by exponent vector) is
    homogeneous under the standard grading, or under the first row w of the
    order's matrix when w is a positive weight other than the total degree (a
    weight order's, or the extended weight of a flat family's total order),
    which the normal strategy then follows degree by degree."""
    if all(len(set(map(sum, F))) == 1 for F in rows):
        return True
    w = _order_rows(order, n)[0]
    return min(w) > 0 and max(w) > 1 and all(
        len({sum(map(operator.mul, e, w)) for e in F}) == 1 for F in rows)


def _signature_rows(basis: _Reducer, gens: list[tuple[int, _IntPoly]], limit: int | None) -> None:
    """Append to the empty `basis` the rows of a Gröbner basis of the ideal of
    the integer polynomials F (keyed by exponent vector) of `gens`, given as
    (total degree, F), adjoining them one at a time: ascending by total
    degree, the larger lead first on a tie.

    Each generator f is reduced by the rows already there, which form a
    Gröbner basis G of the earlier generators, and is then completed by an
    incremental signature loop (position over term; Faugère's F5, ISSAC 2002;
    Eder-Faugère, JSC 2017).  A new row h stands for u f + (an element of
    (G)), and its signature is the lead of u, a word of the reducer's
    packing.  The candidates are the signatures of the S-pairs of the new
    rows with each other and with the rows of G that have a minimal lead,
    the larger of the two sides, taken smallest first.  A candidate s is
    dropped when a known syzygy signature divides it: the lead of a row of G
    (f g - g f is a syzygy), or an earlier zero reduction.  So a row of G
    whose lead is coprime to a new row's makes no candidate: it would be a
    multiple of that lead (the product criterion as a Koszul syzygy).  Else
    s is rewritten as the multiple X^(s - s_c) h_c of the latest row c whose
    signature divides s (the rewrite criterion of F5).  If no other row
    reduces its lead with a signature below s, c covers s and nothing is
    reduced; else it is reduced only by such multiples, and a remainder
    whose lead a new row reduces with signature exactly s is dropped.  A
    step that overflows the packing drops its rows and is redone wider.  The
    budget `limit` counts the candidates reduced.
    """
    packed = basis.widening(lambda: [(d, -max(f), F, f) for d, F in gens for f in [basis._packed(F)]])
    packed.sort(key=operator.itemgetter(0, 1))
    first, used = basis.packing, 0
    for _, _, F, f in packed:
        # f is consumed by the step, and a retried step has a wider packing
        step = lambda: _signature_step(
            basis, f if basis.packing is first else basis._packed(F), limit, used)
        used = basis.widening(step, len(basis))


def _signature_step(basis: _Reducer, f: _IntPoly, limit: int | None, used: int) -> int:
    """One generator f (keyed by word, consumed) of `_signature_rows`;
    returns `used` plus the candidates reduced.  A pair of a new row and a
    row of G with coprime leads is never made, by one AND of their supports."""
    if not basis:  # the first generator: no pair, nothing to reduce by
        basis.add_row(f)
        return used
    f = basis.reduce_ints(f)[0]
    if not f:
        return used
    P, leads = basis.packing, basis.leads
    guard, lcm, support = P.guard, P.lcm, P.support
    old = len(leads)
    basis.sigs = sigs = {}
    # lead(g) e for the rows g of G with a minimal lead, one per lead: the
    # Koszul syzygies, and the rows a new row pairs with (a Gröbner basis too)
    syzygies: list[int] = []  # the minimal known syzygy signatures
    partners = []  # (j, the support of lead j)
    for z, j in sorted(zip(leads, range(old))):  # a divisor comes first
        if all((z - y) & guard for y in syzygies):
            syzygies.append(z)
            partners.append((j, support(z)))
    queue: list[int] = []  # candidate signatures

    def note(z: int) -> None:
        if all((z - y) & guard for y in syzygies):
            syzygies[:] = [y for y in syzygies if (y - z) & guard]
            syzygies.append(z)

    def adjoin(row: _IntPoly, sig: int) -> None:
        k = len(leads)
        basis.add_row(row)
        sigs[k] = sig
        h, mask = leads[k], support(leads[k])
        for j, z in partners:
            if z & mask:  # else s = lead j + sig, a multiple of the syzygy lead j
                s = lcm(leads[j], h) - h + sig
                if s & guard:
                    raise _Overflow
                heapq.heappush(queue, s)
        for j in range(old, k):
            L = lcm(leads[j], h)
            s, r = L - h + sig, L - leads[j] + sigs[j]
            if (r | s) & guard:
                raise _Overflow
            if r != s:
                heapq.heappush(queue, max(r, s))

    adjoin(f, 0)
    last = None
    while queue:
        s = heapq.heappop(queue)
        if s == last:
            continue
        last = s
        if not all((s - z) & guard for z in syzygies):
            continue
        # rewritten as the multiple of the latest row whose signature divides s
        c = next(k for k in reversed(sigs) if not (s - sigs[k]) & guard)
        m = s - sigs[c] + leads[c]
        if m & guard:
            raise _Overflow
        for l, k, _, _ in basis.table:  # the first row reducing X^m below s, as in reduce_ints
            if not (m - l) & guard:
                if k not in sigs:
                    break
                u = m - l + sigs[k]
                if u & guard:
                    raise _Overflow
                if u < s:
                    break
        else:
            continue  # only row c reduces it: row c covers s
        used += 1
        if limit is not None and used > limit:
            raise StepLimitExceeded(f"exceeded {limit} S-polynomial reductions")
        r = basis.reduce_ints(basis.s_pair(c, k, m), s)[0]
        if not r:
            note(s)
            continue
        t = max(r)
        if all((t - leads[k]) & guard or t - leads[k] + sigs[k] != s for k in sigs):
            adjoin(r, s)
    basis.sigs = {}
    return used


def _complete_rows(basis: _Reducer, limit: int | None) -> None:
    """Append rows to `basis` until they form a Gröbner basis: each S-pair
    from `_pairs` is reduced against the table, and a nonzero remainder is
    appended as a primitive row.

    Pairs come by the normal strategy (under lex it avoids the coefficient
    swell of degree-first selection), pruned by the Gebauer-Möller criteria
    as each new lead arrives.  The rows a later lead divides stay in the
    divisor table, though they pair with no later lead."""
    for i, j in _pairs(basis, limit):
        r = basis.widening(lambda: basis.reduce_ints(basis.s_pair(i, j))[0])
        if r:
            basis.add_row(r)


def buchberger(
    gens: Sequence[Polynomial], order: MonomialOrder, step_limit: int | None = None
) -> ReducedGroebnerBasis:
    """Reduced Gröbner basis of the ideal generated by `gens` under `order`.

    The pair loop `_groebner_rows` gives a Gröbner basis as integer rows on
    packed words, and one pass of `_interreduce` reduces it.  The result
    keeps those rows: a row is unpacked into a monic Fraction polynomial
    only when `elements` is first read, and the `gb` report reads the rows.
    `initial_ideal` runs the same loop and stops before the interreduction,
    so the step budget (argument or the INITALG_STEP_LIMIT environment
    variable) is spent on the same pairs.
    """
    basis = _groebner_rows(gens, order, step_limit)  # checks gens before gens[0] is read
    return _reduced_basis(gens[0].ring, order, basis)


def _reduced_basis(ring: PolyRing, order: MonomialOrder, basis: _Reducer) -> ReducedGroebnerBasis:
    """The reduced Gröbner basis from the rows of `_groebner_rows`, kept as rows."""
    if not basis:
        return ReducedGroebnerBasis(ring, order, ())
    return ReducedGroebnerBasis._from_rows(ring, order, basis.widening(lambda: _interreduce(basis)))


def initial_ideal(gens: Sequence[Polynomial], order: MonomialOrder) -> MonomialIdeal:
    """Minimal monomial generators of the initial ideal under `order`.

    ini(I) is generated by the leads of any Gröbner basis of I, so this runs
    only the pair loop `_groebner_rows` of `buchberger`, with no
    interreduction and no Fraction polynomial: each lead word is unpacked
    once and `MonomialIdeal.from_monomials` keeps the minimal ones.  The
    result, `mingens` in order, equals ``buchberger(gens, order).initial_ideal()``,
    and the step budget runs out at the same pair.
    """
    basis = _groebner_rows(gens, order, None)
    return _lead_ideal(gens[0].ring, basis)


def _lead_ideal(ring: PolyRing, basis: _Reducer) -> MonomialIdeal:
    """The ideal of the leads of the rows of `_groebner_rows`, each unpacked once."""
    leads = (Monomial(basis.packing.unpack(word)) for word in basis.leads)
    return MonomialIdeal.from_monomials(ring, leads)


def initial_ideal_weight(
    gens: Sequence[Polynomial], a: WeightVector, tiebreak: MonomialOrder | None = None
) -> tuple[Polynomial, ...]:
    """Generators of the ideal of a-initial forms: ini_a applied to the weight-order GB.

    The output polynomials are a-homogeneous but in general not monomials.
    """
    if tiebreak is None:
        tiebreak = RevLex()
    gb = buchberger(gens, WeightOrder(a, tiebreak))
    return tuple(initial_form(g, a) for g in gb)


def eliminate(gens: Sequence[Polynomial], keep: Sequence[int | str]) -> tuple[Polynomial, ...]:
    """Reduced Gröbner basis of I ∩ K[kept variables] under revlex, in the original ring.

    `keep` lists the variables to retain (names or indices); the rest are
    eliminated through a block order in which they dominate.
    """
    ring = _check_gens(gens)
    keep_idx = tuple(sorted(ring.var_index(v) if isinstance(v, str) else v for v in keep))
    if len(set(keep_idx)) != len(keep_idx):
        raise ValueError("duplicate kept variable")
    if any(i < 0 or i >= ring.n for i in keep_idx):
        raise ValueError("kept variable out of range")
    elim_idx = tuple(i for i in range(ring.n) if i not in keep_idx)
    order = EliminationOrder(elim_idx, keep_idx, DegLex(), RevLex())
    gb = buchberger(gens, order)
    kept = []
    for g in gb:
        if all(all(t.mono.exponents[i] == 0 for i in elim_idx) for t in g.terms):
            kept.append(g)
    return tuple(kept)


class AlgebraKernel(_Value):
    """Relations among ring elements: the kernel of Y_i -> images[i]."""

    _fields = ("ring", "images", "gens")

    def __init__(
        self,
        ring: PolyRing,  # fresh ring in the Y variables
        images: tuple[Polynomial, ...],
        gens: tuple[Polynomial, ...],  # reduced revlex GB of the kernel in `ring`, ascending
    ):
        super().__init__(ring, images, gens)


def presentation_kernel(
    images: Sequence[Polynomial], names: Sequence[str] | None = None
) -> AlgebraKernel:
    """All polynomial relations among `images`: Ker(K[Y] -> R, Y_i -> f_i).

    The Y-only rows of `_Presentation`, made monic in a fresh ring: the
    reduced revlex Gröbner basis of the kernel, ascending by lead.
    `eliminate` computes the same on Fraction polynomials.
    """
    source = _check_gens(images)
    if any(g.is_zero() for g in images):
        raise ZeroPolynomialError("kernel images must be nonzero")
    k = len(images)
    fresh = tuple(f"Y{i + 1}" for i in range(k)) if names is None else tuple(names)
    if len(fresh) != k:
        raise ValueError("need one fresh name per image")
    clash = set(fresh) & set(source.names)
    if clash:
        raise ValueError(f"fresh names collide with ring variables: {sorted(clash)}")
    target = PolyRing(fresh)
    gens = tuple(
        Polynomial.from_dict(target, {Monomial(u): 1} | {Monomial(v): Fraction(b, a) for v, b in tail})
        for u, a, tail in _Presentation(source.n, map(_cleared, images)).kernel()
    )
    return AlgebraKernel(target, tuple(images), gens)


class _Presentation:
    """A Gröbner basis of (d_i Y_i - F_i) in K[x, Y] as the rows of a
    `_Reducer`, not interreduced, for nonzero images f_i = F_i / d_i cleared
    as by `_cleared`: the kernel engine of `presentation_kernel`,
    `toric_kernel` and Sagbi completion.

    The variables are x, then Y, under `_order`: the elimination order
    (DegLex on x, then RevLex on Y), refined by the grading w(x) = 1,
    w(Y_i) = deg f_i when every image is homogeneous of positive degree, so
    pairs are taken degree by degree.  Each generator is then w-homogeneous,
    so the ideal is, and on w-homogeneous polynomials both orders pick the
    same leading terms.  Either way the x-free rows of any Gröbner basis form
    one of the kernel, and `kernel` interreduces them into its reduced revlex
    basis (Sturmfels 1996, ch. 4).  `_route_rows` completes the first rows
    under the step budget of INITALG_STEP_LIMIT (graded rows by
    Gebauer-Möller, ungraded ones by the signature loop); `insert` adjoins
    each later row by one `_signature_step`.  For monomial images every row
    stays a binomial X^u - X^v, (lead, 1, ((tail - lead, -1),)).
    """

    def __init__(self, n: int, images: Iterable[tuple[_IntPoly, int]]):
        self.n, self.images = n, list(images)
        basis = _Reducer(self._order())
        top = max((e for F, _ in self.images for m in F for e in m), default=0)
        basis._use(packing(basis.order, n + len(self.images), _first_bits(top)))
        _route_rows(basis, [self._row(i) for i in range(len(self.images))], _step_limit(None))
        self.basis = basis

    def _order(self) -> MonomialOrder:
        n, k = self.n, len(self.images)
        elim = EliminationOrder(tuple(range(n)), tuple(range(n, n + k)), DegLex(), RevLex())
        degrees = [{sum(m) for m in F} for F, _ in self.images]
        if all(len(ds) == 1 and 0 not in ds for ds in degrees):
            return WeightOrder(WeightVector((1,) * n + tuple(ds.pop() for ds in degrees)), elim)
        return elim

    def insert(self, pos: int, exps: tuple[int, ...]) -> None:
        """Adjoin Y at position `pos` with image x^exps and complete the basis again.

        The old basis stays a Gröbner basis, as the order on monomials free of
        the new variable is unchanged (so are their weighted degrees, and revlex
        decides by the last variable in which two monomials differ, never the
        new one), so one `_signature_step` adjoins the new row under the budget.
        A constant image would drop the grading, so graded images refuse it.
        """
        basis = self.basis
        if not any(exps) and isinstance(basis.order, WeightOrder):
            raise ValueError("a constant image would drop the grading of the kernel order")
        self.images.insert(pos, ({tuple(exps): 1}, 1))
        basis.order = self._order()
        basis._use(packing(basis.order, basis.packing.n + 1, basis.packing.bits), self.n + pos)
        row, limit = self._row(pos), _step_limit(None)
        basis.widening(lambda: _signature_step(basis, basis._packed(row), limit, 0), len(basis))

    def _row(self, i: int) -> _IntPoly:
        """d Y_i - F for the image F / d at position i, keyed by exponent vector."""
        (F, d), k = self.images[i], len(self.images)
        row = {m + (0,) * k: -c for m, c in F.items()}
        row[(0,) * self.n + tuple(int(j == i) for j in range(k))] = d
        return row

    def kernel(self) -> list[tuple[tuple[int, ...], int, tuple]]:
        """The reduced revlex basis of the kernel as (u, a, ((v, b), ...)), for
        a Y^u + sum b Y^v, ascending by the revlex order of the leads Y^u: the
        rows with an x-free lead, so x-free, interreduced and then unpacked."""
        n, basis = self.n, self.basis
        # the x fields are the low bits of a word: an x-free lead is 0 there
        kernel = basis.widening(lambda: _interreduce(basis, [
            row for x in [(1 << basis.packing.shifts[n]) - 1] for row in basis.rows if not row[0] & x]))
        unpack, ykey = kernel.packing.unpack, RevLex().key
        rows = [(unpack(lead)[n:], a, tuple((unpack(lead + off)[n:], b) for off, b in tail))
                for lead, a, tail in kernel.rows]
        return sorted(rows, key=lambda row: ykey(Monomial(row[0])))


def toric_kernel(
    ring: PolyRing,
    monomials: Sequence[Monomial],
    names: Sequence[str] | None = None,
) -> AlgebraKernel:
    """Kernel of the monomial map Y_i -> m_i: its reduced revlex GB of binomials Y^u - Y^v.

    The `presentation_kernel` of the monomials as polynomials with coefficient 1.  A set
    with 1 is ungraded, so only the step budget bounds it: there is no default one.
    """
    return presentation_kernel([Polynomial.from_dict(ring, {m: 1}) for m in monomials], names)


def quadratic_initial_certificate(gens: Sequence[Polynomial], order: MonomialOrder) -> bool:
    """True iff the initial ideal is generated in degree exactly 2.

    Requires generators homogeneous for the standard grading; a true result
    certifies the quotient is Koszul, false certifies nothing.
    """
    ring = _check_gens(gens)
    ones = WeightVector.ones(ring.n)
    if not all(is_weight_homogeneous(g, ones) for g in gens):
        raise ValueError("generators must be homogeneous for the standard grading")
    # the zero ideal has no generators, so it is vacuously generated in degree 2
    return all(m.degree() == 2 for m in initial_ideal(gens, order).mingens)
