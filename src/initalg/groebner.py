"""Division, Buchberger's algorithm, reduced Gröbner bases, initial ideals,
elimination, and kernels of polynomial or monomial algebra maps."""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from initalg.orders import (
    DegLex,
    EliminationOrder,
    MonomialOrder,
    RevLex,
    WeightOrder,
    leading_coeff,
    leading_monomial,
    leading_term,
    monic,
)
from initalg.poly import (
    Monomial,
    PolyRing,
    Polynomial,
    RingMismatchError,
    Term,
    WeightVector,
    ZeroPolynomialError,
    initial_form,
    is_weight_homogeneous,
)

STEP_LIMIT_ENV = "INITALG_STEP_LIMIT"


class StepLimitExceeded(RuntimeError):
    """The Buchberger loop hit the configured step budget."""


def _step_limit(explicit: int | None) -> int | None:
    if explicit is not None:
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


def normal_form(f: Polynomial, G: Sequence[Polynomial], order: MonomialOrder) -> Polynomial:
    """Remainder of f under full tail reduction modulo G."""
    return divide(f, G, order)[1]


def s_polynomial(f: Polynomial, g: Polynomial, order: MonomialOrder) -> Polynomial:
    lf, lg = leading_term(f, order), leading_term(g, order)
    L = lf.mono.lcm(lg.mono)
    mf = Polynomial(f.ring, (Term(1 / lf.coeff, L.divide(lf.mono)),))
    mg = Polynomial(g.ring, (Term(1 / lg.coeff, L.divide(lg.mono)),))
    return mf * f - mg * g


@dataclass(frozen=True)
class MonomialIdeal:
    """Monomial ideal given by its minimal (antichain) generators."""

    ring: PolyRing
    mingens: tuple[Monomial, ...]

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

    def is_zero(self) -> bool:
        return not self.mingens

    def polynomials(self) -> tuple[Polynomial, ...]:
        return tuple(Polynomial(self.ring, (Term(Fraction(1), m),)) for m in self.mingens)

    def __iter__(self) -> Iterator[Monomial]:
        return iter(self.mingens)

    def __len__(self) -> int:
        return len(self.mingens)


@dataclass(frozen=True)
class ReducedGroebnerBasis:
    """The unique reduced Gröbner basis of an ideal for a fixed order.

    Elements are monic, fully reduced against each other, and sorted ascending
    by leading monomial.
    """

    ring: PolyRing
    order: MonomialOrder
    elements: tuple[Polynomial, ...]

    def __iter__(self) -> Iterator[Polynomial]:
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def is_zero_ideal(self) -> bool:
        return not self.elements

    def normal_form(self, f: Polynomial) -> Polynomial:
        if not self.elements:
            return f
        return normal_form(f, self.elements, self.order)

    def contains(self, f: Polynomial) -> bool:
        return self.normal_form(f).is_zero()

    def leading_monomials(self) -> tuple[Monomial, ...]:
        return tuple(leading_monomial(g, self.order) for g in self.elements)

    def initial_ideal(self) -> MonomialIdeal:
        return MonomialIdeal.from_monomials(self.ring, self.leading_monomials())


def _interreduce(polys: list[Polynomial], order: MonomialOrder) -> list[Polynomial]:
    # drop elements whose leading monomial is divisible by another's
    polys = sorted((p for p in polys if not p.is_zero()), key=lambda p: order.key(leading_monomial(p, order)))
    minimal: list[Polynomial] = []
    leads: list[Monomial] = []
    for p in polys:
        lm = leading_monomial(p, order)
        if not any(l.divides(lm) for l in leads):
            minimal.append(p)
            leads.append(lm)
    # tail-reduce each against the others until stable
    changed = True
    while changed:
        changed = False
        for i, p in enumerate(minimal):
            others = minimal[:i] + minimal[i + 1 :]
            q = monic(normal_form(p, others, order) if others else p, order)
            if q != minimal[i]:
                minimal[i] = q
                changed = True
    minimal.sort(key=lambda p: order.key(leading_monomial(p, order)))
    return minimal


def buchberger(
    gens: Sequence[Polynomial], order: MonomialOrder, step_limit: int | None = None
) -> ReducedGroebnerBasis:
    """Reduced Gröbner basis of the ideal generated by `gens` under `order`.

    Pairs are processed by ascending lcm degree, then the order on lcms, then
    generator indices; the coprimality and chain criteria prune pairs.  The
    step budget (argument or the INITALG_STEP_LIMIT environment variable)
    bounds the number of S-polynomial reductions.
    """
    ring = _check_gens(gens)
    limit = _step_limit(step_limit)
    basis = [monic(g, order) for g in gens if not g.is_zero()]
    if not basis:
        return ReducedGroebnerBasis(ring, order, ())
    leads = [leading_monomial(g, order) for g in basis]
    pairs = {(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))}
    steps = 0

    def pair_key(p):
        L = leads[p[0]].lcm(leads[p[1]])
        return (L.degree(), order.key(L), p)

    while pairs:
        i, j = min(pairs, key=pair_key)
        pairs.remove((i, j))
        L = leads[i].lcm(leads[j])
        if leads[i].coprime(leads[j]):
            continue
        if any(
            k != i and k != j
            and leads[k].divides(L)
            and (min(i, k), max(i, k)) not in pairs
            and (min(j, k), max(j, k)) not in pairs
            for k in range(len(basis))
        ):
            continue
        steps += 1
        if limit is not None and steps > limit:
            raise StepLimitExceeded(f"exceeded {limit} S-polynomial reductions")
        r = normal_form(s_polynomial(basis[i], basis[j], order), basis, order)
        if not r.is_zero():
            basis.append(monic(r, order))
            leads.append(leading_monomial(r, order))
            new = len(basis) - 1
            pairs.update((k, new) for k in range(new))
    return ReducedGroebnerBasis(ring, order, tuple(_interreduce(basis, order)))


def initial_ideal(gens: Sequence[Polynomial] | ReducedGroebnerBasis, order: MonomialOrder) -> MonomialIdeal:
    """Minimal monomial generators of the initial ideal under `order`."""
    gb = gens if isinstance(gens, ReducedGroebnerBasis) else buchberger(gens, order)
    return gb.initial_ideal()


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


def eliminate(
    gens: Sequence[Polynomial],
    keep: Sequence[int | str],
    keep_order: MonomialOrder | None = None,
) -> tuple[Polynomial, ...]:
    """Reduced Gröbner basis of I ∩ K[kept variables], in the original ring.

    `keep` lists the variables to retain (names or indices); the rest are
    eliminated through a block order in which they dominate.
    """
    ring = _check_gens(gens)
    if keep_order is None:
        keep_order = RevLex()
    keep_idx = tuple(sorted(ring.var_index(v) if isinstance(v, str) else v for v in keep))
    if len(set(keep_idx)) != len(keep_idx):
        raise ValueError("duplicate kept variable")
    if any(i < 0 or i >= ring.n for i in keep_idx):
        raise ValueError("kept variable out of range")
    elim_idx = tuple(i for i in range(ring.n) if i not in keep_idx)
    if not elim_idx:
        gb = buchberger(gens, keep_order)
        return tuple(gb.elements)
    order = EliminationOrder(elim_idx, keep_idx, DegLex(), keep_order)
    gb = buchberger(gens, order)
    kept = []
    for g in gb:
        if all(all(t.mono.exponents[i] == 0 for i in elim_idx) for t in g.terms):
            kept.append(g)
    return tuple(kept)


@dataclass(frozen=True)
class AlgebraKernel:
    """Relations among ring elements: the kernel of Y_i -> images[i]."""

    ring: PolyRing  # fresh ring in the Y variables
    images: tuple[Polynomial, ...]
    gens: tuple[Polynomial, ...]  # reduced GB of the kernel in `ring`

    def is_zero(self) -> bool:
        return not self.gens


def _fresh_names(k: int, source: PolyRing, names: Sequence[str] | None) -> tuple[str, ...]:
    if names is None:
        names = tuple(f"Y{i + 1}" for i in range(k))
    else:
        names = tuple(names)
        if len(names) != k:
            raise ValueError("need one fresh name per image")
    clash = set(names) & set(source.names)
    if clash:
        raise ValueError(f"fresh names collide with ring variables: {sorted(clash)}")
    return names


def presentation_kernel(
    images: Sequence[Polynomial],
    names: Sequence[str] | None = None,
    kernel_order: MonomialOrder | None = None,
) -> AlgebraKernel:
    """All polynomial relations among `images`: Ker(K[Y] -> R, Y_i -> f_i).

    Computed by eliminating the original variables from (Y_i - f_i); the
    result is the reduced Gröbner basis of the kernel under `kernel_order`
    (revlex by default) in a fresh ring.
    """
    source = _check_gens(images)
    if any(g.is_zero() for g in images):
        raise ZeroPolynomialError("kernel images must be nonzero")
    if kernel_order is None:
        kernel_order = RevLex()
    k = len(images)
    fresh = _fresh_names(k, source, names)
    big = PolyRing(source.names + fresh)
    n = source.n

    def lift(f: Polynomial) -> Polynomial:
        return Polynomial.from_dict(
            big, {Monomial(t.mono.exponents + (0,) * k): t.coeff for t in f.terms}
        )

    gens = [big.var(n + i) - lift(images[i]) for i in range(k)]
    kept = eliminate(gens, keep=tuple(range(n, n + k)), keep_order=kernel_order)
    target = PolyRing(fresh)
    projected = tuple(
        Polynomial.from_dict(target, {Monomial(t.mono.exponents[n:]): t.coeff for t in g.terms})
        for g in kept
    )
    return AlgebraKernel(target, tuple(images), projected)


def toric_kernel(
    ring: PolyRing,
    monomials: Sequence[Monomial],
    names: Sequence[str] | None = None,
    kernel_order: MonomialOrder | None = None,
) -> AlgebraKernel:
    """Kernel of the monomial map Y_i -> m_i; its reduced GB consists of binomials."""
    images = [Polynomial(ring, (Term(Fraction(1), m),)) for m in monomials]
    return presentation_kernel(images, names=names, kernel_order=kernel_order)


def quadratic_initial_certificate(gens: Sequence[Polynomial], order: MonomialOrder) -> bool:
    """True iff the initial ideal is generated in degree exactly 2.

    Requires generators homogeneous for the standard grading; a true result
    certifies the quotient is Koszul, false certifies nothing.
    """
    ring = _check_gens(gens)
    ones = WeightVector.ones(ring.n)
    if not all(is_weight_homogeneous(g, ones) for g in gens):
        raise ValueError("generators must be homogeneous for the standard grading")
    nonzero = [g for g in gens if not g.is_zero()]
    if not nonzero:
        return True  # zero ideal: vacuously generated in degree 2, R itself is Koszul
    M = initial_ideal(nonzero, order)
    return all(m.degree() == 2 for m in M.mingens)
