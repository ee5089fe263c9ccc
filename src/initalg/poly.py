"""Exact sparse multivariate polynomials over the rationals.

Monomials are dense exponent vectors, coefficients are `fractions.Fraction`
(always in lowest terms with positive denominator).  A polynomial stores its
terms sorted strictly descending under a fixed canonical order (DegLex with
the natural variable order), so equality is structural and hashing works.
Weighted degrees, monomials of a weighted degree, initial forms and
homogenization live here as well.

The value classes of the package (rings, monomials, terms, weights, orders,
ideals, series and reports) are immutable: each derives from `_Value`, names
its fields in `_fields`, and compares and hashes as the tuple of its fields.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Mapping, Sequence, Union

Scalar = Union[int, Fraction]


class RingMismatchError(ValueError):
    """Operands live in different polynomial rings."""


class ZeroPolynomialError(ValueError):
    """The zero polynomial was passed where a degree or a leading term is needed."""


class ParseError(ValueError):
    """A line of polynomial or order text did not parse; polynomial errors name the column."""

    def __init__(self, message: str, column: int | None = None):
        super().__init__(message if column is None else f"{message} (column {column})")
        self.column = column


class _Value:
    """Base of the immutable value classes.

    A subclass lists its fields in `_fields`, in constructor order, and its
    `__init__` checks the arguments and passes the fields on to this one.  A
    value equals only values of its own class with equal fields, hashes as
    its field tuple and prints as ``Name(field=value, ...)``; assigning or
    deleting an attribute raises AttributeError, and pickling rebuilds a
    value from its fields.  Rings, monomials, terms, weights and orders set
    their fields and write out eq and hash with the same meaning by hand,
    since those run on every polynomial operation and cache lookup.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init__(self, *values):
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _astuple(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self):
        return hash(self._astuple())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._astuple()


class PolyRing(_Value):
    """K[X1,...,Xn] over the rationals; `homvar` names the homogenizing variable of an extended ring."""

    _fields = ("names", "homvar")

    def __init__(self, names: tuple[str, ...], homvar: str | None = None):
        if type(names) is not tuple:
            names = tuple(names)
        if not names:
            raise ValueError("ring needs at least one variable")
        if len(set(names)) != len(names):
            raise ValueError("variable names must be distinct")
        if any(not n for n in names):
            raise ValueError("variable names must be nonempty")
        if homvar is not None and names[-1] != homvar:
            raise ValueError("homogenizing variable must be the last variable")
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "homvar", homvar)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.names, self.homvar) == (other.names, other.homvar)
        return NotImplemented

    def __hash__(self):
        return hash((self.names, self.homvar))

    @property
    def n(self) -> int:
        return len(self.names)

    def var_index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"unknown variable {name!r}") from None

    def monomial(self, exponents: Sequence[int]) -> Monomial:
        m = Monomial(tuple(exponents))
        if len(m.exponents) != self.n:
            raise RingMismatchError("exponent vector has wrong length")
        return m

    def var(self, i: int) -> Polynomial:
        exps = [0] * self.n
        exps[i] = 1
        return Polynomial(self, (Term(Fraction(1), Monomial(tuple(exps))),))

    def gens(self) -> tuple[Polynomial, ...]:
        return tuple(self.var(i) for i in range(self.n))

    def zero(self) -> Polynomial:
        return Polynomial(self, ())

    def one(self) -> Polynomial:
        return self.const(1)

    def const(self, c: Scalar) -> Polynomial:
        c = Fraction(c)
        if c == 0:
            return self.zero()
        return Polynomial(self, (Term(c, Monomial((0,) * self.n)),))

    def poly(self, text: str) -> Polynomial:
        return parse_poly(self, text)

    def extend(self) -> PolyRing:
        """Adjoin the homogenizing variable as the new last variable.

        It is named by the first of t, t0, t1, ... that is not a ring variable.
        """
        if self.homvar is not None:
            raise ValueError("ring is already extended")
        homvar, i = "t", 0
        while homvar in self.names:
            homvar, i = f"t{i}", i + 1
        return PolyRing(self.names + (homvar,), homvar)

    def base(self) -> PolyRing:
        """Drop the homogenizing variable."""
        if self.homvar is None:
            raise ValueError("ring has no homogenizing variable")
        return PolyRing(self.names[:-1], None)

    def __repr__(self):
        return f"PolyRing({', '.join(self.names)})"


class Monomial(_Value):
    """Power product, stored as the exponent vector."""

    __slots__ = _fields = ("exponents",)

    def __init__(self, exponents: tuple[int, ...]):
        if type(exponents) is not tuple:  # one check on the hot path
            exponents = tuple(exponents)
        if any(e < 0 for e in exponents):
            raise ValueError("exponents must be nonnegative")
        object.__setattr__(self, "exponents", exponents)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.exponents == other.exponents
        return NotImplemented

    def __hash__(self):
        return hash((self.exponents,))

    def degree(self) -> int:
        return sum(self.exponents)

    def is_one(self) -> bool:
        return all(e == 0 for e in self.exponents)

    def mul(self, other: Monomial) -> Monomial:
        return Monomial(tuple(a + b for a, b in zip(self.exponents, other.exponents)))

    __mul__ = mul

    def divides(self, other: Monomial) -> bool:
        return all(a <= b for a, b in zip(self.exponents, other.exponents))

    def divide(self, other: Monomial) -> Monomial:
        """Exact quotient self / other."""
        if not other.divides(self):
            raise ValueError("not divisible")
        return Monomial(tuple(a - b for a, b in zip(self.exponents, other.exponents)))

    def lcm(self, other: Monomial) -> Monomial:
        return Monomial(tuple(max(a, b) for a, b in zip(self.exponents, other.exponents)))

    def support(self) -> tuple[int, ...]:
        return tuple(i for i, e in enumerate(self.exponents) if e > 0)

    def __repr__(self):
        return f"Monomial{self.exponents}"


class Term(_Value):
    """Nonzero rational coefficient times a monomial."""

    __slots__ = _fields = ("coeff", "mono")

    def __init__(self, coeff: Fraction, mono: Monomial):
        if coeff == 0:
            raise ValueError("term coefficient must be nonzero")
        object.__setattr__(self, "coeff", coeff)
        object.__setattr__(self, "mono", mono)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.coeff, self.mono) == (other.coeff, other.mono)
        return NotImplemented

    def __hash__(self):
        return hash((self.coeff, self.mono))


class WeightVector(_Value):
    """Strictly positive integral grading; the extended form for R[t] ends in 1."""

    _fields = ("entries",)

    def __init__(self, entries: tuple[int, ...]):
        entries = tuple(entries)
        if not entries:
            raise ValueError("weight vector must be nonempty")
        if any(not isinstance(e, int) or isinstance(e, bool) or e < 1 for e in entries):
            raise ValueError("weight entries must be integers >= 1")
        object.__setattr__(self, "entries", entries)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.entries == other.entries
        return NotImplemented

    def __hash__(self):
        return hash((self.entries,))

    @property
    def n(self) -> int:
        return len(self.entries)

    def degree(self, mono: Monomial) -> int:
        if len(mono.exponents) != self.n:
            raise RingMismatchError("weight arity does not match monomial")
        return sum(a * e for a, e in zip(self.entries, mono.exponents))

    def extend(self) -> WeightVector:
        """The weight on R[t] giving the homogenizing variable degree 1."""
        return WeightVector(self.entries + (1,))

    @staticmethod
    def ones(n: int) -> WeightVector:
        return WeightVector((1,) * n)

    def __repr__(self):
        return f"WeightVector{self.entries}"


def _canon_key(mono: Monomial):
    # canonical storage order: DegLex, natural variable order
    return (mono.degree(), mono.exponents)


class Polynomial:
    """Immutable polynomial in canonical form (terms strictly descending under DegLex)."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: tuple[Term, ...]):
        self.ring = ring
        self.terms = terms

    @staticmethod
    def from_dict(ring: PolyRing, coeffs: Mapping[Monomial, Scalar]) -> Polynomial:
        terms = []
        for mono, c in coeffs.items():
            if type(c) is not Fraction:
                c = Fraction(c)
            if c == 0:
                continue
            if len(mono.exponents) != ring.n:
                raise RingMismatchError("monomial arity does not match ring")
            terms.append(Term(c, mono))
        terms.sort(key=lambda t: _canon_key(t.mono), reverse=True)
        return Polynomial(ring, tuple(terms))

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def total_degree(self) -> int:
        if not self.terms:
            raise ZeroPolynomialError("zero polynomial has no degree")
        return max(t.mono.degree() for t in self.terms)

    def map_coeffs(self, fn) -> Polynomial:
        return Polynomial.from_dict(self.ring, {t.mono: fn(t.coeff) for t in self.terms})

    def _check_ring(self, other: Polynomial):
        if self.ring != other.ring:
            raise RingMismatchError("polynomials from different rings")

    def __add__(self, other) -> Polynomial:
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        self._check_ring(other)
        acc: dict[Monomial, Fraction] = {t.mono: t.coeff for t in self.terms}
        for t in other.terms:
            acc[t.mono] = acc.get(t.mono, Fraction(0)) + t.coeff
        return Polynomial.from_dict(self.ring, acc)

    def __radd__(self, other) -> Polynomial:
        return self.__add__(other)

    def __neg__(self) -> Polynomial:
        return Polynomial(self.ring, tuple(Term(-t.coeff, t.mono) for t in self.terms))

    def __sub__(self, other) -> Polynomial:
        other = self._coerce(other)
        return other if other is NotImplemented else self.__add__(-other)

    def __rsub__(self, other) -> Polynomial:
        return (-self).__add__(other)

    def __mul__(self, other) -> Polynomial:
        if isinstance(other, (int, Fraction)):  # a scalar scales each term; the order stays
            terms = tuple(Term(t.coeff * other, t.mono) for t in self.terms) if other else ()
            return Polynomial(self.ring, terms)
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        self._check_ring(other)
        acc: dict[Monomial, Fraction] = {}
        for s in self.terms:
            for t in other.terms:
                m = s.mono.mul(t.mono)
                acc[m] = acc.get(m, Fraction(0)) + s.coeff * t.coeff
        return Polynomial.from_dict(self.ring, acc)

    def __rmul__(self, other) -> Polynomial:
        return self.__mul__(other)

    def __pow__(self, e: int) -> Polynomial:
        if e < 0:
            raise ValueError("negative power")
        result = self.ring.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def _coerce(self, other) -> Polynomial:
        if isinstance(other, Polynomial):
            return other
        if isinstance(other, (int, Fraction)):
            return self.ring.const(other)
        return NotImplemented

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, self.terms))

    def __repr__(self):
        return format_poly(self)


def weighted_degree(f: Polynomial, w: WeightVector) -> int:
    """Largest w-degree of a monomial of f; rejects the zero polynomial."""
    if f.is_zero():
        raise ZeroPolynomialError("weighted degree of the zero polynomial is undefined")
    return max(w.degree(t.mono) for t in f.terms)


def initial_form(f: Polynomial, w: WeightVector) -> Polynomial:
    """Sum of the terms of f of maximal w-degree (a w-homogeneous polynomial)."""
    d = weighted_degree(f, w)
    return Polynomial(f.ring, tuple(t for t in f.terms if w.degree(t.mono) == d))


def is_weight_homogeneous(f: Polynomial, w: WeightVector) -> bool:
    if f.is_zero():
        return True
    degs = {w.degree(t.mono) for t in f.terms}
    return len(degs) == 1


def monomials_of_weight(n: int, weight: WeightVector, degree: int) -> list[Monomial]:
    """All monomials in n variables of the exact weighted degree, ascending by exponents."""
    out: list[Monomial] = []

    def rec(i: int, remaining: int, acc: list[int]):
        if i == n - 1:
            w = weight.entries[i]
            if remaining % w == 0:
                out.append(Monomial(tuple(acc + [remaining // w])))
            return
        e = 0
        while e * weight.entries[i] <= remaining:
            rec(i + 1, remaining - e * weight.entries[i], acc + [e])
            e += 1

    rec(0, degree, [])
    return out


def homogenize(f: Polynomial, w: WeightVector, extended: PolyRing | None = None) -> Polynomial:
    """Pad every term with powers of the homogenizing variable up to the top w-degree."""
    if f.is_zero():
        raise ZeroPolynomialError("cannot homogenize the zero polynomial")
    if extended is None:
        extended = f.ring.extend()
    if extended.homvar is None or extended.names[:-1] != f.ring.names:
        raise RingMismatchError("target ring does not extend the source ring")
    d = weighted_degree(f, w)
    coeffs = {
        Monomial(t.mono.exponents + (d - w.degree(t.mono),)): t.coeff for t in f.terms
    }
    return Polynomial.from_dict(extended, coeffs)


def substitute(f: Polynomial, images: Sequence[Polynomial]) -> Polynomial:
    """Evaluate f at polynomial images of its variables (one image per variable)."""
    if len(images) != f.ring.n:
        raise RingMismatchError("need one image per variable")
    target = images[0].ring
    if any(g.ring != target for g in images):
        raise RingMismatchError("images from different rings")
    acc = target.zero()
    for t in f.terms:
        acc = acc + t.coeff * power_product(target, images, t.mono.exponents)
    return acc


def power_product(ring: PolyRing, factors: Sequence[Polynomial],
                  exponents: Sequence[int]) -> Polynomial:
    """The product of g**e over the factors and their exponents, in `ring`."""
    p = ring.one()
    for g, e in zip(factors, exponents):
        if e:
            p = p * g**e
    return p


def specialize_t(f: Polynomial, c: Scalar) -> Polynomial:
    """Substitute the homogenizing variable by c and land in the base ring."""
    if f.ring.homvar is None:
        raise RingMismatchError("ring has no homogenizing variable")
    base = f.ring.base()
    c = Fraction(c)
    acc: dict[Monomial, Fraction] = {}
    for t in f.terms:
        e = t.mono.exponents[-1]
        m = Monomial(t.mono.exponents[:-1])
        acc[m] = acc.get(m, Fraction(0)) + t.coeff * c**e
    return Polynomial.from_dict(base, acc)


# ---------------------------------------------------------------------------
# text format:  terms joined by + and -, a term is factors joined by an
# optional *, and a factor is an integer p, a rational p/q, a variable or
# var^exp.  One match reads a factor with the signs or the star before it;
# group 7 takes the character where no factor starts.

_BAD = re.compile(r"[^\s\dA-Za-z_+\-*/^()]")
_FACTOR = re.compile(r"\s*(?:([-+][-+\s]*)|(\*)\s*)?(?:(\d+)(?:\s*/\s*(\d+))?"
                     r"|([A-Za-z_][A-Za-z_0-9]*)(?:\s*\^\s*(\d+))?|(\S?))")
_TOKEN = re.compile(r"\d+|[A-Za-z_][A-Za-z_0-9]*|\S")  # the tokens of a text _BAD passed
# (lastindex of the factor before, next character): a '/' after a bare
# integer, a '^' after a bare name
_EXPECTED = {(3, "/"): "expected denominator", (5, "^"): "expected exponent"}


def _factor_error(text: str, m: re.Match, prev: re.Match | None) -> ParseError:
    """The error at a match that read no factor, or a star before the first factor."""
    signs, star, other = m.group(1, 2, 7)
    if star and prev is None:
        return ParseError("unexpected '*'", m.start(2) + 1)
    if other in ("", "+", "-"):  # dangling errors name the column of the text's last token
        *_, last = _TOKEN.finditer(text, m.pos)
        return ParseError("dangling sign" if signs else "dangling '*'", last.start() + 1)
    expected = prev is not None and not (signs or star) and _EXPECTED.get((prev.lastindex, other))
    return ParseError(expected or f"unexpected {other!r}", m.start(7) + 1)


def parse_poly(ring: PolyRing, text: str) -> Polynomial:
    """Parse the plain text polynomial grammar, e.g. ``x^2 - 2*x*y + 1/3``; errors name a column.

    A character outside the grammar is reported before any other error.
    """
    bad = _BAD.search(text)
    if bad:
        raise ParseError(f"unexpected character {bad.group()!r}", bad.start() + 1)
    end = len(text.rstrip())
    if not end:
        raise ParseError("empty polynomial")
    names, n = ring.names, ring.n
    terms = []  # (numerator, denominator, exponents) of each term
    pos, prev = 0, None
    while pos < end:
        m = _FACTOR.match(text, pos)
        signs, star, p, q, name, e, other = m.groups()
        if other is not None or (star and prev is None):
            raise _factor_error(text, m, prev)
        if signs or prev is None:  # signs, or the start of the text, open a term
            if prev is not None:
                terms.append((num, den, exps))
            num, den, exps = -1 if signs and signs.count("-") % 2 else 1, 1, [0] * n
        if p is not None:
            num *= int(p)
            if q is not None:
                q = int(q)
                if not q:
                    raise ParseError("zero denominator", m.start(4) + 1)
                den *= q
        else:
            try:
                i = names.index(name)
            except ValueError:
                raise ParseError(f"unknown variable {name!r}", m.start(5) + 1) from None
            exps[i] += 1 if e is None else int(e)
        pos, prev = m.end(), m
    terms.append((num, den, exps))
    acc: dict[tuple[int, ...], tuple[int, int]] = {}
    for num, den, exps in terms:
        if num:
            key = tuple(exps)
            a, b = acc.get(key, (0, 1))
            acc[key] = (a * den + num * b, b * den)
    items = sorted(acc.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)  # as _canon_key
    return Polynomial(ring, tuple(Term(Fraction(a, b), Monomial(k)) for k, (a, b) in items if a))


def format_monomial(ring: PolyRing, mono: Monomial) -> str:
    return format_terms(ring.names, [(mono.exponents, 1, 1)])


def format_terms(names: Sequence[str], terms) -> str:
    """Render terms (exponents, numerator, denominator > 0) in the order given:
    the sign as a joint (a leading "-" on the first), then p/q times the
    factors name^e of the monomial in `names`, with no 1 before a factor;
    "0" for no terms."""
    out = []
    for exps, p, q in terms:
        body = ""
        for name, e in zip(names, exps):
            if e:
                factor = name if e == 1 else f"{name}^{e}"
                body = f"{body}*{factor}" if body else factor
        if p < 0:
            out.append(" - " if out else "-")
            p = -p
        elif out:
            out.append(" + ")
        if q != 1:
            p = f"{p}/{q}"
        elif p == 1 and body:
            out.append(body)
            continue
        out.append(f"{p}*{body}" if body else f"{p}")
    return "".join(out) or "0"


def format_poly(f: Polynomial, key=None) -> str:
    """Render with terms descending under `key` (canonical DegLex when omitted)."""
    key = key or _canon_key
    terms = sorted(f.terms, key=lambda t: key(t.mono), reverse=True)
    return format_terms(f.ring.names, [(t.mono.exponents, t.coeff.numerator, t.coeff.denominator)
                                       for t in terms])
