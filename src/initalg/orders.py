"""Monomial orders as integer matrices.

Every order is an integer matrix order (Robbiano 1985): `matrix(n)` gives rows
M, one column per variable, and a monomial with exponent vector a is smaller
than one with b exactly when M a < M b lexicographically.  `key(mono)` is M e
as a flat tuple of ints, so larger key means larger monomial;
`key_function` compiles that map once per order and number of variables, and
`packing` turns M e and e into one int per monomial, for the inner loops of
Buchberger's algorithm.  Base orders (lex, deglex, revlex) take an optional
variable priority permutation.  A weight order refines comparison of weighted
degrees by a base order, and its extension to the homogenizing ring breaks
degree ties in favour of the smaller power of the last variable.
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction
from functools import cached_property, lru_cache

from initalg.poly import (
    Monomial,
    ParseError,
    PolyRing,
    Polynomial,
    RingMismatchError,
    Term,
    WeightVector,
    ZeroPolynomialError,
    _Value,
)


Matrix = tuple[tuple[int, ...], ...]


class MonomialOrder:
    def matrix(self, n: int) -> Matrix:
        """Integer rows M realizing the order on n variables; RingMismatchError if it does not fit."""
        raise NotImplementedError

    @cached_property
    def _key_functions(self) -> _KeyFunctions:
        return _KeyFunctions(self)

    def key(self, mono: Monomial) -> tuple[int, ...]:
        """M e for the exponent vector e of `mono`, with M = ``self.matrix(len(e))``."""
        e = mono.exponents
        return self._key_functions[len(e)](e)

    def compare(self, a: Monomial, b: Monomial) -> int:
        ka, kb = self.key(a), self.key(b)
        return (ka > kb) - (ka < kb)


def _unit_rows(n: int, indices, sign: int = 1) -> Matrix:
    return tuple(tuple(sign if k == i else 0 for k in range(n)) for i in indices)


def _lifted(rows: Matrix, indices: tuple[int, ...], n: int) -> Matrix:
    # rows on the variables `indices`, as rows on all n variables
    lifted = []
    for row in rows:
        full = [0] * n
        for i, a in zip(indices, row):
            full[i] = a
        lifted.append(tuple(full))
    return tuple(lifted)


def _require_permutation(indices: tuple[int, ...], what: str) -> None:
    if sorted(indices) != list(range(len(indices))):
        raise ValueError(f"{what} must be a permutation of 0..{len(indices) - 1}")


class _PermutedOrder(_Value, MonomialOrder):
    """Base of the orders that take a variable priority permutation `perm`."""

    _fields = ("perm",)

    def __init__(self, perm: tuple[int, ...] | None = None):
        if perm is not None:
            perm = tuple(perm)
            _require_permutation(perm, "order permutation")
        object.__setattr__(self, "perm", perm)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.perm == other.perm
        return NotImplemented

    def __hash__(self):
        return hash((self.perm,))

    def _priority(self, n: int) -> tuple[int, ...]:
        if self.perm is not None and len(self.perm) != n:
            raise RingMismatchError("order permutation does not match monomial arity")
        return tuple(range(n)) if self.perm is None else self.perm


class Lex(_PermutedOrder):
    """Pure lexicographic; `perm` lists variable indices by descending priority."""

    def matrix(self, n: int) -> Matrix:
        return _unit_rows(n, self._priority(n))


class DegLex(_PermutedOrder):
    """Total degree first, then lexicographic."""

    def matrix(self, n: int) -> Matrix:
        return ((1,) * n,) + _unit_rows(n, self._priority(n))


class RevLex(_PermutedOrder):
    """Degree reverse lexicographic: smaller power of the least variable wins ties."""

    def matrix(self, n: int) -> Matrix:
        return ((1,) * n,) + _unit_rows(n, reversed(self._priority(n)), -1)


class _WeightedOrder(_Value, MonomialOrder):
    """Base of the orders by a weight, ties broken by `base` (a fresh RevLex by default)."""

    _fields = ("weight", "base")

    def __init__(self, weight: WeightVector, base: MonomialOrder | None = None):
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "base", RevLex() if base is None else base)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.weight, self.base) == (other.weight, other.base)
        return NotImplemented

    def __hash__(self):
        return hash((self.weight, self.base))


class WeightOrder(_WeightedOrder):
    """Weighted degree first, ties broken by the base order."""

    def matrix(self, n: int) -> Matrix:
        if self.weight.n != n:
            raise RingMismatchError("weight arity does not match monomial")
        return (self.weight.entries,) + self.base.matrix(n)


class ExtendedOrder(_WeightedOrder):
    """Order on R[t] induced by a weight on R (the last variable gets weight 1).

    Compares the extended weighted degree, then prefers the smaller power of
    the homogenizing variable, then falls back to the base order on the R part.
    """

    def matrix(self, n: int) -> Matrix:
        if self.weight.n != n - 1:
            raise RingMismatchError("weight arity does not match monomial")
        return (self.weight.entries + (1,), (0,) * (n - 1) + (-1,)) + tuple(
            row + (0,) for row in self.base.matrix(n - 1)
        )


class EliminationOrder(_Value, MonomialOrder):
    """Block order on arbitrary index sets: the eliminated block dominates.

    Any monomial involving an eliminated variable beats every monomial in the
    kept variables alone, so kept-only elements of a Gröbner basis generate
    the elimination ideal.  The blocks are ordered by `elim_order` and
    `keep_order`, a fresh DegLex and RevLex by default.
    """

    _fields = ("elim", "keep", "elim_order", "keep_order")

    def __init__(self, elim: tuple[int, ...], keep: tuple[int, ...],
                 elim_order: MonomialOrder | None = None, keep_order: MonomialOrder | None = None):
        elim, keep = tuple(elim), tuple(keep)
        _require_permutation(elim + keep, "elim + keep")
        object.__setattr__(self, "elim", elim)
        object.__setattr__(self, "keep", keep)
        object.__setattr__(self, "elim_order", DegLex() if elim_order is None else elim_order)
        object.__setattr__(self, "keep_order", RevLex() if keep_order is None else keep_order)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return ((self.elim, self.keep, self.elim_order, self.keep_order)
                    == (other.elim, other.keep, other.elim_order, other.keep_order))
        return NotImplemented

    def __hash__(self):
        return hash((self.elim, self.keep, self.elim_order, self.keep_order))

    def matrix(self, n: int) -> Matrix:
        if n != len(self.elim) + len(self.keep):
            raise RingMismatchError("elimination blocks do not match monomial arity")
        return _lifted(self.elim_order.matrix(len(self.elim)), self.elim, n) + _lifted(
            self.keep_order.matrix(len(self.keep)), self.keep, n
        )


@lru_cache(maxsize=256)
def _order_rows(order: MonomialOrder, n: int) -> Matrix:
    """``order.matrix(n)``, cached for `key_function` and `packing`."""
    return order.matrix(n)


@lru_cache(maxsize=256)
def key_function(order: MonomialOrder, n: int):
    """``e -> M e`` for the rows M of `order` on n variables, compiled once.

    Its body names only the nonzero entries of M: a key costs a few index
    operations and additions, not a product for every entry of every row.
    """
    rows = _order_rows(order, n)
    if rows == _unit_rows(n, range(n)):
        return lambda e: e  # plain lex: M e is e itself, with no tuple to build
    sign = {1: "", -1: "-"}
    entries = (" + ".join(f"{sign.get(a, f'{a}*')}e[{j}]" for j, a in enumerate(row) if a) or "0"
               for row in rows)
    return eval(f"lambda e: ({''.join(x + ', ' for x in entries)})")


class _KeyFunctions(dict):
    """n -> ``key_function(order, n)``, kept on the order so a key skips hashing it."""

    def __init__(self, order: MonomialOrder):
        self.order = order

    def __missing__(self, n: int):
        fn = self[n] = key_function(self.order, n)
        return fn


class Packing:
    """Monomials in n variables under one order as single ints, called words.

    The word of the exponent vector e is K(e) * 2^X + E(e), as in the packed
    monomials of heap-based division (Monagan-Pearce 2011) with the order
    key on top.  E(e) holds e in n fields of `bits` value bits, each with a
    guard bit above it (field j starts at bit (bits + 1) j; X is (bits + 1) n).
    K(e) holds the entries of M e, M the order's integer rows, as signed
    base-2^W digits, the first row most significant, with W wide enough that
    every digit has absolute value below 2^(W-1) while each e_j < 2^bits.
    Both parts are linear in e, so for exponents that fit:

    - words compare as the order does (K(e) decides and determines e);
    - the word of a product is the sum of the words;
    - l divides t iff ``(t - l) & guard == 0``: a field with t_j < l_j
      borrows from its guard bit;
    - a sum of words of fitting exponents sets a guard bit exactly when an
      exponent of the product reaches 2^bits, so the caller can detect the
      overflow and repack wider before it compares the word;
    - `support` marks the guard bits of the nonzero fields: coprime words share none.
    """

    def __init__(self, rows: Matrix, bits: int):
        n = len(rows[0])
        self.n, self.bits = n, bits
        field = bits + 1
        self.shifts = tuple(field * j for j in range(n))
        self.mask = (1 << bits) - 1
        self.guard = sum(1 << (s + bits) for s in self.shifts)
        self.ones = sum(1 << s for s in self.shifts)  # 1 in every field: a 0 borrows from its guard
        self.low = (1 << (field * n)) - 1  # the exponent fields
        width = bits + 1 + max(sum(map(abs, row)) for row in rows).bit_length()
        top = width * (len(rows) - 1)
        # the word of each unit vector; the word of e is their sum weighted by e
        self.units = tuple(
            (sum(row[j] << (top - width * i) for i, row in enumerate(rows)) << (field * n))
            + (1 << self.shifts[j])
            for j in range(n)
        )

    def pack(self, exps: tuple[int, ...]) -> int:
        return sum(map(operator.mul, exps, self.units))

    def unpack(self, word: int) -> tuple[int, ...]:
        mask = self.mask
        return tuple([(word >> s) & mask for s in self.shifts])

    def support(self, word: int) -> int:
        return (((word & self.low) | self.guard) - self.ones) & self.guard

    def lcm(self, a: int, b: int) -> int:
        ea, eb = a & self.low, b & self.low
        # the guard bit of field j survives a - b exactly when a_j >= b_j
        ahead = ((ea | self.guard) - eb) & self.guard
        behind = ~(ahead - (ahead >> self.bits))
        excess = (eb & behind) - (ea & behind)  # b_j - a_j where b_j > a_j
        shifts, units, field, mask = self.shifts, self.units, self.bits + 1, self.mask
        while excess:  # add the word of each nonzero field, lowest first
            j = ((excess & -excess).bit_length() - 1) // field
            e = (excess >> shifts[j]) & mask
            a += e * units[j]
            excess -= e << shifts[j]
        return a

    def dividing(self, words: list[int], word: int) -> list[int]:
        """Indices of the entries of `words` that divide `word`."""
        guard = self.guard
        return [k for k, w in enumerate(words) if not (word - w) & guard]


@lru_cache(maxsize=256)
def packing(order: MonomialOrder, n: int, bits: int) -> Packing:
    """The `Packing` of `order` on n variables with `bits` value bits per exponent, cached."""
    return Packing(_order_rows(order, n), bits)


def sorted_terms(f: Polynomial, order: MonomialOrder) -> tuple[Term, ...]:
    key = order._key_functions[f.ring.n]
    return tuple(sorted(f.terms, key=lambda t: key(t.mono.exponents), reverse=True))


def leading_term(f: Polynomial, order: MonomialOrder) -> Term:
    if f.is_zero():
        raise ZeroPolynomialError("zero polynomial has no leading term")
    key = order._key_functions[f.ring.n]
    return max(f.terms, key=lambda t: key(t.mono.exponents))


def leading_monomial(f: Polynomial, order: MonomialOrder) -> Monomial:
    return leading_term(f, order).mono


def leading_coeff(f: Polynomial, order: MonomialOrder) -> Fraction:
    return leading_term(f, order).coeff


def monic(f: Polynomial, order: MonomialOrder) -> Polynomial:
    c = leading_coeff(f, order)
    return f.map_coeffs(lambda q: q / c)


# ---------------------------------------------------------------------------
# order syntax:  lex | deglex | revlex, optionally with a variable
# list, or  weight(w1,...,wn; <base spec>)

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_BASE_ORDERS = {"lex": Lex, "deglex": DegLex, "revlex": RevLex}


def parse_order(text: str, ring: PolyRing) -> MonomialOrder:
    """Parse specs like ``deglex``, ``lex(y,x,z)`` or ``weight(3,2,1; revlex)``."""
    order, rest = _parse_order_prefix(text.strip(), ring)
    if rest.strip():
        raise ParseError(f"trailing text in order spec: {rest.strip()!r}")
    return order


def _parse_order_prefix(text: str, ring: PolyRing):
    text = text.lstrip()
    m = _NAME_RE.match(text)
    if m is None:
        raise ParseError(f"expected an order name in {text!r}")
    name = m.group(0).lower()
    rest = text[m.end() :].lstrip()
    if name == "weight":
        if not rest.startswith("("):
            raise ParseError("weight order needs (entries; base)")
        inner, rest = _take_paren(rest)
        if ";" not in inner:
            raise ParseError("weight order needs a base order after ';'")
        entry_part, base_part = inner.split(";", 1)
        try:
            entries = tuple(int(s.strip()) for s in entry_part.split(","))
        except ValueError:
            raise ParseError(f"bad weight entries {entry_part.strip()!r}") from None
        if len(entries) != ring.n:
            raise ParseError(f"weight has {len(entries)} entries, ring has {ring.n} variables")
        try:
            w = WeightVector(entries)
        except ValueError as e:
            raise ParseError(str(e)) from None
        base, base_rest = _parse_order_prefix(base_part, ring)
        if base_rest.strip():
            raise ParseError(f"trailing text in order spec: {base_rest.strip()!r}")
        return WeightOrder(w, base), rest
    if name not in _BASE_ORDERS:
        raise ParseError(f"unknown order {name!r}")
    perm = None
    if rest.startswith("("):
        inner, rest = _take_paren(rest)
        names = [s.strip() for s in inner.split(",")]
        if sorted(names) != sorted(ring.names):
            raise ParseError("order variable list must be a permutation of the ring variables")
        perm = tuple(ring.var_index(v) for v in names)
    return _BASE_ORDERS[name](perm), rest


def _take_paren(text: str):
    if not text.startswith("("):
        raise RuntimeError(f"_take_paren needs text starting with '(', got {text!r}")
    depth = 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth == 0:
                return text[1:i], text[i + 1 :].lstrip()
    raise ParseError("unbalanced parentheses in order spec")


def describe_order(order: MonomialOrder, ring: PolyRing) -> str:
    """Inverse of `parse_order` for the orders it can produce."""
    if isinstance(order, WeightOrder):
        entries = ",".join(str(e) for e in order.weight.entries)
        return f"weight({entries}; {describe_order(order.base, ring)})"
    for name, cls in _BASE_ORDERS.items():
        if type(order) is cls:
            if order.perm is None:
                return name
            vars_ = ",".join(ring.names[i] for i in order.perm)
            return f"{name}({vars_})"
    raise ValueError(f"cannot describe {order!r}")
