import itertools
import random
import re
from fractions import Fraction

import pytest

from initalg.poly import (
    Monomial,
    ParseError,
    PolyRing,
    Polynomial,
    RingMismatchError,
    Term,
    WeightVector,
    ZeroPolynomialError,
    format_poly,
    homogenize,
    initial_form,
    is_weight_homogeneous,
    parse_poly,
    specialize_t,
    substitute,
    weighted_degree,
)

R = PolyRing(("x", "y", "z"))
x, y, z = R.gens()


def random_poly(rng, ring, max_terms=5, max_exp=3, max_coeff=6):
    acc = {}
    for _ in range(rng.randint(0, max_terms)):
        m = Monomial(tuple(rng.randint(0, max_exp) for _ in range(ring.n)))
        c = Fraction(rng.randint(-max_coeff, max_coeff), rng.randint(1, 4))
        acc[m] = acc.get(m, Fraction(0)) + c
    return Polynomial.from_dict(ring, acc)


def test_arithmetic_small():
    f = (x + y) * (x * y) * (x * y**2)
    assert f == x**3 * y**3 + x**2 * y**4
    assert (x + y) ** 2 == x**2 + 2 * x * y + y**2
    assert (x - x) == R.zero()
    assert x * 0 == R.zero()
    assert 2 * x - x == x
    assert (1 - x) * (1 + x) == 1 - x**2


def test_canonical_term_order():
    f = 1 + x + y**2 + x * y
    degrees = [t.mono.degree() for t in f.terms]
    assert degrees == sorted(degrees, reverse=True)
    # same degree: lexicographically larger exponent vector first
    assert f.terms[0].mono.exponents in ((1, 1, 0), (0, 2, 0))
    assert f.terms[0].mono.exponents == (1, 1, 0)


def test_structural_equality_and_hash():
    f = x * y + z
    g = z + y * x
    assert f == g
    assert hash(f) == hash(g)
    assert len({f, g}) == 1


@pytest.mark.parametrize("make, value, stored", [
    (Monomial, [1, 2], (1, 2)),
    (Monomial, iter((1, 2)), (1, 2)),
    (PolyRing, ["x", "y"], ("x", "y")),
])
def test_sequence_fields_are_stored_as_tuples(make, value, stored):
    # a list field made the value unhashable and unequal to its tuple form
    obj = make(value)
    assert obj == make(stored) and hash(obj) == hash(make(stored)) and len({obj, make(stored)}) == 1


def test_ring_mismatch():
    S = PolyRing(("a", "b"))
    with pytest.raises(RingMismatchError):
        x + S.gens()[0]


@pytest.mark.parametrize(
    "op",
    [
        lambda: x + "a",
        lambda: "a" + x,
        lambda: x - None,
        lambda: None - x,
        lambda: x * 1.5,
        lambda: 1.5 * x,
    ],
    ids=["add", "radd", "sub", "rsub", "mul", "rmul"],
)
def test_unsupported_operand_raises_type_error(op):
    with pytest.raises(TypeError):
        op()


def test_weighted_degree_and_initial_form():
    a = WeightVector((3, 2, 1))
    f = x**2 - z**2
    assert weighted_degree(f, a) == 6
    assert initial_form(f, a) == x**2
    g = x * y + y**2 + z
    assert weighted_degree(g, a) == 5
    assert initial_form(g, a) == x * y
    assert is_weight_homogeneous(initial_form(g, a), a)
    assert not is_weight_homogeneous(g, a)
    with pytest.raises(ZeroPolynomialError):
        weighted_degree(R.zero(), a)


def test_initial_form_keeps_ties():
    a = WeightVector((1, 1, 1))
    f = x**2 + x * y - z
    assert initial_form(f, a) == x**2 + x * y


def test_homogenize_and_specialize():
    a = WeightVector((3, 2, 1))
    Rt = R.extend()
    t = Rt.gens()[-1]
    f = x**2 - z**2
    F = homogenize(f, a, Rt)
    assert F == Rt.poly("x^2 - z^2*t^4")
    assert is_weight_homogeneous(F, a.extend())
    assert specialize_t(F, 1) == f
    assert specialize_t(F, 0) == R.poly("x^2")
    assert specialize_t(F, 2) == x**2 - 16 * z**2
    assert specialize_t(t, Fraction(1, 3)) == R.const(Fraction(1, 3))


def test_homogenize_multiplicative():
    rng = random.Random(7)
    a = WeightVector((2, 1, 3))
    Rt = R.extend()
    for _ in range(30):
        f = random_poly(rng, R)
        g = random_poly(rng, R)
        if f.is_zero() or g.is_zero():
            continue
        assert homogenize(f * g, a, Rt) == homogenize(f, a, Rt) * homogenize(g, a, Rt)
        assert initial_form(f * g, a) == initial_form(f, a) * initial_form(g, a)
        assert weighted_degree(f * g, a) == weighted_degree(f, a) + weighted_degree(g, a)


def test_specialize_one_inverts_homogenize():
    rng = random.Random(11)
    a = WeightVector((1, 4, 2))
    Rt = R.extend()
    for _ in range(40):
        f = random_poly(rng, R)
        if f.is_zero():
            continue
        assert specialize_t(homogenize(f, a, Rt), 1) == f


def test_parse_basic():
    assert R.poly("x^2 - 2*x*y + 1/3") == x**2 - 2 * x * y + Fraction(1, 3)
    assert R.poly("x") == x
    assert R.poly("-x + x") == R.zero()
    assert R.poly("7") == R.const(7)
    assert R.poly("2/4") == R.const(Fraction(1, 2))
    assert R.poly("3x") == 3 * x  # star after the coefficient is optional
    assert R.poly("x*x") == x**2
    assert R.poly("- - x") == x
    assert R.poly("x^2*y^3*z") == x**2 * y**3 * z
    assert R.poly("1/2*x + 1/2*x") == x


def test_parse_errors():
    for bad in ["", "x +", "x^", "^2", "q", "1/", "1/0", "x * * y", "x *", "x & y"]:
        with pytest.raises(ParseError):
            R.poly(bad)
    with pytest.raises(ParseError) as ei:
        R.poly("x + q*y")
    assert "q" in str(ei.value)


def test_parser_on_every_short_input():
    # 22 620 strings: each parses and round-trips, or names a column within the text
    ring = PolyRing(("x", "y"))
    parsed = 0
    for length in range(1, 5):
        for chars in itertools.product("xy20+-*/^( &", repeat=length):
            text = "".join(chars)
            try:
                f = parse_poly(ring, text)
            except ParseError as exc:
                assert exc.column is None or 1 <= exc.column <= len(text), (text, exc.column)
            else:
                parsed += 1
                assert parse_poly(ring, format_poly(f)) == f, text
    assert parsed == 1320


# --- the token-loop parser, kept as the reference for parse_poly ----------

_TOKEN = re.compile(r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*/^()]))")


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            rest = text[pos:].lstrip()
            if not rest:
                break
            raise ParseError(f"unexpected character {rest[0]!r}", len(text) - len(rest) + 1)
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind) + 1))
        pos = m.end()
    return tokens


def reference_parse_poly(ring, text):
    """The parser that `parse_poly` replaced: one regex call per token and one
    Fraction operation per factor, with the same results, messages and columns."""
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty polynomial")
    acc = {}
    i = 0

    def err(msg, tok=None):
        raise ParseError(msg, (tok or tokens[-1])[2])

    while i < len(tokens):
        sign = 1
        while i < len(tokens) and tokens[i][0] == "op" and tokens[i][1] in "+-":
            if tokens[i][1] == "-":
                sign = -sign
            i += 1
        if i >= len(tokens):
            err("dangling sign")
        coeff = Fraction(sign)
        exps = [0] * ring.n
        expect_factor = True
        while i < len(tokens):
            kind, val, col = tokens[i]
            if kind == "op" and val in "+-":
                break
            if kind == "op" and val == "*":
                if expect_factor:
                    err("unexpected '*'", tokens[i])
                i += 1
                expect_factor = True
                continue
            if kind == "int":
                num = int(val)
                i += 1
                if i < len(tokens) and tokens[i][0] == "op" and tokens[i][1] == "/":
                    i += 1
                    if i >= len(tokens) or tokens[i][0] != "int":
                        err("expected denominator", tokens[i - 1])
                    den = int(tokens[i][1])
                    if den == 0:
                        err("zero denominator", tokens[i])
                    i += 1
                    coeff *= Fraction(num, den)
                else:
                    coeff *= num
            elif kind == "name":
                try:
                    vi = ring.var_index(val)
                except KeyError:
                    err(f"unknown variable {val!r}", tokens[i])
                i += 1
                e = 1
                if i < len(tokens) and tokens[i][0] == "op" and tokens[i][1] == "^":
                    i += 1
                    if i >= len(tokens) or tokens[i][0] != "int":
                        err("expected exponent", tokens[i - 1] if i <= len(tokens) else None)
                    e = int(tokens[i][1])
                    i += 1
                exps[vi] += e
            else:
                err(f"unexpected {val!r}", tokens[i])
            expect_factor = False
        if expect_factor:
            err("dangling '*'")
        if coeff != 0:
            m = Monomial(tuple(exps))
            acc[m] = acc.get(m, Fraction(0)) + coeff
    return Polynomial.from_dict(ring, acc)


def parse_outcome(parse, ring, text):
    """The polynomial, or the message and column of the ParseError."""
    try:
        return parse(ring, text)
    except ParseError as exc:
        return str(exc), exc.column


SWEEP_RING = PolyRing(("x", "y", "z", "x2", "_"))
SWEEP_ALPHABET = "xyz20+-*/^()&_. ٣"  # U+0663 ARABIC-INDIC DIGIT THREE is a \d


def parser_differential_sweep(seed, trials):
    """`parse_poly` against `reference_parse_poly` on `trials` seeded strings of
    up to 12 characters; returns how many parsed and the strings where the
    polynomial or the (message, column) differ."""
    rng = random.Random(seed)
    parsed, mismatches = 0, []
    for _ in range(trials):
        text = "".join(rng.choice(SWEEP_ALPHABET) for _ in range(rng.randint(0, 12)))
        got = parse_outcome(parse_poly, SWEEP_RING, text)
        parsed += isinstance(got, Polynomial)
        if got != parse_outcome(reference_parse_poly, SWEEP_RING, text):
            mismatches.append(text)
    return parsed, mismatches


def test_parser_matches_the_token_reference():
    ring = PolyRing(("x", "y"))
    for length in range(1, 5):  # the strings of test_parser_on_every_short_input
        for chars in itertools.product("xy20+-*/^( &", repeat=length):
            text = "".join(chars)
            expected = parse_outcome(reference_parse_poly, ring, text)
            assert parse_outcome(parse_poly, ring, text) == expected, text
    parsed, mismatches = parser_differential_sweep(seed=25, trials=10000)
    assert mismatches == []
    assert parsed > 500


@pytest.mark.parametrize("text, message, column", [
    ("x & y", "unexpected character '&'", 3),
    ("x^ + q & y", "unexpected character '&'", 8),  # before any grammar error
    (" \t ", "empty polynomial", None),
    ("* x", "unexpected '*'", 1),
    ("*", "unexpected '*'", 1),
    ("x + * y", "unexpected '*'", 5),
    ("x ** y", "unexpected '*'", 4),
    ("x -", "dangling sign", 3),
    ("- -", "dangling sign", 3),
    ("x *", "dangling '*'", 3),
    ("x * - y^2", "dangling '*'", 9),  # the column of the text's last token
    ("1/x", "expected denominator", 2),
    ("2 /", "expected denominator", 3),
    ("x ^ -2", "expected exponent", 3),
    ("x^2^3", "unexpected '^'", 4),
    ("2^3", "unexpected '^'", 2),
    ("x/2", "unexpected '/'", 2),
    ("1/2/3", "unexpected '/'", 4),
    ("x + /2", "unexpected '/'", 5),
    ("x * (y)", "unexpected '('", 5),
    (")", "unexpected ')'", 1),
    ("3/0*x", "zero denominator", 3),
    ("x*q^2", "unknown variable 'q'", 3),
    ("q^", "unknown variable 'q'", 1),
])
def test_parse_error_messages_and_columns(text, message, column):
    expected = (message if column is None else f"{message} (column {column})", column)
    assert parse_outcome(parse_poly, R, text) == expected
    assert parse_outcome(reference_parse_poly, R, text) == expected


def test_parse_collects_each_monomial_once():
    # equal monomials from different terms sum; juxtaposed factors multiply
    assert R.poly("1/2*x*y + 1/3*y*x - 5/6*x y + 2 3 z - 0*x") == 6 * z
    assert R.poly("x٣ + - 2/4 \t x") == Fraction(5, 2) * x
    assert R.poly("x^0 + y^1 - 1") == y


def test_format_roundtrip():
    rng = random.Random(3)
    for _ in range(60):
        f = random_poly(rng, R)
        assert R.poly(format_poly(f)) == f


def test_format_examples():
    assert format_poly(x**2 - 2 * x * y + Fraction(1, 3)) == "x^2 - 2*x*y + 1/3"
    assert format_poly(R.zero()) == "0"
    assert format_poly(-x) == "-x"
    assert format_poly(x - 1) == "x - 1"
    assert format_poly(Fraction(-1, 2) * x * z) == "-1/2*x*z"


def test_extend_derives_homogenizing_variable():
    # the first of t, t0, t1, ... that is not already a ring variable
    assert PolyRing(("x", "t")).extend().names == ("x", "t", "t0")
    assert PolyRing(("t", "t0", "x")).extend().homvar == "t1"
    assert PolyRing(("t0",)).extend().homvar == "t"


def test_extend_base_roundtrip():
    Rt = R.extend()
    assert Rt.names == ("x", "y", "z", "t")
    assert Rt.homvar == "t"
    assert Rt.base() == R
    with pytest.raises(ValueError):
        Rt.extend()
    with pytest.raises(ValueError):
        R.base()
    with pytest.raises(RingMismatchError):
        specialize_t(x, 1)


def test_weight_vector_validation():
    with pytest.raises(ValueError):
        WeightVector((1, 0))
    with pytest.raises(ValueError):
        WeightVector(())
    assert WeightVector.ones(3).entries == (1, 1, 1)
    assert WeightVector((3, 2, 1)).extend().entries == (3, 2, 1, 1)


S = PolyRing(("a", "b"))


@pytest.mark.parametrize("call, error, message", [
    (lambda: PolyRing(()), ValueError, "ring needs at least one variable"),
    (lambda: PolyRing(("x", "x")), ValueError, "variable names must be distinct"),
    (lambda: PolyRing(("x", "")), ValueError, "variable names must be nonempty"),
    (lambda: PolyRing(("t", "x"), "t"), ValueError, "homogenizing variable must be the last variable"),
    (lambda: R.var_index("w"), KeyError, "unknown variable 'w'"),
    (lambda: R.monomial((1, 2)), RingMismatchError, "exponent vector has wrong length"),
    (lambda: Monomial((1, -1)), ValueError, "exponents must be nonnegative"),
    (lambda: Term(Fraction(0), Monomial((1, 0, 0))), ValueError, "term coefficient must be nonzero"),
    (lambda: Monomial((1, 0)).divide(Monomial((0, 1))), ValueError, "not divisible"),
    (lambda: WeightVector((1, 1)).degree(Monomial((1, 0, 0))), RingMismatchError,
     "weight arity does not match monomial"),
    (lambda: Polynomial.from_dict(R, {Monomial((1, 0)): 1}), RingMismatchError,
     "monomial arity does not match ring"),
    (lambda: R.zero().total_degree(), ZeroPolynomialError, "zero polynomial has no degree"),
    (lambda: x**-1, ValueError, "negative power"),
    (lambda: homogenize(R.zero(), WeightVector.ones(3)), ZeroPolynomialError,
     "cannot homogenize the zero polynomial"),
    (lambda: homogenize(x, WeightVector.ones(3), S.extend()), RingMismatchError,
     "target ring does not extend the source ring"),
    (lambda: homogenize(x, WeightVector.ones(3), PolyRing(("x", "y", "z", "t"))), RingMismatchError,
     "target ring does not extend the source ring"),
    (lambda: substitute(x, [x, y]), RingMismatchError, "need one image per variable"),
    (lambda: substitute(x, [x, y, S.gens()[0]]), RingMismatchError, "images from different rings"),
])
def test_input_checks(call, error, message):
    with pytest.raises(error, match=message):
        call()
