import itertools
import random
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
    # a list field made the frozen dataclass unhashable and unequal to its tuple form
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
