import random
from fractions import Fraction

import pytest

from initalg.family import homogenize_ideal
from initalg.groebner import buchberger
from initalg.orders import (
    DegLex,
    EliminationOrder,
    ExtendedOrder,
    Lex,
    RevLex,
    WeightOrder,
    describe_order,
    leading_coeff,
    leading_monomial,
    leading_term,
    monic,
    packing,
    parse_order,
    sorted_terms,
)
from initalg.poly import (
    Monomial,
    ParseError,
    PolyRing,
    RingMismatchError,
    WeightVector,
    ZeroPolynomialError,
)

R = PolyRing(("x", "y", "z"))
x, y, z = R.gens()


def random_monomial(rng, n, max_exp=4):
    return Monomial(tuple(rng.randint(0, max_exp) for _ in range(n)))


def test_leading_monomial_three_classic_orders():
    Q = PolyRing(("x1", "x2", "x3", "x4"))
    x1, x2, x3, x4 = Q.gens()
    f = x1 + x2 * x4 + x3**2
    assert leading_monomial(f, Lex()) == x1.terms[0].mono
    assert leading_monomial(f, DegLex()) == (x2 * x4).terms[0].mono
    assert leading_monomial(f, RevLex()) == (x3**2).terms[0].mono


def test_permutation_changes_priority():
    f = x + y
    assert leading_monomial(f, Lex()) == x.terms[0].mono
    assert leading_monomial(f, Lex(perm=(1, 0, 2))) == y.terms[0].mono
    assert leading_monomial(f, parse_order("lex(y,x,z)", R)) == y.terms[0].mono


def test_orders_reject_non_permutations():
    # a repeated or out-of-range index makes the order partial or fail late
    for cls in (Lex, DegLex, RevLex):
        for perm in [(0, 0, 2), (0, 1, 5), (1, 2)]:
            with pytest.raises(ValueError, match="permutation"):
                cls(perm)
        assert cls((2, 0, 1)).perm == (2, 0, 1)
    for elim, keep in [((0,), (2,)), ((0, 1), (1, 2)), ((), (0, 3))]:
        with pytest.raises(ValueError, match="permutation"):
            EliminationOrder(elim, keep)
    with pytest.raises(RingMismatchError):
        EliminationOrder((0,), (1, 2)).key(Monomial((1, 0)))
    with pytest.raises(RingMismatchError):
        EliminationOrder((0,), (1,)).key(Monomial((1, 0, 0)))


def test_weight_order_degree_then_base():
    tau = WeightOrder(WeightVector((3, 2, 1)), Lex())
    f = x**2 - z**2
    assert leading_monomial(f, tau) == (x**2).terms[0].mono
    # tie in weighted degree falls back to the base order
    g = x * z - y**2  # both weight 4
    assert leading_monomial(g, tau) == (x * z).terms[0].mono
    assert leading_monomial(g, WeightOrder(WeightVector((3, 2, 1)), Lex(perm=(1, 0, 2)))) == (y**2).terms[0].mono


def test_unit_weight_deglex_agrees_with_deglex():
    rng = random.Random(5)
    tau = WeightOrder(WeightVector.ones(3), DegLex())
    for _ in range(100):
        a, b = random_monomial(rng, 3), random_monomial(rng, 3)
        assert tau.compare(a, b) == DegLex().compare(a, b)


def test_extended_order_prefers_smaller_hom_power():
    a = WeightVector((3, 2, 1))
    ext = ExtendedOrder(a, RevLex())
    # x^2 and z^2*t^4 both have extended weight 6; the t-free one is larger
    m_x2 = Monomial((2, 0, 0, 0))
    m_z2t4 = Monomial((0, 0, 2, 4))
    m_t6 = Monomial((0, 0, 0, 6))
    assert ext.compare(m_x2, m_z2t4) == 1
    assert ext.compare(m_z2t4, m_t6) == 1
    assert ext.compare(m_t6, m_x2) == -1


def test_extended_order_restricts_to_weight_order():
    rng = random.Random(9)
    a = WeightVector((2, 5, 1))
    tau = WeightOrder(a, Lex())
    ext = ExtendedOrder(a, Lex())
    for _ in range(100):
        u, v = random_monomial(rng, 3), random_monomial(rng, 3)
        ue = Monomial(u.exponents + (0,))
        ve = Monomial(v.exponents + (0,))
        assert ext.compare(ue, ve) == tau.compare(u, v)


def _ref_key(order, e):
    """The key each order's docstring defines, nested, written without `matrix`."""
    if isinstance(order, (Lex, DegLex, RevLex)):
        p = e if order.perm is None else tuple(e[i] for i in order.perm)
        if type(order) is Lex:
            return p
        return (sum(e), p if type(order) is DegLex else tuple(-a for a in reversed(p)))
    if isinstance(order, WeightOrder):
        return (order.weight.degree(Monomial(e)), _ref_key(order.base, e))
    if isinstance(order, ExtendedOrder):
        t = e[-1]
        return (order.weight.degree(Monomial(e[:-1])) + t, -t, _ref_key(order.base, e[:-1]))
    return (_ref_key(order.elim_order, tuple(e[i] for i in order.elim)),
            _ref_key(order.keep_order, tuple(e[i] for i in order.keep)))


def _sign(a, b):
    return (a > b) - (a < b)


@pytest.mark.parametrize("base", [Lex(), DegLex(), RevLex()])
def test_extended_order_key_matches_extended_weight_formula(base):
    # the key is M e for the rows of `matrix`; the order it induces must be the
    # one of the formula on R[t]: extended weight, then the smaller power of t,
    # then the base order on the R part
    rng = random.Random(31)

    def formula(a, m):
        return (a.extend().degree(m), -m.exponents[-1], _ref_key(base, m.exponents[:-1]))

    for _ in range(200):
        a = WeightVector(tuple(rng.randint(1, 6) for _ in range(3)))
        ext = ExtendedOrder(a, base)
        m, u = random_monomial(rng, 4, max_exp=5), random_monomial(rng, 4, max_exp=5)
        assert _sign(ext.key(m), ext.key(u)) == _sign(formula(a, m), formula(a, u)), (a, m, u)


def test_block_order_eliminates_first_block():
    # anything containing a first-block variable beats anything that does not
    ord_ = EliminationOrder((0,), (1, 2), DegLex(), RevLex())
    m_x = Monomial((1, 0, 0))
    m_big = Monomial((0, 7, 7))
    assert ord_.compare(m_x, m_big) == 1


def test_order_axioms_random():
    rng = random.Random(17)
    orders = [
        Lex(),
        DegLex(),
        RevLex(),
        Lex(perm=(2, 0, 1)),
        RevLex(perm=(1, 2, 0)),
        WeightOrder(WeightVector((4, 1, 2)), RevLex()),
        EliminationOrder((0,), (1, 2), Lex(), RevLex()),
    ]
    one = Monomial((0, 0, 0))
    for order in orders:
        for _ in range(80):
            a, b, u = (random_monomial(rng, 3) for _ in range(3))
            ca = order.compare(a, b)
            assert ca == -order.compare(b, a)
            assert (ca == 0) == (a == b)
            if ca == 1:  # multiplicative
                assert order.compare(a.mul(u), b.mul(u)) == 1
            if a != one:  # 1 is the minimum
                assert order.compare(a, one) == 1


def test_leading_helpers():
    f = 2 * x * y + 4 * z
    t = leading_term(f, DegLex())
    assert t.coeff == 2 and t.mono == (x * y).terms[0].mono
    assert leading_coeff(f, DegLex()) == 2
    assert monic(f, DegLex()) == x * y + 2 * z
    ts = sorted_terms(f, Lex())
    assert [tt.mono for tt in ts] == [(x * y).terms[0].mono, z.terms[0].mono]
    with pytest.raises(ZeroPolynomialError):
        leading_term(R.zero(), Lex())


def test_parse_order_forms():
    assert parse_order("lex", R) == Lex()
    assert parse_order("deglex", R) == DegLex()
    assert parse_order("revlex", R) == RevLex()
    assert parse_order(" lex( y , x , z ) ", R) == Lex(perm=(1, 0, 2))
    w = parse_order("weight(3,2,1; lex)", R)
    assert w == WeightOrder(WeightVector((3, 2, 1)), Lex())
    nested = parse_order("weight(3,2,1; revlex(z,y,x))", R)
    assert nested == WeightOrder(WeightVector((3, 2, 1)), RevLex(perm=(2, 1, 0)))


def test_parse_order_errors():
    for bad in [
        "",
        "foo",
        "lex(y,x)",
        "lex(y,x,w)",
        "weight(3,2; lex)",
        "weight(3,2,1)",
        "weight(3,2,0; lex)",
        "weight(a,b,c; lex)",
        "lex(y,x,z",
        "lex extra",
    ]:
        with pytest.raises(ParseError):
            parse_order(bad, R)


def test_describe_order_roundtrip():
    for spec in ["lex", "deglex", "revlex", "lex(y,x,z)", "weight(3,2,1; revlex)", "weight(1,1,2; lex(z,x,y))"]:
        order = parse_order(spec, R)
        assert parse_order(describe_order(order, R), R) == order


def _flat(key):
    return sum((_flat(k) for k in key), ()) if isinstance(key, tuple) else (key,)


# (order, number of variables): every kind of row the packed words use
PACKED_ORDERS = [
    (Lex(), 3), (Lex(perm=(2, 0, 1)), 3),
    (DegLex(), 3), (DegLex(perm=(1, 2, 0)), 3),
    (RevLex(), 3), (RevLex(perm=(2, 0, 1)), 3),
    (WeightOrder(WeightVector((3, 1, 2)), Lex(perm=(1, 0, 2))), 3),
    (ExtendedOrder(WeightVector((2, 1, 3)), RevLex()), 4),
    (EliminationOrder((2, 0), (1, 3), DegLex(), RevLex()), 4),
    # the graded kernel order of `presentation_kernel`
    (WeightOrder(WeightVector((1, 1, 2, 3)), EliminationOrder((0, 1), (2, 3), DegLex(), RevLex())), 4),
]


@pytest.mark.parametrize("order, n", PACKED_ORDERS, ids=lambda v: type(v).__name__)
def test_packed_words_agree_with_key(order, n):
    rng = random.Random(1985)
    bits = 5
    P = packing(order, n, bits)
    rows = order.matrix(n)
    for _ in range(300):
        # exponents below 2^(bits-1), so that every product still fits
        a = tuple(rng.randrange(16) for _ in range(n))
        b = tuple(rng.randrange(16) for _ in range(n))
        ka, kb = order.key(Monomial(a)), order.key(Monomial(b))
        pa, pb = P.pack(a), P.pack(b)
        assert _sign(pa, pb) == _sign(ka, kb), (a, b)
        ab = tuple(map(sum, zip(a, b)))
        assert P.pack(ab) == pa + pb and not (pa + pb) & P.guard
        # the docstring formulas, nested, flatten to exactly M e
        assert ka == _flat(_ref_key(order, a)), (a, rows)
        assert P.unpack(pa) == a
        assert (not (pb - pa) & P.guard) == Monomial(a).divides(Monomial(b))
        assert P.unpack(P.lcm(pa, pb)) == tuple(map(max, a, b))
        assert (P.lcm(pa, pb) == pa + pb) == (not any(map(min, a, b)))


@pytest.mark.parametrize("order, n", PACKED_ORDERS, ids=lambda v: type(v).__name__)
def test_support_marks_the_nonzero_fields(order, n):
    # the support is the guard bit of each nonzero field, on the first packing
    # and on a widened one, with fields at 0, 1 and 2^bits - 1 among them;
    # two words are coprime exactly when their supports share no bit
    rng = random.Random(2017)
    for bits in (4, 8):
        P = packing(order, n, bits)
        for _ in range(300):
            a, b = ([rng.choice((0, 1, P.mask, rng.randrange(P.mask + 1))) for _ in range(n)] for _ in range(2))
            pa, pb = P.pack(a), P.pack(b)
            for word in (pa, pb):
                assert P.support(word) == sum(1 << (s + bits) for s, e in zip(P.shifts, P.unpack(word)) if e)
            coprime = not any(map(min, a, b))
            assert (not P.support(pa) & P.support(pb)) == coprime == (P.lcm(pa, pb) == pa + pb), (a, b)


def test_packed_sum_flags_an_exponent_that_outgrows_the_fields():
    rng = random.Random(70)
    P = packing(RevLex(), 3, 4)
    flagged = 0
    for _ in range(300):
        a = tuple(rng.randrange(16) for _ in range(3))
        b = tuple(rng.randrange(16) for _ in range(3))
        over = any(x + y >= 16 for x, y in zip(a, b))
        assert bool((P.pack(a) + P.pack(b)) & P.guard) == over
        flagged += over
    assert 0 < flagged < 300


def test_matrix_checks_the_number_of_variables():
    # a permutation, a weight or a pair of blocks fixes the number of variables
    for order, n in PACKED_ORDERS:
        wider = Monomial((1,) * (n + 1))
        if order in (Lex(), DegLex(), RevLex()):
            assert len(order.matrix(n + 1)[0]) == n + 1
            assert len(order.key(wider)) == len(order.matrix(n + 1))
            continue
        with pytest.raises(RingMismatchError):
            order.matrix(n + 1)
        with pytest.raises(RingMismatchError):
            order.key(wider)


def test_orders_and_weights_built_from_lists():
    # stored as tuples, so they hash and reach the cached rows and packings
    orders = [
        (Lex(perm=[1, 0, 2]), Lex(perm=(1, 0, 2))),
        (EliminationOrder([0], [1, 2]), EliminationOrder((0,), (1, 2))),
        (WeightOrder(WeightVector([3, 1, 2]), RevLex([2, 1, 0])),
         WeightOrder(WeightVector((3, 1, 2)), RevLex((2, 1, 0)))),
    ]
    for built, expected in orders + [(WeightVector([1, 2, 3]), WeightVector((1, 2, 3)))]:
        assert built == expected and hash(built) == hash(expected)
    gens = [x**2 - y, x * y - z]
    for built, expected in orders:
        assert leading_term(gens[0], built) == leading_term(gens[0], expected)
        assert buchberger(gens, built).elements == buchberger(gens, expected).elements
    assert homogenize_ideal(gens, WeightVector([2, 1, 1]), Lex()) == homogenize_ideal(
        gens, WeightVector((2, 1, 1)), Lex()
    )


def test_weight_vectors_reject_bool_entries():
    # True would print as a weight entry that parse_order rejects
    for entries in [(True, 2, 1), (1, False, 1), [2, 1, True]]:
        with pytest.raises(ValueError, match="integers"):
            WeightVector(entries)
    assert describe_order(WeightOrder(WeightVector((1, 2, 1)), Lex()), R) == "weight(1,2,1; lex)"
