import random

import pytest

from conftest import random_homogeneous_poly, random_monomial
from initalg.groebner import MonomialIdeal, initial_ideal
from initalg.hilbert import (
    HilbertSeries,
    _divide_by_one_minus_power,
    compare_hilbert,
    gorenstein_symmetry_check,
    hilbert_series_monomial,
    hilbert_series_subalgebra,
    krull_dim_monomial,
    semigroup_counts,
)
from initalg.orders import DegLex, Lex, RevLex
from initalg.poly import Monomial, PolyRing, Polynomial, WeightVector, format_poly
from initalg.sagbi import initial_algebra_gens, sagbi_complete

R2 = PolyRing(("x", "y"))
x, y = R2.gens()
R3 = PolyRing(("x", "y", "z"))
X, Y, Z = R3.gens()
R4 = PolyRing(("T", "U", "V", "W"))


def m(*e):
    return Monomial(e)


def brute_force_hilbert_function(M, d_max, weight=None):
    """Independent oracle: count standard monomials degree by degree."""
    weight = weight or WeightVector.ones(M.ring.n)
    return tuple(len(M.standard_monomials(weight, d)) for d in range(d_max + 1))


def mi(ring, *monos):
    return MonomialIdeal.from_monomials(ring, monos)


def test_series_fixture_two_gens():
    H = hilbert_series_monomial(mi(R2, m(2, 0), m(1, 1)))
    assert H.numerator == (1, 0, -2, 1)
    assert H.denominator_degrees == (1, 1)
    assert H.expand(4) == (1, 2, 1, 1, 1)


def test_series_trivial_cases():
    assert hilbert_series_monomial(mi(R2)).numerator == (1,)
    H = hilbert_series_monomial(mi(R2, m(1, 0), m(0, 1)))
    assert H.numerator == (1, -2, 1)
    assert H.expand(3) == (1, 0, 0, 0)


def test_function_fixtures():
    assert HilbertSeries((1, -1, 1), (1, 1)).expand(5) == (1, 1, 2, 3, 4, 5)
    assert HilbertSeries((1,), (1, 1)).expand(3) == (1, 2, 3, 4)
    assert HilbertSeries((1, 0, -2, 1), (1, 1)).expand(4) == (1, 2, 1, 1, 1)


def test_series_matches_brute_force():
    rng = random.Random(113)
    for _ in range(40):
        n = rng.randint(1, 4)
        ring = PolyRing(tuple(f"x{i}" for i in range(n)))
        M = MonomialIdeal.from_monomials(
            ring, [random_monomial(rng, n, 3) for _ in range(rng.randint(0, 4))]
        )
        if any(g.is_one() for g in M.mingens):
            continue
        weight = (
            WeightVector(tuple(rng.randint(1, 2) for _ in range(n)))
            if rng.random() < 0.5
            else None
        )
        H = hilbert_series_monomial(M, weight)
        assert H.expand(12) == brute_force_hilbert_function(M, 12, weight)
    # high exponents, where each split takes off the least exponent of its variable at once
    high = [mi(R2, m(30, 1), m(29, 2)), mi(R3, m(20, 3, 0), m(17, 0, 5), m(0, 9, 14))]
    for _ in range(8):
        n = rng.randint(2, 3)
        ring = PolyRing(tuple(f"x{i}" for i in range(n)))
        high.append(MonomialIdeal.from_monomials(
            ring, [random_monomial(rng, n, 20) for _ in range(rng.randint(2, 4))]))
    for M in high:
        if not any(g.is_one() for g in M.mingens):
            assert hilbert_series_monomial(M).expand(40) == brute_force_hilbert_function(M, 40)


def test_krull_dim():
    assert krull_dim_monomial(mi(R2, m(2, 0), m(1, 1))) == 1
    assert krull_dim_monomial(mi(R2)) == 2
    assert krull_dim_monomial(mi(R2, m(1, 0), m(0, 1))) == 0
    with pytest.raises(ValueError):
        krull_dim_monomial(mi(R2, m(0, 0)))


def test_krull_dim_order_independent():
    rng = random.Random(131)
    from conftest import sample_orders

    for _ in range(15):
        gens = [random_homogeneous_poly(rng, R3, rng.randint(1, 3)) for _ in range(2)]
        dims = {krull_dim_monomial(initial_ideal(gens, o)) for o in sample_orders(3)}
        assert len(dims) == 1


def pole_order_at_one(H):
    """Denominator factors of the series H minus the multiplicity of t=1 in its numerator."""
    num, mult = H.numerator, 0
    assert any(num), "the zero series has no pole order"
    while (q := _divide_by_one_minus_power(num, 1)) is not None:
        num, mult = q, mult + 1
    return len(H.denominator_degrees) - mult


def test_pole_order_equals_krull_dim():
    rng = random.Random(137)
    for _ in range(25):
        n = rng.randint(1, 3)
        ring = PolyRing(tuple(f"x{i}" for i in range(n)))
        M = MonomialIdeal.from_monomials(
            ring, [random_monomial(rng, n, 2) for _ in range(rng.randint(0, 3))]
        )
        if any(g.is_one() for g in M.mingens):
            continue
        H = hilbert_series_monomial(M)
        assert pole_order_at_one(H) == krull_dim_monomial(M)


def test_semigroup_counts_polynomial_ring():
    assert semigroup_counts([m(1, 0), m(0, 1)], [1, 1], 4) == (1, 2, 3, 4, 5)


def test_subalgebra_function_truncated_state():
    state = sagbi_complete([x + y, x * y, x * y**2], DegLex(), 6)
    values = hilbert_series_subalgebra(state, d_max=6)
    assert values == (1, 1, 2, 3, 4, 5, 6)
    assert values[:6] == HilbertSeries((1, -1, 1), (1, 1)).expand(5)
    with pytest.raises(ValueError):
        hilbert_series_subalgebra(state, d_max=7)


def test_subalgebra_function_full_ring_and_quadrics():
    full = sagbi_complete([x, y], DegLex(), 1)
    assert hilbert_series_subalgebra(full, d_max=5) == (1, 2, 3, 4, 5, 6)
    # the four quadrics against the abstract presentation with degree-2 generators;
    # they are a Sagbi basis, so the state is confirmed and any d_max is certified
    quadrics = sagbi_complete([X**2 - Z**2, X * Y, Y**2, Y * Z], Lex(), 2)
    assert quadrics.confirmed
    values = hilbert_series_subalgebra(quadrics, d_max=6)
    T = m(1, 0, 0, 0)
    H = hilbert_series_monomial(
        MonomialIdeal.from_monomials(R4, [Monomial((0, 2, 0, 0))]), WeightVector((2, 2, 2, 2))
    )
    assert values == H.expand(6)
    assert values[:5] == (1, 0, 4, 0, 9)


def test_subalgebra_function_rejects_bare_non_sagbi_generators():
    # bare generators carry no Sagbi guarantee: the leads x, x*y, x*y^2 miss
    # x*y^3, ... of the initial algebra, so counting their semigroup would
    # undercount from degree 4 on; only a sagbi_complete state is accepted
    gens = [x + y, x * y, x * y**2]
    with pytest.raises(TypeError, match="sagbi_complete"):
        hilbert_series_subalgebra(gens, d_max=6)
    with pytest.raises(TypeError, match="sagbi_complete"):
        initial_algebra_gens(gens)
    state = sagbi_complete(gens, DegLex(), 7)
    assert hilbert_series_subalgebra(state, d_max=6) == (1, 1, 2, 3, 4, 5, 6)


def test_subalgebra_function_rejects_inhomogeneous():
    state = sagbi_complete([x + x * y], DegLex(), 2)
    assert state.confirmed  # one generator has no relations to lift
    with pytest.raises(ValueError, match="homogeneous"):
        hilbert_series_subalgebra(state, d_max=3)


def test_compare_hilbert_principal():
    rep = compare_hilbert([x**2 - y**2], Lex(), RevLex())
    assert rep.ok
    assert rep.first_values[:4] == (1, 2, 2, 2)


def test_compare_hilbert_weighted():
    gens = [X**2 - Y, X * Y - Z]
    rep = compare_hilbert(gens, Lex(), DegLex(), grading=WeightVector((1, 2, 3)), d_max=10)
    assert rep.ok
    with pytest.raises(ValueError):
        compare_hilbert(gens, Lex(), DegLex())  # not graded for (1,1,1)


def test_compare_hilbert_random_graded():
    rng = random.Random(139)
    from conftest import sample_orders

    for _ in range(15):
        gens = [random_homogeneous_poly(rng, R3, rng.randint(1, 3)) for _ in range(2)]
        o1, o2 = rng.sample(sample_orders(3), 2)
        assert compare_hilbert(gens, o1, o2).ok


def test_reduced_series():
    H = HilbertSeries((1, 0, -1), (1, 1, 1, 1))  # (1-t^2)/(1-t)^4
    red = H.reduced()
    assert red.numerator == (1, 1) and red.denominator_degrees == (1, 1, 1)
    H2 = HilbertSeries((1, 0, 0, 0, 0, -1), (2, 3))  # (1-t^5)/((1-t^2)(1-t^3))
    assert H2.reduced() == H2  # no whole factor cancels
    assert HilbertSeries((0,), (1,)).reduced().numerator == (0,)


def reduced_by_restarting(H):
    """Reference: after each cancellation, retry every denominator from the smallest."""
    if not any(H.numerator):
        return H
    num = H.numerator
    denoms = list(H.denominator_degrees)
    changed = True
    while changed and denoms:
        changed = False
        for e in sorted(denoms):
            q = _divide_by_one_minus_power(num, e)
            if q is not None and any(q):
                num = q
                denoms.remove(e)
                changed = True
                break
    return HilbertSeries(num, tuple(denoms))


def test_reduced_matches_restarting_reference():
    rng = random.Random(223)
    cancelled = 0
    for _ in range(1500):
        num = [rng.randint(-2, 2) for _ in range(rng.randint(1, 4))]
        for _ in range(rng.randint(0, 3)):  # plant factors (1 - t^e) in the numerator
            e = rng.randint(1, 4)
            num = [a - b for a, b in zip(num + [0] * e, [0] * e + num)]
        H = HilbertSeries(tuple(num), tuple(rng.randint(1, 4) for _ in range(rng.randint(0, 5))))
        red = H.reduced()
        assert red == reduced_by_restarting(H)
        cancelled += len(H.denominator_degrees) - len(red.denominator_degrees)
    assert cancelled > 500


def test_gorenstein_symmetry():
    assert gorenstein_symmetry_check(HilbertSeries((1, 0, -1), (1, 1, 1, 1))) is True
    assert gorenstein_symmetry_check(HilbertSeries((1, 1), (1, 1, 1))) is True
    assert gorenstein_symmetry_check(HilbertSeries((1, 0, -2, 1), (1, 1))) is False
    assert gorenstein_symmetry_check(HilbertSeries((1,), (1,))) is True
    assert gorenstein_symmetry_check(HilbertSeries((1, 0, 0, 0, 0, -1), (2, 3))) is True
    with pytest.raises(ValueError):
        gorenstein_symmetry_check(HilbertSeries((0,), (1,)))


def test_series_str():
    assert str(HilbertSeries((1, 0, -2, 1), (1, 1))) == "(1 - 2*t^2 + t^3) / (1-t)^2"
    assert str(HilbertSeries((1, -1), ())) == "1 - t"
    assert str(HilbertSeries((1,), (1, 2, 2))) == "(1) / (1-t) (1-t^2)^2"


def reference_series_str(series):
    """The printer as a Fraction polynomial in t through `format_poly`, constant term first."""
    t_ring = PolyRing(("t",))
    num = format_poly(
        Polynomial.from_dict(t_ring, {Monomial((i,)): c for i, c in enumerate(series.numerator)}),
        key=lambda mono: (-mono.degree(),),
    )
    if not series.denominator_degrees:
        return num
    parts = []
    for e in sorted(set(series.denominator_degrees)):
        k = series.denominator_degrees.count(e)
        base = "(1-t)" if e == 1 else f"(1-t^{e})"
        parts.append(base if k == 1 else f"{base}^{k}")
    return f"({num}) / " + " ".join(parts)


def test_series_str_equals_the_polynomial_printer():
    fixed = [
        ((0,), ()), ((0,), (1, 1)), ((-3,), ()), ((-1,), (2,)), ((1,), (1, 1, 1)),
        ((0, 1), ()), ((0, -1, 0, 0, 1), (3, 3, 1)), ((2, 0, 0, -1), ()), ((-1, 1, -1, 1), (1,)),
        ((5, 0, -7, 0, 0, 12), (2, 2, 2, 4)),
    ]
    rng = random.Random(89)
    drawn = [
        (tuple(rng.choice((0, 0, 1, -1, rng.randint(-9, 9))) for _ in range(rng.randint(1, 8))),
         tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 5))))
        for _ in range(300)
    ]
    for numerator, degrees in fixed + drawn:
        series = HilbertSeries(numerator, degrees)
        assert str(series) == reference_series_str(series), series
        assert str(series.reduced()) == reference_series_str(series.reduced()), series


@pytest.mark.parametrize("call, message", [
    (lambda: hilbert_series_monomial(mi(R2, m(1, 0)), WeightVector((1, 1, 1))), "weight arity does not match ring"),
    (lambda: semigroup_counts([m(1, 0)], [1, 2], 3), "one degree per generator"),
    (lambda: semigroup_counts([m(1, 0), m(0, 1)], [1, 0], 3), "generator degrees must be positive"),
    # True is not a d_max of 1, and a float gets a ValueError, not a TypeError
    (lambda: HilbertSeries((1,), (1, 1)).expand(True), "d_max must be an integer, got True"),
    (lambda: HilbertSeries((1,), (1, 1)).expand(2.5), "d_max must be an integer, got 2.5"),
    (lambda: hilbert_series_subalgebra(sagbi_complete([x + y, x * y], DegLex(), 2), d_max=True),
     "d_max must be an integer, got True"),
    # checked before the truncation degree 2, which 2.5 would otherwise exceed
    (lambda: hilbert_series_subalgebra(sagbi_complete([x + y, x * y], DegLex(), 2), d_max=2.5),
     "d_max must be an integer, got 2.5"),
    (lambda: compare_hilbert([], Lex(), RevLex()), "need generators"),
])
def test_series_input_validation(call, message):
    with pytest.raises(ValueError, match=message):
        call()
