import random
from fractions import Fraction

import pytest

from conftest import bareiss_rank, random_homogeneous_poly, random_poly
from initalg.family import (
    FreenessReport,
    HomogenizedFamily,
    fiber,
    freeness_basis_check,
    homogenize_ideal,
)
from initalg.groebner import (
    ReducedGroebnerBasis,
    buchberger,
    initial_ideal,
    initial_ideal_weight,
)
from initalg.hilbert import hilbert_series_monomial
from initalg.orders import DegLex, ExtendedOrder, Lex, RevLex, WeightOrder, leading_monomial
from initalg.poly import (
    Monomial,
    PolyRing,
    WeightVector,
    homogenize,
    is_weight_homogeneous,
    monomials_of_weight,
    weighted_degree,
)

R2 = PolyRing(("x", "y"))
x, y = R2.gens()
R3 = PolyRing(("x", "y", "z"))
X, Y, Z = R3.gens()


def random_weight(rng, n, hi=3):
    return WeightVector(tuple(rng.randint(1, hi) for _ in range(n)))


def test_monomials_of_weight():
    ms = monomials_of_weight(2, WeightVector((1, 1)), 2)
    assert set(ms) == {Monomial((2, 0)), Monomial((1, 1)), Monomial((0, 2))}
    ms2 = monomials_of_weight(2, WeightVector((2, 3)), 6)
    assert set(ms2) == {Monomial((3, 0)), Monomial((0, 2))}
    assert monomials_of_weight(2, WeightVector((2, 3)), 1) == []


def test_homogenize_ideal_single():
    fam = homogenize_ideal([x**2 - y], WeightVector((1, 1)))
    t = fam.extended_ring.gens()[-1]
    xt, yt = fam.extended_ring.gens()[:2]
    assert fam.total.elements == tuple(fam) == (xt**2 - yt * t,)
    assert fam.ring == R2 and fam.extended_ring.names == ("x", "y", "t")
    assert fiber(fam, 0) == (x**2,)
    assert fiber(fam, 1) == (x**2 - y,)
    assert fiber(fam, 2) == (x**2 - 2 * y,)


def test_fiber_scaling_same_ideal():
    fam = homogenize_ideal([x**2 - y], WeightVector((1, 1)))
    at2 = fiber(fam, 2)
    assert buchberger(list(at2), DegLex()).elements == buchberger([x**2 - 2 * y], DegLex()).elements


def test_weight_homogeneous_ideal_needs_no_t():
    fam = homogenize_ideal([x**2 - y**2], WeightVector((1, 1)))
    for g in fam.total:
        assert all(t.mono.exponents[-1] == 0 for t in g.terms)


def test_total_elements_weight_homogeneous_fixture():
    a = WeightVector((1, 1, 1))
    fam = homogenize_ideal([X**2 - Y, X * Y - Z], a, Lex())
    ext = a.extend()
    for g in fam.total:
        assert is_weight_homogeneous(g, ext)
    assert len(fam.total) == len(fam.base_gb)


def test_homogenized_gb_is_already_reduced():
    rng = random.Random(97)
    for _ in range(15):
        a = random_weight(rng, 3)
        tie = rng.choice([Lex(), DegLex(), RevLex()])
        gens = [random_poly(rng, R3, max_terms=3, max_exp=2) for _ in range(2)]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        fam = homogenize_ideal(gens, a, tie)
        recomputed = buchberger(list(fam.total), ExtendedOrder(a, tie))
        assert recomputed.elements == fam.total.elements


def test_leading_monomials_match_base():
    rng = random.Random(101)
    for _ in range(15):
        a = random_weight(rng, 2)
        tie = rng.choice([Lex(), DegLex(), RevLex()])
        gens = [random_poly(rng, R2, max_terms=3, max_exp=3) for _ in range(2)]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        fam = homogenize_ideal(gens, a, tie)
        base_leads = [leading_monomial(g, fam.base_gb.order) for g in fam.base_gb]
        total_leads = [leading_monomial(g, fam.total.order) for g in fam.total]
        assert [m.exponents + (0,) for m in base_leads] == [m.exponents for m in total_leads]


def test_fiber_one_and_zero_random():
    rng = random.Random(103)
    for _ in range(15):
        a = random_weight(rng, 2)
        tie = rng.choice([Lex(), DegLex(), RevLex()])
        gens = [random_poly(rng, R2, max_terms=3, max_exp=3) for _ in range(2)]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        fam = homogenize_ideal(gens, a, tie)
        order = WeightOrder(a, tie)
        assert buchberger(list(fiber(fam, 1)), order).elements == fam.base_gb.elements
        assert fiber(fam, 0) == initial_ideal_weight(gens, a, tie)


def test_freeness_fixtures():
    fam = homogenize_ideal([x**2 - y], WeightVector((1, 1)))
    rep = freeness_basis_check(fam, 3)
    assert rep.ok and rep.bound == 3
    # degree d piece of K[x,y,t]/(x^2 - yt) vs standard monomials of (x^2)
    assert rep.rows[0] == (0, 1, 1)

    zero_fam = homogenize_ideal([R2.zero()], WeightVector((1, 1)))
    assert freeness_basis_check(zero_fam, 4).ok

    R1 = PolyRing(("x",))
    only = homogenize_ideal([R1.gens()[0]], WeightVector((1,)))
    rep1 = freeness_basis_check(only, 5)
    assert rep1.ok
    assert [r[1] for r in rep1.rows] == [1] * 6  # the single standard monomial is 1


def test_freeness_random():
    rng = random.Random(107)
    for _ in range(8):
        a = random_weight(rng, 2)
        gens = [random_poly(rng, R2, max_terms=3, max_exp=2) for _ in range(2)]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        fam = homogenize_ideal(gens, a)
        assert freeness_basis_check(fam).ok


def test_fiber_hilbert_functions_match_for_graded_ideals():
    rng = random.Random(109)
    for _ in range(8):
        gens = [random_homogeneous_poly(rng, R3, rng.randint(1, 3)) for _ in range(2)]
        a = random_weight(rng, 3)
        fam = homogenize_ideal(gens, a)
        alpha = Fraction(rng.randint(1, 4))
        general = fiber(fam, alpha)
        H_base = hilbert_series_monomial(initial_ideal(gens, DegLex()))
        H_fiber = hilbert_series_monomial(initial_ideal(list(general), DegLex()))
        assert H_base.expand(8) == H_fiber.expand(8)


def _raw_family(gens, weight):
    """A family whose total ideal holds the homogenized generators, not the homogenized basis."""
    base = buchberger(gens, WeightOrder(weight, Lex()))
    ring_t = base.ring.extend()
    lifted = tuple(homogenize(g, weight, ring_t) for g in gens)
    total = ReducedGroebnerBasis(ring_t, ExtendedOrder(weight, Lex()), lifted)
    return HomogenizedFamily(weight, base, total)


def test_freeness_check_fails_on_homogenized_raw_generators():
    # (x^2 - y*t^3, x*y - z*t^2) misses the homogenized basis elements, so the
    # quotient is larger than the standard monomials of ini(I) predict
    rep = freeness_basis_check(_raw_family([X**2 - Y, X * Y - Z], WeightVector((2, 1, 1))), 8)
    assert not rep.ok
    assert rep.rows == (
        (0, 1, 1), (1, 3, 3), (2, 7, 7), (3, 10, 12), (4, 13, 18),
        (5, 16, 24), (6, 19, 30), (7, 22, 36), (8, 25, 42),
    )


def _fraction_freeness_rows(fam, bound):
    """Degreewise (degree, standard count, quotient dimension): rows assembled from
    Monomials with Fraction coefficients, ranked densely by `bareiss_rank`."""
    a, a_ext, ring_t = fam.weight, fam.weight.extend(), fam.extended_ring
    ini = fam.base_gb.initial_ideal()
    rows, standard = [], 0
    for d in range(bound + 1):
        standard += len(ini.standard_monomials(a, d))
        ambient = sorted(monomials_of_weight(ring_t.n, a_ext, d), key=fam.total.order.key)
        index = {mono: i for i, mono in enumerate(ambient)}
        sparse = []
        for g in fam.total:
            gd = weighted_degree(g, a_ext)
            if gd <= d:
                for mult in monomials_of_weight(ring_t.n, a_ext, d - gd):
                    sparse.append({index[mult.mul(t.mono)]: t.coeff for t in g.terms})
        dense = [[row.get(i, 0) for i in range(len(ambient))] for row in sparse]
        rows.append((d, standard, len(ambient) - bareiss_rank(dense)))
    return tuple(rows)


def test_freeness_rows_with_non_integer_coefficients_match_fraction_reference():
    a = WeightVector((2, 1, 1))
    gens = [2 * X**2 - 3 * Y, 5 * X * Y - 2 * Z]
    fam = homogenize_ideal(gens, a, Lex())
    assert any(t.coeff.denominator > 1 for g in fam.total for t in g.terms)
    rep = freeness_basis_check(fam)
    assert rep.ok
    assert rep.rows == _fraction_freeness_rows(fam, rep.bound)
    raw = _raw_family(gens, a)
    assert freeness_basis_check(raw, 8).rows == _fraction_freeness_rows(raw, 8)


def test_freeness_rows_match_fraction_reference_on_random_families():
    # homogenized bases are flat; homogenized raw generators (three of them) often are not
    rng = random.Random(2003)
    families = non_flat = 0
    while families < 40:
        ring = rng.choice([R2, R3])
        a = random_weight(rng, ring.n)
        raw = families % 2 == 1
        gens = [random_poly(rng, ring, max_terms=3, max_exp=2, max_den=3) for _ in range(2 + raw)]
        if any(g.is_zero() for g in gens):
            continue
        fam = _raw_family(gens, a) if raw else homogenize_ideal(gens, a, rng.choice([Lex(), DegLex(), RevLex()]))
        bound = rng.randint(0, 9)
        rep = freeness_basis_check(fam, bound)
        assert rep.rows == _fraction_freeness_rows(fam, bound)
        assert rep.ok == all(s == dim for _, s, dim in rep.rows) and rep.bound == bound
        assert rep.ok or raw
        non_flat += not rep.ok
        families += 1
    assert non_flat >= 8


@pytest.mark.parametrize("bound", [True, False, 2.0, "3"])
def test_freeness_bound_must_be_an_integer(bound):
    # bool is an int subclass: True was once taken as a bound of 1
    fam = homogenize_ideal([x**2 - y], WeightVector((1, 1)))
    with pytest.raises(ValueError, match="degree bound must be an integer"):
        freeness_basis_check(fam, bound)
