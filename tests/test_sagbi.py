import math
import random
import re
from fractions import Fraction

import pytest

from conftest import random_poly
from initalg import groebner, sagbi
from initalg.groebner import presentation_kernel
from initalg.orders import DegLex, Lex, RevLex, WeightOrder, leading_monomial, leading_term, monic
from initalg.poly import Monomial, PolyRing, Polynomial, RingMismatchError, WeightVector, power_product
from initalg.sagbi import (
    SagbiState,
    factor_over_monomials,
    initial_algebra_gens,
    kernel_initial_check,
    minimalize_semigroup,
    sagbi_complete,
    sagbi_test,
    subduct,
    subduct_with_certificate,
)

R2 = PolyRing(("x", "y"))
x, y = R2.gens()
R3 = PolyRing(("x", "y", "z"))
X, Y, Z = R3.gens()

# the classic finitely-ungenerated example: x+y, xy, xy^2
F_INF = (x + y, x * y, x * y**2)
# four quadrics whose initial algebra relation differs from the algebra relation
F_QUAD = (X**2 - Z**2, X * Y, Y**2, Y * Z)


def m(*e):
    return Monomial(e)


def test_factor_over_monomials():
    assert factor_over_monomials(m(1, 3), [m(1, 0), m(1, 1), m(1, 2)]) is None
    assert factor_over_monomials(m(2, 2), [m(1, 0), m(1, 1), m(1, 2)]) in [(0, 2, 0), (1, 0, 1)]
    # lexicographically largest exponent vector is preferred
    assert factor_over_monomials(m(2, 2), [m(1, 0), m(1, 1), m(1, 2)]) == (1, 0, 1)
    assert factor_over_monomials(m(0, 0), [m(1, 0)]) == (0,)
    assert factor_over_monomials(m(3, 0), [m(2, 0)]) is None


def test_subduct_examples():
    assert subduct(x * y**3, list(F_INF), DegLex()) == x * y**3
    assert subduct((x + y) * (x * y), list(F_INF), DegLex()).is_zero()
    assert subduct(x**2, [x], DegLex()).is_zero()
    assert subduct(R2.const(5), [x], DegLex()).is_zero()  # constants lie in the algebra


def test_subduction_certificate_replays():
    rng = random.Random(73)
    for _ in range(20):
        # random algebra element: polynomial combination of the generators
        expr = R2.zero()
        for _ in range(rng.randint(1, 3)):
            term = R2.const(rng.randint(-3, 3))
            for g in F_INF:
                term = term * g ** rng.randint(0, 2)
            expr = expr + term
        res = subduct_with_certificate(expr, list(F_INF), DegLex())
        assert res.replay(list(F_INF)) == expr
        if not expr.is_zero() and res.remainder.is_zero():
            # membership certified by the steps alone
            assert sum(
                (R2.const(s.coeff) * (F_INF[0] ** s.exponents[0]) * (F_INF[1] ** s.exponents[1]) * (F_INF[2] ** s.exponents[2]) for s in res.steps),
                R2.zero(),
            ) == expr


def test_sagbi_test_monomial_generators():
    ok, wit = sagbi_test([x, x * y], DegLex())
    assert ok and wit == ()


def test_sagbi_test_failure_has_witness():
    ok, witnesses = sagbi_test(list(F_INF), DegLex())
    assert not ok
    assert any(leading_monomial(w, DegLex()) == m(1, 3) for w in witnesses)


def test_sagbi_test_quadric_fixture_passes():
    ok, witnesses = sagbi_test(list(F_QUAD), Lex())
    assert ok and witnesses == ()


def test_sagbi_test_permutation_invariant():
    rng = random.Random(79)
    gens = list(F_QUAD)
    base = sagbi_test(gens, Lex())
    for _ in range(4):
        rng.shuffle(gens)
        assert sagbi_test(gens, Lex()) == base


def test_sagbi_members_subduct_to_zero():
    rng = random.Random(83)
    gens = list(F_QUAD)
    for _ in range(15):
        g = R3.one()
        for f in gens:
            g = g * f ** rng.randint(0, 2)
        h = g + rng.choice(gens) * rng.randint(-2, 2)
        assert subduct(h, gens, Lex()).is_zero()


def polynomial_kernel_sagbi_test(gens, order):
    """The Sagbi test with the toric kernel built by `presentation_kernel`."""
    gens = sagbi._sort_gens(gens, order)
    ring = gens[0].ring
    inis = [leading_term(g, order) for g in gens]
    kernel = presentation_kernel([Polynomial.from_dict(ring, {it.mono: 1}) for it in inis])
    witnesses = set()
    for rel in kernel.gens:
        assert len(rel.terms) == 2
        lift = ring.zero()
        for t in rel.terms:
            scale = math.prod(it.coeff**e for it, e in zip(inis, t.mono.exponents))
            lift = lift + (t.coeff / scale) * power_product(ring, gens, t.mono.exponents)
        rem = subduct(lift, gens, order)
        if not rem.is_zero():
            witnesses.add(monic(rem, order))
    witnesses = sagbi._sort_gens(witnesses, order)
    return (not witnesses, tuple(witnesses))


def test_sagbi_test_equals_polynomial_kernel_route():
    rng = random.Random(139)
    checked = failed = 0
    for trial in range(45):
        order = (Lex(), DegLex(), RevLex())[trial % 3]
        ring = (R2, R3)[trial // 3 % 2]
        gens = [random_poly(rng, ring, max_terms=3, max_exp=2) for _ in range(rng.randint(2, 3))]
        gens = [g for g in gens if any(not t.mono.is_one() for t in g.terms)]  # nonconstant
        if not gens:
            continue
        got = sagbi_test(gens, order)
        assert got == polynomial_kernel_sagbi_test(gens, order), (gens, order)
        checked += 1
        failed += not got[0]
    assert checked >= 40 and failed >= 10, (checked, failed)


def reference_sagbi_complete(gens, order, cap):
    """`sagbi_complete` rebuilt from scratch each round: the kernel from
    `presentation_kernel` and every lift by `power_product`, through
    `polynomial_kernel_sagbi_test`."""
    current = sagbi._sort_gens(gens, order)
    while True:
        ok, witnesses = polynomial_kernel_sagbi_test(current, order)
        if ok:
            return SagbiState(tuple(current), order, None)
        admissible = [w for w in witnesses if w.total_degree() <= cap]
        if not admissible:
            return SagbiState(tuple(current), order, cap)
        current = sagbi._sort_gens(current + [admissible[0]], order)


def random_completion_input(rng, ring, trial):
    """Random nonconstant generators.  Odd trials draw them freely, even trials
    take a linear binomial in x_i, x_j and multiples of x_i^a x_j^b, some
    with one more term, the shape of x + y, x*y, x*y^2, which often runs
    into the cap."""
    if trial % 2:
        gens = [random_poly(rng, ring, max_terms=3, max_exp=2) for _ in range(rng.randint(2, 3))]
    else:
        i, j = rng.sample(range(ring.n), 2)
        gens = [ring.var(i) * rng.choice([1, 2, -1]) + ring.var(j) * rng.choice([1, -1, 3])]
        for _ in range(rng.randint(1, 2)):
            g = ring.var(i) ** rng.randint(1, 2) * ring.var(j) ** rng.randint(1, 2) * rng.choice([1, -2, 3])
            gens.append(g + random_poly(rng, ring, max_terms=1, max_exp=1) if rng.random() < 0.3 else g)
    return [g for g in gens if any(not t.mono.is_one() for t in g.terms)]


def test_kept_lifts_equal_rebuilt_completion():
    # lifts and powers kept across rounds must give the completion that
    # rebuilds the kernel and every lift in each round
    rng = random.Random(149)
    checked = adjoined = truncated = confirmed = 0
    for trial in range(72):
        order = (Lex(), DegLex(), RevLex())[trial % 3]
        ring = (R2, R3)[trial // 6 % 2]
        gens = random_completion_input(rng, ring, trial)
        if not gens or max(g.total_degree() for g in gens) > 4:
            continue
        cap = rng.randint(4, 6)
        state = sagbi_complete(gens, order, cap)
        assert state == reference_sagbi_complete(gens, order, cap), (gens, order, cap)
        checked += 1
        adjoined += len(state.gens) > len(set(gens))
        truncated += not state.confirmed
        confirmed += state.confirmed
    assert checked >= 40 and adjoined >= 10 and truncated >= 10 and confirmed >= 10, (
        checked, adjoined, truncated, confirmed)


def test_each_lift_is_kept_across_a_shift(monkeypatch):
    # x*y^2 sorts between the generators and shifts the position of 3*x^2*y:
    # a relation that survives the shift keeps its lift, so the completion
    # keeps one lift per distinct relation f^u - f^v it meets
    relations, kept_states = set(), []
    real = sagbi._sagbi_round

    def recording(gens, order, kept):
        for u, _, ((v, _),) in kept.ideal.kernel():
            relations.add(tuple(tuple((g, e) for g, e in zip(gens, exps) if e) for exps in (u, v)))
        kept_states.append(kept)
        return real(gens, order, kept)

    monkeypatch.setattr(sagbi, "_sagbi_round", recording)
    gens = [2 * y - x, 3 * x**2 * y, -2 * x * y]
    state = sagbi_complete(gens, RevLex(), 5)
    assert state == reference_sagbi_complete(gens, RevLex(), 5)
    # the first witness x*y^2 went in at position 2, ahead of 3*x^2*y
    assert state.gens == (2 * y - x, -2 * x * y, x * y**2, 3 * x**2 * y, x * y**3, x * y**4)
    assert state.truncated_at == 5
    assert len({id(k) for k in kept_states}) == 1 and len(kept_states) == 4
    assert len(kept_states[0].lifts) == len(relations) > 0


def test_sagbi_complete_builds_one_toric_ideal(monkeypatch):
    built, calls = [], []

    class Counting(groebner._Presentation):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    def forbidden(*args, **kwargs):
        calls.append(args)
        raise AssertionError("a toric kernel reached the polynomial route")

    monkeypatch.setattr(sagbi, "_Presentation", Counting)
    for module in (groebner, sagbi):
        monkeypatch.setattr(module, "buchberger", forbidden)
        monkeypatch.setattr(module, "presentation_kernel", forbidden)
    state = sagbi_complete(list(F_INF), DegLex(), 8)
    assert len(state.gens) == 8 and len(built) == 1 and calls == []


def test_sagbi_complete_truncates():
    for cap in (4, 6, 8):
        state = sagbi_complete(list(F_INF), DegLex(), cap)
        assert not state.confirmed
        assert state.truncated_at == cap
        expected = tuple([m(1, 0)] + [m(1, k) for k in range(1, cap)])
        assert initial_algebra_gens(state) == tuple(
            sorted(expected, key=lambda mm: (mm.degree(), mm.exponents))
        )


def test_sagbi_complete_confirms():
    state = sagbi_complete([X**2, X * Y, Y**2, Y * Z], DegLex(), 5)
    assert state.confirmed and len(state.gens) == 4
    state2 = sagbi_complete(list(F_QUAD), Lex(), 4)
    assert state2.confirmed
    assert set(state2.gens) == set(F_QUAD)


def test_sagbi_complete_validates_cap():
    with pytest.raises(ValueError):
        sagbi_complete(list(F_INF), DegLex(), 2)  # below generator degree 3
    with pytest.raises(ValueError):
        sagbi_complete([x], DegLex(), 0)


@pytest.mark.parametrize("cap", [4.5, True, 4.0, "4", None])
def test_sagbi_complete_rejects_a_non_integer_cap(cap):
    # no state may be truncated at a float, and True is not a cap of 1
    with pytest.raises(ValueError, match=re.escape(f"degree cap must be an integer, got {cap!r}")):
        sagbi_complete(list(F_INF), DegLex(), cap)


def test_initial_algebra_gens_quadrics():
    assert initial_algebra_gens(sagbi_complete(list(F_QUAD), Lex(), 2)) == (
        m(0, 1, 1),
        m(0, 2, 0),
        m(1, 1, 0),
        m(2, 0, 0),
    )
    state = sagbi_complete([X, X * Y], DegLex(), 2)
    assert initial_algebra_gens(state) == (m(1, 0, 0), m(1, 1, 0))


def test_minimalize_semigroup():
    assert minimalize_semigroup([m(1, 0), m(2, 0), m(1, 1)]) == (m(1, 0), m(1, 1))
    assert minimalize_semigroup([m(2, 0), m(3, 0), m(5, 0)]) == (m(2, 0), m(3, 0))
    assert minimalize_semigroup([m(1, 2), m(1, 2)]) == (m(1, 2),)


def minimalize_against_all_others(monos):
    """Reference: test each monomial against every other distinct non-unit monomial."""
    unique = sorted(set(monos), key=lambda mm: (mm.degree(), mm.exponents))
    kept = []
    for mm in unique:
        others = [u for u in unique if u != mm and not u.is_one()]
        if mm.is_one():
            continue
        if others and factor_over_monomials(mm, others) is not None:
            continue
        kept.append(mm)
    return tuple(kept)


def test_minimalize_semigroup_matches_all_others_reference():
    rng = random.Random(211)
    dropped = 0
    for _ in range(600):
        n = rng.randint(1, 3)
        monos = [Monomial(tuple(rng.randint(0, 3) for _ in range(n)))
                 for _ in range(rng.randint(1, 6))]
        for _ in range(rng.randint(0, 2)):  # plant products of listed monomials
            a, b = rng.choice(monos), rng.choice(monos)
            monos.append(a.mul(b))
        got = minimalize_semigroup(monos)
        assert got == minimalize_against_all_others(monos)
        dropped += len(set(monos)) - len(got)
    assert dropped > 600  # the planted products make redundancy common


def test_kernel_initial_check_quadrics():
    report = kernel_initial_check(list(F_QUAD), WeightVector((3, 2, 1)), names=("T", "U", "V", "W"))
    assert report.ok
    assert report.image_weights == WeightVector((6, 5, 4, 3))
    T, U, V, W = report.kernel.ring.gens()
    assert report.kernel.gens == (U**2 - T * V - W**2,)
    assert report.initial_kernel.gens == (U**2 - T * V,)
    assert report.kernel_initial_forms == (U**2 - T * V,)


def test_kernel_initial_check_trivial_cases():
    # monomial generators: both kernels coincide
    rep = kernel_initial_check([X**2, X * Y, Y**2, Y * Z], WeightVector((3, 2, 1)))
    assert rep.ok and rep.kernel.gens == rep.initial_kernel.gens
    # algebraically independent generators: both kernels zero
    rep2 = kernel_initial_check([x + y, x - y], WeightVector((1, 1)))
    assert rep2.ok
    assert rep2.kernel.gens == () and rep2.initial_kernel.gens == ()


@pytest.mark.parametrize("call, error, message", [
    (lambda: subduct(x, [], DegLex()), ValueError, "need at least one subalgebra generator"),
    (lambda: subduct(x, [x, X], DegLex()), RingMismatchError, "generators from different rings"),
    (lambda: subduct(x, [x, R2.const(3)], DegLex()), ValueError, "subalgebra generators must be nonconstant"),
    (lambda: subduct(X, [x, y], DegLex()), RingMismatchError, "polynomial and generators from different rings"),
    (lambda: kernel_initial_check([x, y], WeightVector((1, 1, 1))), RingMismatchError,
     "weight arity does not match ring"),
])
def test_subalgebra_input_validation(call, error, message):
    with pytest.raises(error, match=message):
        call()
