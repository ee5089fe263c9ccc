import math
import random
from fractions import Fraction

import pytest

from conftest import random_homogeneous_poly, random_monomial
from initalg.groebner import buchberger, initial_ideal, initial_ideal_weight
from initalg.orders import DegLex, Lex, RevLex, WeightOrder, leading_monomial
from initalg.poly import Monomial, PolyRing, WeightVector
from initalg.simplex import EQ, GE, INFEASIBLE, LE, OPTIMAL, UNBOUNDED, linear_program
from initalg.weights import (
    InfeasibleComparisons,
    find_weight,
    represent_order_by_weight,
    represent_sagbi_by_weight,
    verify_weight,
)

R = PolyRing(("x", "y", "z"))
x, y, z = R.gens()


# --- simplex --------------------------------------------------------------


def test_lp_basic_optimum():
    # min x+y st x+2y >= 4, 3x+y >= 6, x,y >= 0 -> vertex (8/5, 6/5)
    res = linear_program([1, 1], [([1, 2], GE, 4), ([3, 1], GE, 6)])
    assert res.status == OPTIMAL
    assert res.x == (Fraction(8, 5), Fraction(6, 5))


def test_lp_infeasible_and_unbounded():
    assert linear_program([1], [([1], GE, 2), ([1], LE, 1)]).status == INFEASIBLE
    assert linear_program([-1], [([1], GE, 0)]).status == UNBOUNDED


def test_lp_equality_and_degenerate():
    res = linear_program([0, 0, 1], [([1, 1, 1], EQ, 1), ([1, -1, 0], EQ, 0)])
    assert res.status == OPTIMAL
    assert res.x == (Fraction(1, 2), Fraction(1, 2), Fraction(0))


def test_lp_solution_feasibility_random():
    rng = random.Random(61)
    for _ in range(120):
        n = rng.randint(1, 4)
        cons = []
        for _ in range(rng.randint(1, 5)):
            coeffs = [rng.randint(-3, 3) for _ in range(n)]
            sense = rng.choice([LE, GE, EQ])
            cons.append((coeffs, sense, rng.randint(-4, 4)))
        c = [rng.randint(0, 3) for _ in range(n)]  # nonnegative cost: never unbounded
        res = linear_program(c, cons)
        assert res.status in (OPTIMAL, INFEASIBLE)
        if res.status == OPTIMAL:
            for coeffs, sense, b in cons:
                val = sum(q * v for q, v in zip(coeffs, res.x))
                assert (sense == LE and val <= b) or (sense == GE and val >= b) or (sense == EQ and val == b)
            assert all(v >= 0 for v in res.x)


def _lex_reference(c, cons, then):
    """Each stage solved from a cold start, with earlier optima fixed by EQ rows."""
    cons = list(cons)
    for obj in (c, *then):
        res = linear_program(obj, cons)
        if res.status != OPTIMAL:
            return res.status, None
        cons.append((obj, EQ, sum(q * v for q, v in zip(obj, res.x))))
    return OPTIMAL, [row[2] for row in cons[len(cons) - 1 - len(then):]]


def test_lp_lexicographic_tail_matches_fixed_rows():
    rng = random.Random(83)
    statuses = set()
    for trial in range(300):
        n = rng.randint(1, 4)
        cons = [
            ([rng.randint(-3, 3) for _ in range(n)], rng.choice([LE, GE, EQ]), rng.randint(-4, 4))
            for _ in range(rng.randint(1, 5))
        ]
        c = [rng.randint(0, 2) for _ in range(n)]
        if trial % 2:  # every coordinate fixed: the optimum is a single point
            then = [[int(i == j) for i in range(n)] for j in rng.sample(range(n), n)]
        else:
            then = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(rng.randint(1, 3))]
        res = linear_program(c, cons, then=then)
        status, values = _lex_reference(c, cons, then)
        statuses.add(status)
        assert res.status == status
        if status != OPTIMAL:
            assert res.x is None
            continue
        assert [sum(q * v for q, v in zip(obj, res.x)) for obj in (c, *then)] == values
        for coeffs, sense, b in cons:
            val = sum(q * v for q, v in zip(coeffs, res.x))
            assert {LE: val <= b, GE: val >= b, EQ: val == b}[sense]
    assert statuses == {OPTIMAL, INFEASIBLE, UNBOUNDED}


def test_lp_rejects_objective_arity_mismatch():
    with pytest.raises(ValueError, match="objective arity"):
        linear_program([1, 1], [([1, 1], GE, 1)], then=[[1]])


# --- weight oracle --------------------------------------------------------


def m(*exps):
    return Monomial(exps)


def test_find_weight_chain():
    a = find_weight([(m(1, 0, 0), m(0, 1, 0)), (m(0, 1, 0), m(0, 0, 1))])
    assert a == WeightVector((3, 2, 1))
    assert a.entries[0] > a.entries[1] > a.entries[2]


def test_find_weight_empty_is_ones():
    assert find_weight([], n_vars=4) == WeightVector.ones(4)
    with pytest.raises(ValueError):
        find_weight([])


def test_find_weight_rejects_equal_pair():
    with pytest.raises(ValueError):
        find_weight([(m(1, 0, 0), m(1, 0, 0))])


def test_find_weight_infeasible_certificate():
    pairs = [(m(1, 0), m(0, 1)), (m(0, 1), m(1, 0))]
    with pytest.raises(InfeasibleComparisons) as ei:
        find_weight(pairs)
    cert = ei.value.certificate
    assert cert == (1, 1)
    # independent certificate check: nonnegative, nonzero, sums diffs to <= 0
    assert all(c >= 0 for c in cert) and any(c > 0 for c in cert)
    diffs = [tuple(p - q for p, q in zip(mm.exponents, nn.exponents)) for mm, nn in pairs]
    combo = [sum(c * d[j] for c, d in zip(cert, diffs)) for j in range(2)]
    assert all(v <= 0 for v in combo)


def test_find_weight_gb_pair_system():
    # leading vs trailing monomials of the lex GB of (x^2-y, x*y-z)
    pairs = [
        (m(2, 0, 0), m(0, 1, 0)),
        (m(1, 1, 0), m(0, 0, 1)),
        (m(1, 0, 1), m(0, 2, 0)),
        (m(0, 3, 0), m(0, 0, 2)),
    ]
    a = find_weight(pairs)
    assert verify_weight(a, pairs)


def test_find_weight_deterministic_and_scalable():
    rng = random.Random(67)
    for _ in range(30):
        pairs = []
        for _ in range(rng.randint(1, 4)):
            p, q = random_monomial(rng, 3), random_monomial(rng, 3)
            if p != q:
                pairs.append((p, q))
        if not pairs:
            continue
        try:
            a = find_weight(pairs)
        except InfeasibleComparisons as ei:
            cert = ei.value if False else ei
            diffs = [
                tuple(pp - qq for pp, qq in zip(mm.exponents, nn.exponents))
                for mm, nn in cert.pairs
            ]
            combo = [sum(c * d[j] for c, d in zip(cert.certificate, diffs)) for j in range(3)]
            assert all(v <= 0 for v in combo)
            assert all(c >= 0 for c in cert.certificate) and any(cert.certificate)
            continue
        assert verify_weight(a, pairs)
        assert find_weight(pairs) == a  # deterministic
        doubled = WeightVector(tuple(2 * e for e in a.entries))
        assert verify_weight(doubled, pairs)  # scaling validator property


def _weight_chain(diffs, n):
    """find_weight as n + 1 cold LPs: minimal sum, then each entry with the earlier fixed."""
    units = [[int(i == j) for i in range(n)] for j in range(n)]
    base = [(g, GE, 1 - sum(g)) for g in diffs]
    first = linear_program([1] * n, base)
    if first.status == INFEASIBLE:
        return None
    fixed = [([1] * n, EQ, sum(first.x))]
    for j in range(n):
        fixed.append((units[j], EQ, linear_program(units[j], base + fixed).x[j]))
    return [1 + row[2] for row in fixed[1:]]


def _farkas_chain(diffs):
    """The certificate as m cold LPs, each entry minimized with the earlier fixed."""
    m = len(diffs)
    cons = [([d[j] for d in diffs], LE, 0) for j in range(len(diffs[0]))]
    cons.append(([1] * m, EQ, 1))
    for j in range(m):
        unit = [int(i == j) for i in range(m)]
        cons.append((unit, EQ, linear_program(unit, cons).x[j]))
    return [row[2] for row in cons[-m:]]


def _integral(values):
    values = [Fraction(v) for v in values]
    scale = math.lcm(*(v.denominator for v in values))
    ints = [int(v * scale) for v in values]
    return tuple(v // math.gcd(*ints) for v in ints)


def test_find_weight_matches_lp_chain():
    rng = random.Random(89)
    outcomes = set()
    for _ in range(120):
        n = rng.randint(1, 4)
        pairs = []
        for _ in range(rng.randint(1, 6)):
            p, q = random_monomial(rng, n), random_monomial(rng, n)
            if p != q:
                pairs.append((p, q))
        if not pairs:
            continue
        diffs = [tuple(a - b for a, b in zip(p.exponents, q.exponents)) for p, q in pairs]
        expected = _weight_chain(diffs, n)
        outcomes.add(expected is None)
        if expected is None:
            with pytest.raises(InfeasibleComparisons) as ei:
                find_weight(pairs)
            assert ei.value.certificate == _integral(_farkas_chain(diffs))
        else:
            assert find_weight(pairs).entries == _integral(expected)
    assert outcomes == {True, False}


def test_represent_order_by_weight_lex_round_trip():
    gens = [x**2 - y, x * y - z]
    a = represent_order_by_weight(gens, Lex())
    forms = initial_ideal_weight(gens, a, Lex())
    assert all(len(f.terms) == 1 for f in forms)
    regenerated = initial_ideal(list(forms), WeightOrder(a, Lex()))
    assert regenerated.mingens == initial_ideal(gens, Lex()).mingens


def test_represent_order_by_weight_monomial_ideal():
    assert represent_order_by_weight([x**2, y * z], DegLex()) == WeightVector.ones(3)


def test_represent_order_by_weight_revlex_three_term_poly():
    Q = PolyRing(("x1", "x2", "x3", "x4"))
    x1, x2, x3, x4 = Q.gens()
    gens = [x1 + x2 * x4 + x3**2]
    a = represent_order_by_weight(gens, RevLex())
    assert 2 * a.entries[2] > a.entries[1] + a.entries[3] > a.entries[0]
    forms = initial_ideal_weight(gens, a, RevLex())
    assert forms == (x3**2,)


def test_represent_order_round_trip_random():
    rng = random.Random(71)
    done = 0
    for _ in range(50):
        order = rng.choice([Lex(), DegLex(), RevLex(), Lex(perm=(1, 2, 0))])
        gens = [
            random_homogeneous_poly(rng, R, rng.randint(1, 3)) for _ in range(rng.randint(1, 2))
        ]
        a = represent_order_by_weight(gens, order)
        gb = buchberger(gens, order)
        for g in gb:
            lead = leading_monomial(g, order)
            assert all(
                a.degree(lead) > a.degree(t.mono) for t in g.terms if t.mono != lead
            )
        regenerated = initial_ideal(list(initial_ideal_weight(gens, a, order)), WeightOrder(a, order))
        assert regenerated.mingens == gb.initial_ideal().mingens
        done += 1
    assert done == 50


def test_represent_sagbi_by_weight():
    F = [R.poly("x^2 - z^2"), R.poly("x*y"), R.poly("y^2"), R.poly("y*z")]
    a = represent_sagbi_by_weight(F, Lex())
    assert 2 * a.entries[0] > 2 * a.entries[2]
    for f in F:
        lead = leading_monomial(f, Lex())
        assert all(a.degree(lead) > a.degree(t.mono) for t in f.terms if t.mono != lead)
    R2 = PolyRing(("x", "y"))
    assert represent_sagbi_by_weight(R2.gens(), Lex()) == WeightVector.ones(2)
    one_pair = represent_sagbi_by_weight([R2.poly("x + y")], Lex())
    assert one_pair == WeightVector((2, 1))
