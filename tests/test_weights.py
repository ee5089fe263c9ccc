import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from conftest import random_homogeneous_poly, random_monomial
from initalg.groebner import buchberger, initial_ideal, initial_ideal_weight
from initalg.orders import DegLex, Lex, RevLex, WeightOrder, leading_monomial
from initalg.poly import Monomial, PolyRing, WeightVector
from initalg import weights
from initalg.simplex import (
    EQ,
    GE,
    INFEASIBLE,
    LE,
    OPTIMAL,
    UNBOUNDED,
    LPResult,
    _bareiss,
    linear_program,
)
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
    assert res.pivots == reference_linear_program([1, 1], [([1, 2], GE, 4), ([3, 1], GE, 6)])[2]


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
    # the constraints are checked the same way, and so is each sense
    with pytest.raises(ValueError, match="constraint arity"):
        linear_program([1, 1], [([1], GE, 1)])
    with pytest.raises(ValueError, match="bad sense"):
        linear_program([1, 1], [([1, 1], "<", 1)])


# --- test-local reference: the simplex on a Fraction tableau ---------------


def reference_linear_program(c, constraints, then=(), stats=None):
    """The two-phase Bland simplex on a `Fraction` tableau that `linear_program`
    must match pivot for pivot: the same column layout, entering and leaving
    rules and stages.  Returns (status, x, pivots); `stats`, a Counter if given,
    counts rows dropped as redundant and negative drive-out pivots."""
    n = len(c)
    objectives = [[Fraction(v) for v in obj] for obj in (c, *then)]
    rows, senses, rhs = [], [], []
    for coeffs, sense, b in constraints:
        row = [Fraction(v) for v in coeffs]
        b = Fraction(b)
        if b < 0:
            row = [-v for v in row]
            b = -b
            sense = {LE: GE, GE: LE, EQ: EQ}[sense]
        rows.append(row)
        senses.append(sense)
        rhs.append(b)
    m = len(rows)
    slack_col, art_col = {}, {}
    col = n
    for i, s in enumerate(senses):
        if s != EQ:
            slack_col[i] = col
            col += 1
    for i, s in enumerate(senses):
        if s in (GE, EQ):
            art_col[i] = col
            col += 1
    width = col
    T = [[Fraction(0)] * (width + 1) for _ in range(m)]
    basis = [0] * m
    for i in range(m):
        T[i][:n] = rows[i]
        T[i][width] = rhs[i]
        if senses[i] == LE:
            T[i][slack_col[i]] = Fraction(1)
            basis[i] = slack_col[i]
        elif senses[i] == GE:
            T[i][slack_col[i]] = Fraction(-1)
            T[i][art_col[i]] = Fraction(1)
            basis[i] = art_col[i]
        else:
            T[i][art_col[i]] = Fraction(1)
            basis[i] = art_col[i]
    artificial = set(art_col.values())
    pivots = [0]

    def pivot(obj, i, j):
        piv = T[i][j]
        T[i] = [v / piv for v in T[i]]
        for k in range(len(T)):
            if k != i and T[k][j] != 0:
                coef = T[k][j]
                T[k] = [a - coef * b for a, b in zip(T[k], T[i])]
        if obj[j] != 0:
            coef = obj[j]
            for idx in range(len(obj)):
                obj[idx] -= coef * T[i][idx]
        basis[i] = j
        pivots[0] += 1

    def pivot_loop(obj, allowed):
        while True:
            enter = next((j for j in allowed if obj[j] < 0), None)
            if enter is None:
                return OPTIMAL
            best_i = best_ratio = None
            for i in range(len(T)):
                if T[i][enter] > 0:
                    ratio = T[i][-1] / T[i][enter]
                    if (
                        best_ratio is None
                        or ratio < best_ratio
                        or (ratio == best_ratio and basis[i] < basis[best_i])
                    ):
                        best_i, best_ratio = i, ratio
            if best_i is None:
                return UNBOUNDED
            pivot(obj, best_i, enter)

    if artificial:
        obj = [Fraction(int(j in artificial)) for j in range(width)] + [Fraction(0)]
        for i in range(m):
            if basis[i] in artificial:
                obj = [a - b for a, b in zip(obj, T[i])]
        assert pivot_loop(obj, range(width)) == OPTIMAL
        if obj[width] != 0:
            return INFEASIBLE, None, pivots[0]
        for i in range(m):
            if basis[i] in artificial:
                j = next((j for j in range(width) if j not in artificial and T[i][j] != 0), None)
                if j is not None:
                    if stats is not None and T[i][j] < 0:
                        stats["negative drive-out"] += 1
                    pivot([Fraction(0)] * (width + 1), i, j)
        keep = [i for i in range(m) if basis[i] not in artificial]
        if stats is not None:
            stats["redundant row"] += m - len(keep)
        T[:] = [T[i] for i in keep]
        basis[:] = [basis[i] for i in keep]
        for row in T:
            for j in artificial:
                row[j] = Fraction(0)
    allowed = [j for j in range(width) if j not in artificial]
    for cost in objectives:
        obj = cost + [Fraction(0)] * (width + 1 - n)
        for i in range(len(T)):
            coef = obj[basis[i]]
            if coef != 0:
                obj = [a - coef * b for a, b in zip(obj, T[i])]
        if pivot_loop(obj, allowed) == UNBOUNDED:
            return UNBOUNDED, None, pivots[0]
        allowed = [j for j in allowed if obj[j] == 0]
    x = [Fraction(0)] * n
    for i in range(len(T)):
        if basis[i] < n:
            x[basis[i]] = T[i][width]
    return OPTIMAL, tuple(x), pivots[0]


def _random_entry(rng, rational):
    if rational and rng.random() < 0.3:
        return Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return rng.randint(-3, 3)


def _random_lp(rng):
    """A small LP of every sense, sometimes rational, sometimes with redundant rows;
    half of them have the right-hand sides of a feasible point."""
    n = rng.randint(1, 5)
    rational = rng.random() < 0.4
    point = [rng.randint(0, 2) for _ in range(n)] if rng.random() < 0.5 else None
    cons = []
    for _ in range(rng.randint(1, 5)):
        coeffs = [_random_entry(rng, rational) for _ in range(n)]
        sense = rng.choice([LE, GE, EQ])
        if point is None:
            b = _random_entry(rng, rational)
        else:
            b = sum(a * v for a, v in zip(coeffs, point))
            b += {LE: 1, GE: -1, EQ: 0}[sense] * rng.randint(0, 2)
        cons.append((coeffs, sense, b))
    equalities = [row for row in cons if row[1] == EQ]
    if equalities and rng.random() < 0.3:  # a multiple of an equality row: redundant
        coeffs, _, b = rng.choice(equalities)
        k = rng.choice([-2, -1, 2, Fraction(1, 2)])
        cons.insert(rng.randint(0, len(cons)), ([k * v for v in coeffs], EQ, k * b))
    c = [_random_entry(rng, rational) for _ in range(n)]
    then = [[_random_entry(rng, rational) for _ in range(n)] for _ in range(rng.randint(0, 3))]
    return c, cons, then


def simplex_differential_sweep(seed, trials):
    """`linear_program` against the reference on `trials` seeded LPs; returns a
    Counter of statuses and of the reference's redundant rows and negative
    drive-out pivots, and the list of inputs where the two differ."""
    rng = random.Random(seed)
    stats = Counter()
    mismatches = []
    for _ in range(trials):
        c, cons, then = _random_lp(rng)
        if any(type(v) is Fraction for row in cons for v in (*row[0], row[2])):
            stats["rational"] += 1
        expected = reference_linear_program(c, cons, then, stats)
        res = linear_program(c, cons, then=then)
        stats[res.status] += 1
        if (res.status, res.x, res.pivots) != expected:
            mismatches.append((c, cons, then))
    return stats, mismatches


def test_simplex_matches_fraction_reference():
    stats, mismatches = simplex_differential_sweep(seed=97, trials=1500)
    assert mismatches == []
    assert stats[OPTIMAL] > 0 and stats[INFEASIBLE] > 0 and stats[UNBOUNDED] > 0
    assert stats["redundant row"] > 0 and stats["negative drive-out"] > 0
    assert stats["rational"] > 0


def test_simplex_negative_drive_out_pivot():
    # phase 1 ends with the artificial of the first row basic at zero and a -2
    # as the first nonzero of its row; driving it out pivots on that entry
    c = [0, 1, 0]
    cons = [([-2, -1, 0], GE, 0), ([2, 1, 2], GE, 0), ([0, 2, 1], EQ, 2)]
    stats = Counter()
    expected = reference_linear_program(c, cons, stats=stats)
    assert stats["negative drive-out"] == 1
    res = linear_program(c, cons)
    assert (res.status, res.x, res.pivots) == expected
    assert res.x == (0, 0, 2)


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
    with pytest.raises(ValueError, match="equal monomials"):
        find_weight([(m(1, 0, 0), m(1, 0, 0))])
    # a pair of another arity than the first is refused as well
    with pytest.raises(ValueError, match="arity mismatch"):
        find_weight([(m(1, 0, 0), m(0, 1, 0)), (m(1, 0), m(0, 1))])


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


def _lp_returning(*results):
    """A stand-in for `linear_program` that returns the given results in turn."""
    results = iter(results)
    return lambda c, constraints, then=(): next(results)


@pytest.mark.parametrize("x", [(Fraction(-1), Fraction(0), Fraction(1)), (0, 0, 0)])
def test_find_weight_rejects_a_wrong_lp_optimum(monkeypatch, x):
    # (0, 1, 2) is not strictly positive; (1, 1, 1) does not separate the chain
    monkeypatch.setattr(weights, "linear_program", _lp_returning(LPResult(OPTIMAL, x, 0)))
    with pytest.raises(RuntimeError, match="does not realize"):
        find_weight([(m(1, 0, 0), m(0, 1, 0)), (m(0, 1, 0), m(0, 0, 1))])


@pytest.mark.parametrize("x", [(Fraction(-1), Fraction(2)), (0, 0), (2, 1)])
def test_find_weight_rejects_a_wrong_farkas_certificate(monkeypatch, x):
    # negative, zero, and 2*(1, -1) + (-1, 1) = (1, -1) not <= 0
    lp = _lp_returning(LPResult(INFEASIBLE, None, 0), LPResult(OPTIMAL, x, 0))
    monkeypatch.setattr(weights, "linear_program", lp)
    with pytest.raises(RuntimeError, match="certifies nothing"):
        find_weight([(m(1, 0), m(0, 1)), (m(0, 1), m(1, 0))])


def test_bareiss_division_is_checked():
    # D = 4 does not divide 2*(1, 3): a tableau that lost its invariant
    with pytest.raises(RuntimeError, match="inexact Bareiss division"):
        _bareiss([1, 3], 2, 0, [5, 7], 4)


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
