import contextlib
import math
import random
import re
import signal
from collections import Counter, defaultdict
from fractions import Fraction

import pytest

from conftest import random_poly
from initalg import groebner, sagbi
from initalg.groebner import presentation_kernel
from initalg.orders import DegLex, Lex, RevLex, WeightOrder, leading_monomial, leading_term, monic, packing
from initalg.poly import Monomial, PolyRing, Polynomial, RingMismatchError, WeightVector, power_product
from initalg.sagbi import (
    SagbiState,
    SubductionResult,
    SubductionStep,
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


def depth_first_factor(target, monos):
    """The factor search without a memo, kept as the reference for
    `factor_over_monomials` and `_Kept.factor`: depth-first, large exponents
    first, so the lexicographically largest solution."""

    def rec(i, remaining):
        if not any(remaining):
            return (0,) * (len(monos) - i)
        if i == len(monos):
            return None
        exps = monos[i].exponents
        for c in range(min(r // e for r, e in zip(remaining, exps) if e), -1, -1):
            found = rec(i + 1, tuple(r - c * e for r, e in zip(remaining, exps)))
            if found is not None:
                return (c,) + found
        return None

    return rec(0, target.exponents)


def fraction_subduct_with_certificate(f, gens, order):
    """The subduction loop on `Fraction` polynomials, kept as the reference
    for the packed loop of `subduct_with_certificate`."""
    inis = [leading_term(g, order) for g in gens]
    steps, work = [], f
    while not work.is_zero():
        t = leading_term(work, order)
        c = depth_first_factor(t.mono, [it.mono for it in inis])
        if c is None:
            break
        coeff = t.coeff / math.prod(it.coeff**e for it, e in zip(inis, c))
        steps.append(SubductionStep(coeff, c))
        work = work - coeff * power_product(f.ring, gens, c)
    return SubductionResult(work, tuple(steps))


def test_factor_over_monomials():
    assert factor_over_monomials(m(1, 3), [m(1, 0), m(1, 1), m(1, 2)]) is None
    assert factor_over_monomials(m(2, 2), [m(1, 0), m(1, 1), m(1, 2)]) in [(0, 2, 0), (1, 0, 1)]
    # lexicographically largest exponent vector is preferred
    assert factor_over_monomials(m(2, 2), [m(1, 0), m(1, 1), m(1, 2)]) == (1, 0, 1)
    assert factor_over_monomials(m(0, 0), [m(1, 0)]) == (0,)
    assert factor_over_monomials(m(3, 0), [m(2, 0)]) is None


def test_factor_search_depth_does_not_grow_with_the_leads():
    # an exponent 0 moves on to the next lead in a loop, not a level of
    # recursion, so 1100 leads that do not divide the target, or are passed
    # over, stay far below the recursion limit
    assert factor_over_monomials(m(1, 0), [m(2, 0)] * 1100) is None
    assert factor_over_monomials(m(0, 1), [m(1, 0)] * 1100 + [m(0, 1)]) == (0,) * 1100 + (1,)
    assert factor_over_monomials(m(3, 0), [m(2, 0)] * 1100 + [m(1, 0)]) == (1,) + (0,) * 1099 + (1,)
    # the degree-1100 monomials are minimal: none is a product of others
    monos = [m(k, 1100 - k) for k in range(1101)]
    assert minimalize_semigroup(monos) == tuple(monos)


def test_memoized_factor_search_equals_depth_first_search():
    # one memo per _Kept while its leads stand: it is keyed by position, so
    # an insertion empties it, and the answers after it are still exact
    rng = random.Random(307)
    cases = Counter()
    for _ in range(120):
        ring = (R2, R3)[rng.randint(0, 1)]
        order = (Lex(), DegLex(), RevLex())[rng.randint(0, 2)]
        monos = {Monomial(tuple(rng.randint(0, 3) for _ in range(ring.n))) for _ in range(rng.randint(2, 5))}
        gens = [Polynomial.from_dict(ring, {mm: 1}) for mm in monos if not mm.is_one()]
        kept = sagbi._Kept(sagbi._sort_gens(gens, order), order)
        for round_ in range(2):
            leads = [leading_monomial(g, order) for g in kept.gens]
            targets = [Monomial((0,) * ring.n)]
            for _ in range(12):
                t = Monomial(tuple(rng.randint(0, 7) for _ in range(ring.n)))
                for _ in range(rng.randint(0, 3)):  # plant products of the leads
                    t = t.mul(rng.choice(leads))
                targets.append(t)
            for t in targets:
                got = kept.factor(t.exponents)
                assert got == depth_first_factor(t, leads) == factor_over_monomials(t, leads), (t, leads)
                cases["constant" if t.is_one() else "none" if got is None else "factored"] += 1
            if round_:
                break
            new = Monomial(tuple(rng.randint(0, 3) for _ in range(ring.n)))
            if new.is_one() or new in leads:
                break
            assert kept.memo
            kept.insert(Polynomial.from_dict(ring, {new: 1}))
            pos = kept.gens.index(Polynomial.from_dict(ring, {new: 1}))
            assert kept.memo == {}
            cases["inserted mid-list"] += 0 < pos < len(leads)
    assert cases["constant"] >= 200 and cases["none"] >= 1000 and cases["factored"] >= 500, cases
    assert cases["inserted mid-list"] >= 30, cases


def test_subduct_examples():
    assert subduct(x * y**3, list(F_INF), DegLex()) == x * y**3
    assert subduct((x + y) * (x * y), list(F_INF), DegLex()).is_zero()
    assert subduct(x**2, [x], DegLex()).is_zero()
    assert subduct(R2.const(5), [x], DegLex()).is_zero()  # constants lie in the algebra


def test_powers_past_the_recursion_limit():
    # F^e is built in a loop from the highest power kept, so an exponent
    # beyond Python's default recursion limit of 1000 frames still works
    for e in (1000, 1500):
        f = x**e + 3 * y
        assert subduct_with_certificate(f, [x], Lex()) == fraction_subduct_with_certificate(f, [x], Lex())
    # the kernel relation Y1^1000 - Y2 lifts to x^1000 - (x^1000 + y) = -y
    gens = [x, x**1000 + y]
    assert sagbi_test(gens, Lex()) == polynomial_kernel_sagbi_test(gens, Lex()) == (False, (y,))


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


def test_subduction_equals_fraction_reference():
    # remainder and every step coefficient of the packed loop against the
    # Fraction loop, with rational coefficients and negative leads
    rng = random.Random(331)
    checked = members = 0
    for trial in range(150):
        ring = (R2, R3)[trial % 2]
        order = (Lex(), DegLex(), RevLex(), WeightOrder(WeightVector((1, 2, 3)[:ring.n]), Lex()))[trial % 4]
        gens = [random_poly(rng, ring, max_terms=3, max_exp=2, max_den=3) for _ in range(rng.randint(1, 3))]
        gens = [g for g in gens if any(not t.mono.is_one() for t in g.terms)]
        if not gens:
            continue
        f = random_poly(rng, ring, max_terms=2, max_exp=2, max_den=4)
        for g in gens:
            f = f + g ** rng.randint(0, 3) * rng.choice([Fraction(-2, 3), 1, Fraction(5, 2)])
        got = subduct_with_certificate(f, gens, order)
        assert got == fraction_subduct_with_certificate(f, gens, order), (f, gens, order)
        assert got.replay(gens) == f
        checked += 1
        members += got.remainder.is_zero()
    assert checked >= 130 and members >= 20, (checked, members)
    # the second step scales by 25 and first divides out the content 4 of -4*x^2
    f, gens = 9 * x**2 * y**2 - 4 * x**2, [4 * x * y, -5 * x - 6 * y]
    assert subduct_with_certificate(f, gens, Lex()) == fraction_subduct_with_certificate(f, gens, Lex())


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
        rem = fraction_subduct_with_certificate(lift, gens, order).remainder
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
    `presentation_kernel`, every lift by `power_product` and subducted on
    `Fraction` polynomials, through `polynomial_kernel_sagbi_test`."""
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


class _Late(Exception):
    pass


@contextlib.contextmanager
def _alarm(seconds):
    def late(signum, frame):
        raise _Late

    previous = signal.signal(signal.SIGALRM, late)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def sagbi_differential_sweep(seed, trials, caps=(6, 10), alarm_s=10.0):
    """`sagbi_complete` against `reference_sagbi_complete` on seeded random
    algebras (`random_completion_input`) in 2 and 3 variables, under lex,
    deglex and revlex, with a random cap in `caps`.  Each pair of runs is
    under an alarm of `alarm_s` seconds; an input that rings it is counted
    as late and not compared.  Returns (stats, mismatches), mismatches as
    (gens, order, cap)."""
    rng = random.Random(seed)
    stats, mismatches = Counter(), []
    for trial in range(trials):
        order = (Lex(), DegLex(), RevLex())[trial % 3]
        ring = (R2, R3)[trial // 6 % 2]
        gens = random_completion_input(rng, ring, trial)
        if not gens or max(g.total_degree() for g in gens) > 4:
            continue
        cap = rng.randint(*caps)
        try:
            with _alarm(alarm_s):
                state = sagbi_complete(gens, order, cap)
                same = state == reference_sagbi_complete(gens, order, cap)
        except _Late:
            stats["late"] += 1
            continue
        stats["compared"] += 1
        if not same:
            mismatches.append((gens, order, cap))
        stats["adjoined"] += len(state.gens) > len(set(gens))
        stats["truncated"] += not state.confirmed
        stats["confirmed"] += state.confirmed
    return stats, mismatches


def test_kept_lifts_equal_rebuilt_completion():
    # products, results and the factor memo kept across rounds must give
    # the completion that rebuilds the kernel and every lift in each round
    stats, mismatches = sagbi_differential_sweep(149, 72, caps=(4, 8))
    assert mismatches == []
    assert stats["compared"] >= 40 and stats["adjoined"] >= 10, stats
    assert stats["truncated"] >= 10 and stats["confirmed"] >= 10, stats


def test_a_lift_that_subducted_to_zero_is_not_subducted_again(monkeypatch):
    # on x + y, x*y, x*y^2 (deglex, cap 8) no adjoined lead divides a lead
    # that a subduction to 0 met, so each of the 13 repeats of such a lift
    # keeps its result; every kept result is the one a fresh subduction gives
    history = defaultdict(list)
    subductions = []
    real_witness, real_subduct = sagbi._Kept.witness, sagbi._Kept.subduct

    def counting(kept, *args):
        subductions.append(args)
        return real_subduct(kept, *args)

    def checking(kept, u, v):
        before = len(subductions)
        w = real_witness(kept, u, v)
        key = (kept._key(u), kept._key(v))
        history[key].append((len(subductions) > before, w))
        kept_result = kept.results.pop(key)
        assert real_witness(kept, u, v) == w  # subducted afresh, the result dropped
        kept.results[key] = kept_result
        return w

    monkeypatch.setattr(sagbi._Kept, "subduct", counting)
    monkeypatch.setattr(sagbi._Kept, "witness", checking)
    state = sagbi_complete(list(F_INF), DegLex(), 8)
    assert len(state.gens) == 8
    # each repeat: (subducted again, the result before)
    repeats = [(again, h[k - 1][1]) for h in history.values() for k, (again, _) in enumerate(h) if k]
    assert len(history) == 34 and len(repeats) == 22
    assert [before for again, before in repeats if not again] == [None] * 13
    assert all(before is not None for again, before in repeats if again)


def test_a_kept_result_is_checked_against_every_lead_adjoined_since():
    # the lift (x*y)^2 - (x + y)*(x*y^2) = -x*y^3 meets only the lead x*y^3;
    # of the two generators adjoined before it is met again, the first has
    # that lead, so its witness x*y^3 must not be kept
    kept = sagbi._Kept(sagbi._sort_gens(list(F_INF), DegLex()), DegLex())
    assert sagbi._sagbi_round(kept) == (False, (x * y**3,))
    (key, (_, met, w)), = [item for item in kept.results.items() if item[1][2] is not None]
    assert met == [(1, 3)] and w == x * y**3
    kept.insert(x * y**3)
    kept.insert(x**9 * y**2 + y)
    u, v = ([dict(part).get(s, 0) for s in kept.serials] for part in key)
    assert kept.witness(u, v) is None


def test_a_lift_that_subducted_to_zero_is_subducted_again(monkeypatch):
    # a subduction to 0 over G need not stay one over a larger set, since the
    # lexicographically largest factorization of a lead can change: here a
    # lift goes to 0 in one round and leaves the witness that the next round
    # adjoins, so a completion that skipped every lift once at 0 would differ
    # from the reference
    history = defaultdict(list)
    real = sagbi._Kept.witness

    def recording(kept, u, v):
        w = real(kept, u, v)
        history[kept._key(u), kept._key(v)].append(w)
        return w

    monkeypatch.setattr(sagbi._Kept, "witness", recording)
    gens = [-5 * x**2 * y - 4 * y, -3 * x * y, -2 * x**2 * y**2 - x + 4 * y]
    state = sagbi_complete(gens, DegLex(), 6)
    assert state == reference_sagbi_complete(gens, DegLex(), 6)
    revived = {w for h in history.values() for k, w in enumerate(h) if w is not None and None in h[:k]}
    assert revived & set(state.gens)


def test_completion_wider_than_the_first_packing(monkeypatch):
    # products outgrow the 8-bit fields the generators' exponents choose
    # (x^7 to the 60th is x^420), so the kept dicts are repacked wider
    widths = []
    real = sagbi._Kept._use

    def recording(kept, new):
        widths.append(new.bits)
        return real(kept, new)

    monkeypatch.setattr(sagbi._Kept, "_use", recording)
    for gens, order, cap in [([x**7 + y, x**60], DegLex(), 60), ([x**9 - y, x**31 + y**2], RevLex(), 40)]:
        widths.clear()
        state = sagbi_complete(gens, order, cap)
        assert widths == [16]
        monkeypatch.setattr(sagbi._Kept, "_use", real)  # the reference subducts on Fractions
        assert state == reference_sagbi_complete(gens, order, cap)
        monkeypatch.setattr(sagbi._Kept, "_use", recording)
    # a repack keeps every product and every kept result: the round after it
    # is the round before it, and so it is with the kept results dropped,
    # when it subducts every lift again from the repacked products
    kept = sagbi._Kept(sagbi._sort_gens(list(F_QUAD), DegLex()), DegLex())
    before = sagbi._sagbi_round(kept)
    old, products, results = kept.packing, dict(kept.products), dict(kept.results)
    kept._use(packing(DegLex(), 3, 16))
    assert len(products) > 1 and results and kept.results == results
    assert {key: {old.unpack(w): c for w, c in p.items()} for key, p in products.items()} == {
        key: {kept.packing.unpack(w): c for w, c in p.items()} for key, p in kept.products.items()}
    assert sagbi._sagbi_round(kept) == before
    kept.results.clear()
    assert sagbi._sagbi_round(kept) == before and kept.results.keys() == results.keys()
    # certificates replay on exponents past the first packing, and an input
    # wider than the generators' packing widens it before the first step
    gens = [x**7 + y, x**60, 3 * x * y**2]
    for f in [(x**7 + y) ** 60 - x**420 + 5 * x**60 * (3 * x * y**2) ** 3, x**300 * y**40 + x**7]:
        widths.clear()
        res = subduct_with_certificate(f, gens, DegLex())
        assert widths and res.replay(gens) == f
        assert res == fraction_subduct_with_certificate(f, gens, DegLex())


def test_each_lift_is_kept_across_a_shift(monkeypatch):
    # x*y^2 sorts between the generators and shifts the position of 3*x^2*y:
    # a relation that survives the shift keeps its result and its products,
    # so the completion keeps one result per distinct relation f^u - f^v it
    # meets, and the two products of each; the lift itself is not kept
    relations, kept_states = set(), []
    real = sagbi._sagbi_round

    def recording(kept):
        for u, _, ((v, _),) in kept.ideal.kernel():
            relations.add(tuple(tuple((g, e) for g, e in zip(kept.gens, exps) if e) for exps in (u, v)))
        kept_states.append(kept)
        return real(kept)

    monkeypatch.setattr(sagbi, "_sagbi_round", recording)
    gens = [2 * y - x, 3 * x**2 * y, -2 * x * y]
    state = sagbi_complete(gens, RevLex(), 5)
    assert state == reference_sagbi_complete(gens, RevLex(), 5)
    # the first witness x*y^2 went in at position 2, ahead of 3*x^2*y
    assert state.gens == (2 * y - x, -2 * x * y, x * y**2, 3 * x**2 * y, x * y**3, x * y**4)
    assert state.truncated_at == 5
    assert len({id(k) for k in kept_states}) == 1 and len(kept_states) == 4
    kept = kept_states[0]
    assert len(kept.results) == len(relations) > 0
    assert all(part in kept.products for key in kept.results for part in key)


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
