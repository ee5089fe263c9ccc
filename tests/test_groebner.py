import heapq
import pickle
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from conftest import random_homogeneous_poly, random_monomial, random_poly, sample_orders
from initalg import groebner, orders
from initalg.cli import cmd_gb, parse_problem
from initalg.family import homogenize_ideal
from initalg.groebner import (
    MonomialIdeal,
    ReducedGroebnerBasis,
    StepLimitExceeded,
    buchberger,
    divide,
    eliminate,
    initial_ideal,
    initial_ideal_weight,
    normal_form,
    presentation_kernel,
    quadratic_initial_certificate,
    s_polynomial,
    toric_kernel,
)
from initalg.orders import (
    DegLex,
    EliminationOrder,
    ExtendedOrder,
    Lex,
    RevLex,
    WeightOrder,
    leading_monomial,
    leading_term,
    monic,
    packing,
)
from initalg.poly import (
    Monomial,
    PolyRing,
    Polynomial,
    RingMismatchError,
    Term,
    WeightVector,
    ZeroPolynomialError,
    format_poly,
    substitute,
)
from initalg.sagbi import sagbi_complete
from initalg.weights import comparison_pairs, find_weight, represent_order_by_weight

R = PolyRing(("x", "y", "z"))
x, y, z = R.gens()
R2 = PolyRing(("x", "y"))


# lex blow-up: under degree-first pair selection its coefficients reach
# 132,932 bits by the 13th reduction; the basis has 3 elements of degree <= 16
BLOWUP = ["x^2*y*z - 4*x*y^2*z - 3*x^2*z + y^2", "4*x*y^2 - 3*y^2 + 4", "-5*x^2*y^2 - 4*y^2*z^2"]
KATSURA4 = ["u0^2 + 2*u1^2 + 2*u2^2 + 2*u3^2 - u0", "2*u0*u1 + 2*u1*u2 + 2*u2*u3 - u1",
            "2*u0*u2 + u1^2 + 2*u1*u3 - u2", "u0 + 2*u1 + 2*u2 + 2*u3 - 1"]
KATSURA5 = ["u0^2 + 2*u1^2 + 2*u2^2 + 2*u3^2 + 2*u4^2 - u0",
            "2*u0*u1 + 2*u1*u2 + 2*u2*u3 + 2*u3*u4 - u1",
            "2*u0*u2 + u1^2 + 2*u1*u3 + 2*u2*u4 - u2",
            "2*u0*u3 + 2*u1*u2 + 2*u1*u4 - u3", "u0 + 2*u1 + 2*u2 + 2*u3 + 2*u4 - 1"]
CYCLIC5 = ["x0 + x1 + x2 + x3 + x4", "x0*x1 + x1*x2 + x2*x3 + x3*x4 + x4*x0",
           "x0*x1*x2 + x1*x2*x3 + x2*x3*x4 + x3*x4*x0 + x4*x0*x1",
           "x0*x1*x2*x3 + x1*x2*x3*x4 + x2*x3*x4*x0 + x3*x4*x0*x1 + x4*x0*x1*x2",
           "x0*x1*x2*x3*x4 - 1"]

# every row of the signature route fits the first 8-bit packing (exponents up
# to 143), and the Gebauer-Möller loop runs in it, but in the second
# generator's step the pair of new rows with leads x*y^143*z and x^79*z^66
# has the candidate signature y^143 times y^132*z, with y^275
SIGNATURE_OVERFLOW = ["y^43*z^2 - x", "x^75*y^40*z^73 - x*y^11*z"]


def mono(*exps):
    return Monomial(exps)


def test_s_polynomial_matches_products():
    rng = random.Random(97)
    cancelled = 0
    for trial in range(200):
        order = rng.choice(sample_orders(3))
        f = random_poly(rng, R)
        g = f * rng.randint(-3, 3) if trial % 10 == 0 else random_poly(rng, R)
        if f.is_zero() or g.is_zero():
            continue
        lf, lg = leading_term(f, order), leading_term(g, order)
        L = lf.mono.lcm(lg.mono)
        mf = Polynomial(R, (Term(1 / lf.coeff, L.divide(lf.mono)),))
        mg = Polynomial(R, (Term(1 / lg.coeff, L.divide(lg.mono)),))
        s = s_polynomial(f, g, order)
        assert s == mf * f - mg * g
        cancelled += s.is_zero()
    assert cancelled >= 15
    with pytest.raises(RingMismatchError):
        s_polynomial(x, R2.gens()[0], Lex())


def test_normal_form_basic():
    assert normal_form(x**2, [x], DegLex()).is_zero()
    assert normal_form(x**2 + y, [x**2 - y], DegLex()) == 2 * y
    assert normal_form(y, [x], Lex()) == y
    with pytest.raises(ZeroPolynomialError):
        normal_form(x, [y, R.zero()], DegLex())


def test_interreduce_reduces_each_element_once(monkeypatch):
    # one ascending pass: each minimal row is reduced once, by the
    # already-reduced rows with smaller leads
    ring = PolyRing(("u0", "u1", "u2", "u3"))
    polys = [ring.poly(g) for g in KATSURA4]
    prefix_sizes, sizes = [], []
    real_reduce, real_interreduce = groebner._Reducer.reduce_ints, groebner._interreduce

    def counting(self, work, bound=None):
        if sizes:
            prefix_sizes.append(len(self))
        return real_reduce(self, work, bound)

    def interreduce(basis):
        sizes.append(len(basis))
        return real_interreduce(basis)

    monkeypatch.setattr(groebner._Reducer, "reduce_ints", counting)
    monkeypatch.setattr(groebner, "_interreduce", interreduce)
    gb = buchberger(polys, DegLex())
    assert sizes == [11] and len(gb) == 8  # three elements are not minimal
    assert prefix_sizes == list(range(len(gb)))
    monkeypatch.undo()
    assert gb == buchberger(list(gb), DegLex())


def test_divide_identity_random():
    rng = random.Random(23)
    for _ in range(60):
        order = rng.choice(sample_orders(3))
        f = random_poly(rng, R, max_den=6)
        divisors = [random_poly(rng, R, max_den=6) for _ in range(rng.randint(1, 3))]
        divisors = [d for d in divisors if not d.is_zero()]
        if not divisors:
            continue
        qs, r = divide(f, divisors, order)
        assert sum((q * d for q, d in zip(qs, divisors)), R.zero()) + r == f
        assert normal_form(f, divisors, order) == r
        leads = [leading_monomial(d, order) for d in divisors]
        for t in r.terms:
            assert not any(lm.divides(t.mono) for lm in leads)


def fraction_buchberger(gens, order, step_limit):
    """Reference Buchberger on Fraction polynomials: the same pairs from `_pairs`,
    each S-polynomial divided by `divide`, then one ascending interreduction pass.

    `_pairs` runs on the leads' words under one `orders.packing`, wide enough
    for every exponent the run meets (checked on each lead), so it is never
    widened."""
    basis = [monic(g, order) for g in gens if not g.is_zero()]
    top = max(e for g in basis for t in g.terms for e in t.mono.exponents)
    P = packing(order, basis[0].ring.n, 64 + 2 * top.bit_length())

    def word(g):
        e = leading_monomial(g, order).exponents
        assert P.unpack(P.pack(e)) == e, "an exponent outgrew the reference packing"
        return P.pack(e)

    leads = [word(g) for g in basis]
    for i, j in groebner._pairs(SimpleNamespace(leads=leads, packing=P), step_limit):
        r = divide(s_polynomial(basis[i], basis[j], order), basis, order)[1]
        if not r.is_zero():
            basis.append(monic(r, order))
            leads.append(word(basis[-1]))
    reduced = []
    for p in sorted(basis, key=lambda p: order.key(leading_monomial(p, order))):
        lead = leading_monomial(p, order)
        if not any(leading_monomial(q, order).divides(lead) for q in reduced):
            reduced.append(divide(p, reduced, order)[1])
    return tuple(reduced)


# the order specs of the rows differential test, as a problem file writes them
ROW_ORDERS = {"lex": Lex(), "deglex": DegLex(), "revlex": RevLex(),
              "weight(3,1,2; revlex)": WeightOrder(WeightVector((3, 1, 2)), RevLex())}


def random_rows_ideal(rng):
    """One to three nonzero random generators in x, y, z with rational
    coefficients, the first with a term whose coefficient is above 2^64."""
    gens = [random_poly(rng, R, max_terms=3, max_exp=2, max_coeff=7, max_den=5) for _ in range(3)]
    big = Polynomial.from_dict(R, {random_monomial(rng, 3, 2): Fraction(2**64 + rng.randint(1, 99), 7)})
    gens[0] = gens[0] + big
    return [g for g in gens[:rng.randint(2, 3)] if not g.is_zero()]


def test_gb_report_and_weight_pairs_from_rows_equal_the_element_route():
    # `gb` renders the reduced rows and `represent_order_by_weight` reads its
    # pairs off them; both must equal the route through the Fraction elements,
    # and those elements the Fraction reference
    rng = random.Random(331)
    compared = Counter()
    for k in range(24):
        spec, order = list(ROW_ORDERS.items())[k % len(ROW_ORDERS)]
        gens = random_rows_ideal(rng)
        text = "ring x, y, z\norder " + spec + "\nideal\n" + "\n".join(map(format_poly, gens)) + "\nend\n"
        out = []
        cmd_gb(parse_problem(text), None, out)
        gb = buchberger(gens, order)
        assert gb.elements == fraction_buchberger(gens, order, None), (spec, gens)
        assert out[0].endswith(f": {len(gb.elements)} elements")
        assert out[1:] == [format_poly(e, key=order.key) for e in gb.elements], (spec, gens)
        want = find_weight(comparison_pairs(gb.elements, order), n_vars=3)
        assert represent_order_by_weight(gens, order) == want, (spec, gens)
        compared[spec] += 1
        compared["big"] += any(t.coeff.denominator >> 64 or t.coeff.numerator >> 64
                               for e in gb.elements for t in e.terms)
        compared["rational"] += any(t.coeff.denominator > 1 for e in gb.elements for t in e.terms)
    assert all(compared[spec] == 6 for spec in ROW_ORDERS)
    assert compared["big"] >= 6 and compared["rational"] >= 12, compared


def test_basis_from_rows_behaves_as_one_built_from_its_elements():
    rng = random.Random(337)
    for k in range(12):
        order = list(ROW_ORDERS.values())[k % len(ROW_ORDERS)]
        gens = random_rows_ideal(rng)
        by_hand = ReducedGroebnerBasis(R, order, fraction_buchberger(gens, order, None))
        polys = [random_poly(rng, R, max_den=3) for _ in range(4)]
        polys.append(sum((p * g for p, g in zip(polys, gens)), R.zero()))  # in the ideal
        gb = buchberger(gens, order)
        # the rows answer before any element is built
        assert [gb.normal_form(f) for f in polys] == [by_hand.normal_form(f) for f in polys]
        assert [gb.contains(f) for f in polys] == [by_hand.contains(f) for f in polys]
        assert gb.contains(polys[-1])
        assert gb.initial_ideal() == by_hand.initial_ideal()
        assert gb._terms() == by_hand._terms()
        assert "elements" not in vars(gb)
        assert gb == by_hand and hash(gb) == hash(by_hand) and repr(gb) == repr(by_hand)
        assert gb.leading_monomials() == by_hand.leading_monomials()
        twin = pickle.loads(pickle.dumps(buchberger(gens, order)))
        assert type(twin) is ReducedGroebnerBasis and twin == by_hand and twin.elements == gb.elements


# every kind of matrix the packed words are built from: permuted base
# orders, a non-uniform weight, the extension to R[t] (R = K[x, y] here),
# a block order, and the graded kernel order of `presentation_kernel`
PACKED_ORDERS = (
    Lex(), DegLex(), RevLex(), Lex((2, 0, 1)), DegLex((1, 2, 0)), RevLex((2, 0, 1)),
    WeightOrder(WeightVector((3, 1, 2)), Lex()),
    ExtendedOrder(WeightVector((2, 1)), DegLex()),
    EliminationOrder((1,), (0, 2), DegLex(), RevLex()),
    WeightOrder(WeightVector((1, 2, 3)), EliminationOrder((0,), (1, 2), DegLex(), RevLex())),
)


def test_integer_buchberger_equals_fraction_reference():
    # rational coefficients of both signs: the integer rows clear denominators
    # and make leads positive, and must still give the Fraction route's basis
    rng = random.Random(67)
    budget = 40
    cut, cut_ref, rational, negative = set(), set(), 0, 0

    def run(route, *args):
        try:
            return route(*args)
        except StepLimitExceeded:
            return None

    for k in range(150):
        order = PACKED_ORDERS[k % len(PACKED_ORDERS)]
        gens = [random_poly(rng, R, max_terms=3, max_exp=3, max_den=6) for _ in range(3)]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        rational += any(t.coeff.denominator > 1 for g in gens for t in g.terms)
        negative += any(leading_term(g, order).coeff < 0 for g in gens)
        ref = run(fraction_buchberger, gens, order, budget)
        gb = run(buchberger, gens, order, budget)
        if ref is None:
            cut_ref.add(k)
        if gb is None:
            cut.add(k)
        elif ref is not None:
            assert gb.elements == ref, (order, gens)
    # the budget counts each route's own reductions: the signature route's
    # candidates for these inhomogeneous ideals, the reference's S-pairs
    assert (len(cut), len(cut_ref)) == (1, 6), (cut, cut_ref)
    assert rational >= 100 and negative >= 50, (rational, negative)


def reference_pairs(basis, limit):
    """`groebner._pairs` before the Gebauer-Möller installation: every pair
    (k, new) is queued, and a popped pair is dropped when its leads are
    coprime or when the chain criterion finds a lead k dividing its lcm whose
    pairs with i and j are no longer waiting."""
    leads = basis.leads
    queue = []  # (lcm word, (i, j))
    pending = set()
    steps = installed = 0
    P = None
    while True:
        if basis.packing is not P:
            P = basis.packing
            lcm = P.lcm
            for pos, (_, (i, j)) in enumerate(queue):
                queue[pos] = (lcm(leads[i], leads[j]), (i, j))
        for new in range(installed, len(leads)):
            lead = leads[new]
            for k in range(new):
                heapq.heappush(queue, (lcm(leads[k], lead), (k, new)))
                pending.add((k, new))
        installed = len(leads)
        if not queue:
            return
        L, (i, j) = heapq.heappop(queue)
        pending.remove((i, j))
        if L == leads[i] + leads[j]:
            continue
        if any(
            k != i and k != j
            and (min(i, k), max(i, k)) not in pending
            and (min(j, k), max(j, k)) not in pending
            for k in P.dividing(leads, L)
        ):
            continue
        steps += 1
        if limit is not None and steps > limit:
            raise StepLimitExceeded(f"exceeded {limit} S-polynomial reductions")
        yield i, j


def with_reference_pairs(monkeypatch, route, *args):
    """route(*args) with `reference_pairs` in place of `groebner._pairs`."""
    with monkeypatch.context() as m:
        m.setattr(groebner, "_pairs", reference_pairs)
        return route(*args)


def test_gebauer_moller_buchberger_equals_reference_pairs(monkeypatch):
    # the reduced basis is unique, so the pairs the criteria let through must
    # not change it; the seeded ideals of the Fraction-reference test
    # (every one finishes within 400 reductions both ways), on the
    # Gebauer-Möller route, which `buchberger` takes for homogeneous input only
    rng = random.Random(67)
    for k in range(150):
        order = PACKED_ORDERS[k % len(PACKED_ORDERS)]
        gens = [random_poly(rng, R, max_terms=3, max_exp=3, max_den=6) for _ in range(3)]
        gens = [g for g in gens if not g.is_zero()]
        if gens:
            gb = gebauer_moller_basis(gens, order, 400)
            assert gb == with_reference_pairs(monkeypatch, gebauer_moller_basis, gens, order, 400), (order, gens)


def test_gebauer_moller_toric_kernel_equals_reference_pairs(monkeypatch):
    rng = random.Random(71)
    for _ in range(40):
        monos = [Monomial(tuple(rng.randint(0, 12) for _ in range(3))) for _ in range(rng.randint(2, 4))]
        ker = toric_kernel(R, monos)
        assert ker == with_reference_pairs(monkeypatch, toric_kernel, R, monos), monos


def test_gebauer_moller_sagbi_insert_equals_reference_pairs(monkeypatch):
    # the graded first basis of the toric ideal takes `_pairs`; each adjoined
    # generator then goes through one `_signature_step` of `_Presentation.insert`,
    # on a packing with one more variable each time (no step here overflows)
    variables, paired = [], []
    real_step, real_pairs = groebner._signature_step, groebner._pairs

    def stepping(basis, f, limit, used):
        variables.append(basis.packing.n)
        return real_step(basis, f, limit, used)

    def pairing(basis, limit):
        paired.append(len(basis.leads))
        return real_pairs(basis, limit)

    gens = [R2.poly("x + y"), R2.poly("x*y"), R2.poly("x*y^2")]
    with monkeypatch.context() as m:
        m.setattr(groebner, "_signature_step", stepping)
        m.setattr(groebner, "_pairs", pairing)
        state = sagbi_complete(gens, DegLex(), 10)
    assert len(state.gens) > len(gens) and paired == [len(gens)], paired
    assert variables == list(range(2 + len(gens) + 1, 2 + len(state.gens) + 1)), variables
    assert state == with_reference_pairs(monkeypatch, sagbi_complete, gens, DegLex(), 10)


def test_sagbi_inserts_make_almost_no_zero_reduction(monkeypatch):
    # the signature step of `_Presentation.insert` drops the candidates the
    # syzygy and rewrite criteria rule out: one of the 85 reductions of this
    # completion ends in 0, where the Gebauer-Möller pairs of each insert made
    # 91 of 208
    calls = []
    real_reduce = groebner._Reducer.reduce_ints

    def counting(self, work, bound=None):
        r = real_reduce(self, work, bound)
        calls.append(bool(r[0]))
        return r

    monkeypatch.setattr(groebner._Reducer, "reduce_ints", counting)
    state = sagbi_complete([R2.poly("x + y"), R2.poly("x*y"), R2.poly("x*y^2")], DegLex(), 8)
    assert len(state.gens) == 8 and state.truncated_at == 8
    assert calls.count(False) <= 1 and len(calls) == 85, (calls.count(False), len(calls))


def test_sagbi_inserts_pair_no_coprime_partner(monkeypatch):
    # a row of G whose lead is coprime to the new row's makes no signature
    # candidate, as its lead, a Koszul syzygy, would drop it when popped: the
    # completion computes 164 lcms, where making every candidate took 419
    calls = []
    real_lcm = orders.Packing.lcm

    def counting(self, a, b):
        calls.append(None)
        return real_lcm(self, a, b)

    monkeypatch.setattr(orders.Packing, "lcm", counting)
    gens = [R2.poly("x + y"), R2.poly("x*y"), R2.poly("x*y^2")]
    state = sagbi_complete(gens, DegLex(), 8)
    assert len(calls) == 164
    assert set(state.gens) == {R2.poly("x + y")} | {R2.poly(f"x*y^{k}") for k in range(1, 8)}
    # with every support full, no partner is coprime: every candidate is
    # made, as before the criterion, and the completion is the same
    calls.clear()
    monkeypatch.setattr(orders.Packing, "support", lambda self, word: self.guard)
    assert sagbi_complete(gens, DegLex(), 8) == state and len(calls) == 419


def test_step_limit_bounds_each_sagbi_insert(monkeypatch):
    # an insert spends the budget on the signature candidates it reduces: the
    # first basis of x, x*y, x*y^2 takes 4 pairs, and the k-th insert of this
    # completion reduces k + 1 candidates, so a budget of 8 lets cap 8 finish
    # and stops cap 20 inside an insert
    monkeypatch.setenv("INITALG_STEP_LIMIT", "8")
    gens = [R2.poly("x + y"), R2.poly("x*y"), R2.poly("x*y^2")]
    assert sagbi_complete(gens, DegLex(), 8).truncated_at == 8
    with pytest.raises(StepLimitExceeded, match="exceeded 8 S-polynomial reductions") as excinfo:
        sagbi_complete(gens, DegLex(), 20)
    frames = [(Path(str(entry.path)).name, entry.name) for entry in excinfo.traceback]
    assert ("groebner.py", "insert") in frames and frames[-1] == ("groebner.py", "_signature_step"), frames


@pytest.mark.parametrize("order", [Lex(), RevLex()], ids=["lex", "revlex"])
@pytest.mark.parametrize("texts", [
    ["x^1099511627776*y - z", "y - 1"],  # x^(2^40)
    ["x^1180591620717411303424 - y", "x^1180591620717411303424 - z^2"],  # x^(2^70)
], ids=["2^40", "2^70"])
def test_huge_exponents_stay_exact(order, texts):
    gens = [R.poly(t) for t in texts]
    assert buchberger(gens, order).elements == fraction_buchberger(gens, order, None)


def test_exponents_outgrowing_the_packing_widen_it(monkeypatch):
    widths = []
    real_use = groebner._Reducer._use

    def recording(self, new):
        widths.append(new.bits)
        real_use(self, new)

    monkeypatch.setattr(groebner._Reducer, "_use", recording)
    # the input's exponents fit the initial field width (up to 255 here), the
    # basis element z^294 - z does not: the run widens and repacks mid-way
    gens = [R.poly("x - y^7"), R.poly("y - z^7"), R.poly("x^6 - z")]
    gb = buchberger(gens, Lex())
    assert widths[0] == 8 and max(widths) > 8
    assert gb.elements == fraction_buchberger(gens, Lex(), None)
    assert gb.elements == (R.poly("z^294 - z"), R.poly("y - z^7"), R.poly("x - z^49"))
    # a normal form whose remainder outgrows the divisors' packing (z^300
    # gives 11 bits, up to 2047): the basis reduces by its own rows, already
    # packed at 11 bits by the run, and widens them once
    gb = buchberger([R.poly("y - z^300")], Lex())
    assert gb._reducer.packing.bits == 11
    widths.clear()
    assert gb.normal_form(R.poly("x*y^7")) == R.poly("x*z^2100")
    assert widths == [22]
    # an S-pair of the Gebauer-Möller loop sets a guard bit before its
    # reduction starts (the signature route, which `buchberger` takes for
    # these inhomogeneous generators, never forms that pair)
    widths.clear()
    gens = [R.poly("x*y - z^3"), R.poly("x^5 - y"), R.poly("y^7 - z")]
    assert gebauer_moller_basis(gens, Lex(), None).elements == fraction_buchberger(gens, Lex(), None)
    assert widths == [8, 16, 16]
    # an input exponent too wide for the basis's packing widens it as it is packed
    widths.clear()
    assert buchberger([x - y], Lex()).normal_form(x**1000) == y**1000
    assert widths == [8, 8, 16]  # the run, its interreduction, whose rows the basis widens


@pytest.mark.parametrize("texts, order, fits", [
    (SIGNATURE_OVERFLOW, RevLex(), True),
    # the candidate signature of a new row and a row of the earlier generators
    (["y^23*z - x*z^61", "x^2*y*z^2 - x^83*z"], DegLex(), True),
    # the lead of a candidate rewritten as a multiple of a row
    (["x^12*y*z - y^80*z^2", "x^49*y^2*z^13 - x*z^87"], Lex(), True),
    # the signature of a row that reduces that lead
    (["x^49*z - x^2*y*z", "y^55*z^39 - y^30", "y*z - x^2"], Lex(), True),
    # the signature of a divisor in reduce_ints, before any row outgrows
    (["x^33*z - x^70*z^27", "x^68*y^2*z^68 - x^69*z^2"], Lex(), False),
], ids=["new-pair", "old-pair", "rewritten-lead", "reducer", "reduce-ints"])
def test_signature_words_outgrowing_the_packing_widen_it(monkeypatch, texts, order, fits):
    # the step that overflows drops the rows it added, and is redone in a
    # packing of twice the width.  Where the rows fit the first packing, and
    # the Gebauer-Möller loop runs in it, only a signature word outgrew it
    widths = []
    real_use = groebner._Reducer._use

    def recording(self, new, at=None):
        widths.append(new.bits)
        real_use(self, new, at)

    monkeypatch.setattr(groebner._Reducer, "_use", recording)
    gens = [R.poly(t) for t in texts]
    rows = groebner._groebner_rows(gens, order, None)
    bits = widths[0]
    assert widths == [bits, 2 * bits]
    unpack = rows.packing.unpack
    top = max(e for lead, _, tail in rows.rows
              for m in (lead, *(lead + off for off, _ in tail)) for e in unpack(m))
    assert (top < 2**bits) == fits, top
    if fits:
        widths.clear()
        groebner._complete_rows(groebner._Reducer(order, gens), None)
        assert widths == [bits]
    assert buchberger(gens, order).elements == fraction_buchberger(gens, order, None)


def gebauer_moller_basis(gens, order, limit):
    """The reduced basis from `_complete_rows` on the rows of `gens`, the
    route `_groebner_rows` takes for homogeneous generators."""
    basis = groebner._Reducer(order, [g for g in gens if not g.is_zero()])
    groebner._complete_rows(basis, limit)
    return groebner._reduced_basis(gens[0].ring, order, basis)


def signature_differential_sweep(seed, trials):
    """The signature route of `_groebner_rows` against `gebauer_moller_basis`
    on `trials` seeded inhomogeneous ideals of 2 or 3 generators in x, y, z,
    over every `PACKED_ORDERS` order in turn, with rational coefficients of
    both signs.  Each route has a budget of 100 reductions.  Returns a
    Counter (compared, cut, rational, negative) and the (order, generators)
    whose reduced bases differ."""
    rng = random.Random(seed)
    stats, mismatches = Counter(), []
    for k in range(trials):
        order = PACKED_ORDERS[k % len(PACKED_ORDERS)]
        gens = []
        while not gens or all(len({t.mono.degree() for t in g.terms}) == 1 for g in gens):
            gens = [random_poly(rng, R, max_terms=3, max_exp=3, max_den=6)
                    for _ in range(rng.randint(2, 3))]
            gens = [g for g in gens if not g.is_zero()]
        stats["rational"] += any(t.coeff.denominator > 1 for g in gens for t in g.terms)
        stats["negative"] += any(leading_term(g, order).coeff < 0 for g in gens)
        try:
            got = groebner._reduced_basis(R, order, groebner._groebner_rows(gens, order, 100))
            want = gebauer_moller_basis(gens, order, 100)
        except StepLimitExceeded:
            stats["cut"] += 1
            continue
        stats["compared"] += 1
        if got != want:
            mismatches.append((order, gens))
    return stats, mismatches


def test_signature_route_equals_gebauer_moller_route():
    stats, mismatches = signature_differential_sweep(seed=2002, trials=320)
    assert mismatches == []
    assert stats["compared"] >= 300 and stats["rational"] >= 250 and stats["negative"] >= 100, stats


def test_signature_route_makes_no_zero_reduction(monkeypatch):
    # every candidate of katsura-5 and cyclic-5 under revlex reduces to a new
    # row: the syzygy and rewrite criteria drop each pair that reduces to zero.
    # Cyclic-6 makes 8 zero reductions (37 without their syzygies), and drops
    # 6 remainders that a row reduces with the same signature
    calls = []
    real_reduce = groebner._Reducer.reduce_ints
    real_complete = groebner._complete_rows

    def counting(self, work, bound=None):
        r = real_reduce(self, work, bound)
        calls.append(bool(r[0]))
        return r

    def completing(basis, limit):
        calls.append("Gebauer-Möller")
        real_complete(basis, limit)

    monkeypatch.setattr(groebner._Reducer, "reduce_ints", counting)
    monkeypatch.setattr(groebner, "_complete_rows", completing)
    for names, texts, reductions in [("u0 u1 u2 u3 u4", KATSURA5, 15), ("x0 x1 x2 x3 x4", CYCLIC5, 38)]:
        ring = PolyRing(tuple(names.split()))
        calls.clear()
        groebner._groebner_rows([ring.poly(t) for t in texts], RevLex(), None)
        assert calls == [True] * reductions, (names, calls)
    ring = PolyRing(tuple(f"x{i}" for i in range(6)))
    cyclic6 = [" + ".join("*".join(f"x{(i + j) % 6}" for j in range(k)) for i in range(6))
               for k in range(1, 6)] + ["x0*x1*x2*x3*x4*x5 - 1"]
    calls.clear()
    rows = groebner._groebner_rows([ring.poly(t) for t in cyclic6], RevLex(), None)
    assert (len(calls), calls.count(False), len(rows)) == (168, 8, 155)
    # homogeneous generators take the Gebauer-Möller route: the rational
    # normal quartic, and the total ideal of a flat family, which is
    # homogeneous for the extended weight that its order compares first
    quartic = PolyRing(tuple(f"x{i}" for i in range(5)))
    family = homogenize_ideal([x**2 - y, x * y - z], WeightVector((2, 1, 1)), Lex()).total
    for gens, order in [([quartic.poly(f"x{i}*x{j + 1} - x{j}*x{i + 1}")
                          for i in range(4) for j in range(i + 1, 4)], RevLex()),
                        (list(family.elements), family.order)]:
        calls.clear()
        groebner._groebner_rows(gens, order, None)
        assert calls[0] == "Gebauer-Möller"


def test_buchberger_monomial_ideal_is_self():
    gb = buchberger([x**2, x * y], DegLex())
    assert gb.elements == (x * y, x**2)
    assert buchberger([x - 1], Lex()).elements == (x - 1,)


def test_buchberger_lex_four_elements():
    gb = buchberger([x**2 - y, x * y - z], Lex())
    assert set(gb.elements) == {x**2 - y, x * y - z, x * z - y**2, y**3 - z**2}
    # ascending leading monomials under lex
    assert gb.elements == (y**3 - z**2, x * z - y**2, x * y - z, x**2 - y)
    # every element vanishes on the parametrization x=s, y=s^2, z=s^3
    S = PolyRing(("s",))
    s = S.gens()[0]
    for g in gb:
        assert substitute(g, [s, s**2, s**3]).is_zero()


def test_reduced_gb_structure_random():
    rng = random.Random(31)
    for _ in range(25):
        order = rng.choice(sample_orders(3))
        gens = [random_poly(rng, R, max_terms=3, max_exp=2) for _ in range(2)]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        gb = buchberger(gens, order)
        leads = gb.leading_monomials()
        for i, g in enumerate(gb):
            assert g == monic(g, order)
            for t in g.terms:
                assert not any(l.divides(t.mono) for j, l in enumerate(leads) if j != i)
        keys = [order.key(l) for l in leads]
        assert keys == sorted(keys)
        for g in gens:
            assert gb.contains(g)
        h = gens[0] * random_poly(rng, R) + gens[-1] * random_poly(rng, R)
        assert gb.contains(h)


def test_reduced_gb_permutation_invariant():
    rng = random.Random(37)
    for _ in range(15):
        order = rng.choice(sample_orders(3))
        gens = [random_poly(rng, R, max_terms=3, max_exp=2) for _ in range(3)]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        gb1 = buchberger(gens, order)
        shuffled = gens[:]
        rng.shuffle(shuffled)
        gb2 = buchberger(shuffled, order)
        assert gb1.elements == gb2.elements


def test_all_s_pairs_reduce_to_zero():
    rng = random.Random(41)
    for _ in range(15):
        order = rng.choice(sample_orders(3))
        gens = [random_poly(rng, R, max_terms=3, max_exp=2) for _ in range(2)]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        gb = buchberger(gens, order)
        els = gb.elements
        for i in range(len(els)):
            for j in range(i + 1, len(els)):
                assert normal_form(s_polynomial(els[i], els[j], order), els, order).is_zero()


def test_initial_ideal_examples():
    M = initial_ideal([x**2 - y, x * y - z], Lex())
    assert set(M.mingens) == {mono(2, 0, 0), mono(1, 1, 0), mono(1, 0, 1), mono(0, 3, 0)}
    assert M.mingens == (mono(1, 0, 1), mono(1, 1, 0), mono(2, 0, 0), mono(0, 3, 0))
    M2 = initial_ideal([x**2, x * y, x**2 * y], DegLex())
    assert M2.mingens == (mono(1, 1, 0), mono(2, 0, 0))
    Q = PolyRing(("x1", "x2", "x3", "x4"))
    x1, x2, x3, x4 = Q.gens()
    assert initial_ideal([x1 + x2 * x4 + x3**2], RevLex()).mingens == (Monomial((0, 0, 2, 0)),)


def test_initial_ideal_equals_the_reduced_basis_initial_ideal(monkeypatch):
    # the leads of the unreduced loop give ini(I) with `mingens` in the order
    # of the reduced basis's, on every kind of packed order; a budget cuts
    # both routes at the same inputs
    monkeypatch.setenv("INITALG_STEP_LIMIT", "40")
    rng = random.Random(83)
    compared, cut = 0, 0
    for k in range(150):
        order = PACKED_ORDERS[k % len(PACKED_ORDERS)]
        gens = [random_poly(rng, R, max_terms=3, max_exp=3, max_den=6) for _ in range(3)]
        try:
            want = buchberger(gens, order).initial_ideal()
        except StepLimitExceeded:
            with pytest.raises(StepLimitExceeded):
                initial_ideal(gens, order)
            cut += 1
            continue
        assert initial_ideal(gens, order) == want, (order, gens)
        compared += 1
    assert compared >= 130 and cut > 0, (compared, cut)


def test_initial_ideal_widens_the_packing_as_buchberger_does(monkeypatch):
    widths = []
    real_use = groebner._Reducer._use

    def recording(self, new):
        widths.append(new.bits)
        real_use(self, new)

    monkeypatch.setattr(groebner._Reducer, "_use", recording)
    # the first starts at 8 bits (exponents up to 255) and widens: z^294 - z
    # outgrows the first packing.  The second stays at 8 bits: the S-pair that
    # sets a guard bit in the Gebauer-Möller loop is not a candidate of the
    # signature route.  In the third, every row fits 8 bits but a signature
    # word does not.  x^(2^40) is packed wide from the start
    for order, texts, bits, leads in [
        (Lex(), ["x - y^7", "y - z^7", "x^6 - z"], 16,
         [mono(0, 1, 0), mono(1, 0, 0), mono(0, 0, 294)]),
        (Lex(), ["x*y - z^3", "x^5 - y", "y^7 - z"], 8, None),
        (RevLex(), SIGNATURE_OVERFLOW, 16, None),
        (RevLex(), ["x^1099511627776*y - z", "y - 1"], 43,
         [mono(0, 1, 0), mono(1099511627776, 0, 0)]),
    ]:
        gens = [R.poly(t) for t in texts]
        widths.clear()
        M = initial_ideal(gens, order)
        assert max(widths) == bits, widths
        assert M == buchberger(gens, order).initial_ideal()
        assert leads is None or list(M.mingens) == leads


def test_initial_ideal_edge_inputs():
    # the unit ideal, the zero ideal, and the errors of buchberger
    assert initial_ideal([x - 1, x], Lex()).mingens == (Monomial((0, 0, 0)),)
    assert initial_ideal([x - 1, x], Lex()) == buchberger([x - 1, x], Lex()).initial_ideal()
    assert initial_ideal([R.zero(), R.zero()], DegLex()) == MonomialIdeal(R, ())
    assert initial_ideal([R.zero()], DegLex()) == buchberger([R.zero()], DegLex()).initial_ideal()
    for gens, error in [([], ValueError), ([x, R2.poly("x")], RingMismatchError),
                        ([R.zero(), R2.poly("x")], RingMismatchError)]:
        with pytest.raises(error) as want:
            buchberger(gens, Lex())
        with pytest.raises(error) as got:
            initial_ideal(gens, Lex())
        assert str(got.value) == str(want.value)


def test_initial_ideal_spends_the_step_budget_of_buchberger(monkeypatch):
    gens = [R.poly(t) for t in BLOWUP[:2]] + [x**2 - y, x * y - z]

    def passes(route):
        try:
            route()
        except StepLimitExceeded:
            return False
        return True

    k = next(k for k in range(200) if passes(lambda: buchberger(gens, Lex(), k)))
    assert k > 1
    monkeypatch.setenv("INITALG_STEP_LIMIT", str(k - 1))
    with pytest.raises(StepLimitExceeded, match=f"exceeded {k - 1} S-polynomial"):
        initial_ideal(gens, Lex())
    monkeypatch.setenv("INITALG_STEP_LIMIT", str(k))
    assert initial_ideal(gens, Lex()) == buchberger(gens, Lex(), k).initial_ideal()


def test_monomial_ideal_minimalization():
    M = MonomialIdeal.from_monomials(R, [mono(2, 0, 0), mono(2, 1, 0), mono(0, 1, 0), mono(0, 1, 0)])
    assert M.mingens == (mono(0, 1, 0), mono(2, 0, 0))
    assert M.contains(mono(2, 5, 1))
    assert not M.contains(mono(1, 0, 3))


def test_initial_ideal_weight_examples():
    f = R2.poly("x^2 - y")
    assert initial_ideal_weight([f], WeightVector((1, 1))) == (R2.poly("x^2"),)
    assert initial_ideal_weight([f], WeightVector((1, 2))) == (f,)
    # weight-homogeneous input is returned as is (up to GB normalization)
    g = R2.poly("x^2 - y^2")
    assert initial_ideal_weight([g], WeightVector((1, 1))) == (g,)


def test_weight_initial_forms_deformation_identity():
    # taking ini by order after ini by weight equals ini under the refined order
    rng = random.Random(47)
    for _ in range(12):
        tie = rng.choice([Lex(), DegLex(), RevLex()])
        a = WeightVector(tuple(rng.randint(1, 3) for _ in range(3)))
        gens = [random_poly(rng, R, max_terms=3, max_exp=2) for _ in range(2)]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        forms = initial_ideal_weight(gens, a, tie)
        lhs = initial_ideal(list(forms), WeightOrder(a, tie))
        rhs = initial_ideal(gens, WeightOrder(a, tie))
        assert lhs.mingens == rhs.mingens


def test_initial_ideal_containment_forces_equality():
    rng = random.Random(53)
    checked = 0
    for _ in range(60):
        sigma, tau = rng.sample(sample_orders(3), 2)
        gens = [random_poly(rng, R, max_terms=3, max_exp=2) for _ in range(2)]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        Ms = initial_ideal(gens, sigma)
        Mt = initial_ideal(gens, tau)
        if all(Ms.contains(m) for m in Mt.mingens):
            assert Ms.mingens == Mt.mingens
            checked += 1
    assert checked >= 5


def test_eliminate():
    gb = eliminate([y - x**2, z - x**3], keep=("y", "z"))
    assert gb == (y**3 - z**2,)
    assert eliminate([x], keep=("y",)) == ()
    assert eliminate([x - y], keep=("y",)) == ()
    assert eliminate([x - y], keep=("x", "y")) == (x - y,)


def test_presentation_kernel_quadric():
    ker = presentation_kernel([R2.poly("x^2"), R2.poly("x*y"), R2.poly("y^2")])
    assert ker.ring.names == ("Y1", "Y2", "Y3")
    Y1, Y2, Y3 = ker.ring.gens()
    assert ker.gens == (Y2**2 - Y1 * Y3,)
    for g in ker.gens:
        assert substitute(g, list(ker.images)).is_zero()


def test_presentation_kernel_free_case():
    assert presentation_kernel([x]).gens == ()
    assert presentation_kernel([x + y, x - y]).gens == ()


def test_presentation_kernel_named_fixture():
    f = [R.poly("x^2 - z^2"), R.poly("x*y"), R.poly("y^2"), R.poly("y*z")]
    ker = presentation_kernel(f, names=("T", "U", "V", "W"))
    T, U, V, W = ker.ring.gens()
    assert ker.gens == (U**2 - T * V - W**2,)
    for g in ker.gens:
        assert substitute(g, list(ker.images)).is_zero()


def test_toric_kernel():
    ker = toric_kernel(R, [mono(2, 0, 0), mono(1, 1, 0), mono(0, 2, 0), mono(0, 1, 1)], names=("T", "U", "V", "W"))
    T, U, V, W = ker.ring.gens()
    assert ker.gens == (U**2 - T * V,)
    # binomial output
    for g in ker.gens:
        assert len(g.terms) == 2
        assert sorted(t.coeff for t in g.terms) == [Fraction(-1), Fraction(1)]
    assert toric_kernel(R2, [mono2 := Monomial((1, 0)), Monomial((0, 1))]).gens == ()


def test_kernel_substitution_random():
    rng = random.Random(59)
    for _ in range(10):
        images = [random_poly(rng, R2, max_terms=2, max_exp=2) for _ in range(3)]
        images = [g for g in images if not g.is_zero()]
        if len(images) < 2:
            continue
        ker = presentation_kernel(images)
        for g in ker.gens:
            assert substitute(g, list(ker.images)).is_zero()


def test_presentation_kernel_is_its_own_revlex_basis():
    # the kernel gens are already the reduced revlex basis, ascending by lead,
    # so a second Buchberger run returns them unchanged (kernel_initial_check
    # compares against them directly)
    rng = random.Random(227)
    nonempty = 0
    for trial in range(60):
        if trial % 2:
            images = [random_homogeneous_poly(rng, R2, rng.randint(1, 2)) for _ in range(3)]
        else:
            images = [random_poly(rng, R2, max_terms=2, max_exp=2) for _ in range(3)]
        images = [g for g in images if not g.is_zero()]
        if not images:
            continue
        ker = presentation_kernel(images)
        if ker.gens:
            nonempty += 1
            assert buchberger(list(ker.gens), RevLex()).elements == ker.gens
    assert nonempty >= 40


def eliminated_kernel(images):
    """Kernel of Y_i -> images[i] by plain elimination, projected to the Y ring."""
    source = images[0].ring
    n, k = source.n, len(images)
    big = PolyRing(source.names + tuple(f"Y{i + 1}" for i in range(k)))
    gens = [
        big.var(n + i) - Polynomial.from_dict(big, {Monomial(t.mono.exponents + (0,) * k): t.coeff for t in f.terms})
        for i, f in enumerate(images)
    ]
    target = PolyRing(big.names[n:])
    return tuple(
        Polynomial.from_dict(target, {Monomial(t.mono.exponents[n:]): t.coeff for t in g.terms})
        for g in eliminate(gens, keep=tuple(range(n, n + k)))
    )


@pytest.fixture
def kernel_orders(monkeypatch):
    """Orders the kernel engine picks, recorded from `_Presentation._order`."""
    seen = []
    real = groebner._Presentation._order

    def recording(self):
        seen.append(real(self))
        return seen[-1]

    monkeypatch.setattr(groebner._Presentation, "_order", recording)
    return seen


def is_graded(images):
    """Every image homogeneous of positive degree: the engine's graded case."""
    return all(len({t.mono.degree() for t in f.terms}) == 1 and f.total_degree() > 0 for f in images)


def test_graded_kernel_equals_elimination(kernel_orders):
    # the seeded differential test of the kernel engine against plain
    # elimination.  Homogeneous images of positive degree, nonconstant
    # monomials among them, are eliminated under their grading; ungraded
    # polynomial images (rational coefficients too) and monomial sets holding
    # the constant 1 under the plain elimination order.  The reduced basis and
    # its element order must be the elimination's either way
    rng = random.Random(71)
    ungraded = 0
    for trial in range(60):
        kernel_orders.clear()
        if trial < 24:  # monomial sets in two and three variables
            ring = (R2, R)[trial // 3 % 2]
            monos, count = [], rng.randint(3, 5)
            while len(monos) < count:
                m = random_monomial(rng, ring.n, max_exp=2)
                if m.degree() > 0:
                    monos.append(m)
            ker = toric_kernel(ring, monos)
        elif trial < 36:
            images = [random_homogeneous_poly(rng, R2, rng.randint(1, 2)) for _ in range(rng.randint(3, 4))]
            ker = presentation_kernel(images)
        elif trial < 48:  # the constant 1 among nonconstant monomials
            ring = (R2, R)[trial % 2]
            monos = [m for m in (random_monomial(rng, ring.n, max_exp=2) for _ in range(rng.randint(2, 4)))
                     if m.degree() > 0]
            monos.insert(rng.randint(0, len(monos)), Monomial((0,) * ring.n))
            ker = toric_kernel(ring, monos)
        else:
            images = [random_poly(rng, R2, max_terms=3, max_exp=2, max_den=3) for _ in range(rng.randint(2, 3))]
            images = [f for f in images if not f.is_zero()] or [R2.poly("x + 1")]
            ker = presentation_kernel(images)
        graded = is_graded(ker.images)
        ungraded += not graded
        assert [type(o) for o in kernel_orders] == [WeightOrder if graded else EliminationOrder]
        assert ker.gens == eliminated_kernel(ker.images), (trial, ker.images)
    assert ungraded >= 20, ungraded


def test_ungraded_kernel_route(kernel_orders, monkeypatch):
    # a non-homogeneous image or a constant one (its weight would be 0, which
    # WeightVector rejects) keeps the plain elimination order
    with pytest.raises(ValueError):
        WeightVector((1, 0))
    ker = presentation_kernel([R2.poly("x^2 + y"), R2.poly("x*y"), R2.poly("y")])
    assert [type(o) for o in kernel_orders] == [EliminationOrder]
    assert ker.gens == eliminated_kernel(ker.images)
    assert ker.gens
    # ungraded rows take the signature route of `buchberger`, which reduces
    # 26 candidates here, where the Gebauer-Möller loop would reduce 354 pairs
    kernel_orders.clear()
    with monkeypatch.context() as env:
        env.setenv("INITALG_STEP_LIMIT", "50")
        ker = presentation_kernel([R2.poly(f) for f in ("-x^2*y^2 + x*y", "3*x^2 - y", "3*x*y^2 - y^2")])
        # binomial rows too: an ungraded toric kernel needs a budget of 20 on
        # the signature route, and over 100 on the Gebauer-Möller loop
        toric = toric_kernel(R2, [Monomial(e) for e in ((0, 0), (1, 1), (1, 6), (2, 2), (6, 1))])
    assert [type(o) for o in kernel_orders] == [EliminationOrder] * 2
    assert ker.gens == eliminated_kernel(ker.images)
    assert toric.gens == eliminated_kernel(toric.images)
    kernel_orders.clear()
    ker = toric_kernel(R2, [Monomial((0, 0)), Monomial((1, 0)), Monomial((1, 1))])
    assert [type(o) for o in kernel_orders] == [EliminationOrder]
    assert ker.gens == eliminated_kernel(ker.images)
    assert ker.gens == (ker.ring.poly("Y1 - 1"),)


def random_monomial_images(rng, ring, count):
    """Nonconstant monomials with exponents <= 2 (as Sagbi initials are), some repeated."""
    monos = []
    while len(monos) < count:
        if monos and rng.random() < 0.15:
            monos.append(rng.choice(monos))
        elif (m := random_monomial(rng, ring.n, max_exp=2)).degree() > 0:
            monos.append(m)
    return monos


def toric_engine(n, exps):
    """The kernel engine on the monomial images x^e, as Sagbi completion builds it."""
    return groebner._Presentation(n, [({tuple(e): 1}, 1) for e in exps])


def test_toric_kernel_equals_presentation_kernel():
    # the engine's rows on monomial images, the toric ideal of Sagbi
    # completion, are binomials Y^u - Y^v giving plain elimination's kernel
    rng = random.Random(131)
    rings = [PolyRing(tuple(f"x{i}" for i in range(n))) for n in (1, 2, 3, 4)]
    for trial in range(60):
        ring = rings[trial % 4]
        monos = random_monomial_images(rng, ring, rng.randint(1, 5))
        ref = eliminated_kernel([Polynomial.from_dict(ring, {m: 1}) for m in monos])
        rows = toric_engine(ring.n, [m.exponents for m in monos]).kernel()
        assert all(a == 1 and len(tail) == 1 and tail[0][1] == -1 for _, a, tail in rows), monos
        target = PolyRing(tuple(f"Y{i + 1}" for i in range(len(monos))))
        gens = tuple(Polynomial.from_dict(target, {Monomial(u): 1, Monomial(v): -1})
                     for u, _, ((v, _),) in rows)
        assert gens == ref, monos


def interreduced_rows(ideal):
    """The reduced basis of the kernel engine's whole ideal, x rows too, as
    unpacked rows (lead, a, ((tail, b), ...))."""
    basis = ideal.basis
    reduced = basis.widening(lambda: groebner._interreduce(basis))
    unpack = reduced.packing.unpack
    return [(unpack(lead), a, tuple((unpack(lead + off), b) for off, b in tail))
            for lead, a, tail in reduced.rows]


def test_toric_ideal_insert_equals_fresh_build():
    # neither basis is interreduced, so their rows may differ; their reduced
    # bases are unique, and equal
    rng = random.Random(137)
    for trial in range(40):
        ring = (R2, R)[trial % 2]
        monos = [m.exponents for m in random_monomial_images(rng, ring, rng.randint(2, 6))]
        adjoined = [rng.randrange(len(monos))]
        ideal = toric_engine(ring.n, [monos[adjoined[0]]])
        for i in rng.sample([i for i in range(len(monos)) if i != adjoined[0]], len(monos) - 1):
            adjoined.append(i)
            ideal.insert(sorted(adjoined).index(i), monos[i])
        fresh = toric_engine(ring.n, monos)
        assert interreduced_rows(ideal) == interreduced_rows(fresh), monos
        assert ideal.kernel() == fresh.kernel(), monos


def kernel_polys(rows, k):
    """`_Presentation.kernel` rows as monic polynomials in Y1..Yk."""
    target = PolyRing(tuple(f"Y{i + 1}" for i in range(k)))
    return tuple(Polynomial.from_dict(target, {Monomial(u): 1} | {Monomial(v): Fraction(b, a) for v, b in tail})
                 for u, a, tail in rows)


def test_toric_insert_sequences_equal_fresh_build_and_elimination():
    # seeded insert sequences: 2 to 6 monomials in 2 or 3 variables, adjoined
    # in random order, against a fresh engine and plain elimination.  A
    # quarter of them start from the constant 1, so the engine runs under the
    # ungraded elimination order
    rng = random.Random(149)
    ungraded = 0
    for trial in range(60):
        ring = (R2, R)[trial % 2]
        monos = [m.exponents for m in random_monomial_images(rng, ring, rng.randint(2, 6))]
        if trial % 4 == 3:
            monos[0] = (0,) * ring.n
            ungraded += 1
        adjoined = [0 if trial % 4 == 3 else rng.randrange(len(monos))]
        ideal = toric_engine(ring.n, [monos[adjoined[0]]])
        for i in rng.sample([i for i in range(len(monos)) if i != adjoined[0]], len(monos) - 1):
            adjoined.append(i)
            ideal.insert(sorted(adjoined).index(i), monos[i])
        got = ideal.kernel()
        assert got == toric_engine(ring.n, monos).kernel(), monos
        images = [Polynomial.from_dict(ring, {Monomial(e): 1}) for e in monos]
        assert kernel_polys(got, len(monos)) == eliminated_kernel(images), monos
    assert ungraded == 15


def test_toric_exponents_outgrowing_the_packing_widen_it(monkeypatch):
    widths = []
    real_use = groebner._Reducer._use

    def recording(self, new, at=None):
        widths.append(new.bits)
        real_use(self, new, at)

    monkeypatch.setattr(groebner._Reducer, "_use", recording)
    # each build and insert repacks the basis (8 bits, then 8 with the new
    # variable), and only `kernel` interreduces, in the basis's packing: x^300
    # does not fit the 8 value bits of the ideal of x alone, so the signature
    # step that adds its binomial overflows, the packing widens and the step
    # is retried
    ideal = toric_engine(1, [(1,)])
    ideal.insert(1, (300,))
    assert widths == [8, 8, 16]
    assert ideal.kernel() == toric_engine(1, [(1,), (300,)]).kernel() == [((300, 0), 1, (((0, 1), -1),))]
    # packed into 8 bits, x^600 would carry past the guard bit into the next
    # field unseen: the step checks that the image fits before packing it
    widths.clear()
    ideal = toric_engine(1, [(1,)])
    ideal.insert(1, (600,))
    assert widths == [8, 8, 16] and ideal.kernel() == [((600, 0), 1, (((0, 1), -1),))]
    assert widths == [8, 8, 16, 16]
    # these images fit 8 bits, but the kernel element Y1^408*Y2 - Y3^4 does
    # not: in the second insert a signature step sets a guard bit mid-run
    widths.clear()
    monos = [Monomial(e) for e in ((0, 1), (4, 92), (1, 125))]
    ideal = toric_engine(2, [monos[0].exponents])
    ideal.insert(1, monos[1].exponents)
    assert widths == [8, 8]
    ideal.insert(2, monos[2].exponents)
    assert widths == [8, 8, 8, 16]
    assert ideal.kernel() == [((408, 1, 0), 1, (((0, 0, 4), -1),))]
    assert widths == [8, 8, 8, 16, 16]
    ref = eliminated_kernel([Polynomial.from_dict(R2, {m: 1}) for m in monos])
    assert toric_kernel(R2, monos).gens == ref


def test_toric_kernel_validation():
    with pytest.raises(ValueError, match="need at least one generator"):
        toric_kernel(R2, [])
    with pytest.raises(RingMismatchError):
        toric_kernel(R2, [Monomial((1, 0, 0))])
    with pytest.raises(ValueError, match="collide"):
        toric_kernel(R2, [Monomial((1, 0))], names=("x",))


def test_quadratic_initial_certificate():
    assert quadratic_initial_certificate([x**2 - y * z], DegLex()) is True
    assert quadratic_initial_certificate([x * y, y * z], Lex()) is True
    W4 = PolyRing(("y", "z", "w"))
    yy, zz, ww = W4.gens()
    assert quadratic_initial_certificate([yy**3 - zz**2 * ww], DegLex()) is False
    with pytest.raises(ValueError):
        quadratic_initial_certificate([x**2 - y], DegLex())


def test_step_limit():
    with pytest.raises(StepLimitExceeded):
        buchberger([x**2 - y, x * y - z, y**3 - x * z**2 + z], Lex(), step_limit=1)
    # generous budget succeeds
    gb = buchberger([x**2 - y, x * y - z], Lex(), step_limit=100)
    assert len(gb) == 4
    with pytest.raises(ValueError, match="step_limit must be a nonnegative integer, got -2"):
        buchberger([x**2 - y, x * y - z], Lex(), step_limit=-2)
    # a bool is an int to isinstance, but not a budget
    for flag in (True, False):
        with pytest.raises(ValueError, match=f"step_limit must be a nonnegative integer, got {flag}"):
            buchberger([x**2 - y, x * y - z], Lex(), step_limit=flag)


def test_step_limit_bounds_an_ungraded_toric_kernel(monkeypatch):
    # a monomial set with 1 is ungraded, so no grading bounds its kernel: with
    # 1 added, the five-monomial kernel of the CI check ran past 900 s on both
    # routes, and only a budget stops it
    monkeypatch.setenv("INITALG_STEP_LIMIT", "50")
    exps = [(0, 0, 0), (82, 24, 41), (273, 207, 16), (121, 176, 128), (233, 215, 74), (28, 16, 252)]
    with pytest.raises(StepLimitExceeded, match="exceeded 50 S-polynomial reductions"):
        toric_kernel(R, [Monomial(e) for e in exps])


@pytest.mark.parametrize(
    "names, gens, order, reductions",
    [
        (
            "x0 x1 x2 x3",
            ["x0 + x1 + x2 + x3", "x0*x1 + x1*x2 + x2*x3 + x3*x0",
             "x0*x1*x2 + x1*x2*x3 + x2*x3*x0 + x3*x0*x1", "x0*x1*x2*x3 - 1"],
            Lex(),
            5,
        ),
        (
            "u0 u1 u2 u3",
            KATSURA4,
            DegLex(),
            7,
        ),
        ("x y z", BLOWUP, Lex(), 17),
        ("x0 x1 x2 x3 x4", CYCLIC5, RevLex(), 34),
        ("u0 u1 u2 u3 u4", KATSURA5, RevLex(), 11),
    ],
    ids=["cyclic4-lex", "katsura4-deglex", "blowup-lex", "cyclic5-revlex", "katsura5-revlex"],
)
def test_s_polynomial_reduction_count(names, gens, order, reductions):
    # the generator order and the signature criteria fix how many candidates
    # the signature route reduces on these inhomogeneous systems
    ring = PolyRing(tuple(names.split()))
    polys = [ring.poly(g) for g in gens]
    with pytest.raises(StepLimitExceeded):
        buchberger(polys, order, step_limit=reductions - 1)
    buchberger(polys, order, step_limit=reductions)


def sympy_groebner(sympy, gens, order, name):
    """sympy's reduced basis of `gens`, monic and sorted as `buchberger` returns it."""
    ring = gens[0].ring
    syms = sympy.symbols(ring.names)
    exprs = [
        sum(sympy.Rational(t.coeff.numerator, t.coeff.denominator)
            * sympy.prod(v**e for v, e in zip(syms, t.mono.exponents)) for t in g.terms)
        for g in gens
    ]
    ref = []
    for e in sympy.groebner(exprs, *syms, order=name, domain="QQ").exprs:
        terms = sympy.Poly(e, *syms, domain="QQ").terms()
        p = Polynomial.from_dict(ring, {Monomial(m): Fraction(int(c.p), int(c.q)) for m, c in terms})
        ref.append(monic(p, order))
    ref.sort(key=lambda p: order.key(leading_monomial(p, order)))
    return tuple(ref)


def test_buchberger_matches_sympy_on_random_ideals():
    sympy = pytest.importorskip("sympy")
    orders = ((Lex(), "lex"), (DegLex(), "grlex"), (RevLex(), "grevlex"))
    budget = 40  # S-polynomial reductions: a count, not a clock, so the run is deterministic
    rng = random.Random(61)
    cut = compared = 0
    for k in range(90):
        order, name = orders[k % 3]
        gens = [random_poly(rng, R, max_terms=3, max_exp=3) for _ in range(2)]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        try:
            gb = buchberger(gens, order, step_limit=budget)
        except StepLimitExceeded:
            cut += 1
            continue
        assert sympy_groebner(sympy, gens, order, name) == gb.elements, (name, gens)
        compared += 1
    assert cut <= 0.05 * (cut + compared), f"{cut} of {cut + compared} ideals hit the budget of {budget}"


@pytest.mark.parametrize(
    "gens",
    [
        BLOWUP,
        ["4*x^3*y^2*z^3 + 2*y^2*z^3 - 4*x*y", "-2*x^3*y^3*z^3 + 2*x*y^3*z^3 - 4*x*y^3"],
    ],
    ids=["blowup", "swell"],
)
def test_buchberger_matches_sympy_on_lex_swell_cases(gens):
    # ideals whose rational coefficients swell under degree-first pair selection
    sympy = pytest.importorskip("sympy")
    polys = [R.poly(g) for g in gens]
    gb = buchberger(polys, Lex(), step_limit=40)
    assert sympy_groebner(sympy, polys, Lex(), "lex") == gb.elements


@pytest.mark.parametrize("call, error, message", [
    (lambda: eliminate([x - y], keep=(0, "x")), ValueError, "duplicate kept variable"),
    (lambda: eliminate([x - y], keep=(3,)), ValueError, "kept variable out of range"),
    (lambda: eliminate([x - y], keep=(-1,)), ValueError, "kept variable out of range"),
    (lambda: presentation_kernel([x, y], names=("A",)), ValueError, "need one fresh name per image"),
    (lambda: presentation_kernel([x, R.zero()]), ZeroPolynomialError, "kernel images must be nonzero"),
    # a constant would drop the grading that the finished basis was built under
    (lambda: toric_engine(1, [(1,)]).insert(0, (0,)), ValueError, "constant image"),
])
def test_elimination_and_kernel_input_validation(call, error, message):
    with pytest.raises(error, match=message):
        call()
