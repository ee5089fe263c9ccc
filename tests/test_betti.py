"""Koszul-strand Betti tables: fixtures, Euler identity, comparison theorem."""

from __future__ import annotations

import math
import random

from fractions import Fraction
from functools import cache
from itertools import combinations

import pytest

from initalg import betti
from initalg.betti import (
    BettiInconsistencyError,
    BettiTable,
    betti_comparison,
    default_internal_degree_bound,
    format_betti_table,
    graded_betti,
)
from initalg.groebner import MonomialIdeal, buchberger
from initalg.hilbert import UnitIdealError, hilbert_series_monomial
from initalg.linalg import exact_rank_sparse
from initalg.orders import DegLex, Lex, RevLex
from initalg.poly import Monomial, PolyRing, Polynomial, WeightVector, parse_poly

from conftest import random_homogeneous_poly


def _polys(ring, *texts):
    return [parse_poly(ring, s) for s in texts]


def test_variables_give_koszul_diagonal():
    R = PolyRing(("x", "y"))
    T = graded_betti(_polys(R, "x", "y"))
    assert T.entries == {(0, 0): 1, (1, 1): 2, (2, 2): 1}
    assert T.complete
    assert (T.projective_dimension(), T.regularity()) == (2, 0)


def _unreachable(*args):
    raise AssertionError("this route must not run")


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_rational_normal_curve_matches_eagon_northcott(d, monkeypatch):
    # the 2x2 minors of the 2 x d catalecticant: beta_{i,i+1} = i * C(d, i+1);
    # the revlex ini(I), all quadrics in x1..x_{d-1}, has linear quotients,
    # and no strand of R/I is ranked, so neither the lcm lattice nor the
    # reduced basis is needed
    monkeypatch.setattr(betti, "_lattice_entries", _unreachable)
    monkeypatch.setattr(betti, "_reduced_basis", _unreachable)
    R = PolyRing(tuple(f"x{i}" for i in range(d + 1)))
    minors = [f"x{i}*x{j + 1} - x{j}*x{i + 1}" for i in range(d) for j in range(i + 1, d)]
    T = graded_betti(_polys(R, *minors))
    expected = {(i, i + 1): i * math.comb(d, i + 1) for i in range(1, d)}
    assert T.complete and T.entries == {(0, 0): 1, **expected}


@pytest.mark.parametrize("d", [3, 4])
def test_scaled_rational_normal_curve_keeps_eagon_northcott(d):
    # x_i -> c_i * x_i is a change of coordinates, so the table is unchanged;
    # the monic reduced basis now has non-integer coefficients
    c = [1, 2, 3, 5, 7][: d + 1]
    R = PolyRing(tuple(f"x{i}" for i in range(d + 1)))
    minors = [
        f"{c[i] * c[j + 1]}*x{i}*x{j + 1} - {c[j] * c[i + 1]}*x{j}*x{i + 1}"
        for i in range(d)
        for j in range(i + 1, d)
    ]
    gens = _polys(R, *minors)
    assert any(t.coeff.denominator > 1 for g in buchberger(gens, RevLex()) for t in g.terms)
    T = graded_betti(gens)
    expected = {(i, i + 1): i * math.comb(d, i + 1) for i in range(1, d)}
    assert T.complete and T.entries == {(0, 0): 1, **expected}


def test_monomial_pair_fixture():
    R = PolyRing(("x", "y"))
    T = graded_betti(_polys(R, "x^2", "x*y"))
    assert T.entries == {(0, 0): 1, (1, 2): 2, (2, 3): 1}
    assert (T.projective_dimension(), T.regularity()) == (2, 1)


def test_zero_ideal():
    R = PolyRing(("x", "y", "z"))
    T = graded_betti([R.zero()])
    assert T.entries == {(0, 0): 1}
    assert T.complete
    assert (T.projective_dimension(), T.regularity()) == (0, 0)


def test_unit_ideal_has_no_table():
    R = PolyRing(("x", "y"))
    for texts in (("1",), ("x", "3")):
        with pytest.raises(UnitIdealError, match="unit ideal"):
            graded_betti(_polys(R, *texts))


def test_principal_binomial_matches_its_initial_ideal():
    R = PolyRing(("x", "y"))
    cmp = betti_comparison(_polys(R, "x^2 - y^2"), DegLex())
    assert cmp.quotient.entries == {(0, 0): 1, (1, 2): 1}
    assert cmp.initial.entries == {(0, 0): 1, (1, 2): 1}
    assert cmp.projdim == (1, 1)
    assert cmp.regularity == (1, 1)


def test_default_bound_is_lcm_degree():
    R = PolyRing(("x", "y"))
    gb = buchberger(_polys(R, "x^2", "x*y"), RevLex())
    assert default_internal_degree_bound(gb.initial_ideal()) == 3  # lcm = x^2 y


def test_table_cut_below_the_lcm_lattice_is_never_complete():
    # beta_{2,8} and beta_{3,8} cancel in the Hilbert numerator, which ends in
    # degree 7; a table cut at 7 misses beta_{3,8} and must not claim pd 2
    R = PolyRing(("x", "y", "z", "w"))
    gens = _polys(R, "x*y^2*w", "y*z*w", "y^3*w^3", "x^3*y^3*z")
    numerator = hilbert_series_monomial(buchberger(gens, RevLex()).initial_ideal()).numerator
    assert len(numerator) == 8
    full = graded_betti(gens)
    assert full.complete and full.beta(3, 8) == 1 and full.projective_dimension() == 3
    for j_max in (7, 8, 9):
        T = graded_betti(gens, j_max=j_max)
        assert not T.complete and T.j_max == j_max
        assert T.entries == {k: v for k, v in full.entries.items() if k[1] <= j_max}
        with pytest.raises(ValueError):
            T.projective_dimension()
    assert full.j_max == 10 and graded_betti(gens, j_max=10) == full


def test_truncated_table_refuses_projdim():
    R = PolyRing(("x", "y"))
    T = graded_betti(_polys(R, "x^2", "x*y"), j_max=1)
    assert not T.complete
    with pytest.raises(ValueError):
        T.projective_dimension()
    with pytest.raises(ValueError):
        T.regularity()


def test_inhomogeneous_rejected():
    R = PolyRing(("x", "y"))
    with pytest.raises(ValueError):
        graded_betti(_polys(R, "x^2 - y"))


def test_strict_inequality_case():
    # lead terms x^2, xy generate more syzygies than the binomial ideal itself
    R = PolyRing(("x", "y", "z"))
    cmp = betti_comparison(_polys(R, "x^2 - y*z", "x*y"), Lex())
    for key, beta in cmp.quotient.entries.items():
        assert beta <= cmp.initial.beta(*key)
    assert cmp.projdim[0] <= cmp.projdim[1]
    assert cmp.regularity[0] <= cmp.regularity[1]


def test_comparison_computes_the_basis_of_i_once(monkeypatch):
    # one pair loop for I: ini(I) comes from its leads, and the reduced basis
    # that ranks the strands is built once, from the same rows
    R = PolyRing(("x", "y", "z"))
    gens = _polys(R, "x^2 - y*z", "x*y")
    loops, reductions = [], []
    pair_loop, reduced_basis = betti._groebner_rows, betti._reduced_basis

    def counting_loop(polys, order, step_limit):
        loops.append(pair_loop(polys, order, step_limit))
        return loops[-1]

    def counting_reduction(ring, order, rows):
        reductions.append(rows)
        return reduced_basis(ring, order, rows)

    monkeypatch.setattr(betti, "_groebner_rows", counting_loop)
    monkeypatch.setattr(betti, "_reduced_basis", counting_reduction)
    comp = betti_comparison(gens, DegLex())
    assert len(loops) == 1 and loops[0].order == DegLex()
    assert len(reductions) == 1 and reductions[0] is loops[0]
    assert comp.quotient != comp.initial  # a strand of R/I was ranked
    monkeypatch.undo()
    ini = buchberger(gens, DegLex()).initial_ideal()
    assert comp.quotient == graded_betti(gens, order=DegLex())
    assert comp.initial == graded_betti(list(ini.polynomials()))


def test_euler_characteristic_reconstructs_numerator():
    R = PolyRing(("x", "y", "z"))
    gens = _polys(R, "x*y - z^2", "x^2*z")
    T = graded_betti(gens, order=DegLex())
    gb = buchberger(gens, DegLex())
    numerator = hilbert_series_monomial(gb.initial_ideal()).numerator
    for j in range(T.j_max + 1):
        euler = sum((-1) ** i * T.beta(i, j) for i in range(R.n + 1))
        expected = numerator[j] if j < len(numerator) else 0
        assert euler == expected


def test_betti_independent_of_order_used_for_normal_forms():
    R = PolyRing(("x", "y", "z"))
    gens = _polys(R, "x^2 - y*z", "x*y - z^2")
    bound = 6
    tables = [graded_betti(gens, j_max=bound, order=o) for o in (Lex(), DegLex(), RevLex())]
    assert tables[0].entries == tables[1].entries == tables[2].entries


def test_randomized_comparison_never_violates_inequalities():
    rng = random.Random(20240)
    R = PolyRing(("x", "y", "z"))
    for _ in range(12):
        gens = [
            random_homogeneous_poly(rng, R, rng.randint(2, 3))
            for _ in range(rng.randint(1, 2))
        ]
        gens = [g for g in gens if not g.is_zero()] or [R.zero()]
        cmp = betti_comparison(gens, DegLex())  # raises on any violation
        assert cmp.quotient.complete and cmp.initial.complete


def test_negative_entry_impossible_on_fixtures():
    R = PolyRing(("x", "y"))
    # exercise the guard path indirectly: all fixture entries must be >= 0
    for texts in (("x",), ("x^2", "y^2"), ("x*y",), ("x^2 - y^2",)):
        T = graded_betti(_polys(R, *texts), order=DegLex())
        assert all(v > 0 for v in T.entries.values())


def test_format_betti_table_layout():
    R = PolyRing(("x", "y"))
    out = format_betti_table(graded_betti(_polys(R, "x^2", "x*y")))
    lines = out.splitlines()
    assert lines[0].split() == ["0", "1", "2"]
    assert lines[1].split() == ["0", "1", ".", "."]
    assert lines[2].split() == ["1", ".", "2", "1"]
    # graded_betti always has beta_{0,0} = 1; only a table built by hand is empty
    assert format_betti_table(BettiTable(R, {}, 0, True)) == "(zero table)"


def test_complete_intersection_quadrics():
    R = PolyRing(("x", "y"))
    T = graded_betti(_polys(R, "x^2", "y^2"))
    assert T.entries == {(0, 0): 1, (1, 2): 2, (2, 4): 1}
    assert (T.projective_dimension(), T.regularity()) == (2, 2)


def _strand_reference(gens, order, j_max=None):
    """(entries, j_max) of R/I from every Koszul strand up to j_max.

    Ranks each differential d_{i,j} of the Koszul complex tensored with R/I
    through normal forms, for every i and every j <= j_max: a reference that
    uses neither the lcm lattice nor the initial ideal's table.
    """
    gb = buchberger(gens, order)
    ring, n = gb.ring, gb.ring.n
    ini = gb.initial_ideal()
    if j_max is None:
        j_max = default_internal_degree_bound(ini)
    series = hilbert_series_monomial(ini)
    hf = series.expand(j_max)
    std = {d: ini.standard_monomials(WeightVector.ones(n), d) for d in range(j_max + 1)}
    column = {d: {m.exponents: k for k, m in enumerate(ms)} for d, ms in std.items()}

    @cache
    def normal_form(exps):
        return gb.normal_form(Polynomial.from_dict(ring, {Monomial(exps): Fraction(1)}))

    @cache
    def rank(i, j):
        if i < 1 or i > n or j - i < 0 or j - i + 1 > j_max:
            return 0
        blocks = {S: k for k, S in enumerate(combinations(range(n), i - 1))}
        width = len(std[j - i + 1])
        rows = []
        for S in combinations(range(n), i):
            for m in std[j - i]:
                row = {}
                for pos, var in enumerate(S):
                    exps = list(m.exponents)
                    exps[var] += 1
                    base = blocks[S[:pos] + S[pos + 1:]] * width
                    for t in normal_form(tuple(exps)).terms:
                        row[base + column[j - i + 1][t.mono.exponents]] = (-1) ** pos * t.coeff
                rows.append(row)
        return exact_rank_sparse(rows)

    entries = {}
    for j in range(j_max + 1):
        for i in range(min(j, n) + 1):
            beta = math.comb(n, i) * hf[j - i] - rank(i, j) - rank(i + 1, j)
            if beta:
                entries[(i, j)] = beta
    return entries, j_max


def test_lattice_route_matches_strand_reference_on_random_ideals(monkeypatch):
    # the closed form is refused, so every ini(I) goes through the lcm lattice
    refused = []
    monkeypatch.setattr(betti, "_linear_quotients", lambda gens: refused.append(gens))
    rng = random.Random(1313)
    orders = (Lex(), DegLex(), RevLex())
    cancelled = 0
    for k in range(120):
        R = PolyRing(("x", "y", "z", "w")[: rng.choice((3, 4))])
        gens = [
            random_homogeneous_poly(rng, R, rng.randint(2, 3))
            for _ in range(rng.randint(1, 3))
        ]
        order = orders[k % 3]
        cmp = betti_comparison(gens, order)
        ini = buchberger(gens, order).initial_ideal()
        assert (cmp.quotient.entries, cmp.quotient.j_max) == _strand_reference(gens, order)
        assert (cmp.initial.entries, cmp.initial.j_max) == \
            _strand_reference(list(ini.polynomials()), RevLex())
        assert cmp.quotient.complete and cmp.initial.complete
        cancelled += cmp.quotient.entries != cmp.initial.entries
        j_max = rng.randint(0, cmp.quotient.j_max - 1)
        T = graded_betti(gens, j_max=j_max, order=order)
        assert (T.entries, T.j_max) == _strand_reference(gens, order, j_max)
        # below the top of the lcm lattice an entry may be missing, even where
        # the Hilbert numerator has already ended
        assert not T.complete
    # the correction from ini(I) to I is exercised, not only the lattice route
    assert cancelled >= 10 and len(refused) >= 120


@pytest.mark.parametrize(
    "names, texts, expected, linear",
    [
        # no linear quotients: y^2 / gcd(x^2, y^2) = y^2, and likewise z*w
        (("x", "y"), ("x^2", "y^2"), {(0, 0): 1, (1, 2): 2, (2, 4): 1}, False),
        (("x", "y", "z", "w"), ("x*y", "z*w"), {(0, 0): 1, (1, 2): 2, (2, 4): 1}, False),
        (("x", "y"), ("x^2", "x*y"), {(0, 0): 1, (1, 2): 2, (2, 3): 1}, True),
        # Stanley-Reisner ideal of the 5-cycle a-b-c-d-e: its non-edges
        (("a", "b", "c", "d", "e"), ("a*c", "a*d", "b*d", "b*e", "c*e"),
         {(0, 0): 1, (1, 2): 5, (2, 3): 5, (3, 5): 1}, False),
    ],
    ids=["complete-intersection", "two-disjoint-products", "x2-xy", "five-cycle"],
)
def test_lcm_lattice_route_on_known_monomial_tables(names, texts, expected, linear, monkeypatch):
    R = PolyRing(names)
    ini = buchberger(_polys(R, *texts), RevLex()).initial_ideal()
    gens = [m.exponents for m in ini.mingens]
    bound = default_internal_degree_bound(ini)
    assert betti._lattice_entries(gens, bound) == expected
    assert (betti._linear_quotients(gens) is not None) == linear
    # the lattice route runs exactly when the search finds no order
    calls = []
    lattice = betti._lattice_entries
    monkeypatch.setattr(betti, "_lattice_entries",
                        lambda gens, j_max: calls.append(gens) or lattice(gens, j_max))
    assert betti._initial_entries(ini, bound) == expected
    assert graded_betti(_polys(R, *texts)).entries == expected
    assert len(calls) == (0 if linear else 2)


def test_closed_form_matches_lattice_route_on_random_monomial_ideals():
    rng = random.Random(2002)
    names = ("x", "y", "z", "w")
    closed = lattice = 0
    for _ in range(200):
        R = PolyRing(names[: rng.randint(2, 4)])
        monos = [Monomial(tuple(rng.randint(0, 3) for _ in range(R.n)))
                 for _ in range(rng.randint(1, 6))]
        ini = MonomialIdeal.from_monomials(R, [m for m in monos if m.degree()])
        gens = [m.exponents for m in ini.mingens]
        taylor = default_internal_degree_bound(ini)
        for j_max in (taylor, rng.randint(0, taylor)):
            assert betti._initial_entries(ini, j_max) == betti._lattice_entries(gens, j_max)
        if betti._linear_quotients(gens) is None:
            lattice += 1
        else:
            closed += 1
            # through graded_betti, whose per-degree Euler check against the
            # Hilbert numerator must accept the closed form
            assert graded_betti(list(ini.polynomials()) or [R.zero()]).entries == \
                betti._lattice_entries(gens, taylor)
    # both routes are exercised
    assert closed >= 100 and lattice >= 20


@pytest.mark.parametrize("shift", [1, -1])
def test_wrong_closed_form_fails_the_euler_check(shift, monkeypatch):
    # (x^2, x*y) has r = 0, 1; a wrong r_k changes the alternating sum of a degree
    R = PolyRing(("x", "y"))
    search = betti._linear_quotients
    assert search([(2, 0), (1, 1)]) == [(2, 0), (2, 1)]
    monkeypatch.setattr(betti, "_linear_quotients",
                        lambda gens: [(d, r + shift * (k == 1)) for k, (d, r) in enumerate(search(gens))])
    with pytest.raises(BettiInconsistencyError, match="Euler check failed in degree 3"):
        graded_betti(_polys(R, "x^2", "x*y"))


def _scaled_minors(rng, rows, cols):
    """2x2 minors of a generic rows x cols matrix with randomly scaled entries."""
    names = tuple(f"x{r}{c}" for r in range(rows) for c in range(cols))
    R = PolyRing(names)
    s = {v: rng.randint(1, 5) for v in names}
    minors = [
        f"{s[f'x{r}{c}'] * s[f'x{q}{e}']}*x{r}{c}*x{q}{e} - "
        f"{s[f'x{r}{e}'] * s[f'x{q}{c}']}*x{r}{e}*x{q}{c}"
        for r in range(rows) for q in range(r + 1, rows)
        for c in range(cols) for e in range(c + 1, cols)
    ]
    return _polys(R, *minors)


def test_squarefree_initial_ideal_keeps_projdim_and_regularity(monkeypatch):
    # Conca-Varbaro: a squarefree ini(I) has the pd and reg of I; the
    # diagonal lex order makes the initial ideal of the minors squarefree
    checked = []
    check = betti._check_squarefree_transfer
    monkeypatch.setattr(betti, "_check_squarefree_transfer",
                        lambda quotient, initial: checked.append(quotient) or check(quotient, initial))
    rng = random.Random(2020)
    for _ in range(6):
        gens = _scaled_minors(rng, *rng.choice([(2, 3), (2, 4), (3, 3)]))
        ini = buchberger(gens, Lex()).initial_ideal()
        assert all(e <= 1 for m in ini.mingens for e in m.exponents)
        cmp = betti_comparison(gens, Lex())
        assert cmp.projdim[0] == cmp.projdim[1] and cmp.regularity[0] == cmp.regularity[1]
    assert len(checked) == 6
    # not checked: a table cut below the lcm lattice, and a non-squarefree
    # ini(I), here x1^2 from the twisted cubic under revlex
    graded_betti(gens, j_max=2, order=Lex())
    R = PolyRing(("x0", "x1", "x2", "x3"))
    graded_betti(_polys(R, "x0*x2 - x1^2", "x0*x3 - x1*x2", "x1*x3 - x2^2"), order=RevLex())
    assert len(checked) == 6


def test_squarefree_transfer_check_raises_on_a_mismatch():
    R = PolyRing(("x", "y"))
    initial = BettiTable(R, {(0, 0): 1, (1, 2): 2, (2, 3): 1}, 3, True)
    quotient = BettiTable(R, {(0, 0): 1, (1, 2): 1}, 3, True)
    with pytest.raises(BettiInconsistencyError, match="projective dimension 1 != 2"):
        betti._check_squarefree_transfer(quotient, initial)


@pytest.mark.parametrize("j_max", [-1, -4])
def test_negative_degree_bound_is_refused(j_max):
    R = PolyRing(("x", "y"))
    with pytest.raises(ValueError, match="j_max must be nonnegative"):
        graded_betti(_polys(R, "x^2", "x*y"), j_max)


@pytest.mark.parametrize("j_max", [True, False, 2.5, "3", Fraction(3)])
def test_non_integer_degree_bound_is_refused(j_max):
    # True used to give a table cut at degree 1, and 2.5 or "3" a TypeError
    R = PolyRing(("x", "y"))
    with pytest.raises(ValueError, match="j_max must be an integer"):
        graded_betti(_polys(R, "x^2", "x*y"), j_max)


def test_empty_generator_list_is_refused():
    with pytest.raises(ValueError, match="need generators"):
        graded_betti([])
    with pytest.raises(ValueError, match="need generators"):
        betti_comparison([])


def test_comparison_defaults_to_revlex():
    R = PolyRing(("x", "y", "z"))
    gens = _polys(R, "x^2 - y*z", "x*y - z^2")
    assert betti_comparison(gens) == betti_comparison(gens, RevLex())
    assert betti_comparison(gens) != betti_comparison(gens, Lex())
