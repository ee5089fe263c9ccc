"""Koszul-strand Betti tables: fixtures, Euler identity, comparison theorem."""

from __future__ import annotations

import math
import random

from fractions import Fraction

import pytest

from initalg import betti
from initalg.betti import (
    BettiInconsistencyError,
    betti_comparison,
    default_internal_degree_bound,
    format_betti_table,
    graded_betti,
)
from initalg.groebner import buchberger
from initalg.hilbert import UnitIdealError, hilbert_series_monomial
from initalg.orders import DegLex, Lex, RevLex
from initalg.poly import PolyRing, parse_poly

from conftest import random_homogeneous_poly


def _polys(ring, *texts):
    return [parse_poly(ring, s) for s in texts]


def test_variables_give_koszul_diagonal():
    R = PolyRing(("x", "y"))
    T = graded_betti(_polys(R, "x", "y"))
    assert T.entries == {(0, 0): 1, (1, 1): 2, (2, 2): 1}
    assert T.complete
    assert (T.projective_dimension(), T.regularity()) == (2, 0)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_rational_normal_curve_matches_eagon_northcott(d):
    # the 2x2 minors of the 2 x d catalecticant: beta_{i,i+1} = i * C(d, i+1)
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
    # one run for I (the quotient table and ini(I) share it), one for ini(I)
    R = PolyRing(("x", "y", "z"))
    gens = _polys(R, "x^2 - y*z", "x*y")
    calls = []

    def counting(polys, order, *args, **kwargs):
        calls.append(order)
        return buchberger(polys, order, *args, **kwargs)

    monkeypatch.setattr(betti, "buchberger", counting)
    comp = betti_comparison(gens, DegLex())
    assert calls == [DegLex(), RevLex()]
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


def test_complete_intersection_quadrics():
    R = PolyRing(("x", "y"))
    T = graded_betti(_polys(R, "x^2", "y^2"))
    assert T.entries == {(0, 0): 1, (1, 2): 2, (2, 4): 1}
    assert (T.projective_dimension(), T.regularity()) == (2, 2)
