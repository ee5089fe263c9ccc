"""End-to-end acceptance checks; each prints one PASS/FAIL line when run.

The ten checks cover, in order: leading monomials under the three classical
orders, truncated subduction bases of an infinitely generated initial algebra,
the exact presentation/toric kernel fixtures, the induced-weight kernel check,
weight representation of orders with a Farkas counterexample, the
homogenization flat family, Hilbert-function and dimension transfer, Betti
number bounds, Hilbert-series symmetry certificates, and byte-determinism of
the command-line surface.
"""

from __future__ import annotations

import functools
import random
import subprocess
import sys

import pytest

from initalg.betti import betti_comparison, graded_betti
from initalg.family import fiber, freeness_basis_check, homogenize_ideal
from initalg.groebner import (
    MonomialIdeal,
    buchberger,
    initial_ideal_weight,
    presentation_kernel,
    toric_kernel,
)
from initalg.hilbert import (
    HilbertSeries,
    compare_hilbert,
    gorenstein_symmetry_check,
    hilbert_series_monomial,
    hilbert_series_subalgebra,
    krull_dim_monomial,
)
from initalg.orders import DegLex, Lex, RevLex, WeightOrder, leading_monomial, leading_term
from initalg.poly import (
    Polynomial,
    PolyRing,
    WeightVector,
    initial_form,
    is_weight_homogeneous,
    parse_poly,
    weighted_degree,
)
from initalg.sagbi import initial_algebra_gens, kernel_initial_check, sagbi_complete
from initalg.weights import InfeasibleComparisons, find_weight, represent_order_by_weight

from conftest import (
    ACCEPTANCE_DETAILS,
    random_homogeneous_poly,
    random_poly,
    sample_orders,
)


def acceptance(label):
    """Mark a check for the one-line-per-check summary block."""

    def deco(fn):
        @pytest.mark.acceptance(label)
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            ACCEPTANCE_DETAILS[label] = fn(*args, **kwargs) or ""

        return wrapper

    return deco


def _monic_term_poly(ring, term):
    return Polynomial.from_dict(ring, {term.mono: term.coeff})


# 1 ------------------------------------------------------------------------


@acceptance("leading-monomials")
def test_leading_monomials_of_three_term_example():
    ring = PolyRing(("X1", "X2", "X3", "X4"))
    f = parse_poly(ring, "X1 + X2*X4 + X3^2")
    assert leading_monomial(f, Lex()) == ring.monomial((1, 0, 0, 0))
    assert leading_monomial(f, DegLex()) == ring.monomial((0, 1, 0, 1))
    assert leading_monomial(f, RevLex()) == ring.monomial((0, 0, 2, 0))
    return "lex X1, deglex X2*X4, revlex X3^2"


# 2 ------------------------------------------------------------------------


@acceptance("infinite-sagbi-truncation")
def test_truncated_subduction_basis_and_hilbert_values():
    ring = PolyRing(("x", "y"))
    gens = [parse_poly(ring, s) for s in ("x + y", "x*y", "x*y^2")]
    reference = HilbertSeries((1, -1, 1), (1, 1))
    for cap in (4, 6, 8):
        state = sagbi_complete(gens, DegLex(), cap)
        assert state.truncated_at == cap
        monos = initial_algebra_gens(state)
        assert list(monos) == [ring.monomial((1, k)) for k in range(cap)]
        values = hilbert_series_subalgebra(state, d_max=cap - 1)
        assert values == tuple([1] + list(range(1, cap)))
        assert values == reference.expand(cap - 1)
    # the mirrored generator set under the order preferring y behaves the same
    mirrored = [parse_poly(ring, s) for s in ("x + y", "x*y", "x^2*y")]
    order = DegLex(perm=(1, 0))
    for cap in (4, 6, 8):
        state = sagbi_complete(mirrored, order, cap)
        assert state.truncated_at == cap
        monos = initial_algebra_gens(state)
        assert sorted(m.exponents for m in monos) == [(k, 1) for k in range(cap)]
        values = hilbert_series_subalgebra(state, d_max=cap - 1)
        assert values == reference.expand(cap - 1)
    return "caps 4, 6, 8 truncate as predicted in both variable roles"


# 3 ------------------------------------------------------------------------


@acceptance("kernel-fixtures")
def test_presentation_and_toric_kernels_exact():
    ring = PolyRing(("x", "y", "z"))
    images = [parse_poly(ring, s) for s in ("x^2 - z^2", "x*y", "y^2", "y*z")]
    kernel = presentation_kernel(images, names=("T", "U", "V", "W"))
    assert kernel.gens == (parse_poly(kernel.ring, "U^2 - T*V - W^2"),)
    monos = [parse_poly(ring, s).terms[0].mono for s in ("x^2", "x*y", "y^2", "y*z")]
    toric = toric_kernel(ring, monos, names=("T", "U", "V", "W"))
    assert toric.gens == (parse_poly(toric.ring, "U^2 - T*V"),)
    return "U^2 - T*V - W^2 and U^2 - T*V, exactly"


# 4 ------------------------------------------------------------------------


@acceptance("kernel-initial-check")
def test_induced_weight_kernel_agreement():
    ring = PolyRing(("x", "y", "z"))
    gens = [parse_poly(ring, s) for s in ("x^2 - z^2", "x*y", "y^2", "y*z")]
    report = kernel_initial_check(gens, WeightVector((3, 2, 1)), names=("T", "U", "V", "W"))
    assert report.ok
    assert report.image_weights.entries == (6, 5, 4, 3)
    assert report.kernel_initial_forms == (parse_poly(report.kernel.ring, "U^2 - T*V"),)
    return "induced weights (6,5,4,3); initial form of the relation is U^2 - T*V"


# 5 ------------------------------------------------------------------------


def _weight_round_trip_closes(gens, order):
    gb = buchberger(gens, order)
    a = represent_order_by_weight(gens, order)
    for g in gb.elements:
        lt = leading_term(g, order)
        assert initial_form(g, a) == _monic_term_poly(g.ring, lt)
    forms = initial_ideal_weight(gens, a, tiebreak=order)
    regenerated = MonomialIdeal.from_monomials(
        gens[0].ring, [leading_monomial(f, order) for f in forms]
    )
    assert all(len(f.terms) == 1 for f in forms)
    assert regenerated.mingens == gb.initial_ideal().mingens


@acceptance("order-by-weight-round-trip")
def test_weight_representation_round_trip_and_farkas():
    ring = PolyRing(("x", "y", "z"))
    gens = [parse_poly(ring, s) for s in ("x^2 - y", "x*y - z")]
    a = represent_order_by_weight(gens, Lex())
    regenerated = buchberger(gens, WeightOrder(a, Lex())).initial_ideal()
    assert set(regenerated.mingens) == {
        ring.monomial((2, 0, 0)),
        ring.monomial((1, 1, 0)),
        ring.monomial((1, 0, 1)),
        ring.monomial((0, 3, 0)),
    }
    x, y = ring.monomial((1, 0, 0)), ring.monomial((0, 1, 0))
    try:
        find_weight([(x, y), (y, x)])
        raise AssertionError("contradictory comparisons accepted")
    except InfeasibleComparisons as exc:
        cert = exc.certificate
        assert cert is not None and any(cert) and all(c >= 0 for c in cert)
        # the certified nonnegative combination of the differences is <= 0
        combo = [0, 0, 0]
        for c, (m, n) in zip(cert, exc.pairs):
            for i in range(3):
                combo[i] += c * (m.exponents[i] - n.exponents[i])
        assert all(v <= 0 for v in combo)
    rng = random.Random(50501)
    runs = 0
    while runs < 50:
        gens = [
            random_homogeneous_poly(rng, ring, rng.randint(1, 3))
            for _ in range(rng.randint(1, 3))
        ]
        orders = rng.sample(sample_orders(3), 2)
        for order in orders:
            _weight_round_trip_closes(gens, order)
        runs += 1
    return "lex fixture regenerated; Farkas certificate valid; 50 random ideals close"


# 6 ------------------------------------------------------------------------


@acceptance("flat-family-fibers")
def test_family_interpolates_and_is_free():
    rng = random.Random(60601)
    ring = PolyRing(("x", "y", "z"))
    for _ in range(50):
        gens = []
        while not gens:
            gens = [random_poly(rng, ring, max_terms=3, max_exp=2) for _ in range(2)]
            gens = [g for g in gens if not g.is_zero()]
        a = WeightVector(tuple(rng.randint(1, 4) for _ in range(3)))
        fam = homogenize_ideal(gens, a)
        at_one = buchberger(list(fiber(fam, 1)), fam.base_gb.order)
        assert at_one.elements == fam.base_gb.elements
        assert set(fiber(fam, 0)) == {initial_form(g, a) for g in fam.base_gb}
        a_ext = a.extend()
        assert all(is_weight_homogeneous(g, a_ext) for g in fam.total)
        maxdeg = max((weighted_degree(g, a) for g in fam.base_gb), default=1)
        report = freeness_basis_check(fam, 2 * maxdeg)
        assert report.ok
    return "50 random ideals: fibers at 1 and 0 correct, free through twice the top degree"


# 7 ------------------------------------------------------------------------


@acceptance("hilbert-dimension-transfer")
def test_hilbert_function_and_dimension_are_order_independent():
    rng = random.Random(70701)
    ring = PolyRing(("x", "y", "z"))
    for _ in range(50):
        b = WeightVector(tuple(rng.randint(1, 3) for _ in range(3)))
        gens = []
        for _ in range(rng.randint(1, 2)):
            exps = [rng.randint(0, 2) for _ in range(3)]
            if not any(exps):
                exps[rng.randrange(3)] = 1
            d = sum(e * w for e, w in zip(exps, b.entries))
            gens.append(random_homogeneous_poly(rng, ring, d, weight=b))
        first, second = rng.sample(sample_orders(3), 2)
        cmp = compare_hilbert(gens, first, second, grading=b, d_max=12)
        assert cmp.ok and cmp.first_values == cmp.second_values
        dims = {
            krull_dim_monomial(buchberger(gens, o).initial_ideal())
            for o in (first, second, DegLex())
        }
        assert len(dims) == 1
    return "50 random graded ideals: values equal through degree 12, dimension stable"


# 8 ------------------------------------------------------------------------


@acceptance("betti-number-bounds")
def test_betti_tables_bounded_by_initial_tables():
    ring2 = PolyRing(("x", "y"))
    ring3 = PolyRing(("x", "y", "z"))
    fixtures = [
        (ring2, ("x", "y")),
        (ring2, ("x^2", "x*y")),
        (ring2, ("x^2 - y^2",)),
        (ring3, ("x^2 - y*z", "x*y")),
    ]
    for ring, texts in fixtures:
        cmp = betti_comparison([parse_poly(ring, s) for s in texts], DegLex())
        assert cmp.projdim[0] <= cmp.projdim[1]
        assert cmp.regularity[0] <= cmp.regularity[1]
    koszul = graded_betti([parse_poly(ring2, "x"), parse_poly(ring2, "y")])
    assert koszul.entries == {(0, 0): 1, (1, 1): 2, (2, 2): 1}
    monomial_cmp = betti_comparison([parse_poly(ring2, s) for s in ("x^2", "x*y")], DegLex())
    assert monomial_cmp.quotient.entries == monomial_cmp.initial.entries
    rng = random.Random(80801)
    for _ in range(20):
        gens = [
            random_homogeneous_poly(rng, ring3, rng.randint(2, 3))
            for _ in range(rng.randint(1, 2))
        ]
        betti_comparison(gens, DegLex())  # raises on any violated inequality
    return "fixtures and 20 random ideals: no bound violated; 1,2,1 diagonal exact"


# 9 ------------------------------------------------------------------------


@acceptance("series-symmetry-certificate")
def test_palindromic_series_certificates():
    ring = PolyRing(("x", "y", "z"))
    images = [parse_poly(ring, s) for s in ("x^2 - z^2", "x*y", "y^2", "y*z")]
    kernel = presentation_kernel(images, names=("T", "U", "V", "W"))
    gb = buchberger(list(kernel.gens), DegLex())
    series = hilbert_series_monomial(gb.initial_ideal()).reduced()
    assert series.numerator == (1, 1)
    assert series.denominator_degrees == (1, 1, 1)
    assert gorenstein_symmetry_check(series)
    ring2 = PolyRing(("x", "y"))
    counter = hilbert_series_monomial(
        buchberger([parse_poly(ring2, s) for s in ("x^2", "x*y")], DegLex()).initial_ideal()
    )
    assert not gorenstein_symmetry_check(counter)
    return "(1 + t)/(1-t)^3 certified symmetric; (x^2, x*y) quotient rejected"


# 10 -----------------------------------------------------------------------


def _cli(args):
    proc = subprocess.run(
        [sys.executable, "-m", "initalg", *args],
        capture_output=True,
        check=False,
    )
    return proc.returncode, proc.stdout


@acceptance("cli-byte-determinism")
def test_every_command_is_byte_deterministic(tmp_path):
    ideal = "ring x, y, z\norder lex\nweight 2, 1, 1\nideal\nx^2 - y\nx*y - z\nend\n"
    ideal_perm = "ring x, y, z\norder lex\nweight 2, 1, 1\nideal\nx*y - z\nx^2 - y\nend\n"
    homog = "ring x, y\nideal\nx^2\nx*y\nend\n"
    homog_perm = "ring x, y\nideal\nx*y\nx^2\nend\n"
    algebra = "ring x, y\nalgebra\nx + y\nx*y\nx*y^2\nend\n"
    algebra_perm = "ring x, y\nalgebra\nx*y^2\nx + y\nx*y\nend\n"
    paths = {}
    for name, text in (
        ("ideal", ideal), ("ideal_perm", ideal_perm),
        ("homog", homog), ("homog_perm", homog_perm),
        ("algebra", algebra), ("algebra_perm", algebra_perm),
    ):
        p = tmp_path / f"{name}.txt"
        p.write_text(text)
        paths[name] = str(p)
    commands = [
        (["gb"], "ideal"),
        (["ini"], "ideal"),
        (["ini", "--weight", "2,1,1"], "ideal"),
        (["sagbi", "--cap", "5"], "algebra"),
        (["weight"], "ideal"),
        (["family", "--fiber", "1/2", "--freeness-bound", "6"], "ideal"),
        (["hilbert", "--dmax", "8"], "ideal"),
        (["hilbert", "--dmax", "5"], "algebra"),
        (["dim"], "ideal"),
        (["betti"], "homog"),
    ]
    for flags, kind in commands:
        first = _cli([flags[0], paths[kind], *flags[1:]])
        second = _cli([flags[0], paths[kind], *flags[1:]])
        permuted = _cli([flags[0], paths[f"{kind}_perm"], *flags[1:]])
        assert first == second == permuted
        assert first[0] == 0
    v1, v2 = _cli(["verify"]), _cli(["verify"])
    assert v1 == v2 and v1[0] == 0
    return "all commands byte-identical across reruns and generator permutations"
