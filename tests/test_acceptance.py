"""End-to-end acceptance checks; each prints one PASS/FAIL line when run.

Each check runs one `initalg verify` scenario from `initalg.cli.SCENARIOS`,
where its fixed fixture and expected values are written, and is labelled
with the scenario's name. The checks add what the scenario leaves out: a
higher Sagbi cap and the mirrored generators, seeded random sweeps, and a
subprocess sweep over every command. The ten scenarios cover, in order:
leading monomials under the three classical orders, truncated subduction
bases of an infinitely generated initial algebra, the exact
presentation/toric kernel fixtures, the induced-weight kernel check, weight
representation of orders with a Farkas counterexample, the homogenization
flat family, Hilbert-function and dimension transfer, Betti number bounds,
Hilbert-series symmetry certificates, and byte-determinism of the
command-line surface.
"""

from __future__ import annotations

import functools
import random
import subprocess
import sys

import pytest

from initalg.betti import betti_comparison
from initalg.cli import SCENARIOS
from initalg.family import fiber, freeness_basis_check, homogenize_ideal
from initalg.groebner import MonomialIdeal, buchberger, initial_ideal_weight
from initalg.hilbert import (
    HilbertSeries,
    compare_hilbert,
    hilbert_series_subalgebra,
    krull_dim_monomial,
)
from initalg.orders import DegLex, leading_monomial, leading_term
from initalg.poly import (
    Polynomial,
    PolyRing,
    WeightVector,
    initial_form,
    is_weight_homogeneous,
    parse_poly,
    weighted_degree,
)
from initalg.sagbi import initial_algebra_gens, sagbi_complete
from initalg.weights import represent_order_by_weight

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


def scenario(name):
    """Run one `initalg verify` scenario, asserting each of its checks; returns the details."""
    details = []
    for ok, detail in SCENARIOS[name]():
        assert ok, f"{name}: {detail}"
        details.append(detail)
    return "; ".join(details)


# 1 ------------------------------------------------------------------------


@acceptance("lead-terms")
def test_leading_monomials_of_three_term_example():
    return scenario("lead-terms")


# 2 ------------------------------------------------------------------------


@acceptance("infinite-sagbi")
def test_truncated_subduction_basis_and_hilbert_values():
    scenario("infinite-sagbi")
    ring = PolyRing(("x", "y"))
    reference = HilbertSeries((1, -1, 1), (1, 1))
    # cap 8, and the mirrored generator set under the order preferring y
    cases = [
        (("x + y", "x*y", "x*y^2"), DegLex(), (8,), lambda k: (1, k)),
        (("x + y", "x*y", "x^2*y"), DegLex(perm=(1, 0)), (4, 6, 8), lambda k: (k, 1)),
    ]
    for texts, order, caps, expect in cases:
        gens = [parse_poly(ring, s) for s in texts]
        for cap in caps:
            state = sagbi_complete(gens, order, cap)
            assert state.truncated_at == cap
            monos = initial_algebra_gens(state)
            assert [m.exponents for m in monos] == [expect(k) for k in range(cap)]
            values = hilbert_series_subalgebra(state, d_max=cap - 1)
            assert values == reference.expand(cap - 1)
    return "caps 4, 6, 8 truncate as predicted in both variable roles"


# 3 ------------------------------------------------------------------------


@acceptance("kernel-fixture")
def test_presentation_and_toric_kernels_exact():
    return scenario("kernel-fixture")


# 4 ------------------------------------------------------------------------


@acceptance("kernel-initial")
def test_induced_weight_kernel_agreement():
    return scenario("kernel-initial")


# 5 ------------------------------------------------------------------------


def _weight_round_trip_closes(gens, order):
    gb = buchberger(gens, order)
    a = represent_order_by_weight(gens, order)
    for g in gb.elements:
        lt = leading_term(g, order)
        assert initial_form(g, a) == Polynomial.from_dict(g.ring, {lt.mono: lt.coeff})
    forms = initial_ideal_weight(gens, a, tiebreak=order)
    regenerated = MonomialIdeal.from_monomials(
        gens[0].ring, [leading_monomial(f, order) for f in forms]
    )
    assert all(len(f.terms) == 1 for f in forms)
    assert regenerated.mingens == gb.initial_ideal().mingens


@acceptance("order-by-weight")
def test_weight_representation_round_trip_and_farkas():
    scenario("order-by-weight")
    ring = PolyRing(("x", "y", "z"))
    rng = random.Random(50501)
    for _ in range(50):
        gens = [
            random_homogeneous_poly(rng, ring, rng.randint(1, 3))
            for _ in range(rng.randint(1, 3))
        ]
        for order in rng.sample(sample_orders(3), 2):
            _weight_round_trip_closes(gens, order)
    return "lex fixture regenerated; Farkas certificate valid; 50 random ideals close"


# 6 ------------------------------------------------------------------------


@acceptance("flat-family")
def test_family_interpolates_and_is_free():
    scenario("flat-family")
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
    return "fixture and 50 random ideals: fibers correct, free through twice the top degree"


# 7 ------------------------------------------------------------------------


@acceptance("hilbert-transfer")
def test_hilbert_function_and_dimension_are_order_independent():
    scenario("hilbert-transfer")
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
    return "fixture and 50 random graded ideals: values equal through degree 12, dimension stable"


# 8 ------------------------------------------------------------------------


@acceptance("betti-bound")
def test_betti_tables_bounded_by_initial_tables():
    scenario("betti-bound")
    ring3 = PolyRing(("x", "y", "z"))
    rng = random.Random(80801)
    for _ in range(20):
        gens = [
            random_homogeneous_poly(rng, ring3, rng.randint(2, 3))
            for _ in range(rng.randint(1, 2))
        ]
        betti_comparison(gens, DegLex())  # raises on any violated inequality
    return "fixtures and 20 random ideals: no bound violated; 1,2,1 diagonal exact"


# 9 ------------------------------------------------------------------------


@acceptance("symmetry")
def test_palindromic_series_certificates():
    return scenario("symmetry")


# 10 -----------------------------------------------------------------------


def _cli(args):
    proc = subprocess.run(
        [sys.executable, "-m", "initalg", *args],
        capture_output=True,
        check=False,
    )
    return proc.returncode, proc.stdout


@acceptance("determinism")
def test_every_command_is_byte_deterministic(tmp_path):
    scenario("determinism")
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
