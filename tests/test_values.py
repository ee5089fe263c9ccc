"""Value semantics of the public value classes.

Monomials, orders, ideals, series and reports are immutable values: equal
only within their class, hashed as their field tuple (set iteration order,
and so report bytes, depend on it), printed as ``Name(field=value, ...)``,
and rebuilt by pickle and deepcopy.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from initalg.betti import BettiComparison, BettiTable, betti_comparison, graded_betti
from initalg.family import FreenessReport, HomogenizedFamily, freeness_basis_check, homogenize_ideal
from initalg.groebner import (
    AlgebraKernel,
    MonomialIdeal,
    ReducedGroebnerBasis,
    buchberger,
    presentation_kernel,
)
from initalg.hilbert import HilbertComparison, HilbertSeries, compare_hilbert
from initalg.orders import DegLex, EliminationOrder, ExtendedOrder, Lex, RevLex, WeightOrder
from initalg.poly import Monomial, PolyRing, Term, WeightVector
from initalg.sagbi import (
    InitialKernelReport,
    SagbiState,
    SubductionResult,
    SubductionStep,
    kernel_initial_check,
)
from initalg.simplex import LPResult

R = PolyRing(("x", "y"))
x, y = R.gens()
W = WeightVector((1, 2))
FAMILY = homogenize_ideal([x**2 - y], W)

# (value, its fields in constructor order); every public value class once
VALUES = [
    (R, ("names", "homvar")),
    (Monomial((1, 2)), ("exponents",)),
    (Term(Fraction(3), Monomial((1, 2))), ("coeff", "mono")),
    (W, ("entries",)),
    (Lex((1, 0)), ("perm",)),
    (DegLex(), ("perm",)),
    (RevLex((0, 1)), ("perm",)),
    (WeightOrder(W, Lex()), ("weight", "base")),
    (ExtendedOrder(W), ("weight", "base")),
    (EliminationOrder((0,), (1,)), ("elim", "keep", "elim_order", "keep_order")),
    (MonomialIdeal(R, (Monomial((2, 0)), Monomial((0, 1)))), ("ring", "mingens")),
    (buchberger([x**2 - y, x * y - 1], DegLex()), ("ring", "order", "elements")),
    (presentation_kernel([x, x**2]), ("ring", "images", "gens")),
    (HilbertSeries((1, 1, 0), (1, 1)), ("numerator", "denominator_degrees")),
    (compare_hilbert([x**2 - y**2], Lex(), DegLex(), d_max=3),
     ("ok", "d_max", "first_values", "second_values", "first_series", "second_series")),
    (SubductionStep(Fraction(1, 2), (1, 0)), ("coeff", "exponents")),
    (SubductionResult(y, (SubductionStep(Fraction(-1), (2, 0)),)), ("remainder", "steps")),
    (SagbiState((x, y), Lex(), 4), ("gens", "order", "truncated_at")),
    (kernel_initial_check([x, x**2 + y], W),
     ("ok", "image_weights", "kernel", "initial_kernel", "kernel_initial_forms")),
    (graded_betti([x * y]), ("ring", "entries", "j_max", "complete")),
    (betti_comparison([x**2 - y**2]), ("quotient", "initial", "projdim", "regularity")),
    (FAMILY, ("weight", "base_gb", "total")),
    (freeness_basis_check(FAMILY, 3), ("ok", "bound", "rows")),
    (LPResult("optimal", (Fraction(1), Fraction(0)), 2), ("status", "x", "pivots")),
]
UNHASHABLE = (BettiTable, BettiComparison)  # the table's entries are a dict
IDS = [type(value).__name__ for value, _ in VALUES]


def test_every_public_value_class_is_covered():
    assert {type(value) for value, _ in VALUES} == {
        PolyRing, Monomial, Term, WeightVector, Lex, DegLex, RevLex, WeightOrder, ExtendedOrder,
        EliminationOrder, MonomialIdeal, ReducedGroebnerBasis, AlgebraKernel, HilbertSeries,
        HilbertComparison, SubductionStep, SubductionResult, SagbiState, InitialKernelReport,
        BettiTable, BettiComparison, HomogenizedFamily, FreenessReport, LPResult,
    }


def fields_of(value, names):
    return tuple(getattr(value, name) for name in names)


@pytest.mark.parametrize("value, names", VALUES, ids=IDS)
def test_keyword_construction_equals_positional(value, names):
    cls = type(value)
    rebuilt = cls(**dict(zip(names, fields_of(value, names))))
    assert rebuilt == value and not rebuilt != value
    assert cls(*fields_of(value, names)) == value


@pytest.mark.parametrize("value, names", VALUES, ids=IDS)
def test_hash_is_the_hash_of_the_field_tuple(value, names):
    if isinstance(value, UNHASHABLE):
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(value) == hash(fields_of(value, names))


@pytest.mark.parametrize("value, names", VALUES, ids=IDS)
def test_repr_names_every_field(value, names):
    if isinstance(value, (PolyRing, Monomial, WeightVector)):
        return  # their own short forms, pinned below
    shown = ", ".join(f"{name}={getattr(value, name)!r}" for name in names)
    assert repr(value) == f"{type(value).__qualname__}({shown})"


@pytest.mark.parametrize("value, names", VALUES, ids=IDS)
def test_fields_can_not_be_assigned_or_deleted(value, names):
    for name in (*names, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert fields_of(value, names) == fields_of(copy.copy(value), names)


@pytest.mark.parametrize("value, names", VALUES, ids=IDS)
def test_pickle_and_deepcopy_round_trip(value, names):
    for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
        assert type(twin) is type(value) and twin == value
        assert fields_of(twin, names) == fields_of(value, names)
        if not isinstance(value, UNHASHABLE):
            assert hash(twin) == hash(value)


def test_equality_holds_only_within_a_class():
    assert Lex() != DegLex() and DegLex() != RevLex() and Lex() != RevLex()
    assert Lex((1, 0)) == Lex([1, 0]) and hash(Lex((1, 0))) == hash(Lex([1, 0]))
    assert WeightOrder(W) != ExtendedOrder(W)
    assert Monomial((1, 2)) != (1, 2) and Monomial((1, 2)) != ((1, 2),)
    assert SubductionStep(Fraction(1), (1,)) != Term(Fraction(1), Monomial((1,)))
    assert len({Lex(), DegLex(), RevLex(), Lex(None)}) == 3


def test_omitted_orders_default_to_fresh_instances():
    assert WeightOrder(W).base == RevLex() and ExtendedOrder(W).base == RevLex()
    assert WeightOrder(W).base is not WeightOrder(W).base
    order = EliminationOrder([1], [0])
    assert (order.elim, order.keep, order.elim_order, order.keep_order) == ((1,), (0,), DegLex(), RevLex())
    assert SagbiState((x,), Lex()).truncated_at is None


def test_pinned_reprs():
    assert repr(R) == "PolyRing(x, y)"
    assert repr(Monomial((1, 2))) == "Monomial(1, 2)"
    assert repr(W) == "WeightVector(1, 2)"
    assert repr(Term(Fraction(3), Monomial((1, 2)))) == "Term(coeff=Fraction(3, 1), mono=Monomial(1, 2))"
    assert repr(WeightOrder(W)) == "WeightOrder(weight=WeightVector(1, 2), base=RevLex(perm=None))"
    assert repr(Lex((1, 0))) == "Lex(perm=(1, 0))"
    assert repr(EliminationOrder((0,), (1,))) == (
        "EliminationOrder(elim=(0,), keep=(1,), elim_order=DegLex(perm=None), "
        "keep_order=RevLex(perm=None))")
    assert repr(HilbertSeries((1, 1, 0), (1, 1))) == (
        "HilbertSeries(numerator=(1, 1), denominator_degrees=(1, 1))")
    assert repr(LPResult("optimal", None, 0)) == "LPResult(status='optimal', x=None, pivots=0)"


def test_an_order_pickles_after_it_compiled_its_keys():
    # the key functions an order caches on first use are compiled lambdas;
    # a copy is rebuilt from the fields and compiles its own
    order = WeightOrder(W, Lex())
    assert order.key(Monomial((1, 2))) == (5, 1, 2)
    for twin in (pickle.loads(pickle.dumps(order)), copy.deepcopy(order)):
        assert twin == order and twin.key(Monomial((1, 2))) == (5, 1, 2)
