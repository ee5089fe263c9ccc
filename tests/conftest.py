from fractions import Fraction
from math import lcm

import pytest

from initalg.orders import DegLex, Lex, RevLex, WeightOrder
from initalg.poly import Monomial, Polynomial, WeightVector, monomials_of_weight

# outcome/detail registries for the end-to-end acceptance checks; the summary
# hook prints one PASS/FAIL line per check outside of output capture
ACCEPTANCE_RESULTS: dict[str, bool] = {}
ACCEPTANCE_DETAILS: dict[str, str] = {}


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "acceptance(label): end-to-end acceptance check with a summary line"
    )


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when == "call":
        marker = item.get_closest_marker("acceptance")
        if marker is not None:
            label = marker.args[0]
            ACCEPTANCE_RESULTS[label] = ACCEPTANCE_RESULTS.get(label, True) and report.passed


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance checks")
    for label, passed in ACCEPTANCE_RESULTS.items():
        detail = ACCEPTANCE_DETAILS.get(label, "")
        suffix = f": {detail}" if passed and detail else ""
        terminalreporter.write_line(f"{'PASS' if passed else 'FAIL'} {label}{suffix}")


def bareiss_rank(rows):
    """Reference rank over the rationals of dense rows of Fraction/int: each row
    cleared to integers once, then fraction-free Bareiss elimination."""
    if not rows:
        return 0
    width = len(rows[0])
    mat = []
    for row in rows:
        fr = [Fraction(v) for v in row]
        mult = lcm(*(v.denominator for v in fr)) if fr else 1
        mat.append([int(v * mult) for v in fr])
    m, n = len(mat), width
    rank = 0
    prev = 1
    for col in range(n):
        pivot = next((r for r in range(rank, m) if mat[r][col] != 0), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        p = mat[rank][col]
        for r in range(rank + 1, m):
            for c in range(col + 1, n):
                mat[r][c] = (p * mat[r][c] - mat[r][col] * mat[rank][c]) // prev
            mat[r][col] = 0
        prev = p
        rank += 1
        if rank == m:
            break
    return rank


def random_monomial(rng, n, max_exp=3):
    return Monomial(tuple(rng.randint(0, max_exp) for _ in range(n)))


def random_poly(rng, ring, max_terms=4, max_exp=3, max_coeff=5, max_den=1):
    """Random polynomial; with max_den > 1 each coefficient gets a denominator in 1..max_den."""
    acc = {}
    for _ in range(rng.randint(1, max_terms)):
        m = random_monomial(rng, ring.n, max_exp)
        c = Fraction(rng.randint(-max_coeff, max_coeff))
        if max_den > 1:
            c /= rng.randint(1, max_den)
        acc[m] = acc.get(m, Fraction(0)) + c
    return Polynomial.from_dict(ring, acc)


def random_homogeneous_poly(rng, ring, degree, max_terms=3, max_coeff=4, weight=None):
    """Random nonzero polynomial all of whose terms share the given (weighted) degree."""
    pool = monomials_of_weight(ring.n, weight or WeightVector.ones(ring.n), degree)
    acc = {}
    for _ in range(rng.randint(1, max_terms)):
        m = rng.choice(pool)
        c = Fraction(rng.randint(-max_coeff, max_coeff))
        acc[m] = acc.get(m, Fraction(0)) + c
    f = Polynomial.from_dict(ring, acc)
    if f.is_zero():
        m = rng.choice(pool)
        f = Polynomial.from_dict(ring, {m: Fraction(1)})
    return f


def sample_orders(n):
    orders = [Lex(), DegLex(), RevLex()]
    if n == 3:
        orders += [Lex(perm=(2, 0, 1)), WeightOrder(WeightVector((2, 1, 3)), RevLex())]
    return orders
