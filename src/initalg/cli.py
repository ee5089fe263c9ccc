"""Batch command-line front end: problem files in, canonical text reports out.

Reports are line oriented and byte-deterministic: polynomial payloads appear
as bare lines that re-parse under the polynomial grammar, scalar results use
``name: value`` lines, and purely decorative context is prefixed with ``#``.
Exit codes: 0 success, 1 a mathematical verdict (certified infeasibility, a
unit ideal) or an exceeded step budget, 2 malformed input, 3 an internal
error (a failed self-check or an inconsistent Betti table, ``error:
internal: ...``).  A command that stops with an ``error:`` line on stderr
leaves stdout empty; the infeasible verdict prints its certificate.
"""

from __future__ import annotations

import argparse
import functools
import sys
from fractions import Fraction
from typing import Callable, Iterator, Sequence

from initalg.betti import betti_comparison, graded_betti
from initalg.family import fiber, freeness_basis_check, homogenize_ideal
from initalg.groebner import (
    StepLimitExceeded,
    buchberger,
    initial_ideal,
    initial_ideal_weight,
    presentation_kernel,
    toric_kernel,
)
from initalg.hilbert import (
    UnitIdealError,
    compare_hilbert,
    gorenstein_symmetry_check,
    hilbert_series_monomial,
    hilbert_series_subalgebra,
    krull_dim_monomial,
)
from initalg.orders import (
    DegLex,
    Lex,
    MonomialOrder,
    RevLex,
    WeightOrder,
    describe_order,
    leading_monomial,
    parse_order,
)
from initalg.poly import (
    Monomial,
    ParseError,
    Polynomial,
    PolyRing,
    WeightVector,
    format_monomial,
    format_poly,
    format_terms,
    initial_form,
    is_weight_homogeneous,
    parse_poly,
)
from initalg.sagbi import (
    SagbiState,
    initial_algebra_gens,
    kernel_initial_check,
    sagbi_complete,
    sagbi_test,
)
from initalg.weights import (
    InfeasibleComparisons,
    find_weight,
    represent_order_by_weight,
    represent_sagbi_by_weight,
)

EXIT_OK = 0
EXIT_MATH = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


class CLIInputError(Exception):
    """Malformed problem file or inconsistent flags."""


class Problem:
    """Parsed problem file: one ring, optional declarations, one generator block."""

    def __init__(self):
        self.ring: PolyRing | None = None
        self.order: MonomialOrder | None = None
        self.weight: WeightVector | None = None
        self.grading: WeightVector | None = None
        self.block: str | None = None  # "ideal" or "algebra"
        self.gens: list[Polynomial] = []
        self.pairs: list[tuple[Monomial, Monomial]] = []
        self.has_pairs = False


def _split_names(rest: str) -> list[str]:
    parts = [p for chunk in rest.split(",") for p in chunk.split()]
    return [p for p in parts if p]


def _parse_weight_line(rest: str, ring: PolyRing, where: str) -> WeightVector:
    parts = _split_names(rest)
    try:
        entries = tuple(int(p) for p in parts)
    except ValueError:
        raise CLIInputError(f"{where}: weights must be integers")
    if len(entries) != ring.n:
        raise CLIInputError(f"{where}: expected {ring.n} weight entries, got {len(entries)}")
    try:
        return WeightVector(entries)
    except ValueError as exc:
        raise CLIInputError(f"{where}: {exc}")


def _parse_single_monomial(ring: PolyRing, text: str, line_no: int) -> Monomial:
    f = parse_poly(ring, text)
    if len(f.terms) != 1 or f.terms[0].coeff != 1:
        raise CLIInputError(f"line {line_no}: expected a plain monomial, got {text.strip()!r}")
    return f.terms[0].mono


def parse_problem(text: str) -> Problem:
    """Parse the line-oriented problem format (ring/order/weight/grading + one block)."""
    problem = Problem()
    mode: str | None = None  # None, "ideal", "algebra", "pairs"
    # lines end at \n alone (strip() drops a \r), not at every break splitlines() knows
    for line_no, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if mode is not None:
            if line == "end":
                mode = None
                continue
            if problem.ring is None:
                raise CLIInputError(f"line {line_no}: ring must be declared before generators")
            try:
                if mode == "pairs":
                    if ">" not in line:
                        raise CLIInputError(f"line {line_no}: pairs lines read 'mono > mono'")
                    # columns count from the line's first character: the
                    # right side is parsed with the left side blanked out
                    lhs, _, rhs = raw.partition(">")
                    problem.pairs.append(
                        (
                            _parse_single_monomial(problem.ring, lhs, line_no),
                            _parse_single_monomial(problem.ring, " " * (len(lhs) + 1) + rhs,
                                                   line_no),
                        )
                    )
                else:
                    problem.gens.append(parse_poly(problem.ring, raw))
            except ParseError as exc:
                raise CLIInputError(f"line {line_no}: {exc}")
            continue
        keyword, rest = (line.split(maxsplit=1) + [""])[:2]
        if keyword == "ring":
            if problem.ring is not None:
                raise CLIInputError(f"line {line_no}: duplicate ring declaration")
            names = _split_names(rest)
            if not names:
                raise CLIInputError(f"line {line_no}: ring needs at least one variable")
            try:
                problem.ring = PolyRing(tuple(names))
            except ValueError as exc:
                raise CLIInputError(f"line {line_no}: {exc}")
        elif keyword in ("order", "weight", "grading"):
            if problem.ring is None:
                raise CLIInputError(f"line {line_no}: ring must precede {keyword}")
            if getattr(problem, keyword) is not None:
                raise CLIInputError(f"line {line_no}: duplicate {keyword} declaration")
            try:
                value = (parse_order(rest, problem.ring) if keyword == "order"
                         else _parse_weight_line(rest, problem.ring, f"line {line_no}"))
            except ParseError as exc:
                raise CLIInputError(f"line {line_no}: {exc}")
            setattr(problem, keyword, value)
        elif keyword in ("ideal", "algebra"):
            if problem.block is not None:
                raise CLIInputError(f"line {line_no}: only one generator block is allowed")
            if rest.strip():
                raise CLIInputError(f"line {line_no}: generators go on the following lines")
            problem.block = keyword
            mode = keyword
        elif keyword == "pairs":
            if problem.has_pairs:
                raise CLIInputError(f"line {line_no}: only one pairs block is allowed")
            problem.has_pairs = True
            mode = "pairs"
        else:
            raise CLIInputError(f"line {line_no}: unknown keyword {keyword!r}")
    if mode is not None:
        raise CLIInputError(f"unterminated {mode!r} block (missing 'end')")
    if problem.ring is None:
        raise CLIInputError("problem file declares no ring")
    return problem


def _load(args) -> Problem:
    """The problem file, read as UTF-8 whatever the locale; a leading BOM is dropped."""
    try:
        with open(args.file, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise CLIInputError(f"cannot read {args.file}: {exc.strerror or exc}")
    try:
        text = data.decode().removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise CLIInputError(f"cannot read {args.file}: invalid UTF-8 at byte offset {exc.start}")
    problem = parse_problem(text)
    if getattr(args, "order", None):
        try:
            problem.order = parse_order(args.order, problem.ring)
        except ParseError as exc:
            raise CLIInputError(f"--order: {exc}")
    if getattr(args, "weight", None):
        problem.weight = _parse_weight_line(args.weight, problem.ring, "--weight")
    return problem


def _active_order(problem: Problem) -> MonomialOrder:
    return problem.order if problem.order is not None else DegLex()


def _require_gens(problem: Problem, kind: str | None = None) -> list[Polynomial]:
    if problem.block is None or not problem.gens:
        raise CLIInputError("this command needs a nonempty ideal or algebra block")
    if kind is not None and problem.block != kind:
        raise CLIInputError(f"this command needs an '{kind}' block, found '{problem.block}'")
    return problem.gens


def _check_block_flags(problem: Problem, args) -> None:
    """Refuse a flag the block does not read: --weight reads an ideal, --cap an algebra."""
    if problem.block == "algebra" and args.weight:
        raise CLIInputError("--weight: an algebra block reads no weight; it applies to an ideal")
    if problem.block == "ideal" and args.cap is not None:
        raise CLIInputError("--cap: an ideal block is not completed; it applies to an algebra")


def _poly_lines(polys, order: MonomialOrder | None = None) -> list[str]:
    key = order.key if order is not None else None
    return [format_poly(f, key=key) for f in polys]


# ---------------------------------------------------------------------------
# commands


def cmd_gb(problem: Problem, args, out: list[str]) -> int:
    gens = _require_gens(problem, "ideal")
    order = _active_order(problem)
    rows = buchberger(gens, order)._terms()
    out.append(f"# reduced groebner basis, order {describe_order(order, problem.ring)}: "
               f"{len(rows)} elements")
    out.extend(format_terms(problem.ring.names, terms) for terms in rows)
    return EXIT_OK


def cmd_ini(problem: Problem, args, out: list[str]) -> int:
    gens = _require_gens(problem)
    _check_block_flags(problem, args)
    order = _active_order(problem)
    if problem.block == "algebra":
        if args.cap is not None:  # the first completion round is the Sagbi test
            state = sagbi_complete(gens, order, args.cap)
            if state.truncated_at is not None:
                out.append(f"# completion truncated at degree {state.truncated_at}")
        elif sagbi_test(gens, order)[0]:
            state = SagbiState(tuple(gens), order)
        else:
            raise CLIInputError(
                "generators are not a subduction basis; pass --cap N to complete first"
            )
        monos = initial_algebra_gens(state)
        out.append(f"# initial algebra generators: {len(monos)}")
        out.extend(format_monomial(problem.ring, m) for m in monos)
        return EXIT_OK
    if problem.weight is not None:
        forms = initial_ideal_weight(gens, problem.weight, tiebreak=order)
        entries = " ".join(str(e) for e in problem.weight.entries)
        out.append(f"# initial forms under weight {entries}: {len(forms)} generators")
        out.extend(_poly_lines(forms, order))
    else:
        ini = initial_ideal(gens, order)
        out.append(f"# initial ideal, order {describe_order(order, problem.ring)}: "
                   f"{len(ini.mingens)} minimal generators")
        out.extend(format_monomial(problem.ring, m) for m in ini.mingens)
    return EXIT_OK


def cmd_sagbi(problem: Problem, args, out: list[str]) -> int:
    gens = _require_gens(problem, "algebra")
    order = _active_order(problem)
    if args.cap is not None:
        state = sagbi_complete(gens, order, args.cap)
        if state.confirmed:
            out.append("status: complete")
        else:
            out.append(f"status: truncated at degree {state.truncated_at}")
        out.append(f"# basis elements: {len(state.gens)}")
        out.extend(_poly_lines(state.gens, order))
        monos = initial_algebra_gens(state)
        out.append(f"# initial algebra generators: {len(monos)}")
        out.extend(format_monomial(problem.ring, m) for m in monos)
    else:
        ok, witnesses = sagbi_test(gens, order)
        out.append("status: basis" if ok else "status: not a basis")
        if witnesses:
            out.append(f"# subduction witnesses: {len(witnesses)}")
            out.extend(_poly_lines(witnesses, order))
    return EXIT_OK


def cmd_weight(problem: Problem, args, out: list[str]) -> int:
    if problem.has_pairs or problem.block is None:
        a = find_weight(problem.pairs, n_vars=problem.ring.n)
    elif problem.block == "ideal":
        a = represent_order_by_weight(problem.gens, _active_order(problem))
    else:
        a = represent_sagbi_by_weight(problem.gens, _active_order(problem))
    out.append(" ".join(str(e) for e in a.entries))
    return EXIT_OK


def cmd_family(problem: Problem, args, out: list[str]) -> int:
    gens = _require_gens(problem, "ideal")
    if problem.weight is None:
        raise CLIInputError("family needs a weight (file declaration or --weight)")
    tiebreak = problem.order  # None falls back to the module default
    fam = homogenize_ideal(gens, problem.weight, tiebreak=tiebreak)
    entries = " ".join(str(e) for e in problem.weight.entries)
    out.append(f"# homogenized family over weight {entries}: "
               f"{len(fam.total.elements)} generators in {', '.join(fam.extended_ring.names)}")
    out.extend(_poly_lines(fam.total.elements, fam.total.order))
    if args.fiber is not None:
        try:
            c = Fraction(args.fiber)
        except (ValueError, ZeroDivisionError):
            raise CLIInputError(f"--fiber: not a rational number: {args.fiber!r}")
        out.append(f"# fiber at {fam.extended_ring.homvar} = {c}")
        out.extend(_poly_lines(fiber(fam, c), fam.base_gb.order))
    if args.freeness_bound is not None:
        report = freeness_basis_check(fam, args.freeness_bound)
        out.append(f"freeness: {'ok' if report.ok else 'FAILED'} (bound {report.bound})")
        if not report.ok:
            return EXIT_MATH
    return EXIT_OK


def cmd_hilbert(problem: Problem, args, out: list[str]) -> int:
    gens = _require_gens(problem)
    _check_block_flags(problem, args)
    order = _active_order(problem)
    d_max = args.dmax
    if problem.block == "algebra":
        cap = args.cap if args.cap is not None else max(
            d_max, max(g.total_degree() for g in gens)
        )
        state = sagbi_complete(gens, order, cap)
        values = hilbert_series_subalgebra(state, d_max=d_max, grading=problem.grading)
        out.append("values: " + ",".join(str(v) for v in values))
        return EXIT_OK
    if problem.weight is not None:
        order = WeightOrder(problem.weight, order)
    series = hilbert_series_monomial(initial_ideal(gens, order), weight=problem.grading)
    out.append(f"series: {series}")
    out.append(f"reduced: {series.reduced()}")
    out.append("values: " + ",".join(str(v) for v in series.expand(d_max)))
    return EXIT_OK


def cmd_dim(problem: Problem, args, out: list[str]) -> int:
    gens = _require_gens(problem, "ideal")
    out.append(f"dimension: {krull_dim_monomial(initial_ideal(gens, _active_order(problem)))}")
    return EXIT_OK


def cmd_betti(problem: Problem, args, out: list[str]) -> int:
    gens = _require_gens(problem, "ideal")
    order = _active_order(problem)
    table = graded_betti(gens, j_max=args.jmax, order=order)
    for (i, j), beta in sorted(table.entries.items()):
        out.append(f"beta {i} {j} = {beta}")
    if table.complete:
        out.append(f"projective dimension: {table.projective_dimension()}")
        out.append(f"regularity: {table.regularity()}")
    else:
        out.append(f"# table truncated at internal degree {table.j_max}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# built-in verification scenarios (content-named, deterministic, fast); each
# yields (ok, detail) pairs and cmd_verify prints them as PASS/FAIL lines

Checks = Iterator[tuple[bool, str]]


def _scenario_lead_terms() -> Checks:
    ring = PolyRing(("X1", "X2", "X3", "X4"))
    f = parse_poly(ring, "X1 + X2*X4 + X3^2")
    got = [
        format_monomial(ring, leading_monomial(f, o))
        for o in (Lex(), DegLex(), RevLex())
    ]
    yield got == ["X1", "X2*X4", "X3^2"], f"lex/deglex/revlex -> {', '.join(got)}"


def _scenario_infinite_sagbi() -> Checks:
    ring = PolyRing(("x", "y"))
    gens = [parse_poly(ring, s) for s in ("x + y", "x*y", "x*y^2")]
    for cap in (4, 6):
        state = sagbi_complete(gens, DegLex(), cap)
        monos = initial_algebra_gens(state)
        expect = [ring.monomial((1, k)) for k in range(cap)]
        hf = hilbert_series_subalgebra(state, d_max=cap - 1)
        ok = (state.truncated_at == cap and list(monos) == expect
              and hf == tuple([1] + list(range(1, cap))))
        yield ok, (f"cap {cap} truncates with {len(monos)} initial monomials, "
                   f"values {','.join(map(str, hf))}")


_KERNEL_NAMES = ("T", "U", "V", "W")


def _scenario_kernel_fixture() -> Checks:
    ring = PolyRing(("x", "y", "z"))
    images = [parse_poly(ring, s) for s in ("x^2 - z^2", "x*y", "y^2", "y*z")]
    kernel = presentation_kernel(images, names=_KERNEL_NAMES)
    got = ", ".join(format_poly(g, key=RevLex().key) for g in kernel.gens)
    ok = kernel.gens == (parse_poly(kernel.ring, "U^2 - T*V - W^2"),)
    yield ok, f"presentation kernel = ({got})"
    monos = [parse_poly(ring, s).terms[0].mono for s in ("x^2", "x*y", "y^2", "y*z")]
    toric = toric_kernel(ring, monos, names=_KERNEL_NAMES)
    got = ", ".join(format_poly(g, key=RevLex().key) for g in toric.gens)
    yield toric.gens == (parse_poly(toric.ring, "U^2 - T*V"),), f"toric kernel = ({got})"


def _scenario_kernel_initial() -> Checks:
    ring = PolyRing(("x", "y", "z"))
    gens = [parse_poly(ring, s) for s in ("x^2 - z^2", "x*y", "y^2", "y*z")]
    report = kernel_initial_check(gens, WeightVector((3, 2, 1)), names=_KERNEL_NAMES)
    ok = (report.ok and report.image_weights.entries == (6, 5, 4, 3)
          and report.kernel_initial_forms == (parse_poly(report.kernel.ring, "U^2 - T*V"),))
    b = " ".join(str(e) for e in report.image_weights.entries)
    yield ok, f"induced weights {b}, ideals agree"


def _scenario_order_by_weight() -> Checks:
    ring = PolyRing(("x", "y", "z"))
    gens = [parse_poly(ring, s) for s in ("x^2 - y", "x*y - z")]
    a = represent_order_by_weight(gens, Lex())
    regenerated = initial_ideal(gens, WeightOrder(a, Lex()))
    want = {ring.monomial((2, 0, 0)), ring.monomial((1, 1, 0)),
            ring.monomial((1, 0, 1)), ring.monomial((0, 3, 0))}
    yield (set(regenerated.mingens) == want,
           f"weight {' '.join(map(str, a.entries))} regenerates the lex initial ideal")
    x, y = ring.monomial((1, 0, 0)), ring.monomial((0, 1, 0))
    try:
        find_weight([(x, y), (y, x)])
        yield False, "contradictory pair set accepted"
    except InfeasibleComparisons as exc:
        cert = exc.certificate
        # the certified nonnegative combination sum c_i (m_i - n_i) is <= 0 componentwise
        combo = [sum(c * (m.exponents[i] - n.exponents[i]) for c, (m, n) in zip(cert, exc.pairs))
                 for i in range(ring.n)]
        ok = any(cert) and all(c >= 0 for c in cert) and all(v <= 0 for v in combo)
        yield ok, f"infeasibility certificate {' '.join(map(str, cert))}"


def _scenario_flat_family() -> Checks:
    ring = PolyRing(("x", "y", "z"))
    gens = [parse_poly(ring, s) for s in ("x^2 - y", "x*y - z")]
    a = WeightVector((2, 3, 4))
    fam = homogenize_ideal(gens, a)
    at_one = buchberger(list(fiber(fam, 1)), fam.base_gb.order)
    report = freeness_basis_check(fam)
    ok = (at_one.elements == fam.base_gb.elements
          and fiber(fam, 0) == tuple(initial_form(g, a) for g in fam.base_gb)
          and all(is_weight_homogeneous(g, a.extend()) for g in fam.total)
          and report.ok)
    yield ok, (f"fibers at 1 and 0 match, total generators homogeneous, "
               f"free up to degree {report.bound}")


def _scenario_hilbert_transfer() -> Checks:
    ring = PolyRing(("x", "y", "z"))
    gens = [parse_poly(ring, s) for s in ("x^2 - y*z", "x*y - z^2")]
    cmp = compare_hilbert(gens, Lex(), RevLex(), d_max=10)
    dims = {
        krull_dim_monomial(initial_ideal(gens, o))
        for o in (Lex(), DegLex(), RevLex())
    }
    yield (cmp.ok and len(dims) == 1,
           f"functions agree to degree {cmp.d_max}, dimension {dims.pop()} for all orders")


def _scenario_betti_bound() -> Checks:
    ring2 = PolyRing(("x", "y"))
    ring3 = PolyRing(("x", "y", "z"))
    fixtures = [
        (ring2, ("x", "y")),
        (ring2, ("x^2", "x*y")),
        (ring2, ("x^2 - y^2",)),
        (ring3, ("x^2 - y*z", "x*y")),
    ]
    # betti_comparison raises on any violated inequality
    cmps = [betti_comparison([parse_poly(ring, s) for s in texts], DegLex())
            for ring, texts in fixtures]
    monomial = cmps[1]  # a monomial ideal is its own initial ideal
    diag = graded_betti([parse_poly(ring2, "x"), parse_poly(ring2, "y")])
    ok = (diag.entries == {(0, 0): 1, (1, 1): 2, (2, 2): 1}
          and monomial.quotient.entries == monomial.initial.entries)
    yield ok, ("quotient tables never exceed initial tables; "
               "variable ideal gives 1,2,1 on the diagonal")


def _scenario_symmetry() -> Checks:
    ring = PolyRing(("x", "y", "z"))
    images = [parse_poly(ring, s) for s in ("x^2 - z^2", "x*y", "y^2", "y*z")]
    kernel = presentation_kernel(images, names=_KERNEL_NAMES)
    # grade each presentation variable in degree 1 so the series is normalized
    series = hilbert_series_monomial(initial_ideal(kernel.gens, DegLex())).reduced()
    sym = gorenstein_symmetry_check(series) and str(series) == "(1 + t) / (1-t)^3"
    counter = hilbert_series_monomial(
        initial_ideal([parse_poly(PolyRing(("x", "y")), s) for s in ("x^2", "x*y")], DegLex())
    )
    yield (sym and not gorenstein_symmetry_check(counter),
           f"normalized series {series} palindromic, counterexample rejected")


def _scenario_determinism() -> Checks:
    text = "ring x, y, z\norder lex\nideal\nx^2 - y\nx*y - z\nend\n"
    permuted = "ring x, y, z\norder lex\nideal\nx*y - z\nx^2 - y\nend\n"
    outputs = []
    for content in (text, text, permuted):
        buf: list[str] = []
        outputs.append((cmd_gb(parse_problem(content), None, buf), buf))
    ok = outputs[0] == outputs[1] == outputs[2] and outputs[0][0] == EXIT_OK
    yield ok, "identical bytes across reruns and generator permutations"


SCENARIOS: dict[str, Callable[[], Checks]] = {
    "lead-terms": _scenario_lead_terms,
    "infinite-sagbi": _scenario_infinite_sagbi,
    "kernel-fixture": _scenario_kernel_fixture,
    "kernel-initial": _scenario_kernel_initial,
    "order-by-weight": _scenario_order_by_weight,
    "flat-family": _scenario_flat_family,
    "hilbert-transfer": _scenario_hilbert_transfer,
    "betti-bound": _scenario_betti_bound,
    "symmetry": _scenario_symmetry,
    "determinism": _scenario_determinism,
}


def cmd_verify(args, out: list[str]) -> int:
    names = args.scenarios or list(SCENARIOS)
    unknown = [n for n in names if n not in SCENARIOS]
    if unknown:
        raise CLIInputError(
            f"unknown scenario(s) {', '.join(unknown)}; known: {', '.join(SCENARIOS)}"
        )
    failed = False
    for name in names:
        for ok, detail in SCENARIOS[name]():
            out.append(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
            failed = failed or not ok
    return EXIT_MATH if failed else EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing and dispatch


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use; `parse_args` leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="initalg",
        description="Exact Gröbner/Sagbi computations, initial objects, and invariants.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_, *, weight=False, cap=False, dmax=False, jmax=False, family=False):
        p = sub.add_parser(name, help=help_)
        p.add_argument("file", help="problem file (ring/order/weight + generator block)")
        p.add_argument("--order", help="override the order declaration, e.g. 'deglex'")
        if weight:
            p.add_argument("--weight", help="override the weight declaration, e.g. '3,2,1'")
        if cap:
            p.add_argument("--cap", type=int, help="degree cap for subduction completion")
        if dmax:
            p.add_argument("--dmax", type=int, default=10, help="largest reported degree")
        if jmax:
            p.add_argument("--jmax", type=int, help="largest internal degree of the table")
        if family:
            p.add_argument("--fiber", help="also print the fiber at p/q of the extra variable")
            p.add_argument("--freeness-bound", type=int,
                           help="also certify freeness up to this degree")
        p.set_defaults(func=lambda args, out: func(_load(args), args, out))
        return p

    add("gb", cmd_gb, "reduced Gröbner basis of the ideal block")
    add("ini", cmd_ini, "initial ideal (order or weight) or initial algebra", weight=True, cap=True)
    add("sagbi", cmd_sagbi, "subduction basis test, or completion with --cap", cap=True)
    add("weight", cmd_weight, "find or represent a weight vector")
    add("family", cmd_family, "homogenized flat family over the weight", weight=True, family=True)
    add("hilbert", cmd_hilbert, "Hilbert series and function values",
        weight=True, cap=True, dmax=True)
    add("dim", cmd_dim, "Krull dimension of the quotient")
    add("betti", cmd_betti, "graded Betti numbers of the quotient", jmax=True)

    pv = sub.add_parser("verify", help="run built-in verification scenarios")
    pv.add_argument("scenarios", nargs="*", help=f"subset of: {', '.join(SCENARIOS)}")
    pv.set_defaults(func=cmd_verify)
    parser.commands = sub.choices  # command name -> its subparser, for `run`
    return parser


def run(argv: Sequence[str]) -> int:
    """Execute one command; returns the exit code, printing the report to stdout."""
    argv, parser = list(argv), _build_parser()
    # a known command goes straight to its subparser; when that leaves an
    # argument over, the full parser runs and reports it with its own usage
    command = parser.commands.get(argv[0]) if argv else None
    args, extra = (command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
                   if command else (None, True))
    if extra:
        args = parser.parse_args(argv)
    out: list[str] = []
    try:
        code = args.func(args, out)
    except InfeasibleComparisons as exc:
        out.append("infeasible")
        if exc.certificate is not None:
            out.append("certificate: " + " ".join(str(c) for c in exc.certificate))
        code = EXIT_MATH
    except (StepLimitExceeded, UnitIdealError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        out.clear()
        code = EXIT_MATH
    except (CLIInputError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        out.clear()
        code = EXIT_INPUT
    except RuntimeError as exc:
        print(f"error: internal: {exc}", file=sys.stderr)
        out.clear()
        code = EXIT_INTERNAL
    if out:
        sys.stdout.write("\n".join(out) + "\n")
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
