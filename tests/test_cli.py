"""Command-line surface: problem parsing, reports, exit codes, determinism."""

from __future__ import annotations

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import initalg
from initalg import cli, groebner, sagbi, weights
from initalg.cli import (
    EXIT_INPUT,
    EXIT_INTERNAL,
    EXIT_MATH,
    EXIT_OK,
    CLIInputError,
    SCENARIOS,
    _build_parser,
    parse_problem,
    run,
)
from initalg.family import FreenessReport
from initalg.orders import Lex
from initalg.poly import parse_poly

LEX_IDEAL = """\
ring x, y, z
order lex
ideal
x^2 - y
x*y - z
end
"""

VERIFY_OUT = Path(__file__).resolve().parent / "verify.out"  # the stdout of `initalg verify`

ALGEBRA = """\
ring x, y
algebra
x + y
x*y
x*y^2
end
"""


NOT_UTF8 = b"ring x, y\nideal\nx - \xe9\nend\n"  # Latin-1 e-acute at byte offset 20


def write(tmp_path, text, name="problem.txt"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


# -- problem files ----------------------------------------------------------


def test_parse_problem_fields():
    problem = parse_problem(LEX_IDEAL)
    assert problem.ring.names == ("x", "y", "z")
    assert problem.block == "ideal"
    assert len(problem.gens) == 2


def test_parse_problem_pairs_and_comments():
    problem = parse_problem(
        "# a comment\nring x, y\n\npairs\nx > y\nend\n"
    )
    assert problem.has_pairs and len(problem.pairs) == 1
    assert problem.block is None


def test_parse_problem_errors():
    for text in (
        "ideal\nx\nend\n",  # no ring
        "ring x\nring y\n",  # duplicate ring
        "ring x\nideal\nx\n",  # unterminated block
        "ring x\nfrobnicate\n",  # unknown keyword
        "ring x\nweight 1, 2\n",  # arity mismatch
        "ring x, y\npairs\nx + y > x\nend\n",  # pair side not a monomial
        "ring x, y\nideal\nx\nend\nalgebra\ny\nend\n",  # two blocks
        "ring x, y\norder lex\norder revlex\n",  # duplicate order
        "ring x, y\nweight 1, 2\nweight 2, 1\n",  # duplicate weight
        "ring x, y\ngrading 1, 1\ngrading 1, 2\n",  # duplicate grading
    ):
        with pytest.raises(CLIInputError):
            parse_problem(text)


# -- commands ---------------------------------------------------------------


def test_gb_report_round_trips(tmp_path, capsys):
    path = write(tmp_path, LEX_IDEAL)
    assert run(["gb", path]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("# reduced groebner basis, order lex: 4")
    ring = parse_problem(LEX_IDEAL).ring
    polys = [parse_poly(ring, s) for s in lines[1:]]
    assert len(polys) == 4  # every payload line re-parses


def test_ini_of_an_ideal_without_weight(tmp_path, capsys):
    assert run(["ini", write(tmp_path, LEX_IDEAL)]) == EXIT_OK
    assert capsys.readouterr() == (
        "# initial ideal, order lex: 4 minimal generators\nx*z\nx*y\nx^2\ny^3\n", "")


def test_ini_with_weight_flag(tmp_path, capsys):
    path = write(tmp_path, LEX_IDEAL)
    assert run(["ini", path, "--weight", "2,1,1"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "initial forms under weight 2 1 1" in out


SYMMETRIC = """\
ring x, y, z
order lex
algebra
x + y + z
x*y + x*z + y*z
x*y*z
end
"""

REVLEX_ALGEBRA = "ring x, y\norder revlex\nalgebra\nx^2 + y^2\nx*y\nx^3\nend\n"
NOT_A_BASIS = "error: generators are not a subduction basis; pass --cap N to complete first\n"


@pytest.mark.parametrize(
    "text, flags, code, out, err",
    [
        (SYMMETRIC, [], EXIT_OK, "# initial algebra generators: 3\nx\nx*y\nx*y*z\n", ""),
        (ALGEBRA, [], EXIT_INPUT, "", NOT_A_BASIS),
        (ALGEBRA, ["--cap", "5"], EXIT_OK,
         "# completion truncated at degree 5\n# initial algebra generators: 5\n"
         "x\nx*y\nx*y^2\nx*y^3\nx*y^4\n", ""),
        (REVLEX_ALGEBRA, ["--cap", "8"], EXIT_OK,
         "# initial algebra generators: 4\nx*y\nx^2\nx^3\ny^6\n", ""),
    ],
    ids=["basis", "not-a-basis", "truncated", "completes"],
)
def test_ini_on_algebra_blocks(tmp_path, capsys, text, flags, code, out, err):
    path = write(tmp_path, text)
    assert run(["ini", path, *flags]) == code
    assert capsys.readouterr() == (out, err)


def test_ini_cap_is_checked_on_a_basis(tmp_path, capsys):
    # --cap is checked as `sagbi --cap` checks it, even when no round adds a generator
    path = write(tmp_path, SYMMETRIC)
    assert run(["ini", path, "--cap", "1"]) == EXIT_INPUT
    assert capsys.readouterr() == ("", "error: degree cap below a generator degree\n")
    assert run(["ini", path, "--cap", "3"]) == EXIT_OK
    assert capsys.readouterr().out == "# initial algebra generators: 3\nx\nx*y\nx*y*z\n"


def test_ini_runs_the_sagbi_test_once_per_round(tmp_path, capsys, monkeypatch):
    # counted through the module global: with --cap every test is a completion
    # round, and without it a basis is tested once
    calls = []
    real = sagbi._sagbi_round

    def counting(kept):
        calls.append(len(kept.gens))
        return real(kept)

    monkeypatch.setattr(sagbi, "_sagbi_round", counting)
    assert run(["ini", write(tmp_path, ALGEBRA), "--cap", "5"]) == EXIT_OK
    assert calls == [3, 4, 5]
    calls.clear()
    assert run(["ini", write(tmp_path, SYMMETRIC, "sym.txt")]) == EXIT_OK
    assert calls == [3]
    capsys.readouterr()


def test_hilbert_of_an_algebra_completes_to_dmax(tmp_path, capsys, monkeypatch):
    # without --cap the completion stops at max(dmax, top generator degree),
    # the highest degree the values need
    calls = []
    real = sagbi._sagbi_round

    def counting(kept):
        calls.append(len(kept.gens))
        return real(kept)

    monkeypatch.setattr(sagbi, "_sagbi_round", counting)
    path = write(tmp_path, ALGEBRA.replace("ring x, y", "ring x, y\norder deglex"))
    assert run(["hilbert", path, "--dmax", "7"]) == EXIT_OK
    assert capsys.readouterr().out == "values: 1,1,2,3,4,5,6,7\n"
    assert calls == [3, 4, 5, 6, 7]
    calls.clear()
    assert run(["hilbert", path, "--dmax", "1"]) == EXIT_OK
    assert capsys.readouterr().out == "values: 1,1\n"
    assert calls == [3]


def test_sagbi_test_and_complete(tmp_path, capsys):
    path = write(tmp_path, ALGEBRA)
    assert run(["sagbi", path]) == EXIT_OK
    assert capsys.readouterr().out.startswith("status: not a basis")
    assert run(["sagbi", path, "--cap", "4"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "status: truncated at degree 4" in out
    assert "x*y^3" in out


def test_sagbi_completion_confirmed(tmp_path, capsys):
    assert run(["sagbi", write(tmp_path, SYMMETRIC), "--cap", "4"]) == EXIT_OK
    assert capsys.readouterr() == (
        "status: complete\n# basis elements: 3\nx + y + z\nx*y + x*z + y*z\nx*y*z\n"
        "# initial algebra generators: 3\nx\nx*y\nx*y*z\n", "")


def test_weight_empty_comparisons_prints_ones(tmp_path, capsys):
    path = write(tmp_path, "ring x, y, z\n")
    assert run(["weight", path]) == EXIT_OK
    assert capsys.readouterr().out == "1 1 1\n"


def test_weight_infeasible_exits_one(tmp_path, capsys):
    path = write(tmp_path, "ring x, y\npairs\nx > y\ny > x\nend\n")
    assert run(["weight", path]) == EXIT_MATH
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "infeasible"
    assert out.splitlines()[1].startswith("certificate: ")


def test_internal_error_exits_three(tmp_path, capsys, monkeypatch):
    # a failed self-check (a plain RuntimeError, as the simplex's checked
    # division and find_weight's certificate checks raise) is neither input
    # nor verdict: exit 3, the message on stderr, stdout empty
    def failing(*args, **kwargs):
        raise RuntimeError("weight does not realize the comparisons")

    monkeypatch.setattr(cli, "find_weight", failing)
    monkeypatch.setattr(weights, "find_weight", failing)
    for text in (LEX_IDEAL, "ring x, y\npairs\nx > y\nend\n"):
        assert run(["weight", write(tmp_path, text)]) == EXIT_INTERNAL
        assert capsys.readouterr() == ("", "error: internal: weight does not realize the comparisons\n")


# every public exception class of the library, by the exit code `run` gives it
EXIT_CODES = {
    "StepLimitExceeded": EXIT_MATH, "UnitIdealError": EXIT_MATH, "InfeasibleComparisons": EXIT_MATH,
    "ParseError": EXIT_INPUT, "RingMismatchError": EXIT_INPUT, "ZeroPolynomialError": EXIT_INPUT,
    "CLIInputError": EXIT_INPUT,
    "BettiInconsistencyError": EXIT_INTERNAL,
}


def library_exceptions() -> dict[str, type]:
    """The public exception classes defined in an initalg module (`__main__` runs the CLI)."""
    found = {}
    for info in pkgutil.iter_modules(initalg.__path__):
        if info.name != "__main__":
            module = importlib.import_module(f"initalg.{info.name}")
            found.update((name, obj) for name, obj in vars(module).items()
                         if isinstance(obj, type) and issubclass(obj, BaseException)
                         and obj.__module__ == module.__name__ and not name.startswith("_"))
    return found


@pytest.mark.parametrize("name", sorted(library_exceptions()))
def test_every_library_exception_has_an_exit_code(tmp_path, capsys, monkeypatch, name):
    # a new exception class fails here until it is classified
    classes = library_exceptions()
    assert name in EXIT_CODES, f"{name} has no expected exit code"
    assert set(EXIT_CODES) == set(classes)
    exc = classes[name]([], (1, 1)) if name == "InfeasibleComparisons" else classes[name]("boom")

    def raising(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "buchberger", raising)
    code = EXIT_CODES[name]
    assert run(["gb", write(tmp_path, LEX_IDEAL)]) == code
    if name == "InfeasibleComparisons":
        expected = ("infeasible\ncertificate: 1 1\n", "")
    else:
        expected = ("", f"error: {'internal: ' if code == EXIT_INTERNAL else ''}boom\n")
    assert capsys.readouterr() == expected


def test_weight_represents_order(tmp_path, capsys):
    path = write(tmp_path, LEX_IDEAL)
    assert run(["weight", path]) == EXIT_OK
    entries = [int(v) for v in capsys.readouterr().out.split()]
    assert len(entries) == 3 and all(v >= 1 for v in entries)


def test_family_fiber_and_freeness(tmp_path, capsys):
    text = "ring x, y, z\nweight 2, 1, 1\nideal\nx^2 - y\nx*y - z\nend\n"
    path = write(tmp_path, text)
    assert run(["family", path, "--fiber", "0", "--freeness-bound", "6"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "# fiber at t = 0" in out
    assert "freeness: ok (bound 6)" in out


def test_family_reports(tmp_path, capsys, monkeypatch):
    assert run(["family", write(tmp_path, LEX_IDEAL)]) == EXIT_INPUT
    assert capsys.readouterr() == (
        "", "error: family needs a weight (file declaration or --weight)\n")
    monkeypatch.setattr(cli, "freeness_basis_check", lambda fam, bound: FreenessReport(False, 6, ()))
    path = write(tmp_path, LEX_IDEAL.replace("order lex", "weight 2, 1, 1"))
    assert run(["family", path, "--freeness-bound", "6"]) == EXIT_MATH
    assert capsys.readouterr() == (
        "# homogenized family over weight 2 1 1: 4 generators in x, y, z, t\n"
        "x*z - y^2*t\nx*y - z*t^2\ny^3 - z^2*t\nx^2 - y*t^3\nfreeness: FAILED (bound 6)\n", "")


def test_family_on_a_ring_with_t(tmp_path, capsys):
    # the homogenizing variable is the first of t, t0, t1, ... not in the ring
    path = write(tmp_path, "ring x, t\nweight 2, 1\nideal\nx^2 - t\nend\n")
    assert run(["family", path, "--fiber", "0"]) == EXIT_OK
    assert capsys.readouterr() == (
        "# homogenized family over weight 2 1: 1 generators in x, t, t0\n"
        "x^2 - t*t0^3\n# fiber at t0 = 0\nx^2\n",
        "",
    )


def test_hilbert_values_line(tmp_path, capsys):
    path = write(tmp_path, LEX_IDEAL)
    assert run(["hilbert", path, "--dmax", "5"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "values: 1,3,3,3,3,3" in out
    assert "reduced: (1 + 2*t) / (1-t)" in out


def test_hilbert_algebra_matches_known_values(tmp_path, capsys):
    path = write(tmp_path, ALGEBRA)
    assert run(["hilbert", path, "--dmax", "5"]) == EXIT_OK
    assert capsys.readouterr().out == "values: 1,1,2,3,4,5\n"


def test_dim_and_betti(tmp_path, capsys):
    path = write(tmp_path, LEX_IDEAL)
    assert run(["dim", path]) == EXIT_OK
    assert capsys.readouterr().out == "dimension: 1\n"
    homog = write(tmp_path, "ring x, y\nideal\nx^2\nx*y\nend\n", "h.txt")
    assert run(["betti", homog]) == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert out[:3] == ["beta 0 0 = 1", "beta 1 2 = 2", "beta 2 3 = 1"]
    assert "projective dimension: 2" in out and "regularity: 1" in out


def test_dim_of_unit_ideal_is_a_verdict(tmp_path, capsys):
    path = write(tmp_path, "ring x, y\nideal\nx*y - 1\nx\nend\n")
    assert run(["dim", path]) == EXIT_MATH
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: unit ideal: the quotient is the zero ring\n"


def test_betti_of_unit_ideal_is_a_verdict(tmp_path, capsys):
    path = write(tmp_path, "ring x, y\nideal\n1\nend\n")
    assert run(["betti", path]) == EXIT_MATH
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: unit ideal: the quotient is the zero ring\n"


def test_hilbert_of_unit_ideal_is_the_zero_series(tmp_path, capsys):
    # the zero module has Hilbert series 0, so this is a report, not an error
    path = write(tmp_path, "ring x, y\nideal\n1\nend\n")
    assert run(["hilbert", path, "--dmax", "3"]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.out == "series: (0) / (1-t)^2\nreduced: (0) / (1-t)^2\nvalues: 0,0,0,0\n"
    assert captured.err == ""


def test_betti_truncated_flagged(tmp_path, capsys):
    path = write(tmp_path, "ring x, y\nideal\nx^2\nx*y\nend\n")
    assert run(["betti", path, "--jmax", "1"]) == EXIT_OK
    assert "# table truncated at internal degree 1" in capsys.readouterr().out


# -- exit codes and determinism --------------------------------------------


def test_parse_error_exits_two(tmp_path, capsys):
    # the file's line comes from the CLI, the column from the polynomial text
    for text, flags, err in [
        ("ring x, y\n\nideal\nx*q\nend\n", [], "error: line 4: unknown variable 'q' (column 3)\n"),
        ("ring x, y\norder foo\n", [], "error: line 2: unknown order 'foo'\n"),
        (LEX_IDEAL, ["--order", "foo"], "error: --order: unknown order 'foo'\n"),
        # a tab after a keyword separates it as a blank does
        ("ring\tx, y\norder\tfoo\n", [], "error: line 2: unknown order 'foo'\n"),
        ("ring x, y\nideal\t\nx*q\nend\n", [], "error: line 3: unknown variable 'q' (column 3)\n"),
    ]:
        assert run(["gb", write(tmp_path, text), *flags]) == EXIT_INPUT
        assert capsys.readouterr() == ("", err)


def test_parse_error_columns_count_from_the_file_line(tmp_path, capsys):
    # leading blanks, the blank before a bad character and the left side of a
    # pairs line all count
    for text, err in [
        ("ring x, y\n\nideal\n  x & y\nend\n", "error: line 4: unexpected character '&' (column 5)\n"),
        ("ring x, y\nideal\n   x*q\nend\n", "error: line 3: unknown variable 'q' (column 6)\n"),
        ("ring x, y\npairs\nx^2 > q\nend\n", "error: line 3: unknown variable 'q' (column 7)\n"),
    ]:
        assert run(["gb", write(tmp_path, text)]) == EXIT_INPUT
        assert capsys.readouterr() == ("", err)


def test_only_newlines_end_problem_lines(tmp_path, capsys):
    # str.splitlines() also broke lines at \f, \v, U+0085 and more: a form
    # feed made two generators of x^2 - y, and each U+0085 added one to every
    # later line number.  A \r before the \n is a blank, and so is a tab
    path = tmp_path / "lines.txt"
    assert run(["gb", write(tmp_path, "ring x, y\norder lex\nideal\nx^2 - y\nend\n")]) == EXIT_OK
    expected = capsys.readouterr()
    for text in ("ring x, y\norder lex\nideal\nx^2\f- y\nend\n",
                 "ring x, y\r\norder lex\r\nideal\r\nx^2 - y\r\nend\r\n",
                 "ring\tx, y\norder\tlex\nideal\nx^2 - y\nend\n"):
        path.write_bytes(text.encode())
        assert run(["gb", str(path)]) == EXIT_OK
        assert capsys.readouterr() == expected, text
    path.write_bytes("ring x, y\nideal\nx^2 \u0085 - y\nx*q\nend\n".encode())
    assert run(["gb", str(path)]) == EXIT_INPUT
    assert capsys.readouterr() == ("", "error: line 4: unknown variable 'q' (column 3)\n")


def test_a_leading_bom_is_dropped(tmp_path, capsys):
    assert run(["gb", write(tmp_path, LEX_IDEAL)]) == EXIT_OK
    expected = capsys.readouterr()
    path = tmp_path / "bom.txt"
    path.write_bytes(b"\xef\xbb\xbf" + LEX_IDEAL.encode())
    assert run(["gb", str(path)]) == EXIT_OK
    assert capsys.readouterr() == expected


def test_undecodable_bytes_exit_two_with_the_offset(tmp_path, capsys):
    path = tmp_path / "latin1.txt"
    path.write_bytes(NOT_UTF8)
    assert run(["gb", str(path)]) == EXIT_INPUT
    assert capsys.readouterr() == ("", f"error: cannot read {path}: invalid UTF-8 at byte offset 20\n")


def test_problem_files_are_utf8_under_any_locale(tmp_path, capsys):
    # under LC_ALL=C without UTF-8 mode the locale encoding is ASCII
    assert run(["gb", write(tmp_path, LEX_IDEAL)]) == EXIT_OK
    expected = capsys.readouterr().out
    good, bad = tmp_path / "cafe.txt", tmp_path / "latin1.txt"
    good.write_bytes("# café\n".encode() + LEX_IDEAL.encode())
    bad.write_bytes(NOT_UTF8)
    env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0"}
    ok, fail = (subprocess.run([sys.executable, "-m", "initalg", "gb", str(p)],
                               capture_output=True, env=env, check=False) for p in (good, bad))
    assert (ok.returncode, ok.stderr) == (EXIT_OK, b"")
    assert ok.stdout.decode() == expected
    assert (fail.returncode, fail.stdout) == (EXIT_INPUT, b"")
    assert fail.stderr.decode() == f"error: cannot read {bad}: invalid UTF-8 at byte offset 20\n"


def test_missing_file_exits_two(capsys):
    assert run(["gb", "/nonexistent/path.txt"]) == EXIT_INPUT
    capsys.readouterr()


def test_wrong_block_exits_two(tmp_path, capsys):
    path = write(tmp_path, ALGEBRA)
    assert run(["gb", path]) == EXIT_INPUT
    capsys.readouterr()


def test_bad_weight_flag_exits_two(tmp_path, capsys):
    path = write(tmp_path, LEX_IDEAL)
    assert run(["ini", path, "--weight", "2,1"]) == EXIT_INPUT
    assert capsys.readouterr().err == "error: --weight: expected 3 weight entries, got 2\n"
    assert run(["ini", path, "--weight", "2,x,1"]) == EXIT_INPUT
    assert capsys.readouterr().err == "error: --weight: weights must be integers\n"


@pytest.mark.parametrize("command", ["gb", "sagbi", "weight", "dim", "betti"])
def test_weight_flag_only_on_commands_that_read_it(tmp_path, capsys, command):
    path = write(tmp_path, LEX_IDEAL)
    with pytest.raises(SystemExit) as ei:
        run([command, path, "--weight", "5,7"])
    assert ei.value.code == 2
    assert "unrecognized arguments: --weight 5,7" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, text, flags, err",
    [
        ("ini", ALGEBRA, ["--weight", "2,1"],
         "error: --weight: an algebra block reads no weight; it applies to an ideal\n"),
        ("hilbert", ALGEBRA, ["--weight", "2,1"],
         "error: --weight: an algebra block reads no weight; it applies to an ideal\n"),
        ("ini", LEX_IDEAL, ["--cap", "3"],
         "error: --cap: an ideal block is not completed; it applies to an algebra\n"),
        ("hilbert", LEX_IDEAL, ["--cap", "3"],
         "error: --cap: an ideal block is not completed; it applies to an algebra\n"),
    ],
    ids=["ini-algebra-weight", "hilbert-algebra-weight", "ini-ideal-cap", "hilbert-ideal-cap"],
)
def test_flag_the_block_does_not_read_exits_two(tmp_path, capsys, command, text, flags, err):
    # each was once ignored: the report came out as if the flag were absent
    assert run([command, write(tmp_path, text), *flags]) == EXIT_INPUT
    assert capsys.readouterr() == ("", err)


@pytest.mark.parametrize(
    "value, text, args, code, err",
    [
        ("abc", LEX_IDEAL, ["gb"], EXIT_INPUT,
         "error: INITALG_STEP_LIMIT must be a nonnegative integer, got 'abc'\n"),
        ("-3", LEX_IDEAL, ["gb"], EXIT_INPUT,
         "error: INITALG_STEP_LIMIT must be a nonnegative integer, got '-3'\n"),
        # an exhausted budget: Buchberger, and the toric ideal of a completion
        ("0", LEX_IDEAL, ["gb"], EXIT_MATH, "error: exceeded 0 S-polynomial reductions\n"),
        ("0", ALGEBRA, ["sagbi", "--cap", "6"], EXIT_MATH,
         "error: exceeded 0 S-polynomial reductions\n"),
        # the first basis takes 4 pairs, and an insert of the cap-20 completion
        # more than 8 signature candidates
        ("8", ALGEBRA, ["sagbi", "--cap", "20"], EXIT_MATH,
         "error: exceeded 8 S-polynomial reductions\n"),
    ],
    ids=["abc", "-3", "budget-gb", "budget-sagbi", "budget-sagbi-insert"],
)
def test_bad_step_limit_exits_two(tmp_path, capsys, monkeypatch, value, text, args, code, err):
    monkeypatch.setenv("INITALG_STEP_LIMIT", value)
    path = write(tmp_path, text)
    assert run([args[0], path, *args[1:]]) == code
    assert capsys.readouterr() == ("", err)


FAMILY_IDEAL = "ring x, y, z\nweight 2, 1, 1\nideal\nx^2 - y\nx*y - z\nend\n"


@pytest.mark.parametrize(
    "text, args, err",
    [
        (LEX_IDEAL, ["hilbert", "--dmax", "-3"], "error: d_max must be nonnegative\n"),
        (ALGEBRA, ["hilbert", "--dmax", "-3"], "error: d_max must be nonnegative\n"),
        (FAMILY_IDEAL, ["family", "--fiber", "abc"], "error: --fiber: not a rational number: 'abc'\n"),
        (FAMILY_IDEAL, ["family", "--freeness-bound", "-2"], "error: degree bound must be nonnegative\n"),
        # the checks of the problem file and of the flags read with it
        ("ring x, y\nweight 0, 1\nideal\nx\nend\n", ["gb"],
         "error: line 2: weight entries must be integers >= 1\n"),
        ("ring x, y\npairs\nx\nend\n", ["weight"], "error: line 3: pairs lines read 'mono > mono'\n"),
        ("ring ,\n", ["gb"], "error: line 1: ring needs at least one variable\n"),
        ("ring x, x\n", ["gb"], "error: line 1: variable names must be distinct\n"),
        ("order lex\nring x\n", ["gb"], "error: line 1: ring must precede order\n"),
        ("ring x\nideal x\nend\n", ["gb"], "error: line 2: generators go on the following lines\n"),
        ("ring x, y\npairs\nend\npairs\nend\n", ["weight"],
         "error: line 4: only one pairs block is allowed\n"),
        ("# no ring\n", ["gb"], "error: problem file declares no ring\n"),
        ("ring x, y\n", ["gb"], "error: this command needs a nonempty ideal or algebra block\n"),
        (LEX_IDEAL, ["gb", "--order", "weight 1"], "error: --order: weight order needs (entries; base)\n"),
        (LEX_IDEAL, ["gb", "--order", "weight(1,1,1; lex x)"],
         "error: --order: trailing text in order spec: 'x'\n"),
    ],
    ids=["hilbert-dmax", "hilbert-dmax-algebra", "family-fiber", "family-freeness-bound",
         "weight-entry", "pairs-line", "empty-ring", "repeated-variable", "order-before-ring",
         "generators-on-block-line", "second-pairs-block", "no-ring", "no-block",
         "weight-order-entries", "weight-order-base-tail"],
)
def test_failed_command_leaves_stdout_empty(tmp_path, capsys, text, args, err):
    # these fail after part of the report is built, or while the file and its
    # flags are read; none of the report may be printed
    path = write(tmp_path, text)
    assert run([args[0], path, *args[1:]]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == err


EDGE_FLAGS = [
    [], ["--dmax", "-1"], ["--dmax", "0"], ["--jmax", "-1"], ["--jmax", "0"],
    ["--cap", "0"], ["--cap", "1"], ["--cap", "3"], ["--freeness-bound", "-1"],
    ["--freeness-bound", "0"], ["--fiber", "0"], ["--weight", "1,1,1"],
]


def test_no_exception_escapes_run(tmp_path, capsys):
    # every command on an ideal and on an algebra, with edge values of every
    # flag, ends in an exit code; a flag the command lacks is argparse's exit 2
    paths = [write(tmp_path, FAMILY_IDEAL, "ideal.txt"), write(tmp_path, ALGEBRA, "algebra.txt")]
    for command in ("gb", "ini", "sagbi", "weight", "family", "hilbert", "dim", "betti"):
        for path in paths:
            for flags in EDGE_FLAGS:
                try:
                    code = run([command, path, *flags])
                except SystemExit as exc:
                    code = exc.code
                    assert code == 2, (command, path, flags)
                assert code in (EXIT_OK, EXIT_MATH, EXIT_INPUT), (command, path, flags)
    capsys.readouterr()


class Reduced(Exception):
    """Raised by the patched `_interreduce` and `_monic`: a reduced basis, or
    its monic Fraction elements, were built."""


def test_leads_only_commands_build_no_reduced_basis(tmp_path, capsys, monkeypatch):
    # hilbert, dim and the order branch of ini read only ini(I), which the
    # leads of the unreduced Buchberger loop generate; gb needs the reduced
    # basis, but renders its report from the rows and builds no monic element
    path = write(tmp_path, LEX_IDEAL)
    commands = [["hilbert", path], ["dim", path], ["ini", path]]
    reports = []
    for argv in commands + [["gb", path]]:
        assert run(argv) == EXIT_OK
        reports.append(capsys.readouterr())
    gb_report = reports.pop()

    def refuse(*args):
        raise Reduced

    interreduce, interreduced = groebner._interreduce, []

    def counting(*args):
        interreduced.append(args)
        return interreduce(*args)

    monkeypatch.setattr(groebner, "_monic", refuse)
    monkeypatch.setattr(groebner, "_interreduce", counting)
    assert run(["gb", path]) == EXIT_OK
    assert capsys.readouterr() == gb_report and len(interreduced) == 1
    monkeypatch.setattr(groebner, "_interreduce", refuse)
    ring = parse_problem(LEX_IDEAL).ring
    M = groebner.initial_ideal([parse_poly(ring, "x^2 - y"), parse_poly(ring, "x*y - z")], Lex())
    assert len(M) == 4
    for argv, report in zip(commands, reports):
        assert run(argv) == EXIT_OK
        assert capsys.readouterr() == report
    with pytest.raises(Reduced):
        run(["gb", path])


def test_parser_is_built_once_and_reused(tmp_path, capsys):
    assert _build_parser() is _build_parser()
    path = write(tmp_path, LEX_IDEAL)
    assert run(["gb", path]) == EXIT_OK
    first = capsys.readouterr().out
    with pytest.raises(SystemExit) as ei:
        run(["gb"])
    assert ei.value.code == 2
    capsys.readouterr()
    assert run(["gb", path]) == EXIT_OK
    assert capsys.readouterr().out == first


# argv, and how many times `run` falls back to the full parser for it
DISPATCH = [
    ([], 1), (["nonsense"], 1), (["-h"], 1), (["gb", "-h"], 0), (["gb"], 0),
    (["sagbi", "FILE", "--cap", "x"], 0), (["gb", "FILE", "--weight", "5,7"], 1),
    (["gb", "FILE", "--order", "lex"], 0), (["hilbert", "FILE", "--dmax", "3"], 0),
    (["verify", "lead-terms"], 0),
]


def outcome(argv, capsys):
    try:
        code = run(argv)
    except SystemExit as exc:
        code = exc.code
    return (code, *capsys.readouterr())


@pytest.mark.parametrize("argv, full_parses", DISPATCH,
                         ids=[" ".join(argv) or "no arguments" for argv, _ in DISPATCH])
def test_direct_dispatch_equals_the_full_parser(tmp_path, capsys, monkeypatch, argv, full_parses):
    # exit code, stdout and stderr as if `_build_parser().parse_args` parsed argv
    argv = [write(tmp_path, LEX_IDEAL) if a == "FILE" else a for a in argv]
    parser, calls = _build_parser(), []
    full_parse = parser.parse_args
    monkeypatch.setattr(parser, "parse_args", lambda args: calls.append(args) or full_parse(args))
    direct = outcome(argv, capsys)
    assert len(calls) == full_parses
    monkeypatch.setattr(parser, "commands", {})  # every argv through the full parser
    assert outcome(argv, capsys) == direct
    assert len(calls) == full_parses + 1


def test_unknown_scenario_exits_two(capsys):
    assert run(["verify", "nonsense"]) == EXIT_INPUT
    capsys.readouterr()


def test_duplicate_order_exits_two(tmp_path, capsys):
    path = write(tmp_path, "ring x, y\norder lex\norder revlex\nideal\nx - y\nend\n")
    assert run(["gb", path]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: line 3: duplicate order declaration\n"


def test_verify_all_scenarios_pass(capsys):
    assert run(["verify"]) == EXIT_OK
    assert capsys.readouterr().out == VERIFY_OUT.read_text()


def test_verify_failure_exits_one(capsys, monkeypatch):
    monkeypatch.setitem(SCENARIOS, "forced", lambda: iter([(False, "forced failure")]))
    assert run(["verify", "forced", "lead-terms"]) == EXIT_MATH
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "FAIL forced: forced failure"
    assert lines[1].startswith("PASS lead-terms: ")
    assert len(lines) == 2


def test_verify_single_scenario(capsys):
    assert run(["verify", "lead-terms"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("PASS lead-terms")
    assert len(out.splitlines()) == 1
