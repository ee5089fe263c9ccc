"""Independent verdicts on CLI reports, computed with sympy outside the timed region.

sympy is imported only here, in the harness process; the measured worker
never loads it.  Every check reads the report text and compares it with a
result derived without initalg:

- gb: the reduced basis equals `sympy.groebner(..., domain="QQ")`.
- hilbert (ideal): values are brute-force counts of standard monomials of the
  sympy basis; dim: the largest variable set containing no leading-monomial
  support; the unit ideal must be refused with exit code 1 or 2.
- weight: strictly positive and strictly separating the lead term from every
  other term of each oracle basis element (or algebra generator).
- sagbi / hilbert (algebra): for each degree d up to the cap, the dimension
  of the algebra's degree-d piece (rank of the products of generators) equals
  the number of degree-d semigroup elements of the reported initial monomials.
- betti: Eagon-Northcott numbers beta_{i,i+1} = i*C(d, i+1) of the degree-d
  rational normal curve.
- family: the t = 0 fiber is the lex initial ideal, the t = 1 fiber
  generates the ideal, and freeness is certified to the requested bound.
"""

from __future__ import annotations

from itertools import combinations, product
from math import comb

import sympy
from sympy.parsing.sympy_parser import parse_expr

SYMPY_ORDER = {"lex": "lex", "deglex": "grlex", "revlex": "grevlex"}


class Oracle:
    def __init__(self):
        self._bases = {}

    # -- helpers -------------------------------------------------------------

    @staticmethod
    def _symbols(names):
        return [sympy.Symbol(n) for n in names]

    def _poly(self, text, names):
        syms = self._symbols(names)
        expr = parse_expr(text.replace("^", "**"), local_dict=dict(zip(names, syms)))
        return sympy.Poly(expr, *syms, domain="QQ")

    def basis(self, prob):
        """Reduced Gröbner basis of the problem's ideal, as sympy Polys."""
        key = (tuple(prob["ring"]), prob["order"], tuple(sorted(prob["gens"])))
        if key not in self._bases:
            polys = [self._poly(g, prob["ring"]) for g in prob["gens"]]
            gb = sympy.groebner(polys, *self._symbols(prob["ring"]),
                                order=SYMPY_ORDER[prob["order"]], domain="QQ")
            self._bases[key] = list(gb.polys)
        return self._bases[key]

    def comparison_pairs(self, prob) -> int:
        """Lead-versus-other-term pairs over the reduced basis: the size of the
        comparison set a weight must separate."""
        return sum(len(p.terms()) - 1 for p in self.basis(prob))

    @staticmethod
    def _key(poly):
        return frozenset(poly.as_dict().items())

    @staticmethod
    def _monoms(poly, order):
        return poly.monoms(order=SYMPY_ORDER[order])

    def _leads(self, prob):
        return [self._monoms(p, prob["order"])[0] for p in self.basis(prob)]

    @staticmethod
    def _is_unit(basis):
        return len(basis) == 1 and basis[0].is_ground

    @staticmethod
    def _standard_counts(leads, n, d_max):
        def divides(a, b):
            return all(x <= y for x, y in zip(a, b))

        counts = []
        for d in range(d_max + 1):
            monos = [e for e in product(range(d + 1), repeat=n) if sum(e) == d]
            counts.append(sum(1 for m in monos if not any(divides(l, m) for l in leads)))
        return counts

    @staticmethod
    def _semigroup_counts(monos, d_max):
        layers = [{(0,) * len(monos[0])}] + [set() for _ in range(d_max)]
        for d in range(1, d_max + 1):
            for m in monos:
                w = sum(m)
                if w <= d:
                    layers[d] |= {tuple(a + b for a, b in zip(v, m)) for v in layers[d - w]}
        return [len(layer) for layer in layers]

    def _algebra_dims(self, prob, d_max):
        """dim of the degree-d piece of the algebra, d = 0..d_max (homogeneous gens)."""
        gens = [self._poly(g, prob["ring"]) for g in prob["gens"]]
        degs = [g.total_degree() for g in gens]
        dims = [1]
        for d in range(1, d_max + 1):
            rows = []
            for alpha in product(*(range(d // w + 1) for w in degs)):
                if sum(a * w for a, w in zip(alpha, degs)) != d:
                    continue
                p = sympy.Poly(1, *gens[0].gens, domain="QQ")
                for g, a in zip(gens, alpha):
                    p = p * g**a
                rows.append(p.as_dict())
            monos = sorted({m for r in rows for m in r})
            matrix = sympy.Matrix([[r.get(m, 0) for m in monos] for r in rows])
            dims.append(matrix.rank() if rows else 0)
        return dims

    def _report_polys(self, lines, names):
        return [self._poly(line, names) for line in lines]

    # -- verdicts ------------------------------------------------------------

    def check(self, job, code, stdout, stderr):
        """(ok, detail) for one finished job."""
        try:
            return getattr(self, "_check_" + job["command"])(
                job, job["problem"], code, stdout.splitlines(), stderr)
        except Exception as exc:  # a malformed report is a wrong report, not a crash
            return False, f"unreadable report ({type(exc).__name__}: {exc})"

    def _check_gb(self, job, prob, code, lines, stderr):
        if code != 0:
            return False, f"exit code {code}"
        body = [line for line in lines if not line.startswith("#")]
        header = lines[0]
        if not header.endswith(f": {len(body)} elements"):
            return False, f"header {header!r} disagrees with {len(body)} lines"
        got = {self._key(p) for p in self._report_polys(body, prob["ring"])}
        want = {self._key(p) for p in self.basis(prob)}
        if got != want or len(body) != len(want):
            return False, f"basis differs from sympy ({len(body)} vs {len(want)} elements)"
        return True, f"{len(body)} elements match sympy"

    def _values(self, lines):
        line = next(l for l in lines if l.startswith("values: "))
        return [int(v) for v in line[len("values: "):].split(",")]

    def _dmax(self, job):
        flags = job["flags"]
        return int(flags[flags.index("--dmax") + 1]) if "--dmax" in flags else 10

    def _check_hilbert(self, job, prob, code, lines, stderr):
        if code != 0:
            return False, f"exit code {code}"
        got = self._values(lines)
        d_max = self._dmax(job)
        if prob["block"] == "algebra":
            want = self._algebra_dims(prob, d_max)
        else:
            if not any(l.startswith("series: ") for l in lines):
                return False, "no series line"
            want = self._standard_counts(self._leads(prob), len(prob["ring"]), d_max)
        if got != want:
            return False, f"values {got} != oracle {want}"
        return True, f"values match to degree {d_max}"

    def _check_dim(self, job, prob, code, lines, stderr):
        basis = self.basis(prob)
        if self._is_unit(basis):
            ok = code in (1, 2) and stderr.strip() != ""
            return ok, f"unit ideal refused with exit code {code}"
        if code != 0:
            return False, f"exit code {code}"
        n = len(prob["ring"])
        supports = [{i for i, e in enumerate(m) if e} for m in self._leads(prob)]
        want = max(size for size in range(n + 1) for t in combinations(range(n), size)
                   if not any(s <= set(t) for s in supports))
        got = lines[0]
        return got == f"dimension: {want}", f"{got!r}, oracle {want}"

    def _check_weight(self, job, prob, code, lines, stderr):
        if code != 0:
            return False, f"exit code {code}"
        w = [int(v) for v in lines[0].split()]
        if len(w) != len(prob["ring"]) or min(w) < 1:
            return False, f"weight {w} is not strictly positive of arity {len(prob['ring'])}"
        if prob["block"] == "algebra":
            polys = [self._poly(g, prob["ring"]) for g in prob["gens"]]
        else:
            polys = self.basis(prob)
        for p in polys:
            lead, *rest = self._monoms(p, prob["order"])
            top = sum(a * b for a, b in zip(w, lead))
            if any(sum(a * b for a, b in zip(w, m)) >= top for m in rest):
                return False, f"weight {w} does not separate the terms of {p.as_expr()}"
        return True, f"weight {w} separates {len(polys)} polynomials"

    def _check_sagbi(self, job, prob, code, lines, stderr):
        if code != 0:
            return False, f"exit code {code}"
        status = lines[0]
        flags = job["flags"]
        names = prob["ring"]
        if "--cap" not in flags:
            want = job["expect"].get("status", "basis")
            if status != f"status: {want}":
                return False, f"{status!r}, expected {want!r}"
            leads = [self._monoms(self._poly(g, names), prob["order"])[0] for g in prob["gens"]]
            d_max = 6
        else:
            d_max = int(flags[flags.index("--cap") + 1])
            if status not in ("status: complete", f"status: truncated at degree {d_max}"):
                return False, f"unexpected {status!r}"
            at = lines.index(next(l for l in lines if l.startswith("# initial algebra")))
            leads = [self._poly(l, names).monoms()[0] for l in lines[at + 1:]]
            if job["expect"].get("truncated_monomials") == "x*y^k":
                if status != f"status: truncated at degree {d_max}" or \
                        leads != [(1, k) for k in range(d_max)]:
                    return False, f"{status!r} with initial monomials {leads}"
        got = self._semigroup_counts(leads, d_max)
        want = self._algebra_dims(prob, d_max)
        if got != want:
            return False, f"semigroup counts {got} != algebra dimensions {want}"
        return True, f"{status}; dimensions agree to degree {d_max}"

    def _check_betti(self, job, prob, code, lines, stderr):
        if code != 0:
            return False, f"exit code {code}"
        d = job["expect"]["rnc_degree"]
        want = ["beta 0 0 = 1"] + [f"beta {i} {i + 1} = {i * comb(d, i + 1)}"
                                    for i in range(1, d)]
        want += [f"projective dimension: {d - 1}", "regularity: 1"]
        return lines == want, ", ".join(l.split(" = ")[-1] for l in lines if l.startswith("beta"))

    def _check_family(self, job, prob, code, lines, stderr):
        if code != 0:
            return False, f"exit code {code}"
        flags = job["flags"]
        bound = flags[flags.index("--freeness-bound") + 1]
        fiber_at = lines.index("# fiber at t = 0")
        total = self._report_polys(lines[1:fiber_at], prob["ring"] + ["t"])
        fiber = self._report_polys(lines[fiber_at + 1:-1], prob["ring"])
        if lines[-1] != f"freeness: ok (bound {bound})":
            return False, f"{lines[-1]!r}"
        want0 = {self._key(sympy.Poly(sympy.prod(s ** e for s, e in zip(p.gens, m)), *p.gens,
                                      domain="QQ"))
                 for p, m in zip(self.basis(prob), self._leads(prob))}
        if {self._key(p) for p in fiber} != want0:
            return False, "fiber at t = 0 is not the lex initial ideal"
        t = sympy.Symbol("t")
        at_one = [p.as_expr().subs(t, 1) for p in total]
        gb = sympy.groebner(at_one, *self._symbols(prob["ring"]),
                            order=SYMPY_ORDER[prob["order"]], domain="QQ")
        if {self._key(p) for p in gb.polys} != {self._key(p) for p in self.basis(prob)}:
            return False, "fiber at t = 1 does not generate the ideal"
        return True, f"fibers at 0 and 1 match, free to degree {bound}"
