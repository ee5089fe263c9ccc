"""Layer spans recorded from outside the program.

`Tracer.install` replaces the public functions listed in `LAYERS` with
timing wrappers in every `initalg` module namespace that holds them (callers
look them up there at call time), and `uninstall` puts the originals back.
`src/initalg` is not edited.  Each call becomes a span (job, name, parent,
start, end); a span's self time is its duration minus the time its child
spans and their instrumentation took.  Counters are kept per job and merged
only for jobs that finished, so a deadline cut at a timing-dependent point
cannot make them differ between runs.

`orders` and `poly` are not wrapped: their functions run hundreds of
thousands of times per job and would swamp the measurement, so their cost
stays in the self time of the layer that calls them.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (module, function, span name).  cli.format covers the report formatting
# done through the names `initalg.cli` imported, not poly's internal uses.
LAYERS = (
    ("cli", "run", "cli.run"),
    ("cli", "parse_problem", "cli.parse_problem"),
    ("cli", "format_poly", "cli.format"),
    ("cli", "format_monomial", "cli.format"),
    ("groebner", "buchberger", "groebner.buchberger"),
    ("groebner", "s_polynomial", "groebner.s_polynomial"),
    ("groebner", "normal_form", "groebner.normal_form"),
    ("groebner", "presentation_kernel", "groebner.presentation_kernel"),
    ("sagbi", "sagbi_complete", "sagbi.sagbi_complete"),
    ("sagbi", "sagbi_test", "sagbi.sagbi_test"),
    ("sagbi", "subduct_with_certificate", "sagbi.subduct"),
    ("sagbi", "factor_over_monomials", "sagbi.factor_over_monomials"),
    ("linalg", "exact_rank", "linalg.exact_rank"),
    ("linalg", "exact_rank_sparse", "linalg.exact_rank_sparse"),
    ("betti", "graded_betti", "betti.graded_betti"),
    ("family", "homogenize_ideal", "family.homogenize_ideal"),
    ("family", "freeness_basis_check", "family.freeness_basis_check"),
    ("hilbert", "hilbert_series_monomial", "hilbert.series"),
    ("hilbert", "hilbert_series_subalgebra", "hilbert.subalgebra"),
    ("simplex", "linear_program", "simplex.linear_program"),
    ("weights", "find_weight", "weights.find_weight"),
)

# Only cli.format wraps a name in one namespace; the rest are replaced
# wherever the original function object is bound.
_CLI_ONLY = {"cli.format"}


def innermost_layer(frame) -> str:
    """Name of the innermost open layer span, read from a Python stack frame."""
    codes = _layer_codes()
    while frame is not None:
        name = codes.get(frame.f_code)
        if name is not None:
            return name
        frame = frame.f_back
    return "none"


@functools.cache
def _layer_codes():
    codes = {}
    for module, func, name in LAYERS:
        fn = getattr(sys.modules[f"initalg.{module}"], func)
        fn = getattr(fn, "__wrapped__", fn)
        codes[fn.__code__] = name
    return codes


def _coeff_bits(basis) -> int:
    return max((max(t.coeff.numerator.bit_length(), t.coeff.denominator.bit_length())
                for g in basis.elements for t in g.terms), default=0)


class _Frame:
    __slots__ = ("name", "span_id", "child", "spoly_pending")

    def __init__(self, name, span_id):
        self.name = name
        self.span_id = span_id
        self.child = 0.0
        self.spoly_pending = False


class Tracer:
    def __init__(self):
        self.stack: list[_Frame] = []
        self.spans: list[tuple] = []  # (job, name, parent span id, start, end)
        self.job = -1
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()  # merged from finished jobs
        self.job_counts: Counter = Counter()
        self._patched: list[tuple] = []

    # -- job boundaries ----------------------------------------------------

    def start_job(self, index: int) -> None:
        self.job = index
        self.job_counts = Counter()
        self.stack.clear()

    def end_job(self, finished: bool) -> None:
        if finished:
            bits = self.job_counts.pop("groebner.coeff_bits_max", 0)
            self.counts["groebner.coeff_bits_max"] = max(
                self.counts["groebner.coeff_bits_max"], bits)
            self.counts.update(self.job_counts)
        self.job_counts = Counter()

    # -- per-layer observations -------------------------------------------

    def _before(self, name, args, parent):
        c = self.job_counts
        c[name + "_calls"] += 1
        if name == "groebner.s_polynomial" and parent is not None:
            parent.spoly_pending = True
        elif name == "groebner.presentation_kernel":
            if any(f.name == "sagbi.sagbi_test" for f in self.stack):
                c["sagbi.kernel_builds"] += 1
        elif name == "linalg.exact_rank":
            rows = args[0]
            c["linalg.exact_rank_cells"] += len(rows) * (len(rows[0]) if rows else 0)
            c["linalg.exact_rank_nonzero"] += sum(1 for r in rows for v in r if v)
        elif name == "linalg.exact_rank_sparse":
            rows = list(args[0])  # may be a one-shot iterable
            args = (rows,) + tuple(args[1:])
            c["linalg.exact_rank_sparse_nnz"] += sum(1 for r in rows for v in r.values() if v)
        return args

    def _after(self, name, result, parent):
        c = self.job_counts
        if name == "groebner.buchberger":
            c["groebner.basis_elements"] += len(result.elements)
            c["groebner.coeff_bits_max"] = max(c["groebner.coeff_bits_max"],
                                               _coeff_bits(result))
        elif name == "groebner.normal_form":
            if parent is not None and parent.spoly_pending:
                parent.spoly_pending = False
                c["groebner.spair_reductions"] += 1
                if result.is_zero():
                    c["groebner.zero_reductions"] += 1
        elif name == "sagbi.subduct" and not result.remainder.is_zero():
            c["sagbi.witnesses"] += 1

    # -- wrapping ----------------------------------------------------------

    def wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t_in = perf_counter()
            stack = tracer.stack
            parent = stack[-1] if stack else None
            args = tracer._before(name, args, parent)
            frame = _Frame(name, len(tracer.spans))
            tracer.spans.append(None)  # reserve the id; filled when the span closes
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                tracer.total_s[name] += dur
                tracer.self_s[name] += dur - frame.child
                tracer.spans[frame.span_id] = (
                    tracer.job, name, parent.span_id if parent else -1, t0, t1)
                if parent is not None:
                    parent.child += perf_counter() - t_in
            t_after = perf_counter()
            tracer._after(name, result, parent)
            if parent is not None:
                parent.child += perf_counter() - t_after
            return result

        return traced

    def install(self) -> None:
        modules = {n: m for n, m in sys.modules.items()
                   if n == "initalg" or n.startswith("initalg.")}
        wrappers = {}
        for module, func, name in LAYERS:
            original = getattr(modules[f"initalg.{module}"], func)
            wrappers[id(original)] = (original, self.wrap(name, original))
            targets = [modules["initalg.cli"]] if name in _CLI_ONLY else modules.values()
            for mod in targets:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrappers[id(original)][1])
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer numbers of one traced pass, named as in BENCHMARK.json."""
    t, s, c = tracer.total_s, tracer.self_s, tracer.counts

    def frac(num, den):
        return c[num] / c[den] if c[den] else 0.0

    return {
        "groebner.buchberger_self_s": s["groebner.buchberger"],
        "groebner.buchberger_calls": c["groebner.buchberger_calls"],
        "groebner.s_polynomial_calls": c["groebner.s_polynomial_calls"],
        "groebner.normal_form_s": t["groebner.normal_form"],
        "groebner.normal_form_calls": c["groebner.normal_form_calls"],
        "groebner.zero_reduction_frac": frac("groebner.zero_reductions",
                                             "groebner.spair_reductions"),
        "groebner.coeff_bits_max": c["groebner.coeff_bits_max"],
        "groebner.basis_elements": c["groebner.basis_elements"],
        "groebner.presentation_kernel_s": t["groebner.presentation_kernel"],
        "groebner.presentation_kernel_calls": c["groebner.presentation_kernel_calls"],
        "sagbi.kernel_builds": c["sagbi.kernel_builds"],
        "sagbi.sagbi_test_calls": c["sagbi.sagbi_test_calls"],
        "sagbi.subduct_s": t["sagbi.subduct"],
        "sagbi.subduct_calls": c["sagbi.subduct_calls"],
        "sagbi.witness_frac": frac("sagbi.witnesses", "sagbi.subduct_calls"),
        "sagbi.factor_over_monomials_calls": c["sagbi.factor_over_monomials_calls"],
        "linalg.exact_rank_s": t["linalg.exact_rank"],
        "linalg.exact_rank_calls": c["linalg.exact_rank_calls"],
        "linalg.exact_rank_cells": c["linalg.exact_rank_cells"],
        "linalg.exact_rank_nonzero_frac": frac("linalg.exact_rank_nonzero",
                                               "linalg.exact_rank_cells"),
        "linalg.exact_rank_sparse_s": t["linalg.exact_rank_sparse"],
        "linalg.exact_rank_sparse_nnz": c["linalg.exact_rank_sparse_nnz"],
        "betti.graded_betti_self_s": s["betti.graded_betti"],
        "family.freeness_basis_check_self_s": s["family.freeness_basis_check"],
        "hilbert.series_s": t["hilbert.series"],
        "hilbert.series_calls": c["hilbert.series_calls"],
        "hilbert.subalgebra_s": t["hilbert.subalgebra"],
        "simplex.linear_program_s": t["simplex.linear_program"],
        "simplex.linear_program_calls": c["simplex.linear_program_calls"],
        "weights.find_weight_s": t["weights.find_weight"],
        "cli.run_self_s": s["cli.run"],
        "cli.parse_problem_s": t["cli.parse_problem"],
        "cli.format_s": t["cli.format"],
    }


# Metrics that count work; they must repeat exactly between traced runs.
COUNT_METRICS = tuple(
    k for k in layer_metrics(Tracer())
    if k.endswith(("_calls", "_cells", "_nnz", "_builds", "_frac"))
    or k in ("groebner.coeff_bits_max", "groebner.basis_elements")
)


def write_spans(tracer: Tracer, path: str) -> None:
    """One JSON line per span: job, name, parent span id (-1 for none), start, end."""
    with open(path, "w") as fh:
        for span_id, span in enumerate(tracer.spans):
            fh.write(json.dumps([span_id, *span]) + "\n")
