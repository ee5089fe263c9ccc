"""Seeded job lists for the four benchmark workloads.

A job is one `initalg <command> problem.txt [flags]` invocation.  Jobs are
plain dicts so they cross the process boundary as JSON: the harness builds
them, the worker writes their problem files and runs them, the oracle checks
their reports.  Problems are stored as generator strings; `problem_text`
renders a problem file with the generators in the listed order or in a
seeded one, so the program only ever sees problem files.
"""

from __future__ import annotations

import random

WORKLOADS = ("gb-systems", "sagbi-completion", "invariants", "small-batch")

# Per-job deadlines in seconds.  Ordinary jobs get several times their
# baseline latency; the blow-up job gets the one-second target of the
# Buchberger rewrite, so it stays a visible cliff until that lands.
DEADLINE_S = 30.0
CLIFF_DEADLINE_S = 1.0
SMALL_DEADLINE_S = 2.0

# 50 jobs per command x order pair.  Random ideals whose reduced basis has
# more comparison pairs are redrawn: they hold the simplex tail (up to 2.5 s
# per weight job at baseline) and the lex coefficient-swell cliff, which make
# pass times depend on the seed far more than on the program; gb-systems
# measures that cliff instead.
SMALL_BATCH_JOBS = 600
MAX_COMPARISON_PAIRS = 8

# Timed passes every untraced run makes at least, after its check pass.
MIN_PASSES = 2

# Jobs much shorter than their workload's pass run this many times in a row
# in every pass (named job#k), so that their median latency rests on more
# than a few runs.
SHORT_REPEAT = 5


def problem(ring, gens, order, block="ideal", weight=None):
    return {"ring": list(ring), "order": order, "gens": list(gens), "block": block,
            "weight": weight}


def job(name, command, prob, flags=(), deadline=DEADLINE_S, cliff=False, expect=None):
    """`cliff` marks a job expected to hit its deadline today: reaching it is
    reported, not counted as a failure; a finished report is still checked."""
    return {"name": name, "command": command, "problem": prob, "flags": list(flags),
            "deadline": deadline, "cliff": cliff, "expect": expect or {}}


def repeated(jobs, times=SHORT_REPEAT):
    return [dict(j, name=f"{j['name']}#{r}") for j in jobs for r in range(times)]


def problem_text(prob, rng: random.Random | None) -> str:
    """The problem file; with `rng`, the generators in a seeded order."""
    gens = list(prob["gens"])
    if rng is not None:
        rng.shuffle(gens)
    lines = [f"ring {', '.join(prob['ring'])}", f"order {prob['order']}"]
    if prob["weight"]:
        lines.append("weight " + ", ".join(str(w) for w in prob["weight"]))
    lines += [prob["block"], *gens, "end"]
    return "\n".join(lines) + "\n"


def pass_rng(seed: int) -> random.Random:
    """Generator-order permutation source for the seeded pass over the job list."""
    return random.Random(f"perfbench/{seed}/0")


# ---------------------------------------------------------------------------
# classic systems


def cyclic(n: int):
    xs = [f"x{i}" for i in range(n)]
    eqs = [
        " + ".join("*".join(xs[(i + j) % n] for j in range(k)) for i in range(n))
        for k in range(1, n)
    ]
    eqs.append("*".join(xs) + " - 1")
    return xs, eqs


def katsura(nvars: int):
    """Katsura system in u0..u{nvars-1}: nvars equations."""
    m = nvars - 1
    us = [f"u{i}" for i in range(nvars)]

    def u(k):
        k = abs(k)
        return us[k] if k <= m else None

    eqs = []
    for l in range(m):
        coeffs: dict[tuple[str, str], int] = {}
        for i in range(-m, m + 1):
            a, b = u(i), u(l - i)
            if a is None or b is None:
                continue
            key = tuple(sorted((a, b)))
            coeffs[key] = coeffs.get(key, 0) + 1
        terms = [f"{c}*{a}*{b}" if c != 1 else f"{a}*{b}" for (a, b), c in sorted(coeffs.items())]
        eqs.append(" + ".join(terms) + f" - {us[l]}")
    eqs.append(" + ".join([us[0]] + [f"2*{x}" for x in us[1:]]) + " - 1")
    return us, eqs


def rational_normal_curve(d: int):
    """2x2 minors of the 2 x d catalecticant: the degree-d rational normal curve."""
    xs = [f"x{i}" for i in range(d + 1)]
    minors = [f"{xs[i]}*{xs[j + 1]} - {xs[j]}*{xs[i + 1]}"
              for i in range(d) for j in range(i + 1, d)]
    return xs, minors


BLOWUP = ["x^2*y*z - 4*x*y^2*z - 3*x^2*z + y^2", "4*x*y^2 - 3*y^2 + 4",
          "-5*x^2*y^2 - 4*y^2*z^2"]


def gb_systems():
    systems = [
        ("cyclic5-revlex", problem(*cyclic(5), order="revlex")),
        ("katsura5-revlex", problem(*katsura(5), order="revlex")),
        ("cyclic4-lex", problem(*cyclic(4), order="lex")),
        ("katsura3-lex", problem(*katsura(3), order="lex")),
        ("katsura4-deglex", problem(*katsura(4), order="deglex")),
    ]
    # cyclic-5 runs only `gb`: `hilbert` and `dim` would repeat the same
    # Buchberger run, which already takes most of the pass time.
    jobs = []
    for name, prob in systems:
        cmds = [job(f"{cmd}:{name}", cmd, prob)
                for cmd in (("gb",) if name == "cyclic5-revlex" else ("gb", "hilbert", "dim"))]
        jobs += cmds if name.endswith("5-revlex") else repeated(cmds)
    jobs.append(job("gb:blowup-lex", "gb", problem(("x", "y", "z"), BLOWUP, "lex"),
                    deadline=CLIFF_DEADLINE_S, cliff=True))
    return jobs


def sagbi_completion():
    xy = problem(("x", "y"), ["x + y", "x*y", "x*y^2"], "deglex", block="algebra")
    sym = problem(("x", "y", "z"), ["x + y + z", "x*y + x*z + y*z", "x*y*z"], "lex",
                  block="algebra")
    quad = problem(("x", "y", "z"), ["x^2 + y*z", "y^2 + x*z", "z^2 + x*y"], "revlex",
                   block="algebra")
    return [
        job("sagbi-cap8:xy-deglex", "sagbi", xy, ["--cap", "8"],
            expect={"truncated_monomials": "x*y^k"}),
        job("hilbert-dmax7:xy-deglex", "hilbert", xy, ["--dmax", "7"]),
        *repeated([
            job("sagbi:symmetric-lex", "sagbi", sym, expect={"status": "basis"}),
            job("weight:symmetric-lex", "weight", sym),
            job("sagbi-cap6:quadrics-revlex", "sagbi", quad, ["--cap", "6"]),
        ]),
    ]


def invariants():
    quartic, cubic = rational_normal_curve(4), rational_normal_curve(3)
    return [
        job("betti:quartic", "betti", problem(*quartic, order="revlex"),
            expect={"rnc_degree": 4}),
        *repeated([
            job("betti:twisted-cubic", "betti", problem(*cubic, order="revlex"),
                expect={"rnc_degree": 3}),
            job("family:twisted-cubic-affine", "family",
                problem(("x", "y", "z"), ["x^2 - y", "x*y - z"], "lex", weight=(2, 1, 1)),
                ["--fiber", "0", "--freeness-bound", "14"]),
            job("hilbert:quartic", "hilbert", problem(*quartic, order="revlex")),
            job("hilbert:twisted-cubic", "hilbert", problem(*cubic, order="revlex")),
        ]),
    ]


# ---------------------------------------------------------------------------
# seeded random ideals


def _random_poly(rng: random.Random, names) -> str:
    """At most 3 distinct terms, exponents <= 2, nonzero coefficients in [-5, 5]."""
    n_terms = rng.randint(1, 3)
    monos = rng.sample([(a, b, c) for a in range(3) for b in range(3) for c in range(3)],
                       n_terms)
    out = []
    for exps in monos:
        coeff = rng.choice([c for c in range(-5, 6) if c])
        body = "*".join(v if e == 1 else f"{v}^{e}" for v, e in zip(names, exps) if e)
        mag = abs(coeff)
        text = body if mag == 1 and body else (f"{mag}*{body}" if body else str(mag))
        if not out:
            out.append(("-" if coeff < 0 else "") + text)
        else:
            out.append((" - " if coeff < 0 else " + ") + text)
    return "".join(out)


def small_batch(seed: int, oracle):
    """Equal shares of every command x order pair; each ideal drawn from the
    seed until its oracle basis (under the job's order) has at most
    MAX_COMPARISON_PAIRS lead-versus-other-term pairs."""
    rng = random.Random(f"perfbench/small-batch/{seed}")
    names = ("x", "y", "z")
    kinds = [(c, o) for c in ("gb", "hilbert", "dim", "weight") for o in ("lex", "deglex", "revlex")]
    slots = kinds * (SMALL_BATCH_JOBS // len(kinds))
    rng.shuffle(slots)
    jobs, drawn = [], 0
    for k, (command, order) in enumerate(slots):
        while True:
            drawn += 1
            prob = problem(names, [_random_poly(rng, names) for _ in range(2)], order)
            if oracle.comparison_pairs(prob) <= MAX_COMPARISON_PAIRS:
                break
        jobs.append(job(f"{command}:random{k:03d}-{order}", command, prob,
                        deadline=SMALL_DEADLINE_S))
    return jobs, drawn


def build(workload: str, seed: int, oracle):
    """(jobs, number of random ideals drawn) for one workload and seed."""
    if workload == "small-batch":
        return small_batch(seed, oracle)
    fixed = {"gb-systems": gb_systems, "sagbi-completion": sagbi_completion,
             "invariants": invariants}
    return fixed[workload](), 0
