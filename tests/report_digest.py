"""Print one sha256 over the reports of every benchmark job and of `initalg verify`.

Usage, from the repository root (needs sympy, which draws the small-batch
ideals):

    PYTHONPATH=src python tests/report_digest.py

Takes the jobs of the four workloads in `perfbench/workloads.py` for seeds 1
and 2, writes each problem file with the generators in the seed's order (as
the benchmark's check pass does), and runs every job through
`initalg.cli.run` in this process, without deadlines.  Then runs `initalg
verify`.  The digest covers each job's name, exit code, stdout and stderr, so
it moves exactly when some report changes.  A digest per workload and seed
goes to stderr, to show where a change lies; the total goes to stdout.
`perfbench/` is only read.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402
from oracle import Oracle  # noqa: E402

from initalg import cli  # noqa: E402

SEEDS = (1, 2)


def report(argv) -> list:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return [code, out.getvalue(), err.getvalue()]


def record(digests, name: str, argv) -> None:
    line = (json.dumps([name, *report(argv)]) + "\n").encode()
    for h in digests:
        h.update(line)


def main() -> int:
    oracle = Oracle()
    total = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        for workload in workloads.WORKLOADS:
            for seed in SEEDS:
                part = hashlib.sha256()
                jobs, _ = workloads.build(workload, seed, oracle)
                rng = workloads.pass_rng(seed)
                for k, job in enumerate(jobs):
                    path = Path(tmp) / f"job{k:03d}.txt"
                    path.write_text(workloads.problem_text(job["problem"], rng))
                    record((total, part), f"{workload}/{seed}/{job['name']}",
                           [job["command"], str(path), *job["flags"]])
                print(f"{workload} seed {seed}: {len(jobs)} jobs, sha256 {part.hexdigest()}",
                      file=sys.stderr)
    record((total,), "verify", ["verify"])
    print(total.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
