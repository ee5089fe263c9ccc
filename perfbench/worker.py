"""The measured process: runs a job list through `initalg.cli.run` in-process.

Started fresh by `run.py` for every measurement, so its peak resident memory
is that of a process running the workload.  It reads a JSON spec on stdin,
writes each pass's problem files (untimed), then runs the pass: one job at a
time, no threads, each job under a `signal.setitimer` deadline.  It imports
only `initalg` and the benchmark's own modules; reports go back as JSON on
stdout and are checked by the parent, outside the timed region.

Spec keys: seed, seconds, trace, min_passes, workdir, spans_path, jobs.
Untraced mode first makes one check pass with the generators in the seed's
order, then timed passes with the generators in the order the workload
lists them, until `seconds` of timed passes have passed and at least
`min_passes` ran.  Jobs of timed passes carry the machine-speed samples of
`probe.py`.  Traced mode alternates an untraced and a traced pass over the
seed's order, without the probe, so wall times compare and counters of the
traced passes must repeat exactly.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import signal
import sys
from pathlib import Path
from time import perf_counter

import tracing
import workloads
from probe import SpeedProbe


class DeadlineExceeded(Exception):
    def __init__(self, layer: str):
        super().__init__(layer)
        self.layer = layer


def _on_alarm(signum, frame):
    raise DeadlineExceeded(tracing.innermost_layer(frame))


def peak_rss_kb() -> int:
    """This process's own peak resident set.  getrusage's ru_maxrss is not
    used: Linux carries the parent's high-water mark across fork and exec."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def write_problems(jobs, workdir: Path, rng) -> list[str]:
    paths = []
    for k, job in enumerate(jobs):
        path = workdir / f"job{k:03d}.txt"
        path.write_text(workloads.problem_text(job["problem"], rng))
        paths.append(str(path))
    return paths


def run_job(cli, job, path, tracer, probe, index):
    """One job.  With a probe, `latency` excludes the probe chunks run inside
    the job and `probe` holds every chunk time of the job."""
    argv = [job["command"], path, *job["flags"]]
    out, err = io.StringIO(), io.StringIO()
    if tracer is not None:
        tracer.start_job(index)
    layer = None
    code = None
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            signal.setitimer(signal.ITIMER_REAL, job["deadline"])
            if probe is not None:
                probe.start()
            try:
                code = cli.run(argv)  # module lookup: traced passes reach the wrapper
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
    except DeadlineExceeded as exc:
        layer = exc.layer
    in_job = probe.stop() if probe is not None else 0.0
    latency = perf_counter() - t0 - in_job
    if tracer is not None:
        tracer.end_job(finished=layer is None)
    return {"latency": latency, "probe": probe.finish(latency) if probe is not None else None,
            "code": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
            "deadline_layer": layer}


def run_pass(cli, jobs, paths, tracer=None, probe=None):
    t0 = perf_counter()
    results = [run_job(cli, job, path, tracer, probe, k)
               for k, (job, path) in enumerate(zip(jobs, paths))]
    return perf_counter() - t0, results


def main() -> int:
    spec = json.load(sys.stdin)
    import initalg.cli

    signal.signal(signal.SIGALRM, _on_alarm)
    jobs, seed, traced_mode = spec["jobs"], spec["seed"], spec["trace"]
    workdir = Path(spec["workdir"])
    min_passes = spec["min_passes"] * (2 if traced_mode else 1)
    probe = None if traced_mode else SpeedProbe()
    passes, layers = [], []
    while True:
        index = len(passes)
        traced = traced_mode and index % 2 == 1
        timed = not traced_mode and index > 0
        seeded = traced_mode or index == 0
        rng = workloads.pass_rng(seed) if seeded else None
        paths = write_problems(jobs, workdir, rng)
        if index == (0 if traced_mode else 1):
            start = perf_counter()
        tracer = None
        if traced:
            tracer = tracing.Tracer()
            tracer.install()
        try:
            wall, results = run_pass(initalg.cli, jobs, paths, tracer,
                                     probe if timed else None)
        finally:
            if tracer is not None:
                tracer.uninstall()
        passes.append({"wall": wall, "traced": traced, "timed": timed, "jobs": results})
        if tracer is not None:
            layers.append(tracing.layer_metrics(tracer))
            if len(layers) == 1:
                tracing.write_spans(tracer, spec["spans_path"])
        done = len(passes) - (0 if traced_mode else 1)
        if (done >= min_passes and perf_counter() - start >= spec["seconds"]
                and (not traced_mode or done % 2 == 0)):
            break
    json.dump({"passes": passes, "layers": layers,
               "peak_rss_kb": peak_rss_kb(),
               "initalg_file": os.path.abspath(initalg.cli.__file__)}, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
