"""initalg benchmark: whole CLI jobs, checked by an oracle, timed per workload.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload gb-systems --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 1

A fresh worker process (`worker.py`) imports `initalg.cli` from `src/` and
runs the workload's job list in a closed loop: one client, one job at a time,
no threads.  The first pass has the generators of every problem in the
seed's order; it is checked but not timed.  Timed passes follow, with the
generators in the order the workload lists them, until --seconds of them
have passed and at least `workloads.MIN_PASSES` ran.  This process then
checks every report against `oracle.py` (sympy), outside the timed region,
and prints one line per job with its verdict, one line per metric with its
unit, and last a JSON object with `correct`, `attempted`, `failed` and
`metrics`.

--trace 0 gives the end-to-end metrics.  Times are in reference seconds
(`probe.py`): measured time scaled by the machine speed sampled during the
job, because the speed of a shared host drifts by up to 2x within minutes.
A job's latency is the median over its timed runs (short jobs run several
times a pass, as job#k); a run cut by its deadline counts at the deadline.
  wall_s       one run of each distinct job at those latencies
  job_p50_s    median job latency
  ok_frac      job runs whose report passed the oracle / job runs attempted
  peak_rss_mb  peak resident memory of the worker process
  setup_s      median time to import initalg.cli in a fresh interpreter
It also prints, outside the JSON, failed_frac, the unscaled wall time, and
job_tail_s: the highest timed-run latency percentile with at least ten runs
beyond it.
--trace 1 alternates untraced and traced passes over the seed's order,
without the probe, and gives the per-layer metrics of `tracing.py` plus
trace.overhead_frac.

A job fails when its report is wrong, its exit code is unexpected, its report
bytes change with the generator order, or it reaches its deadline.  The one
exception is a job marked as a cliff (the lex blow-up): reaching its deadline
is reported and lowers ok_frac but is not a failure.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import probe
import tracing
import workloads

SETUP_SAMPLES = 11
SETUP_PROBE_S = 0.05
WORKER_TIMEOUT_S = 165

E2E_UNITS = {"wall_s": "s", "job_p50_s": "s", "ok_frac": "ratio", "peak_rss_mb": "MB",
             "setup_s": "s"}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def checkout_root() -> Path:
    root = Path.cwd()
    if not (root / "src" / "initalg" / "cli.py").is_file():
        fail(f"no src/initalg/cli.py under {root}; run from the root of a source checkout")
    return root


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def measure_setup(root: Path, env: dict) -> float:
    """Median time to import initalg.cli in a fresh interpreter, bytecode cache
    warm, in reference seconds: each interpreter runs the probe right after
    the import."""
    code = ("import sys, time; t = time.perf_counter(); import initalg.cli; "
            "s = time.perf_counter() - t; "
            f"sys.path.insert(0, {str(Path(__file__).parent)!r}); import probe; "
            f"print(s, *probe.timed_chunks({SETUP_PROBE_S}))")
    samples = []
    for _ in range(SETUP_SAMPLES + 1):
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=root,
                              capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            fail(f"importing initalg.cli failed:\n{proc.stderr}")
        seconds, *chunks = map(float, proc.stdout.split())
        samples.append(probe.reference_seconds(seconds, chunks))
    return statistics.median(samples[1:])  # the first run may compile bytecode


def run_worker(root: Path, env: dict, spec: dict) -> dict:
    try:
        proc = subprocess.run([sys.executable, str(Path(__file__).with_name("worker.py"))],
                              input=json.dumps(spec), env=env, cwd=root,
                              capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"worker did not finish within {WORKER_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"worker exited with code {proc.returncode}:\n{proc.stderr}")
    out = json.loads(proc.stdout)
    if not Path(out["initalg_file"]).is_relative_to(root / "src"):
        fail(f"worker imported initalg from {out['initalg_file']}, not from {root / 'src'}")
    return out


def job_latencies(jobs, passes):
    """Per distinct job (repeats job#k pooled), the reference-second latency
    of each timed run; a run cut by its deadline counts at the deadline."""
    timed = [p for p in passes if p["timed"]]
    pooled = {}
    for k, job in enumerate(jobs):
        pooled.setdefault(job["name"].split("#")[0], []).extend(
            job["deadline"] if r["deadline_layer"] is not None
            else probe.reference_seconds(r["latency"], r["probe"])
            for r in (p["jobs"][k] for p in timed))
    return pooled


def judge(jobs, passes, latencies, oracle):
    """Per-job verdict lines and per-execution outcome counts."""
    lines, ok, failed, incorrect = [], 0, 0, False
    for k, job in enumerate(jobs):
        runs = [p["jobs"][k] for p in passes]
        finished = [r for r in runs if r["deadline_layer"] is None]
        cut = [r for r in runs if r["deadline_layer"] is not None]
        reports = {(r["code"], r["stdout"], r["stderr"]) for r in finished}
        if len(reports) > 1:
            good, detail = False, "report bytes differ across generator orders"
        elif finished:
            good, detail = oracle.check(job, *reports.pop())
        else:
            good, detail = True, ""
        incorrect = incorrect or not good
        ok += len(finished) if good else 0
        failed += (0 if good else len(finished)) + (0 if job["cliff"] else len(cut))
        if cut:
            tag = "CLIFF" if job["cliff"] and good else "FAIL"
            detail = (f"deadline {job['deadline']} s reached in {cut[0]['deadline_layer']} "
                      f"on {len(cut)}/{len(runs)} runs" + (f"; {detail}" if detail else ""))
        else:
            tag = "ok" if good else "FAIL"
        latency = (statistics.median(latencies[job["name"].split("#")[0]]) if latencies
                   else min(r["latency"] for r in runs))
        lines.append(f"job {job['name']:<34} {tag:<5} {latency:9.4f} s  {detail}")
    return lines, ok, failed, incorrect


def e2e_metrics(jobs, passes, latencies, ok, peak_kb, setup_s):
    per_job = [statistics.median(v) for v in latencies.values()]
    n = sum(len(p["jobs"]) for p in passes)
    metrics = {
        "wall_s": sum(per_job),
        "job_p50_s": statistics.median(per_job),
        "ok_frac": ok / n,
        "peak_rss_mb": peak_kb / 1024,
        "setup_s": setup_s,
    }
    unscaled = {}
    for k, job in enumerate(jobs):
        unscaled.setdefault(job["name"].split("#")[0], []).extend(
            p["jobs"][k]["latency"] for p in passes if p["timed"])
    raw = sum(statistics.median(v) for v in unscaled.values())
    info = [f"info wall_unscaled_s = {raw!r} s"]
    samples = sorted(x for v in latencies.values() for x in v)
    if len(samples) > 11:
        at = len(samples) - 11
        info.append(f"info job_tail_s = {samples[at]!r} s  (p{100 * at / (len(samples) - 1):.1f} "
                    f"of {len(samples)} timed runs, 10 beyond)")
    return metrics, info


def layer_results(out):
    """Per-layer metrics: times are the best over traced passes, counts must repeat."""
    layers = out["layers"]
    drift = [k for k in tracing.COUNT_METRICS if len({m[k] for m in layers}) > 1]
    metrics = {k: (layers[0][k] if k in tracing.COUNT_METRICS else min(m[k] for m in layers))
               for k in layers[0]}
    traced = [p["wall"] for p in out["passes"] if p["traced"]]
    plain = [p["wall"] for p in out["passes"] if not p["traced"]]
    metrics["trace.overhead_frac"] = min(traced) / min(plain) - 1
    return metrics, drift


def unit_of(name: str) -> str:
    if name in E2E_UNITS:
        return E2E_UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    return "count"


def run_workload(name: str, seed: int, seconds: int, trace: bool, root: Path, oracle) -> dict:
    env = child_env(root)
    jobs, drawn = workloads.build(name, seed, oracle)
    min_passes = 2 if trace else workloads.MIN_PASSES
    setup_s = None if trace else measure_setup(root, env)
    work = root / ".perfbench_work"
    work.mkdir(exist_ok=True)
    spans_path = work / f"spans-{name}-seed{seed}.jsonl"
    with tempfile.TemporaryDirectory(dir=work) as problems:
        out = run_worker(root, env, {"seed": seed, "seconds": seconds, "trace": trace,
                                     "min_passes": min_passes, "workdir": problems,
                                     "spans_path": str(spans_path), "jobs": jobs})
    passes = out["passes"]
    print(f"perfbench {name} seed {seed}: {len(passes)} passes of {len(jobs)} jobs, "
          f"trace {'on' if trace else 'off'}")
    if drawn:
        print(f"{drawn} random ideals drawn for {len(jobs)} jobs; the rest had more than "
              f"{workloads.MAX_COMPARISON_PAIRS} comparison pairs")
    latencies = None if trace else job_latencies(jobs, passes)
    lines, ok, failed, incorrect = judge(jobs, passes, latencies, oracle)
    print("\n".join(lines))
    if trace:
        metrics, drift = layer_results(out)
        if drift:
            incorrect = True
            print(f"FAIL counters differ between traced passes: {', '.join(drift)}")
        print(f"spans of the first traced pass: {spans_path.relative_to(root)}")
    else:
        metrics, info = e2e_metrics(jobs, passes, latencies, ok, out["peak_rss_kb"], setup_s)
        print("\n".join(info))
        print(f"info failed_frac = {failed / sum(len(p['jobs']) for p in passes)!r} ratio")
    for key, value in metrics.items():
        print(f"metric {key} = {value!r} {unit_of(key)}")
    return {"correct": not incorrect, "attempted": sum(len(p["jobs"]) for p in passes),
            "failed": failed,
            "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = checkout_root()
    from oracle import Oracle  # imports sympy; the worker never does

    oracle = Oracle()
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace),
                                     root, oracle)
        if len(names) > 1:
            print(json.dumps(results[name]))
    if len(names) == 1:
        summary = results[names[0]]
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
