"""frontlab benchmark: one workload, run as a closed loop for a fixed time.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from a checkout of the repository; frontlab is imported from its src/.
One single-threaded client issues each job after the previous one ends, pass
after pass, until another pass would overrun --seconds.  With --trace 0 the
result carries the end-to-end metrics of BENCHMARK.json; with --trace 1 it
alternates plain and traced passes and carries the per-layer metrics.  The
last line of stdout is the result as one JSON object; the line before it
records the run (seed, passes, pass times, versions).
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import hostspeed

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 7
PROBE_INTERVAL_S = 0.05
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("trace_curves", "quadrature", "queries"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


class Pass:
    """Outcome of running the job list once."""

    def __init__(self):
        self.wall = 0.0  # measured
        self.ref_wall = 0.0  # at the reference host speed (hostspeed.py)
        self.digests = []  # one per job; None for a job that raised
        self.failed = 0
        self.failures = []
        self.budgets = []  # error budgets of seed-independent outputs
        self.run_s = 0.0  # time inside the jobs' frontlab calls, checks excluded
        self.premise = None  # why the host-speed conversion fails, if it does


def run_pass(jobs, clock=time.perf_counter):
    out = Pass()
    results = []
    with hostspeed.HostSpeed(PROBE_INTERVAL_S) as host:
        pass_start = clock()
        for job in jobs:
            start = clock()
            try:
                try:
                    result = job.run()
                finally:
                    out.run_s += clock() - start
                budgets = job.check(result)
            except Exception as exc:  # a failing job is counted; the pass goes on
                out.failed += 1
                out.failures.append(f"{job.name}: {type(exc).__name__}: {exc}")
                print(f"job failed: {job.name}\n{traceback.format_exc()}",
                      file=sys.stderr)
                results.append(None)
                continue
            over = [b for b in budgets if not b <= 1.0]
            if over:
                out.failed += 1
                out.failures.append(f"{job.name}: error budget {max(over)!r} > 1")
            if not job.seeded:
                out.budgets.extend(budgets)
            results.append((result,))
        out.wall = clock() - pass_start
    out.ref_wall = host.reference_seconds(out.wall)
    out.premise = host.premise_problem()
    # repr spells out every float exactly
    out.digests = [
        None if r is None else hashlib.sha256(repr(r[0]).encode()).hexdigest()
        for r in results
    ]
    return out


def run_passes(seconds, one_round):
    """Repeat `one_round` until another round would overrun `seconds`."""
    rounds = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        rounds.append(one_round())
        took = time.perf_counter() - t0
        if time.perf_counter() - start + took > seconds:
            return rounds


def setup_seconds(workload, seed, env, problems):
    probe = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(probe, env=env, capture_output=True, text=True,
                              timeout=120, check=True)
        out = json.loads(done.stdout.strip().splitlines()[-1])
        times.append(out["ref_s"])
        if out["premise"]:
            problems.append("set-up: " + out["premise"])
    return times


def plain_run(args, jobs, env, problems):
    setups = setup_seconds(args.workload, args.seed, env, problems)
    passes = run_passes(args.seconds, lambda: run_pass(jobs))
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p.ref_wall for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        # a job that raised has no budget; `correct` is false then anyway
        "err_budget_max": max((b for p in passes for b in p.budgets), default=0.0),
    }
    return metrics, passes, {"setup_s_samples": setups}


def traced_run(args, jobs, env, problems):
    import layers
    import spans

    tracer = spans.Tracer()
    samples = []

    def one_round():
        plain = run_pass(jobs)
        tracer.reset()
        with spans.instrumented(tracer, layers.TARGETS) as swapped:
            traced = run_pass(jobs, clock=tracer.clock)
        if any(getattr(ns, attr) is not fn for ns, attr, fn in swapped):
            problems.append("a wrapper was left in place")
        if traced.digests != plain.digests:
            problems.append("traced outputs differ from untraced outputs")
        # the spans lie inside the jobs' frontlab calls, which lie inside
        # the pass; the untraced remainder is the pass less the spans' cover
        tol = 1e-9 * traced.wall
        if not tracer.root_s - tol <= traced.run_s <= traced.wall + tol:
            problems.append(f"span accounting off: spans {tracer.root_s!r} s, "
                            f"job calls {traced.run_s!r} s, pass {traced.wall!r} s")
        samples.append(layers.layer_metrics(tracer.stats))
        return plain, traced

    rounds = run_passes(args.seconds, one_round)
    plain = [p for p, _ in rounds]
    traced = [t for _, t in rounds]
    metrics = {key: statistics.median(s[key] for s in samples) for key in samples[0]}
    metrics["tracing.overhead_frac"] = (
        statistics.median(t.ref_wall for t in traced)
        / statistics.median(p.ref_wall for p in plain) - 1.0
    )
    return metrics, plain + traced, {}


def main(argv=None):
    args = parse_args(argv)
    src = ROOT / "src"
    spec_file = ROOT / "BENCHMARK.json"
    if not (src / "frontlab" / "__init__.py").is_file() or not spec_file.is_file():
        print(f"no frontlab source under {src} or no {spec_file.name}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"  # before numpy loads its BLAS
    sys.path.insert(0, str(src))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))

    import numpy
    import workloads

    spec = json.loads(spec_file.read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    jobs = workloads.setup(args.workload, args.seed)
    problems = []
    run = traced_run if args.trace else plain_run
    metrics, passes, extra = run(args, jobs, env, problems)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match "
                           f"BENCHMARK.json {sorted(units)}")

    if any(p.digests != passes[0].digests for p in passes):
        problems.append("outputs differ between passes")
    problems.extend(sorted({p.premise for p in passes if p.premise}))
    failures = sorted({f for p in passes for f in p.failures})
    attempted = sum(len(p.digests) for p in passes)
    failed = sum(p.failed for p in passes)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "passes": len(passes),
        "pass_wall_s": [p.wall for p in passes],
        "pass_ref_wall_s": [p.ref_wall for p in passes],
        "jobs_per_pass": len(jobs), "failures": failures,
        "problems": problems, "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__, **extra,
    }
    print(json.dumps(record))
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
