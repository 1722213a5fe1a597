"""Run every workload and print each metric by name, with its unit.

    python3 perfbench/report.py [--seed N]

Each workload runs twice through run.py, each run in its own process (so
peak memory is per workload) for BENCHMARK.json's run_seconds: a plain run
for the end-to-end metrics, to which the table adds failed_frac (failed
jobs over attempted jobs), and a traced run for the per-layer metrics.
Exits 1 if any run's outputs failed their checks.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run(workload, seed, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
           "--trace", str(trace)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload}: run.py exited with {done.returncode}")
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args()
    all_correct = True
    for w in SPEC["workloads"]:
        name = w["name"]
        for trace in (0, 1):
            record, result = run(name, args.seed, trace)
            all_correct &= result["correct"]
            print(f"{name}  seed={record['seed']}  trace={trace}  "
                  f"passes={record['passes']}  correct={result['correct']}")
            if trace == 0:
                frac = result["failed"] / result["attempted"]
                print(f"  {'failed_frac':40s} {frac:<14.6g} ratio "
                      f"({result['failed']}/{result['attempted']} jobs)")
            for key, m in result["metrics"].items():
                print(f"  {key:40s} {m['value']:<14.6g} {m['unit']}")
            for failure in record["failures"] + record["problems"]:
                print(f"  FAILED: {failure}")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
