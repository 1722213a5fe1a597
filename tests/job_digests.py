"""Print the sha256 of `repr` of every benchmark job's output.

    PYTHONPATH=src python tests/job_digests.py [SEED ...] > digests.txt
    PYTHONPATH=src python tests/job_digests.py --diff digests.txt

For each seed (default 7 and 12345) and each workload of
`perfbench/workloads.py`, every job runs once and one line
`seed workload digest job-name` is printed, in job-name order; a job that
raises prints its exception in place of the digest.  The last line of each
seed is the combined digest of its lines.  `repr` spells out every float,
so two checkouts print the same lines exactly when every job's output has
the same bits.  The workloads file is read, not imported, so nothing is
written next to it.

With `--diff FILE`, FILE holds the lines another checkout printed (say,
the parent commit's, from a copy of it): this checkout computes its lines
for the seeds FILE names, prints only the places where the two differ (the
line of FILE after `-`, this checkout's after `+`) and exits with status 1
if any does, 0 if every line is equal.  That is the bit-identity check of
a change that must keep every output bit.
"""

import hashlib
import itertools
import sys

from test_bench_jobs import BENCH


def job_lines(seed):
    lines = []
    for workload in sorted(BENCH.BUILDERS):
        for job in sorted(BENCH.setup(workload, seed), key=lambda job: job.name):
            try:
                out = hashlib.sha256(repr(job.run()).encode()).hexdigest()
            except Exception as exc:  # a failing job is reported, the rest still run
                out = f"raised {type(exc).__name__}: {exc}"
            lines.append(f"{seed} {workload} {out} {job.name}")
    return lines


def seed_lines(seeds):
    out = []
    for seed in seeds:
        lines = job_lines(seed)
        combined = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        out += lines + [f"{seed} combined {combined}"]
    return out


def differences(theirs, ours):
    """'- ' their line and '+ ' ours at each place where they differ."""
    out = []
    for a, b in itertools.zip_longest(theirs, ours):
        if a != b:
            out += [f"- {a}"] * (a is not None) + [f"+ {b}"] * (b is not None)
    return out


def main(argv):
    if argv[:1] == ["--diff"]:
        if len(argv) != 2:
            raise SystemExit("usage: job_digests.py --diff FILE")
        with open(argv[1]) as f:
            theirs = f.read().splitlines()
        seeds = list(dict.fromkeys(int(line.split()[0]) for line in theirs))
        found = differences(theirs, seed_lines(seeds))
        for line in found:
            print(line)
        print(f"{'differ' if found else 'equal'}: {len(theirs)} lines of {argv[1]}")
        return 1 if found else 0
    print(*seed_lines([int(a) for a in argv] or [7, 12345]), sep="\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
