"""Print the sha256 of `repr` of every benchmark job's output.

    PYTHONPATH=src python tests/job_digests.py [SEED ...]

For each seed (default 7 and 12345) and each workload of
`perfbench/workloads.py`, every job runs once and one line
`seed workload digest job-name` is printed, in job-name order; a job that
raises prints its exception in place of the digest.  The last line of each
seed is the combined digest of its lines.  `repr` spells out every float,
so two checkouts print the same lines exactly when every job's output has
the same bits.  The workloads file is read, not imported, so nothing is
written next to it.
"""

import hashlib
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


def main(argv):
    for seed in [int(a) for a in argv] or [7, 12345]:
        lines = job_lines(seed)
        print(*lines, sep="\n")
        combined = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        print(f"{seed} combined {combined}")


if __name__ == "__main__":
    main(sys.argv[1:])
