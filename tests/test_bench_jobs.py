"""Every job of the benchmark's workloads runs once and passes its check.

`perfbench/workloads.py` builds the fronts, query points and jobs of the
benchmark and checks each job's output against a plain-numpy reference.
Some of what it runs is covered only thinly elsewhere (kuen's open
curves, the plane-front zigzag words, the sphere's polar caps), so a slip
there fails here, not only in a benchmark run.  The file is read, not
imported, so nothing is written next to it.
"""

import types
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _load_workloads():
    module = types.ModuleType("perfbench_workloads")
    module.__file__ = str(WORKLOADS)
    exec(compile(WORKLOADS.read_text(), str(WORKLOADS), "exec"), module.__dict__)
    return module


BENCH = _load_workloads()


@pytest.mark.parametrize("workload", sorted(BENCH.BUILDERS))
def test_jobs_pass_their_checks(workload):
    failures = []
    for job in BENCH.setup(workload, 7):
        try:
            budgets = job.check(job.run())
        except Exception as exc:
            failures.append(f"{job.name}: {type(exc).__name__}: {exc}")
            continue
        over = [b for b in budgets if not b <= 1.0]
        if over:
            failures.append(f"{job.name}: error budget {max(over)!r} > 1")
    assert not failures, "\n".join(failures)
