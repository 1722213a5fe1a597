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

After the seeds comes a library section, one line `library digest name`
per output that no job returns but that shares the scalar jet paths the
jobs run: `kappa_s_measure` on the curves the five `trace_curves` fronts
trace, `singular_curvature_intrinsic` on adapted parabola charts, and
`limiting_normal_curvature` and `half_space_signs` at fixed singular
points.  It does not depend on the seed, and ends with `library combined`.
Arrays are digested as lists, whose `repr` spells out every float.
"""

import hashlib
import itertools
import sys

from test_bench_jobs import BENCH

from frontlab import gallery, singular


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _lines(section, runs):
    """`head digest name` per (head, name, run) in turn, then `section
    combined` and the digest of those lines."""
    lines = []
    for head, name, run in runs:
        try:
            out = _sha(repr(run()))
        except Exception as exc:  # a failing run is reported, the rest still run
            out = f"raised {type(exc).__name__}: {exc}"
        lines.append(f"{head} {out} {name}")
    combined = _sha("\n".join(lines))
    return lines + [f"{section} combined {combined}"]


def job_lines(seed):
    return _lines(seed, [(f"{seed} {workload}", job.name, job.run)
                         for workload in sorted(BENCH.BUILDERS)
                         for job in sorted(BENCH.setup(workload, seed), key=lambda job: job.name)])


def _traced_measures(name, params, grid):
    def run():
        front = gallery(name, params)
        return [singular.kappa_s_measure(front, c).tolist() for c in singular.trace(front, grid)]
    return run


def _intrinsic(params, u):
    return lambda: singular.singular_curvature_intrinsic(gallery("cuspidal_parabola", params), u)


def _signs(front, p):
    """Normal curvature (at a cuspidal edge) and half-space signs on both
    sides at the singular point `p`."""
    normal = (singular.limiting_normal_curvature(front, p)
              if p.kind == singular.SingularClass.CUSPIDAL_EDGE else None)
    return normal, [singular.half_space_signs(front, p, side) for side in (1, -1)]


def _axis_signs(name, params, u):
    def run():
        front = gallery(name, params)
        return _signs(front, singular.classify(front, (u, 0.0)))
    return run


def _traced_signs(name, params, grid, step):
    """`_signs` at every `step`-th traced sample of each curve."""
    def run():
        front = gallery(name, params)
        return [_signs(front, p) for c in singular.trace(front, grid) for p in c.samples[::step]]
    return run


# the measures' traces are the `trace_curves` fronts at their grids, the
# intrinsic points those of `test_intrinsic_matches_extrinsic`; the signs
# are taken at generic cuspidal edges and swallowtails
LIBRARY = {
    "kappa_s_measure ellipsoid_parallel d=2 grid=64":
        _traced_measures("ellipsoid_parallel", {"d": 2.0}, 64),
    "kappa_s_measure kuen grid=48": _traced_measures("kuen", None, 48),
    "kappa_s_measure standard_swallowtail grid=32":
        _traced_measures("standard_swallowtail", None, 32),
    "kappa_s_measure cuspidal_parabola grid=32": _traced_measures("cuspidal_parabola", None, 32),
    "kappa_s_measure pseudosphere grid=32": _traced_measures("pseudosphere", None, 32),
    "singular_curvature_intrinsic cuspidal_parabola u=0.0": _intrinsic({}, 0.0),
    "singular_curvature_intrinsic cuspidal_parabola u=0.7": _intrinsic({}, 0.7),
    "singular_curvature_intrinsic cuspidal_parabola a=-1 b=0.5 u=0.3":
        _intrinsic({"a": -1.0, "b": 0.5}, 0.3),
    "signs cuspidal_parabola u=0.0": _axis_signs("cuspidal_parabola", None, 0.0),
    "signs cuspidal_parabola u=0.3": _axis_signs("cuspidal_parabola", None, 0.3),
    "signs cuspidal_parabola a=-1 b=0.5 u=-0.6":
        _axis_signs("cuspidal_parabola", {"a": -1.0, "b": 0.5}, -0.6),
    "signs swallowtail_pm sign=1 u=0.0": _axis_signs("swallowtail_pm", {"sign": 1.0}, 0.0),
    "signs swallowtail_pm sign=-1 u=0.0": _axis_signs("swallowtail_pm", {"sign": -1.0}, 0.0),
    "signs ellipsoid_parallel d=2 grid=32 every 12th sample":
        _traced_signs("ellipsoid_parallel", {"d": 2.0}, 32, 12),
}


def seed_lines(seeds):
    """Each seed's job lines and combined line, then the library section."""
    return ([line for seed in seeds for line in job_lines(seed)]
            + _lines("library", [("library", name, run) for name, run in LIBRARY.items()]))


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
        seeds = list(dict.fromkeys(int(line.split()[0]) for line in theirs
                                   if line.split()[0].isdigit()))
        found = differences(theirs, seed_lines(seeds))
        for line in found:
            print(line)
        print(f"{'differ' if found else 'equal'}: {len(theirs)} lines of {argv[1]}")
        return 1 if found else 0
    print(*seed_lines([int(a) for a in argv] or [7, 12345]), sep="\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
