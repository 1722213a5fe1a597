"""Each benchmark job evaluates each node set once, but for listed repeats.

`eval_jet` is wrapped where frontlab calls it: `frontlab.front` for every
surface jet, `frontlab.zigzag` for loop and plane-curve jets.  A call is
keyed by its expression and the shape and bytes of u and v, and remembers
its orders.  A call whose key an earlier call of the same job had, at
orders no higher field by field, computes nothing new: a repeat.  A repeat
is named by its job's kind and the frontlab functions that made the two
calls, and fails unless `KNOWN` lists it with its reason.  Every job of
`test_bench_jobs.BENCH` runs once at seed 7, and so does each public call
of `EXTRA`, which no benchmark job makes.
"""

import hashlib
import sys
from pathlib import Path

import numpy as np
from test_bench_jobs import BENCH

import frontlab
from frontlab import curvature, euler_report, gallery, integrate_K_dAhat, trace
from frontlab import front as front_module
from frontlab import zigzag

SOURCE = str(Path(frontlab.__file__).parent)
# functions that only pass a jet call on; a call site is named past them
PLUMBING = {"jets", "lambda_jets", "_order3", "_jet", "_loop_jets"}

# (job kind, first call site, repeating call site): reason
KNOWN = {
    ("singular_curvature", "job>classify", "job>singular_curvature"):
        "the job classifies the point, then asks for its singular curvature; "
        "singular_curvature takes a point, not its jets",
    ("zigzag_surface", "null_loop>_crossing", "_surface_crossings>_crossing"):
        "decided: null_loop and zigzag_surface each validate every crossing, "
        "since a NullLoop can be built by hand (ROADMAP item 10)",
    ("zigzag_surface", "_crossing>classify", "_crossing>classify"):
        "decided: the second validation of each crossing classifies it again",
    ("zigzag_surface", "_crossing>classify", "zigzag_surface>_surface_crossings"):
        "the zig/zag criterion takes (2, 1) jets at a crossing that classify "
        "evaluated at (3, 2); classify returns a point, not its jets",
}

ELL16 = gallery("ellipsoid_parallel", {"d": 1.6})
SPHERE = gallery("sphere")
# (name, call); the name's first word is its kind, as a job's.  The sphere's
# default panel budget doubles over its polar caps, which must not be
# integrated again at each budget
EXTRA = [
    ("euler_report ellipsoid_parallel d=1.6 trace grid=96",
     lambda: euler_report(ELL16, trace(ELL16, grid=96))),
    ("euler_report sphere", lambda: euler_report(SPHERE)),
    ("integrate_K_dAhat sphere", lambda: integrate_K_dAhat(SPHERE)),
    ("curvature ellipsoid_parallel d=1.6 grid=33",
     lambda: curvature(ELL16, *ELL16.domain.grid(33))),
]


def _fingerprint(x):
    a = np.ascontiguousarray(x, dtype=float)
    return a.shape, hashlib.blake2b(a.tobytes(), digest_size=16).digest()


def _orders(order):
    return (order,) if not isinstance(order, tuple) else tuple(k for _, k in order)


def _site():
    """'caller>callee' of the innermost frontlab call past the plumbing;
    'job' stands for the benchmark's own code."""
    names = []
    frame = sys._getframe(2)
    while frame is not None and len(names) < 2:
        name = frame.f_code.co_name
        if not frame.f_code.co_filename.startswith(SOURCE):
            names.append("job")
            break
        if name not in PLUMBING:
            names.append(name)
        frame = frame.f_back
    return ">".join(reversed(names))


def _repeats(monkeypatch, name, run):
    seen, found = {}, set()

    def wrap(real):
        def eval_jet(e, u, v, order):
            key = (id(e), _fingerprint(u), _fingerprint(v))
            orders, site = _orders(order), _site()
            for first_orders, first_site, _ in seen.get(key, ()):
                if len(first_orders) == len(orders) and all(
                    b <= a for a, b in zip(first_orders, orders)
                ):
                    found.add((first_site, site))
                    break
            seen.setdefault(key, []).append((orders, site, e))  # e stays alive
            return real(e, u, v, order)

        return eval_jet

    monkeypatch.setattr(front_module, "eval_jet", wrap(front_module.eval_jet))
    monkeypatch.setattr(zigzag, "eval_jet", wrap(zigzag.eval_jet))
    try:
        run()
    finally:
        monkeypatch.undo()
    kind = name.split()[0]
    return {(kind, *pair) for pair in found}


def test_each_job_evaluates_each_node_set_once(monkeypatch):
    found = set()
    for workload in sorted(BENCH.BUILDERS):
        for job in BENCH.setup(workload, 7):
            found |= _repeats(monkeypatch, job.name, job.run)
    for name, run in EXTRA:
        found |= _repeats(monkeypatch, name, run)
    unlisted = sorted(found - set(KNOWN))
    assert not unlisted, "node sets evaluated again:\n" + "\n".join(map(str, unlisted))
