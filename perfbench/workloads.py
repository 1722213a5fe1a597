"""The benchmark's workloads: the fronts they build, their jobs and checks.

A job calls into frontlab through module attributes (so the traced run's
spans see it) and returns frontlab's raw output.  Its check compares that
output with a reference written here as a constant or in plain numpy, never
through frontlab's parser or jets, and returns one error budget per numeric
quantity: the error divided by the bound the tier-1 test asserts for it.  A
budget above 1, a wrong count or word, or an exception fails the job.
"""

import dataclasses
import math

import numpy as np

import frontlab
from frontlab import gaussbonnet, singular, zigzag

FOUR_PI = 4.0 * math.pi
TWO_PI = 2.0 * math.pi

# edge-resolved column quadrature of sgn(lambda) det(nu_u, nu_v, nu) for
# ellipsoid_parallel d=1.6, the tier-1 oracle
ELL16_K_DA = 0.9604865962
PSEUDO_K_DA = -FOUR_PI * (1.0 - 1.0 / math.cosh(20.0))
PSEUDO_FLOOR = FOUR_PI / math.cosh(20.0)  # pseudosphere chart truncation

PLANE_WORDS = {  # (word, k), frozen in the tier-1 zigzag tests
    "circle": ("", 0),
    "ellipse_parallel": ("aaaa", 0),
    "rose_one_pair": ("ba", 1),
    "rose_two_pairs": ("baba", 2),
}
LOOP_WORDS = {
    "parabola_band": ("bb", 0),
    "parabola_clear": ("", 0),
    "pseudosphere_waist": ("aa", 0),
}

# seed-independent query points, the tier-1 test points
AXIS_ANCHORS = (-1.0, -0.5, 0.0, 0.5, 1.0)
FLANK_ANCHORS = (0.2, 0.5, -0.8)
DIFF_AXIS_ANCHORS = (-0.9, 0.0, 0.6)
DIFF_FLANK_ANCHORS = (0.4,)
# seeded query points per pass
N_CLASSIFY = 64
N_DIFFERENCED = 16


class CheckFailed(Exception):
    pass


def expect(ok, message):
    if not ok:
        raise CheckFailed(message)


@dataclasses.dataclass(frozen=True)
class Job:
    name: str
    run: object  # () -> frontlab output
    check: object  # output -> list of error budgets
    seeded: bool = False  # inputs drawn from the seed; kept out of err_budget_max


# --- references in plain numpy ----------------------------------------------


def parabola_kappa_s(u, a=1.0, b=1.0):
    w = 1.0 + 4.0 * a * a * u * u
    return 2.0 * a / (w**1.5 * math.sqrt(1.0 + b * b * w))


def flank_kappa_s(t):
    """kappa_s of the standard swallowtail at (t, -6 t^2)."""
    return -math.sqrt(1 + t**2 + t**4) / (6 * abs(t) * (1 + 4 * t**2 + t**4) ** 1.5)


def parabola_kappa_integral():
    """Integral of kappa_s ds along the parabola axis u in [-1.5, 1.5]."""
    x, w = np.polynomial.legendre.leggauss(64)
    u = 1.5 * x
    ww = 1.0 + 4.0 * u * u
    return 1.5 * float((2.0 / (ww * np.sqrt(1.0 + ww)) * w).sum())


def budget(got, want, bound):
    return abs(got - want) / bound


# --- checks -------------------------------------------------------------------


def _swallowtail_signs(curves):
    return sorted(
        p.swallowtail_sign for c in curves for p in c.samples
        if p.kind is singular.SingularClass.SWALLOWTAIL
    )


def _curves_check(n, closed, signs):
    def check(curves):
        expect(len(curves) == n, f"{len(curves)} curves, want {n}")
        expect(all(c.closed == closed for c in curves),
               f"closed flags {[c.closed for c in curves]}, want all {closed}")
        got = _swallowtail_signs(curves)
        expect(got == signs, f"swallowtail signs {got}, want {signs}")
        return []
    return check


def _kappa_integral_check(want, bound):
    def check(out):
        _, value = out
        return [budget(value, want, bound)]
    return check


def _classify_check(ref, rel):
    def check(p):
        expect(p.kind is singular.SingularClass.CUSPIDAL_EDGE,
               f"classified {p.kind.value}")
        return [budget(p.kappa_s, ref, rel * abs(ref))]
    return check


def _differenced_check(floor_one):
    # tier-1 bounds: 1e-8 max(1, |kappa|) on the parabola axis, 1e-7 |kappa|
    # on the swallowtail flank
    def check(out):
        p, kappa_diff = out
        if floor_one:
            bound = 1e-8 * max(1.0, abs(p.kappa_s))
        else:
            bound = 1e-7 * abs(p.kappa_s)
        return [budget(kappa_diff, p.kappa_s, bound)]
    return check


def _tail_check(out):
    p, ts = out
    expect(p.kind is singular.SingularClass.SWALLOWTAIL, f"origin is {p.kind.value}")
    expect(ts.st_sign == 1, f"swallowtail sign {ts.st_sign}, want +1")
    return []


def _pseudo_report_check(rep):
    expect(rep.applicable, f"report inapplicable: {rep.reason}")
    chis = (rep.chi_M, rep.chi_Mplus, rep.chi_Mminus)
    expect(chis == (0, 0, 0), f"chi {chis}, want (0, 0, 0)")
    return [
        budget(rep.residual_unsigned, PSEUDO_FLOOR, 1e-12),
        budget(rep.residual_signed, 0.0, 1e-12),
        budget(rep.int_kappa_s_ds, TWO_PI, 1e-9),
    ]


def _sphere_report_check(rep):
    chis = (rep.chi_M, rep.chi_Mplus, rep.chi_Mminus)
    expect(chis == (2, 2, 0), f"chi {chis}, want (2, 2, 0)")
    expect(rep.deg_nu == 1, f"deg nu {rep.deg_nu}, want 1")
    return []


def _word_check(word, k):
    def check(out):
        res = out[-1] if isinstance(out, tuple) else out
        got = (res.word, res.reduced_k)
        expect(got == (word, k), f"(word, k) {got}, want {(word, k)}")
        return []
    return check


# --- workloads ----------------------------------------------------------------


def _center(front):
    d = front.domain
    return 0.5 * (d.u0 + d.u1), 0.5 * (d.v0 + d.v1)


def _warm_up(fronts, exprs, orders):
    """One scalar and one array jet evaluation per front at each order."""
    for f in fronts:
        u, v = _center(f)
        for k in orders:
            f.jets(u, v, k, k)
            f.jets(np.array([u, u]), np.array([v, v]), k, k)
    for e in exprs:
        t = np.array([0.3, 0.7])
        for k in (0, 1, 2):
            frontlab.eval_jet(e, 0.3, 0.0, k)
            frontlab.eval_jet(e, t, 0.0 * t, k)


def _trace_curves(rng):
    g = frontlab.gallery
    ell = g("ellipsoid_parallel", {"d": 2.0})
    kuen = g("kuen")
    tail = g("standard_swallowtail")
    para = g("cuspidal_parabola")
    pseudo = g("pseudosphere")
    _warm_up((ell, kuen, tail, para, pseudo), (), (0, 1, 2, 3))

    def kappa(front):
        def run():
            curves = singular.trace(front, grid=32)
            return curves, gaussbonnet.integrate_kappa_s(front, curves)
        return run

    return [
        Job("trace ellipsoid_parallel d=2 grid=64",
            lambda: singular.trace(ell, grid=64), _curves_check(2, True, [1] * 4)),
        Job("trace kuen grid=48",
            lambda: singular.trace(kuen, grid=48), _curves_check(3, False, [-1, 1])),
        Job("trace standard_swallowtail grid=32",
            lambda: singular.trace(tail, grid=32), _curves_check(1, False, [1])),
        Job("kappa_s cuspidal_parabola grid=32", kappa(para),
            _kappa_integral_check(parabola_kappa_integral(), 1e-10)),
        Job("kappa_s pseudosphere grid=32", kappa(pseudo),
            _kappa_integral_check(TWO_PI, 1e-9)),
    ]


def _quadrature(rng):
    g = frontlab.gallery
    ell16 = g("ellipsoid_parallel", {"d": 1.6})
    ell20 = g("ellipsoid_parallel", {"d": 2.0})
    pseudo = g("pseudosphere")
    _warm_up((ell16, ell20, pseudo), (), (0, 1, 2))

    def chi_check(chis):
        expect(chis == (2, 0, 2), f"chi {chis}, want (2, 0, 2)")
        return []

    return [
        Job("integrate_K_dA ellipsoid_parallel d=1.6 grid=512",
            lambda: gaussbonnet.integrate_K_dA(ell16, grid=512),
            lambda v: [budget(v, ELL16_K_DA, 5e-6)]),
        Job("integrate_K_dAhat ellipsoid_parallel d=2 grid=512",
            lambda: gaussbonnet.integrate_K_dAhat(ell20, grid=512),
            lambda v: [budget(v, FOUR_PI, 1e-6)]),
        Job("integrate_K_dA pseudosphere grid=512",
            lambda: gaussbonnet.integrate_K_dA(pseudo, grid=512),
            lambda v: [budget(v, PSEUDO_K_DA, 1e-9)]),
        Job("euler_characteristics ellipsoid_parallel d=2 grid=256",
            lambda: gaussbonnet.euler_characteristics(ell20, 256), chi_check),
    ]


def _queries(rng):
    g = frontlab.gallery
    para = g("cuspidal_parabola")
    tail = g("standard_swallowtail")
    pseudo = g("pseudosphere")
    sphere = g("sphere")
    planes = {name: zigzag.plane_gallery(name) for name in PLANE_WORDS}
    loops = {name: zigzag.loop_gallery(name) for name in LOOP_WORDS}
    exprs = [e for pf in planes.values()
             for e in (pf.gamma, pf.gamma_prime, pf.normal) if e is not None]
    exprs += [loop.path for _, loop in loops.values()]
    loop_fronts = [f for f, _ in loops.values()]
    _warm_up((para, tail, pseudo, sphere, *loop_fronts), exprs, (0, 1, 2, 3))

    axis_u = rng.uniform(-1.2, 1.2, N_CLASSIFY)
    flank_t = rng.uniform(0.2, 1.0, N_CLASSIFY) * rng.choice((-1.0, 1.0), N_CLASSIFY)

    def on_axis(u):
        return lambda: singular.classify(para, (u, 0.0))

    def on_flank(t):
        return lambda: singular.classify(tail, (t, -6.0 * t * t))

    def differenced(front, point):
        def run():
            p = singular.classify(front, point)
            return p, singular.singular_curvature(front, p)
        return run

    jobs = []
    for seeded, us in ((False, AXIS_ANCHORS), (True, axis_u)):
        for u in map(float, us):
            jobs.append(Job(f"classify cuspidal_parabola u={u!r}", on_axis(u),
                            _classify_check(parabola_kappa_s(u), 1e-12), seeded))
    for seeded, ts in ((False, FLANK_ANCHORS), (True, flank_t)):
        for t in map(float, ts):
            jobs.append(Job(f"classify standard_swallowtail t={t!r}", on_flank(t),
                            _classify_check(flank_kappa_s(t), 1e-10), seeded))
    for seeded, us in ((False, DIFF_AXIS_ANCHORS), (True, axis_u[:N_DIFFERENCED])):
        for u in map(float, us):
            jobs.append(Job(f"singular_curvature cuspidal_parabola u={u!r}",
                            differenced(para, (u, 0.0)),
                            _differenced_check(True), seeded))
    for seeded, ts in ((False, DIFF_FLANK_ANCHORS), (True, flank_t[:N_DIFFERENCED])):
        for t in map(float, ts):
            jobs.append(Job(f"singular_curvature standard_swallowtail t={t!r}",
                            differenced(tail, (t, -6.0 * t * t)),
                            _differenced_check(False), seeded))

    def tail_run():
        p = singular.classify(tail, (0.0, 0.0))
        return p, singular.tail_side(tail, p)

    jobs.append(Job("tail_side standard_swallowtail origin",
                    tail_run, _tail_check))
    jobs.append(Job("euler_report pseudosphere",
                    lambda: gaussbonnet.euler_report(pseudo), _pseudo_report_check))
    jobs.append(Job("euler_report sphere",
                    lambda: gaussbonnet.euler_report(sphere), _sphere_report_check))
    for name, (word, k) in PLANE_WORDS.items():
        pf = planes[name]
        jobs.append(Job(f"zigzag_plane {name}",
                        lambda pf=pf: zigzag.zigzag_plane(pf), _word_check(word, k)))
    for name, (word, k) in LOOP_WORDS.items():
        front, loop = loops[name]

        def surface(front=front, loop=loop):
            checked = zigzag.null_loop(front, loop.path, period=loop.period,
                                       label=loop.label)
            return checked, zigzag.zigzag_surface(front, checked)

        jobs.append(Job(f"zigzag_surface {name}", surface,
                        _word_check(word, k)))
    return jobs


BUILDERS = {
    "trace_curves": _trace_curves,
    "quadrature": _quadrature,
    "queries": _queries,
}


def setup(name, seed):
    """Build the workload's fronts, warm their jets, and return its jobs.

    The seed draws the query points first, then the job order.
    """
    rng = np.random.default_rng(seed)
    jobs = BUILDERS[name](rng)
    return tuple(jobs[i] for i in rng.permutation(len(jobs)))
