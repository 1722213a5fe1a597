"""The contour tracer against the point-at-a-time oracle it replaced.

`trace` takes its curves from the lambda grid (marching squares, array
refinement, one masked swallowtail bisection); `scalar_trace.scalar_trace`
marches each curve one point at a time.  Their samples sit at different
places on the same curves, so the two are compared by structure and by
integrals, and the array classification is compared with the oracle's
scalar one at the oracle's own sample positions.
"""

import dataclasses
import math
import re

import numpy as np
import per_curve_samples
import pytest
import scalar_trace

import frontlab.front

from frontlab import (
    Domain,
    FrontlabError,
    classify,
    gallery,
    gallery_names,
    lambda_value,
    parse,
    singular,
    to_source,
    trace,
)
from frontlab.gaussbonnet import integrate_kappa_s
from frontlab.singular import SingularClass

FRONTS = {
    "ellipsoid_parallel": {"d": 2.0},
    "kuen": None,
    "standard_swallowtail": None,
    "cuspidal_parabola": None,
    "pseudosphere": None,
    "cone": None,
    "double_swallowtail": None,
}
GRID = 32
REL = 1e-12


@pytest.fixture(scope="module", params=sorted(FRONTS))
def traced(request):
    front = gallery(request.param, FRONTS[request.param])
    return front, trace(front, grid=GRID), scalar_trace.scalar_trace(front, grid=GRID)


def _cusps(curves):
    return [
        p for c in curves for p in c.samples
        if p.kind is SingularClass.CUSPIDAL_EDGE
    ]


def _close(a, b, scale):
    return abs(a - b) <= REL * scale


def _assert_curvatures_close(got, want, where):
    # kappa_s and kappa_nu are the two components of the image curve's
    # curvature vector; kappa_nu vanishes identically on some fronts, so
    # its rounding is measured against the vector's length
    size = math.hypot(want.kappa_s, want.kappa_nu)
    assert _close(got.kappa_s, want.kappa_s, abs(want.kappa_s)), where
    assert _close(got.kappa_nu, want.kappa_nu, size), where
    assert _close(got.density, want.density, abs(want.density)), where


def _seam_fronts():
    """ellipsoid_parallel with its periodic u-seam moved to u = 1, where a
    singular curve runs across it, so lambda changes sign on wrap edges;
    and the same front with u and v swapped, for the v-seam."""
    front = gallery("ellipsoid_parallel", FRONTS["ellipsoid_parallel"])
    dom = dataclasses.replace(front.domain, u0=1.0, u1=1.0 + 2.0 * math.pi)
    shifted = dataclasses.replace(front, domain=dom)

    def swap(e):
        source = re.sub(r"\b[uv]\b", lambda m: "uv"[m.group() == "u"], to_source(e))
        return parse(source, dict(e.params))

    swapped = dataclasses.replace(
        front, map=swap(front.map), normal=swap(front.normal),
        domain=Domain(dom.v0, dom.v1, dom.u0, dom.u1, periodic_v=True),
    )
    return {"u-seam": shifted, "v-seam": swapped}


SEAM_FRONTS = _seam_fronts()


def _peak_kinds(curves):
    return sorted(c.samples[i].kind.value for c in curves for i in c.peaks)


def _swallowtail_signs(curves):
    return sorted(
        p.swallowtail_sign for c in curves for p in c.samples
        if p.kind is SingularClass.SWALLOWTAIL
    )


def _max_gap(front, curve):
    P = np.array([p.uv for p in curve.samples])
    nxt = np.roll(P, -1, axis=0) if curve.closed else P[1:]
    return np.hypot(*singular._wrapped_delta(front.domain, nxt, P[: len(nxt)]).T).max()


@pytest.mark.parametrize("name", sorted(SEAM_FRONTS))
def test_seam_fronts_trace_like_unshifted(name):
    """Curves running across a periodic seam link through the wrap edges
    and trace to the curves of the unshifted front: the same counts,
    closed flags, peaks and swallowtail signs, swallowtails at the same
    points, and no gap longer than a cell."""
    front = SEAM_FRONTS[name]
    dom = front.domain
    uu, vv = dom.grid(GRID)
    lam = lambda_value(front, uu, vv)
    wrap = lam[-1] * lam[0] if dom.periodic_u else lam[:, -1] * lam[:, 0]
    assert (wrap <= 0).sum() >= 2
    plain = gallery("ellipsoid_parallel", FRONTS["ellipsoid_parallel"])
    want, got = trace(plain, grid=GRID), trace(front, grid=GRID)
    assert [c.closed for c in got] == [c.closed for c in want]
    assert _peak_kinds(got) == _peak_kinds(want)
    # swapping u and v reverses the chart, so lambda and with it each
    # swallowtail's sign change sign
    flip = 1 if dom.periodic_u else -1
    assert _swallowtail_signs(got) == sorted(flip * s for s in _swallowtail_signs(want))

    def tails(curves, k):
        pts = [p.uv[::k] for c in curves for p in c.samples
               if p.kind is SingularClass.SWALLOWTAIL]
        return sorted((round(u % (2.0 * math.pi), 7), round(v, 7)) for u, v in pts)

    assert tails(got, flip) == tails(want, 1)
    cell = min(dom.u1 - dom.u0, dom.v1 - dom.v0) / GRID
    assert max(_max_gap(front, c) for c in got) <= cell


def _rates(front, P):
    jf, jn = front.jets(P[..., 0], P[..., 1], 3, 2)
    eta, sig = singular._null_direction(jf)
    return singular._transversality_rates(jf, singular._lambda_blocks(jf, jn, 2), eta, sig), eta


@pytest.mark.parametrize("name, params", [
    ("standard_swallowtail", None),
    ("kuen", None),
    ("cuspidal_parabola", None),
    ("pseudosphere", None),
    ("swallowtail_pm", None),
    ("ellipsoid_parallel", {"d": 2.0}),
])
def test_transversality_rates_match_central_differences(name, params):
    """The closed-form d/dt det(T, eta) against a central difference along
    the curve at every non-degenerate traced sample.  The first four fronts
    keep eta constant along their curves, so only det(T', eta) is checked
    there; the last two turn it.  det(T, eta) is a sine, so the difference
    also carries a few ulps of 1 over its step."""
    front = gallery(name, params)
    checked = 0
    for c in trace(front, grid=GRID):
        rates, eta = _rates(front, np.array([p.uv for p in c.samples]))
        for p, got, e in zip(c.samples, rates.tolist(), eta):
            if p.kind is SingularClass.DEGENERATE:
                continue
            h = 1e-4 * max(1.0, abs(p.uv[0]), abs(p.uv[1]))
            want = scalar_trace.central_rate(front, p.uv, np.array(p.singular_dir), e, h)
            assert want is not None, p.uv
            assert abs(got - want) <= 1e-5 * abs(want) + 4.0 * np.finfo(float).eps / h, p.uv
            checked += 1
    assert checked >= 30


def test_transversality_rate_at_the_standard_swallowtail():
    """On v = -6u^2, f_u = 0, so eta = (1, 0) and det(T, eta) =
    12u/sqrt(1 + 144u^2) in the curve's unit-speed parameter: rate 12."""
    rate, eta = _rates(gallery("standard_swallowtail"), np.zeros(2))
    assert eta.tolist() in ([1.0, 0.0], [-1.0, 0.0])
    assert abs(abs(float(rate)) - 12.0) <= 1e-12 * 12.0


def test_continuation_signs_follow_the_flip_loop():
    """A row flips against its turned predecessor where their dot product
    is negative and keeps its own orientation where it is 0 or NaN, as in
    a loop that turns one row at a time."""
    d = np.random.default_rng(3).choice([-2.0, -0.5, -0.0, 0.0, 0.5, 3.0, math.nan], 300)
    want = [1.0]
    for x in d:
        want.append(-1.0 if want[-1] * x < 0 else 1.0)
    assert singular._continuation_signs(d).tolist() == want
    assert singular._continuation_signs(d[:0]).tolist() == [1.0]


def test_samples_match_scalar_trace(traced):
    """The oracle's curves by structure: counts, closed flags, swallowtail
    signs and peak kinds, with cuspidal edges everywhere else.  On the
    cone every sample is a peak, so peaks follow the sample count; on the
    double swallowtail the degenerate origin is now a sample."""
    front, batch, scalar = traced
    assert len(batch) == len(scalar)
    assert [c.closed for c in batch] == [c.closed for c in scalar]
    assert _swallowtail_signs(batch) == _swallowtail_signs(scalar)
    for c in batch:
        for i, p in enumerate(c.samples):
            assert (p.kind is SingularClass.CUSPIDAL_EDGE) == (i not in c.peaks), p.uv
    kinds, want = _peak_kinds(batch), _peak_kinds(scalar)
    if front.label.startswith("cone"):
        assert set(kinds) == set(want) == {SingularClass.NONDEGENERATE_PEAK_OTHER.value}
        assert len(kinds) == sum(len(c) for c in batch)
    elif front.label == "double swallowtail":
        assert want == []
        assert kinds == [SingularClass.DEGENERATE.value] * len(batch)
    else:
        assert kinds == want


def test_curvatures_match_scalar_trace(traced):
    """At the oracle's own sample positions, the array classification of a
    whole curve gives the oracle's kinds, swallowtail signs, peak flags
    and, up to rounding, its curvatures."""
    front, _, scalar = traced
    for c in scalar:
        if len(c) < 2:
            continue
        pts = [np.array(p.uv) for p in c.samples]
        (curve,) = singular._build_curves(front, front.domain, [(pts, c.closed)])
        got = curve.samples
        assert len(got) == len(c)
        for pb, ps in zip(got, c.samples):
            assert pb.uv == ps.uv
            assert pb.kind is ps.kind, pb.uv
            assert pb.swallowtail_sign == ps.swallowtail_sign, pb.uv
            if ps.kind is SingularClass.CUSPIDAL_EDGE:
                _assert_curvatures_close(pb, ps, pb.uv)


def test_scalar_classify_agrees_with_trace(traced):
    """One decision and one curvature kernel: scalar jets in `classify`
    reproduce bit for bit what the curve's arrays gave inside `trace`."""
    front, batch, _ = traced
    fields = ("lam", "grad_lambda", "null_dir", "singular_dir", "transversality",
              "kappa_s", "kappa_nu", "density")
    for p in _cusps(batch):
        q = classify(front, p.uv)
        assert q.kind is p.kind, p.uv
        for name in fields:
            assert getattr(q, name) == getattr(p, name), (name, p.uv)


def _plain(value):
    if type(value) is tuple:
        return all(type(x) is float for x in value)
    return type(value) in (float, bool, int, type(None), SingularClass)


def test_sample_fields_are_plain_python(traced):
    """Every field of a sample from `trace` or `classify` is a Python float,
    bool, int, None, kind or tuple of floats: under numpy 2 a numpy scalar
    prints as `np.float64(...)`, so one would change each sample's repr."""
    front, batch, _ = traced
    samples = [p for c in batch for p in c.samples]
    peaks = [c.samples[i] for c in batch for i in c.peaks]
    points = samples + [classify(front, p.uv) for p in _cusps(batch)[::8] + peaks[:8]]
    assert len(points) > len(samples)
    for p in points:
        for field in dataclasses.fields(p):
            value = getattr(p, field.name)
            assert _plain(value), (field.name, type(value), p.uv)


def test_kernel_matches_pointwise_formula(traced):
    front, batch, _ = traced
    for p in _cusps(batch)[::4]:
        kappa_s, kappa_nu = scalar_trace.pointwise_curvatures(front, *p.uv, p.null_dir)
        size = math.hypot(kappa_s, kappa_nu)
        assert _close(p.kappa_s, kappa_s, abs(kappa_s)), p.uv
        assert _close(p.kappa_nu, kappa_nu, size), p.uv


@pytest.mark.parametrize("name", ["cuspidal_parabola", "pseudosphere"])
def test_kappa_s_integral_matches_scalar_trace(name):
    front = gallery(name)
    batch = integrate_kappa_s(front, trace(front, grid=GRID))
    scalar = integrate_kappa_s(front, scalar_trace.scalar_trace(front, grid=GRID))
    assert abs(batch - scalar) <= 1e-13 * abs(scalar)


def test_trace_makes_no_scalar_jet_calls(monkeypatch):
    """Tracing is array work: every jet call of `trace` covers a grid or a
    curve's points, the swallowtail signs included."""
    front = gallery("ellipsoid_parallel", FRONTS["ellipsoid_parallel"])
    calls = {"scalar": 0, "all": 0}
    real_jet = frontlab.front.eval_jet

    def eval_jet(e, u, v, order):
        calls["all"] += 1
        calls["scalar"] += np.shape(u) == () and np.shape(v) == ()
        return real_jet(e, u, v, order)

    monkeypatch.setattr(frontlab.front, "eval_jet", eval_jet)
    curves = trace(front, grid=64)
    assert _swallowtail_signs(curves) == [1, 1, 1, 1]
    assert calls["all"] > 0
    assert calls["scalar"] == 0


BATCH_CASES = [(name, None) for name in gallery_names()] + [
    ("ellipsoid_parallel", {"d": d}) for d in (1.1, 1.3, 1.6, 2.0, 2.5)
]


def _outcome(trace_fn, front, grid):
    try:
        return repr(trace_fn(front, grid))
    except FrontlabError as exc:
        return f"{type(exc).__name__}: {exc}"


@pytest.mark.parametrize("name, params", BATCH_CASES)
def test_trace_matches_per_curve_samples(name, params):
    """The batch over all curves of a trace builds every sample with the
    bits that building each curve on its own gives, or raises the same
    error.  d = 1.1 inserts swallowtails on two curves at grid 32 and
    meets a bracket with coincident ends at grid 16."""
    front = gallery(name, params)
    for grid in (16, 24, 32, 48, 64, 96):
        got = _outcome(trace, front, grid)
        assert got == _outcome(per_curve_samples.trace, front, grid), (name, params, grid)
        if params == {"d": 1.1} and grid == 16:
            assert re.match(r"TraceError: .*swallowtail bracket at \(0\.15536, 2\.51139\)", got)


def _sample_calls(monkeypatch, front, grid):
    """Calls made by `trace` after `_refine`: order-(3, 2) `Front.jets`,
    `_null_direction`, `_bisect`, and the value calls of `_bisect`."""
    counts = dict.fromkeys(("jets", "null", "bisect", "values"), 0)
    after = []
    real_refine, real_jets = singular._refine, frontlab.front.Front.jets
    real_null, real_bisect = singular._null_direction, singular._bisect

    def refine(*args):
        out = real_refine(*args)
        after.append(True)
        return out

    def jets(self, u, v, order_map=1, order_normal=1):
        counts["jets"] += bool(after) and (order_map, order_normal) == (3, 2)
        return real_jets(self, u, v, order_map, order_normal)

    def null_direction(jf):
        counts["null"] += bool(after)
        return real_null(jf)

    def bisect(value, *args, **kwargs):
        def counted(m, todo):
            counts["values"] += 1
            return value(m, todo)

        counts["bisect"] += bool(after)
        return real_bisect(counted if after else value, *args, **kwargs)

    monkeypatch.setattr(singular, "_refine", refine)
    monkeypatch.setattr(frontlab.front.Front, "jets", jets)
    monkeypatch.setattr(singular, "_null_direction", null_direction)
    monkeypatch.setattr(singular, "_bisect", bisect)
    return trace(front, grid), counts


@pytest.mark.parametrize("name, params, grid, curves", [
    ("ellipsoid_parallel", {"d": 2.0}, 64, 2),
    ("kuen", None, 48, 3),
])
def test_samples_take_one_jet_per_trace(monkeypatch, name, params, grid, curves):
    """Without swallowtails to insert, the samples of all curves take one
    order-(3, 2) jet and one null-direction call, whatever the curves."""
    got, counts = _sample_calls(monkeypatch, gallery(name, params), grid)
    assert len(got) == curves
    assert counts == {"jets": 1, "null": 1, "bisect": 0, "values": 0}


def test_inserted_swallowtails_take_one_bisection(monkeypatch):
    """Swallowtails inserted on two curves cost one bisection for both and
    one more order-(3, 2) jet of the merged samples; each value call of
    the bisection takes one null-direction call."""
    got, counts = _sample_calls(monkeypatch, gallery("ellipsoid_parallel", {"d": 1.1}), 32)
    assert len(got) == 2
    assert counts["bisect"] == 1 and counts["jets"] == 2
    assert 0 < counts["values"] <= 60
    assert counts["null"] == 2 + counts["values"]
