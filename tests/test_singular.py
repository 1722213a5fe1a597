"""Tests for singular-set tracing, classification, and singular curvature."""

import dataclasses
import json
import math
import re
import warnings

import fixed_step_project
import half_space_walk
import numpy as np
import pytest
import tail_sweep
from test_bench_jobs import BENCH

from frontlab import (
    Domain,
    Front,
    FrontContractError,
    FrontlabError,
    InapplicableError,
    TraceError,
    classify,
    curvature,
    curve_to_csv,
    curve_to_dict,
    gallery,
    gallery_names,
    half_space_signs,
    kappa_s_measure,
    lambda_jets,
    lambda_value,
    limiting_normal_curvature,
    parse,
    peak_arc_count,
    sign_meaning_check,
    singular_curvature,
    singular_curvature_intrinsic,
    tail_side,
    to_source,
    trace,
    validate,
)
from frontlab import front as front_module
from frontlab import gaussbonnet, singular
from frontlab.gaussbonnet import euler_report, integrate_kappa_s
from frontlab.singular import (
    SingularClass,
    SingularCurve,
    SingularPoint,
    _curvatures,
    _lambda_blocks,
)


def parabola_kappa_s(a, b, u):
    w = 1.0 + 4.0 * a * a * u * u
    return 2.0 * a / (w**1.5 * math.sqrt(1.0 + b * b * w))


def swallowtail_kappa_s(t):
    return -math.sqrt(1 + t**2 + t**4) / (6 * abs(t) * (1 + 4 * t**2 + t**4) ** 1.5)


def split_components(source):
    """Top-level components of a vector expression source string."""
    body, parts, depth, cur = source.strip()[1:-1], [], 0, []
    for ch in body:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts


def negate_normal(front):
    comps = split_components(front.normal.source)
    src = "(" + ", ".join(f"-({c})" for c in comps) + ")"
    return dataclasses.replace(front, normal=parse(src, dict(front.normal.params)))


def swap_chart(front):
    def sw(src):
        return src.replace("u", "\x00").replace("v", "u").replace("\x00", "v")

    d = front.domain
    dom = Domain(d.v0, d.v1, d.u0, d.u1, periodic_u=d.periodic_v,
                 periodic_v=d.periodic_u)
    return dataclasses.replace(
        front,
        map=parse(sw(front.map.source), dict(front.map.params)),
        normal=parse(sw(front.normal.source), dict(front.normal.params)),
        domain=dom,
    )


def _swallowtails(curves):
    return [p for c in curves for p in c.samples if p.kind is SingularClass.SWALLOWTAIL]


def _linear_image(front, rows, normal=True):
    """front followed by the linear map `rows` of R^3 (its normal too)."""
    def apply(expr):
        src = ", ".join(
            " + ".join(f"({r!r})*({c})" for r, c in zip(row, split_components(expr.source)) if r)
            for row in rows
        )
        return parse(f"({src})", dict(expr.params))

    return dataclasses.replace(front, map=apply(front.map),
                               normal=apply(front.normal) if normal else front.normal)


def _rechart(front, u, v, domain):
    """front in the chart where its (u, v) are the sources `u` and `v`."""
    def substitute(expr):
        new = {"u": f"({u})", "v": f"({v})"}
        return parse(re.sub(r"\b[uv]\b", lambda m: new[m.group()], to_source(expr)),
                     dict(expr.params))

    return dataclasses.replace(front, map=substitute(front.map),
                               normal=substitute(front.normal), domain=domain)


def _rotation():
    a, b = 0.7, -1.2
    rz = np.array([[math.cos(a), -math.sin(a), 0.0], [math.sin(a), math.cos(a), 0.0],
                   [0.0, 0.0, 1.0]])
    rx = np.array([[1.0, 0.0, 0.0], [0.0, math.cos(b), -math.sin(b)],
                   [0.0, math.sin(b), math.cos(b)]])
    return (rz @ rx).tolist()


def tail_variant(front, name):
    """The front changed by `name`, a map of its chart points into the new
    chart, and the sign k that lambda picks up (lambda' = k lambda o phi)."""
    d, same = front.domain, (lambda q: q)
    if name == "rotation":
        return _linear_image(front, _rotation()), same, 1
    if name.startswith("scale"):
        c = float(name.split()[1])
        return _linear_image(front, np.diag([c, c, c]).tolist(), normal=False), same, 1
    if name == "flipped normal":
        return negate_normal(front), same, -1
    if name == "u<->v":
        return swap_chart(front), lambda q: (q[1], q[0]), -1
    if name == "u->-u":
        dom = dataclasses.replace(d, u0=-d.u1, u1=-d.u0)
        return _rechart(front, "-u", "v", dom), lambda q: (-q[0], q[1]), -1
    assert name == "(2u,-v)"
    dom = dataclasses.replace(d, u0=0.5 * d.u0, u1=0.5 * d.u1, v0=-d.v1, v1=-d.v0)
    return _rechart(front, "2*u", "-v", dom), lambda q: (0.5 * q[0], -q[1]), -1


TAIL_VARIANTS = ["rotation", "scale 1e-3", "scale 1e3", "flipped normal", "u<->v",
                 "u->-u", "(2u,-v)"]

VARIANT_CASES = {  # swallowtails at the origin, or traced at grid 32
    "standard_swallowtail": ("standard_swallowtail", None, None),
    "swallowtail_pm+1": ("swallowtail_pm", {"sign": 1.0}, None),
    "swallowtail_pm-1": ("swallowtail_pm", {"sign": -1.0}, None),
    "kuen": ("kuen", None, 32),
    "ellipsoid_parallel_d1.3": ("ellipsoid_parallel", {"d": 1.3}, 32),
    "ellipsoid_parallel_d2": ("ellipsoid_parallel", {"d": 2.0}, 32),
}


def _variant_points(case):
    """The front of `VARIANT_CASES[case]` and its swallowtails."""
    name, params, grid = VARIANT_CASES[case]
    front = gallery(name, params)
    points = ([classify(front, (0.0, 0.0))] if grid is None
              else _swallowtails(trace(front, grid=grid)))
    assert points
    return front, points


def sheared_edge():
    """An adapted-chart cuspidal edge whose metric twists along the curve.

    On the singular axis g(f_uvv, f_u) = u != 0, so the two candidate
    second-order closing terms of the intrinsic formula stop agreeing.
    """
    d = "sqrt(v^2*(2*u+v^2)^2/16 + v^2/4 + (1+u)^2)"
    return Front(
        map=parse("(u, u^2/2 + v^2*(1+u)/2, v^3/6)"),
        normal=parse(f"(v*(2*u+v^2)/(4*{d}), -v/(2*{d}), (1+u)/{d})"),
        domain=Domain(-0.5, 0.5, -1.0, 1.0),
    )


@pytest.fixture(scope="module")
def parabola_curve():
    front = gallery("cuspidal_parabola")
    return front, trace(front, grid=32)


@pytest.fixture(scope="module")
def swallowtail_curve():
    front = gallery("standard_swallowtail")
    return front, trace(front, grid=32)


SWALLOWTAIL_CASES = [(name, None) for name in gallery_names()]
SWALLOWTAIL_CASES += [("ellipsoid_parallel", {"d": d}) for d in (1.1, 1.3, 1.6, 2.0, 2.5)]
SWALLOWTAIL_CASES += [("swallowtail_pm", {"sign": s}) for s in (1.0, -1.0)]


@pytest.fixture(scope="module")
def traced():
    """Every traced swallowtail of the gallery and of the parallel
    ellipsoid's and the swallowtail pair's parameter cases, at grids 32
    and 64, with its front: 36 points (kuen, the standard swallowtail, the
    pair at both signs and its default, the parallel ellipsoid at d = 1.1,
    1.3 and 2, at both grids)."""
    out = []
    for grid in (32, 64):
        for name, params in SWALLOWTAIL_CASES:
            front = gallery(name, params)
            try:
                curves = trace(front, grid=grid)
            except FrontlabError:
                continue
            out += [(front, p) for p in _swallowtails(curves)]
    assert len(out) == 36
    return out


class TestLambdaJets:
    """Partial derivatives of the area density against finite differences."""

    @pytest.mark.parametrize("name", ["cuspidal_parabola", "standard_swallowtail",
                                      "double_swallowtail"])
    @pytest.mark.parametrize("uv", [(0.31, 0.57), (-0.73, 0.22)])
    def test_matches_finite_differences(self, name, uv):
        front = gallery(name)
        u, v = uv
        lam, lu, lv, luu, luv, lvv = lambda_jets(front, u, v, order=2)
        h = 2.0**-13  # balances second-difference truncation against roundoff

        def fd(du, dv):
            return lambda_value(front, u + du * h, v + dv * h)

        ref_u = (fd(1, 0) - fd(-1, 0)) / (2 * h)
        ref_v = (fd(0, 1) - fd(0, -1)) / (2 * h)
        ref_uu = (fd(1, 0) - 2 * fd(0, 0) + fd(-1, 0)) / h**2
        ref_vv = (fd(0, 1) - 2 * fd(0, 0) + fd(0, -1)) / h**2
        ref_uv = (fd(1, 1) - fd(1, -1) - fd(-1, 1) + fd(-1, -1)) / (4 * h**2)
        assert abs(lam - fd(0, 0)) < 1e-12
        for got, ref, tag in [(lu, ref_u, "lu"), (lv, ref_v, "lv"),
                              (luu, ref_uu, "luu"), (luv, ref_uv, "luv"),
                              (lvv, ref_vv, "lvv")]:
            tol = 5e-6 * max(1.0, abs(ref))
            assert abs(got - ref) < tol, f"{name} {tag}: {got} vs FD {ref}"

    def test_parabola_axis_values(self):
        front = gallery("cuspidal_parabola")
        for u in (-1.0, 0.0, 0.8):
            lam, lu, lv = lambda_jets(front, u, 0.0, order=1)
            delta = math.sqrt(4.0 + (1.0 + 4.0 * u * u) * 4.0)
            assert abs(lam) < 1e-14, f"lambda off zero at u={u}: {lam}"
            assert abs(lu) < 1e-12, f"lambda_u nonzero on the axis: {lu}"
            assert abs(lv - delta) < 1e-12 * delta, f"lambda_v {lv} != {delta}"

    @pytest.mark.parametrize("order", [0, 3])
    def test_bad_order_rejected(self, order):
        # order 0 is lambda alone: front.lambda_value
        with pytest.raises(ValueError, match="order"):
            lambda_jets(gallery("plane"), 0.0, 0.0, order=order)


class TestClassify:
    """Pointwise classification into edge/swallowtail/peak/degenerate."""

    @pytest.mark.parametrize("u", [-1.0, -0.5, 0.0, 0.5, 1.0])
    def test_parabola_edge_curvature(self, u):
        front = gallery("cuspidal_parabola")
        p = classify(front, (u, 0.0))
        assert p.kind is SingularClass.CUSPIDAL_EDGE
        want = parabola_kappa_s(1.0, 1.0, u)
        assert abs(p.kappa_s - want) < 1e-12 * abs(want), (
            f"kappa_s {p.kappa_s} != {want} at u={u}"
        )

    def test_parabola_normal_curvature_frozen(self):
        front = gallery("cuspidal_parabola")
        p = classify(front, (0.0, 0.0))
        assert abs(p.kappa_nu + math.sqrt(2.0)) < 1e-12, (
            f"kappa_nu at the origin should be -sqrt(2), got {p.kappa_nu}"
        )

    @pytest.mark.parametrize("t", [0.2, 0.5, -0.8])
    def test_swallowtail_edge_samples(self, t):
        front = gallery("standard_swallowtail")
        p = classify(front, (t, -6.0 * t * t))
        assert p.kind is SingularClass.CUSPIDAL_EDGE
        want = swallowtail_kappa_s(t)
        assert abs(p.kappa_s - want) < 1e-10 * abs(want)

    def test_swallowtail_origin(self):
        p = classify(gallery("standard_swallowtail"), (0.0, 0.0))
        assert p.kind is SingularClass.SWALLOWTAIL
        assert p.kappa_s == -math.inf
        assert abs(p.transversality) < 1e-12

    def test_double_swallowtail_origin_degenerate(self):
        p = classify(gallery("double_swallowtail"), (0.0, 0.0))
        assert p.kind is SingularClass.DEGENERATE
        assert math.isnan(p.kappa_s)

    @pytest.mark.parametrize("name, uv, kind", [
        ("standard_swallowtail", (0.5, -1.5), SingularClass.CUSPIDAL_EDGE),
        ("standard_swallowtail", (0.0, 0.0), SingularClass.SWALLOWTAIL),
        ("double_swallowtail", (0.0, 0.0), SingularClass.DEGENERATE),
    ])
    def test_one_jet_call(self, monkeypatch, name, uv, kind):
        """The decision, the curvatures and the transversality rate all
        come from one scalar jet evaluation, whatever the point's kind."""
        front = gallery(name)
        calls = []
        real = Front.jets

        def jets(self, *args):
            calls.append(args)
            return real(self, *args)

        monkeypatch.setattr(Front, "jets", jets)
        assert classify(front, uv).kind is kind
        assert len(calls) == 1

    def test_cone_circle_is_peak(self):
        front = gallery("cone")
        for v in (0.3, 2.0, 5.1):
            p = classify(front, (1.0, v))
            assert p.kind is SingularClass.NONDEGENERATE_PEAK_OTHER, (
                f"cone point at v={v} classified {p.kind}"
            )

    def test_kuen_swallowtail_at_waist(self):
        p = classify(gallery("kuen"), (0.0, 1.0))
        assert p.kind is SingularClass.SWALLOWTAIL
        assert abs(p.transversality) < 1e-12

    def test_standard_edge_is_flat(self):
        front = gallery("standard_cuspidal_edge")
        p = classify(front, (0.0, 0.4))
        assert p.kind is SingularClass.CUSPIDAL_EDGE
        assert abs(p.kappa_s) < 1e-12
        assert abs(p.kappa_nu) < 1e-12

    def test_regular_point_rejected(self):
        with pytest.raises(FrontContractError, match="rank 2"):
            classify(gallery("cuspidal_parabola"), (0.3, 0.5))

    def test_frame_orientation(self):
        rng = np.random.default_rng(11)
        front = gallery("standard_swallowtail")
        for t in rng.uniform(0.1, 1.0, 5):
            p = classify(front, (t, -6.0 * t * t))
            T, eta = p.singular_dir, p.null_dir
            assert abs(math.hypot(*eta) - 1.0) < 1e-12
            assert abs(math.hypot(*T) - 1.0) < 1e-12
            assert T[0] * eta[1] - T[1] * eta[0] > 0, (
                f"(tangent, null) frame not positively oriented at t={t}"
            )


class TestTrace:
    """Curve tracing: seeds, continuation, termination, determinism."""

    def test_parabola_axis(self, parabola_curve):
        front, curves = parabola_curve
        assert len(curves) == 1
        c = curves[0]
        assert not c.closed
        assert c.peaks == ()
        vs = np.array([p.uv[1] for p in c.samples])
        assert np.max(np.abs(vs)) < 1e-8
        us = np.array([p.uv[0] for p in c.samples])
        assert abs(us.min() + 1.5) < 1e-6 and abs(us.max() - 1.5) < 1e-6, (
            f"curve should span the chart, got u in [{us.min()}, {us.max()}]"
        )
        assert all(p.kind is SingularClass.CUSPIDAL_EDGE for p in c.samples)

    def test_swallowtail_discriminant(self, swallowtail_curve):
        front, curves = swallowtail_curve
        assert len(curves) == 1
        c = curves[0]
        worst = max(abs(p.uv[1] + 6.0 * p.uv[0] ** 2) for p in c.samples)
        assert worst < 1e-8, f"discriminant residual {worst}"
        assert len(c.peaks) == 1
        peak = c.samples[c.peaks[0]]
        assert peak.kind is SingularClass.SWALLOWTAIL
        assert math.hypot(*peak.uv) < 1e-6
        assert peak.swallowtail_sign == 1

    def test_arclength_is_monotone(self, swallowtail_curve):
        front, curves = swallowtail_curve
        s = np.array([p.s for p in curves[0].samples])
        assert s[0] == 0.0
        assert np.all(np.diff(s) >= 0.0)

    def test_pseudosphere_circle(self):
        front = gallery("pseudosphere")
        curves = trace(front, grid=32)
        assert len(curves) == 1
        c = curves[0]
        assert c.closed
        assert max(abs(p.uv[0]) for p in c.samples) < 1e-10
        ks = [p.kappa_s for p in c.samples]
        assert max(abs(k - 1.0) for k in ks) < 1e-9, (
            f"pseudosphere kappa_s should be 1, range [{min(ks)}, {max(ks)}]"
        )

    def test_cone_circle_all_peaks(self):
        curves = trace(gallery("cone"), grid=32)
        assert len(curves) == 1
        assert curves[0].closed
        kinds = {p.kind for p in curves[0].samples}
        assert kinds == {SingularClass.NONDEGENERATE_PEAK_OTHER}

    def test_double_swallowtail_rays_stop_at_degeneracy(self):
        curves = trace(gallery("double_swallowtail"), grid=32)
        assert len(curves) >= 2
        for c in curves:
            uv = np.array([p.uv for p in c.samples])
            r = np.hypot(uv[:, 0], uv[:, 1])
            # each ray lies on v^2 = 6 u^2; where two rays meet, the origin
            # is a sample of its own and the only degenerate one
            resid = np.abs(uv[:, 1] ** 2 - 6.0 * uv[:, 0] ** 2)
            assert np.max(resid[r > 0.05]) < 1e-6
            degenerate = [p.kind is SingularClass.DEGENERATE for p in c.samples]
            assert degenerate == list(r < 1e-8)
            assert any(degenerate)

    @pytest.mark.parametrize("name, grid", [("kuen", 48), ("standard_swallowtail", 32)])
    def test_open_curves_end_on_chart_edges(self, name, grid):
        front = gallery(name)
        dom = front.domain
        curves = trace(front, grid=grid)
        assert curves and not any(c.closed for c in curves)
        for c in curves:
            for p in (c.samples[0], c.samples[-1]):
                assert p.uv[0] in (dom.u0, dom.u1) or p.uv[1] in (dom.v0, dom.v1), p.uv

    def test_close_curves_are_both_traced(self):
        # cuspidal edges at v = +-a, closer together than two grid steps
        front = Front(
            map=parse("(u, v^3/3-a^2*v, v^4/4-a^2*v^2/2)", {"a": 0.04}),
            normal=parse("(0, -v/sqrt(1+v^2), 1/sqrt(1+v^2))"),
            domain=Domain(-1.0, 1.0, -1.0, 1.0),
        )
        validate(front)
        curves = trace(front, grid=32)
        assert len(curves) == 2
        for c, v in zip(sorted(curves, key=lambda c: c.samples[0].uv[1]), (-0.04, 0.04)):
            assert max(abs(p.uv[1] - v) for p in c.samples) < 1e-12

    def test_lambda_zero_on_grid_nodes(self):
        # at grid 33 the u-axis, where lambda vanishes, is a row of nodes
        front = gallery("cuspidal_parabola")
        uu, vv = front.domain.grid(33)
        assert (lambda_value(front, uu, vv) == 0.0).sum() == 33
        curves = trace(front, grid=33)
        assert len(curves) == 1 and not curves[0].closed
        assert all(p.uv[1] == 0.0 for p in curves[0].samples)
        got = integrate_kappa_s(front, curves)
        assert abs(got - 1.4706289056333368) <= 1e-13

    def test_isolated_zero_at_a_node(self):
        # lambda = -(u^2 + v^2) vanishes only at the origin, a node at grid 17
        front = Front(
            map=parse("(u, -(v^3/3+u^2*v), 0)"), normal=parse("(0, 0, 1)"),
            domain=Domain(-1.0, 1.0, -1.0, 1.0),
        )
        (curve,) = trace(front, grid=17)
        assert not curve.closed and curve.peaks == (0,)
        (point,) = curve.samples
        assert point.uv == (0.0, 0.0) and point.kind is SingularClass.DEGENERATE
        assert trace(front, grid=16) == []

    def test_saddle_cell_refused(self):
        dom = Domain(0.0, 1.0, 0.0, 1.0)
        uu, vv = dom.grid(16)
        lam = np.ones_like(uu)
        lam[7, 7] = lam[8, 8] = -1.0
        with pytest.raises(TraceError, match=r"grid cell \(7, 7\)"):
            singular._crossings(None, dom, uu, vv, lam)

    def test_coincident_swallowtail_bracket_refused(self):
        # at grid 16 one swallowtail bracket of this front closes to two
        # floats that the periodic fold maps to one chart point
        front = gallery("ellipsoid_parallel", {"d": 1.1})
        with pytest.raises(TraceError, match=r"swallowtail bracket at \(0\.15536, 2\.51139\)"):
            trace(front, grid=16)

    def test_unclosed_swallowtail_brackets_not_inserted(self, monkeypatch):
        # at grid 32, 4 of this front's det(T, eta) sign changes are jumps
        # of |det| = 0.33: bisection never closes 3 of them and closes one
        # onto its end sample (2.99961, 2.63276), which is not inserted a
        # second time; only the 4 zeros of det become samples, each a
        # swallowtail
        front = gallery("ellipsoid_parallel", {"d": 1.1})
        real, inserted = singular._insert_swallowtails, []

        def insert_swallowtails(front, dom, P, *args):
            out, sizes = real(front, dom, P, *args)
            before = set(map(tuple, P.tolist()))
            inserted.extend(q for q in map(tuple, out.tolist()) if q not in before)
            return out, sizes

        monkeypatch.setattr(singular, "_insert_swallowtails", insert_swallowtails)
        curves = trace(front, grid=32)
        assert [len(c) for c in curves] == [214, 214]
        samples = {p.uv: p for c in curves for p in c.samples}
        assert len(inserted) == 4
        for uv in inserted:
            p = samples[uv]
            assert p.kind is SingularClass.SWALLOWTAIL, uv
            assert abs(p.transversality) <= 1e-10, uv
            assert p.swallowtail_sign == -1, uv

    def test_no_sample_repeats_its_predecessor(self):
        """No traced curve holds two consecutive samples at one chart point,
        over the gallery and the parallel ellipsoid's regimes at grids
        16-96 (a swallowtail bracket that closes onto a sample is not a
        zero of det(T, eta))."""
        cases = [(name, None) for name in gallery_names()]
        cases += [("ellipsoid_parallel", {"d": d})
                  for d in (1.1, 1.3, 1.439, 1.6, 2.0, 2.249, 2.5)]
        for name, params in cases:
            front = gallery(name, params)
            for grid in (16, 24, 32, 48, 64, 96):
                try:
                    curves = trace(front, grid=grid)
                except FrontlabError:
                    continue
                for c in curves:
                    uv = [p.uv for p in c.samples]
                    repeats = [q for q, r in zip(uv, uv[1:]) if q == r]
                    assert not repeats, (name, params, grid, repeats)

    @pytest.mark.parametrize("grid", [16, 32])
    def test_gallery_traces_or_refuses(self, grid):
        """Every gallery front, and the parallel ellipsoid's swallowtail
        regimes, trace to curves or raise a FrontlabError, without a
        warning on the way; every traced swallowtail carries its sign."""
        cases = [(name, None) for name in gallery_names()]
        cases += [("ellipsoid_parallel", {"d": d}) for d in (1.1, 1.6, 2.0)]
        for name, params in cases:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    curves = trace(gallery(name, params), grid=grid)
                except FrontlabError:
                    continue
            assert all(len(c) for c in curves), (name, params)
            for p in (p for c in curves for p in c.samples):
                if p.kind is SingularClass.SWALLOWTAIL:
                    assert p.swallowtail_sign in (1, -1), (name, params, p.uv)

    def test_sphere_has_no_singular_set(self):
        assert trace(gallery("sphere"), grid=16) == []

    def test_lambda_changes_sign_across_curve(self, parabola_curve):
        front, curves = parabola_curve
        eps = 1e-4 * front.domain.scale
        for p in curves[0].samples[2:-2:5]:
            T = p.singular_dir
            n = (-T[1], T[0])
            above = lambda_value(front, p.uv[0] + eps * n[0], p.uv[1] + eps * n[1])
            below = lambda_value(front, p.uv[0] - eps * n[0], p.uv[1] - eps * n[1])
            assert above * below < 0, (
                f"lambda does not change sign across the curve at {p.uv}"
            )

    def test_coarse_grid_rejected(self):
        with pytest.raises(ValueError, match="at least 16"):
            trace(gallery("plane"), grid=8)

    def test_deterministic(self):
        front = gallery("cuspidal_parabola")
        a = trace(front, grid=32)
        b = trace(front, grid=32)
        assert repr(a) == repr(b)

    def test_closed_chain_starting_at_a_zero_node_lists_it_once(self):
        # `_chains` reads lambda alone, so a planar map with the constant
        # normal e3 serves: lambda = 0.0625 - u^2 - 3 v^2, exactly 0 at the
        # grid nodes (+-1/8, +-1/8) and (+-1/4, 0) of the 17 x 17 grid.
        # Such a node is the crossing of both edges to its inside (lambda
        # < 0) neighbours; at (-1/8, -1/8) these two crossings are the
        # first and the last of the cycle, so only the closed-chain check
        # keeps the node from being listed twice.
        front = Front(map=parse("(u, (0.0625 - u^2)*v - v^3, 0)"), normal=parse("(0, 0, 1)"),
                      domain=Domain(-1.0, 1.0, -1.0, 1.0))
        [(P, closed)] = singular._chains(front, 17)
        assert closed
        rows = [tuple(p) for p in P.tolist()]
        assert len(set(rows)) == len(rows)
        nodes = {(-0.125, -0.125), (-0.125, 0.125), (0.125, -0.125), (0.125, 0.125),
                 (-0.25, 0.0), (0.25, 0.0)}
        assert nodes <= set(rows)


class TestCurvatureRoutes:
    """The jet formula against tangent differencing and the intrinsic form."""

    @pytest.mark.parametrize("params,variant", [
        pytest.param({}, None, id="params0"),
        pytest.param({"a": -1.0, "b": 0.5}, None, id="params1"),
        pytest.param({"a": 2.0, "b": 0.0}, None, id="params2"),
        pytest.param({}, "scale 1e-3", id="scale 1e-3"),
        pytest.param({}, "scale 1e3", id="scale 1e3"),
    ])
    def test_differenced_matches_jets(self, params, variant):
        """The step is a chart length, so kappa_s * c is the same at every
        scale c of the image."""
        front = gallery("cuspidal_parabola", params)
        if variant is not None:
            front = tail_variant(front, variant)[0]
        for u in (-0.9, 0.0, 0.6):
            p = classify(front, (u, 0.0))
            got = singular_curvature(front, p)
            assert abs(got - p.kappa_s) < 1e-8 * max(1.0, abs(p.kappa_s)), (
                f"routes disagree at u={u}: {got} vs {p.kappa_s}"
            )

    def test_differenced_on_swallowtail_flank(self):
        front = gallery("standard_swallowtail")
        p = classify(front, (0.4, -0.96))
        got = singular_curvature(front, p)
        assert abs(got - p.kappa_s) < 1e-7 * abs(p.kappa_s)

    @pytest.mark.parametrize("variant", [None, "scale 1e3"])
    def test_differenced_on_traced_ellipsoid(self, variant):
        """Every 4th traced cuspidal sample of the parallel ellipsoid,
        where the absolute floors of an arclength secant failed at scale
        1e3 and missed by up to 0.83 relative at scale 1."""
        front = gallery("ellipsoid_parallel", {"d": 1.3})
        if variant is not None:
            front = tail_variant(front, variant)[0]
        edges = [p for c in trace(front, grid=32) for p in c.samples
                 if p.kind is SingularClass.CUSPIDAL_EDGE]
        assert len(edges) > 300
        for p in edges[::4]:
            got = singular_curvature(front, p)
            assert abs(got - p.kappa_s) <= 1e-6 * abs(p.kappa_s), (p.uv, got, p.kappa_s)

    def test_differenced_reversal_invariant(self):
        front = gallery("cuspidal_parabola")
        p = classify(front, (0.35, 0.0))
        rev = dataclasses.replace(
            p,
            singular_dir=(-p.singular_dir[0], -p.singular_dir[1]),
            null_dir=(-p.null_dir[0], -p.null_dir[1]),
        )
        assert abs(singular_curvature(front, rev) - p.kappa_s) < 1e-9

    def test_differenced_needs_edge(self):
        front = gallery("standard_swallowtail")
        p = classify(front, (0.0, 0.0))
        with pytest.raises(InapplicableError, match="cuspidal edge"):
            singular_curvature(front, p)

    def test_differenced_offsets_must_land(self):
        """Offsets across the curve, projected along it, miss lambda = 0."""
        front = gallery("cuspidal_parabola")
        p = classify(front, (0.3, 0.0))
        across = dataclasses.replace(p, singular_dir=(-p.singular_dir[1], p.singular_dir[0]))
        with pytest.raises(TraceError, match="did not land on the curve"):
            singular_curvature(front, across)

    @pytest.mark.parametrize("params,u", [({}, 0.0), ({}, 0.7),
                                          ({"a": -1.0, "b": 0.5}, 0.3)])
    def test_intrinsic_matches_extrinsic(self, params, u):
        front = gallery("cuspidal_parabola", params)
        p = classify(front, (u, 0.0))
        got = singular_curvature_intrinsic(front, u)
        assert abs(got - p.kappa_s) < 1e-10 * max(1.0, abs(p.kappa_s)), (
            f"intrinsic {got} vs extrinsic {p.kappa_s} at u={u}"
        )

    def test_intrinsic_variant_discrimination(self):
        """The second-v-derivative closing term survives a metric shear."""
        front = sheared_edge()
        u = 0.3
        p = classify(front, (u, 0.0))
        got = singular_curvature_intrinsic(front, u)
        assert abs(got - p.kappa_s) < 1e-10 * max(1.0, abs(p.kappa_s))

    def test_intrinsic_needs_adapted_chart(self):
        with pytest.raises(InapplicableError, match="not adapted"):
            singular_curvature_intrinsic(gallery("standard_swallowtail"), 0.3)


def _recorded_projections(monkeypatch):
    """Record every `_project` call, in both modules that look it up."""
    calls = []
    real = singular._project

    def record(front, X, N):
        mu, jets = real(front, X, N)
        calls.append((front, np.array(X), np.array(N), mu, jets))
        return mu, jets

    monkeypatch.setattr(singular, "_project", record)
    monkeypatch.setattr(gaussbonnet, "_project", record)
    return calls


def _jet_bits(jets):
    return [np.asarray(c).tobytes()
            for j in jets for degree in j.blocks for partial in degree for c in partial]


def _assert_matches_all_steps(calls):
    """mu is the oracle's bit for bit, and handed-back jets are the jets
    at X + mu N."""
    for front, X, N, got, jets in calls:
        want = fixed_step_project.project(front, X, N)
        assert type(got) is type(want)
        assert np.shape(got) == np.shape(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), (X, N)
        if jets is not None:
            Q = X + np.asarray(got)[..., None] * N
            assert _jet_bits(jets) == _jet_bits(front.jets(Q[..., 0], Q[..., 1], 2, 1))


def _points_per_projection(monkeypatch, run):
    """The (u, v) points `eval_jet` takes inside each `_project` call of
    `run()`, one list of byte pairs per call."""
    calls, inside = [], []
    real_jet, real_project = front_module.eval_jet, singular._project

    def eval_jet(e, u, v, order):
        if inside:
            uu, vv = np.broadcast_arrays(np.asarray(u, float), np.asarray(v, float))
            inside[-1].extend(zip(map(bytes, uu.reshape(-1, 1)), map(bytes, vv.reshape(-1, 1))))
        return real_jet(e, u, v, order)

    def project(*args):
        inside.append([])
        try:
            return real_project(*args)
        finally:
            calls.append(inside.pop())

    monkeypatch.setattr(front_module, "eval_jet", eval_jet)
    monkeypatch.setattr(singular, "_project", project)
    monkeypatch.setattr(gaussbonnet, "_project", project)
    run()
    monkeypatch.undo()
    return calls


def _hex_rows(*rows):
    return np.array([[float.fromhex(x) for x in row] for row in rows])


class TestProjection:
    """`_project` returns at a bitwise fixed point; the result is the one
    every `_PROJECT_ITERS` steps give, bit for bit."""

    def test_trace_projections(self, monkeypatch):
        calls = _recorded_projections(monkeypatch)
        for name in gallery_names():
            for grid in (32, 64):
                trace(gallery(name), grid=grid)
        assert len(calls) > 20
        _assert_matches_all_steps(calls)

    def test_integral_and_report_projections(self, monkeypatch):
        parabola = gallery("cuspidal_parabola")
        ellipsoid = gallery("ellipsoid_parallel", {"d": 1.6})
        pseudosphere = gallery("pseudosphere")
        curves = [trace(f, grid=64) for f in (parabola, ellipsoid)]
        calls = _recorded_projections(monkeypatch)
        integrate_kappa_s(parabola, curves[0])
        integrate_kappa_s(ellipsoid, curves[1])
        euler_report(pseudosphere)
        assert len({id(f) for f, *_ in calls}) == 3
        _assert_matches_all_steps(calls)

    @pytest.mark.parametrize("name,uv", [
        ("cuspidal_parabola", (0.3, 0.0)),
        ("standard_swallowtail", (0.4, -0.96)),
    ])
    def test_singular_curvature_offsets(self, monkeypatch, name, uv):
        front = gallery(name)
        p = classify(front, uv)
        calls = _recorded_projections(monkeypatch)
        singular_curvature(front, p)
        assert len(calls) == 4 and all(np.shape(c[3]) == () for c in calls)
        _assert_matches_all_steps(calls)

    def test_newton_going_nan(self):
        """A zero direction sends mu to -inf and then NaN, which repeats;
        the other rows keep their own steps."""
        front = gallery("cuspidal_parabola")
        X = np.array([[0.3, 0.5], [0.3, 0.5], [-0.2, 0.1]])
        N = np.array([[0.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
        with np.errstate(all="ignore"):
            mu, jets = singular._project(front, X, N)
            _assert_matches_all_steps([(front, X, N, mu, jets)])
        assert np.isnan(mu[0]) and np.isfinite(mu[1:]).all()

    @pytest.mark.parametrize("name,X,N", [
        # NaN rows, and points on lambda = 0 at v = +0.0 and at v = -0.0
        ("cuspidal_parabola",
         np.array([[0.3, 0.0], [0.3, -0.0], [np.nan, 0.2], [0.3, 0.5], [-0.0, 0.1]]),
         np.array([[0.0, 1.0], [0.0, -1.0], [0.0, 1.0], [0.0, 1.0], [-0.0, -1.0]])),
        # mu 2-cycles from the line rule of `integrate_K_dA`, next to a NaN row
        ("ellipsoid_parallel",
         _hex_rows(["0x1.0dc9345e8d6c9p-2", "0x1.d5818add74a34p-1"],
                   ["0x1.c894007ad6888p+1", "0x1.1d03160a38f4ap+1"],
                   ["0x1.8482a2a2dbd6ep+2", "0x1.d615928ed76b5p-1"],
                   ["nan", "0x1p-1"]),
         _hex_rows(["0x1.5ccaf36cf829ap-6", "0x1.ffe24b9cfd486p-1"],
                   ["-0x1.f2be7083fd53cp-11", "0x1.fffff0d159d8bp-1"],
                   ["0x1.6f8170e4b832fp-6", "-0x1.ffdf05a9eb3fap-1"],
                   ["0x0p+0", "0x1p+0"])),
    ])
    def test_nan_signed_zero_and_two_cycle_rows(self, name, X, N):
        front = gallery(name, {"d": 1.6} if name == "ellipsoid_parallel" else None)
        with np.errstate(all="ignore"):
            mu, jets = singular._project(front, X, N)
            _assert_matches_all_steps([(front, X, N, mu, jets)])
            # the premise: the oracle's last mu 2-cycle where a row has one
            steps = [fixed_step_project.project(front, X, N, k) for k in (6, 7, 8)]
        bits = [s.view(np.int64) for s in steps]
        cycles = (bits[0] == bits[2]) & (bits[1] != bits[2])
        assert cycles.sum() == (3 if name == "ellipsoid_parallel" else 0)

    def test_start_on_the_curve(self, monkeypatch):
        """lambda is exactly 0 on the parabola's axis: one step returns
        mu = 0 again, the projection stops there and hands back the jets
        of that step."""
        front = gallery("cuspidal_parabola")
        X, N = np.array([0.3, 0.0]), np.array([0.0, 1.0])
        steps = []
        real = front_module.eval_jet
        monkeypatch.setattr(front_module, "eval_jet",
                            lambda *a, **k: steps.append(1) or real(*a, **k))
        mu, jets = singular._project(front, X, N)
        assert len(steps) == 1 and jets is not None
        assert mu.tobytes() == np.float64(0.0).tobytes()
        _assert_matches_all_steps([(front, X, N, mu, jets)])

    def test_point_handback_in_a_two_cycle(self):
        """One chart offset of `singular_curvature` on the swallowtail
        flank: its 8 steps visit the points 0, 1, 2, 3, 2, 3, 2, 3 and land
        on point 2, last evaluated two steps before the end; the jets
        handed back are the jets at that point."""
        front = gallery("standard_swallowtail")
        X = np.array([0.40163163403289603, -0.9678318433579011])
        N = np.array([0.9789804197376051, 0.20395425411200102])
        points = [(X + fixed_step_project.project(front, X, N, k) * N).tobytes()
                  for k in range(9)]
        visits = [list(dict.fromkeys(points)).index(p) for p in points]
        assert visits == [0, 1, 2, 3, 2, 3, 2, 3, 2]
        mu, jets = singular._project(front, X, N)
        Q = X + mu * N
        assert Q.tobytes() == points[-1]
        assert jets is not None
        assert _jet_bits(jets) == _jet_bits(front.jets(Q[0], Q[1], 2, 1))

    def test_jet_calls_on_the_parabola_axis(self, monkeypatch):
        """Each chart offset takes one Newton step, whose jets serve its
        landing."""
        front = gallery("cuspidal_parabola")
        p = classify(front, (0.3, 0.0))
        calls = []
        real = front_module.eval_jet
        monkeypatch.setattr(front_module, "eval_jet",
                            lambda *a, **k: calls.append(1) or real(*a, **k))
        kappa_s = singular_curvature(front, p)
        assert len(calls) == 5
        assert kappa_s == 0.8208534571938269

    def test_no_point_evaluated_twice_on_the_line_rule(self, monkeypatch):
        front = gallery("ellipsoid_parallel", {"d": 1.6})
        curves = trace(front, grid=96)
        pieces = gaussbonnet._boundary_pieces(front, curves, 512)
        calls = _points_per_projection(
            monkeypatch, lambda: gaussbonnet._minus_area(front, pieces))
        assert len(calls) == 1
        assert len(calls[0]) == len(set(calls[0])) > 20000

    def test_no_point_evaluated_twice_for_singular_curvature(self, monkeypatch):
        jobs = [job for job in BENCH.setup("queries", 7)
                if job.name.startswith("singular_curvature")]
        calls = _points_per_projection(monkeypatch, lambda: [job.run() for job in jobs])
        assert len(calls) == 4 * len(jobs) == 144
        assert all(len(c) == len(set(c)) for c in calls)


class TestInvariance:
    """kappa_s is independent of co-orientation and chart labeling."""

    @pytest.mark.parametrize("name,points", [
        ("cuspidal_parabola", [(-1.1, 0.0), (0.0, 0.0), (0.45, 0.0)]),
        ("standard_swallowtail", [(0.3, -0.54), (-0.7, -2.94)]),
        ("standard_cuspidal_edge", [(0.0, 0.2)]),
    ])
    def test_normal_flip_and_chart_swap(self, name, points):
        front = gallery(name)
        flipped = negate_normal(front)
        swapped = swap_chart(front)
        for (u, v) in points:
            k0 = classify(front, (u, v)).kappa_s
            k1 = classify(flipped, (u, v)).kappa_s
            k2 = classify(swapped, (v, u)).kappa_s
            scale = max(1.0, abs(k0))
            assert abs(k1 - k0) < 1e-9 * scale, f"{name}: -nu changed kappa_s"
            assert abs(k2 - k0) < 1e-9 * scale, f"{name}: chart swap changed kappa_s"

    def test_normal_flip_negates_normal_curvature(self):
        front = gallery("cuspidal_parabola")
        p0 = classify(front, (0.2, 0.0))
        p1 = classify(negate_normal(front), (0.2, 0.0))
        assert abs(p1.kappa_nu + p0.kappa_nu) < 1e-12


WHOLE_TRACE_FRONTS = {
    "kuen": ("kuen", None),
    "ellipsoid_parallel_d2": ("ellipsoid_parallel", {"d": 2.0}),
    "standard_swallowtail": ("standard_swallowtail", None),
    "pseudosphere": ("pseudosphere", None),
    "cuspidal_parabola": ("cuspidal_parabola", None),
}


def _trace_summary(front, flip=1):
    """The curves of `trace(front, grid=32)` as a sorted list of (closed,
    sorted (kind, swallowtail sign times `flip`) of its peaks), and the
    integral of kappa_s over them."""
    curves = trace(front, grid=32)
    shapes = sorted(
        (c.closed, sorted((c.samples[k].kind.value,
                           None if c.samples[k].swallowtail_sign is None
                           else flip * c.samples[k].swallowtail_sign) for k in c.peaks))
        for c in curves)
    return shapes, integrate_kappa_s(front, curves)


class TestWholeTraceInvariance:
    """Whole traces at grid 32 under the changes that keep the singular
    set: the curves, their peaks and the integral of kappa_s ds stay, and
    a swallowtail's sign flips with lambda's (a flipped normal or an
    orientation-reversing chart change)."""

    @pytest.mark.parametrize("variant", [
        "rotation", "scale 1e-3", "scale 1e3", "flipped normal", "u<->v", "u->-u",
        pytest.param("scale 1e-6", marks=pytest.mark.xfail(
            strict=True, reason="ROADMAP item 2: every sample comes out DEGENERATE")),
    ])
    @pytest.mark.parametrize("case", WHOLE_TRACE_FRONTS)
    def test_curves_peaks_and_integral(self, case, variant):
        front = gallery(*WHOLE_TRACE_FRONTS[case])
        changed, _, k = tail_variant(front, variant)
        shapes, integral = _trace_summary(front, flip=k)
        changed_shapes, changed_integral = _trace_summary(changed)
        assert changed_shapes == shapes
        assert changed_integral == pytest.approx(integral, rel=1e-12, abs=0.0)


class TestMeasureAndNormalCurvature:
    def test_parabola_density_closed_form(self, parabola_curve):
        front, curves = parabola_curve
        dens = kappa_s_measure(front, curves[0])
        for p, d in zip(curves[0].samples, dens):
            u = p.uv[0]
            want = parabola_kappa_s(1.0, 1.0, u) * math.sqrt(1.0 + 4.0 * u * u)
            assert abs(d - want) < 1e-8, f"density at u={u}: {d} vs {want}"

    def test_swallowtail_density_continuous(self, swallowtail_curve):
        front, curves = swallowtail_curve
        c = curves[0]
        dens = kappa_s_measure(front, c)
        assert np.all(np.isfinite(dens))
        i = c.peaks[0]
        # the peak limit of kappa_s * |image speed| on both flanks is -2
        assert abs(dens[i] + 2.0) < 0.05, f"peak density {dens[i]}"
        window = dens[max(0, i - 3): i + 4]
        assert np.max(np.abs(np.diff(window))) < 0.1

    @staticmethod
    def _curve(densities, closed):
        def point(d):
            kind = (SingularClass.NONDEGENERATE_PEAK_OTHER if math.isnan(d)
                    else SingularClass.CUSPIDAL_EDGE)
            return SingularPoint(
                uv=(0.0, 0.0), lam=0.0, grad_lambda=(1.0, 0.0), null_dir=(1.0, 0.0),
                singular_dir=(0.0, -1.0), kind=kind, kappa_s=d, kappa_nu=0.0,
                transversality=1.0, density=d,
            )

        samples = tuple(point(d) for d in densities)
        peaks = tuple(i for i, d in enumerate(densities) if math.isnan(d))
        return SingularCurve(samples=samples, closed=closed, peaks=peaks)

    @pytest.mark.parametrize("densities,closed,want", [
        ((math.nan, 1.0, 5.0), False, [1.0, 1.0, 5.0]),
        ((1.0, 5.0, math.nan), False, [1.0, 5.0, 5.0]),
        ((math.nan, 1.0, 5.0), True, [3.0, 1.0, 5.0]),
        ((1.0, 5.0, math.nan), True, [1.0, 5.0, 3.0]),
    ])
    def test_peak_fill_uses_only_curve_neighbours(self, densities, closed, want):
        # an open curve's end has one neighbour; a closed curve wraps around
        curve = self._curve(densities, closed)
        assert kappa_s_measure(None, curve).tolist() == want

    def test_limiting_normal_curvature_generic(self):
        front = gallery("cuspidal_parabola")
        nc = limiting_normal_curvature(front, classify(front, (0.0, 0.0)))
        assert nc.generic
        assert abs(nc.value + math.sqrt(2.0)) < 1e-12

    @pytest.mark.parametrize("name,uv", [
        ("cuspidal_parabola", (0.0, 0.0)),
        ("standard_cuspidal_edge", (0.0, 0.5)),
    ])
    def test_non_generic_cases(self, name, uv):
        if name == "cuspidal_parabola":
            front = gallery(name, {"b": 0.0})
        else:
            front = gallery(name)
        nc = limiting_normal_curvature(front, classify(front, uv))
        assert not nc.generic
        assert abs(nc.value) < 1e-10

    def test_normal_curvature_needs_edge(self):
        front = gallery("standard_swallowtail")
        with pytest.raises(InapplicableError):
            limiting_normal_curvature(front, classify(front, (0.0, 0.0)))


class TestHalfSpaceSigns:
    @pytest.mark.parametrize("a", [1.0, -1.0])
    @pytest.mark.parametrize("b", [1.0, -1.0])
    def test_parabola_predicts_sampled_K(self, a, b):
        front = gallery("cuspidal_parabola", {"a": a, "b": b})
        p = classify(front, (0.0, 0.0))
        hs = half_space_signs(front, p, side=1)
        K = curvature(front, 0.0, 0.05).K
        assert hs.predicted_K_sign == int(math.copysign(1.0, K)), (
            f"a={a} b={b}: predicted {hs.predicted_K_sign}, sampled K={K}"
        )
        assert hs.predicted_K_sign == -int(a * b)
        assert hs.sgn_0 == int(math.copysign(1.0, p.kappa_nu))

    def test_parabola_probe_agrees(self):
        front = gallery("cuspidal_parabola")
        p = classify(front, (0.0, 0.0))
        for side in (1, -1):
            hs = half_space_signs(front, p, side)
            assert half_space_walk.probe_sign_delta(front, p, side, 1e-3) == hs.sgn_Delta

    def test_opposite_side_flips_prediction(self):
        front = gallery("cuspidal_parabola")
        p = classify(front, (0.0, 0.0))
        up = half_space_signs(front, p, side=1)
        down = half_space_signs(front, p, side=-1)
        K_up = curvature(front, 0.0, 0.05).K
        K_down = curvature(front, 0.0, -0.05).K
        assert up.predicted_K_sign == int(math.copysign(1.0, K_up))
        assert down.predicted_K_sign == int(math.copysign(1.0, K_down))

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_swallowtail_tail_side(self, sign):
        front = gallery("swallowtail_pm", {"sign": sign})
        p = classify(front, (0.0, 0.0))
        ts = tail_side(front, p)
        assert ts.lambda_sign == -1  # the tail sits below the singular axis
        hs = half_space_signs(front, p, side=1)
        assert hs.predicted_K_sign == int(sign)
        # sampled K on the tail side, at probes straddling the origin
        for (u, v) in [(0.0, -0.02), (0.05, -0.01), (-0.05, -0.01),
                       (0.08, -0.02), (-0.08, -0.015)]:
            lam = lambda_value(front, u, v)
            assert math.copysign(1.0, lam) == ts.lambda_sign
            K = curvature(front, u, v).K
            assert int(math.copysign(1.0, K)) == hs.predicted_K_sign, (
                f"sampled K={K} at ({u},{v}) against prediction"
            )

    def test_tail_side_reads_the_stored_sign(self, monkeypatch):
        front = gallery("standard_swallowtail")
        p = classify(front, (0.0, 0.0))
        calls = []
        real = Front.jets

        def spy(self, *args):
            calls.append(args)
            return real(self, *args)

        monkeypatch.setattr(Front, "jets", spy)
        assert tail_side(front, p).st_sign == p.swallowtail_sign == 1
        assert calls == []

    def test_standard_swallowtail_is_positive(self):
        front = gallery("standard_swallowtail")
        ts = tail_side(front, classify(front, (0.0, 0.0)))
        assert ts.st_sign == 1
        assert ts.alpha_plus == pytest.approx(2.0 * math.pi)

    def test_bad_side_value(self):
        front = gallery("cuspidal_parabola")
        with pytest.raises(ValueError, match="side"):
            half_space_signs(front, classify(front, (0.0, 0.0)), side=0)

    def test_flat_edge_inapplicable(self):
        front = gallery("standard_cuspidal_edge")
        with pytest.raises(InapplicableError, match="not generic"):
            half_space_signs(front, classify(front, (0.0, 0.3)), side=1)

    def test_degenerate_point_inapplicable(self):
        # the double swallowtail's two singular lines cross at the origin
        front = gallery("double_swallowtail")
        p = classify(front, (0.0, 0.0))
        assert p.kind is SingularClass.DEGENERATE
        with pytest.raises(InapplicableError, match="got Degenerate"):
            half_space_signs(front, p, side=1)

    def test_matches_walk_on_traced_swallowtails(self, traced):
        """The closed form at a swallowtail gives what the walk-and-vote
        of `half_space_walk` gives, on both sides of all 36 traced
        swallowtails; both refuse the 6 of kuen and the standard
        swallowtail, where the second form is flat."""
        flat = 0
        for front, p in traced:
            for side in (1, -1):
                try:
                    want = half_space_walk.swallowtail_signs(front, p, side)
                except InapplicableError:
                    with pytest.raises(InapplicableError, match="not generic"):
                        half_space_signs(front, p, side)
                    flat += 1
                    continue
                assert half_space_signs(front, p, side) == want, (front.label, p.uv, side)
        assert flat == 12

    def test_one_jet_call_at_a_swallowtail(self, monkeypatch):
        """sgn_0, the tail side and sgn_Delta come from one jet evaluation."""
        front = gallery("swallowtail_pm")
        p = classify(front, (0.0, 0.0))
        calls = []
        real = Front.jets

        def jets(self, *args):
            calls.append(args)
            return real(self, *args)

        monkeypatch.setattr(Front, "jets", jets)
        half_space_signs(front, p, side=1)
        assert len(calls) == 1

    def test_edge_sign_vanishes_at_swallowtails(self, traced):
        """The derivation behind the closed form: at a swallowtail the edge
        sign's Phi = -<Hess_f(eta, eta), d nu(eta)> vanishes, because
        Hess_f(eta, eta) lies in the image of df there.  A traced
        swallowtail sits where |det(T, eta)| <= 1e-10, and Phi vanishes to
        first order in that distance; it is measured against the sizes of
        Hess_f and d nu(eta), since Hess_f(eta, eta) itself vanishes at
        kuen's and the standard swallowtail's."""
        for front, p in traced:
            jf, jn = front.jets(*p.uv, 3, 2)
            dnu = np.array(jn.along(p.null_dir))
            phi = float(np.array(jf.along(p.null_dir, 2)) @ dnu)
            size = np.linalg.norm([jf.f_uu, jf.f_uv, jf.f_vv]) * np.linalg.norm(dnu)
            assert abs(phi) <= (1e-12 + abs(p.transversality)) * size, (front.label, p.uv, phi)

    @pytest.mark.parametrize("variant", TAIL_VARIANTS)
    @pytest.mark.parametrize("case", sorted(VARIANT_CASES))
    def test_swallowtail_changes_of_source_and_target(self, case, variant):
        """K is a function on the surface, and a rigid motion, a uniform
        scale (K scales by 1/c^2), a flipped normal and a chart change keep
        its sign, while the tail stays the same set of points: the
        predicted sign of K on either side of a swallowtail keeps.  Kuen's
        and the standard swallowtail's second form is flat at the
        swallowtail before and after."""
        front, points = _variant_points(case)
        changed, to_new, _ = tail_variant(front, variant)
        for p in points:
            q = classify(changed, to_new(p.uv))
            for side in (1, -1):
                if case in ("kuen", "standard_swallowtail"):
                    for f, x in ((front, p), (changed, q)):
                        with pytest.raises(InapplicableError, match="not generic"):
                            half_space_signs(f, x, side)
                    continue
                want = half_space_signs(front, p, side).predicted_K_sign
                got = half_space_signs(changed, q, side).predicted_K_sign
                assert got == want, (variant, p.uv, side)

    def test_undecided_swallowtail_raises(self, monkeypatch):
        front = gallery("swallowtail_pm")
        p = classify(front, (0.0, 0.0))
        monkeypatch.setattr(singular, "_null_turn", lambda *args: math.nan)
        with pytest.raises(FrontlabError, match=r"swallowtail \(0, 0\) is undecided"):
            half_space_signs(front, p, side=1)


class TestTailSide:
    """The closed-form tail side against the parameter-circle sweep of
    `tail_sweep`, which shares no step with it."""

    def test_matches_sweep_on_traced_swallowtails(self, traced):
        """Both routes give the same side, angle and sign on all 36 traced
        swallowtails, and `trace` stores that sign on each."""
        for front, p in traced:
            want = tail_sweep.tail_side(front, p)
            assert tail_side(front, p) == want, (front.label, p.uv)
            assert p.swallowtail_sign == want.st_sign, (front.label, p.uv)

    def test_classify_builds_the_traced_point(self, traced):
        """`classify` decides a swallowtail, its sign included, as `trace`
        did: both routes build equal points but for the curve's arclength."""
        for front, p in traced:
            q = classify(front, p.uv)
            assert q == dataclasses.replace(p, s=q.s), (front.label, p.uv)

    def test_acceleration_is_along_the_rank_direction(self, traced):
        """The derivation behind the closed form: at a swallowtail the
        image acceleration g2 is parallel to f_* grad lambda."""
        for front, p in traced:
            jf, jn = front.jets(*p.uv, 3, 2)
            blocks = _lambda_blocks(jf, jn, 2)
            with np.errstate(divide="ignore", invalid="ignore"):
                g2 = np.array(_curvatures(jf, jn, blocks)[4])
            x = np.array(jf.along(blocks[1:3]))
            cos = float(x @ g2) / (np.linalg.norm(x) * np.linalg.norm(g2))
            assert 1.0 - abs(cos) <= 1e-12, (front.label, p.uv, cos)

    @pytest.mark.parametrize("variant", TAIL_VARIANTS)
    @pytest.mark.parametrize("case", sorted(VARIANT_CASES))
    def test_changes_of_source_and_target(self, case, variant):
        """A rigid motion and a uniform scale of R^3 keep lambda's sign, so
        the tail keeps its lambda-sign and the swallowtail its sign; a
        flipped normal or a chart change that reverses orientation
        (u <-> v, u -> -u, (u, v) -> (2u, -v)) negates lambda, so both flip
        while the tail stays the same set of points.  The sweep agrees
        with the closed form on each variant."""
        front, points = _variant_points(case)
        changed, to_new, k = tail_variant(front, variant)
        for p in points:
            before = tail_side(front, p)
            q = classify(changed, to_new(p.uv))
            assert q.kind is SingularClass.SWALLOWTAIL, (variant, p.uv)
            after = tail_side(changed, q)
            assert after.lambda_sign == k * before.lambda_sign, (variant, p.uv)
            assert after.st_sign == k * before.st_sign, (variant, p.uv)
            assert q.swallowtail_sign == after.st_sign
            assert tail_sweep.tail_side(changed, q) == after, (variant, p.uv)

    def test_needs_a_swallowtail(self):
        front = gallery("cuspidal_parabola")
        with pytest.raises(InapplicableError, match="swallowtails only"):
            tail_side(front, classify(front, (0.0, 0.0)))

    def test_undecided_raises(self):
        """A point whose acceleration is orthogonal to f_* grad lambda has
        no tail side: here a cuspidal point of a cylinder over a cusp,
        relabelled as a swallowtail, where the acceleration vanishes."""
        front = gallery("standard_cuspidal_edge")
        p = dataclasses.replace(classify(front, (0.0, 0.2)), kind=SingularClass.SWALLOWTAIL)
        with pytest.raises(FrontlabError, match="undecided"):
            tail_side(front, p)


class TestSignMeaning:
    @pytest.mark.parametrize("a,expected", [(1.0, 1), (-1.0, -1)])
    def test_null_curve_agrees_with_kappa_s(self, a, expected):
        front = gallery("cuspidal_parabola", {"a": a})
        rec = sign_meaning_check(front, classify(front, (0.2, 0.0)))
        assert rec["consistent"]
        assert rec["kappa_s_side"] == expected

    def test_inconclusive_when_flat(self):
        front = gallery("standard_cuspidal_edge")
        with pytest.raises(InapplicableError, match="too small"):
            sign_meaning_check(front, classify(front, (0.0, 0.2)))

    def test_swallowtail_refused(self):
        front = gallery("standard_swallowtail")
        p = classify(front, (0.0, 0.0))
        assert p.kind is SingularClass.SWALLOWTAIL
        with pytest.raises(InapplicableError, match="needs a cuspidal edge"):
            sign_meaning_check(front, p)


class TestPeakArcCount:
    def test_counts(self):
        assert peak_arc_count(gallery("double_swallowtail"), (0.0, 0.0)) == 2
        assert peak_arc_count(gallery("standard_swallowtail"), (0.0, 0.0)) == 1
        assert peak_arc_count(gallery("cuspidal_parabola"), (0.0, 0.0)) == 1

    def test_regular_point_errors(self):
        with pytest.raises(FrontlabError, match="no singular arcs"):
            peak_arc_count(gallery("standard_swallowtail"), (0.5, 0.5))

    def test_lambda_identically_zero_errors(self):
        # f_v = 0: lambda = det(f_u, f_v, nu) is 0 at every point
        flat = Front(map=parse("(u, 0, 0)"), normal=parse("(0, 0, 1)"),
                     domain=Domain(-1.0, 1.0, -1.0, 1.0))
        with pytest.raises(FrontlabError, match="vanishes on the whole probe circle"):
            peak_arc_count(flat, (0.0, 0.0))

    @pytest.mark.parametrize("du,count", [(-0.03, 720), (-0.01, 481), (0.0, 361), (0.01, 241)])
    def test_nonfinite_lambda_named(self, du, count):
        # sqrt(u + 1) is NaN for u < -1 (and its derivative infinite at -1),
        # so part of the probe circle has no sign of lambda
        front = Front(map=parse("(u, v^2/2, v^3/3*sqrt(u + 1))"), normal=parse("(0, 0, 1)"),
                      domain=Domain(-1.0, 1.0, -1.0, 1.0))
        with pytest.raises(FrontlabError, match=f"not finite at {count} of the 720 points"):
            peak_arc_count(front, (-1.0 + du, 0.0))
        assert peak_arc_count(front, (-0.97, 0.0)) == 1


class TestNearCurveDivergence:
    """Mean curvature blows up beside the singular set; K can stay finite."""

    def test_mean_curvature_parabola(self):
        front = gallery("cuspidal_parabola")
        for u in (-0.8, 0.0, 0.6):
            H = curvature(front, u, 1e-4).H
            assert abs(H) >= 1e3, f"|H|={abs(H)} at (u,v)=({u},1e-4)"

    def test_mean_curvature_swallowtail(self):
        front = gallery("standard_swallowtail")
        for t in (0.3, 0.7):
            H = curvature(front, t, -6.0 * t * t + 1e-4).H
            assert abs(H) >= 1e3

    def test_kappa_s_diverges_at_swallowtail(self):
        front = gallery("standard_swallowtail")
        for t in (5e-5, -6e-5):
            p = classify(front, (t, -6.0 * t * t))
            assert p.kappa_s < -1e3, f"kappa_s={p.kappa_s} at t={t}"
            assert abs(p.kappa_s * abs(t) + 1.0 / 6.0) < 1e-3

    def test_bounded_K_with_negative_kappa_s(self):
        front = gallery("cuspidal_parabola", {"a": -1.0, "b": 0.0})
        for v in (1e-3, -1e-3, 0.1):
            sample = curvature(front, 0.2, v)
            assert sample.K > 0.0
            assert abs(sample.K) < 1e6
        assert classify(front, (0.2, 0.0)).kappa_s < 0.0


class TestExport:
    def test_csv_round_trip(self, parabola_curve):
        front, curves = parabola_curve
        text = curve_to_csv(front, curves[0])
        lines = text.strip().split("\n")
        assert lines[0] == ("u,v,s,class,lambda,lambda_u,lambda_v,"
                            "eta_u,eta_v,kappa_s,kappa_nu,density")
        assert len(lines) == len(curves[0].samples) + 1
        cells = lines[1].split(",")
        p = curves[0].samples[0]
        assert float(cells[0]) == p.uv[0]
        assert cells[3] == "CuspidalEdge"
        assert float(cells[9]) == p.kappa_s

    def test_json_deterministic(self, parabola_curve):
        front, curves = parabola_curve
        d1 = json.dumps(curve_to_dict(front, curves[0]), sort_keys=True)
        d2 = json.dumps(curve_to_dict(front, trace(front, grid=32)[0]),
                        sort_keys=True)
        assert d1 == d2
