"""Tests for curvature integrals, Euler accounting, and the boundary report."""

import dataclasses
import math

import gather_euler
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from frontlab import (
    Domain,
    Front,
    FrontlabError,
    InapplicableError,
    classify,
    degree_of_gauss_map,
    euler_characteristics,
    euler_report,
    gallery,
    gallery_names,
    integrate_K_dA,
    integrate_K_dAhat,
    integrate_kappa_s,
    lambda_value,
    parse,
    report_to_dict,
    swallowtail_signs,
    trace,
)
from frontlab import front as front_module
from frontlab import gaussbonnet, singular
from frontlab.front import det3
from frontlab.gaussbonnet import _branch, _cap_terms
from frontlab.singular import SingularClass, SingularCurve

FOUR_PI = 4.0 * math.pi

# edge-resolved column quadrature of sgn(lambda) det(nu_u, nu_v, nu) for
# ellipsoid_parallel d=1.6 (band edges bisected per column, Gauss on each
# segment, periodic trapezoid in u; stable to 10 digits from 128 columns)
ELL16_K_DA = 0.9604865962


def parabola_density(u):
    """kappa_s times image speed on the cuspidal parabola axis, a=b=1."""
    w = 1.0 + 4.0 * u * u
    return 2.0 / (w * np.sqrt(1.0 + w))


def midpoint_K_dAhat(front, m_u, m_v, rows=32):
    """Midpoint rule for det(nu_u, nu_v, nu) on an m_u x m_v grid, plus the
    polar caps: a cross-check of the Gauss-Legendre panels."""
    dom = front.domain
    du, dv = (dom.u1 - dom.u0) / m_u, (dom.v1 - dom.v0) / m_v
    us = dom.u0 + du * (np.arange(m_u) + 0.5)
    vs = dom.v0 + dv * (np.arange(m_v) + 0.5)
    total = 0.0
    for k in range(0, m_u, rows):
        uu, vv = np.meshgrid(us[k : k + rows], vs, indexing="ij")
        _, jn = front.jets(uu, vv, 0, 1)
        nu, nu_u, nu_v = (np.stack(np.broadcast_arrays(*b, uu)[:3], axis=-1)
                          for b in (jn.value, jn.f_u, jn.f_v))
        total += float(np.einsum("...i,...i", np.cross(nu_u, nu_v), nu).sum())
    return total * du * dv + sum(area for area, _ in _cap_terms(front))


def gauss_columns(integrand, u0, u1, cuts, n=64):
    """Gauss-Legendre in u of Gauss-Legendre columns in v, each column split
    at `cuts(u)` (its ends included), where the integrand has kinks."""
    x, w = np.polynomial.legendre.leggauss(n)

    def rule(a, b):
        return 0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w

    total = 0.0
    for u, wu in zip(*rule(u0, u1)):
        bounds = cuts(u)
        for a, b in zip(bounds[:-1], bounds[1:]):
            v, wv = rule(a, b)
            total += wu * float((wv * integrand(u, v)).sum())
    return total


def kuen_lambda(u, v):
    """lambda = det(f_u, f_v, nu) of the gallery Kuen surface, in closed form."""
    c = np.cosh(u)
    return 2.0 * v * c * (c * c - v * v) / (c * c + v * v) ** 2


def corner_disk():
    """Planar front whose lambda is exactly u^2 + v^2 - 1/400.

    The negative disk has radius 1/20 and touches only the chart corner,
    so a coarse vertex grid sees it in a single cell.
    """
    return Front(
        map=parse("(u^3/3 + (v^2 - 1/400)*u, v, 0)"),
        normal=parse("(0, 0, 1)"),
        domain=Domain(0.0, 1.0, 0.0, 1.0),
        label="corner disk",
    )


@pytest.fixture(scope="module")
def sphere():
    return gallery("sphere")


@pytest.fixture(scope="module")
def pseudosphere():
    return gallery("pseudosphere")


@pytest.fixture(scope="module")
def pseudo_report(pseudosphere):
    return euler_report(pseudosphere)


@pytest.fixture(scope="module")
def ell16():
    return gallery("ellipsoid_parallel", {"d": 1.6})


@pytest.fixture(scope="module")
def ell16_report(ell16):
    return euler_report(ell16, trace(ell16, grid=64), grid=256, panels=512)


@pytest.fixture(scope="module")
def ell20():
    return gallery("ellipsoid_parallel", {"d": 2.0})


@pytest.fixture(scope="module")
def ell20_curves(ell20):
    return trace(ell20, grid=96)


@pytest.fixture(scope="module")
def ell20_report(ell20, ell20_curves):
    return euler_report(ell20, ell20_curves)


def flat_panel_sums(front, grid, nodes):
    """`gaussbonnet._panel_sums` node by node: the oracle of its column
    layout.  Its own panel grid, one row (u0, v0, du, dv) per panel, u
    index major, in chunks of `_CHUNK` nodes; each node a point of one flat
    array, and each panel's sum over its (nodes, nodes) block."""
    dom = front.domain
    n_u, n_v = gaussbonnet._panel_counts(dom, grid)
    du, dv = (dom.u1 - dom.u0) / n_u, (dom.v1 - dom.v0) / n_v
    batch = np.array(
        [(dom.u0 + i * du, dom.v0 + j * dv, du, dv) for i in range(n_u) for j in range(n_v)]
    )
    x, w = gaussbonnet._gl_rule(nodes)
    step = max(1, gaussbonnet._CHUNK // (nodes * nodes))
    plain, signed = [], []
    for k in range(0, len(batch), step):
        panels = batch[k : k + step]
        u = panels[:, 0, None] + panels[:, 2, None] * x[None, :]
        v = panels[:, 1, None] + panels[:, 3, None] * x[None, :]
        U = np.repeat(u[:, :, None], nodes, axis=2).ravel()
        V = np.repeat(v[:, None, :], nodes, axis=1).ravel()
        W = (w[None, :, None] * w[None, None, :]) * (
            panels[:, 2] * panels[:, 3]
        )[:, None, None]
        jf, jn = front.jets(U, V, 1, 1)
        det = det3(jn.f_u, jn.f_v, jn.value).reshape(W.shape)
        lam = det3(jf.f_u, jf.f_v, jn.value).reshape(W.shape)
        plain.extend((det * W).sum(axis=(1, 2)).tolist())
        signed.extend((np.sign(lam) * det * W).sum(axis=(1, 2)).tolist())
    caps = _cap_terms(front)
    return (
        math.fsum(plain + [area for (area, _) in caps]),
        math.fsum(signed + [s * area for (area, s) in caps]),
    )


class TestSmoothFormIntegral:
    """Integral of K against the smooth density det(nu_u, nu_v, nu)."""

    # 2 to 5 panel columns per chunk, and at 300 panels and more the cone's
    # columns, of 33 to 85 panels, each hold more than `_CHUNK` nodes
    @pytest.mark.parametrize("nodes,grid", [(8, 256), (16, 256), (16, 300), (16, 512), (16, 2048)])
    @pytest.mark.parametrize(
        "name", ["sphere", "ellipsoid", "ellipsoid_parallel", "pseudosphere", "cone"]
    )
    def test_tensor_nodes_match_flat_nodes(self, monkeypatch, name, nodes, grid):
        # compact (capped) and complete (ended) gallery fronts, bit for bit
        front = gallery(name)
        default = nodes == gaussbonnet._PANEL_NODES
        monkeypatch.setattr(gaussbonnet, "_PANEL_NODES", nodes)
        got = gaussbonnet._panel_sums(front, grid)
        want = flat_panel_sums(front, grid, nodes)
        assert [x.hex() for x in got] == [x.hex() for x in want]
        if default:
            assert integrate_K_dAhat(front, grid).hex() == want[0].hex()

    def test_gauss_rule_built_once_per_order(self, monkeypatch, sphere):
        leggauss = np.polynomial.legendre.leggauss
        builds = []

        def counting(n):
            builds.append(n)
            return leggauss(n)

        monkeypatch.setattr(np.polynomial.legendre, "leggauss", counting)
        gaussbonnet._gl_rule.cache_clear()
        first = integrate_K_dAhat(sphere, grid=64)
        assert integrate_K_dAhat(sphere, grid=64) == first
        # 16 panel nodes per axis, 8 line nodes on the polar-cap rings
        assert sorted(builds) == [gaussbonnet._LINE_NODES, 16]
        for arr in gaussbonnet._gl_rule(16):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.5

    def test_sphere_total_area(self, sphere):
        # both polar caps are line integrals exact to rounding
        val = integrate_K_dAhat(sphere, grid=512)
        assert abs(val - FOUR_PI) < 1e-13, f"sphere smooth integral {val}"

    def test_midpoint_rule_agrees(self, sphere):
        gl = integrate_K_dAhat(sphere, grid=512)
        mid = midpoint_K_dAhat(sphere, 512, 256)
        assert abs(gl - mid) < 1e-4, f"rules disagree: gl {gl} midpoint {mid}"

    def test_pseudosphere_cancels(self, pseudosphere):
        val = integrate_K_dAhat(pseudosphere, grid=512)
        assert abs(val) < 1e-12, f"signed areas should cancel, got {val}"

    def test_parallel_surfaces_share_value(self, ell16, ell20):
        a = integrate_K_dAhat(ell16, grid=512)
        b = integrate_K_dAhat(ell20, grid=512)
        assert a == b, f"parallel surfaces share the normal map: {a} != {b}"
        assert abs(a - FOUR_PI) < 1e-6

    def test_cylindrical_swallowtail_vanishes(self):
        front = gallery("standard_swallowtail")
        assert integrate_K_dAhat(front, grid=64) == 0.0
        assert midpoint_K_dAhat(front, 128, 128) == 0.0

    def test_cap_closure_needs_periodic_chart(self):
        assert _cap_terms(gallery("cuspidal_parabola")) == ()
        capped = dataclasses.replace(
            gallery("cuspidal_parabola"), metadata={"caps": 2}
        )
        with pytest.raises(FrontlabError, match="periodic"):
            _cap_terms(capped)


class TestUnsignedIntegral:
    """int K dAhat less twice the Gauss-image area of {lambda < 0}."""

    def test_sphere_matches_smooth_form(self, sphere):
        val = integrate_K_dA(sphere, grid=512)
        assert abs(val - FOUR_PI) < 1e-9, f"no singular set, got {val}"

    def test_pseudosphere_closed_form(self, pseudosphere):
        oracle = -FOUR_PI * (1.0 - 1.0 / math.cosh(20.0))
        val = integrate_K_dA(pseudosphere, grid=512)
        assert abs(val - oracle) < 1e-13, f"{val} vs oracle {oracle}"

    def test_parallel_band_oracle(self, ell16):
        val = integrate_K_dA(ell16, grid=512)
        assert abs(val - ELL16_K_DA) < 5e-10, (
            f"value {val} vs column oracle {ELL16_K_DA}"
        )

    def test_parabola_column_oracle(self):
        # K |lambda| = -12 (2 + 3v) sgn(v) / delta^3, kinked on v = 0
        def integrand(u, v):
            delta = np.sqrt(4.0 + (1.0 + 4.0 * u * u) * (2.0 + 3.0 * v) ** 2)
            return -12.0 * (2.0 + 3.0 * v) * np.sign(v) / delta**3

        oracle = gauss_columns(integrand, -1.5, 1.5, lambda u: (-1.5, 0.0, 1.5))
        val = integrate_K_dA(gallery("cuspidal_parabola"))
        assert abs(val - oracle) < 1e-10, f"{val} vs column oracle {oracle}"

    def test_kuen_column_oracle(self):
        # K = -1, so K dA = -|lambda| du dv, kinked on v = 0 and v = +-cosh u;
        # the two open curves v = +-cosh u end obliquely on the edges u = +-2
        front = gallery("kuen")
        u, v = np.array([-1.3, 0.2, 1.7]), np.array([-2.5, 0.4, 3.1])
        assert np.allclose(kuen_lambda(u, v), lambda_value(front, u, v), atol=1e-14)

        def cuts(u):
            c = math.cosh(u)
            return (-4.0, -c, 0.0, c, 4.0)

        oracle = gauss_columns(lambda u, v: -np.abs(kuen_lambda(u, v)), -2.0, 2.0, cuts)
        val = integrate_K_dA(front)
        assert abs(val - oracle) < 1e-8, f"{val} vs column oracle {oracle}"

    def test_degenerate_point_refused(self):
        # the two traced rays cross at the origin, where grad lambda = 0
        with pytest.raises(InapplicableError, match="degenerate"):
            integrate_K_dA(gallery("double_swallowtail"))

    def test_ambiguous_branch_refused(self):
        assert _branch(0.25, 0.25 + FOUR_PI + 0.5) == 0.25 + FOUR_PI
        with pytest.raises(FrontlabError, match="ambiguous branch"):
            _branch(0.0, 2.0 * math.pi)

    def test_traces_once(self, monkeypatch, pseudosphere):
        calls = []
        real = gaussbonnet.trace

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(gaussbonnet, "trace", counted)
        integrate_K_dA(pseudosphere, grid=128)
        assert len(calls) == 1
        euler_report(pseudosphere, real(pseudosphere, grid=32), panels=128)
        assert len(calls) == 1, "euler_report retraced the curves it was given"

    def test_one_line_rule_pass(self, monkeypatch, ell16, pseudosphere):
        # A- is integrated once, at the nodes whose value is returned; a
        # report reads int kappa_s ds off the same pass at (3, 2), so its
        # curve nodes are projected once (the caps' rings project nothing)
        calls = []
        real_rule, real_project, real_minus = (
            gaussbonnet._line_rule, gaussbonnet._project, gaussbonnet._minus_area)

        def line_rule(front, A, D, on_curve, orders=(2, 1)):
            if on_curve.any():
                calls.append(("_line_rule", orders))
            return real_rule(front, A, D, on_curve, orders)

        monkeypatch.setattr(gaussbonnet, "_line_rule", line_rule)
        monkeypatch.setattr(gaussbonnet, "_project",
                            lambda *a: calls.append("_project") or real_project(*a))
        monkeypatch.setattr(gaussbonnet, "_minus_area",
                            lambda *a: calls.append("_minus_area") or real_minus(*a))
        integrate_K_dA(ell16, grid=512)
        assert calls == ["_minus_area", ("_line_rule", (2, 1)), "_project"]
        for front in (pseudosphere, ell16):
            calls.clear()
            rep = euler_report(front)
            assert calls == ["_minus_area", ("_line_rule", (3, 2)), "_project"]
            assert rep.applicable and "K_dA_unresolved" not in rep.provenance


class TestSingularCurveIntegral:
    """Line integral of the singular-curvature measure."""

    def test_curves_of_another_front_refused(self):
        # the curves of d=1.6 lie off the singular set of d=2, and the line
        # rule's projection of their nodes onto it does not converge there
        other = trace(gallery("ellipsoid_parallel", {"d": 1.6}), grid=48)
        with pytest.raises(FrontlabError, match=r"lost the singular curve .* \(4\.67621, 4\.6938\)"):
            integrate_kappa_s(gallery("ellipsoid_parallel", {"d": 2.0}), other)

    def test_parabola_closed_form(self):
        front = gallery("cuspidal_parabola")
        val = integrate_kappa_s(front, trace(front, grid=32))
        x, w = np.polynomial.legendre.leggauss(64)
        oracle = 1.5 * float((parabola_density(1.5 * x) * w).sum())
        assert abs(val - oracle) < 1e-10, f"{val} vs oracle {oracle}"

    def test_ellipsoid_band_grid_independent(self, ell16):
        # panels follow the curved chart curves exactly, so the trace grid
        # only places the panel ends
        coarse = integrate_kappa_s(ell16, trace(ell16, grid=32))
        fine = integrate_kappa_s(ell16, trace(ell16, grid=96))
        assert abs(coarse - fine) < 1e-9, f"grid 32 {coarse} vs grid 96 {fine}"

    def test_straight_edge_carries_none(self):
        front = gallery("standard_cuspidal_edge")
        assert integrate_kappa_s(front, trace(front, grid=24)) == 0.0

    def test_pseudosphere_circle(self, pseudosphere):
        val = integrate_kappa_s(pseudosphere, trace(pseudosphere, grid=32))
        assert abs(val - 2.0 * math.pi) < 1e-9, f"waist circle gives {val}"

    def test_degenerate_samples_refused(self):
        front = gallery("double_swallowtail")
        bad = SingularCurve(
            samples=(classify(front, (0.0, 0.0)),), closed=False, peaks=()
        )
        with pytest.raises(InapplicableError, match="degenerate"):
            integrate_kappa_s(front, [bad])

    def test_curves_without_cuspidal_edges_refused(self):
        cone = gallery("cone")
        with pytest.raises(InapplicableError, match="no cuspidal edges"):
            integrate_kappa_s(cone, trace(cone, grid=32))

    def test_no_curves_is_zero(self, sphere):
        assert integrate_kappa_s(sphere, ()) == 0.0

    def test_report_reads_the_same_sum(self):
        # euler_report's kappa_s rows are integrate_kappa_s's panels, with
        # the same bits at every step of the shared pass
        fronts = [(name, None) for name in gallery_names()]
        fronts += [("ellipsoid_parallel", {"d": d}) for d in (1.3, 1.6, 2.0)]
        applicable = []
        for name, params in fronts:
            front = gallery(name, params)
            curves = trace(front, grid=96)
            try:
                rep = euler_report(front, curves, panels=512)
            except InapplicableError:
                continue  # a chart piece: no global identity
            if rep.applicable:
                applicable.append(name)
                want = integrate_kappa_s(front, curves)
                assert np.float64(rep.int_kappa_s_ds).tobytes() == np.float64(want).tobytes()
        assert applicable == ["ellipsoid", "ellipsoid_parallel", "pseudosphere", "sphere",
                              *["ellipsoid_parallel"] * 3]

    @pytest.mark.parametrize("name", ["cuspidal_parabola", "pseudosphere"])
    def test_gauss_nodes_evaluated_once(self, monkeypatch, name):
        # after the Newton projection, one jet run at the nodes serves the
        # line rule's lambda and tangents and the curvature density
        front = gallery(name)
        curves = trace(front, grid=32)
        panels = len(gaussbonnet._curve_panels(front.domain, curves)[0])
        events = []
        real_jet, real_project = front_module.eval_jet, gaussbonnet._project

        def eval_jet(e, u, v, order):
            events.append((np.shape(u), order))
            return real_jet(e, u, v, order)

        def project(*args):
            mu = real_project(*args)
            events.append("projected")
            return mu

        monkeypatch.setattr(front_module, "eval_jet", eval_jet)
        monkeypatch.setattr(gaussbonnet, "_project", project)
        integrate_kappa_s(front, curves)
        after = events[len(events) - events[::-1].index("projected"):]
        assert after == [((panels, gaussbonnet._LINE_NODES), ((3, 3), (3, 2)))]


class TestEulerCharacteristics:
    """Region Euler numbers from the lambda sign grid."""

    def test_sphere_all_positive(self, sphere):
        assert euler_characteristics(sphere, grid=64) == (2, 2, 0)

    def test_double_swallowtail_wedges(self):
        front = gallery("double_swallowtail")
        assert euler_characteristics(front, grid=8) == (1, 2, 1)

    def test_corner_disk_resolved(self):
        assert euler_characteristics(corner_disk(), grid=101) == (2, 1, 1)

    def test_corner_disk_coarse_grid_rejected(self):
        with pytest.raises(FrontlabError, match="grid too coarse"):
            euler_characteristics(corner_disk(), grid=11)


@st.composite
def sign_grids(draw):
    """Node signs in {-1, 0, +1}, sides 2 to 12: uniform, or one sign with
    up to three exceptions, so that a region may touch only 1 or 2 cells."""
    nu, nv = draw(st.integers(2, 12)), draw(st.integers(2, 12))
    values = st.sampled_from((-1.0, 0.0, 1.0))
    if draw(st.booleans()):
        signs = draw(st.lists(values, min_size=nu * nv, max_size=nu * nv))
        return np.array(signs).reshape(nu, nv)
    S = np.full((nu, nv), draw(values))
    for _ in range(draw(st.integers(0, 3))):
        S[draw(st.integers(0, nu - 1)), draw(st.integers(0, nv - 1))] = draw(values)
    return S


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(S=sign_grids(), periodic_u=st.booleans(), periodic_v=st.booleans(),
       caps=st.booleans())
@example(S=np.array([[-1.0, 1.0, 1.0]] + [[1.0] * 3] * 2),
         periodic_u=False, periodic_v=False, caps=False)
@example(S=np.array([[1.0, 0.0], [-1.0, 1.0]]),
         periodic_u=True, periodic_v=True, caps=True)
def test_sign_chis_match_gathers(S, periodic_u, periodic_v, caps):
    """The slice count equals the index-gather count, refusals included."""
    args = (S, periodic_u, periodic_v, caps)
    try:
        want = gather_euler.sign_chis(*args)
    except FrontlabError as err:
        with pytest.raises(FrontlabError) as got:
            gaussbonnet._sign_chis(*args)
        assert str(got.value) == str(err)
    else:
        got = gaussbonnet._sign_chis(*args)
        assert got == want and [type(c) for c in got] == [int, int]


class TestDegree:
    """Normal-map degree from the smooth curvature integral."""

    def test_sphere(self, sphere):
        assert degree_of_gauss_map(sphere, grid=512) == 1

    def test_noncompact_rejected(self, pseudosphere):
        with pytest.raises(InapplicableError):
            degree_of_gauss_map(pseudosphere)

    def test_total_far_from_a_multiple_of_4pi_refused(self):
        assert gaussbonnet._degree_from_total(4.0 * math.pi * -1.04) == -1
        with pytest.raises(FrontlabError, match="= 1.500000 is not within 0.05 of an integer"):
            gaussbonnet._degree_from_total(4.0 * math.pi * 1.5)


class TestSwallowtailBookkeeping:
    """Signed apex counts from the signs stored on the points."""

    def test_stored_signs_used(self, ell20, ell20_curves):
        points = [
            s
            for c in ell20_curves
            for s in c.samples
            if s.kind.name == "SWALLOWTAIL"
        ]
        assert len(points) == 4
        assert swallowtail_signs(ell20, points) == (4, 0)

    def test_stripped_sign_refused(self, ell20, ell20_curves):
        # no jet recomputes a sign the point does not carry
        stripped = [
            dataclasses.replace(s, swallowtail_sign=None)
            for c in ell20_curves
            for s in c.samples
            if s.kind.name == "SWALLOWTAIL"
        ]
        with pytest.raises(FrontlabError, match="undecided"):
            swallowtail_signs(ell20, stripped)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_adapted_apex_is_positive(self, sign):
        front = gallery("swallowtail_pm", {"sign": sign})
        points = [
            s
            for c in trace(front, grid=24)
            for s in c.samples
            if s.kind.name == "SWALLOWTAIL"
        ]
        assert len(points) == 1
        assert points[0].swallowtail_sign == 1, (
            f"tail of f{sign:+.0f} sits on the negative side"
        )

    def test_kuen_waist_pair(self):
        front = gallery("kuen")
        signs = {
            (round(float(s.uv[0]), 6), round(float(s.uv[1]), 6)): s.swallowtail_sign
            for c in trace(front, grid=48)
            for s in c.samples
            if s.kind.name == "SWALLOWTAIL"
        }
        assert signs == {(0.0, -1.0): -1, (0.0, 1.0): 1}, f"got {signs}"


class TestEulerReport:
    """Both boundary identities assembled per front."""

    def test_pseudosphere_accounting(self, pseudo_report):
        rep = pseudo_report
        assert rep.applicable
        assert (rep.chi_M, rep.chi_Mplus, rep.chi_Mminus) == (0, 0, 0)
        assert rep.ends == (("x->-inf", 0.0, 1), ("x->+inf", 0.0, -1))
        assert rep.deg_nu is None and rep.llr is None
        assert abs(rep.int_kappa_s_ds - 2.0 * math.pi) < 1e-9
        floor = FOUR_PI / math.cosh(20.0)
        assert abs(rep.residual_unsigned - floor) < 1e-12, (
            f"unsigned residual {rep.residual_unsigned} vs chart floor {floor}"
        )
        assert abs(rep.residual_signed) < 1e-12

    def test_pseudosphere_floor_is_setting_independent(self, pseudosphere):
        floor = FOUR_PI / math.cosh(20.0)
        for tg, pn, cg in ((32, 128, 128), (64, 512, 256)):
            rep = euler_report(pseudosphere, trace(pseudosphere, grid=tg), grid=cg, panels=pn)
            assert abs(rep.residual_unsigned - floor) < 1e-12, (
                f"trace {tg} panels {pn}: {rep.residual_unsigned}"
            )

    def test_residual_closes_at_both_grids(self, ell16, ell16_report):
        coarse = euler_report(ell16, trace(ell16, grid=32), grid=128, panels=128)
        for rep in (coarse, ell16_report):
            assert abs(rep.residual_unsigned) < 1e-8, (
                f"panels {rep.provenance['panels']}: {rep.residual_unsigned}"
            )

    def test_curves_across_the_seam_close_the_identity(self):
        # d=1.3 has swallowtails on curves that cross the periodic u-seam;
        # their bisection must take the short way across it
        front = gallery("ellipsoid_parallel", {"d": 1.3})
        dom = front.domain
        curves = trace(front, grid=96)
        cell = min(dom.u1 - dom.u0, dom.v1 - dom.v0) / 96
        for c in curves:
            P = np.array([p.uv for p in c.samples])
            gaps = singular._wrapped_delta(dom, np.roll(P, -1, axis=0), P)
            assert np.hypot(gaps[:, 0], gaps[:, 1]).max() <= 2.0 * cell
        rep = euler_report(front, curves=curves)
        assert rep.applicable
        assert abs(rep.residual_unsigned) < 1e-8

    def test_parallel_band_report(self, ell16_report):
        rep = ell16_report
        assert (rep.chi_M, rep.chi_Mplus, rep.chi_Mminus) == (2, 2, 0)
        assert rep.deg_nu == 1
        assert (rep.S_plus, rep.S_minus) == (0, 0)
        assert rep.alpha_terms == 0.0
        assert abs(rep.int_K_dA - ELL16_K_DA) < 5e-6
        assert abs(rep.residual_unsigned) < 1e-4
        assert abs(rep.residual_signed) < 1e-8
        assert rep.llr == {
            "a_f": 2,
            "q_f": 0,
            "deg_nu": 1,
            "genus": 0,
            "k_f": 0,
            "lhs": 2.0,
            "rhs": 2,
            "satisfied": True,
        }

    def test_swallowtail_band_report(self, ell20_report):
        rep = ell20_report
        assert (rep.chi_M, rep.chi_Mplus, rep.chi_Mminus) == (2, 0, 2)
        assert (rep.S_plus, rep.S_minus) == (4, 0)
        assert rep.deg_nu == 1
        assert 2 * rep.deg_nu == (
            rep.chi_Mplus - rep.chi_Mminus + rep.S_plus - rep.S_minus
        )
        assert rep.alpha_terms == 8.0 * math.pi
        assert abs(rep.residual_signed) < 1e-8
        assert abs(rep.residual_unsigned) < 1e-8
        assert rep.llr["lhs"] == 4.0 and rep.llr["rhs"] == 2
        assert rep.llr["satisfied"]

    @pytest.mark.parametrize("d", [0.5, 0.9, 1.8, 2.2, 3.0])
    def test_parallel_family_closes(self, d):
        # no singular set (0.5, 3.0), two cuspidal-edge circles (0.9, 1.8),
        # swallowtails (2.2): the unsigned identity closes on each
        rep = euler_report(gallery("ellipsoid_parallel", {"d": d}), panels=512)
        assert rep.applicable
        assert abs(rep.residual_unsigned) < 1e-8, f"d={d}: {rep.residual_unsigned}"
        assert abs(rep.residual_signed) < 1e-8, f"d={d}: {rep.residual_signed}"

    def test_cone_reported_inapplicable(self):
        rep = euler_report(gallery("cone"))
        assert not rep.applicable
        assert "no cuspidal edges" in rep.reason
        assert "cone angle 4.442882938158366" in rep.reason
        assert math.isnan(rep.residual_unsigned)
        assert (rep.S_plus, rep.S_minus) == (0, 0)
        a = 1.0 / math.sqrt(2.0)
        assert rep.ends[0][0] == "r->0" and rep.ends[1][0] == "r->inf"
        assert rep.ends[0][2] == 1 and rep.ends[1][2] == -1
        for end in rep.ends:
            assert abs(end[1] - a) < 1e-12

    def test_open_curve_off_edge_refused(self, pseudosphere):
        # the waist circle, re-marked open, would end inside the chart
        curves = [
            dataclasses.replace(c, closed=False) for c in trace(pseudosphere, grid=32)
        ]
        with pytest.raises(FrontlabError, match="gap"):
            euler_report(pseudosphere, curves)

    def test_degenerate_report_inapplicable(self, pseudosphere):
        (curve,) = trace(pseudosphere, grid=32)
        marked = dataclasses.replace(curve.samples[5], kind=SingularClass.DEGENERATE)
        bad = dataclasses.replace(
            curve, samples=curve.samples[:5] + (marked,) + curve.samples[6:]
        )
        rep = euler_report(pseudosphere, [bad], panels=128)
        assert not rep.applicable and "degenerate" in rep.reason
        assert math.isnan(rep.int_K_dA)
        assert abs(rep.int_K_dAhat) < 1e-12

    def test_curve_doubling_back_refused(self, pseudosphere):
        # along the waist and back: grad lambda . N changes sign between the
        # samples of one curve, which only a zero of grad lambda allows
        (waist,) = trace(pseudosphere, grid=32)
        back = dataclasses.replace(
            waist, samples=waist.samples + waist.samples[-2:0:-1], closed=True
        )
        with pytest.raises(InapplicableError, match="grad lambda vanishes between"):
            euler_report(pseudosphere, [back], panels=128)

    def test_plain_chart_rejected(self):
        with pytest.raises(InapplicableError):
            euler_report(gallery("cuspidal_parabola"))

    def test_end_signs_read_the_chi_grid(self, monkeypatch, pseudosphere):
        # every lambda evaluation is a block of rows of the chi grid
        calls = []
        real = gaussbonnet.lambda_value

        def spy(front, u, v):
            calls.append((u, v))
            return real(front, u, v)

        monkeypatch.setattr(gaussbonnet, "lambda_value", spy)
        rep = euler_report(pseudosphere, grid=128)
        uu, vv = pseudosphere.domain.grid(128)
        assert [np.shape(v) for _, v in calls] == [(1, 128)] * len(calls)
        assert all(np.array_equal(v, vv[:1]) for _, v in calls)
        assert np.array_equal(np.concatenate([u for u, _ in calls]), uu[:, :1])
        assert [eps for (_, _, eps) in rep.ends] == [1, -1]

    @pytest.mark.parametrize("case", ["applicable", "cone", "degenerate"])
    def test_one_panel_pass_and_one_report(self, monkeypatch, pseudosphere, case):
        counts = {"sums": 0, "reports": 0}

        def counting(name, key):
            real = getattr(gaussbonnet, name)

            def spy(*args, **kwargs):
                counts[key] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(gaussbonnet, name, spy)

        counting("_panel_sums", "sums")
        counting("GaussBonnetReport", "reports")
        front, curves = pseudosphere, trace(pseudosphere, grid=32)
        if case == "cone":
            front, curves = gallery("cone"), None
        elif case == "degenerate":
            marked = dataclasses.replace(curves[0].samples[5], kind=SingularClass.DEGENERATE)
            samples = curves[0].samples
            curves = [dataclasses.replace(
                curves[0], samples=samples[:5] + (marked,) + samples[6:])]
        rep = euler_report(front, curves, panels=512)
        assert rep.applicable == (case == "applicable")
        assert counts == {"sums": 1, "reports": 1}

    def test_report_dictionary_deterministic(self, pseudosphere, pseudo_report):
        again = euler_report(pseudosphere)
        assert repr(report_to_dict(again)) == repr(report_to_dict(pseudo_report))
        as_dict = report_to_dict(pseudo_report)
        assert isinstance(as_dict["ends"][0], list)
        assert "panels" in as_dict["provenance"]
