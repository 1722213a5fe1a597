"""Tests for curvature integrals, Euler accounting, and the boundary report."""

import dataclasses
import math

import numpy as np
import pytest

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
    integrate_K_dA,
    integrate_K_dAhat,
    integrate_kappa_s,
    parse,
    report_to_dict,
    swallowtail_signs,
    trace,
)
from frontlab.gaussbonnet import _CHUNK, _cap_terms, _negative_fraction
from frontlab.singular import SingularCurve

FOUR_PI = 4.0 * math.pi

# edge-resolved column quadrature of sgn(lambda) det(nu_u, nu_v, nu) for
# ellipsoid_parallel d=1.6 (band edges bisected per column, Gauss on each
# segment, periodic trapezoid in u; stable to 10 digits from 128 columns)
ELL16_K_DA = 0.9604865962


def parabola_density(u):
    """kappa_s times image speed on the cuspidal parabola axis, a=b=1."""
    w = 1.0 + 4.0 * u * u
    return 2.0 / (w * np.sqrt(1.0 + w))


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
    return euler_report(ell16, grid=256, panels=512, trace_grid=64)


@pytest.fixture(scope="module")
def ell20():
    return gallery("ellipsoid_parallel", {"d": 2.0})


@pytest.fixture(scope="module")
def ell20_curves(ell20):
    return trace(ell20, grid=96)


@pytest.fixture(scope="module")
def ell20_report(ell20, ell20_curves):
    return euler_report(ell20, ell20_curves)


class TestSmoothFormIntegral:
    """Integral of K against the smooth density det(nu_u, nu_v, nu)."""

    def test_sphere_total_area(self, sphere):
        val = integrate_K_dAhat(sphere, grid=512)
        assert abs(val - FOUR_PI) < 1e-6, f"sphere smooth integral {val}"
        assert abs(val - FOUR_PI) < 1e-9

    def test_midpoint_rule_agrees(self, sphere):
        gl = integrate_K_dAhat(sphere, grid=512)
        mid = integrate_K_dAhat(sphere, grid=512, rule="midpoint")
        assert abs(gl - mid) < 1e-4, f"rules disagree: gl {gl} midpoint {mid}"

    def test_unknown_rule_rejected(self, sphere):
        with pytest.raises(ValueError):
            integrate_K_dAhat(sphere, rule="simpson")

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
        assert integrate_K_dAhat(front, grid=64, rule="midpoint") == 0.0

    def test_cap_closure_needs_periodic_chart(self):
        assert _cap_terms(gallery("cuspidal_parabola")) == ()
        capped = dataclasses.replace(
            gallery("cuspidal_parabola"), metadata={"caps": 2}
        )
        with pytest.raises(FrontlabError, match="periodic"):
            _cap_terms(capped)


class TestUnsignedIntegral:
    """sgn(lambda)-weighted quadrature with refinement at the curve."""

    def test_sphere_matches_smooth_form(self, sphere):
        val = integrate_K_dA(sphere, grid=512)
        assert abs(val - FOUR_PI) < 1e-9, f"no singular set, got {val}"

    def test_pseudosphere_closed_form(self, pseudosphere):
        oracle = -FOUR_PI * (1.0 - 1.0 / math.cosh(20.0))
        val = integrate_K_dA(pseudosphere, grid=512)
        assert abs(val - oracle) < 1e-9, f"{val} vs oracle {oracle}"

    def test_parallel_band_oracle(self, ell16):
        val = integrate_K_dA(ell16, grid=512)
        assert abs(val - ELL16_K_DA) < 5e-6, (
            f"refined value {val} vs column oracle {ELL16_K_DA}"
        )

    def test_unresolved_tolerance_refused(self, ell16):
        with pytest.raises(FrontlabError, match="tolerance not met"):
            integrate_K_dA(ell16, grid=128, max_depth=2, abs_tol=1e-6)

    @pytest.mark.parametrize(
        "lam0, lu, lv, expect, tol",
        [
            (0.0, 1.0, 0.0, 0.5, 1e-15),  # straight cut through the middle
            (0.0, 1.0, 1.0, 0.5, 1e-15),  # diagonal cut, symmetric halves
            (0.5, 1.0, 1.0, 0.125, 1e-4),  # corner triangle with legs 1/2
            (1.0, 0.3, 0.2, 0.0, 1e-15),  # zero line misses the panel
            (-1.0, 0.3, 0.2, 1.0, 1e-15),
            (-1.0, 0.0, 0.0, 1.0, 1e-15),  # degenerate gradient, sign only
        ],
    )
    def test_halfplane_fractions(self, lam0, lu, lv, expect, tol):
        frac = _negative_fraction(
            np.array([lam0]), np.array([lu]), np.array([lv]),
            np.array([1.0]), np.array([1.0]),
        )
        assert abs(frac[0] - expect) < tol, (
            f"fraction {frac[0]} for linear ({lam0}, {lu}, {lv})"
        )

    def test_blocked_fractions_equal_one_pass(self):
        # the whole (leaves, slices) computation in one pass, as reference
        def one_pass(lam0, lu, lv, wu, wv, slices=256):
            swap = np.abs(lu) * wu < np.abs(lv) * wv
            a = np.where(swap, lv, lu)
            b = np.where(swap, lu, lv)
            wa = np.where(swap, wv, wu)
            wb = np.where(swap, wu, wv)
            t = (np.arange(slices) + 0.5) / slices - 0.5
            ell = lam0[:, None] + b[:, None] * (wb[:, None] * t[None, :])
            with np.errstate(divide="ignore", invalid="ignore"):
                cut = 0.5 - ell / (a[:, None] * wa[:, None])
            frac = np.clip(cut, 0.0, 1.0)
            frac = np.where(a[:, None] > 0.0, frac, 1.0 - frac)
            frac = np.where((a == 0.0)[:, None], (ell < 0.0).astype(float), frac)
            return frac.mean(axis=1)

        n = 3 * (_CHUNK // 256) + 17
        rng = np.random.default_rng(7)
        lam0, lu, lv = rng.standard_normal((3, n)) * 0.1
        lu[::9] = lv[::9] = 0.0
        wu, wv = rng.uniform(0.01, 0.2, (2, n))
        got = _negative_fraction(lam0, lu, lv, wu, wv)
        assert got.tobytes() == one_pass(lam0, lu, lv, wu, wv).tobytes()


class TestSingularCurveIntegral:
    """Line integral of the singular-curvature measure."""

    def test_parabola_closed_form(self):
        front = gallery("cuspidal_parabola")
        val = integrate_kappa_s(front, trace(front, grid=32))
        x, w = np.polynomial.legendre.leggauss(64)
        oracle = 1.5 * float((parabola_density(1.5 * x) * w).sum())
        assert abs(val - oracle) < 1e-10, f"{val} vs oracle {oracle}"

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


class TestDegree:
    """Normal-map degree from the smooth curvature integral."""

    def test_sphere(self, sphere):
        assert degree_of_gauss_map(sphere, grid=512) == 1

    def test_noncompact_rejected(self, pseudosphere):
        with pytest.raises(InapplicableError):
            degree_of_gauss_map(pseudosphere)


class TestSwallowtailBookkeeping:
    """Signed apex counts, stored and recomputed."""

    def test_stored_signs_used(self, ell20, ell20_curves):
        points = [
            s
            for c in ell20_curves
            for s in c.samples
            if s.kind.name == "SWALLOWTAIL"
        ]
        assert len(points) == 4
        assert swallowtail_signs(ell20, points) == (4, 0)

    def test_recomputed_signs_agree(self, ell20, ell20_curves):
        stripped = [
            dataclasses.replace(s, swallowtail_sign=None)
            for c in ell20_curves
            for s in c.samples
            if s.kind.name == "SWALLOWTAIL"
        ]
        assert swallowtail_signs(ell20, stripped) == (4, 0)

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
            rep = euler_report(pseudosphere, grid=cg, panels=pn, trace_grid=tg)
            assert abs(rep.residual_unsigned - floor) < 1e-12, (
                f"trace {tg} panels {pn}: {rep.residual_unsigned}"
            )

    def test_residual_halves_with_grid(self, ell16, ell16_report):
        coarse = euler_report(ell16, grid=128, panels=128, trace_grid=32)
        ratio = abs(coarse.residual_unsigned) / abs(ell16_report.residual_unsigned)
        assert ratio > 2.0, (
            f"coarse {coarse.residual_unsigned} fine "
            f"{ell16_report.residual_unsigned} ratio {ratio}"
        )

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
        assert abs(rep.residual_unsigned) < 1e-2 * FOUR_PI
        assert rep.llr["lhs"] == 4.0 and rep.llr["rhs"] == 2
        assert rep.llr["satisfied"]

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

    def test_plain_chart_rejected(self):
        with pytest.raises(InapplicableError):
            euler_report(gallery("cuspidal_parabola"))

    def test_report_dictionary_deterministic(self, pseudosphere, pseudo_report):
        again = euler_report(pseudosphere)
        assert repr(report_to_dict(again)) == repr(report_to_dict(pseudo_report))
        as_dict = report_to_dict(pseudo_report)
        assert isinstance(as_dict["ends"][0], list)
        assert "panels" in as_dict["provenance"]
