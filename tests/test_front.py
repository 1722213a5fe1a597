"""Fronts, fundamental forms, offset surfaces, and the built-in gallery.

Closed-form spot values pin the analytic entries (area density, curvature,
second fundamental form); a finite-difference sweep guards every gallery
expression against transcription slips.
"""

import math

import numpy as np
import pytest
from finite_difference import finite_difference_jet

from frontlab.errors import FrontContractError, FrontlabError
from frontlab.expr import Expr, eval_jet, parse
from frontlab.front import (
    Domain,
    Front,
    curvature,
    forms,
    lambda_value,
    parallel_surface,
    read_description,
    validate,
    write_description,
)
from frontlab.gallery import gallery, gallery_names
from frontlab.zigzag import NullLoop, PlaneFront


class TestDomain:
    """Parameter rectangles with optional periodic gluing."""

    def test_contains_and_slack(self):
        d = Domain(-1.0, 1.0, 0.0, 2.0)
        assert d.contains(0.0, 1.0)
        assert not d.contains(1.2, 1.0)
        assert d.contains(1.2, 1.0, slack=0.25)

    def test_periodic_axis_always_contains(self):
        d = Domain(0.0, 2 * math.pi, 0.0, 1.0, periodic_u=True)
        assert d.contains(17.0, 0.5)
        assert not d.contains(1.0, 1.5)

    def test_wrap_folds_periodic_coordinates(self):
        d = Domain(0.0, 2 * math.pi, -1.0, 1.0, periodic_u=True)
        u, v = d.wrap(2 * math.pi + 0.25, 0.5)
        assert abs(u - 0.25) < 1e-12 and v == 0.5

    def test_grid_endpoint_convention(self):
        d = Domain(0.0, 1.0, 0.0, 1.0, periodic_v=True)
        uu, vv = d.grid(4)
        assert uu.shape == (4, 4)
        assert uu[-1, 0] == 1.0, "closed axis keeps its endpoint"
        assert vv[0, -1] < 1.0, "periodic axis must drop the duplicate seam"

    def test_degenerate_extent_rejected(self):
        with pytest.raises(ValueError):
            Domain(1.0, 1.0, 0.0, 2.0)

    def test_scale_is_longest_side(self):
        assert Domain(-2.0, 3.0, 0.0, 1.0).scale == 5.0


class TestAreaDensity:
    """Signed area density lambda = det(f_u, f_v, nu)."""

    def test_parabola_spot_value(self):
        f = gallery("cuspidal_parabola")
        want = 0.5 * math.sqrt(16.25)
        got = lambda_value(f, 0.0, 0.5)
        assert abs(got - want) < 1e-12 * want, f"lambda(0,0.5) = {got}, want {want}"

    @pytest.mark.parametrize(
        "name", [n for n in gallery_names() if "lambda" in gallery(n).metadata]
    )
    def test_density_matches_closed_form(self, name):
        f = gallery(name)
        expr = parse(f"({f.metadata['lambda']}, 0, 0)", dict(f.map.params))
        uu, vv = f.domain.grid(33)
        want = eval_jet(expr, uu, vv, order=0).value[..., 0]
        got = lambda_value(f, uu, vv)
        dev = np.nanmax(np.abs(want - got) / np.maximum(1.0, np.abs(want)))
        assert dev < 1e-9, f"{name}: closed-form density deviates by {dev:.3e}"

    @pytest.mark.parametrize(
        "name", ["cuspidal_parabola", "standard_swallowtail", "pseudosphere", "sphere"]
    )
    def test_density_squared_is_metric_determinant(self, name):
        f = gallery(name)
        uu, vv = f.domain.grid(17)
        fo = forms(f, uu, vv)
        lam = lambda_value(f, uu, vv)
        gram = fo.E * fo.G - fo.F * fo.F
        dev = np.max(np.abs(lam * lam - gram) / np.maximum(1.0, np.abs(gram)))
        assert dev < 1e-9, f"{name}: lambda^2 vs EG-F^2 off by {dev:.3e}"

    def test_sphere_is_immersed(self):
        f = gallery("sphere")
        uu, vv = f.domain.grid(33)
        assert np.all(lambda_value(f, uu, vv) > 0.0)

    def test_standard_swallowtail_singular_parabola(self):
        f = gallery("standard_swallowtail")
        t = np.linspace(-1.0, 1.0, 21)
        lam = lambda_value(f, t, -6.0 * t * t)
        assert np.max(np.abs(lam)) < 1e-12


class TestForms:
    """First/second fundamental forms and their compatibility contract."""

    def test_plane_second_form_vanishes(self):
        fo = forms(gallery("plane"), 0.3, -0.4)
        assert fo.L == 0.0 and fo.M == 0.0 and fo.N == 0.0

    @pytest.mark.parametrize("r", [1.0, 2.0])
    def test_sphere_inward_shape_operator(self, r):
        fo = forms(gallery("sphere", {"r": r}), 1.0, 1.0)
        assert abs(fo.L / fo.E - 1.0 / r) < 1e-12, (
            f"L/E = {fo.L / fo.E}, want {1.0 / r} (inward normal)"
        )

    @pytest.mark.parametrize("sign,n_want", [(1.0, 24.0), (-1.0, -24.0)])
    def test_swallowtail_pair_origin_form(self, sign, n_want):
        fo = forms(gallery("swallowtail_pm", {"sign": sign}), 0.0, 0.0)
        assert abs(fo.L) < 1e-12 and abs(fo.M) < 1e-12
        assert abs(fo.N - n_want) < 1e-9, f"N(0,0) = {fo.N}, want {n_want}"

    def test_incompatible_normal_rejected(self):
        # unit field, but d(nu) is asymmetric against df: not a normal of f
        bogus = Front(
            map=parse("(u, v, 0)"),
            normal=parse("(sin(v), 0, cos(v))"),
            domain=Domain(-1.0, 1.0, -1.0, 1.0),
        )
        with pytest.raises(FrontContractError):
            forms(bogus, 0.0, 1.0)


class TestCurvature:
    """Gaussian and mean curvature from the forms."""

    def test_parabola_spot_value(self):
        # K = -12a(2b+3v)/(v*delta^4) at a=b=1, (u,v)=(0,0.1)
        want = -12.0 * 2.3 / (0.1 * 9.29**2)
        got = curvature(gallery("cuspidal_parabola"), 0.0, 0.1)
        assert got.regular
        assert abs(got.K - want) < 1e-9 * abs(want), f"K = {got.K}, want {want}"
        assert got.K_ext == got.K

    @pytest.mark.parametrize("name", ["pseudosphere", "kuen"])
    def test_constant_negative_curvature(self, name):
        f = gallery(name)
        rng = np.random.default_rng(11)
        for _ in range(6):
            u = rng.uniform(f.domain.u0 + 0.3, f.domain.u1 - 0.3)
            v = rng.uniform(f.domain.v0 + 0.3, f.domain.v1 - 0.3)
            c = curvature(f, u, v)
            if not c.regular:
                continue
            assert abs(c.K + 1.0) < 1e-8, f"{name}: K({u:.3f},{v:.3f}) = {c.K}"

    def test_sphere_curvatures(self):
        c = curvature(gallery("sphere", {"r": 2.0}), 0.7, 1.1)
        assert abs(c.K - 0.25) < 1e-12
        assert abs(c.H - 0.5) < 1e-12, f"H = {c.H}, want +0.5 for inward normal"

    def test_parabola_closed_form_on_grid(self):
        f = gallery("cuspidal_parabola", {"a": -1.0, "b": 0.5})
        expr = parse(f"({f.metadata['K']}, 0, 0)", dict(f.map.params))
        rng = np.random.default_rng(3)
        for _ in range(10):
            u = rng.uniform(-1.2, 1.2)
            v = rng.uniform(0.05, 1.2) * rng.choice([-1.0, 1.0])
            want = float(eval_jet(expr, u, v, order=0).value[0])
            got = curvature(f, u, v).K
            assert abs(got - want) < 1e-9 * max(1.0, abs(want)), (
                f"K({u:.3f},{v:.3f}) = {got}, closed form {want}"
            )

    def test_singular_point_flagged(self):
        c = curvature(gallery("cuspidal_parabola"), 0.3, 0.0)
        assert not c.regular
        assert math.isinf(c.K)
        assert math.isnan(c.H)

    @pytest.mark.parametrize("name,u,v", [
        ("cuspidal_parabola", 0.4, 0.6),
        ("sphere", 2.0, 1.3),
        ("kuen", -0.8, 1.9),
    ])
    def test_curvature_against_normal_differences(self, name, u, v):
        # independent route: second fundamental form from g(f_xx, nu) with
        # finite-difference second derivatives of the map alone
        f = gallery(name)
        jn = f.normal_jet(u, v, 0)

        def cb(a, b):
            return eval_jet(f.map, a, b, order=0).value

        fd = finite_difference_jet(cb, u, v, order=2)
        E, F, G = fd.f_u @ fd.f_u, fd.f_u @ fd.f_v, fd.f_v @ fd.f_v
        L, M, N = fd.f_uu @ jn.value, fd.f_uv @ jn.value, fd.f_vv @ jn.value
        K_fd = (L * N - M * M) / (E * G - F * F)
        H_fd = (E * N - 2 * F * M + G * L) / (2 * (E * G - F * F))
        c = curvature(f, u, v)
        assert abs(c.K - K_fd) < 1e-5 * max(1.0, abs(K_fd)), (
            f"{name}: K {c.K} vs difference route {K_fd}"
        )
        assert abs(c.H - H_fd) < 1e-5 * max(1.0, abs(H_fd))


class TestParallelSurface:
    """Constant-distance offsets sharing the normal field."""

    def test_sphere_offset_curvature(self):
        # inward normal: offset 0.5 is the concentric sphere of radius 0.5
        off = parallel_surface(gallery("sphere"), 0.5)
        c = curvature(off, 1.0, 1.2)
        assert c.regular
        assert abs(c.K - 4.0) < 1e-9, f"K = {c.K}, want 4"

    def test_sphere_focal_offset_collapses(self):
        off = parallel_surface(gallery("sphere"), 1.0)
        uu, vv = off.domain.grid(17)
        assert np.max(np.abs(lambda_value(off, uu, vv))) < 1e-9

    def test_offset_point_identity(self):
        base = gallery("ellipsoid")
        off = parallel_surface(base, 0.3)
        rng = np.random.default_rng(5)
        for _ in range(5):
            u = rng.uniform(0.0, 2 * math.pi)
            v = rng.uniform(0.2, math.pi - 0.2)
            p0 = eval_jet(base.map, u, v, order=0).value
            n0 = eval_jet(base.normal, u, v, order=0).value
            p1 = eval_jet(off.map, u, v, order=0).value
            assert np.max(np.abs(p1 - (p0 + 0.3 * n0))) < 1e-12
            n1 = eval_jet(off.normal, u, v, order=0).value
            assert np.max(np.abs(n1 - n0)) < 1e-15, "offset keeps the normal"

    def test_offset_is_analytic_with_metadata(self):
        off = parallel_surface(gallery("sphere"), 0.25)
        assert isinstance(off.map, Expr)
        assert off.metadata["parallel_dist"] == 0.25
        assert "parallel" in off.label

    def test_singular_base_rejected(self):
        with pytest.raises(FrontContractError):
            parallel_surface(gallery("cuspidal_parabola"), 0.1)

    def test_ellipsoid_offset_has_singular_set(self):
        f = gallery("ellipsoid_parallel")
        uu, vv = f.domain.grid(65)
        lam = lambda_value(f, uu, vv)
        assert lam.min() < 0.0 < lam.max(), (
            f"offset between focal sheets must change sign, got "
            f"[{lam.min():.4f}, {lam.max():.4f}]"
        )


class TestValidate:
    """Unit/orthogonality/rank certification of the front contract."""

    @pytest.mark.parametrize("name", sorted(gallery_names()))
    def test_gallery_certifies(self, name):
        rep = validate(gallery(name), grid_n=33)
        assert rep.passed, f"{name}: {rep}\n" + "\n".join(rep.failures)

    def test_unit_violation_detected(self):
        f = gallery("sphere")
        bad = Front(
            map=f.map,
            normal=parse(
                "(-2*cos(u)*sin(v), -2*sin(u)*sin(v), -2*cos(v))", {"r": 1.0}
            ),
            domain=f.domain,
        )
        rep = validate(bad, grid_n=9)
        assert not rep.passed
        assert rep.worst_unit > 0.9

    def test_rank_violation_detected(self):
        # fold map with constant normal: df and dnu both drop rank at u=0
        bad = Front(
            map=parse("(u^3, 0, v)"),
            normal=parse("(0, 1, 0)"),
            domain=Domain(-1.0, 1.0, -1.0, 1.0),
        )
        rep = validate(bad, grid_n=33)
        assert not rep.passed
        assert rep.worst_rank < 1e-9

    def test_report_renders(self):
        rep = validate(gallery("plane"), grid_n=5)
        assert "PASS" in str(rep)


class TestDescriptionFiles:
    """Key-value serialization for analytic fronts."""

    @pytest.mark.parametrize("name", gallery_names())
    def test_bit_exact_round_trip(self, name):
        f = gallery(name)
        text = write_description(f)
        g = read_description(text)
        assert write_description(g) == text, f"{name}: reserialization drifted"
        assert g.domain == f.domain
        assert g.map == f.map and g.normal == f.normal

    def test_header_required(self):
        with pytest.raises(ValueError):
            read_description("not a description\nmap = (u, v, 0)\n")


def _callback(u, v):
    return np.array([u, v, 0.0])


_PLANE = parse("(cos(u), sin(u))")
_CALLBACK_FIELDS = {
    "Front.map": lambda: Front(map=_callback, normal=parse("(0, 0, 1)"),
                               domain=Domain(-1.0, 1.0, -1.0, 1.0)),
    "Front.normal": lambda: Front(map=parse("(u, v, 0)"), normal=_callback,
                                  domain=Domain(-1.0, 1.0, -1.0, 1.0)),
    "PlaneFront.normal": lambda: PlaneFront(normal=_callback, gamma=_PLANE),
    "PlaneFront.gamma": lambda: PlaneFront(normal=_PLANE, gamma=_callback),
    "PlaneFront.gamma_prime": lambda: PlaneFront(normal=_PLANE, gamma_prime=_callback),
    "NullLoop.path": lambda: NullLoop(path=_callback),
}


@pytest.mark.parametrize("field", sorted(_CALLBACK_FIELDS))
def test_callback_rejected_at_construction(field):
    """Fronts, plane fronts and null loops are parsed expressions only."""
    with pytest.raises(TypeError, match=field.replace(".", r"\.")):
        _CALLBACK_FIELDS[field]()


class TestGallery:
    """Catalog contracts and the transcription guard."""

    def test_unknown_name(self):
        with pytest.raises(FrontlabError):
            gallery("helicoid")

    def test_unknown_parameter(self):
        with pytest.raises(FrontlabError):
            gallery("sphere", {"radius": 2.0})

    def test_cone_needs_tilt(self):
        with pytest.raises(FrontlabError):
            gallery("cone", {"a": 0.0})

    def test_swallowtail_pair_sign_checked(self):
        with pytest.raises(FrontlabError):
            gallery("swallowtail_pm", {"sign": 0.5})

    def test_parameter_override_consistent(self):
        f = gallery("cuspidal_parabola", {"a": 2.0, "b": 0.5})
        expr = parse(f"({f.metadata['lambda']}, 0, 0)", dict(f.map.params))
        uu, vv = f.domain.grid(17)
        want = eval_jet(expr, uu, vv, order=0).value[..., 0]
        got = lambda_value(f, uu, vv)
        assert np.max(np.abs(want - got)) < 1e-9 * max(1.0, np.max(np.abs(want)))

    @pytest.mark.parametrize("name", gallery_names())
    @pytest.mark.parametrize("fr_u,fr_v", [(0.31, 0.57), (0.73, 0.22)])
    def test_expressions_match_finite_differences(self, name, fr_u, fr_v):
        f = gallery(name)
        d = f.domain
        u = d.u0 + fr_u * (d.u1 - d.u0)
        v = d.v0 + fr_v * (d.v1 - d.v0)
        h2 = 2.0 ** round(
            math.log2(float(np.finfo(float).eps) ** 0.25 * max(1.0, abs(u), abs(v)))
        )
        for expr in (f.map, f.normal):
            exact = eval_jet(expr, u, v, order=2)

            def cb(a, b, e=expr):
                return eval_jet(e, a, b, order=0).value

            fd1 = finite_difference_jet(cb, u, v, order=1)
            for block in ("f_u", "f_v"):
                a, b = getattr(exact, block), getattr(fd1, block)
                dev = np.max(np.abs(a - b) / np.maximum(1.0, np.abs(a)))
                assert dev < 1e-6, f"{name} {block}: dev {dev:.3e}"
            # one Richardson step tames the fourth-derivative truncation error
            # of the large-coefficient rational entries
            ca = finite_difference_jet(cb, u, v, order=2, h=h2)
            cb_half = finite_difference_jet(cb, u, v, order=2, h=h2 / 2)
            for block in ("f_uu", "f_uv", "f_vv"):
                a = getattr(exact, block)
                b = (4.0 * getattr(cb_half, block) - getattr(ca, block)) / 3.0
                dev = np.max(np.abs(a - b) / np.maximum(1.0, np.abs(a)))
                assert dev < 2e-6, f"{name} {block}: dev {dev:.3e}"
