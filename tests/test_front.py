"""Fronts, fundamental forms, offset surfaces, and the built-in gallery.

Closed-form spot values pin the analytic entries (area density, curvature,
second fundamental form); a finite-difference sweep guards every gallery
expression against transcription slips.
"""

import hashlib
import math
import re

import numpy as np
import pytest
from finite_difference import finite_difference_jet

from frontlab import front as front_module
from frontlab import gaussbonnet, singular
from frontlab.errors import FrontContractError, FrontlabError
from frontlab.expr import Expr, eval_jet, parse
from frontlab.front import (
    Domain,
    Front,
    curvature,
    det3,
    dot,
    forms,
    lambda_value,
    parallel_surface,
    read_description,
    validate,
    write_description,
)
from frontlab.gallery import gallery, gallery_names
from frontlab.gaussbonnet import euler_characteristics
from frontlab.singular import lambda_jets
from frontlab.zigzag import NullLoop, PlaneFront


class TestDomain:
    """Parameter rectangles with optional periodic gluing."""

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

    @pytest.mark.parametrize("bounds", [(0.0, math.inf, 0.0, 1.0), (-math.inf, 1.0, 0.0, 1.0),
                                        (0.0, 1.0, -math.inf, math.inf)])
    def test_non_finite_bounds_rejected(self, bounds):
        with pytest.raises(ValueError, match="finite"):
            Domain(*bounds)

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
        want = eval_jet(expr, uu, vv, order=0).value[0]
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

    @pytest.mark.parametrize("shapes", [
        [(3,)] * 3,
        [(500, 3)] * 3,
        [(3,), (500, 3), (1, 3)],
        [(7, 1, 3), (1, 5, 3), (5, 3)],
    ])
    def test_det3_equals_einsum_of_cross(self, shapes):
        # det3 keeps the bits of the einsum-of-cross form it replaced
        rng = np.random.default_rng(len(shapes[0]) + len(shapes[1]))
        vecs = [rng.standard_normal(s) for s in shapes]
        vecs[1].flat[::4] = 0.0
        vecs[2].flat[::5] = -0.0
        strided = [np.repeat(x, 2, axis=-1)[..., ::2] for x in vecs]
        want = np.einsum("...i,...i->...", vecs[0], np.cross(vecs[1], vecs[2]))
        for args in (vecs, strided):
            got = det3(*(np.moveaxis(x, -1, 0) for x in args))
            assert np.shape(got) == np.shape(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    @staticmethod
    def _special_rows(seed, n=4000):
        """n random 3-vectors per argument with +-0, +-inf, NaN, 1e308 and
        -1e-308 in about a third of the entries, interleaved: (3, n, 3)."""
        rng = np.random.default_rng(seed)
        special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e308, -1e-308])
        vecs = rng.standard_normal((3, n, 3))
        hit = rng.random(vecs.shape) < 0.3
        vecs[hit] = rng.choice(special, size=int(hit.sum()))
        return vecs

    @staticmethod
    def _interleaved_det3(a, b, c):
        """det3 as it was written on (..., 3) arrays, before jets kept
        their components apart."""
        x0 = b[..., 1] * c[..., 2] - b[..., 2] * c[..., 1]
        x1 = b[..., 2] * c[..., 0] - b[..., 0] * c[..., 2]
        x2 = b[..., 0] * c[..., 1] - b[..., 1] * c[..., 0]
        return (a[..., 0] * x0 + a[..., 2] * x2) + a[..., 1] * x1

    @staticmethod
    def _assert_same_bits(got, want):
        assert np.atleast_1d(got).tobytes() == np.atleast_1d(want).tobytes()

    @staticmethod
    def _assert_same_but_nan_payloads(got, want):
        # numpy's cross and einsum loops take a NaN result's payload (and
        # sign) from another NaN operand than the arithmetic det3 and the
        # interleaved formula both do
        got, want = np.atleast_1d(got), np.atleast_1d(want)
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan)
        assert got[~nan].tobytes() == want[~nan].tobytes()

    @staticmethod
    def _single_points(fn, vecs):
        """fn on each row of `vecs` as Python floats, after one unchecked
        pass: CPython's unspecialized float * and + return the second NaN
        operand, its specialized ones (like numpy) the first, so a NaN's
        sign depends on whether fn's bytecode is specialized yet, which
        earlier callers in the same process decide."""
        rows = [[x[i].tolist() for x in vecs] for i in range(vecs.shape[1])]
        for r in rows:
            fn(*r)
        return [fn(*r) for r in rows]

    def test_det3_single_point_is_a_batch_row(self):
        # a single point of floats has the bits of its row in a batch, and
        # the batch those of det3 on the interleaved vectors, signed zeros,
        # infinities and NaNs included; einsum(a, cross(b, c)) agrees
        vecs = self._special_rows(5)
        with np.errstate(all="ignore"):
            batch = det3(*(x.T for x in vecs))
            self._assert_same_bits(batch, self._interleaved_det3(*vecs))
            self._assert_same_but_nan_payloads(
                batch, np.einsum("...i,...i->...", vecs[0], np.cross(vecs[1], vecs[2])))
            for i, got in enumerate(self._single_points(det3, vecs)):
                assert type(got) is np.float64
                assert got.tobytes() == batch[i].tobytes(), i

    def test_dot_equals_einsum(self):
        vecs = self._special_rows(6)[:2]
        with np.errstate(all="ignore"):
            want = np.einsum("...i,...i->...", vecs[0], vecs[1])
            batch = dot(vecs[0].T, vecs[1].T)
            self._assert_same_bits(batch, want)
            for i, got in enumerate(self._single_points(dot, vecs)):
                assert type(got) is np.float64
                assert got.tobytes() == batch[i].tobytes(), i
                self._assert_same_bits(got, np.einsum("...i,...i->...", vecs[0, i], vecs[1, i]))

    def test_vector_helpers_on_a_column_and_a_row(self):
        # components of one variable alone (a column, a row) or constant,
        # against the interleaved vectors they broadcast to
        vecs = self._special_rows(7, 64 * 3)
        col, row = vecs[:, :64].reshape(3, 64, 1, 3), vecs[:, 64:128].reshape(3, 1, 64, 3)
        comps = [
            (col[0, ..., 0], row[0, ..., 1], 2.5),
            (row[1, ..., 0], -0.0, col[1, ..., 2]),
            (0.0, col[2, ..., 1], row[2, ..., 2]),
        ]
        grid = np.zeros((64, 64))
        stacked = [np.stack(np.broadcast_arrays(*c, grid)[:3], axis=-1) for c in comps]
        with np.errstate(all="ignore"):
            got = det3(*comps)
            assert got.shape == (64, 64)
            self._assert_same_bits(got, self._interleaved_det3(*stacked))
            self._assert_same_but_nan_payloads(
                got, np.einsum("...i,...i->...", stacked[0], np.cross(stacked[1], stacked[2])))
            got = dot(comps[1], comps[2])
            assert got.shape == (64, 64)
            self._assert_same_bits(got, np.einsum("...i,...i->...", stacked[1], stacked[2]))

    @pytest.mark.parametrize("name", ["cuspidal_parabola", "standard_swallowtail"])
    def test_scalar_lambda_jets_are_an_array_row(self, name):
        front = gallery(name)
        rng = np.random.default_rng(2)
        dom = front.domain
        u = rng.uniform(dom.u0, dom.u1, 16)
        v = rng.uniform(dom.v0, dom.v1, 16)
        rows = lambda_jets(front, u, v, order=2)
        for i in range(len(u)):
            one = lambda_jets(front, float(u[i]), float(v[i]), order=2)
            assert [type(x) for x in one] == [np.float64] * 6
            assert [x.tobytes() for x in one] == [r[i].tobytes() for r in rows]


def _broadcast_calls(monkeypatch, owner, name):
    """Spy on owner.name(x, u, v, ...); keep the calls whose u is a column
    and v a row, with the result and the same call on the full grid."""
    fn = getattr(owner, name)
    calls = []

    def spy(x, u, v, *rest):
        out = fn(x, u, v, *rest)
        if np.ndim(u) == 2 and np.shape(u)[1] == 1 and np.shape(v)[0] == 1:
            full = np.broadcast_arrays(u, v)
            calls.append((out, fn(x, *full, *rest), full[0].shape))
        return out

    monkeypatch.setattr(owner, name, spy)
    return calls


def _blocks(out, shape):
    """The arrays of a lambda value or of a (map, normal) jet pair, each
    jet component at the full grid's shape."""
    if isinstance(out, np.ndarray):
        return [out]
    return [np.broadcast_to(c, shape) for jet in out
            for degree in jet.blocks[:2] for b in degree for c in b]


class TestBroadcastGrids:
    """Evaluators that pass a grid's first column and first row get the bits
    of the full meshgrid."""

    def _assert_full_grid_bits(self, calls):
        assert calls
        for got, want, shape in calls:
            got, want = _blocks(got, shape), _blocks(want, shape)
            assert [b.shape for b in got] == [b.shape for b in want]
            assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))

    @pytest.mark.parametrize("name", ["cuspidal_parabola", "kuen", "pseudosphere"])
    def test_trace(self, monkeypatch, name):
        calls = _broadcast_calls(monkeypatch, singular, "lambda_value")
        singular.trace(gallery(name), grid=48)
        self._assert_full_grid_bits(calls)

    @pytest.mark.parametrize("name", ["sphere", "ellipsoid"])
    def test_parallel_surface(self, monkeypatch, name):
        calls = _broadcast_calls(monkeypatch, Front, "jets")
        parallel_surface(gallery(name), 0.5)
        self._assert_full_grid_bits(calls)

    @pytest.mark.parametrize("name", gallery_names())
    def test_validate(self, monkeypatch, name):
        calls = _broadcast_calls(monkeypatch, Front, "jets")
        validate(gallery(name), grid_n=33)
        self._assert_full_grid_bits(calls)

    @pytest.mark.parametrize("name", ["ellipsoid_parallel", "pseudosphere"])
    def test_euler_characteristics(self, monkeypatch, name):
        calls = _broadcast_calls(monkeypatch, gaussbonnet, "lambda_value")
        euler_characteristics(gallery(name), grid=256)
        self._assert_full_grid_bits(calls)
        assert sum(got.size for got, _, _ in calls) == 256 * 256

    def test_components_of_one_variable_keep_its_shape(self):
        # pseudosphere: map (sech u cos v, sech u sin v, u - tanh u),
        # normal (tanh u cos v, tanh u sin v, sech u)
        f = gallery("pseudosphere")
        uu, vv = f.domain.grid(9, 11)
        jf, jn = f.jets(uu[:, :1], vv[:1], 1, 1)
        for jet in (jf, jn):
            assert [np.shape(c) for c in jet.value] == [(9, 11), (9, 11), (9, 1)]
            assert np.shape(jet.f_u[2]) == (9, 1) and jet.f_v[2] == 0.0
        assert lambda_value(f, uu[:, :1], vv[:1]).shape == (9, 11)

    def test_values_constant_on_the_grid_are_spread_over_it(self):
        # the plane's lambda and forms are constants of its jets
        f = gallery("plane")
        uu, vv = f.domain.grid(5)
        assert lambda_value(f, uu[:, :1], vv[:1]).shape == (5, 5)
        fo = forms(f, uu, vv)
        assert [np.shape(x) for x in vars(fo).values()] == [(5, 5)] * 6
        assert [np.shape(x) for x in lambda_jets(f, uu[0], vv[0], order=2)] == [(5,)] * 6


class TestReadOnlyInputs:
    """A jet component may be the caller's own u or v, so nothing
    downstream may write into one."""

    @staticmethod
    def _frozen(*arrays):
        for a in arrays:
            a.flags.writeable = False
        return arrays

    def test_jets_hand_back_the_inputs(self):
        f = gallery("cuspidal_parabola")  # its map's last component is u
        u, v = self._frozen(np.linspace(-1.0, 1.0, 7), np.linspace(-0.5, 0.5, 7))
        jf, _ = f.jets(u, v, 1, 1)
        assert jf.value[2] is u

    @pytest.mark.parametrize("name", ["cuspidal_parabola", "standard_swallowtail", "kuen"])
    def test_evaluators_accept_read_only_inputs(self, name):
        f = gallery(name)
        d = f.domain
        u, v = self._frozen(np.linspace(d.u0, d.u1, 9)[1:-1], np.linspace(d.v0, d.v1, 9)[1:-1])
        f.jets(u, v, 3, 2)
        f.jets(u, v, 2, 0)[0]
        lambda_jets(f, u, v, order=2)
        forms(f, u, v)
        with np.errstate(divide="ignore", invalid="ignore"):
            jf, jn = f.jets(u, v, 3, 2)
            singular._curvatures(jf, jn, singular._lambda_blocks(jf, jn, 2))
        uu, vv = d.grid(9)
        col, row = self._frozen(uu[:, :1].copy(), vv[:1].copy())
        f.jets(col, row, 1, 1)
        lambda_value(f, col, row)


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
        jn = f.jets(u, v, 0, 0)[1]

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

    @pytest.mark.parametrize("name,digest", [
        ("cuspidal_parabola", "a927055b1c7e0f35"),
        ("standard_swallowtail", "457d14f8cda0d842"),
        ("pseudosphere", "04084cf04cc5c805"),
        ("kuen", "3e8d6142459360de"),
        ("ellipsoid_parallel", "43547f269e0f657b"),
    ])
    def test_one_jet_call_same_bits(self, monkeypatch, name, digest):
        # lambda comes from the (1, 1) jets of the forms, with the bits of
        # `lambda_value`'s (1, 0) jets; `digest` hashes lam, K and H as
        # separate `forms` and `lambda_value` calls gave them
        f = gallery(name)
        uu, vv = f.domain.grid(9)
        h = hashlib.sha256()
        for u, v in ((uu, vv), (uu[:, :1], vv[:1]), (float(uu[3, 5]), float(vv[3, 5]))):
            calls = []
            real = front_module.eval_jet
            monkeypatch.setattr(front_module, "eval_jet",
                                lambda *a, **k: calls.append(1) or real(*a, **k))
            c = curvature(f, u, v)
            monkeypatch.undo()
            assert len(calls) == 1
            assert np.asarray(c.lam).tobytes() == np.asarray(lambda_value(f, u, v)).tobytes()
            for x in (c.lam, c.K, c.H):
                h.update(np.asarray(x, dtype=float).tobytes())
            h.update(repr((np.shape(c.lam), c.regular)).encode())
        assert h.hexdigest()[:16] == digest


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
            p0 = np.array(eval_jet(base.map, u, v, order=0).value)
            n0 = np.array(eval_jet(base.normal, u, v, order=0).value)
            p1 = np.array(eval_jet(off.map, u, v, order=0).value)
            assert np.max(np.abs(p1 - (p0 + 0.3 * n0))) < 1e-12
            n1 = np.array(eval_jet(off.normal, u, v, order=0).value)
            assert np.max(np.abs(n1 - n0)) < 1e-15, "offset keeps the normal"

    def test_offset_is_analytic_with_metadata(self):
        off = parallel_surface(gallery("sphere"), 0.25)
        assert isinstance(off.map, Expr)
        assert off.metadata["parallel_dist"] == 0.25
        assert "parallel" in off.label

    def test_singular_base_rejected(self):
        with pytest.raises(FrontContractError):
            parallel_surface(gallery("cuspidal_parabola"), 0.1)

    def test_parameters_bound_as_in_jets(self):
        # map and normal bind `a` to different values, as Front.jets allows
        base = Front(
            map=parse("(u, v, a*u)", {"a": 1.0}),
            normal=parse("(0-1/a, 0, 2/a)", {"a": 2.0}),
            domain=Domain(-1.0, 1.0, -1.0, 1.0),
        )
        off = parallel_surface(base, 0.5)
        jf, jn = base.jets(0.3, 0.2, 0, 0)
        got = off.jets(0.3, 0.2, 0, 0)[0].value
        assert got == tuple(f + 0.5 * n for f, n in zip(jf.value, jn.value))

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

    def test_orthogonality_violation_detected(self):
        # a unit normal tilted off the plane's: f_u . nu = 0.6 everywhere
        bad = Front(map=parse("(u, v, 0)"), normal=parse("(0.6, 0, 0.8)"),
                    domain=Domain(-1.0, 1.0, -1.0, 1.0))
        rep = validate(bad, grid_n=9)
        assert not rep.passed and rep.worst_unit == 0.0
        assert rep.failures == ("orthogonality deviates by 6.000e-01 (tol 1e-09)",)


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

    @pytest.mark.parametrize("edit,message", [
        (lambda ln: [ln, "junk line"] if ln.startswith("map") else [ln],
         "malformed description line: 'junk line'"),
        (lambda ln: [] if ln.startswith("normal") else [ln],
         "description missing field 'normal'"),
        (lambda ln: ["periodic = w"] if ln.startswith("periodic") else [ln],
         "bad periodic flag 'w'"),
    ])
    def test_bad_lines_rejected(self, edit, message):
        text = write_description(gallery("sphere"))
        lines = [out for ln in text.splitlines() for out in edit(ln)]
        with pytest.raises(ValueError, match=re.escape(message)):
            read_description("\n".join(lines))

    def test_non_finite_domain_rejected(self):
        text = write_description(gallery("cuspidal_parabola"))
        lines = [ln if not ln.startswith("domain = ") else "domain = -1.0 inf -1.0 1.0"
                 for ln in text.splitlines()]
        with pytest.raises(ValueError, match="finite"):
            read_description("\n".join(lines))

    @pytest.mark.parametrize("a", [2.0, -2.0])
    def test_clashing_parameter_round_trip(self, a):
        # map and normal bind `a` to different values; the normal's is
        # written inline, a negative one also as the base of a power
        f = Front(
            map=parse("(u, v, a*u*u)", {"a": 1.0}),
            normal=parse("(a^2*u, a*v, b-a)", {"a": a, "b": 0.5}),
            domain=Domain(-1.0, 1.0, -1.0, 1.0),
        )
        g = read_description(write_description(f))
        grid = (np.linspace(-1.0, 1.0, 5)[:, None], np.linspace(-1.0, 1.0, 3)[None])
        for u, v in ((0.3, 0.2), grid):
            shape = np.broadcast_shapes(np.shape(u), np.shape(v))
            for om, on in ((3, 3), (0, 2)):
                want, got = (
                    [np.broadcast_to(c, shape).tobytes() for jet in h.jets(u, v, om, on)
                     for degree in jet.blocks for partial in degree for c in partial]
                    for h in (f, g)
                )
                assert got == want

    @pytest.mark.parametrize("a", [math.inf, -math.inf, math.nan])
    def test_non_finite_constant_round_trip(self, a):
        # a literal 1e400 in the map, and the normal's clashing `a` inline:
        # inf keeps its bits, NaN stays NaN
        f = Front(
            map=parse("(u, v, 1e400*u*u + a*v)", {"a": 1.0}),
            normal=parse("(a*u, a, -v)", {"a": a}),
            domain=Domain(-1.0, 1.0, -1.0, 1.0),
        )
        text = write_description(f)
        g = read_description(text)
        assert write_description(g) == text
        u, v = np.linspace(-1.0, 1.0, 5)[:, None], np.linspace(-1.0, 1.0, 3)[None]
        with np.errstate(invalid="ignore"):  # inf * 0 in the slopes
            want, got = ([np.where(np.isnan(c), np.nan, np.broadcast_to(c, (5, 3))).tobytes()
                          for jet in h.jets(u, v, 2, 1)
                          for degree in jet.blocks for partial in degree for c in partial]
                         for h in (f, g))
        assert got == want


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
        want = eval_jet(expr, uu, vv, order=0).value[0]
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
