"""The batch-first tracer against the point-at-a-time oracle it replaced.

`trace` evaluates seeding, tangents, null directions and classification
as array jets; `scalar_trace.scalar_trace` does every step one point at a
time.  Sample positions come out of the same per-point arithmetic, so they
must agree bit for bit; curvatures go through array instead of scalar jets
and may differ by rounding only.
"""

import dataclasses
import math
import re

import numpy as np
import pytest
import scalar_trace

from frontlab import (
    Domain,
    classify,
    gallery,
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


@pytest.mark.parametrize("name", sorted(SEAM_FRONTS))
def test_seeds_match_scalar_seeding(name):
    """Array bisection and Newton polish, sign changes on wrap edges included."""
    front = SEAM_FRONTS[name]
    dom = front.domain
    uu, vv = dom.grid(GRID)
    lam = lambda_value(front, uu, vv)
    wrap = lam[-1] * lam[0] if dom.periodic_u else lam[:, -1] * lam[:, 0]
    assert (wrap <= 0).sum() >= 2
    lam_scale = max(1.0, float(np.nanmax(np.abs(lam))))
    args = (front, dom, GRID, lam, uu, vv, lam_scale)
    batch = singular._seed_points(*args)
    scalar = scalar_trace._seed_points(*args)
    assert np.array(batch).tobytes() == np.array(scalar).tobytes()


@pytest.mark.parametrize("closed", [False, True])
def test_neighbour_rates_sign_by_raw_null_directions(closed):
    """Each neighbour's |det(T, eta)| counts with the sign of its null
    direction against the sample's, as the point-at-a-time pass did."""
    rng = np.random.default_rng(5)
    n = 7
    P = np.cumsum(rng.uniform(0.1, 0.2, (n, 2)), axis=0)
    lu, lv = rng.normal(size=n), rng.normal(size=n)
    eta = rng.normal(size=(n, 2))
    eta[2] *= -1.0
    dom = Domain(-10.0, 10.0, -10.0, 10.0)
    rates, valid = singular._neighbour_rates(dom, P, lu, lv, eta, closed)
    assert valid.all()

    def abs_det(k):
        T = np.array([lv[k], -lu[k]]) / math.hypot(lu[k], lv[k])
        return abs(T[0] * eta[k, 1] - T[1] * eta[k, 0])

    for i in range(n):
        lo, hi = ((i - 1) % n, (i + 1) % n) if closed else (max(i - 1, 0), min(i + 1, n - 1))
        ra = abs_det(lo) if eta[lo] @ eta[i] >= 0 else -abs_det(lo)
        rb = abs_det(hi) if eta[hi] @ eta[i] >= 0 else -abs_det(hi)
        want = (rb - ra) / np.linalg.norm(P[hi] - P[lo])
        assert abs(rates[i] - want) <= 1e-12 * abs(want), i


def test_samples_match_scalar_trace(traced):
    front, batch, scalar = traced
    assert len(batch) == len(scalar)
    for cb, cs in zip(batch, scalar):
        assert cb.closed == cs.closed
        assert cb.peaks == cs.peaks
        assert len(cb) == len(cs)
        for pb, ps in zip(cb.samples, cs.samples):
            assert [x.hex() for x in pb.uv] == [x.hex() for x in ps.uv]
            assert pb.kind is ps.kind
            assert pb.swallowtail_sign == ps.swallowtail_sign
            assert pb.near_peak == ps.near_peak


def test_curvatures_match_scalar_trace(traced):
    front, batch, scalar = traced
    cusps = list(zip(_cusps(batch), _cusps(scalar)))
    assert len(cusps) == len(_cusps(scalar))
    for pb, ps in cusps:
        _assert_curvatures_close(pb, ps, pb.uv)


def test_scalar_classify_agrees_with_trace(traced):
    """One decision and one curvature kernel: scalar jets in `classify`
    reproduce what the curve's arrays gave inside `trace`."""
    front, batch, _ = traced
    for p in _cusps(batch):
        q = classify(front, p.uv)
        assert q.kind is p.kind, p.uv
        for a, b in zip(q.null_dir + q.singular_dir, p.null_dir + p.singular_dir):
            assert abs(a - b) <= REL, p.uv  # unit vectors
        _assert_curvatures_close(q, p, p.uv)


def test_kernel_matches_pointwise_formula(traced):
    front, batch, _ = traced
    for p in _cusps(batch)[::4]:
        kappa_s, kappa_nu = scalar_trace.pointwise_curvatures(front, *p.uv, p.null_dir)
        size = math.hypot(kappa_s, kappa_nu)
        assert _close(p.kappa_s, kappa_s, abs(kappa_s)), p.uv
        assert _close(p.kappa_nu, kappa_nu, size), p.uv


@pytest.mark.parametrize("name", ["cuspidal_parabola", "pseudosphere"])
def test_kappa_s_integral_is_bit_equal(name):
    front = gallery(name)
    batch = integrate_kappa_s(front, trace(front, grid=GRID))
    scalar = integrate_kappa_s(front, scalar_trace.scalar_trace(front, grid=GRID))
    assert batch.hex() == scalar.hex()
