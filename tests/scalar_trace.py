"""Test-only oracle: the point-at-a-time singular-curve tracer.

This is the tracer `frontlab.singular.trace` had before it became a
contour tracer over the lambda grid, and before it evaluated its
independent per-point steps as array jets: every grid edge is bisected
with scalar `lambda_value` calls, every seed is polished by its own Newton
iteration and claims the seeds near the curve it traces, a
predictor-corrector march follows each curve and clips it at the chart
edge, and every traced sample recomputes its tangent and null direction
from scalar jets for the swallowtail bisection before a scalar `classify`.
The library now places its samples elsewhere, so it is compared with this
tracer by structure (curve counts, closed flags, peak kinds, swallowtail
signs) and by integrals; the march, clipping and seeding it needs live
here, and it shares the library's ordering and classification, which did
not change.

`pointwise_curvatures` is the scalar singular-curvature formula that the
shared curvature kernel replaced, and `central_rate` the finite difference
of det(T, eta) along the curve that the closed-form transversality rate
replaced; both are kept as independent checks.  Swallowtail signs come
from the parameter-circle sweep of `tail_sweep`, not from the library's
closed form, so the two tracers' signs are independent routes too.
"""

import dataclasses
import math

import numpy as np

from frontlab.errors import FrontlabError
from frontlab.front import det3, lambda_value
from frontlab.singular import (
    SingularClass,
    SingularCurve,
    _canonical_order,
    _cross2,
    _lambda_blocks,
    _null_direction,
    _wrapped_delta,
    classify,
    lambda_jets,
)
from tail_sweep import image_point, swallowtail_sign


def _newton(front, q, lam_scale, tol=1e-12, max_iter=50):
    """Project q onto {lambda = 0}; None if lost or the gradient collapses."""
    q = np.array([float(q[0]), float(q[1])])
    for _ in range(max_iter):
        lam, lu, lv = lambda_jets(front, q[0], q[1], order=1)
        if abs(lam) < tol * lam_scale:
            return q
        g2 = lu * lu + lv * lv
        if g2 < 1e-28:
            return None
        step = lam / g2
        q = q - step * np.array([lu, lv])
        if not np.all(np.isfinite(q)):
            return None
    return None


def _axis_newton(front, q, lam_scale, tol, axis):
    """Newton on lambda = 0 along the chart `axis` only; None if lost."""
    q = np.array([float(q[0]), float(q[1])])
    for _ in range(50):
        lam, lu, lv = lambda_jets(front, q[0], q[1], order=1)
        if abs(lam) < tol * lam_scale:
            return q
        d = np.eye(2)[axis]
        g2 = lu * d[0] + lv * d[1]
        if abs(g2) < 1e-28:
            return None
        step = lam / g2
        q = q - step * d
        if not np.all(np.isfinite(q)):
            return None
    return None


def _inside(dom, q, slack=0.0):
    """Whether q (or each row of q) lies in the domain, up to `slack`."""
    q = np.asarray(q)
    ok = np.ones(q.shape[:-1], dtype=bool)
    if not dom.periodic_u:
        ok &= (dom.u0 - slack <= q[..., 0]) & (q[..., 0] <= dom.u1 + slack)
    if not dom.periodic_v:
        ok &= (dom.v0 - slack <= q[..., 1]) & (q[..., 1] <= dom.v1 + slack)
    return ok


def _clip_to_boundary(front, q_in, q_out, dom, lam_scale):
    """Final on-boundary sample for a step that left a non-periodic axis:
    the crossed coordinate is pinned to the edge, Newton runs in the other."""
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        q = q_in + mid * (q_out - q_in)
        if _inside(dom, q):
            lo = mid
        else:
            hi = mid
    q = q_in + lo * (q_out - q_in)
    out = q_in + hi * (q_out - q_in)
    k = 0 if not (dom.periodic_u or dom.u0 <= out[0] <= dom.u1) else 1
    q[k] = min(max(out[k], (dom.u0, dom.v0)[k]), (dom.u1, dom.v1)[k])
    q = _axis_newton(front, q, lam_scale, 1e-10, 1 - k)
    if q is None or not _inside(dom, q, slack=1e-9 * dom.scale):
        return None
    return np.clip(
        q, [dom.u0, dom.v0], [dom.u1, dom.v1]
    ) if not (dom.periodic_u or dom.periodic_v) else q


def _tangent(front, q):
    _, lu, lv = lambda_jets(front, q[0], q[1], order=1)
    g = math.hypot(lu, lv)
    if g < 1e-14:
        return None
    return np.array([lv, -lu]) / g


def _march(front, q0, T0, cell, lam_scale, dom, max_steps):
    """Predictor-corrector continuation from q0 in direction T0."""
    pts = [np.array(q0)]
    q = np.array(q0)
    T = np.array(T0)
    h = 0.5 * cell
    h_min = 1e-9 * dom.scale
    closed = False
    travelled = 0.0
    for _ in range(max_steps):
        accepted = False
        while h >= h_min:
            cand = q + h * T
            qn = _newton(front, cand, lam_scale, tol=1e-10)
            if qn is None:
                h *= 0.5
                continue
            if not _inside(dom, qn):
                qb = _clip_to_boundary(front, q, qn, dom, lam_scale)
                if qb is not None and np.linalg.norm(qb - q) > 1e-12:
                    pts.append(qb)
                return pts, False
            if np.linalg.norm(qn - cand) > 0.75 * h + 1e-12:
                h *= 0.5
                continue
            Tn = _tangent(front, qn)
            if Tn is None:
                h *= 0.5
                continue
            if float(Tn @ T) < 0:
                Tn = -Tn
            if float(Tn @ T) < math.cos(0.2):
                h *= 0.5
                continue
            accepted = True
            break
        if not accepted:
            return pts, False
        step = np.linalg.norm(qn - q)
        travelled += step
        pts.append(qn)
        q, T = qn, Tn
        h = min(1.4 * h, cell)
        if travelled > 3.0 * cell:
            d = np.linalg.norm(_wrapped_delta(dom, q, pts[0]))
            if d < 0.9 * h:
                t0 = _tangent(front, pts[0])
                if t0 is not None and abs(float(T @ t0)) > 0.9:
                    closed = True
                    pts.pop()
                    break
    return pts, closed


def _seed_points(front, dom, grid, lam, uu, vv, lam_scale):
    """Newton-polished midpoints of grid edges where lambda changes sign."""
    seeds = []

    def edge(p0, l0, p1, l1):
        if not (np.isfinite(l0) and np.isfinite(l1)) or l0 * l1 > 0:
            return
        a, b = np.array(p0), np.array(p1)
        fa = l0
        for _ in range(25):
            m = 0.5 * (a + b)
            fm = lambda_value(front, m[0], m[1])
            if fa * fm <= 0:
                b = m
            else:
                a, fa = m, fm
        q = _newton(front, 0.5 * (a + b), lam_scale)
        if q is not None and _inside(dom, q, slack=0.5 * dom.scale / grid):
            seeds.append(q)

    nu_, nv_ = lam.shape
    for i in range(nu_):
        for j in range(nv_):
            if i + 1 < nu_:
                edge((uu[i, j], vv[i, j]), lam[i, j],
                     (uu[i + 1, j], vv[i + 1, j]), lam[i + 1, j])
            elif dom.periodic_u:
                edge((uu[i, j], vv[i, j]), lam[i, j],
                     (uu[i, j] + (dom.u1 - dom.u0) / nu_, vv[i, j]), lam[0, j])
            if j + 1 < nv_:
                edge((uu[i, j], vv[i, j]), lam[i, j],
                     (uu[i, j + 1], vv[i, j + 1]), lam[i, j + 1])
            elif dom.periodic_v:
                edge((uu[i, j], vv[i, j]), lam[i, j],
                     (uu[i, j], vv[i, j] + (dom.v1 - dom.v0) / nv_), lam[i, 0])
    seeds.sort(key=lambda p: (round(p[0], 9), round(p[1], 9)))
    kept = []
    min_gap = 0.25 * dom.scale / grid
    for s in seeds:
        if all(np.linalg.norm(_wrapped_delta(dom, s, k)) > min_gap for k in kept):
            kept.append(s)
    return kept


def _bisect_transversality(front, qa, qb, eta_ref, lam_scale):
    """Zero of det(T, eta) on the curve segment between qa and qb."""
    for _ in range(60):
        qm = _newton(front, 0.5 * (np.asarray(qa) + np.asarray(qb)), lam_scale)
        if qm is None:
            return None
        jf = front.jets(qm[0], qm[1], 1, 0)[0]
        eta, _ = _null_direction(jf)
        if float(eta @ eta_ref) < 0:
            eta = -eta
        T = _tangent(front, qm)
        if T is None:
            return None
        dm = _cross2(T, eta)
        if abs(dm) < 1e-10:
            return qm
        jfa = front.jets(qa[0], qa[1], 1, 0)[0]
        eta_a, _ = _null_direction(jfa)
        if float(eta_a @ eta_ref) < 0:
            eta_a = -eta_a
        Ta = _tangent(front, qa)
        da = _cross2(Ta, eta_a)
        if da * dm <= 0:
            qb = qm
        else:
            qa = qm
    return qm


def _eta_of(front, q):
    jf = front.jets(q[0], q[1], 1, 0)[0]
    eta, _ = _null_direction(jf)
    return eta


def central_rate(front, q, T, eta, h):
    """Central difference of det(T, eta) along the singular curve at q, over
    steps +-h and +-h/2 with one Richardson step.

    Each step goes along the unit tangent T, `_newton` brings it back onto
    lambda = 0, and the tangent and null direction there are turned to
    agree with T and eta; None if a step is lost.
    """

    def difference(h):
        dets = []
        for sgn in (-1.0, 1.0):
            qn = _newton(front, np.asarray(q) + sgn * h * np.asarray(T), 1.0)
            Tn = None if qn is None else _tangent(front, qn)
            if Tn is None:
                return None
            eta_n = _eta_of(front, qn)
            Tn = Tn if float(Tn @ T) >= 0 else -Tn
            eta_n = eta_n if float(eta_n @ eta) >= 0 else -eta_n
            dets.append(_cross2(Tn, eta_n))
        return (dets[1] - dets[0]) / (2.0 * h)

    d1, d2 = difference(h), difference(0.5 * h)
    if d1 is None or d2 is None:
        return None
    return (4.0 * d2 - d1) / 3.0


def _build_samples(front, pts, closed, lam_scale):
    """Classify every traced point with curve context and fill arclengths."""
    n = len(pts)
    etas = []
    dets = []
    prev_T = None
    prev_eta = None
    for q in pts:
        T = _tangent(front, q)
        if T is None:
            T = prev_T if prev_T is not None else np.array([1.0, 0.0])
        elif prev_T is not None and float(T @ prev_T) < 0:
            T = -T
        eta = _eta_of(front, q)
        if prev_eta is not None and float(eta @ prev_eta) < 0:
            eta = -eta
        elif prev_eta is None and _cross2(T, eta) < 0:
            eta = -eta
        etas.append(eta)
        dets.append(_cross2(T, eta))
        prev_T, prev_eta = T, eta

    inserts = []
    for i in range(n - 1):
        if dets[i] * dets[i + 1] < 0 and abs(dets[i]) > 1e-10 and abs(dets[i + 1]) > 1e-10:
            qs = _bisect_transversality(front, pts[i], pts[i + 1], etas[i], lam_scale)
            if qs is not None:
                inserts.append((i + 1, qs))
    if closed and n > 1 and dets[-1] * dets[0] < 0:
        qs = _bisect_transversality(front, pts[-1], pts[0], etas[-1], lam_scale)
        if qs is not None:
            inserts.append((n, qs))
    for offset, (idx, qs) in enumerate(inserts):
        pts.insert(idx + offset, np.asarray(qs))

    n = len(pts)
    raw = [classify(front, q) for q in pts]

    imgs = [image_point(front, q) for q in pts]
    s = [0.0]
    for i in range(1, n):
        s.append(s[-1] + float(np.linalg.norm(imgs[i] - imgs[i - 1])))
    out = []
    for i, p in enumerate(raw):
        st_sign = None
        if p.kind == SingularClass.SWALLOWTAIL:
            try:
                st_sign = swallowtail_sign(front, p)
            except FrontlabError:
                st_sign = None
        out.append(dataclasses.replace(p, s=s[i], swallowtail_sign=st_sign))
    return tuple(out)


def scalar_trace(front, grid=64, max_steps=20000):
    """`trace` with every step evaluated one point at a time."""
    dom = front.domain
    uu, vv = dom.grid(grid)
    lam_grid = lambda_value(front, uu, vv)
    lam_scale = max(1.0, float(np.nanmax(np.abs(lam_grid))))
    seeds = _seed_points(front, dom, grid, lam_grid, uu, vv, lam_scale)
    cell = min(dom.u1 - dom.u0, dom.v1 - dom.v0) / grid
    curves = []
    claimed = []
    for seed in seeds:
        if any(
            min(np.linalg.norm(_wrapped_delta(dom, row, seed)) for row in arr)
            < 1.5 * cell
            for arr in claimed
        ):
            continue
        T0 = _tangent(front, seed)
        if T0 is None:
            point = classify(front, seed)
            curves.append(SingularCurve(samples=(point,), closed=False, peaks=(0,)))
            claimed.append(np.array([seed]))
            continue
        fwd, closed = _march(front, seed, T0, cell, lam_scale, dom, max_steps)
        if closed:
            pts = fwd
        else:
            bwd, _ = _march(front, seed, -T0, cell, lam_scale, dom, max_steps)
            pts = list(reversed(bwd[1:])) + fwd
        if len(pts) < 2 and not closed:
            point = classify(front, seed)
            curves.append(
                SingularCurve(samples=(point,), closed=False,
                              peaks=(0,) if point.kind != SingularClass.CUSPIDAL_EDGE else ())
            )
            claimed.append(np.array([seed]))
            continue
        pts = list(_canonical_order(dom, pts, closed))
        samples = _build_samples(front, pts, closed, lam_scale)
        peaks = tuple(
            i for i, p in enumerate(samples)
            if p.kind != SingularClass.CUSPIDAL_EDGE
        )
        curves.append(SingularCurve(samples=samples, closed=closed, peaks=peaks))
        claimed.append(np.array([p.uv for p in samples]))
    curves.sort(key=lambda c: (c.samples[0].uv[0], c.samples[0].uv[1]))
    return curves


def pointwise_curvatures(front, u, v, eta):
    """kappa_s and kappa_nu at a cuspidal edge from third-order jets.

    The singular curve is parametrized by unit chart speed along
    T = (lambda_v, -lambda_u)/|grad lambda|; its image acceleration is
    Hess_f(T,T) + f_*(dT), with dT the curve derivative of the unit tangent.
    `eta` must already complete (T, eta) to a positive frame.
    """
    jf, jn = front.jets(u, v, 3, 2)
    lam, lam_u, lam_v, lam_uu, lam_uv, lam_vv = _lambda_blocks(jf, jn, 2)
    V = np.array([lam_v, -lam_u])
    nV = math.hypot(V[0], V[1])
    T = V / nV
    JV = np.array([[lam_uv, lam_vv], [-lam_uu, -lam_uv]])
    W = JV @ T
    Tdot = (W - T * float(T @ W)) / nV
    fu, fv = np.asarray(jf.f_u), np.asarray(jf.f_v)
    g1 = T[0] * fu + T[1] * fv
    hess = (
        T[0] * T[0] * np.asarray(jf.f_uu)
        + 2.0 * T[0] * T[1] * np.asarray(jf.f_uv)
        + T[1] * T[1] * np.asarray(jf.f_vv)
    )
    g2 = hess + Tdot[0] * fu + Tdot[1] * fv
    dlam_eta = lam_u * eta[0] + lam_v * eta[1]
    sgn = 1.0 if dlam_eta > 0 else -1.0
    speed = math.sqrt(float(g1 @ g1))
    kappa_s = sgn * float(det3(g1, g2, jn.value)) / speed**3
    kappa_nu = float(g2 @ np.asarray(jn.value)) / speed**2
    return kappa_s, kappa_nu
