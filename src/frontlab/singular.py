"""Singular sets of fronts: tracing, classification, and singular curvature.

The signed area density lambda = det(f_u, f_v, nu) vanishes exactly on the
singular set.  Where d(lambda) != 0 that set is a regular curve in the chart;
points on it are classified by the angle between the curve's tangent and the
kernel direction of df.

The tracer is batch-first: every step that is independent across points is
one array jet evaluation.  Seeding bisects all sign-changing edges of a grid
of lambda values together and Newton-polishes their midpoints as one masked
array.  Each traced curve then takes one array jet for the tangents and null
directions that locate swallowtail candidates, and one more, after those
are inserted, for the neighbour transversality rates, classification,
curvatures and arclengths.  Only the predictor-corrector march, which must
follow the curve step by step, and the bisection of each transversality sign
change run point by point.

Classification has one per-point decision (`_decide`) and curvature one
kernel (`_curvatures`); `classify` feeds both from scalar jets, `trace` from
a curve's arrays, and `integrate_kappa_s` calls the kernel on arrays of
quadrature nodes.  `singular_curvature` computes kappa_s independently, by
differencing exact tangents along the curve.
"""

import dataclasses
import enum
import math

import numpy as np

from .errors import FrontContractError, FrontlabError, InapplicableError, TraceError
from .front import det3, dot, lambda_value

# classification thresholds (relative; see docstrings for the normalizations)
TRANSVERSAL_TOL = 1e-6
DEGENERATE_TOL = 1e-8
RANK_TOL = 1e-6

# tracer limits: march steps per direction, and the image-arclength band
# (relative to the domain scale) around a peak whose cuspidal samples are
# flagged `near_peak`
_MAX_STEPS = 20000
_PEAK_GUARD = 1e-3


class SingularClass(enum.Enum):
    CUSPIDAL_EDGE = "CuspidalEdge"
    SWALLOWTAIL = "Swallowtail"
    NONDEGENERATE_PEAK_OTHER = "NondegeneratePeakOther"
    DEGENERATE = "Degenerate"


@dataclasses.dataclass(frozen=True)
class SingularPoint:
    uv: tuple
    lam: float
    grad_lambda: tuple
    null_dir: tuple
    singular_dir: tuple
    kind: SingularClass
    kappa_s: float
    kappa_nu: float
    transversality: float  # det(singular_dir, null_dir), both unit vectors
    density: float = math.nan  # kappa_s * |d(f o gamma)/dt|, unit chart speed
    s: float = math.nan  # image arclength along the owning curve
    near_peak: bool = False
    swallowtail_sign: int | None = None


@dataclasses.dataclass(frozen=True)
class SingularCurve:
    samples: tuple
    closed: bool
    peaks: tuple  # indices into samples with kind != CUSPIDAL_EDGE

    def __len__(self):
        return len(self.samples)


def _lambda_blocks(jf, jn, order):
    """lambda and its chart partials by the product rule over det(f_u,f_v,nu).

    Needs the map jet one order deeper than the result and the normal jet at
    the result's order.
    """
    nu = jn.value
    lam = det3(jf.f_u, jf.f_v, nu)
    if order == 0:
        return (lam,)
    lam_u = (
        det3(jf.f_uu, jf.f_v, nu)
        + det3(jf.f_u, jf.f_uv, nu)
        + det3(jf.f_u, jf.f_v, jn.f_u)
    )
    lam_v = (
        det3(jf.f_uv, jf.f_v, nu)
        + det3(jf.f_u, jf.f_vv, nu)
        + det3(jf.f_u, jf.f_v, jn.f_v)
    )
    if order == 1:
        return lam, lam_u, lam_v
    lam_uu = (
        det3(jf.f_uuu, jf.f_v, nu)
        + 2.0 * det3(jf.f_uu, jf.f_uv, nu)
        + 2.0 * det3(jf.f_uu, jf.f_v, jn.f_u)
        + det3(jf.f_u, jf.f_uuv, nu)
        + 2.0 * det3(jf.f_u, jf.f_uv, jn.f_u)
        + det3(jf.f_u, jf.f_v, jn.f_uu)
    )
    lam_uv = (
        det3(jf.f_uuv, jf.f_v, nu)
        + det3(jf.f_uu, jf.f_vv, nu)
        + det3(jf.f_uu, jf.f_v, jn.f_v)
        + det3(jf.f_u, jf.f_uvv, nu)
        + det3(jf.f_u, jf.f_uv, jn.f_v)
        + det3(jf.f_uv, jf.f_v, jn.f_u)
        + det3(jf.f_u, jf.f_vv, jn.f_u)
        + det3(jf.f_u, jf.f_v, jn.f_uv)
    )
    lam_vv = (
        det3(jf.f_uvv, jf.f_v, nu)
        + 2.0 * det3(jf.f_uv, jf.f_vv, nu)
        + 2.0 * det3(jf.f_uv, jf.f_v, jn.f_v)
        + det3(jf.f_u, jf.f_vvv, nu)
        + 2.0 * det3(jf.f_u, jf.f_vv, jn.f_v)
        + det3(jf.f_u, jf.f_v, jn.f_vv)
    )
    return lam, lam_u, lam_v, lam_uu, lam_uv, lam_vv


def lambda_jets(front, u, v, order=1):
    """Signed area density with chart partials up to `order` (0, 1, or 2)."""
    if order not in (0, 1, 2):
        raise ValueError(f"order must be 0, 1 or 2, got {order}")
    jf, jn = front.jets(u, v, order + 1, order)
    return _lambda_blocks(jf, jn, order)


def _cross2(a, b):
    return a[0] * b[1] - a[1] * b[0]


def _null_direction(jf):
    """Kernel direction of df and the singular values of (f_u f_v).

    Works point by point over any leading shape of the jet.
    """
    A = np.stack([jf.f_u, jf.f_v], axis=-1)
    _, sig, vt = np.linalg.svd(A, full_matrices=False)
    return vt[..., 1, :], sig


def _curvatures(jf, jn, blocks):
    """Singular curvature data at cuspidal edges from (3, 2)-order jets.

    The one curvature kernel: `classify` feeds it scalar jets, `trace` a
    whole curve's arrays and `integrate_kappa_s` arrays of Gauss nodes.
    `blocks` is `_lambda_blocks(jf, jn, 2)`.  The curve is parametrized by
    the chart-unit-speed tangent T = (lambda_v, -lambda_u)/|grad lambda|;
    its image velocity is g1 = f_* T and its image acceleration
    g2 = Hess_f(T, T) + f_* T', with T' the derivative of T along itself.
    Returns (density, kappa_s, kappa_nu, g1, g2), where the length density
    kappa_s |g1| stays bounded at peaks even as |g1| -> 0.
    """
    lam, lu, lv, luu, luv, lvv = blocks
    g = np.hypot(lu, lv)
    T0, T1 = lv / g, -lu / g
    jv0 = luv * T0 + lvv * T1
    jv1 = -luu * T0 - luv * T1
    s = T0 * jv0 + T1 * jv1
    Td0 = (jv0 - s * T0) / g
    Td1 = (jv1 - s * T1) / g
    g1 = jf.along((T0, T1))
    g2 = jf.along((T0, T1), 2) + Td0[..., None] * jf.f_u + Td1[..., None] * jf.f_v
    # null direction from the degenerate first fundamental form, oriented
    # so that (T, eta) is a positive chart frame
    E = dot(jf.f_u, jf.f_u)
    F = dot(jf.f_u, jf.f_v)
    G = dot(jf.f_v, jf.f_v)
    use_E = E >= G
    eta0 = np.where(use_E, -F, -G)
    eta1 = np.where(use_E, E, F)
    flip = np.sign(T0 * eta1 - T1 * eta0)
    sgn = np.sign(lu * eta0 + lv * eta1) * flip
    speed_sq = dot(g1, g1)
    density = sgn * det3(g1, g2, jn.value) / speed_sq
    kappa_s = density / np.sqrt(speed_sq)
    kappa_nu = dot(g2, jn.value) / speed_sq
    return density, kappa_s, kappa_nu, g1, g2


def _transversality_rate(front, uv, T, eta, delta):
    """Central difference of det(T, eta) along the singular curve.

    Walks +-delta along the curve (predictor along T, Newton back onto
    lambda = 0) keeping eta continuous, so the determinant is allowed to
    change sign; returns (rate, ok).
    """
    vals = []
    for sgn in (-1.0, 1.0):
        q = np.asarray(uv) + sgn * delta * np.asarray(T)
        hit = _newton(front, q, 1.0, tol=1e-12)
        if hit is None:
            return 0.0, False
        q, (lu, lv) = hit
        jf = front.map_jet(q[0], q[1], 1)
        eta_n, _ = _null_direction(jf)
        if float(eta_n @ np.asarray(eta)) < 0:
            eta_n = -eta_n
        g = math.hypot(lu, lv)
        if g == 0.0:
            return 0.0, False
        Tn = np.array([lv, -lu]) / g
        if float(Tn @ np.asarray(T)) < 0:
            Tn = -Tn
        vals.append(_cross2(Tn, eta_n))
    return (vals[1] - vals[0]) / (2.0 * delta), True


def _decide(front, u, v, lam, lam_u, lam_v, eta, sig, det_rate, rate_step,
            curvature):
    """Classify the singular point (u, v) from its first-order data.

    The one decision behind `classify` (scalar jets) and `trace` (a curve's
    arrays): `lam` and its gradient, the null direction `eta` of df and
    df's singular values `sig`.  `det_rate` is d/dt of
    det(singular_dir, null_dir) along the curve, or None to estimate it by
    stepping `rate_step` along the curve; `curvature()` returns
    (density, kappa_s, kappa_nu) and is called at cuspidal edges only.
    """
    if sig[0] > 0.0 and sig[1] / sig[0] > RANK_TOL:
        raise FrontContractError(
            f"point ({u:.6g}, {v:.6g}) is not singular: df has rank 2 "
            f"(singular values {sig[0]:.3e}, {sig[1]:.3e})"
        )
    lam, lam_u, lam_v = float(lam), float(lam_u), float(lam_v)
    grad = math.hypot(lam_u, lam_v)
    scale = max(1.0, float(sig[0]))
    if grad <= DEGENERATE_TOL * scale:
        return SingularPoint(
            uv=(u, v), lam=lam, grad_lambda=(lam_u, lam_v),
            null_dir=(float(eta[0]), float(eta[1])), singular_dir=(0.0, 0.0),
            kind=SingularClass.DEGENERATE, kappa_s=math.nan, kappa_nu=math.nan,
            transversality=math.nan,
        )
    T = (lam_v / grad, -lam_u / grad)
    eta = (float(eta[0]), float(eta[1]))
    if _cross2(T, eta) < 0.0:
        eta = (-eta[0], -eta[1])
    det_te = _cross2(T, eta)
    common = dict(
        uv=(u, v), lam=lam, grad_lambda=(lam_u, lam_v), null_dir=eta,
        singular_dir=T, transversality=det_te,
    )
    if abs(det_te) > TRANSVERSAL_TOL:
        density, kappa_s, kappa_nu = curvature()
        return SingularPoint(
            kind=SingularClass.CUSPIDAL_EDGE, kappa_s=float(kappa_s),
            kappa_nu=float(kappa_nu), density=float(density), **common,
        )
    if det_rate is None:
        delta = rate_step if rate_step is not None else 1e-4 * max(
            1.0, abs(u), abs(v)
        )
        det_rate, ok = _transversality_rate(
            front, (u, v), np.array(T), np.array(eta), delta
        )
        if not ok:
            det_rate = 0.0
    rank_one = sig[0] > RANK_TOL * scale
    if abs(det_rate) > TRANSVERSAL_TOL and rank_one:
        kind = SingularClass.SWALLOWTAIL
    else:
        kind = SingularClass.NONDEGENERATE_PEAK_OTHER
    return SingularPoint(
        kind=kind, kappa_s=-math.inf, kappa_nu=math.nan, **common
    )


def classify(front, uv, det_rate=None, rate_step=None):
    """Classify a singular point and, on cuspidal edges, attach curvatures.

    `det_rate`, when given, is the d/dt of det(singular_dir, null_dir) along
    an already-traced curve; otherwise it is estimated by stepping along the
    curve from scratch.  Thresholds are relative: the transversality
    determinant is between unit vectors, the degeneracy cutoff is scaled by
    the differential's largest singular value.  One scalar jet evaluation
    serves the decision and the curvatures.
    """
    u, v = float(uv[0]), float(uv[1])
    jf, jn = front.jets(u, v, 3, 2)
    blocks = _lambda_blocks(jf, jn, 2)
    eta, sig = _null_direction(jf)
    return _decide(
        front, u, v, *blocks[:3], eta, sig, det_rate, rate_step,
        lambda: _curvatures(jf, jn, blocks)[:3],
    )


# ---------------------------------------------------------------------------
# curve tracing


def _newton(front, q, lam_scale, tol=1e-12, max_iter=50, axis=None):
    """Project q onto {lambda = 0}, along grad lambda or the chart `axis`.

    Returns (q, (lambda_u, lambda_v)) with the gradient at the accepted
    point, or None if the iteration is lost or the gradient collapses.
    """
    q = np.array([float(q[0]), float(q[1])])
    for _ in range(max_iter):
        lam, lu, lv = lambda_jets(front, q[0], q[1], order=1)
        if abs(lam) < tol * lam_scale:
            return q, (lu, lv)
        d = np.array([lu, lv]) if axis is None else np.eye(2)[axis]
        g2 = lu * d[0] + lv * d[1]
        if abs(g2) < 1e-28:
            return None
        step = lam / g2
        q = q - step * d
        if not np.all(np.isfinite(q)):
            return None
    return None


def _newton_batch(front, Q, lam_scale, tol=1e-12, max_iter=50):
    """`_newton` on an (n, 2) array of points as one masked iteration.

    Each point gets the same arithmetic as in `_newton`; the points still
    iterating share one array jet evaluation per step.  Returns the final
    points and the mask of those that converged.
    """
    Q = np.array(Q, dtype=float)
    ok = np.zeros(len(Q), dtype=bool)
    todo = np.arange(len(Q))
    for _ in range(max_iter):
        if not todo.size:
            break
        lam, lu, lv = lambda_jets(front, Q[todo, 0], Q[todo, 1], order=1)
        done = np.abs(lam) < tol * lam_scale
        ok[todo[done]] = True
        g2 = lu * lu + lv * lv
        move = ~done & ~(g2 < 1e-28)
        idx = todo[move]
        step = lam[move] / g2[move]
        Q[idx, 0] = Q[idx, 0] - step * lu[move]
        Q[idx, 1] = Q[idx, 1] - step * lv[move]
        todo = idx[np.isfinite(Q[idx]).all(axis=1)]
    return Q, ok


def _unit_tangent(lu, lv):
    g = math.hypot(lu, lv)
    if g < 1e-14:
        return None
    return np.array([lv, -lu]) / g


def _tangent(front, q):
    _, lu, lv = lambda_jets(front, q[0], q[1], order=1)
    return _unit_tangent(lu, lv)


def _wrapped_delta(dom, a, b):
    """a - b over the last axis, periodic coordinates folded to the short way."""
    d = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    if dom.periodic_u:
        span = dom.u1 - dom.u0
        d[..., 0] = (d[..., 0] + 0.5 * span) % span - 0.5 * span
    if dom.periodic_v:
        span = dom.v1 - dom.v0
        d[..., 1] = (d[..., 1] + 0.5 * span) % span - 0.5 * span
    return d


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
    hit = _newton(front, q, lam_scale, tol=1e-10, axis=1 - k)
    if hit is None or not _inside(dom, hit[0], slack=1e-9 * dom.scale):
        return None
    q = hit[0]
    return np.clip(
        q, [dom.u0, dom.v0], [dom.u1, dom.v1]
    ) if not (dom.periodic_u or dom.periodic_v) else q


def _march(front, q0, T0, cell, lam_scale, dom):
    """Predictor-corrector continuation from q0 in direction T0.

    T0 must be the unit tangent at q0 (either orientation); it also decides
    whether the curve has come back to q0.
    """
    pts = [np.array(q0)]
    q = np.array(q0)
    T = np.array(T0)
    h = 0.5 * cell
    h_min = 1e-9 * dom.scale
    closed = False
    travelled = 0.0
    for _ in range(_MAX_STEPS):
        accepted = False
        while h >= h_min:
            cand = q + h * T
            hit = _newton(front, cand, lam_scale, tol=1e-10)
            if hit is None:
                h *= 0.5
                continue
            qn, grad = hit
            if not _inside(dom, qn):
                qb = _clip_to_boundary(front, q, qn, dom, lam_scale)
                if qb is not None and np.linalg.norm(qb - q) > 1e-12:
                    pts.append(qb)
                return pts, False
            if np.linalg.norm(qn - cand) > 0.75 * h + 1e-12:
                h *= 0.5
                continue
            Tn = _unit_tangent(*grad)
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
            return pts, False  # stalled: degenerate point or resolution floor
        step = np.linalg.norm(qn - q)
        travelled += step
        pts.append(qn)
        q, T = qn, Tn
        h = min(1.4 * h, cell)
        if travelled > 3.0 * cell:
            d = np.linalg.norm(_wrapped_delta(dom, q, pts[0]))
            if d < 0.9 * h and abs(float(T @ T0)) > 0.9:
                closed = True
                pts.pop()  # endpoint duplicates the start
                break
    return pts, closed


def _grid_edges(dom, lam, uu, vv):
    """Endpoints and lambda values of every grid edge, periodic ones too.

    Ordered as a sweep over grid nodes (i, j) that takes the u-edge, then
    the v-edge leaving each node.
    """
    nu_, nv_ = lam.shape
    P = np.stack([uu, vv], axis=-1)
    # u-edges (i, j) -> (i + 1, j); from the last row they exist only on a
    # periodic axis, and end one grid step past the node
    Pu = np.roll(P, -1, axis=0)
    Pu[-1] = P[-1]
    Pu[-1, :, 0] += (dom.u1 - dom.u0) / nu_
    ok_u = np.ones(lam.shape, dtype=bool)
    ok_u[-1] = dom.periodic_u
    Pv = np.roll(P, -1, axis=1)
    Pv[:, -1] = P[:, -1]
    Pv[:, -1, 1] += (dom.v1 - dom.v0) / nv_
    ok_v = np.ones(lam.shape, dtype=bool)
    ok_v[:, -1] = dom.periodic_v
    P0 = np.repeat(P.reshape(-1, 2), 2, axis=0)
    L0 = np.repeat(lam.ravel(), 2)
    P1 = np.stack([Pu, Pv], axis=2).reshape(-1, 2)
    L1 = np.stack([np.roll(lam, -1, axis=0), np.roll(lam, -1, axis=1)], axis=2).ravel()
    keep = np.stack([ok_u, ok_v], axis=2).ravel()
    return P0[keep], L0[keep], P1[keep], L1[keep]


def _seed_points(front, dom, grid, lam, uu, vv, lam_scale):
    """Newton-polished midpoints of grid edges where lambda changes sign.

    All sign-changing edges are bisected together, 25 array evaluations of
    lambda in all, and their midpoints are polished by one masked Newton
    iteration.
    """
    a, fa, b, fb = _grid_edges(dom, lam, uu, vv)
    change = np.isfinite(fa) & np.isfinite(fb) & ~(fa * fb > 0)
    a, fa, b = a[change], fa[change], b[change]
    for _ in range(25):
        m = 0.5 * (a + b)
        fm = lambda_value(front, m[:, 0], m[:, 1])
        left = fa * fm <= 0
        b = np.where(left[:, None], m, b)
        a = np.where(left[:, None], a, m)
        fa = np.where(left, fa, fm)
    Q, ok = _newton_batch(front, 0.5 * (a + b), lam_scale)
    ok &= _inside(dom, Q, slack=0.5 * dom.scale / grid)
    seeds = sorted(Q[ok], key=lambda p: (round(p[0], 9), round(p[1], 9)))
    kept = []
    min_gap = 0.25 * dom.scale / grid
    for s in seeds:
        if not kept or _distances(dom, kept, s).min() > min_gap:
            kept.append(s)
    return kept


def _distances(dom, rows, q):
    return np.linalg.norm(_wrapped_delta(dom, rows, q), axis=-1)


def _oriented_det(front, q, T, eta_ref):
    """det(T, eta) at q with the null direction eta aligned to `eta_ref`."""
    eta, _ = _null_direction(front.map_jet(q[0], q[1], 1))
    if float(eta @ eta_ref) < 0:
        eta = -eta
    return _cross2(T, eta)


def _bisect_transversality(front, qa, qb, eta_ref, lam_scale):
    """Zero of det(T, eta) on the curve segment between qa and qb."""
    Ta = _tangent(front, qa)
    if Ta is None:
        return None
    da = _oriented_det(front, qa, Ta, eta_ref)
    for _ in range(60):
        hit = _newton(front, 0.5 * (np.asarray(qa) + np.asarray(qb)), lam_scale)
        if hit is None:
            return None
        qm, grad = hit
        T = _unit_tangent(*grad)
        if T is None:
            return None
        dm = _oriented_det(front, qm, T, eta_ref)
        if abs(dm) < 1e-10:
            return qm
        if da * dm <= 0:
            qb = qm
        else:
            qa, da = qm, dm
    return qm


def _image_point(front, q):
    return front.map_jet(q[0], q[1], 1).value


def trace(front, grid=64):
    """Find all singular curves of `front` on its domain.

    Marching-squares sign changes of lambda on a `grid` x `grid` sample seed
    Newton projections onto the zero set; predictor-corrector continuation
    follows each curve to closure, the domain boundary, or a degenerate
    point.  Swallowtail candidates between samples are located by bisecting
    the transversality determinant.  Isolated degenerate zeros come back as
    single-sample curves.
    """
    if grid < 16:
        raise ValueError(f"grid must be at least 16 per axis, got {grid}")
    dom = front.domain
    uu, vv = dom.grid(grid)
    lam_grid = lambda_value(front, uu, vv)
    lam_scale = max(1.0, float(np.nanmax(np.abs(lam_grid))))
    seeds = _seed_points(front, dom, grid, lam_grid, uu, vv, lam_scale)
    cell = min(dom.u1 - dom.u0, dom.v1 - dom.v0) / grid
    curves = []
    claimed = np.empty((0, 2))  # traced samples, for seed deduplication
    for seed in seeds:
        if len(claimed) and _distances(dom, claimed, seed).min() < 1.5 * cell:
            continue
        T0 = _tangent(front, seed)
        if T0 is None:
            point = classify(front, seed)
            curves.append(SingularCurve(samples=(point,), closed=False, peaks=(0,)))
            claimed = np.vstack([claimed, seed])
            continue
        fwd, closed = _march(front, seed, T0, cell, lam_scale, dom)
        if closed:
            pts = fwd
        else:
            bwd, _ = _march(front, seed, -T0, cell, lam_scale, dom)
            pts = list(reversed(bwd[1:])) + fwd
        if len(pts) < 2 and not closed:
            point = classify(front, seed)
            curves.append(
                SingularCurve(samples=(point,), closed=False,
                              peaks=(0,) if point.kind != SingularClass.CUSPIDAL_EDGE else ())
            )
            claimed = np.vstack([claimed, seed])
            continue
        pts = _canonical_order(dom, pts, closed)
        samples = _build_samples(front, dom, pts, closed, lam_scale)
        peaks = tuple(
            i for i, p in enumerate(samples)
            if p.kind != SingularClass.CUSPIDAL_EDGE
        )
        curves.append(SingularCurve(samples=samples, closed=closed, peaks=peaks))
        claimed = np.vstack([claimed, [p.uv for p in samples]])
    curves.sort(key=lambda c: (c.samples[0].uv[0], c.samples[0].uv[1]))
    return curves


def _canonical_order(dom, pts, closed):
    """Deterministic start point and direction, independent of the seed."""
    pts = [np.array(dom.wrap(p[0], p[1])) for p in pts]
    if closed:
        k = min(range(len(pts)), key=lambda i: (round(pts[i][0], 9), round(pts[i][1], 9)))
        pts = pts[k:] + pts[:k]
        if len(pts) > 2 and tuple(pts[1]) > tuple(pts[-1]):
            pts = [pts[0]] + list(reversed(pts[1:]))
    else:
        if tuple(np.round(pts[0], 9)) > tuple(np.round(pts[-1], 9)):
            pts = list(reversed(pts))
    return pts


def _swallowtail_inserts(front, pts, closed, lam_scale):
    """Transversality zeros between consecutive samples, as (index, point).

    The tangents and null directions of all samples come from one array
    jet evaluation; each is flipped to continue its predecessor, so the
    determinant det(T, eta) may change sign along the curve.
    """
    P = np.array(pts)
    jf, jn = front.jets(P[:, 0], P[:, 1], 2, 1)
    _, lu, lv = _lambda_blocks(jf, jn, 1)
    eta_raw, _ = _null_direction(jf)
    etas, dets = [], []
    prev_T = prev_eta = None
    for lu_i, lv_i, eta in zip(lu.tolist(), lv.tolist(), eta_raw):
        T = _unit_tangent(lu_i, lv_i)
        if T is None:
            T = prev_T if prev_T is not None else np.array([1.0, 0.0])
        elif prev_T is not None and float(T @ prev_T) < 0:
            T = -T
        if prev_eta is not None and float(eta @ prev_eta) < 0:
            eta = -eta
        elif prev_eta is None and _cross2(T, eta) < 0:
            eta = -eta
        etas.append(eta)
        dets.append(_cross2(T, eta))
        prev_T, prev_eta = T, eta
    n = len(pts)
    pairs = [
        (i, i + 1) for i in range(n - 1)
        if dets[i] * dets[i + 1] < 0 and abs(dets[i]) > 1e-10 and abs(dets[i + 1]) > 1e-10
    ]
    if closed and n > 1 and dets[-1] * dets[0] < 0:
        pairs.append((n - 1, 0))
    inserts = []
    for i, j in pairs:
        qs = _bisect_transversality(front, pts[i], pts[j], etas[i], lam_scale)
        if qs is not None:
            inserts.append((i + 1, qs))
    return inserts


def _neighbour_rates(dom, P, lu, lv, eta, closed):
    """d/dt of det(T, eta) at each sample from its two neighbours.

    Central differences over the chart distance between the neighbours,
    with each neighbour's |det(T, eta)| signed by whether its null
    direction agrees with the sample's.  Returns the rates and the mask of
    samples whose neighbours both have a tangent and do not coincide.
    """
    n = len(P)
    i = np.arange(n)
    if closed:
        lo, hi = (i - 1) % n, (i + 1) % n
    else:
        lo, hi = np.maximum(i - 1, 0), np.minimum(i + 1, n - 1)
    dt = np.linalg.norm(_wrapped_delta(dom, P[hi], P[lo]), axis=-1)
    g = np.hypot(lu, lv)
    valid = (dt > 0) & (g[lo] >= 1e-14) & (g[hi] >= 1e-14)
    with np.errstate(divide="ignore", invalid="ignore"):
        cross = _cross2((lv / g, -lu / g), (eta[:, 0], eta[:, 1]))
        det = np.where(cross < 0, -cross, cross)
        ra = np.where(dot(eta[lo], eta) >= 0, det[lo], -det[lo])
        rb = np.where(dot(eta[hi], eta) >= 0, det[hi], -det[hi])
        return (rb - ra) / dt, valid


def _build_samples(front, dom, pts, closed, lam_scale):
    """Classify every traced point with curve context and fill arclengths.

    One array jet evaluation of the whole curve (after swallowtail points
    are inserted) feeds the neighbour transversality rates, the per-point
    decision, the curvature kernel and the image arclengths.
    """
    for offset, (idx, qs) in enumerate(
        _swallowtail_inserts(front, pts, closed, lam_scale)
    ):
        pts.insert(idx + offset, np.asarray(qs))
    P = np.array(pts)
    jf, jn = front.jets(P[:, 0], P[:, 1], 3, 2)
    blocks = _lambda_blocks(jf, jn, 2)
    lam, lu, lv = blocks[:3]
    eta, sig = _null_direction(jf)
    rates, has_rate = _neighbour_rates(dom, P, lu, lv, eta, closed)
    with np.errstate(divide="ignore", invalid="ignore"):
        curv = np.stack(_curvatures(jf, jn, blocks)[:3], axis=-1)
    raw = [
        _decide(front, float(P[i, 0]), float(P[i, 1]), lam[i], lu[i], lv[i],
                eta[i], sig[i], float(rates[i]) if has_rate[i] else None,
                None, lambda i=i: curv[i])
        for i in range(len(P))
    ]

    # image arclength and peak guard flags
    seg = np.linalg.norm(np.diff(jf.value, axis=0), axis=-1)
    s = np.concatenate([[0.0], np.cumsum(seg)])
    cusp = np.array([p.kind == SingularClass.CUSPIDAL_EDGE for p in raw])
    guard = _PEAK_GUARD * dom.scale
    near = cusp & (np.abs(s[:, None] - s[None, ~cusp]) < guard).any(axis=1)
    out = []
    for i, p in enumerate(raw):
        st_sign = None
        if p.kind == SingularClass.SWALLOWTAIL:
            try:
                st_sign = swallowtail_sign(front, p)
            except FrontlabError:
                st_sign = None
        out.append(dataclasses.replace(p, s=float(s[i]), near_peak=bool(near[i]),
                                       swallowtail_sign=st_sign))
    return tuple(out)


# ---------------------------------------------------------------------------
# curvature along traced curves


def singular_curvature(front, point, h=None):
    """Singular curvature by differencing exact unit tangents along the curve.

    Independent route from the jet formula in `classify`: the image
    acceleration is a second-order central difference of exact image unit
    tangents at arclength offsets +-h, +-h/2 with one Richardson step.
    """
    if point.kind != SingularClass.CUSPIDAL_EDGE:
        raise InapplicableError(
            f"singular curvature along the curve needs a cuspidal edge, "
            f"got {point.kind.value}"
        )
    q0 = np.asarray(point.uv, dtype=float)
    T0 = np.asarray(point.singular_dir, dtype=float)
    scale = front.domain.scale
    if h is None:
        h = 1e-3 * scale
    lam_scale = 1.0
    jf0, jn0 = front.jets(q0[0], q0[1], 1, 0)
    img0 = jf0.value
    tau = jf0.along(T0)
    speed = np.linalg.norm(tau)

    def tangent_at(ds):
        # land on the curve at image distance |ds| from q0 (secant on the step)
        t = ds / max(speed, 1e-12)
        for _ in range(4):
            hit = _newton(front, q0 + t * T0, lam_scale)
            if hit is None:
                raise TraceError("lost the curve while differencing tangents")
            q, grad = hit
            d = float(np.linalg.norm(_image_point(front, q) - img0))
            if abs(d - abs(ds)) < 1e-12 * max(1.0, abs(ds)):
                break
            t *= abs(ds) / max(d, 1e-300)
        T = _unit_tangent(*grad)
        if T is None:
            raise TraceError("degenerate point while differencing tangents")
        if float(T @ T0) < 0:
            T = -T
        g1 = front.map_jet(q[0], q[1], 1).along(T)
        return g1 / np.linalg.norm(g1)

    def second_diff(step):
        return (tangent_at(step) - tangent_at(-step)) / (2.0 * step)

    d1 = second_diff(h)
    d2 = second_diff(0.5 * h)
    dtau = (4.0 * d2 - d1) / 3.0
    eta = np.asarray(point.null_dir, dtype=float)
    dlam_eta = point.grad_lambda[0] * eta[0] + point.grad_lambda[1] * eta[1]
    sgn = 1.0 if dlam_eta > 0 else -1.0
    return sgn * float(det3(tau / speed, dtau, jn0.value))


def singular_curvature_intrinsic(front, u, variant="E_vv"):
    """Singular curvature at (u, 0) from first-fundamental-form data only.

    Requires an adapted chart: the u-axis is the singular curve and the null
    direction there is vertical.  `variant` selects which second-order metric
    term closes the formula ("E_vv" or "E_v"); the cross-check against the
    extrinsic value is the arbiter between the two printed forms.
    """
    if variant not in ("E_vv", "E_v"):
        raise ValueError(f"variant must be 'E_vv' or 'E_v', got {variant!r}")
    u = float(u)
    lam, lam_u, lam_v = lambda_jets(front, u, 0.0, order=1)
    jf, jn = front.jets(u, 0.0, 3, 1)
    eta, sig = _null_direction(jf)
    scale = max(1.0, float(sig[0]))
    if abs(lam) > 1e-8 * scale or abs(eta[0]) > 1e-6:
        raise InapplicableError(
            f"chart is not adapted at u={u:.6g}: lambda={lam:.3e}, "
            f"null direction ({eta[0]:.3e}, {eta[1]:.3e}) not vertical"
        )
    fu, fv = jf.f_u, jf.f_v
    fuu, fuv, fvv = jf.f_uu, jf.f_uv, jf.f_vv
    fuuv, fuvv = jf.f_uuv, jf.f_uvv
    E = float(fu @ fu)
    E_u = 2.0 * float(fuu @ fu)
    F_v = float(fuv @ fv) + float(fu @ fvv)
    F_uv = (
        float(fuuv @ fv) + float(fuv @ fuv) + float(fuu @ fvv) + float(fu @ fuvv)
    )
    if variant == "E_vv":
        tail = 2.0 * float(fuvv @ fu) + 2.0 * float(fuv @ fuv)
    else:
        tail = 2.0 * float(fuv @ fu)
    return (-F_v * E_u + 2.0 * E * F_uv - E * tail) / (
        2.0 * E**1.5 * lam_v
    )


def kappa_s_measure(front, curve):
    """Length density of the singular curvature per traced sample.

    Density = kappa_s * |image speed| with respect to the chart-unit-speed
    curve parameter, as the curvature kernel left it on each cuspidal
    sample; finite and continuous across non-degenerate peaks, where the
    stored samples carry no value and the neighbor average fills in.  An
    open curve's end samples have one neighbour; a closed curve wraps.
    """
    vals = [
        p.density if p.kind == SingularClass.CUSPIDAL_EDGE else math.nan
        for p in curve.samples
    ]
    out = np.array(vals)
    n = len(out)
    for i in range(n):
        if math.isnan(out[i]):
            near = (i - 1, i + 1)
            if curve.closed:
                near = [j % n for j in near]
            neighbors = [
                out[j] for j in near if 0 <= j < n and not math.isnan(out[j])
            ]
            if neighbors:
                out[i] = float(np.mean(neighbors))
    return out


@dataclasses.dataclass(frozen=True)
class NormalCurvature:
    value: float
    generic: bool


def limiting_normal_curvature(front, point, tol=1e-8):
    """Normal part of the image acceleration; nonzero exactly when generic."""
    if point.kind != SingularClass.CUSPIDAL_EDGE:
        raise InapplicableError(
            f"limiting normal curvature needs a cuspidal edge, got "
            f"{point.kind.value}"
        )
    value = point.kappa_nu
    return NormalCurvature(value=value, generic=abs(value) > tol)


# ---------------------------------------------------------------------------
# half-space signs and the tail of a swallowtail


@dataclasses.dataclass(frozen=True)
class HalfSpaceSigns:
    sgn_Delta: int
    sgn_0: int
    predicted_K_sign: int


def _side_normal(point):
    T = point.singular_dir
    return np.array([-T[1], T[0]])


def _edge_sign_delta(front, point, side):
    """sgn_Delta at a cuspidal edge: -g0((eta d)^2 f, (eta d) nu) with eta
    stepping into the requested side."""
    eta = np.asarray(point.null_dir, dtype=float)
    n = _side_normal(point)
    if float(eta @ n) * side < 0:
        eta = -eta
    jf, jn = front.jets(point.uv[0], point.uv[1], 2, 1)
    val = -float(jf.along(eta, 2) @ jn.along(eta))
    if val == 0.0:
        raise InapplicableError("half-space sign degenerate: second form flat")
    return 1 if val > 0 else -1


def _probe_sign_delta(front, point, side, t):
    """Independent probe: is nu the outward normal of the side's image?"""
    eta = np.asarray(point.null_dir, dtype=float)
    n = _side_normal(point)
    if float(eta @ n) * side < 0:
        eta = -eta
    q = np.asarray(point.uv, dtype=float)
    p_in = q + t * eta
    p_out = q - t * eta
    jf_in, jn_in = front.jets(p_in[0], p_in[1], 0, 0)
    jf_out = front.map_jet(p_out[0], p_out[1], 0)
    val = -float(jn_in.value @ (jf_out.value - jf_in.value))
    return 1 if val > 0 else -1


def half_space_signs(front, point, side):
    """Sign bookkeeping that predicts the sign of K beside the curve.

    `side` is +1 for the side the rotated tangent (-T_v, T_u) points into,
    -1 for the other; at a swallowtail +1 means the tail side.  Requires the
    point to be generic (nonvanishing second fundamental form data).
    """
    if side not in (1, -1):
        raise ValueError(f"side must be +1 or -1, got {side}")
    if point.kind == SingularClass.CUSPIDAL_EDGE:
        if abs(point.kappa_nu) < 1e-10:
            raise InapplicableError(
                "cuspidal edge is not generic: limiting normal curvature is 0"
            )
        sgn_0 = 1 if point.kappa_nu > 0 else -1
        sgn_d = _edge_sign_delta(front, point, side)
        return HalfSpaceSigns(sgn_Delta=sgn_d, sgn_0=sgn_0,
                              predicted_K_sign=sgn_0 * sgn_d)
    if point.kind == SingularClass.SWALLOWTAIL:
        return _swallowtail_signs(front, point, side)
    raise InapplicableError(
        f"half-space signs need a cuspidal edge or swallowtail, got "
        f"{point.kind.value}"
    )


def _swallowtail_signs(front, point, side):
    jf, jn = front.jets(point.uv[0], point.uv[1], 2, 0)
    eta = np.asarray(point.null_dir, dtype=float)
    X = np.array([-eta[1], eta[0]])  # transversal to the singular direction
    val = float(jf.along(X, 2) @ jn.value)
    if abs(val) < 1e-10:
        raise InapplicableError("swallowtail is not generic: second form flat")
    sgn_0 = 1 if val > 0 else -1
    tail = tail_side(front, point)
    want_side = tail.lambda_sign if side == 1 else -tail.lambda_sign
    sgn_d = _swallowtail_sign_delta(front, point, want_side)
    return HalfSpaceSigns(sgn_Delta=sgn_d, sgn_0=sgn_0,
                          predicted_K_sign=sgn_0 * sgn_d)


def _swallowtail_sign_delta(front, point, lambda_side):
    """Limit of the edge sign from nearby cuspidal edges, into the region
    where sgn(lambda) = lambda_side."""
    q0 = np.asarray(point.uv, dtype=float)
    T = np.asarray(point.singular_dir, dtype=float)
    scale = front.domain.scale
    votes = []
    for delta in (5e-3 * scale, 1e-2 * scale):
        for sgn in (-1.0, 1.0):
            hit = _newton(front, q0 + sgn * delta * T, 1.0)
            if hit is None:
                continue
            q = hit[0]
            try:
                nb = classify(front, q)
            except FrontContractError:
                continue
            if nb.kind != SingularClass.CUSPIDAL_EDGE:
                continue
            n = _side_normal(nb)
            probe = np.asarray(nb.uv) + 1e-4 * scale * n
            lam_side = lambda_value(front, probe[0], probe[1])
            side = 1 if math.copysign(1.0, lam_side) == lambda_side else -1
            try:
                votes.append(_edge_sign_delta(front, nb, side))
            except InapplicableError:
                continue
    if not votes or len(set(votes)) != 1:
        raise FrontlabError(
            f"half-space sign at the swallowtail is inconsistent across "
            f"neighbors: votes {votes}"
        )
    return votes[0]


@dataclasses.dataclass(frozen=True)
class TailSide:
    lambda_sign: int  # sign of lambda on the chart side whose image is the tail
    alpha_plus: float  # interior angle of the positive side's image: 0 or 2*pi
    st_sign: int  # +1 for a positive swallowtail (alpha_plus = 2*pi)


def tail_side(front, point, radius=None, samples=256):
    """Find which side of the chart maps to the tail of a swallowtail.

    Sweeps a parameter circle, projects the image displacements into the
    plane spanned by the rank direction and the lowest nonvanishing
    higher-order direction, and measures the angle swept on each
    lambda-side: the tail's image pinches to interior angle ~0, the other
    side opens to ~2*pi.
    """
    if point.kind != SingularClass.SWALLOWTAIL:
        raise InapplicableError("tail side is defined at swallowtails only")
    q0 = np.asarray(point.uv, dtype=float)
    scale = front.domain.scale
    r = radius if radius is not None else 1e-2 * scale
    jf, jn = front.jets(q0[0], q0[1], 3, 0)
    eta = np.asarray(point.null_dir, dtype=float)
    X = np.array([-eta[1], eta[0]])
    e1 = jf.along(X)
    e1 = e1 / np.linalg.norm(e1)
    e2 = None
    for c in (jf.along(eta, 2), jf.along(eta, 3)):
        w = c - float(c @ e1) * e1
        if np.linalg.norm(w) > 1e-8 * max(1.0, np.linalg.norm(c)):
            e2 = w / np.linalg.norm(w)
            break
    if e2 is None:
        raise FrontlabError("could not span the limiting tangent plane")
    img0 = _image_point(front, q0)

    def sweep_angles(theta):
        pts_u = q0[0] + r * np.cos(theta)
        pts_v = q0[1] + r * np.sin(theta)
        lam = lambda_value(front, pts_u, pts_v)
        disp = front.map_jet(pts_u, pts_v, 0).value - img0
        return lam, np.arctan2(disp @ e2, disp @ e1)

    for _ in range(3):
        theta = np.linspace(0.0, 2.0 * math.pi, samples, endpoint=False)
        lam, beta = sweep_angles(theta)
        # the image angle can burn through its whole sweep inside a
        # narrow parameter window (adapted charts concentrate the wrap
        # near the crossings), so densify until each step is resolved
        for _ in range(12):
            step = np.angle(np.exp(1j * np.diff(beta, append=beta[:1])))
            coarse = np.abs(step) > 0.15
            if not coarse.any() or len(theta) > 16384:
                break
            left = np.nonzero(coarse)[0]
            right = (left + 1) % len(theta)
            gap = (theta[right] - theta[left]) % (2.0 * math.pi)
            mids = (theta[left] + 0.5 * gap) % (2.0 * math.pi)
            theta = np.sort(np.concatenate([theta, mids]))
            lam, beta = sweep_angles(theta)
        spans = {}
        ok = True
        for sign in (1, -1):
            mask = np.sign(lam) == sign
            if not mask.any():
                ok = False
                break
            # rotate so the arc is contiguous in theta
            idx = np.nonzero(mask)[0]
            n = len(theta)
            if idx[0] == 0 and idx[-1] == n - 1 and not mask.all():
                k = np.nonzero(~mask)[0][-1] + 1
                order = np.concatenate([np.arange(k, n), np.arange(0, k)])
                arc = order[mask[order]]
            else:
                arc = idx
            turns = np.angle(np.exp(1j * np.diff(beta[arc])))
            spans[sign] = float(np.abs(turns).sum())
        if ok and len(spans) == 2:
            small = min(spans, key=spans.get)
            big = -small
            if spans[small] < math.pi < spans[big]:
                alpha_plus = 0.0 if small == 1 else 2.0 * math.pi
                return TailSide(
                    lambda_sign=small,
                    alpha_plus=alpha_plus,
                    st_sign=1 if alpha_plus > math.pi else -1,
                )
        r *= 0.25
    raise FrontlabError(
        "tail-side sweep is ambiguous: image spans do not separate at "
        f"radius {r / 0.25**3:.3e} and below"
    )


def swallowtail_sign(front, point, radius=None):
    """+1 for a positive swallowtail (the positive side's image wraps 2*pi,
    i.e. the tail is carried by the negative side), else -1."""
    return tail_side(front, point, radius=radius).st_sign


def sign_meaning_check(front, point, tol=1e-10):
    """Does the null curve bend the same way the singular curve does?

    Compares sgn g0(sigma''(0), k(0)) with sgn kappa_s, where sigma is the
    straight null line in the chart and k the curvature vector of the
    singular image curve.
    """
    if point.kind != SingularClass.CUSPIDAL_EDGE:
        raise InapplicableError("sign comparison needs a cuspidal edge")
    if not math.isfinite(point.kappa_s) or abs(point.kappa_s) < tol:
        raise InapplicableError(
            f"singular curvature {point.kappa_s:.3e} too small to carry a sign"
        )
    eta = np.asarray(point.null_dir, dtype=float)
    jf, jn = front.jets(point.uv[0], point.uv[1], 3, 2)
    sigma_dd = jf.along(eta, 2)
    _, _, _, g1, g2 = _curvatures(jf, jn, _lambda_blocks(jf, jn, 2))
    speed2 = float(g1 @ g1)
    k_vec = (g2 - (float(g2 @ g1) / speed2) * g1) / speed2
    val = float(sigma_dd @ k_vec)
    lhs = 1 if val > 0 else -1
    rhs = 1 if point.kappa_s > 0 else -1
    return {"null_side": lhs, "kappa_s_side": rhs, "consistent": lhs == rhs}


def peak_arc_count(front, uv, radius=None, samples=720):
    """Half the number of lambda sign changes on a small parameter circle."""
    u, v = float(uv[0]), float(uv[1])
    scale = front.domain.scale
    r = radius if radius is not None else 1e-2 * scale
    theta = np.linspace(0.0, 2.0 * math.pi, samples, endpoint=False)
    lam = lambda_value(front, u + r * np.cos(theta), v + r * np.sin(theta))
    signs = np.sign(lam)
    signs = signs[signs != 0]
    if signs.size == 0:
        raise FrontlabError("lambda vanishes on the whole probe circle")
    changes = int(np.sum(signs != np.roll(signs, 1)))
    if changes == 0:
        raise FrontlabError(
            f"no singular arcs within radius {r:.3e} of ({u:.6g}, {v:.6g})"
        )
    if changes % 2 == 1:
        raise FrontlabError(
            f"odd sign-change count {changes} on the probe circle; "
            "try a smaller radius"
        )
    return changes // 2


# ---------------------------------------------------------------------------
# export


CSV_COLUMNS = (
    "u", "v", "s", "class", "lambda", "lambda_u", "lambda_v",
    "eta_u", "eta_v", "kappa_s", "kappa_nu", "density",
)


def _curve_rows(front, curve):
    density = kappa_s_measure(front, curve)
    rows = []
    for p, d in zip(curve.samples, density):
        rows.append(
            {
                "u": p.uv[0], "v": p.uv[1], "s": p.s, "class": p.kind.value,
                "lambda": p.lam, "lambda_u": p.grad_lambda[0],
                "lambda_v": p.grad_lambda[1], "eta_u": p.null_dir[0],
                "eta_v": p.null_dir[1], "kappa_s": p.kappa_s,
                "kappa_nu": p.kappa_nu, "density": float(d),
            }
        )
    return rows


def curve_to_csv(front, curve):
    """One CSV row per sample; floats via repr for reproducible output."""
    lines = [",".join(CSV_COLUMNS)]
    for row in _curve_rows(front, curve):
        lines.append(
            ",".join(
                row["class"] if c == "class" else repr(float(row[c]))
                for c in CSV_COLUMNS
            )
        )
    return "\n".join(lines) + "\n"


def curve_to_dict(front, curve):
    """JSON-ready digest of a traced curve."""
    return {
        "closed": curve.closed,
        "peaks": list(curve.peaks),
        "samples": _curve_rows(front, curve),
    }
