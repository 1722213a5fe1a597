"""Singular sets of fronts: tracing, classification, and singular curvature.

The signed area density lambda = det(f_u, f_v, nu) vanishes exactly on the
singular set.  Where d(lambda) != 0 that set is a regular curve in the chart;
points on it are classified by the angle between the curve's tangent and the
kernel direction of df.

The tracer contours the singular set from a grid of lambda values
(marching squares): one masked bisection places the crossings on the grid
edges, each crossed cell links its two crossings into a chain, and array
rounds insert projected midpoints until the samples resolve the curve.
Each traced curve then takes one array jet for the tangents and null
directions that locate swallowtail candidates, one masked bisection for
all of them, and one more array jet, after they are inserted, for the
neighbour transversality rates, classification, curvatures and arclengths.

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
from .front import columns, det3, dot, lambda_value, spread, stack

# classification thresholds (relative; see docstrings for the normalizations)
TRANSVERSAL_TOL = 1e-6
DEGENERATE_TOL = 1e-8
RANK_TOL = 1e-6

# tracer settings: Newton steps of a projection onto lambda = 0, halvings
# of a bracket (2^-64 of its width, or its last bit), the largest tangent
# turn between neighbouring samples (radians) and rounds of refinement;
# and the image-arclength band (relative to the domain scale) around a peak
# whose cuspidal samples are flagged `near_peak`
_PROJECT_ITERS = 8
_BISECT_ROUNDS = 64
_TURN = 0.2
_REFINE_ROUNDS = 40
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
    return tuple(spread(x, u, v) for x in _lambda_blocks(jf, jn, order))


def _cross2(a, b):
    return a[0] * b[1] - a[1] * b[0]


def _dot2(a, b):
    return a[0] * b[0] + a[1] * b[1]


def _null_direction(jf):
    """Kernel direction of df and the singular values of (f_u f_v).

    Works point by point over any leading shape of the jet.
    """
    _, sig, vt = np.linalg.svd(columns(jf.f_u, jf.f_v), full_matrices=False)
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
    g2 = tuple(a + Td0 * b + Td1 * c
               for a, b, c in zip(jf.along((T0, T1), 2), jf.f_u, jf.f_v))
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
        hit = _newton(front, q)
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


def _newton(front, q, tol=1e-12, max_iter=50):
    """Project q onto {lambda = 0} along grad lambda.

    Returns (q, (lambda_u, lambda_v)) with the gradient at the accepted
    point, or None if the iteration is lost or the gradient collapses.
    """
    q = np.array([float(q[0]), float(q[1])])
    for _ in range(max_iter):
        lam, lu, lv = lambda_jets(front, q[0], q[1], order=1)
        if abs(lam) < tol:
            return q, (lu, lv)
        g2 = lu * lu + lv * lv
        if g2 < 1e-28:
            return None
        q = q - lam / g2 * np.array([lu, lv])
        if not np.all(np.isfinite(q)):
            return None
    return None


def _project(front, X, N):
    """Offsets mu that move the points X along the unit vectors N onto
    lambda = 0.

    `_PROJECT_ITERS` Newton steps on lambda(X + mu N) = 0 from mu = 0, over
    arrays of any leading shape.  The line rule projects its Gauss nodes
    with it, `trace` the midpoints of its gaps and transversality brackets.
    """
    mu = np.zeros(X.shape[:-1])
    for _ in range(_PROJECT_ITERS):
        P = X + mu[..., None] * N
        lam, lu, lv = lambda_jets(front, P[..., 0], P[..., 1], order=1)
        mu -= lam / (lu * N[..., 0] + lv * N[..., 1])
    return mu


def _chord_normals(D):
    """Unit normals (-D_v, D_u)/|D| of the chords D, one per row."""
    return np.stack([-D[:, 1], D[:, 0]], axis=-1) / np.hypot(D[:, 0], D[:, 1])[:, None]


def _bisect(value, neg, pos, midpoint=None, small=0.0, rounds=_BISECT_ROUNDS):
    """Masked bisection of the brackets between `neg` and `pos`.

    The ends are stacked on the first axis, numbers or points; `value` is
    negative at each `neg` end and not negative at each `pos` end.  Each
    round calls `value(m, open)` once, on the midpoints m of the brackets
    still open (indices `open`), and moves the end on each midpoint's side.
    A bracket closes onto its midpoint where |value| <= small or is not
    finite, and as it stands where the midpoint equals one of its ends (no
    float lies between them).  `midpoint(a, b)` replaces the plain average.
    Returns the final ends.
    """
    neg = np.array(neg, dtype=float)
    pos = np.array(pos, dtype=float)
    todo = np.arange(len(neg))
    for _ in range(rounds):
        if not todo.size:
            break
        a, b = neg[todo], pos[todo]
        m = 0.5 * (a + b) if midpoint is None else midpoint(a, b)
        f = value(m, todo)
        below = f < 0
        neg[todo[below]] = m[below]
        pos[todo[~below]] = m[~below]
        hit = ~(np.abs(f) > small)
        neg[todo[hit]] = pos[todo[hit]] = m[hit]
        flat = [(m == end).reshape(len(m), -1).all(axis=1) for end in (a, b)]
        todo = todo[~(hit | flat[0] | flat[1])]
    return neg, pos


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


def _unit_tangent(lu, lv):
    g = math.hypot(lu, lv)
    if g < 1e-14:
        return None
    return np.array([lv, -lu]) / g


def _wrap(dom, P):
    return np.stack(dom.wrap(P[..., 0], P[..., 1]), axis=-1)


def _crossings(front, dom, uu, vv, lam):
    """Marching squares on the sign of lambda over the grid.

    A node is inside where lambda < 0 and outside otherwise (lambda = 0
    included), so every cell has 0, 2 or 4 crossed edges; an edge with a
    non-finite end is never crossed.  One masked bisection of all crossed
    edges places each crossing on its edge to the last bit, and an outside
    end where lambda is exactly 0 is the crossing itself.  Crossings on a
    wrap edge fold back into the chart; those on the edges of a
    non-periodic axis lie on the chart edge.  Each crossing links to the
    other crossing of the cell its tangent (lambda_v, -lambda_u) points
    into.  Returns the crossings and nxt, the index of each one's successor
    (-1 where the chain ends).
    """
    nu_, nv_ = lam.shape
    cu = nu_ if dom.periodic_u else nu_ - 1  # u-edges along a grid line, and cells
    cv = nv_ if dom.periodic_v else nv_ - 1
    iu, iv = (np.arange(cu) + 1) % nu_, (np.arange(cv) + 1) % nv_
    inside, fin = lam < 0, np.isfinite(lam)
    # u-edges (i, j) -> (i + 1, j) are numbered i * nv_ + j, then the
    # v-edges (i, j) -> (i, j + 1) as cu * nv_ + i * cv + j
    crossed = np.concatenate([
        (fin[:cu] & fin[iu] & (inside[:cu] != inside[iu])).ravel(),
        (fin[:, :cv] & fin[:, iv] & (inside[:, :cv] != inside[:, iv])).ravel(),
    ])
    ids_u = np.arange(cu * nv_).reshape(cu, nv_)
    ids_v = cu * nv_ + np.arange(nu_ * cv).reshape(nu_, cv)
    cells = np.stack([ids_u[:, :cv], ids_u[:, iv], ids_v[:cu], ids_v[iu]], axis=-1)
    hit = crossed[cells]
    count = hit.sum(axis=-1)
    if (count == 4).any():
        i, j = np.argwhere(count == 4)[0]
        raise TraceError(
            f"grid cell ({i}, {j}) at ({uu[i, j]:.6g}, {vv[i, j]:.6g}) has four "
            "crossed edges: the singular set is ambiguous there"
        )
    # the crossed edges of each two-edge cell, in a border of -1 for the
    # cells beyond a non-periodic chart edge
    pair = np.full((cu + 2, cv + 2, 2), -1)
    pair[1:-1, 1:-1][count == 2] = cells[count == 2][hit[count == 2]].reshape(-1, 2)

    idx = np.nonzero(crossed)[0]
    is_u = idx < cu * nv_
    i, j = np.where(is_u, np.divmod(idx, nv_), np.divmod(idx - cu * nv_, cv))
    i1, j1 = np.where(is_u, (i + 1) % nu_, i), np.where(is_u, j, (j + 1) % nv_)
    a_neg = inside[i, j]
    # the tangent leaves a u-edge towards -v when lambda grows along +u,
    # and a v-edge towards +u when lambda grows along +v
    ci = i - (~is_u & ~a_neg)
    cj = j - (is_u & a_neg)
    ci, cj = (ci % cu if dom.periodic_u else ci), (cj % cv if dom.periodic_v else cj)
    p = pair[ci + 1, cj + 1]
    succ = np.where(p[:, 0] == idx, p[:, 1], p[:, 0])

    # a wrap edge ends one period on
    A = np.stack([uu[i, j], vv[i, j]], axis=-1)
    B = np.stack([uu[i1, j1] + (i1 < i) * (dom.u1 - dom.u0),
                  vv[i1, j1] + (j1 < j) * (dom.v1 - dom.v0)], axis=-1)
    neg, pos = np.where(a_neg[:, None], A, B), np.where(a_neg[:, None], B, A)
    todo = np.where(a_neg, lam[i1, j1], lam[i, j]) != 0.0
    _, pos[todo] = _bisect(
        lambda m, _: lambda_value(front, m[:, 0], m[:, 1]), neg[todo], pos[todo]
    )
    return _wrap(dom, pos), np.where(succ >= 0, (np.cumsum(crossed) - 1)[succ], -1)


def _critical_points(front, Q):
    """Newton on grad lambda = 0 from the points Q, `_PROJECT_ITERS` steps."""
    for _ in range(_PROJECT_ITERS):
        _, lu, lv, luu, luv, lvv = lambda_jets(front, Q[:, 0], Q[:, 1], order=2)
        det = luu * lvv - luv * luv
        Q = Q - np.stack([lvv * lu - luv * lv, luu * lv - luv * lu], axis=-1) / det[:, None]
    return Q


def _refine(front, dom, P, nxt, cell):
    """Insert projected midpoints until every gap meets the continuation
    rules: no longer than `cell`, unit tangents turning by at most `_TURN`.

    P holds the samples of all curves and nxt[i] the sample after i (-1
    at an open end); new samples are appended and linked in.  Each round
    projects the midpoints of all failing gaps along their chord normals at
    once.  A projection that moves by more than 0.75 of the half gap marks
    a corner of the zero set, which sits at a zero of grad lambda: Newton
    on grad lambda from the midpoint finds it.  A gap whose corner search
    fails, or that is shorter than 1e-9 of the domain, stays as it is.
    """
    _, lu, lv = lambda_jets(front, P[:, 0], P[:, 1], order=1)
    G = np.stack([lu, lv], axis=-1)
    corner = ~(np.hypot(lu, lv) > 0.0)
    stuck = np.zeros(len(P), dtype=bool)  # the gap after sample i cannot split
    for _ in range(_REFINE_ROUNDS):
        i = np.nonzero((nxt >= 0) & ~stuck)[0]
        j = nxt[i]
        D = _wrapped_delta(dom, P[j], P[i])
        half = 0.5 * np.hypot(D[:, 0], D[:, 1])
        with np.errstate(divide="ignore", invalid="ignore"):
            T = np.stack([G[:, 1], -G[:, 0]], axis=-1) / np.hypot(G[:, 0], G[:, 1])[:, None]
        turn = (np.abs(_dot2(T[i].T, T[j].T)) < math.cos(_TURN)) & ~corner[i] & ~corner[j]
        # a gap of one grid step is not longer than `cell` by its rounding
        split = (half > 0.5e-9 * dom.scale) & ((half > (0.5 + 1e-12) * cell) | turn)
        if not split.any():
            break
        i, j, D, half = i[split], j[split], D[split], half[split]
        M, N = P[i] + 0.5 * D, _chord_normals(D)
        mu = _project(front, M, N)
        Q = M + mu[:, None] * N
        lam, *grad = lambda_jets(front, Q[:, 0], Q[:, 1], order=1)
        Gq = np.stack(grad, axis=-1)
        ok = (np.abs(mu) <= 0.75 * half) & (np.abs(lam) <= 1e-9 * dom.scale * np.hypot(*grad))
        at = ~ok  # at a corner
        if at.any():
            C = _critical_points(front, M[at])
            lam_c, *grad = lambda_jets(front, C[:, 0], C[:, 1], order=1)
            moved = _wrapped_delta(dom, C, M[at])
            ok[at] = (np.hypot(moved[:, 0], moved[:, 1]) <= 4.0 * half[at]) & (
                np.abs(lam_c) <= 1e-8 * np.abs(lambda_value(front, M[at, 0], M[at, 1]))
            )
            Q[at], Gq[at] = C, np.stack(grad, axis=-1)
        stuck[i[~ok]] = True
        i, j = i[ok], j[ok]
        nxt = np.concatenate([nxt, j])
        nxt[i] = len(P) + np.arange(len(i))
        P = np.concatenate([P, _wrap(dom, Q[ok])])
        G = np.concatenate([G, Gq[ok]])
        corner = np.concatenate([corner, at[ok]])
        stuck = np.concatenate([stuck, np.zeros(len(i), dtype=bool)])
    return P, nxt


def _image_point(front, q):
    return stack(front.map_jet(q[0], q[1], 1).value)


def trace(front, grid=64):
    """Find all singular curves of `front` on its domain.

    Marching squares on the sign of lambda over a `grid` x `grid` sample
    gives the curves: each crossed cell links the crossings on two of its
    edges, and the chains of crossings close up or end on the chart's
    edges.  Array rounds then insert projected midpoints until samples
    are at most one cell apart and the tangent turns by at most 0.2 rad
    between neighbours; a corner of the zero set, where grad lambda
    vanishes, becomes a sample of its own.  One masked bisection of the
    transversality determinant locates the swallowtails between samples.
    An isolated zero of lambda at a grid node comes back as a
    single-sample curve.
    """
    if grid < 16:
        raise ValueError(f"grid must be at least 16 per axis, got {grid}")
    dom = front.domain
    uu, vv = dom.grid(grid)
    lam = lambda_value(front, uu[:, :1], vv[:1])
    P, nxt = _crossings(front, dom, uu, vv, lam)
    if not len(P):
        return []
    P, nxt = _refine(front, dom, P, nxt, min(dom.u1 - dom.u0, dom.v1 - dom.v0) / grid)
    seen = np.zeros(len(P), dtype=bool)
    curves = []
    heads = np.bincount(nxt[nxt >= 0], minlength=len(P)) == 0
    for head in np.nonzero(heads)[0].tolist() + list(range(len(P))):
        pts, k = [], head  # open chains from their first sample, then cycles
        while k >= 0 and not seen[k]:
            seen[k] = True
            if not pts or (P[k] != pts[-1]).any():  # crossings at one node repeat
                pts.append(P[k])
            k = nxt[k]
        if not pts:
            continue
        closed = bool(k == head) and len(pts) > 1
        if closed and (pts[-1] == pts[0]).all():
            pts.pop()
        samples = _build_samples(front, dom, _canonical_order(dom, pts, closed), closed)
        peaks = tuple(
            i for i, p in enumerate(samples)
            if p.kind != SingularClass.CUSPIDAL_EDGE
        )
        curves.append(SingularCurve(samples=samples, closed=closed, peaks=peaks))
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


def _swallowtail_inserts(front, dom, pts, closed):
    """Transversality zeros between consecutive samples, as (index, point).

    The tangents and null directions of all samples come from one array
    jet evaluation; each is flipped to continue its predecessor, so the
    determinant det(T, eta) may change sign along the curve.  One masked
    bisection then serves every sign change: each round projects the
    brackets' midpoints onto the curve along their chord normals and
    evaluates det(T, eta) there with T = (lambda_v, -lambda_u)/|grad lambda|,
    until |det| < 1e-10 or 60 rounds.
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
        (i, (i + 1) % n) for i in range(n if closed else n - 1)
        if dets[i] * dets[(i + 1) % n] < 0
        and min(abs(dets[i]), abs(dets[(i + 1) % n])) > 1e-10
    ]
    if not pairs:
        return []
    i, j = np.array(pairs).T
    eta_ref = np.array(etas)[i]

    def det(m, todo):
        jf, jn = front.jets(m[:, 0], m[:, 1], 2, 1)
        _, lu, lv = _lambda_blocks(jf, jn, 1)
        eta, _ = _null_direction(jf)
        eta = np.where((_dot2(eta.T, eta_ref[todo].T) < 0)[:, None], -eta, eta)
        with np.errstate(divide="ignore", invalid="ignore"):
            g = np.hypot(lu, lv)
            return _cross2((lv / g, -lu / g), (eta[:, 0], eta[:, 1]))

    def midpoint(a, b):
        D = _wrapped_delta(dom, b, a)
        M, N = a + 0.5 * D, _chord_normals(D)
        return M + _project(front, M, N)[:, None] * N

    a_neg = (det(P[i], np.arange(len(i))) < 0)[:, None]
    _, q = _bisect(
        det, np.where(a_neg, P[i], P[j]), np.where(a_neg, P[j], P[i]),
        midpoint, small=1e-10, rounds=60,
    )
    q = _wrap(dom, q)
    return [(a + 1, b) for a, b in zip(i.tolist(), q) if np.isfinite(b).all()]


def _neighbour_rates(dom, P, lu, lv, eta, closed):
    """d/dt of det(T, eta) at each sample from its two neighbours.

    Central differences over the chart distance between the neighbours of
    det(T, eta), T = (lambda_v, -lambda_u)/|grad lambda| and each
    neighbour's null direction turned to agree with the sample's, so the
    determinant changes sign through a swallowtail.  Returns the rates and
    the mask of samples whose neighbours both have a tangent and do not
    coincide.
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
        det = _cross2((lv / g, -lu / g), (eta[:, 0], eta[:, 1]))
        ra = np.where(_dot2(eta[lo].T, eta.T) >= 0, det[lo], -det[lo])
        rb = np.where(_dot2(eta[hi].T, eta.T) >= 0, det[hi], -det[hi])
        return (rb - ra) / dt, valid


def _build_samples(front, dom, pts, closed):
    """Classify every traced point with curve context and fill arclengths.

    One array jet evaluation of the whole curve (after swallowtail points
    are inserted) feeds the neighbour transversality rates, the per-point
    decision, the curvature kernel and the image arclengths.
    """
    for offset, (idx, qs) in enumerate(_swallowtail_inserts(front, dom, pts, closed)):
        pts.insert(idx + offset, qs)
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
    seg = np.linalg.norm(np.diff(stack(jf.value), axis=0), axis=-1)
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
    jf0, jn0 = front.jets(q0[0], q0[1], 1, 0)
    img0 = stack(jf0.value)
    tau = stack(jf0.along(T0))
    speed = np.linalg.norm(tau)

    def tangent_at(ds):
        # land on the curve at image distance |ds| from q0 (secant on the step)
        t = ds / max(speed, 1e-12)
        for _ in range(4):
            hit = _newton(front, q0 + t * T0)
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
        g1 = stack(front.map_jet(q[0], q[1], 1).along(T))
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
    fu, fv, fuu, fuv, fvv, fuuv, fuvv = (
        stack(x) for x in (jf.f_u, jf.f_v, jf.f_uu, jf.f_uv, jf.f_vv, jf.f_uuv, jf.f_uvv)
    )
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
    val = -float(stack(jf.along(eta, 2)) @ stack(jn.along(eta)))
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
    val = -float(stack(jn_in.value) @ (stack(jf_out.value) - stack(jf_in.value)))
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
    val = float(stack(jf.along(X, 2)) @ stack(jn.value))
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
            hit = _newton(front, q0 + sgn * delta * T)
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
    e1 = stack(jf.along(X))
    e1 = e1 / np.linalg.norm(e1)
    e2 = None
    for c in (stack(jf.along(eta, 2)), stack(jf.along(eta, 3))):
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
        disp = stack(front.map_jet(pts_u, pts_v, 0).value) - img0
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
    sigma_dd = stack(jf.along(eta, 2))
    g1, g2 = (stack(g) for g in _curvatures(jf, jn, _lambda_blocks(jf, jn, 2))[3:])
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
