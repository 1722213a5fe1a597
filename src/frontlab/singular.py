"""Singular sets of fronts: tracing, classification, and singular curvature.

The signed area density lambda = det(f_u, f_v, nu) vanishes exactly on the
singular set.  Where d(lambda) != 0 that set is a regular curve in the chart;
points on it are classified by the angle between the curve's tangent and the
kernel direction of df.

The tracer contours the singular set from a grid of lambda values
(marching squares): one masked bisection, seeded with the grid values,
places the crossings on the grid edges, each crossed cell links its two
crossings into a chain, and array rounds insert projected midpoints until
the samples resolve the curve.  The samples of all curves then take one
array jet, in one batch, for the tangents and null directions that locate
swallowtail candidates and for the transversality rates, classification,
curvatures and arclengths; one masked bisection serves the candidates of
every curve, and the samples take one more jet where it inserts any.

Bisection looks ahead (`_bisect`, also the root scans of `zigzag`).  Given
the values at both ends of each bracket, a line through them predicts the
side of each of the next `_LOOKAHEAD` midpoints: below where the mean of
the end values is negative.  One `value` call takes the midpoints of the
whole predicted path, each computed from its bracket's ends as its round
would compute it.  The rounds are then replayed under the one-round rules,
and a bracket stops at the first level whose real side differs from the
prediction; that level still counts, its point being the true midpoint,
and the real values at the ends seed the next call.  The predictions only
choose which points are evaluated: the ends come out bit for bit as one
round per call leaves them, and a wrong, NaN or missing end value costs
calls, never bits.  Without end values each call is one round.

Classification has one per-point decision over plain floats (`_decide`),
curvature one kernel (`_curvatures`), the rate of det(singular_dir,
null_dir) along the curve, which tells a swallowtail from other peaks,
one closed form (`_transversality_rates`), and the side of a
swallowtail's tail, which gives its sign, another (`_tail_sides`); all
four read the same order-3 jet, and so does the limit of the half-space
signs at a swallowtail (`_swallowtail_signs`).  `classify` feeds them
from scalar jets, `trace` from one batch's arrays, a row of `.tolist()`
columns per sample; both store a swallowtail's sign on its point, which
`tail_side` and every sign count read.  Line integrals of kappa_s call the
curvature kernel on quadrature nodes, projected once per report.
`singular_curvature` computes kappa_s independently, by differencing
exact tangents at chart offsets along the curve, which the one projection
onto lambda = 0, `_project`, brings back onto it.
"""

import dataclasses
import enum
import functools
import math

import numpy as np

from .errors import FrontContractError, FrontlabError, InapplicableError, TraceError
from .front import columns, cross, det3, dot, lambda_value, spread, stack, triple

# classification thresholds (relative; see docstrings for the normalizations)
TRANSVERSAL_TOL = 1e-6
DEGENERATE_TOL = 1e-8
RANK_TOL = 1e-6

# tracer settings: most Newton steps of a projection onto lambda = 0, halvings
# of a bracket (2^-64 of its width, or its last bit) and the most of them one
# look-ahead call evaluates, the largest tangent turn between neighbouring
# samples (radians) and rounds of refinement
_PROJECT_ITERS = 8
_BISECT_ROUNDS = 64
_LOOKAHEAD = 8
_TURN = 0.2
_REFINE_ROUNDS = 40


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
    # set at swallowtails by `trace` and `classify`; None only where the
    # tail side's product <f_* grad lambda, g2> is 0 or NaN
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

    Needs the map jet one order deeper than the result (`order` 1 or 2) and
    the normal jet at the result's order.  Each term det3(a, b, c) is taken
    as triple(a, cross(b, c)), the same bits, and each cross product once.
    """
    nu, f_u, f_v, f_uu, f_uv, f_vv = jn.value, jf.f_u, jf.f_v, jf.f_uu, jf.f_uv, jf.f_vv
    v_nu, uv_nu, v_nu_u = cross(f_v, nu), cross(f_uv, nu), cross(f_v, jn.f_u)
    vv_nu, v_nu_v = cross(f_vv, nu), cross(f_v, jn.f_v)
    lam = triple(f_u, v_nu)
    lam_u = triple(f_uu, v_nu) + triple(f_u, uv_nu) + triple(f_u, v_nu_u)
    lam_v = triple(f_uv, v_nu) + triple(f_u, vv_nu) + triple(f_u, v_nu_v)
    if order == 1:
        return lam, lam_u, lam_v
    lam_uu = (
        triple(jf.f_uuu, v_nu)
        + 2.0 * triple(f_uu, uv_nu)
        + 2.0 * triple(f_uu, v_nu_u)
        + triple(f_u, cross(jf.f_uuv, nu))
        + 2.0 * triple(f_u, cross(f_uv, jn.f_u))
        + triple(f_u, cross(f_v, jn.f_uu))
    )
    lam_uv = (
        triple(jf.f_uuv, v_nu)
        + triple(f_uu, vv_nu)
        + triple(f_uu, v_nu_v)
        + triple(f_u, cross(jf.f_uvv, nu))
        + triple(f_u, cross(f_uv, jn.f_v))
        + triple(f_uv, v_nu_u)
        + triple(f_u, cross(f_vv, jn.f_u))
        + triple(f_u, cross(f_v, jn.f_uv))
    )
    lam_vv = (
        triple(jf.f_uvv, v_nu)
        + 2.0 * triple(f_uv, vv_nu)
        + 2.0 * triple(f_uv, v_nu_v)
        + triple(f_u, cross(jf.f_vvv, nu))
        + 2.0 * triple(f_u, cross(f_vv, jn.f_v))
        + triple(f_u, cross(f_v, jn.f_vv))
    )
    return lam, lam_u, lam_v, lam_uu, lam_uv, lam_vv


def lambda_jets(front, u, v, order=1):
    """Signed area density with chart partials up to `order` (1 or 2); for
    lambda alone, see `front.lambda_value`."""
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order}")
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


def _order3(front, u, v):
    """What classification reads at (u, v), points or arrays: the (3, 2)
    jets, `_lambda_blocks` of order 2, and the null directions and
    singular values of `_null_direction`."""
    jf, jn = front.jets(u, v, 3, 2)
    return (jf, jn, _lambda_blocks(jf, jn, 2), *_null_direction(jf))


def _tangent_derivative(blocks):
    """The chart-unit-speed tangent T = (lambda_v, -lambda_u)/|grad lambda|
    of the singular curve and T', its derivative along itself, from
    `_lambda_blocks(jf, jn, 2)`; over any leading shape."""
    _, lu, lv, luu, luv, lvv = blocks
    g = np.hypot(lu, lv)
    T0, T1 = lv / g, -lu / g
    jv0 = luv * T0 + lvv * T1
    jv1 = -luu * T0 - luv * T1
    s = T0 * jv0 + T1 * jv1
    return (T0, T1), ((jv0 - s * T0) / g, (jv1 - s * T1) / g)


def _curvatures(jf, jn, blocks):
    """Singular curvature data at cuspidal edges from (3, 2)-order jets.

    The one curvature kernel: `classify` feeds it scalar jets, `trace` a
    whole batch's arrays (`_decide` keeps both at cuspidal edges only) and
    `gaussbonnet._kappa_sum` a line rule's arrays of Gauss nodes.  `blocks`
    is `_lambda_blocks(jf, jn, 2)`.  The curve is parametrized by the
    chart-unit-speed tangent T = (lambda_v, -lambda_u)/|grad lambda|;
    its image velocity is g1 = f_* T and its image acceleration
    g2 = Hess_f(T, T) + f_* T', with T' the derivative of T along itself.
    Returns (density, kappa_s, kappa_nu, g1, g2), where the length density
    kappa_s |g1| stays bounded at peaks even as |g1| -> 0.
    """
    lu, lv = blocks[1:3]
    (T0, T1), (Td0, Td1) = _tangent_derivative(blocks)
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


def _form(p, q, r, a, b):
    """The symmetric form with matrix ((p, q), (q, r)) on chart vectors a, b."""
    return a[0] * (b[0] * p + b[1] * q) + a[1] * (b[0] * q + b[1] * r)


def _hessian(jet, a, b):
    """Hess(a, b) of the field of `jet`, component by component."""
    return tuple(_form(p, q, r, a, b) for p, q, r in zip(jet.f_uu, jet.f_uv, jet.f_vv))


def _null_turn(jf, T, eta, sig):
    """The rate c at which the null direction eta = `_null_direction(jf)`
    turns along the chart direction T, towards the other right singular
    vector w = (-eta_v, eta_u): eta' = c w.  eta is the eigenvector of
    A^T A (A = df) for sig_2^2, so with A' = Hess_f(T, .),
    c = ((A' w).(A eta) + (A w).(A' eta)) / (sig_2^2 - sig_1^2), whatever
    eta's orientation; over any leading shape, finite where sig_1 > sig_2.
    """
    e, s1, s2 = (eta[..., 0], eta[..., 1]), sig[..., 0], sig[..., 1]
    w = (-e[1], e[0])
    return (dot(_hessian(jf, T, w), jf.along(e))
            + dot(jf.along(w), _hessian(jf, T, e))) / (s2 * s2 - s1 * s1)


def _transversality_rates(jf, blocks, eta, sig):
    """d/dt of det(T, eta) along the singular curve, in closed form.

    The swallowtail criterion of Kokubu-Rossman-Saji-Umehara-Yamada asks
    for this rate where det(T, eta) vanishes.  T is the unit tangent of
    `_tangent_derivative`, eta and sig are `_null_direction(jf)` and
    `blocks` is `_lambda_blocks(jf, jn, 2)`, over any leading shape, like
    `_curvatures`.  The rate is det(T', eta) + det(T, eta'), with
    eta' = c w of `_null_turn` and det(T, w) = T.eta.  The sign follows
    eta's orientation.  Finite where grad lambda is not 0 and sig_1 > sig_2.
    """
    T, Td = _tangent_derivative(blocks)
    e0, e1 = eta[..., 0], eta[..., 1]
    return _cross2(Td, (e0, e1)) + _null_turn(jf, T, eta, sig) * (T[0] * e0 + T[1] * e1)


def _decide(u, v, lam, lam_u, lam_v, eta, sig, curv, rate, tail):
    """Classify the singular point (u, v) from its first-order data.

    The one decision behind `classify` (scalar jets) and `trace` (a batch's
    arrays, row by row), over Python floats and pairs of them: `lam` and its
    gradient, the null direction `eta` of df, df's singular values `sig`,
    and the curvature kernel's (density, kappa_s, kappa_nu) `curv`, kept at
    cuspidal edges only.  `rate()` gives the `_transversality_rates` value
    of the point; it is called only where det(singular_dir, null_dir)
    vanishes and df has rank 1, so a cuspidal edge never pays for it.
    `tail()` gives the `_tail_sides` value, called only at a swallowtail.
    Returns the `SingularPoint` fields from `uv` to `density`, in order,
    and the swallowtail sign (None but at a swallowtail whose tail side is
    decided).
    """
    if sig[0] > 0.0 and sig[1] / sig[0] > RANK_TOL:
        raise FrontContractError(
            f"point ({u:.6g}, {v:.6g}) is not singular: df has rank 2 "
            f"(singular values {sig[0]:.3e}, {sig[1]:.3e})"
        )
    grad = math.hypot(lam_u, lam_v)
    scale = max(1.0, sig[0])
    if grad <= DEGENERATE_TOL * scale:
        return ((u, v), lam, (lam_u, lam_v), tuple(eta), (0.0, 0.0),
                SingularClass.DEGENERATE, math.nan, math.nan, math.nan, math.nan), None
    T = (lam_v / grad, -lam_u / grad)
    eta = (-eta[0], -eta[1]) if _cross2(T, eta) < 0.0 else (eta[0], eta[1])
    det_te = _cross2(T, eta)
    kind, (density, kappa_s, kappa_nu) = SingularClass.CUSPIDAL_EDGE, curv
    sign = None
    if not abs(det_te) > TRANSVERSAL_TOL:
        if sig[0] > RANK_TOL * scale and abs(rate()) > TRANSVERSAL_TOL:
            kind = SingularClass.SWALLOWTAIL
            side = tail()
            sign = -int(side) if abs(side) > 0.0 else None
        else:
            kind = SingularClass.NONDEGENERATE_PEAK_OTHER
        density, kappa_s, kappa_nu = math.nan, -math.inf, math.nan
    return ((u, v), lam, (lam_u, lam_v), eta, T, kind, kappa_s, kappa_nu, det_te, density), sign


def classify(front, uv):
    """Classify a singular point and, on cuspidal edges, attach curvatures.

    Thresholds are relative: the transversality determinant is between unit
    vectors, the degeneracy cutoff is scaled by the differential's largest
    singular value.  One scalar jet evaluation serves the decision, the
    curvatures, where the determinant vanishes its rate along the curve
    (`_transversality_rates`), which tells a swallowtail, and at a
    swallowtail the side of its tail, which gives its sign.
    """
    u, v = float(uv[0]), float(uv[1])
    jf, jn, blocks, eta, sig = _order3(front, u, v)
    with np.errstate(divide="ignore", invalid="ignore"):
        curv = _curvatures(jf, jn, blocks)
    lam, lam_u, lam_v, *scalars = map(float, blocks[:3] + curv[:3])
    fields, sign = _decide(
        u, v, lam, lam_u, lam_v, eta.tolist(), sig.tolist(), scalars,
        lambda: _transversality_rates(jf, blocks, eta, sig),
        lambda: _tail_sides(jf, blocks, curv[4]),
    )
    return SingularPoint(*fields, swallowtail_sign=sign)


# ---------------------------------------------------------------------------
# curve tracing


def _project(front, X, N):
    """Offsets mu that move the points X along the unit vectors N onto
    lambda = 0, and the (2, 1) jets at X + mu N where a step took them.

    Up to `_PROJECT_ITERS` Newton steps on lambda(X + mu N) = 0 from mu = 0,
    over arrays of any leading shape; at one point (shape (2,)) the jets run
    on floats.  Once a step returns mu bit for bit (compared as bytes: -0.0
    is not 0.0, and NaN can repeat) every later step would too, and that
    iterate is returned.  Steps and jets are elementwise, so a row whose
    point X + mu N repeats byte for byte a point of an earlier step reuses
    that step's ratio lambda / (grad lambda . N), the same bits, and no
    point is evaluated twice: a row whose mu repeated is frozen, and
    iterates that differ below the rounding of X + mu N cost no jets.  The
    jets at the points returned come back where a step took them, else
    None: a point keeps each step's (floats), a batch its last call's, if
    that call took every row.  The line rule projects its Gauss nodes with
    it, `trace` the midpoints of its gaps and transversality brackets, and
    `singular_curvature` its chart offsets along the curve.

    One point keeps a loop of its own because the batch loop serves it
    worse.  Through the batch loop, 8 `singular_curvature` calls (4 on the
    swallowtail flank, 4 on the parabola axis) took 4.5 ms against 2.9 ms,
    55% longer (best of 9 runs, in each of 5 processes, on a 2-vCPU x86
    host).  And where mu 2-cycles, as 27 of the 144 chart offsets of
    the benchmark's `singular_curvature` jobs at seed 7 do, the point it
    lands on was evaluated before the last step, so the batch loop, which
    keeps only the last call's jets, would hand none back.
    """
    if X.ndim == 1:  # floats, and each point's ratio and jets by its bytes
        (u, v), (n0, n1), mu, memo = X, N, np.zeros(()), {}
        for _ in range(_PROJECT_ITERS):
            p = u + mu * n0, v + mu * n1
            key = p[0].tobytes() + p[1].tobytes()
            if key not in memo:
                jets = front.jets(*p, 2, 1)
                lam, lu, lv = _lambda_blocks(*jets, 1)
                memo[key] = lam / (lu * n0 + lv * n1), jets
            mu, last = mu - memo[key][0], mu
            if mu.tobytes() == last.tobytes():
                break
        return mu, memo.get((u + mu * n0).tobytes() + (v + mu * n1).tobytes(), (None, None))[1]
    X, N = np.broadcast_arrays(X, N)
    u, v, n0, n1 = X[..., 0], X[..., 1], N[..., 0], N[..., 1]
    mu, seen, hand = np.zeros(u.shape), [], None  # seen: each step's points and ratios
    for k in range(_PROJECT_ITERS):
        pu, pv = u + mu * n0, v + mu * n1
        p, r = (pu.view(np.int64), pv.view(np.int64)), np.empty(u.shape)
        old = np.zeros(u.shape, dtype=bool)
        for q, rq in seen:
            same = (q[0] == p[0]) & (q[1] == p[1])
            r[same], old = rq[same], old | same
        seen.append((p, r))
        hits = np.count_nonzero(old)
        if hits < old.size:
            at, hand = ~old if hits else (), None  # (): every row; frees the last jets
            hand = k, front.jets(pu[at], pv[at], 2, 1)
            lam, lu, lv = _lambda_blocks(*hand[1], 1)
            r[at] = lam / (lu * n0[at] + lv * n1[at])
            hand = None if hits else hand  # a call on some rows hands nothing back
        mu, last = mu - r, mu
        if mu.tobytes() == last.tobytes():
            break
    landed = (u + mu * n0).view(np.int64), (v + mu * n1).view(np.int64)
    if hand and all((a == b).all() for a, b in zip(seen[hand[0]][0], landed)):
        return mu, hand[1]
    return mu, None


def _chord_normals(D):
    """Unit normals (-D_v, D_u)/|D| of the chords D, one per row."""
    return np.stack([-D[:, 1], D[:, 0]], axis=-1) / np.hypot(D[:, 0], D[:, 1])[:, None]


def _bisect(value, neg, pos, midpoint=None, small=0.0, rounds=_BISECT_ROUNDS, *,
            f_neg=None, f_pos=None):
    """Masked bisection of the brackets between `neg` and `pos`.

    The ends are stacked on the first axis, numbers or points; `value` is
    negative at each `neg` end and not negative at each `pos` end.  Each
    round takes the midpoint m of a bracket still open and moves the end on
    m's side.  A bracket closes onto m where |value| <= small or is not
    finite, and as it stands where m equals one of its ends (no float lies
    between them); it takes at most `rounds` rounds.  `midpoint(a, b)`
    replaces the plain average.  Returns the final ends.

    The rounds run in look-ahead calls (module docstring): `value(m, open)`
    takes the midpoints m of every level predicted for the brackets still
    open, stacked level by level, with their indices `open` tiled to
    match.  `f_neg` and `f_pos`, the values at the ends, seed the
    predictions.
    """
    neg = np.array(neg, dtype=float)
    pos = np.array(pos, dtype=float)
    n = len(neg)
    ahead = 1 if f_neg is None else _LOOKAHEAD
    fa = np.full(n, np.nan) if f_neg is None else np.array(f_neg, dtype=float)
    fb = np.full(n, np.nan) if f_pos is None else np.array(f_pos, dtype=float)
    taken = np.zeros(n, dtype=int)
    todo = np.arange(n if rounds > 0 else 0)
    while todo.size:
        levels = min(ahead, rounds - int(taken[todo].min()))
        # the predicted sides, then the brackets and midpoints along them
        ga, gb, guess = fa[todo], fb[todo], []
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(levels):
                g = 0.5 * (ga + gb)
                guess.append(g < 0)
                ga, gb = np.where(g < 0, g, ga), np.where(g < 0, gb, g)
        a, b, path = neg[todo], pos[todo], []
        for s in guess:
            m = 0.5 * (a + b) if midpoint is None else midpoint(a, b)
            path.append((a, b, m))
            side = s.reshape((-1,) + (1,) * (m.ndim - 1))
            a, b = np.where(side, m, a), np.where(side, b, m)
        A, B, M = (np.stack(x) for x in zip(*path))
        F = value(M.reshape((-1,) + M.shape[2:]), np.tile(todo, levels))
        F = np.reshape(F, (levels, -1))
        # replay: each bracket's rounds run up to the first level where it
        # closes, reaches its cap or leaves the predicted path
        below, hit = F < 0, ~(np.abs(F) > small)
        flat = [(M == E).reshape(levels, len(todo), -1).all(axis=2) for E in (A, B)]
        closes = hit | flat[0] | flat[1]
        level = np.arange(levels)[:, None]
        last = closes | (below != np.array(guess)) | (level + 1 >= rounds - taken[todo])
        last[-1] = True
        j, c = np.argmax(last, axis=0), np.arange(len(todo))
        m, up = M[j, c], below[j, c].reshape((-1,) + (1,) * (M.ndim - 2))
        neg[todo], pos[todo] = np.where(up, m, A[j, c]), np.where(up, B[j, c], m)
        h = hit[j, c]
        neg[todo[h]] = pos[todo[h]] = m[h]
        # the real value at each end: from the last level that moved it
        for vals, moved in ((fa, below), (fb, ~below)):
            k = np.maximum.accumulate(np.where(moved, level, -1), axis=0)[j, c]
            vals[todo] = np.where(k >= 0, F[k, c], vals[todo])
        taken[todo] += j + 1
        todo = todo[~closes[j, c] & (taken[todo] < rounds)]
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


def _wrap(dom, P):
    return np.stack(dom.wrap(P[..., 0], P[..., 1]), axis=-1)


def _crossings(front, dom, uu, vv, lam):
    """Marching squares on the sign of lambda over the grid.

    A node is inside where lambda < 0 and outside otherwise (lambda = 0
    included), so every cell has 0, 2 or 4 crossed edges; an edge with a
    non-finite end is never crossed.  One masked bisection of all crossed
    edges, looking ahead from the grid's lambda at their ends (module
    docstring), places each crossing on its edge to the last bit, and an
    outside end where lambda is exactly 0 is the crossing itself.
    Crossings on a wrap edge fold back into the chart; those on the edges
    of a non-periodic axis lie on the chart edge.  Each crossing links to
    the other crossing of the cell its tangent (lambda_v, -lambda_u) points
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
    f_neg = np.where(a_neg, lam[i, j], lam[i1, j1])
    f_pos = np.where(a_neg, lam[i1, j1], lam[i, j])
    todo = f_pos != 0.0
    _, pos[todo] = _bisect(
        lambda m, _: lambda_value(front, m[:, 0], m[:, 1]), neg[todo], pos[todo],
        f_neg=f_neg[todo], f_pos=f_pos[todo],
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
        mu, jets = _project(front, M, N)
        Q = M + mu[:, None] * N
        jets = jets or front.jets(Q[:, 0], Q[:, 1], 2, 1)
        lam, *grad = (spread(x, Q[:, 0], Q[:, 1]) for x in _lambda_blocks(*jets, 1))
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


def trace(front, grid=64):
    """Find all singular curves of `front` on its domain.

    Marching squares on the sign of lambda over a `grid` x `grid` sample
    gives the curves: each crossed cell links the crossings on two of its
    edges, placed by a look-ahead bisection (module docstring), and the
    chains of crossings close up or end on the chart's edges.  Array
    rounds then insert projected midpoints until samples are at most one
    cell apart and the tangent turns by at most 0.2 rad between
    neighbours; a corner of the zero set, where grad lambda vanishes,
    becomes a sample of its own.  The samples of all curves are classified
    in one batch, where one masked bisection of the transversality
    determinant, a round per call, locates their swallowtails.  An isolated
    zero of lambda at a grid node comes back as a single-sample curve.
    """
    chains = _chains(front, grid)
    return _build_curves(front, front.domain, chains) if chains else []


def _chains(front, grid):
    """`trace`'s curves unclassified, sorted: (samples, closed) pairs."""
    if grid < 16:
        raise ValueError(f"grid must be at least 16 per axis, got {grid}")
    dom = front.domain
    uu, vv = dom.grid(grid)
    lam = lambda_value(front, uu[:, :1], vv[:1])
    P, nxt = _crossings(front, dom, uu, vv, lam)
    if not len(P):
        return []
    P, nxt = _refine(front, dom, P, nxt, min(dom.u1 - dom.u0, dom.v1 - dom.v0) / grid)
    heads = np.bincount(nxt[nxt >= 0], minlength=len(P)) == 0
    nxt, seen = nxt.tolist(), [False] * len(P)
    chains = []
    for head in np.nonzero(heads)[0].tolist() + list(range(len(P))):
        chain, k = [], head  # open chains from their first sample, then cycles
        while k >= 0 and not seen[k]:
            seen[k] = True
            chain.append(k)
            k = nxt[k]
        if not chain:
            continue
        Q = P[chain]
        Q = Q[np.r_[True, (Q[1:] != Q[:-1]).any(axis=1)]]  # crossings at one node repeat
        closed = k == head and len(Q) > 1
        if closed and (Q[-1] == Q[0]).all():
            Q = Q[:-1]
        chains.append((_canonical_order(dom, Q, closed), closed))
    chains.sort(key=lambda c: tuple(c[0][0].tolist()))  # samples go in after the first
    return chains


def _canonical_order(dom, P, closed):
    """Deterministic start point and direction, independent of the seed,
    of the points folded into the chart, as an (n, 2) array."""
    P = _wrap(dom, np.asarray(P, dtype=float))
    if closed:
        P = np.roll(P, -np.lexsort(np.round(P, 9).T[::-1])[0], axis=0)
        if len(P) > 2 and tuple(P[1]) > tuple(P[-1]):
            P = np.concatenate([P[:1], P[:0:-1]])
    elif tuple(np.round(P[0], 9)) > tuple(np.round(P[-1], 9)):
        P = P[::-1]
    return P


def _continuation_signs(d):
    """Signs, a running product, that turn each row of a curve's vectors to
    continue the row before; d[i - 1] is the dot product of rows i and
    i - 1 as they come.  Where d is 0 or NaN a row keeps its orientation."""
    flips = np.cumsum(np.r_[False, d < 0])
    keep = np.r_[True, ~((d < 0) | (d > 0))]
    start = np.maximum.accumulate(np.where(keep, np.arange(len(flips)), 0))
    return 1.0 - 2.0 * ((flips - flips[start]) % 2)


def _insert_swallowtails(front, dom, P, sizes, closed, grad, eta):
    """The samples P of curves of `sizes` samples each, `closed` or not,
    with their transversality zeros inserted, and the curves' new sizes.

    Running sign products, restarted at each curve's first sample, turn the
    tangents T from `grad`, lambda's gradient at P (one below 1e-14 takes
    its predecessor's tangent, or (1, 0)), and the null directions `eta`
    to continue their predecessors, so det(T, eta) may change sign along a
    curve.  One masked bisection serves every sign change, one round per
    call (each projected midpoint depends on the one before, so it takes
    no end values): each round projects the midpoints onto the curve along
    the chord normals, wraps them into the chart (a periodic seam may lie
    between the ends) and evaluates det(T, eta) there, until |det| <= 1e-10
    or 60 rounds.  Only the brackets that closed so, away from both end
    samples, are inserted.
    """
    lu, lv = grad
    n, curve = len(P), np.repeat(np.arange(len(sizes)), sizes)
    start = (np.cumsum(sizes) - sizes)[curve]
    first = start == np.arange(n)
    g = np.hypot(lu, lv)
    with np.errstate(divide="ignore", invalid="ignore"):
        T0 = np.stack([np.r_[lv / g, 1.0], np.r_[-lu / g, 0.0]], axis=-1)
    last = np.maximum.accumulate(np.where(g < 1e-14, -1, np.arange(n)))
    T = T0[np.where(last >= start, last, n)]  # row n is (1, 0)

    def signs(X):  # a NaN product starts each curve afresh
        d = np.where(first[1:], np.nan, _dot2(X[1:].T, X[:-1].T))
        return _continuation_signs(d)[:, None]

    T *= signs(T)
    eta = np.where((first & (_cross2(T.T, eta.T) < 0))[:, None], -eta, eta)
    eta *= signs(eta)
    dets = _cross2(T.T, eta.T)
    j = np.where(np.r_[first[1:], True], start, np.arange(1, n + 1))  # the next sample
    pair = ((j > np.arange(n)) | np.array(closed)[curve]) & (dets * dets[j] < 0) & (
        np.minimum(np.abs(dets), np.abs(dets[j])) > 1e-10)
    if not pair.any():
        return P, sizes
    i = np.nonzero(pair)[0]
    j = j[i]

    def det(m, todo):
        jf, jn = front.jets(m[:, 0], m[:, 1], 2, 1)
        _, lu, lv = _lambda_blocks(jf, jn, 1)
        e, _ = _null_direction(jf)
        e = np.where((_dot2(e.T, eta[i[todo]].T) < 0)[:, None], -e, e)
        with np.errstate(divide="ignore", invalid="ignore"):
            g = np.hypot(lu, lv)
            return _cross2((lv / g, -lu / g), (e[:, 0], e[:, 1]))

    def midpoint(a, b):
        D = _wrapped_delta(dom, b, a)
        flat = np.hypot(D[:, 0], D[:, 1]) == 0.0
        if flat.any():
            u, v = a[flat][0]
            raise TraceError(
                f"the ends of the swallowtail bracket at ({u:.6g}, {v:.6g}) coincide "
                "in the chart: no chord to project its midpoint along"
            )
        M, N = a + 0.5 * D, _chord_normals(D)
        return _wrap(dom, M + _project(front, M, N)[0][:, None] * N)

    a_neg = (_cross2(T0[i].T, eta[i].T) < 0)[:, None]  # det at P[i], as `det` has it
    neg, pos = _bisect(
        det, np.where(a_neg, P[i], P[j]), np.where(a_neg, P[j], P[i]),
        midpoint, small=1e-10, rounds=60,
    )
    # ends kept apart never reached |det| <= 1e-10, and ends on a sample sit
    # at |det| > 1e-10: either bracket holds a jump of det, not a zero
    found = (neg == pos).all(axis=1) & np.isfinite(pos).all(axis=1)
    found &= (pos != P[i]).any(axis=1) & (pos != P[j]).any(axis=1)
    return (np.insert(P, i[found] + 1, _wrap(dom, pos[found]), axis=0),
            sizes + np.bincount(curve[i[found]], minlength=len(sizes)))


def _build_curves(front, dom, chains):
    """The `SingularCurve`s of `chains`, (samples, closed) pairs, with
    their swallowtails inserted, built in one batch (module docstring).

    The transversality rates are computed when the first row asks for one.
    Jets work point by point, so the jet of the merged samples gives every
    old sample its bits again.  Arclengths and peak indices go curve by curve.
    """
    Ps, closed = zip(*chains)
    # a fresh C-ordered copy: numpy's vector loops for exp and cosh can round
    # differently on a reversed view's columns
    P = np.concatenate(Ps)
    jf, jn, blocks, eta, sig = _order3(front, P[:, 0], P[:, 1])
    n = len(P)
    P, sizes = _insert_swallowtails(front, dom, P, list(map(len, Ps)), closed, blocks[1:3], eta)
    if len(P) > n:
        jf, jn, blocks, eta, sig = _order3(front, P[:, 0], P[:, 1])
    with np.errstate(divide="ignore", invalid="ignore"):
        *curv, _, g2 = _curvatures(jf, jn, blocks)
        tails = _tail_sides(jf, blocks, g2).tolist()

    @functools.cache
    def rates():
        with np.errstate(divide="ignore", invalid="ignore"):
            return _transversality_rates(jf, blocks, eta, sig).tolist()

    cols = (P[:, 0], P[:, 1], *blocks[:3], eta, sig, np.stack(curv, axis=-1))
    rows = [
        _decide(*row, lambda k=k: rates()[k], lambda k=k: tails[k])
        for k, row in enumerate(zip(*(x.tolist() for x in cols)))
    ]

    # image arclength and peak indices, curve by curve; f[5] is the kind
    seg = np.linalg.norm(np.diff(stack(jf.value), axis=0), axis=-1)
    cusp = np.array([f[5] is SingularClass.CUSPIDAL_EDGE for f, _ in rows])
    ends = np.cumsum(sizes).tolist()
    curves = []
    for a, b, c in zip([0] + ends[:-1], ends, closed):
        s, k = np.concatenate([[0.0], np.cumsum(seg[a:b - 1])]), cusp[a:b]
        samples = tuple(
            SingularPoint(*f, s_i, sign) for (f, sign), s_i in zip(rows[a:b], s.tolist())
        )
        curves.append(SingularCurve(samples, c, tuple(np.nonzero(~k)[0].tolist())))
    return curves


# ---------------------------------------------------------------------------
# curvature along traced curves


def singular_curvature(front, point):
    """Singular curvature by differencing exact unit tangents along the curve.

    Independent route from the jet formula in `classify`, which kappa_s
    allows in any regular parametrization of the curve: the chart offsets
    +-h, +-h/2 along T0 = `singular_dir`, with h = 1e-3 of the domain scale
    a chart step, go onto lambda = 0 along the chart normal (`_project`);
    central differences of the exact image unit tangents there, with one
    Richardson step, over the image speed |f_* T0| give d tau/ds.  A point
    that misses lambda = 0 by more than 1e-9 of the domain scale times
    |grad lambda| raises `TraceError`.
    """
    if point.kind != SingularClass.CUSPIDAL_EDGE:
        raise InapplicableError(
            f"singular curvature along the curve needs a cuspidal edge, "
            f"got {point.kind.value}"
        )
    q0 = np.asarray(point.uv, dtype=float)
    T0 = np.asarray(point.singular_dir, dtype=float)
    N = np.array([-T0[1], T0[0]])
    scale = front.domain.scale
    h = 1e-3 * scale
    jf0, jn0 = front.jets(q0[0], q0[1], 1, 0)
    tau = stack(jf0.along(T0))
    speed = np.linalg.norm(tau)

    def tangent_at(t):
        X = q0 + t * T0
        mu, jets = _project(front, X, N)
        q = X + mu * N
        jf, jn = jets or front.jets(q[0], q[1], 2, 1)
        lam, lu, lv = _lambda_blocks(jf, jn, 1)
        g = math.hypot(lu, lv)
        if not (g > 0.0 and abs(lam) <= 1e-9 * scale * g):
            raise TraceError(
                f"the chart offset {t:.3g} from ({q0[0]:.6g}, {q0[1]:.6g}) did "
                f"not land on the curve: lambda={lam:.3e}, |grad lambda|={g:.3e}"
            )
        k = 1.0 if lv * T0[0] - lu * T0[1] >= 0.0 else -1.0
        g1 = stack(jf.along((k * lv, -k * lu)))
        return g1 / np.linalg.norm(g1)

    def central_diff(step):
        return (tangent_at(step) - tangent_at(-step)) / (2.0 * step)

    dtau = (4.0 * central_diff(0.5 * h) - central_diff(h)) / (3.0 * speed)
    eta = np.asarray(point.null_dir, dtype=float)
    dlam_eta = point.grad_lambda[0] * eta[0] + point.grad_lambda[1] * eta[1]
    sgn = 1.0 if dlam_eta > 0 else -1.0
    return sgn * float(det3(tau / speed, dtau, jn0.value))


def singular_curvature_intrinsic(front, u):
    """Singular curvature at (u, 0) from first-fundamental-form data only.

    Requires an adapted chart: the u-axis is the singular curve and the null
    direction there is vertical.  The formula closes with E_vv, the second
    v-derivative of E; the cross-check against the extrinsic value on a
    sheared edge is what tells it from a reading with E_v in its place.
    """
    u = float(u)
    jf, jn = front.jets(u, 0.0, 3, 1)
    lam, lam_u, lam_v = _lambda_blocks(jf, jn, 1)
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
    E_vv = 2.0 * float(fuvv @ fu) + 2.0 * float(fuv @ fuv)
    return (-F_v * E_u + 2.0 * E * F_uv - E * E_vv) / (
        2.0 * E**1.5 * lam_v
    )


def kappa_s_measure(front, curve):
    """Length density of the singular curvature per traced sample.

    Density = kappa_s * |image speed| with respect to the chart-unit-speed
    curve parameter, as the curvature kernel left it on each cuspidal
    sample; finite and continuous across non-degenerate peaks, where the
    stored samples carry no value and the average of the neighbours' stored
    values fills in (NaN if neither has one).  An open curve's end samples
    have one neighbour; a closed curve wraps.
    """
    out = np.array([
        p.density if p.kind == SingularClass.CUSPIDAL_EDGE else math.nan
        for p in curve.samples
    ])
    prev, nxt = np.roll(out, 1), np.roll(out, -1)
    if not curve.closed:
        prev[:1] = nxt[-1:] = math.nan
    fill = np.where(np.isnan(prev), nxt,
                    np.where(np.isnan(nxt), prev, 0.5 * (prev + nxt)))
    return np.where(np.isnan(out), fill, out)


@dataclasses.dataclass(frozen=True)
class NormalCurvature:
    value: float
    generic: bool


def limiting_normal_curvature(front, point):
    """Normal part of the image acceleration; generic where |kappa_nu| > 1e-8."""
    if point.kind != SingularClass.CUSPIDAL_EDGE:
        raise InapplicableError(
            f"limiting normal curvature needs a cuspidal edge, got "
            f"{point.kind.value}"
        )
    value = point.kappa_nu
    return NormalCurvature(value=value, generic=abs(value) > 1e-8)


# ---------------------------------------------------------------------------
# half-space signs and the tail of a swallowtail


@dataclasses.dataclass(frozen=True)
class HalfSpaceSigns:
    sgn_Delta: int
    sgn_0: int
    predicted_K_sign: int


def _edge_sign_delta(front, point, side):
    """sgn_Delta at a cuspidal edge: -g0((eta d)^2 f, (eta d) nu) with eta
    stepping into the requested side."""
    eta, T = np.asarray(point.null_dir, dtype=float), point.singular_dir
    if float(eta @ np.array([-T[1], T[0]])) * side < 0:
        eta = -eta
    jf, jn = front.jets(point.uv[0], point.uv[1], 2, 1)
    val = -float(stack(jf.along(eta, 2)) @ stack(jn.along(eta)))
    if val == 0.0:
        raise InapplicableError("half-space sign degenerate: second form flat")
    return 1 if val > 0 else -1


def half_space_signs(front, point, side):
    """Sign bookkeeping that predicts the sign of K beside the curve.

    `side` is +1 for the side the rotated tangent (-T_v, T_u) points into,
    -1 for the other; at a swallowtail +1 means the tail side.  Requires the
    point to be generic (nonvanishing second fundamental form data; at a
    cuspidal edge, `limiting_normal_curvature` generic).  At a
    cuspidal edge sgn_Delta is the sign of the second form along the null
    direction stepping into the side; at a swallowtail it is the limit of
    that sign from the cuspidal edges beside it, which one order-3 jet
    gives in closed form, with sgn_0 and the tail side.
    """
    if side not in (1, -1):
        raise ValueError(f"side must be +1 or -1, got {side}")
    if point.kind == SingularClass.CUSPIDAL_EDGE:
        if not limiting_normal_curvature(front, point).generic:
            raise InapplicableError(
                "cuspidal edge is not generic: limiting normal curvature is "
                f"{point.kappa_nu:.3g}"
            )
        sgn_0 = 1 if point.kappa_nu > 0 else -1
        sgn_d = _edge_sign_delta(front, point, side)
    elif point.kind == SingularClass.SWALLOWTAIL:
        sgn_0, sgn_d = _swallowtail_signs(front, point, side)
    else:
        raise InapplicableError(
            f"half-space signs need a cuspidal edge or swallowtail, got "
            f"{point.kind.value}"
        )
    return HalfSpaceSigns(sgn_Delta=sgn_d, sgn_0=sgn_0, predicted_K_sign=sgn_0 * sgn_d)


def _swallowtail_signs(front, point, side):
    """sgn_0 and sgn_Delta of a swallowtail, with its tail side, from one jet.

    Along the singular curve, with eta the unit null field, a cuspidal
    edge's sgn_Delta is sign Phi, Phi = -<Hess_f(eta, eta), d nu(eta)>,
    with eta stepping into the side: s sign(Phi psi) for any orientation,
    with psi = <grad lambda, eta> and s the side's lambda-sign.  Both
    vanish at a swallowtail, where eta is tangent to the curve and
    Hess_f(eta, eta) lies in the image of df (see `_tail_sides`), and
    <f_* xi, d nu(eta)> = <f_* eta, d nu(xi)> = 0.  So the limit from
    either side is s sign(Phi' psi'), with T the unit tangent, eta' = c w
    of `_null_turn`, psi' = Hess_lambda(T, eta) + <grad lambda, eta'> and
    Phi' = -<D^3 f(T, eta, eta) + 2 Hess_f(eta, eta'), d nu(eta)>
           - <Hess_f(eta, eta), Hess_nu(T, eta) + d nu(eta')>.
    """
    u, v = point.uv
    jf, jn, blocks, eta, sig = _order3(front, u, v)
    e = (eta[0], eta[1])
    val = float(stack(jf.along((-e[1], e[0]), 2)) @ stack(jn.value))
    if abs(val) < 1e-10:
        raise InapplicableError("swallowtail is not generic: second form flat")
    s = side * tail_side(front, point).lambda_sign
    _, lu, lv, luu, luv, lvv = blocks
    T, _ = _tangent_derivative(blocks)
    turn = _null_turn(jf, T, eta, sig)
    de = (-turn * e[1], turn * e[0])
    d3 = tuple(T[0] * _form(a, b, c, e, e) + T[1] * _form(b, c, d, e, e)
               for a, b, c, d in zip(jf.f_uuu, jf.f_uuv, jf.f_uvv, jf.f_vvv))
    dphi = (-dot(tuple(x + 2.0 * y for x, y in zip(d3, _hessian(jf, e, de))), jn.along(e))
            - dot(jf.along(e, 2), tuple(x + y for x, y in zip(_hessian(jn, T, e), jn.along(de)))))
    rate = float(dphi * (_form(luu, luv, lvv, T, e) + lu * de[0] + lv * de[1]))
    if rate == 0.0 or not math.isfinite(rate):
        raise FrontlabError(
            f"half-space sign at the swallowtail ({u:.6g}, {v:.6g}) is undecided: "
            f"the edge sign's rate along the curve is {rate!r}"
        )
    return (1 if val > 0 else -1), (s if rate > 0.0 else -s)


@dataclasses.dataclass(frozen=True)
class TailSide:
    lambda_sign: int  # sign of lambda on the chart side whose image is the tail
    alpha_plus: float  # interior angle of the positive side's image: 0 or 2*pi
    st_sign: int  # +1 for a positive swallowtail (alpha_plus = 2*pi)


def _tail_sides(jf, blocks, g2):
    """The lambda-sign of the chart side whose image is a swallowtail's
    tail, sign <f_* grad lambda, g2>, with g2 the image acceleration of
    `_curvatures`; over any leading shape.

    At a swallowtail the unit chart tangent T of the singular curve gamma
    is null, so f o gamma has zero velocity and its acceleration is
    a = Hess_f(T, T) + f_* T', the curvature kernel's g2.  With eta~ a
    null vector field, T = eta~ there, and differentiating f_* eta~ = 0
    along gamma gives Hess_f(T, T) = -f_*(nabla_T eta~); so a lies in the
    image of df, the line of f_*(grad lambda).  The tail is the side a
    chart vector X points into where <f_* X, a> > 0: on
    the normal form (3u^4 + u^2 v, 4u^3 + 2uv, v) it is {v < -6u^2}.  The
    test is invariant under diffeomorphisms of source and target, because
    (f o gamma)'(0) = 0.
    """
    return np.sign(dot(jf.along(blocks[1:3]), g2))


def tail_side(front, point):
    """Which side of the chart maps to the tail of a swallowtail.

    Reads the point's stored `swallowtail_sign`, which `classify` and
    `trace` set from the order-3 jet they classify with (`_tail_sides`);
    no jet is evaluated.  Raises FrontlabError where that sign is
    undecided (None): the product <f_* grad lambda, g2> was 0 or NaN.
    """
    if point.kind != SingularClass.SWALLOWTAIL:
        raise InapplicableError("tail side is defined at swallowtails only")
    sign = point.swallowtail_sign
    if sign is None:
        raise FrontlabError(
            f"tail side at ({point.uv[0]:.6g}, {point.uv[1]:.6g}) is undecided: "
            "the image acceleration is orthogonal to f_* grad lambda"
        )
    return TailSide(-sign, 2.0 * math.pi if sign > 0 else 0.0, sign)


def sign_meaning_check(front, point):
    """Does the null curve bend the same way the singular curve does?

    Compares sgn g0(sigma''(0), k(0)) with sgn kappa_s, where sigma is the
    straight null line in the chart and k the curvature vector of the
    singular image curve; |kappa_s| below 1e-10 carries no sign.
    """
    if point.kind != SingularClass.CUSPIDAL_EDGE:
        raise InapplicableError("sign comparison needs a cuspidal edge")
    if not math.isfinite(point.kappa_s) or abs(point.kappa_s) < 1e-10:
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


def peak_arc_count(front, uv):
    """Half the number of lambda sign changes on a parameter circle of
    radius 1e-2 times the domain scale, at 720 points.  A non-finite lambda
    there is refused: its sign is unknown."""
    u, v = float(uv[0]), float(uv[1])
    r = 1e-2 * front.domain.scale
    theta = np.linspace(0.0, 2.0 * math.pi, 720, endpoint=False)
    pu, pv = u + r * np.cos(theta), v + r * np.sin(theta)
    lam = lambda_value(front, pu, pv)
    bad = np.nonzero(~np.isfinite(lam))[0]
    if bad.size:
        i = bad[0]
        raise FrontlabError(
            f"lambda is not finite at {bad.size} of the 720 points of the probe "
            f"circle of radius {r:.3e}, the first at ({pu[i]:.6g}, {pv[i]:.6g})"
        )
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
            f"odd sign-change count {changes} on the probe circle of radius "
            f"{r:.3e}"
        )
    return changes // 2


# ---------------------------------------------------------------------------
# export


CSV_COLUMNS = (
    "u", "v", "s", "class", "lambda", "lambda_u", "lambda_v",
    "eta_u", "eta_v", "kappa_s", "kappa_nu", "density",
)


def _curve_rows(front, curve):
    return [
        dict(zip(CSV_COLUMNS, (p.uv[0], p.uv[1], p.s, p.kind.value, p.lam, *p.grad_lambda,
                               *p.null_dir, p.kappa_s, p.kappa_nu, float(d))))
        for p, d in zip(curve.samples, kappa_s_measure(front, curve))
    ]


def curve_to_csv(front, curve):
    """One CSV row per sample; floats via repr for reproducible output."""
    lines = [",".join(CSV_COLUMNS)] + [
        ",".join(row["class"] if c == "class" else repr(float(row[c])) for c in CSV_COLUMNS)
        for row in _curve_rows(front, curve)
    ]
    return "\n".join(lines) + "\n"


def curve_to_dict(front, curve):
    """JSON-ready digest of a traced curve."""
    return {
        "closed": curve.closed,
        "peaks": list(curve.peaks),
        "samples": _curve_rows(front, curve),
    }
