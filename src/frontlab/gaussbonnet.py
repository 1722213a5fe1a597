"""Total curvature, Euler characteristics, and the two global identities.

The signed form det(nu_u, nu_v, nu) du dv is smooth across the singular
set.  The unsigned one weights it by sgn(lambda), so its integral is the
signed one less twice the spherical area nu sweeps over {lambda < 0}: by
Stokes, a line integral along the Gauss image of that region's boundary.
One line rule serves it, the singular-curvature integral and the polar
caps, and a report reads both line integrals off one pass.  Area panels
are evaluated a column of panels at a time and summed panel by panel.
An explicit panel budget is one pass over the panels; the default budget
doubles from 32 panels until two successive signed sums agree within
1e-13 * 4 pi (at most 2048 panels), and a report states the panels used
and that last difference.
With cell-complex Euler characteristics of the two chart regions, the
module assembles both identities' residuals and the degree bookkeeping.
One grid of lambda's signs gives chi(M+-) and the sign epsilon of each end,
read on the grid's edge row or column; swallowtail signs are the ones
`trace` and `classify` stored on the points.
"""

import dataclasses
import functools
import math

import numpy as np

from .errors import FrontlabError, InapplicableError
from .front import det3, lambda_value, spread, stack
from .singular import (
    SingularClass,
    _chord_normals,
    _curvatures,
    _lambda_blocks,
    _project,
    _wrapped_delta,
    lambda_jets,  # not called here; perfbench/layers.py wraps it by this name
    tail_side,
    trace,
)

TWO_PI = 2.0 * math.pi
FOUR_PI = 4.0 * math.pi
_CHUNK = 1 << 13
_TRACE_GRID = 96  # trace grid of integrate_K_dA, and of euler_report without curves
_LINE_NODES = 8  # Gauss nodes per line panel
_PANEL_NODES = 16  # Gauss nodes per axis of an area panel
_RING_PANELS = 64  # line panels around each polar-cap ring
# the default area budget: from _PANELS_START panels, doubled until two
# successive signed sums agree within _PANELS_TOL, at most _PANELS_MAX
_PANELS_START = 32
_PANELS_MAX = 2048
_PANELS_TOL = 1e-13 * FOUR_PI
_SNAP = 1e-9  # chart distance, per domain scale, below which two points are one
_DEGENERATE = "degenerate singular points present"
_NO_CUSPS = "a singular curve carries no cuspidal edges"


@dataclasses.dataclass(frozen=True)
class GaussBonnetReport:
    int_K_dA: float
    int_K_dAhat: float
    int_kappa_s_ds: float
    chi_M: int
    chi_Mplus: int
    chi_Mminus: int
    alpha_terms: float  # sum of (alpha_+ - alpha_-) over peaks
    deg_nu: int | None  # None for complete (non-compact) fronts
    S_plus: int
    S_minus: int
    ends: tuple  # (label, growth order a, epsilon) per end
    residual_unsigned: float
    residual_signed: float
    applicable: bool = True
    reason: str = ""
    llr: dict | None = None
    provenance: dict = dataclasses.field(default_factory=dict)


@functools.lru_cache(maxsize=None)
def _gl_rule(n):
    """Gauss-Legendre nodes and weights of order `n` mapped to (0, 1).

    Built once per order and shared by every caller, hence read-only.
    """
    x, w = np.polynomial.legendre.leggauss(n)
    x, w = 0.5 * (x + 1.0), 0.5 * w
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _line_rule(front, A, D, on_curve, orders=(2, 1)):
    """Gauss nodes on chord panels A + x D, x in (0, 1), with exact tangents.

    Nodes of panels flagged `on_curve` (between consecutive samples of a
    singular curve) solve lambda(A + x D + mu N) = 0 for mu by Newton
    (`singular._project`), N the chord's unit normal; the panel is a graph
    over its chord with tangent dq/dx = D + mu' N,
    mu' = -(grad lambda . D) / (grad lambda . N).
    Returns tangents Q (S, nodes, 2), weights, lambda and grad lambda . N
    at the nodes, `front.jets` there at `orders`, (2, 1) or deeper, and the
    `on_curve` rows' indices; each row is computed on its own.  The
    projection takes lambda's jets once per Newton point; its handback goes
    unread (edge nodes are not projected, curve nodes land at different steps).
    """
    x, w = _gl_rule(_LINE_NODES)
    N = _chord_normals(D)
    X = A[:, None, :] + x[None, :, None] * D[:, None, :]
    mu = np.zeros(X.shape[:2])
    idx = np.nonzero(on_curve)[0]
    if idx.size:
        mu[idx] = _project(front, X[idx], N[idx, None, :])[0]
    P = X + mu[..., None] * N[:, None, :]
    U, V = P[..., 0], P[..., 1]
    jf, jn = front.jets(U, V, *orders)
    lam, lu, lv = (spread(x, U, V) for x in _lambda_blocks(jf, jn, 1))
    lam_n = lu * N[:, None, 0] + lv * N[:, None, 1]
    drift = np.abs(lam[idx]) / np.hypot(lu[idx], lv[idx])
    if drift.size and not float(drift.max()) <= 1e-9 * front.domain.scale:  # or NaN
        q = P[idx].reshape(-1, 2)[int(drift.argmax())]
        raise FrontlabError(
            f"lost the singular curve while integrating near "
            f"({q[0]:.6g}, {q[1]:.6g})"
        )
    slope = np.zeros_like(lam)
    slope[idx] = -(lu[idx] * D[idx, None, 0] + lv[idx] * D[idx, None, 1]) / lam_n[idx]
    Q = D[:, None, :] + slope[..., None] * N[:, None, :]
    return Q, w, lam, lam_n, jf, jn, idx


def _alpha(pole, nu, nu_u, nu_v, Q):
    """alpha = (1 - cos theta) dphi = pole . (nu x dnu) / (1 + pole . nu)
    on the chart tangents Q, theta the angle from `pole`; d alpha is the
    sphere's area form, and alpha is singular only at -pole."""
    dnu = tuple(Q[..., 0] * a + Q[..., 1] * b for a, b in zip(nu_u, nu_v))
    return det3(pole, nu, dnu) / (1.0 + stack(nu) @ pole)


def _cap_terms(front):
    """Curvature contributed by polar caps a truncated chart leaves out.

    A capped chart covers the surface except two small disks around the
    poles.  Over each disk the signed curvature form integrates to the
    signed spherical area enclosed by the Gauss image of the chart-edge
    ring, the line integral of alpha about the ring's mean normal.  Returns
    (signed area, lambda sign at the ring) per cap; the unsigned integral
    weighs each area by that constant sign, since the cap is regular.
    """
    if not (front.metadata and front.metadata.get("caps")):
        return ()
    dom = front.domain
    if not dom.periodic_u:
        raise FrontlabError(
            "cap metadata expects a chart periodic in u with polar edges in v"
        )
    h = (dom.u1 - dom.u0) / _RING_PANELS
    us = dom.u0 + h * np.arange(1, _RING_PANELS + 1)
    out = []
    for v, step in ((dom.v0, -h), (dom.v1, h)):
        # boundary of {v <= v0} runs in -u, boundary of {v >= v1} in +u
        A = np.stack([us - max(step, 0.0), np.full(_RING_PANELS, v)], axis=-1)
        D = np.tile([step, 0.0], (_RING_PANELS, 1))
        Q, w, lam, _, _, jn, _ = _line_rule(front, A, D, np.zeros(_RING_PANELS, dtype=bool))
        pole = stack(jn.value).reshape(-1, 3).mean(axis=0)
        pole /= np.linalg.norm(pole)
        area = math.fsum((w * _alpha(pole, jn.value, jn.f_u, jn.f_v, Q)).ravel().tolist())
        out.append((area, _median_sign(lam)))
    return tuple(out)


def _median_sign(a):
    """1 if the median of `a` is positive, else -1 (also where `a` holds a
    NaN, whose median is NaN), without `np.median`, which imports numpy.ma."""
    s = np.sort(a, axis=None)
    mid = s[(s.size - 1) // 2 : s.size // 2 + 1]
    return 1 if not np.isnan(s[-1]) and mid.sum() > 0 else -1


def _panel_counts(dom, budget):
    """Split a total panel budget so panels are roughly square."""
    aspect = (dom.u1 - dom.u0) / (dom.v1 - dom.v0)
    n_u = max(4, round(math.sqrt(budget * aspect)))
    n_v = max(4, budget // n_u)
    return n_u, n_v


def _panel_sums(front, grid, coarse, caps):
    """The signed integral and its coarse sgn(lambda)-weighted counterpart
    (None unless `coarse`: then only the normal and the map's value are read).

    One pass over the `grid` panels of the chart, `_PANEL_NODES` Gauss
    nodes per axis each, plus the polar caps `caps` of `_cap_terms`.  A
    chunk of panel columns (strips in u), as many as fit in
    `_CHUNK` nodes but at least one, is the tensor product of its u nodes,
    a column (k nodes, 1), and every v node, a row (1, n_v nodes): a jet
    program computes what depends on u alone once per row and what depends
    on v alone once per column.  The values are copied into contiguous
    (panel, u node, v node) blocks, so each panel's sum keeps its order.
    The coarse value is kinked on the singular set and only picks the
    branch of the unsigned integral.
    """
    dom = front.domain
    n_u, n_v = _panel_counts(dom, grid)
    du, dv = (dom.u1 - dom.u0) / n_u, (dom.v1 - dom.v0) / n_v
    nodes = _PANEL_NODES
    x, w = _gl_rule(nodes)
    u = ((dom.u0 + np.arange(n_u) * du)[:, None] + du * x).ravel()
    v = ((dom.v0 + np.arange(n_v) * dv)[:, None] + dv * x).reshape(1, -1)
    W = (w[:, None] * w[None, :]) * (du * dv)
    step = nodes * max(1, _CHUNK // (nodes * nodes * n_v))

    def sums(a, rows):  # numpy sums a strided block in another order, so copy
        a = np.broadcast_to(a, (rows, v.size)).reshape(-1, nodes, n_v, nodes)
        a = np.ascontiguousarray(a.swapaxes(1, 2)).reshape(-1, nodes, nodes)
        return (a * W).sum(axis=(1, 2)).tolist()

    plain, signed = [], []
    for k in range(0, u.size, step):
        U = u[k : k + step, None]
        jf, jn = front.jets(U, v, int(coarse), 1)
        det = det3(jn.f_u, jn.f_v, jn.value)
        plain.extend(sums(det, len(U)))
        if coarse:
            signed.extend(sums(np.sign(det3(jf.f_u, jf.f_v, jn.value)) * det, len(U)))
    return (
        math.fsum(plain + [area for (area, _) in caps]),
        math.fsum(signed + [s * area for (area, s) in caps]) if coarse else None,
    )


def _area_sums(front, panels, coarse=True, minus=None):
    """`_panel_sums` at the panel budget `panels`, or by the default rule
    where `panels` is None, with the budget's provenance.

    The default starts at `_PANELS_START` panels and doubles until two
    successive signed sums agree within `_PANELS_TOL`; with `minus`, the
    line integral fixing A- modulo 4 pi, it also doubles while the coarse
    estimate of A- misses its branch by more than pi/2.  At `_PANELS_MAX`
    it stops, agreed or not.  The polar caps are computed once per call.
    Provenance: the panels used, the last difference of the signed sums
    (None for an explicit budget) and, with `minus`, the branch miss.
    """
    caps = _cap_terms(front)
    n = _PANELS_START if panels is None else panels
    sums, diff = _panel_sums(front, n, coarse, caps), None
    while panels is None:
        last, n = sums[0], 2 * n
        sums = _panel_sums(front, n, coarse, caps)
        diff = abs(sums[0] - last)
        if n >= _PANELS_MAX or diff <= _PANELS_TOL and (
            minus is None or _miss(minus, sums) <= 0.5 * math.pi
        ):
            break
    prov = {"panels": n, "panel_diff": diff}
    return sums, prov if minus is None else {**prov, "branch_miss": _miss(minus, sums)}


def integrate_K_dAhat(front, grid=None):
    """Integral of the smooth signed curvature form det(nu_u, nu_v, nu).

    `grid` is the total panel budget; each panel takes `_PANEL_NODES`
    Gauss nodes per axis.  None, the default, doubles the budget from 32
    panels until two successive sums agree within 1e-13 * 4 pi, up to 2048
    (`_area_sums`).
    """
    return _area_sums(front, grid, coarse=False)[0][0]


def _curve_panels(dom, curves):
    """Chord panels between consecutive samples of each curve.

    Returns starts, steps and the index of the owning curve; a closed curve
    wraps.  Steps shorter than `_SNAP` are left out: their chords carry no
    direction (crossings of grid edges that meet at a node where the
    curve passes within rounding of it sit that close together).
    """
    A, D, owner = [np.empty((0, 2))], [np.empty((0, 2))], [np.empty(0, dtype=int)]
    for i, curve in enumerate(curves):
        P = np.array([p.uv for p in curve.samples], dtype=float)
        nxt = np.roll(P, -1, axis=0) if curve.closed else P[1:]
        step = _wrapped_delta(dom, nxt, P[: len(nxt)])
        keep = np.hypot(step[:, 0], step[:, 1]) > _SNAP * dom.scale
        A.append(P[: len(nxt)][keep])
        D.append(step[keep])
        owner.append(np.full(int(keep.sum()), i))
    return np.concatenate(A), np.concatenate(D), np.concatenate(owner)


def _boundary_pieces(front, curves, grid):
    """Chord panels of the boundary of M-, before orientation.

    The singular curves' panels, owned by their curve's index, and panels
    along each chart edge that bounds the surface (non-periodic, without a
    polar cap), owned by -1.  Edge panels run counter-clockwise around the
    chart, split at the lines of the `grid` panel grid (of `_PANELS_MAX`
    panels where `grid` is None, whatever budget the area sums end at) and
    at the open curves' ends,
    so lambda keeps one sign on each.  Degenerate samples are refused, and
    so is an open curve that ends on a polar cap's ring (the cap terms need
    a regular cap) or off those edges: M- would have a gap.
    """
    if _excluded(curves) == _DEGENERATE:
        raise InapplicableError(
            f"{_DEGENERATE}; the boundary of the negative region is not a "
            "curve there"
        )
    dom = front.domain
    tol = _SNAP * dom.scale
    spans = ((dom.u0, dom.u1, dom.periodic_u), (dom.v0, dom.v1, dom.periodic_v))
    capped = bool(front.metadata and front.metadata.get("caps"))
    edges = [
        (k, value, sense)
        for k, (lo, hi, periodic) in enumerate(spans) if not (periodic or capped)
        for value, sense in ((lo, 2 * k - 1), (hi, 1 - 2 * k))
    ]
    ends = [c.samples[i].uv for c in curves if not c.closed for i in (0, -1)]
    for q in ends:
        if capped and min(abs(q[1] - dom.v0), abs(q[1] - dom.v1)) <= tol:
            raise InapplicableError(
                f"open singular curve ends at ({q[0]:.6g}, {q[1]:.6g}) on a polar "
                "cap's ring: the singular set runs into the cap, which the cap "
                "terms take to be regular"
            )
        if not any(abs(q[k] - value) <= tol for k, value, _ in edges):
            raise FrontlabError(
                f"open singular curve ends at ({q[0]:.6g}, {q[1]:.6g}), off "
                "the chart edges: the boundary of the negative region has a gap"
            )
    A, D, owner = ([x] for x in _curve_panels(dom, curves))
    counts = _panel_counts(dom, _PANELS_MAX if grid is None else grid)
    for k, value, sense in edges:
        j = 1 - k
        cuts = [q[j] for q in ends if abs(q[k] - value) <= tol]
        t = np.array(sorted({*np.linspace(*spans[j][:2], counts[j] + 1).tolist(), *cuts}))
        P = np.insert(t[::sense, None], k, value, axis=1)  # along the edge
        A.append(P[:-1])
        D.append(np.diff(P, axis=0))
        owner.append(np.full(len(t) - 1, -1))
    A, D, owner = (np.concatenate(x) for x in (A, D, owner))
    keep = np.hypot(D[:, 0], D[:, 1]) > tol
    return A[keep], D[keep], owner[keep]


def _minus_area(front, pieces, orders=(2, 1)):
    """Integral of alpha along the Gauss image of the boundary of M-.

    A singular curve's panels are oriented so that M- lies on their left,
    by the sign of grad lambda . N; that sign changes along a curve only
    through a point where grad lambda vanishes, which is refused.  Edge
    panels count where lambda < 0 at their nodes; they are oriented
    counter-clockwise around the chart.  alpha is taken about the axis
    among +-e1, +-e2, +-e3 farthest from every -nu on the boundary.  One
    line-rule pass at `orders`, returned with A- for `_kappa_sum`: its
    drift, side and edge checks see the nodes whose value is returned.
    """
    A, D, owner = pieces
    on_curve = owner >= 0
    rule = Q, w, lam, lam_n, _, jn, _ = _line_rule(front, A, D, on_curve, orders)
    side = np.sign(lam_n)
    for i in set(owner[on_curve].tolist()):
        if np.ptp(side[owner == i]) != 0.0:
            raise InapplicableError(
                f"{_DEGENERATE}: grad lambda vanishes between the samples of "
                "a traced curve"
            )
    negative = lam[~on_curve] < 0.0
    if np.any(negative.any(axis=1) & ~negative.all(axis=1)):
        raise FrontlabError(
            "lambda changes sign on a chart edge away from the traced curve "
            "ends: the boundary of the negative region has a gap"
        )
    keep = on_curve.copy()
    keep[~on_curve] = negative.all(axis=1)
    if not keep.any():
        return 0.0, rule
    nu, nu_u, nu_v = (tuple(np.broadcast_to(c, lam.shape)[keep] for c in b)
                      for b in (jn.value, jn.f_u, jn.f_v))
    n = stack(nu).reshape(-1, 3)
    k = int(np.concatenate([1.0 + n.min(axis=0), 1.0 - n.max(axis=0)]).argmax())
    pole = np.eye(3)[k % 3] * (1.0 if k < 3 else -1.0)
    orient = np.where(on_curve[keep, None], -side[keep], 1.0)
    vals = orient * w * _alpha(pole, nu, nu_u, nu_v, Q[keep])
    return math.fsum(vals.ravel().tolist()), rule


def _miss(line, sums):
    """Distance from the coarse estimate of A- by `_panel_sums`' `sums`,
    (int K dAhat - coarse sum) / 2, to the nearest line + 4 pi k."""
    return abs(math.remainder(0.5 * (sums[0] - sums[1]) - line, FOUR_PI))


def _branch(line, coarse):
    """The value line + 4 pi k nearest the coarse estimate of A-.

    The line integral fixes A- only modulo 4 pi; a coarse estimate farther
    than pi from every candidate leaves the branch ambiguous.
    """
    k = round((coarse - line) / FOUR_PI)
    miss = abs(coarse - line - FOUR_PI * k)
    if miss > math.pi:
        raise FrontlabError(
            f"ambiguous branch of the negative region's spherical area: the "
            f"coarse estimate {coarse:.6g} is {miss:.3g} from the nearest "
            f"value {line:.6g} + 4 pi k"
        )
    return line + FOUR_PI * k


def _unsigned(sums, minus):
    """int K dA = int K dAhat - 2 A-, from `sums`, the (int K dAhat, coarse
    sgn(lambda) sum) of `_panel_sums`, and `minus`, A- modulo 4 pi."""
    hat, coarse = sums
    return hat - 2.0 * _branch(minus, 0.5 * (hat - coarse))


def integrate_K_dA(front, grid=None):
    """Integral of K against the unsigned area form |lambda| du dv.

    K dA = sgn(lambda) K dAhat, so the integral is int K dAhat less twice
    the spherical area A- that nu sweeps over M- = {lambda < 0}: the
    integral of alpha along nu of the boundary of M- (singular curves,
    traced at `_TRACE_GRID`, and chart edges where lambda < 0), modulo
    4 pi.  A coarse sgn(lambda) sum over the `grid` panels of int K dAhat
    picks the branch.  `grid` None, the default, doubles the budget from
    32 panels until two successive int K dAhat agree within 1e-13 * 4 pi
    and the coarse estimate is within pi/2 of its branch, up to 2048
    (`_area_sums`); the chart edges then take the panel lines of 2048.
    Degenerate singular points, open curves ending inside the chart and an
    ambiguous branch are refused.
    """
    curves = trace(front, grid=_TRACE_GRID)
    minus = _minus_area(front, _boundary_pieces(front, curves, grid))[0]
    return _unsigned(_area_sums(front, grid, minus=minus)[0], minus)


def _kappa_sum(rule):
    """Line integral of kappa_s over the `on_curve` panels of a line rule at
    (3, 2): at each node the density kappa_s |image speed| times the weight
    w |dq/dx| of the panel's exact tangent."""
    Q, w, _, _, jf, jn, idx = rule
    dens = _curvatures(jf, jn, _lambda_blocks(jf, jn, 2))[0]
    return math.fsum(((dens * w) * np.hypot(Q[..., 0], Q[..., 1]))[idx].ravel().tolist())


def integrate_kappa_s(front, curves):
    """Line integral of kappa_s over traced singular curves.

    The line rule's panels run between consecutive trace samples, so Gauss
    nodes never land on a peak; the density kappa_s |image speed| stays
    bounded there (`_kappa_sum`, which `euler_report` runs on its pass over
    the boundary of M-).  Curves containing degenerate samples, or no
    cuspidal edge at all, are refused: the identity's hypotheses exclude
    them.
    """
    reason = _excluded(curves)
    if reason:
        raise InapplicableError(
            f"{reason}; the curvature measure is not defined there"
        )
    A, D, _ = _curve_panels(front.domain, curves)
    return _kappa_sum(_line_rule(front, A, D, np.ones(len(A), dtype=bool), (3, 2)))


def _excluded(curves):
    """Why the identities' hypotheses exclude `curves`, or ''."""
    if any(p.kind is SingularClass.DEGENERATE for c in curves for p in c.samples):
        return _DEGENERATE
    if any(
        all(p.kind is not SingularClass.CUSPIDAL_EDGE for p in c.samples)
        for c in curves
    ):
        return _NO_CUSPS
    return ""


def _lambda_signs(front, grid):
    """sgn(lambda) at the nodes of the chart's `grid` x `grid` sample grid,
    evaluated in blocks of `_CHUNK // n_v` rows."""
    uu, vv = front.domain.grid(grid)
    lam = np.empty(uu.shape)
    rows = max(1, _CHUNK // uu.shape[1])
    for k in range(0, uu.shape[0], rows):
        lam[k : k + rows] = lambda_value(front, uu[k : k + rows, :1], vv[:1])
    return np.sign(lam)


def _chis(front, S):
    """(chi(M), chi(M+), chi(M-)) of the node signs S of `_lambda_signs`."""
    dom = front.domain
    meta = front.metadata or {}
    chi_p, chi_m = _sign_chis(S, dom.periodic_u, dom.periodic_v, meta.get("caps", 0))
    chi_M = int(meta["chi"]) if meta.get("chi") is not None else chi_p + chi_m
    return chi_M, chi_p, chi_m


def euler_characteristics(front, grid=256):
    """(chi(M), chi(M+), chi(M-)) from the sign of lambda on a cell grid.

    Cells owning at least one corner of a sign belong to that region's
    closure, so cells crossed by the singular curve count for both.  A
    periodic axis first appends its wrap row (column) of corners; a cell's
    corners are then four shifted slices, ORed.  V - E + F of the closed
    cells: a vertex or edge is present where a cell around it is, an OR of
    slices of the zero-padded cell mask, and a periodic axis folds its seam
    row (column) into row 0.  Polar caps recorded in the metadata close off
    truncated sphere charts.
    """
    return _chis(front, _lambda_signs(front, grid))


def _sign_chis(S, periodic_u, periodic_v, caps):
    """[chi(M+), chi(M-)] of the node signs S, as `euler_characteristics`."""
    chis = []
    for sign in (1, -1):
        hit = (S == sign) | (S == 0)
        if periodic_u:
            hit = np.concatenate([hit, hit[:1]], axis=0)
        if periodic_v:
            hit = np.concatenate([hit, hit[:, :1]], axis=1)
        cells = hit[:-1, :-1] | hit[1:, :-1] | hit[:-1, 1:] | hit[1:, 1:]
        count = int(np.count_nonzero(cells))
        if 0 < count < 3:
            raise FrontlabError(
                f"grid too coarse: the lambda {'positive' if sign > 0 else 'negative'}"
                f" region only touches {count} cell(s); refine the grid"
            )
        P = np.pad(cells, 1)
        vert = P[:-1, :-1] | P[1:, :-1] | P[:-1, 1:] | P[1:, 1:]
        edge_u = P[1:-1, :-1] | P[1:-1, 1:]  # edges along the u direction
        edge_v = P[:-1, 1:-1] | P[1:, 1:-1]  # edges along the v direction
        if periodic_u:
            vert[0] |= vert[-1]
            edge_v[0] |= edge_v[-1]
            vert, edge_v = vert[:-1], edge_v[:-1]
        if periodic_v:
            vert[:, 0] |= vert[:, -1]
            edge_u[:, 0] |= edge_u[:, -1]
            vert, edge_u = vert[:, :-1], edge_u[:, :-1]
        chi = int(np.count_nonzero(vert) - np.count_nonzero(edge_u)
                  - np.count_nonzero(edge_v)) + count
        if caps and count:
            for row in (S[:, 0], S[:, -1]):
                if np.all((row == sign) | (row == 0)):
                    chi += 1
        chis.append(chi)
    return chis


def _degree_from_total(total):
    val = total / (2.0 * TWO_PI)
    if abs(val - round(val)) >= 0.05:
        raise FrontlabError(
            f"total signed curvature / 4 pi = {val:.6f} is not within "
            f"0.05 of an integer"
        )
    return int(round(val))


def degree_of_gauss_map(front, grid=None):
    """Degree of nu from the signed total curvature, with integrality check;
    `grid` is `integrate_K_dAhat`'s."""
    if not (front.metadata and front.metadata.get("caps")):
        raise InapplicableError(
            "degree of the Gauss map needs a closed front (truncated chart "
            "with polar caps); this front is not compact"
        )
    return _degree_from_total(integrate_K_dAhat(front, grid))


def swallowtail_signs(front, points):
    """(#S+, #S-): positive when the tail is carried by the negative side.

    Reads each swallowtail's stored sign (`tail_side`); a swallowtail
    whose sign is undecided is refused.
    """
    signs = [tail_side(front, p).st_sign for p in points
             if p.kind is SingularClass.SWALLOWTAIL]
    return signs.count(1), signs.count(-1)


def _end_epsilons(front, S):
    """Pair metadata ends with the sign of lambda at the chart's end edges.

    Ends live on the non-periodic axis of a cylinder chart; the metadata
    list is ordered (low edge, high edge).  The sign of an end is the
    median of the node signs S of `_lambda_signs` on its edge: the first
    and last row of S (column, where v is not periodic).
    """
    meta = front.metadata.get("ends", []) if front.metadata else []
    edges = S[[0, -1]] if front.domain.periodic_v else S[:, [0, -1]].T
    return tuple(
        (end["label"], float(end["a"]), _median_sign(edge))
        for end, edge in zip(meta, edges)
    )


def euler_report(front, curves=None, grid=256, panels=None, k_f=0):
    """Assemble both global identities and their residuals for one front.

    `curves` come from `trace`; when omitted the singular set is traced
    here at grid 96 (for another grid, pass `curves=trace(front, grid=g)`).
    They serve both line integrals, and a pass over `panels` Gauss panels
    gives int K dAhat and int K dA's branch (see `integrate_K_dA`).  With
    `panels` None, the default, passes at 32, 64, ... panels run until two
    successive int K dAhat agree within 1e-13 * 4 pi and the branch is
    clear, up to 2048.  Compact fronts (capped charts) get the degree
    bookkeeping and the LLR inequality; complete fronts contribute end
    growth orders instead.  Degenerate singular points, or singular curves
    with no cuspidal edges at all (cones), mark the report inapplicable:
    the identities' hypotheses exclude them.  `provenance` records the chi
    grid, the panels used and their nodes, the difference of the last two
    signed sums (None for explicit `panels`), the coarse estimate's miss
    of its branch (where int K dA was computed) and the number of curves.
    """
    if curves is None:
        curves = trace(front, grid=_TRACE_GRID)
    meta = front.metadata or {}
    compact = bool(meta.get("caps"))
    complete = bool(meta.get("ends"))
    if not compact and not complete:
        raise InapplicableError(
            "global identities need a closed front or a complete front with "
            "end metadata; plain chart pieces have uncontrolled boundary terms"
        )
    reason = _excluded(curves)
    if reason == _NO_CUSPS and "cone_angle" in meta:
        reason += f"; cone angle {meta['cone_angle']!r}"

    minus = None
    if reason != _DEGENERATE:
        minus, rule = _minus_area(front, _boundary_pieces(front, curves, panels), (3, 2))
    sums, budget = _area_sums(front, panels, minus=minus)
    int_hat = sums[0]
    int_dA = int_ks = alpha_terms = math.nan
    residual_unsigned = residual_signed = math.nan
    S_plus = S_minus = 0
    deg = llr = None
    if minus is not None:
        int_dA = _unsigned(sums, minus)
    S = _lambda_signs(front, grid)
    chi_M, chi_p, chi_m = _chis(front, S)
    ends = _end_epsilons(front, S)
    st_points = [
        p for c in curves for p in c.samples
        if p.kind is SingularClass.SWALLOWTAIL
    ]
    if not reason:
        int_ks = _kappa_sum(rule)
        S_plus, S_minus = swallowtail_signs(front, st_points)
        alpha_terms = TWO_PI * (S_plus - S_minus)
        deg = _degree_from_total(int_hat) if compact else None
        residual_unsigned = (
            int_dA + 2.0 * int_ks + sum(a for (_, a, _) in ends) - TWO_PI * chi_M
        )
        residual_signed = (
            int_hat - alpha_terms + sum(eps * a for (_, a, eps) in ends)
            - TWO_PI * (chi_p - chi_m)
        )
        if compact and curves:
            genus = (2 - chi_M) // 2
            lhs = len(curves) + 0.5 * len(st_points)
            rhs = deg + 1 - genus + 2 * k_f
            llr = {
                "a_f": len(curves),
                "q_f": len(st_points),
                "deg_nu": deg,
                "genus": genus,
                "k_f": k_f,
                "lhs": lhs,
                "rhs": rhs,
                "satisfied": bool(lhs >= rhs - 1e-12),
            }

    return GaussBonnetReport(
        int_K_dA=int_dA, int_K_dAhat=int_hat, int_kappa_s_ds=int_ks,
        chi_M=chi_M, chi_Mplus=chi_p, chi_Mminus=chi_m,
        alpha_terms=alpha_terms, deg_nu=deg, S_plus=S_plus, S_minus=S_minus,
        ends=ends, residual_unsigned=residual_unsigned,
        residual_signed=residual_signed, applicable=not reason, reason=reason,
        llr=llr,
        provenance={
            "chi_grid": grid,
            **budget,
            "nodes": _PANEL_NODES,
            "n_curves": len(curves),
        },
    )


def report_to_dict(report):
    """JSON-ready mapping with every report field."""
    out = dataclasses.asdict(report)
    out["ends"] = [list(e) for e in report.ends]
    return out
