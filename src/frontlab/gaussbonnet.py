"""Total curvature, Euler characteristics, and the two global identities.

The signed form integrates det(nu_u, nu_v, nu) du dv, which extends smoothly
across the singular set; the unsigned form weights it by sgn(lambda) and is
handled with dyadically refined Gauss-Legendre panels near the zero set.
Combined with the singular-curvature line integral and cell-complex Euler
characteristics of the two chart regions, the module assembles the unsigned
and signed identity residuals and the degree bookkeeping.
"""

import dataclasses
import math

import numpy as np

from .errors import FrontlabError, InapplicableError
from .front import det3, lambda_value
from .singular import (
    SingularClass,
    _curvatures,
    _lambda_blocks,
    _wrapped_delta,
    lambda_jets,
    tail_side,
    trace,
)

TWO_PI = 2.0 * math.pi
_CHUNK = 1 << 16
_RING_SAMPLES = 2048  # Gauss-image ring points per polar cap
_REFINE_NODES = 4  # Gauss rule per axis on refined panels (twice that to commit)
_KAPPA_NODES = 8  # Gauss nodes per panel of the kappa_s line integral
_KAPPA_NEWTON_ITERS = 8  # projections of those nodes onto lambda = 0


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


def _gl_rule(n):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w  # mapped to (0, 1)


def _eval_fields(front, U, V):
    """det(nu_u, nu_v, nu) and lambda at flattened points, chunked."""
    det = np.empty(U.size)
    lam = np.empty(U.size)
    for k in range(0, U.size, _CHUNK):
        sl = slice(k, k + _CHUNK)
        jf, jn = front.jets(U[sl], V[sl], 1, 1)
        det[sl] = det3(jn.f_u, jn.f_v, jn.value)
        lam[sl] = det3(jf.f_u, jf.f_v, jn.value)
    return det, lam


def _panel_counts(dom, budget):
    """Split a total panel budget so panels are roughly square."""
    aspect = (dom.u1 - dom.u0) / (dom.v1 - dom.v0)
    n_u = max(4, round(math.sqrt(budget * aspect)))
    n_v = max(4, budget // n_u)
    return n_u, n_v


def _cap_terms(front):
    """Curvature contributed by polar caps a truncated chart leaves out.

    A capped chart covers the surface except two small disks around the
    poles.  Over each disk the signed curvature form integrates to the
    signed spherical area enclosed by the Gauss image of the chart-edge
    ring; that area comes from a fan of spherical triangles.  Returns
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
    us = dom.u0 + (dom.u1 - dom.u0) * np.arange(_RING_SAMPLES) / _RING_SAMPLES
    out = []
    for edge in (0, 1):
        v = dom.v0 if edge == 0 else dom.v1
        vs = np.full(_RING_SAMPLES, v)
        jf, jn = front.jets(us, vs, 1, 0)
        lam_sign = 1 if float(np.median(det3(jf.f_u, jf.f_v, jn.value))) > 0 else -1
        # boundary of {v <= v0} runs in -u, boundary of {v >= v1} in +u
        P = jn.value[::-1] if edge == 0 else jn.value
        c = P.mean(axis=0)
        c /= np.linalg.norm(c)
        Q = np.roll(P, -1, axis=0)
        num = det3(np.broadcast_to(c, P.shape), P, Q)
        den = 1.0 + P @ c + (P * Q).sum(axis=1) + Q @ c
        area = float(np.sum(2.0 * np.arctan2(num, den)))
        out.append((area, lam_sign))
    return tuple(out)


def _panel_nodes(panels, nodes):
    """GL node coordinates and weights for a batch of rectangles.

    panels: array (P, 4) of (u0, v0, wu, wv).  Returns flat U, V of length
    P*nodes^2 and the per-node weight including the area Jacobian.
    """
    x, w = _gl_rule(nodes)
    u = panels[:, 0, None] + panels[:, 2, None] * x[None, :]  # (P, n)
    v = panels[:, 1, None] + panels[:, 3, None] * x[None, :]
    U = np.repeat(u[:, :, None], nodes, axis=2)
    V = np.repeat(v[:, None, :], nodes, axis=1)
    W = (w[None, :, None] * w[None, None, :]) * (
        panels[:, 2] * panels[:, 3]
    )[:, None, None]
    return U.ravel(), V.ravel(), W


def _panel_grid(dom, budget):
    n_u, n_v = _panel_counts(dom, budget)
    du = (dom.u1 - dom.u0) / n_u
    dv = (dom.v1 - dom.v0) / n_v
    return np.array(
        [
            (dom.u0 + i * du, dom.v0 + j * dv, du, dv)
            for i in range(n_u)
            for j in range(n_v)
        ]
    )


def integrate_K_dAhat(front, grid=2048, nodes=16, rule="gl"):
    """Integral of the smooth signed curvature form det(nu_u, nu_v, nu).

    `grid` is the total panel budget; `rule` picks Gauss-Legendre or
    midpoint nodes per panel (the latter exists as an independent
    cross-check of the former).
    """
    if rule not in ("gl", "midpoint"):
        raise ValueError(f"rule must be 'gl' or 'midpoint', got {rule!r}")
    batch = _panel_grid(front.domain, grid)
    if rule == "gl":
        U, V, W = _panel_nodes(batch, nodes)
    else:
        x = (np.arange(nodes) + 0.5) / nodes
        w = np.full(nodes, 1.0 / nodes)
        u = batch[:, 0, None] + batch[:, 2, None] * x[None, :]
        v = batch[:, 1, None] + batch[:, 3, None] * x[None, :]
        U = np.repeat(u[:, :, None], nodes, axis=2).ravel()
        V = np.repeat(v[:, None, :], nodes, axis=1).ravel()
        W = (w[None, :, None] * w[None, None, :]) * (
            batch[:, 2] * batch[:, 3]
        )[:, None, None]
    det, _ = _eval_fields(front, U, V)
    per_panel = (det.reshape(len(batch), nodes, nodes) * W).sum(axis=(1, 2))
    caps = [area for (area, _) in _cap_terms(front)]
    return math.fsum(per_panel.tolist() + caps)


def _panel_values(front, batch, nodes):
    """Per-panel sgn(lambda) quadrature, mixed mask, and plain det integral.

    Panels go in blocks of one `_eval_fields` chunk of nodes, so the node
    arrays and their per-panel temporaries stay chunk-sized.
    """
    step = max(1, _CHUNK // (nodes * nodes))
    parts = [
        _panel_block(front, batch[k : k + step], nodes)
        for k in range(0, len(batch), step)
    ]
    return tuple(np.concatenate(p) for p in zip(*parts))


def _panel_block(front, batch, nodes):
    U, V, W = _panel_nodes(batch, nodes)
    det, lam = _eval_fields(front, U, V)
    P = len(batch)
    det = det.reshape(P, nodes, nodes)
    lam = lam.reshape(P, nodes, nodes)
    vals = (np.sign(lam) * det * W).sum(axis=(1, 2))
    mixed = (lam.min(axis=(1, 2)) < 0.0) & (lam.max(axis=(1, 2)) > 0.0)
    return vals, mixed, (det * W).sum(axis=(1, 2))


def _negative_fraction(lam0, lu, lv, wu, wv, slices=256):
    """Area fraction of {lam0 + lu x + lv y < 0} on [-wu/2, wu/2] x [-..].

    The half-plane cut of each rectangle is sliced along the axis with the
    larger gradient extent; each slice contributes a clipped linear run.
    """
    swap = np.abs(lu) * wu < np.abs(lv) * wv
    a = np.where(swap, lv, lu)
    b = np.where(swap, lu, lv)
    wa = np.where(swap, wv, wu)
    wb = np.where(swap, wu, wv)
    t = (np.arange(slices) + 0.5) / slices - 0.5  # slice centers, in wb units
    ell = lam0[:, None] + b[:, None] * (wb[:, None] * t[None, :])
    with np.errstate(divide="ignore", invalid="ignore"):
        cut = 0.5 - ell / (a[:, None] * wa[:, None])
    frac = np.clip(cut, 0.0, 1.0)
    frac = np.where(a[:, None] > 0.0, frac, 1.0 - frac)
    frac = np.where((a == 0.0)[:, None], (ell < 0.0).astype(float), frac)
    return frac.mean(axis=1)


def _split4(batch):
    u0, v0 = batch[:, 0], batch[:, 1]
    hu, hv = 0.5 * batch[:, 2], 0.5 * batch[:, 3]
    quads = [
        (u0, v0), (u0 + hu, v0), (u0, v0 + hv), (u0 + hu, v0 + hv)
    ]
    out = np.empty((4 * len(batch), 4))
    for k, (a, b) in enumerate(quads):
        out[k::4, 0] = a
        out[k::4, 1] = b
        out[k::4, 2] = hu
        out[k::4, 3] = hv
    return out


def _curve_reach(front, batch):
    """Panels the singular curve can enter despite one-signed node values.

    Linearizes lambda at each panel center; the zero line reaches into
    the panel when |lambda| there is within the linear variation over the
    half-widths.  Node signs alone miss a curve clipping a corner between
    the outermost nodes, and those misses do not refine away: they recur
    at every depth and their one-sided kink errors accumulate.
    """
    wu, wv = batch[:, 2], batch[:, 3]
    lam0, lam_u, lam_v = lambda_jets(
        front, batch[:, 0] + 0.5 * wu, batch[:, 1] + 0.5 * wv, order=1
    )
    reach = 0.5 * (np.abs(lam_u) * wu + np.abs(lam_v) * wv)
    return np.abs(lam0) <= reach


def _K_dA_detail(front, panels, nodes, max_depth, abs_tol):
    """sgn(lambda)-weighted curvature integral with dyadic refinement.

    Panels the singular curve touches -- both lambda signs at the nodes,
    or the linearized zero line within reach of the center -- are split
    in four, at most `max_depth` generations deep, so the leaf width
    scales with the panel grid and refining the grid refines the leaves
    with it.  Leaves that bottom out still touched are resolved by a
    linear cut: the tangent line of lambda at the leaf center splits the
    leaf into signed area fractions weighting the leaf-mean integrand.
    The reported uncertainty is twice the latest value change attributed
    to panels whose children are still touched (the changes decay
    roughly geometrically with depth, so the tail is bounded by the last
    term), plus a quarter of the total linear-cut correction, which
    dominates the cut's own second-order remainder.  Refined panels use
    a lighter Gauss rule: they are small and their count grows like the
    inverse width.
    """
    batch = _panel_grid(front.domain, panels)
    vals, mixed, _ = _panel_values(front, batch, nodes)
    mixed |= _curve_reach(front, batch)
    contributions = vals[~mixed].tolist()
    if np.any(mixed):
        # coarse values of the mixed panels seed the change bookkeeping on
        # the same rule their children will use
        vals = vals.copy()
        vals[mixed] = _panel_values(front, batch[mixed], _REFINE_NODES)[0]
    levels = 0
    tail = 0.0
    while np.any(mixed) and levels < max_depth:
        levels += 1
        parent_vals = vals[mixed]
        batch = _split4(batch[mixed])
        vals, mixed, _ = _panel_values(front, batch, _REFINE_NODES)
        change = np.abs(parent_vals - vals.reshape(-1, 4).sum(axis=1))
        claim = ~mixed
        if np.any(claim):
            # the coarse rule only steers; committed values get a
            # higher-order rule, and a child is committed only once that
            # rule's own nodes and the reach test both clear it --
            # otherwise it is demoted back into the refinement set
            sub = batch[claim]
            vals_hi, mixed_hi, _ = _panel_values(front, sub, 2 * _REFINE_NODES)
            ok = ~(mixed_hi | _curve_reach(front, sub))
            contributions.extend(vals_hi[ok].tolist())
            demoted = np.nonzero(claim)[0][~ok]
            mixed[demoted] = True
            vals[demoted] = vals_hi[~ok]
        tail = 2.0 * float(change[mixed.reshape(-1, 4).any(axis=1)].sum())
    floor_term = 0.0
    if np.any(mixed):
        # leaves still straddling the curve at the depth cap: cut each by
        # the tangent line of lambda at the panel center and weight the
        # panel-mean integrand by the signed area split.  Nodewise-sign
        # quadrature carries a one-sided O(width) kink error; the linear
        # cut leaves only the curvature of the zero line, O(width^2).
        leaves = batch[mixed]
        wu, wv = leaves[:, 2], leaves[:, 3]
        step_vals, _, idet = _panel_values(front, leaves, 2 * _REFINE_NODES)
        lam0, lam_u, lam_v = lambda_jets(
            front, leaves[:, 0] + 0.5 * wu, leaves[:, 1] + 0.5 * wv, order=1
        )
        neg = _negative_fraction(lam0, lam_u, lam_v, wu, wv)
        cut_vals = idet * (1.0 - 2.0 * neg)
        contributions.extend(cut_vals.tolist())
        floor_term = 0.25 * float(np.abs(cut_vals - step_vals).sum())
    unresolved = tail + floor_term
    if unresolved > abs_tol:
        raise FrontlabError(
            f"unsigned curvature quadrature tolerance not met: estimated "
            f"error {unresolved:.3e} > {abs_tol:.3e} at maximum refinement"
        )
    contributions.extend(s * area for (area, s) in _cap_terms(front))
    return math.fsum(contributions), unresolved, levels


def integrate_K_dA(front, grid=2048, nodes=16, max_depth=8, abs_tol=1e-2):
    """Integral of K against the unsigned area form |lambda| du dv.

    The integrand sgn(lambda) det(nu_u, nu_v, nu) is bounded but kinked on
    the singular set; mixed-sign panels are split dyadically through at
    most `max_depth` generations.  `grid` is the total panel budget before
    refinement.
    """
    value, _, _ = _K_dA_detail(front, grid, nodes, max_depth, abs_tol)
    return value


def integrate_kappa_s(front, curves):
    """Line integral of kappa_s over traced singular curves.

    Panels run between consecutive trace samples, so Gauss nodes never land
    on a peak; the density kappa_s |image speed| stays bounded there.  The
    chord nodes are projected back onto the zero set of lambda by a few
    vectorized Newton steps.  Curves containing degenerate samples are
    refused: the identity's hypotheses exclude them.
    """
    nodes = _KAPPA_NODES
    x, w = _gl_rule(nodes)
    starts, steps, lengths, weights = [], [], [], []
    for curve in curves:
        if any(p.kind is SingularClass.DEGENERATE for p in curve.samples):
            raise InapplicableError(
                "singular curve contains degenerate points; the curvature "
                "measure is not defined there"
            )
        pts = [np.asarray(p.uv) for p in curve.samples]
        n = len(pts)
        if n < 2:
            continue
        last = n if curve.closed else n - 1
        for i in range(last):
            step = _wrapped_delta(front.domain, pts[(i + 1) % n], pts[i])
            length = float(np.linalg.norm(step))
            if length == 0.0:
                continue
            starts.append(pts[i])
            steps.append(step)
            lengths.append(length)
    if not starts:
        return 0.0
    A = np.array(starts)  # (S, 2)
    D = np.array(steps)
    L = np.array(lengths)
    U = (A[:, None, 0] + x[None, :] * D[:, None, 0]).ravel()
    V = (A[:, None, 1] + x[None, :] * D[:, None, 1]).ravel()
    for _ in range(_KAPPA_NEWTON_ITERS):
        lam, lu, lv = lambda_jets(front, U, V, order=1)
        denom = lu * lu + lv * lv
        U = U - lam * lu / denom
        V = V - lam * lv / denom
    lam, lu, lv = lambda_jets(front, U, V, order=1)
    drift = np.abs(lam) / np.hypot(lu, lv)
    if float(drift.max()) > 1e-9 * front.domain.scale:
        k = int(drift.argmax())
        raise FrontlabError(
            f"lost the singular curve while integrating near "
            f"({U[k]:.6g}, {V[k]:.6g})"
        )
    jf, jn = front.jets(U, V, 3, 2)
    dens = _curvatures(jf, jn, _lambda_blocks(jf, jn, 2))[0].reshape(len(A), nodes)
    contrib = (dens * w[None, :]) * L[:, None]
    return math.fsum(contrib.ravel().tolist())


def _region_euler(cells, periodic_u, periodic_v):
    """V - E + F for the closed cell set, with periodic identifications."""
    Cu, Cv = cells.shape
    nVu = Cu if periodic_u else Cu + 1
    nVv = Cv if periodic_v else Cv + 1
    I, J = np.nonzero(cells)
    I1 = (I + 1) % nVu if periodic_u else I + 1
    J1 = (J + 1) % nVv if periodic_v else J + 1
    vert = np.zeros((nVu, nVv), dtype=bool)
    vert[I, J] = True
    vert[I1, J] = True
    vert[I, J1] = True
    vert[I1, J1] = True
    edge_u = np.zeros((Cu, nVv), dtype=bool)  # edges along the u direction
    edge_u[I, J] = True
    edge_u[I, J1] = True
    edge_v = np.zeros((nVu, Cv), dtype=bool)  # edges along the v direction
    edge_v[I, J] = True
    edge_v[I1, J] = True
    return int(vert.sum()) - int(edge_u.sum()) - int(edge_v.sum()) + int(
        cells.sum()
    )


def euler_characteristics(front, grid=256):
    """(chi(M), chi(M+), chi(M-)) from the sign of lambda on a cell grid.

    Cells owning at least one corner of a sign belong to that region's
    closure, so cells crossed by the singular curve count for both.  Polar
    caps recorded in the metadata close off truncated sphere charts.
    """
    dom = front.domain
    uu, vv = dom.grid(grid)
    lam = np.empty(uu.size)
    uf, vf = uu.ravel(), vv.ravel()
    for k in range(0, uf.size, _CHUNK):
        sl = slice(k, k + _CHUNK)
        lam[sl] = lambda_value(front, uf[sl], vf[sl])
    S = np.sign(lam.reshape(uu.shape))
    nu_, nv_ = S.shape
    Cu = nu_ if dom.periodic_u else nu_ - 1
    Cv = nv_ if dom.periodic_v else nv_ - 1
    iu = np.arange(Cu)
    iv = np.arange(Cv)
    iu1 = (iu + 1) % nu_
    iv1 = (iv + 1) % nv_
    chis = {}
    for sign in (1, -1):
        hit = (S == sign) | (S == 0)
        corner = (
            hit[np.ix_(iu, iv)]
            | hit[np.ix_(iu1, iv)]
            | hit[np.ix_(iu, iv1)]
            | hit[np.ix_(iu1, iv1)]
        )
        count = int(corner.sum())
        if 0 < count < 3:
            raise FrontlabError(
                f"grid too coarse: the lambda {'positive' if sign > 0 else 'negative'}"
                f" region only touches {count} cell(s); refine the grid"
            )
        chi = _region_euler(corner, dom.periodic_u, dom.periodic_v) if count else 0
        caps = front.metadata.get("caps", 0) if front.metadata else 0
        if caps and count:
            for row in (S[:, 0], S[:, -1]):
                if np.all((row == sign) | (row == 0)):
                    chi += 1
        chis[sign] = chi
    meta_chi = front.metadata.get("chi") if front.metadata else None
    chi_M = int(meta_chi) if meta_chi is not None else chis[1] + chis[-1]
    return chi_M, chis[1], chis[-1]


def _degree_from_total(total, max_dev):
    val = total / (2.0 * TWO_PI)
    if abs(val - round(val)) >= max_dev:
        raise FrontlabError(
            f"total signed curvature / 4 pi = {val:.6f} is not within "
            f"{max_dev} of an integer"
        )
    return int(round(val))


def degree_of_gauss_map(front, grid=2048, nodes=16, max_dev=0.05):
    """Degree of nu from the signed total curvature, with integrality check."""
    if not (front.metadata and front.metadata.get("caps")):
        raise InapplicableError(
            "degree of the Gauss map needs a closed front (truncated chart "
            "with polar caps); this front is not compact"
        )
    return _degree_from_total(integrate_K_dAhat(front, grid, nodes), max_dev)


def swallowtail_signs(front, points):
    """(#S+, #S-): positive when the tail is carried by the negative side."""
    plus = minus = 0
    for p in points:
        if p.kind is not SingularClass.SWALLOWTAIL:
            continue
        sign = p.swallowtail_sign
        if sign is None:
            sign = tail_side(front, p).st_sign
        if sign > 0:
            plus += 1
        else:
            minus += 1
    return plus, minus


def _end_epsilons(front, grid=64):
    """Pair metadata ends with the sign of lambda at the chart's end edges.

    Ends live on the non-periodic axis of a cylinder chart; the metadata
    list is ordered (low edge, high edge).
    """
    meta = front.metadata.get("ends", []) if front.metadata else []
    if not meta:
        return ()
    dom = front.domain
    out = []
    ts = np.linspace(0.0, 1.0, grid, endpoint=False)
    for k, end in enumerate(meta):
        if dom.periodic_v:
            u = dom.u0 if k == 0 else dom.u1
            lam = lambda_value(front, np.full_like(ts, u),
                               dom.v0 + ts * (dom.v1 - dom.v0))
        else:
            v = dom.v0 if k == 0 else dom.v1
            lam = lambda_value(front, dom.u0 + ts * (dom.u1 - dom.u0),
                               np.full_like(ts, v))
        eps = 1 if float(np.median(lam)) > 0 else -1
        out.append((end["label"], float(end["a"]), eps))
    return tuple(out)


def euler_report(front, curves=None, grid=256, panels=2048, trace_grid=96,
                 k_f=0, abs_tol=1e-2, nodes=16, max_depth=8):
    """Assemble both global identities and their residuals for one front.

    `curves` come from `trace`; when omitted the singular set is traced
    here at `trace_grid`.  Compact fronts (capped charts) get the degree
    bookkeeping and the LLR inequality; complete fronts contribute end
    growth orders instead.  Degenerate singular points, or singular curves
    with no cuspidal edges at all (cones), mark the report inapplicable:
    the identities' hypotheses exclude them.
    """
    if curves is None:
        curves = trace(front, grid=trace_grid)
    meta = front.metadata or {}
    compact = bool(meta.get("caps"))
    complete = bool(meta.get("ends"))
    if not compact and not complete:
        raise InapplicableError(
            "global identities need a closed front or a complete front with "
            "end metadata; plain chart pieces have uncontrolled boundary terms"
        )
    reason = ""
    if any(p.kind is SingularClass.DEGENERATE for c in curves for p in c.samples):
        reason = "degenerate singular points present"
    elif any(
        all(p.kind is not SingularClass.CUSPIDAL_EDGE for p in c.samples)
        for c in curves
    ):
        reason = "a singular curve carries no cuspidal edges"
        if "cone_angle" in meta:
            reason += f"; cone angle {meta['cone_angle']!r}"
    applicable = reason == ""

    int_hat = integrate_K_dAhat(front, panels, nodes)
    int_dA, unresolved, levels = _K_dA_detail(front, panels, nodes,
                                              max_depth, abs_tol)
    chi_M, chi_p, chi_m = euler_characteristics(front, grid)
    ends = _end_epsilons(front)
    provenance = {
        "chi_grid": grid,
        "panels": panels,
        "nodes": nodes,
        "max_depth": max_depth,
        "refinement_levels": levels,
        "K_dA_unresolved": unresolved,
        "n_curves": len(curves),
    }
    if not applicable:
        return GaussBonnetReport(
            int_K_dA=int_dA, int_K_dAhat=int_hat, int_kappa_s_ds=math.nan,
            chi_M=chi_M, chi_Mplus=chi_p, chi_Mminus=chi_m,
            alpha_terms=math.nan, deg_nu=None, S_plus=0, S_minus=0,
            ends=ends, residual_unsigned=math.nan, residual_signed=math.nan,
            applicable=False, reason=reason, llr=None, provenance=provenance,
        )

    int_ks = integrate_kappa_s(front, curves)
    st_points = [
        p for c in curves for p in c.samples
        if p.kind is SingularClass.SWALLOWTAIL
    ]
    S_plus, S_minus = swallowtail_signs(front, st_points)
    alpha_terms = TWO_PI * (S_plus - S_minus)
    deg = _degree_from_total(int_hat, 0.05) if compact else None

    end_sum_unsigned = sum(a for (_, a, _) in ends)
    end_sum_signed = sum(eps * a for (_, a, eps) in ends)
    residual_unsigned = (
        int_dA + 2.0 * int_ks + end_sum_unsigned - TWO_PI * chi_M
    )
    residual_signed = (
        int_hat - alpha_terms + end_sum_signed - TWO_PI * (chi_p - chi_m)
    )

    llr = None
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
        residual_signed=residual_signed, applicable=True, reason="",
        llr=llr, provenance=provenance,
    )


def report_to_dict(report):
    """JSON-ready mapping with every report field."""
    out = dataclasses.asdict(report)
    out["ends"] = [list(e) for e in report.ends]
    return out
