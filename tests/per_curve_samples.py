"""Test oracle: the samples of each traced curve built on their own.

These are `frontlab.singular`'s `_insert_swallowtails` and `_build_samples`
before `trace` built the samples of all its curves in one batch: every
curve takes its own array jets, swallowtail bisection and classification.
Jets, the singular value decomposition and the curvature kernel work
point by point, so the batch gives each sample the same bits, and
`trace` below, which assembles the curves of `singular._chains` one at a
time, returns what `frontlab.trace` returns.
"""

import functools

import numpy as np

from frontlab.errors import TraceError
from frontlab.front import stack
from frontlab.singular import (
    SingularClass,
    SingularCurve,
    SingularPoint,
    _bisect,
    _chains,
    _chord_normals,
    _continuation_signs,
    _cross2,
    _curvatures,
    _decide,
    _dot2,
    _lambda_blocks,
    _null_direction,
    _project,
    _tail_sides,
    _transversality_rates,
    _wrap,
    _wrapped_delta,
)


def trace(front, grid=64):
    """`frontlab.trace` with each curve's samples built on their own."""
    curves = []
    for P, closed in _chains(front, grid):
        samples = _build_samples(front, front.domain, P, closed)
        peaks = tuple(
            i for i, p in enumerate(samples)
            if p.kind != SingularClass.CUSPIDAL_EDGE
        )
        curves.append(SingularCurve(samples=samples, closed=closed, peaks=peaks))
    curves.sort(key=lambda c: (c.samples[0].uv[0], c.samples[0].uv[1]))
    return curves


def _insert_swallowtails(front, dom, P, closed):
    """The samples P of one curve with its transversality zeros inserted.

    The tangents and null directions of all samples come from one array
    jet evaluation; running sign products turn each to continue its
    predecessor (a tangent with |grad lambda| < 1e-14 is its
    predecessor's, or (1, 0)), so the determinant det(T, eta) may change
    sign along the curve.  One masked bisection then serves every sign
    change, one round per call (each projected midpoint depends on the
    one before, so it takes no end values): each round projects the
    brackets' midpoints onto the curve along their chord normals, wraps
    them into the chart and evaluates det(T, eta) there with T = (lambda_v, -lambda_u)/|grad
    lambda|, until |det| <= 1e-10 or 60 rounds.  Only the brackets that
    closed so, away from both end samples, are inserted.
    """
    jf, jn = front.jets(P[:, 0], P[:, 1], 2, 1)
    _, lu, lv = _lambda_blocks(jf, jn, 1)
    eta, _ = _null_direction(jf)
    n = len(P)
    g = np.hypot(lu, lv)
    with np.errstate(divide="ignore", invalid="ignore"):
        T = np.stack([np.r_[lv / g, 1.0], np.r_[-lu / g, 0.0]], axis=-1)
    T = T[np.maximum.accumulate(np.where(g < 1e-14, -1, np.arange(n)))]  # row -1 is (1, 0)
    T *= _continuation_signs(_dot2(T[1:].T, T[:-1].T))[:, None]
    if _cross2(T[0], eta[0]) < 0:
        eta[0] *= -1.0
    eta *= _continuation_signs(_dot2(eta[1:].T, eta[:-1].T))[:, None]
    dets = _cross2(T.T, eta.T)
    i = np.arange(n if closed else n - 1)
    j = (i + 1) % n
    pair = (dets[i] * dets[j] < 0) & (np.minimum(np.abs(dets[i]), np.abs(dets[j])) > 1e-10)
    if not pair.any():
        return P
    i, j = i[pair], j[pair]
    eta_ref = eta[i]

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
        flat = np.hypot(D[:, 0], D[:, 1]) == 0.0
        if flat.any():
            u, v = a[flat][0]
            raise TraceError(
                f"the ends of the swallowtail bracket at ({u:.6g}, {v:.6g}) coincide "
                "in the chart: no chord to project its midpoint along"
            )
        M, N = a + 0.5 * D, _chord_normals(D)
        return _wrap(dom, M + _project(front, M, N)[0][:, None] * N)

    a_neg = (det(P[i], np.arange(len(i))) < 0)[:, None]
    neg, pos = _bisect(
        det, np.where(a_neg, P[i], P[j]), np.where(a_neg, P[j], P[i]),
        midpoint, small=1e-10, rounds=60,
    )
    # a bracket whose ends stay apart never reached |det| <= 1e-10, and one
    # that closes onto a sample closes onto |det| > 1e-10: either holds a
    # jump of det, not a zero
    found = (neg == pos).all(axis=1) & np.isfinite(pos).all(axis=1)
    found &= (pos != P[i]).any(axis=1) & (pos != P[j]).any(axis=1)
    return np.insert(P, i[found] + 1, _wrap(dom, pos[found]), axis=0)


def _build_samples(front, dom, P, closed):
    """Classify the samples P of one curve, with its swallowtails inserted.

    One array jet evaluation of the whole curve feeds the curvature kernel,
    the transversality rates, the tail sides and the image arclengths;
    `_decide` takes each sample's row of plain floats.  The rates are
    computed for the whole curve when the first row asks for one, so a
    curve of cuspidal edges never pays for them.  Each sample is built
    once, a swallowtail with its sign.
    """
    # a fresh C-ordered copy: numpy's vector loops for exp and cosh can round
    # differently on a reversed view's columns
    P = _insert_swallowtails(front, dom, np.array(P, dtype=float), closed)
    jf, jn = front.jets(P[:, 0], P[:, 1], 3, 2)
    blocks = _lambda_blocks(jf, jn, 2)
    eta, sig = _null_direction(jf)
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

    seg = np.linalg.norm(np.diff(stack(jf.value), axis=0), axis=-1)
    s = np.concatenate([[0.0], np.cumsum(seg)])
    return tuple(SingularPoint(*f, s_i, sign) for (f, sign), s_i in zip(rows, s.tolist()))

