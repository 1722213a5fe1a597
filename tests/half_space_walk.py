"""Test oracle: half-space signs at a swallowtail by walk-and-vote.

This is how `frontlab.half_space_signs` found sgn_Delta at a swallowtail
before it read the sign from the order-3 jet in closed form: four scalar
Newton walks along the singular curve to cuspidal edges on both sides of
the swallowtail, at two distances, each classified, its lambda-side
probed and its edge sign taken, and the votes required to agree.  It
shares no step with the closed form but the edge sign at a cuspidal edge,
so the two are independent routes to the same limit.  `probe_sign_delta`
is an independent probe of the edge sign itself.
"""

import math

import numpy as np

from frontlab.errors import FrontContractError, FrontlabError, InapplicableError
from frontlab.front import lambda_value, stack
from frontlab.singular import (
    HalfSpaceSigns,
    SingularClass,
    _edge_sign_delta,
    classify,
    lambda_jets,
    tail_side,
)


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


def _side_normal(point):
    T = point.singular_dir
    return np.array([-T[1], T[0]])


def probe_sign_delta(front, point, side, t):
    """Independent probe: is nu the outward normal of the side's image?"""
    eta = np.asarray(point.null_dir, dtype=float)
    n = _side_normal(point)
    if float(eta @ n) * side < 0:
        eta = -eta
    q = np.asarray(point.uv, dtype=float)
    p_in = q + t * eta
    p_out = q - t * eta
    jf_in, jn_in = front.jets(p_in[0], p_in[1], 0, 0)
    jf_out = front.jets(p_out[0], p_out[1], 0, 0)[0]
    val = -float(stack(jn_in.value) @ (stack(jf_out.value) - stack(jf_in.value)))
    return 1 if val > 0 else -1


def swallowtail_signs(front, point, side):
    """`half_space_signs(front, point, side)` at a swallowtail."""
    jf, jn = front.jets(point.uv[0], point.uv[1], 2, 0)
    eta = np.asarray(point.null_dir, dtype=float)
    X = np.array([-eta[1], eta[0]])  # transversal to the singular direction
    val = float(stack(jf.along(X, 2)) @ stack(jn.value))
    if abs(val) < 1e-10:
        raise InapplicableError("swallowtail is not generic: second form flat")
    sgn_0 = 1 if val > 0 else -1
    tail = tail_side(front, point)
    want_side = tail.lambda_sign if side == 1 else -tail.lambda_sign
    sgn_d = swallowtail_sign_delta(front, point, want_side)
    return HalfSpaceSigns(sgn_Delta=sgn_d, sgn_0=sgn_0,
                          predicted_K_sign=sgn_0 * sgn_d)


def swallowtail_sign_delta(front, point, lambda_side):
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
