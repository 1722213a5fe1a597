"""Test-only oracle: the parameter-circle sweep that found a swallowtail's tail.

This is how `frontlab.singular.tail_side` located the tail before it read
the side from the order-3 jet in closed form: it sweeps a parameter
circle around the swallowtail, projects the image displacements into the
limiting tangent plane, and measures the angle the image sweeps on each
lambda-side; the tail's image pinches to an interior angle of about 0,
the other side opens to about 2*pi.  It evaluates lambda and the map on
every angle and shares no step with the closed form, so the two are
independent routes to the same sign.
"""

import math

import numpy as np

from frontlab.errors import FrontlabError, InapplicableError
from frontlab.front import lambda_value, stack
from frontlab.singular import SingularClass, TailSide


def image_point(front, q):
    """f(q), the map's value at the chart point q, as a 3-vector."""
    return stack(front.jets(q[0], q[1], 1, 0)[0].value)


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
    img0 = image_point(front, q0)

    def sweep_angles(theta):
        pts_u = q0[0] + r * np.cos(theta)
        pts_v = q0[1] + r * np.sin(theta)
        lam = lambda_value(front, pts_u, pts_v)
        disp = stack(front.jets(pts_u, pts_v, 0, 0)[0].value) - img0
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
