"""Test oracle: the projection onto lambda = 0 with every Newton step taken.

This is `frontlab.singular._project` before it returned at a bitwise
fixed point: `_PROJECT_ITERS` Newton steps on lambda(X + mu N) = 0 from
mu = 0, always all of them.  The library's early return is exact, so the
two agree bit for bit, in value and in type.
"""

import numpy as np

from frontlab.singular import _PROJECT_ITERS, lambda_jets


def project(front, X, N):
    u, v, n0, n1 = X[..., 0][()], X[..., 1][()], N[..., 0][()], N[..., 1][()]
    mu = np.zeros(X.shape[:-1])
    for _ in range(_PROJECT_ITERS):
        lam, lu, lv = lambda_jets(front, u + mu * n0, v + mu * n1, order=1)
        mu = mu - lam / (lu * n0 + lv * n1)
    return mu
