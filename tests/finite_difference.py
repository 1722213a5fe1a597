"""Test oracle: central-difference jets of a black-box map.

`frontlab` takes exact jets of parsed expressions only.  This module keeps
the finite-difference jet the library once offered for callback maps, so
tests can check exact jets against an independent route.  Third
differences with the default step carry roundoff of order eps/h^3 = O(1);
pass a coarser `h` for them.
"""

import math

import numpy as np

from frontlab.expr import Jet2

_EPS_CBRT = float(np.finfo(float).eps) ** (1.0 / 3.0)


def finite_difference_jet(callback, u, v, order, h=None):
    """Order-2 central-difference jet of `callback(u, v)` at scalar (u, v)."""
    if order not in (0, 1, 2, 3):
        raise ValueError(f"order must be 0..3, got {order!r}")
    if h is None:
        # snap to a power of two so u +/- h stays exactly representable and
        # the second-difference numerators cancel cleanly
        h = 2.0 ** round(math.log2(_EPS_CBRT * max(1.0, abs(u), abs(v))))
    if h <= 0:
        raise ValueError("step h must be positive")

    def F(uu, vv):
        return np.asarray(callback(uu, vv), dtype=float)

    f0 = F(u, v)
    blocks = [(f0,)]
    if order >= 1:
        fpu, fmu = F(u + h, v), F(u - h, v)
        fpv, fmv = F(u, v + h), F(u, v - h)
        blocks.append(((fpu - fmu) / (2 * h), (fpv - fmv) / (2 * h)))
    if order >= 2:
        fpp, fpm = F(u + h, v + h), F(u + h, v - h)
        fmp, fmm = F(u - h, v + h), F(u - h, v - h)
        h2 = h * h
        blocks.append((
            (fpu - 2 * f0 + fmu) / h2,
            (fpp - fpm - fmp + fmm) / (4 * h2),
            (fpv - 2 * f0 + fmv) / h2,
        ))
    if order >= 3:
        h3 = h * h * h
        blocks.append((
            (F(u + 2 * h, v) - 2 * fpu + 2 * fmu - F(u - 2 * h, v)) / (2 * h3),
            (fpp - 2 * fpv + fmp - fpm + 2 * fmv - fmm) / (2 * h3),
            (fpp - 2 * fpu + fpm - fmp + 2 * fmu - fmm) / (2 * h3),
            (F(u, v + 2 * h) - 2 * fpv + 2 * fmv - F(u, v - 2 * h)) / (2 * h3),
        ))
    return Jet2(tuple(blocks))
