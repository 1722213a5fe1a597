"""Test oracle: Euler characteristics of the sign regions by index gathers.

This is how `frontlab.gaussbonnet.euler_characteristics` counted before it
counted with slices: each region's cells gathered with `np.ix_` on
wrapped index vectors, and V - E + F by scattering every cell's vertices
and edges into boolean grids.  `sign_chis` takes the node signs directly,
so it needs no front.
"""

import numpy as np

from frontlab.errors import FrontlabError


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


def sign_chis(S, periodic_u, periodic_v, caps):
    """[chi(M+), chi(M-)] of the node signs S, or the coarse-grid refusal."""
    nu_, nv_ = S.shape
    Cu = nu_ if periodic_u else nu_ - 1
    Cv = nv_ if periodic_v else nv_ - 1
    iu = np.arange(Cu)
    iv = np.arange(Cv)
    iu1 = (iu + 1) % nu_
    iv1 = (iv + 1) % nv_
    chis = []
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
        chi = _region_euler(corner, periodic_u, periodic_v) if count else 0
        if caps and count:
            for row in (S[:, 0], S[:, -1]):
                if np.all((row == sign) | (row == 0)):
                    chi += 1
        chis.append(chi)
    return chis
