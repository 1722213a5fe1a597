"""Fronts f: U -> R^3 with unit normal: forms, curvature, parallel surfaces.

A `Front` bundles two parsed expressions in (u, v), the map and its unit
normal, with a rectangular parameter domain with optional periodicity and
free-form metadata (known singular set, Euler characteristic, end growth
orders...).  Map and normal are also joined into one six-component
expression, so `Front.jets` evaluates what they share (a parallel
surface's map contains its whole normal) and their sin/cos pairs once.
The ambient space is Euclidean R^3 throughout: the connection is the flat
derivative and the volume form is the 3x3 determinant.
"""

import json
import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .errors import FrontContractError
from .expr import BinOp, Expr, Num, Vector, eval_jet, join, parse, to_source

# tolerances of the front contract checks
_FORMS_CHECK_TOL = 1e-9  # relative asymmetry of the second fundamental form
_REGULAR_TOL = 1e-12  # relative floor of E G - F^2 for a regular point
_VALIDATE_TOL = 1e-9  # unit-normal and orthogonality deviation
_RANK_TOL = 1e-9  # second singular value of (f_u f_v nu_u nu_v)


def cross(b, c):
    """Cross product b x c of two component triples, its terms in numpy's
    operand order."""
    b0, b1, b2 = b
    c0, c1, c2 = c
    return b1 * c2 - b2 * c1, b2 * c0 - b0 * c2, b0 * c1 - b1 * c0


def triple(a, x):
    """a . x summed as `det3` sums it: det3(a, b, c) is triple(a, cross(b, c))
    bit for bit, so a cross product that serves several terms is taken once."""
    a0, a1, a2 = a
    x0, x1, x2 = x
    return np.float64((a0 * x0 + a2 * x2) + a1 * x1)


def det3(a, b, c):
    """Scalar triple product det(a, b, c) of three component triples.

    a . (b x c), with the cross product's terms in numpy's operand order
    and the three products summed in the order einsum sums them: the value
    of einsum(a, cross(b, c)) on the stacked vectors, bit for bit but for
    the sign of a zero sum and the payload of a NaN.  The components may
    be floats or broadcastable arrays; the result has their broadcast
    shape, as an np.float64 where that shape is ().
    """
    return triple(a, cross(b, c))


def dot(a, b):
    """Inner product of two component triples: einsum("...i,...i->...") of
    the stacked vectors bit for bit but for NaN payloads, its products in
    its order and added to its zeroed output, so a zero sum is +0.0."""
    a0, a1, a2 = a
    b0, b1, b2 = b
    return np.float64((a0 * b0 + a2 * b2) + a1 * b1 + 0.0)


def stack(a):
    """The components `a` stacked along a last axis, for the numpy calls
    (@, norm, svd) whose reductions plain arithmetic does not reproduce."""
    if not any(isinstance(x, np.ndarray) for x in a):
        return np.array(a)
    return np.stack(np.broadcast_arrays(*a), axis=-1)


def columns(*vectors):
    """Component triples as the columns of (..., 3, k) matrices, for svd."""
    m = stack([c for x in vectors for c in x])
    return m.reshape(m.shape[:-1] + (len(vectors), 3)).swapaxes(-1, -2)


def spread(x, u, v):
    """`x`, computed from jets at (u, v), at the shape of broadcast(u, v),
    which a value constant along an axis does not reach by itself."""
    if not (isinstance(u, np.ndarray) or isinstance(v, np.ndarray)):
        return x
    shape = np.broadcast_shapes(np.shape(u), np.shape(v))
    return x if np.shape(x) == shape else np.broadcast_to(x, shape).copy()


@dataclass(frozen=True)
class Domain:
    u0: float
    u1: float
    v0: float
    v1: float
    periodic_u: bool = False
    periodic_v: bool = False

    def __post_init__(self):
        if not all(math.isfinite(x) for x in (self.u0, self.u1, self.v0, self.v1)):
            raise ValueError("domain bounds must be finite")
        if not (self.u1 > self.u0 and self.v1 > self.v0):
            raise ValueError("domain must have positive extent")

    @property
    def scale(self):
        return max(self.u1 - self.u0, self.v1 - self.v0)

    def wrap(self, u, v):
        """Fold periodic coordinates back into the fundamental rectangle."""
        if self.periodic_u:
            u = self.u0 + (u - self.u0) % (self.u1 - self.u0)
        if self.periodic_v:
            v = self.v0 + (v - self.v0) % (self.v1 - self.v0)
        return u, v

    def grid(self, n_u, n_v=None):
        """Sample grid (uu, vv), indexed [i_u, i_v]; periodic axes drop the
        duplicate endpoint.

        uu is constant along rows and vv along columns: evaluators pass
        the column uu[:, :1] and the row vv[:1], which broadcast to the
        grid, so a jet program computes what depends on one variable once
        per row or column, and a jet component depending on u alone stays
        a column.
        """
        n_v = n_u if n_v is None else n_v
        uu = np.linspace(self.u0, self.u1, n_u, endpoint=not self.periodic_u)
        vv = np.linspace(self.v0, self.v1, n_v, endpoint=not self.periodic_v)
        return np.meshgrid(uu, vv, indexing="ij")


def require_expr(owner, **fields):
    """Raise TypeError unless every given field is a parsed `Expr`."""
    for name, value in fields.items():
        if not isinstance(value, Expr):
            raise TypeError(
                f"{owner}.{name} must be a parsed Expr, got {type(value).__name__}"
            )


@dataclass(frozen=True)
class Front:
    """A map (u, v) -> R^3 and its unit normal over `domain`.

    `jets` evaluates both through `joint`, one program for the six
    components.
    """

    map: Expr  # (u, v) -> 3-vector
    normal: Expr  # (u, v) -> unit 3-vector
    domain: Domain
    label: str = ""
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        require_expr("Front", map=self.map, normal=self.normal)

    @cached_property
    def joint(self):
        """Map and normal components as one expression, built on first use."""
        return join(self.map, self.normal)

    def jets(self, u, v, order_map=1, order_normal=1):
        """Map jet at `order_map` and normal jet at `order_normal`.

        One run of the joint program gives both, each equal bit for bit to
        its own expression's jet at its own order: what only one field reads
        is computed to that field's order.
        """
        fields = ((self.map.ncomponents, order_map), (self.normal.ncomponents, order_normal))
        return eval_jet(self.joint, u, v, fields)


@dataclass(frozen=True)
class FundamentalForms:
    E: float
    F: float
    G: float
    L: float
    M: float
    N: float


@dataclass(frozen=True)
class CurvatureSample:
    K: float
    H: float
    lam: float
    regular: bool


def lambda_value(front, u, v):
    """Signed area density lambda = det(f_u, f_v, nu)."""
    jf, jn = front.jets(u, v, 1, 0)
    return spread(det3(jf.f_u, jf.f_v, jn.value), u, v)


def forms(front, u, v):
    """First and second fundamental forms at (u, v) (scalars or grids)."""
    return _forms(*front.jets(u, v, 1, 1), u, v)


def _forms(jf, jn, u, v):
    """`forms` from the map and normal jets `jf`, `jn` at (u, v)."""
    fu, fv = jf.f_u, jf.f_v
    nu_u, nu_v = jn.f_u, jn.f_v
    E = dot(fu, fu)
    F = dot(fu, fv)
    G = dot(fv, fv)
    L = -dot(fu, nu_u)
    M = -dot(fv, nu_u)
    M2 = -dot(fu, nu_v)
    worst = np.max(np.abs(M - M2))
    if worst > _FORMS_CHECK_TOL * max(1.0, float(np.max(np.abs(M)))):
        raise FrontContractError(
            f"second fundamental form asymmetry {worst:.3e} at (u,v)=({u},{v}): "
            "normal is not compatible with the map"
        )
    N = -dot(fv, nu_v)
    return FundamentalForms(*(spread(x, u, v) for x in (E, F, G, L, M, N)))


def curvature(front, u, v):
    """Gaussian/mean curvature sample; flags the singular (unbounded) case."""
    jf, jn = front.jets(u, v, 1, 1)
    fm = _forms(jf, jn, u, v)
    lam = spread(det3(jf.f_u, jf.f_v, jn.value), u, v)
    denom = fm.E * fm.G - fm.F * fm.F
    floor = _REGULAR_TOL * max(1.0, float(np.max(fm.E + fm.G)) ** 2)
    regular = bool(np.all(denom > floor))
    if regular:
        K = (fm.L * fm.N - fm.M * fm.M) / denom
        H = (fm.E * fm.N - 2.0 * fm.F * fm.M + fm.G * fm.L) / (2.0 * denom)
    else:
        K = math.inf if np.all(fm.L * fm.N - fm.M * fm.M > 0) else -math.inf
        H = math.nan
    return CurvatureSample(K=K, H=H, lam=lam, regular=regular)


def parallel_surface(front, dist):
    """Front at constant normal distance `dist`: f_d = f + dist*nu, same nu,
    built from `front.joint`'s components and parameters.

    The input must be an immersion (no singular points), checked on a 48 x 48
    grid through the offset's own jets, f_u = (f_d)_u - dist nu_u; the offset
    front may well be singular - that is the point of the construction.
    """
    joint = front.joint
    k = front.map.ncomponents
    comps = [
        BinOp("+", f, BinOp("*", Num(dist, 0), n, 0), 0)
        for f, n in zip(joint.root.components[:k], joint.root.components[k:])
    ]
    root = Vector(comps, 0)
    meta = dict(front.metadata)
    meta["parallel_of"] = front.label
    meta["parallel_dist"] = float(dist)
    out = replace(
        front,
        map=Expr(root, joint.params, to_source(root)),
        label=f"{front.label} parallel d={dist}" if front.label else f"parallel d={dist}",
        metadata=meta,
    )
    uu, vv = front.domain.grid(48)
    jf, jn = out.jets(uu[:, :1], vv[:1], 1, 1)
    f_u, f_v = ([a - dist * b for a, b in zip(df, dn)] for df, dn in zip(jf.d1, jn.d1))
    lam = det3(f_u, f_v, jn.value)
    scale = float(np.max(np.abs(lam)))
    if scale == 0.0 or float(np.min(np.abs(lam))) < 1e-9 * scale or np.any(
        lam * lam.flat[0] <= 0
    ):
        raise FrontContractError(
            f"parallel_surface input '{front.label}' has singular points "
            f"(min |lambda| = {float(np.min(np.abs(lam))):.3e})"
        )
    return out


@dataclass(frozen=True)
class ValidationReport:
    passed: bool
    grid_n: int
    worst_unit: float  # max | |nu| - 1 |
    worst_orth: float  # max |g(f_*X, nu)| / max(1, |f_*X|)
    worst_rank: float  # min second singular value of (f_u f_v nu_u nu_v)
    failures: tuple

    def __str__(self):
        status = "PASS" if self.passed else "FAIL"
        return (
            f"[{status}] unit-normal dev {self.worst_unit:.3e}; "
            f"orthogonality dev {self.worst_orth:.3e}; "
            f"min Legendrian rank sigma_2 {self.worst_rank:.3e}"
        )


def validate(front, grid_n=64):
    """Check the three front invariants on a grid; collect worst violations."""
    uu, vv = front.domain.grid(grid_n)
    jf, jn = front.jets(uu[:, :1], vv[:1], 1, 1)
    nu = jn.value
    unit_dev = float(np.max(np.abs(np.sqrt(dot(nu, nu)) - 1.0)))
    orth_u = np.abs(dot(jf.f_u, nu)) / np.maximum(1.0, np.sqrt(dot(jf.f_u, jf.f_u)))
    orth_v = np.abs(dot(jf.f_v, nu)) / np.maximum(1.0, np.sqrt(dot(jf.f_v, jf.f_v)))
    orth_dev = float(max(np.max(orth_u), np.max(orth_v)))
    sing = np.linalg.svd(columns(jf.f_u, jf.f_v, jn.f_u, jn.f_v), compute_uv=False)
    min_sigma2 = float(np.min(sing[..., 1]))
    failures = []
    tol = _VALIDATE_TOL
    if unit_dev > tol:
        failures.append(f"unit normal deviates by {unit_dev:.3e} (tol {tol:.0e})")
    if orth_dev > tol:
        failures.append(f"orthogonality deviates by {orth_dev:.3e} (tol {tol:.0e})")
    if min_sigma2 <= _RANK_TOL:
        failures.append(
            f"Legendrian rank condition fails: sigma_2 = {min_sigma2:.3e}"
        )
    return ValidationReport(
        passed=not failures,
        grid_n=grid_n,
        worst_unit=unit_dev,
        worst_orth=orth_dev,
        worst_rank=min_sigma2,
        failures=tuple(failures),
    )


# --- description files --------------------------------------------------

_HEADER = "frontlab-front 1"


def write_description(front):
    """Serialize a front to the key-value description format."""
    d = front.domain
    periodic = {(False, False): "none", (True, False): "u",
                (False, True): "v", (True, True): "uv"}[(d.periodic_u, d.periodic_v)]
    # `joint` keeps the map's parameters and inlines the normal's clashing ones
    normal = Vector(front.joint.root.components[front.map.ncomponents:], 0)
    lines = [
        _HEADER,
        f"label = {front.label}",
        f"map = {to_source(front.map)}",
        f"normal = {to_source(normal)}",
        f"domain = {d.u0!r} {d.u1!r} {d.v0!r} {d.v1!r}",
        f"periodic = {periodic}",
    ]
    for name, value in front.joint.params:
        lines.append(f"param {name} = {value!r}")
    for key in sorted(front.metadata):
        value = json.dumps(front.metadata[key], sort_keys=True, separators=(",", ":"))
        lines.append(f"meta {key} = {value}")
    return "\n".join(lines) + "\n"


def read_description(text):
    """Parse a description produced by `write_description` (bit-exact inverse)."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].strip() != _HEADER:
        raise ValueError(f"not a front description (expected '{_HEADER}' header)")
    fields = {}
    params = {}
    metadata = {}
    for ln in lines[1:]:
        key, sep, value = ln.partition(" = ")
        if not sep:
            raise ValueError(f"malformed description line: {ln!r}")
        if key.startswith("param "):
            params[key[6:]] = float(value)
        elif key.startswith("meta "):
            metadata[key[5:]] = json.loads(value)
        else:
            fields[key] = value
    for required in ("map", "normal", "domain", "periodic"):
        if required not in fields:
            raise ValueError(f"description missing field {required!r}")
    u0, u1, v0, v1 = (float(x) for x in fields["domain"].split())
    periodic = fields["periodic"]
    if periodic not in ("none", "u", "v", "uv"):
        raise ValueError(f"bad periodic flag {periodic!r}")
    domain = Domain(u0, u1, v0, v1, periodic_u="u" in periodic, periodic_v="v" in periodic)
    return Front(
        map=parse(fields["map"], params),
        normal=parse(fields["normal"], params),
        domain=domain,
        label=fields.get("label", ""),
        metadata=metadata,
    )
