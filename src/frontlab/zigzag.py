"""Zig/zag words and rotation numbers for cusped plane curves and null loops.

A cusped plane curve with a unit normal carries a letter at each cusp (``a``
for zig, ``b`` for zag, read off the sign of lambda' g0(gamma'', nu')); the
word lives in the free product Z2*Z2 where both letters square to one, so it
reduces to an alternating word (ab)^k or (ba)^k.  The integer k is recovered
independently as the winding number of the curvature map

    t  |->  [ g0(gamma', gamma') : g0(gamma', nu') ]  in  P^1(R),

which extends through the cusps in the chart [lambda : -g0(nu',nu')/det(nu,nu')].

On a surface front the same bookkeeping runs along *null loops*: loops in the
parameter domain that cross the singular set only at cuspidal edges and only
tangent to the null direction.  The surface letter rule has the opposite sign
(zig for a positive product); the two conventions are kept in separate
routines on purpose and are reconciled only through the winding-number
equality, never letter by letter.

One routine checks a crossing (`_crossing`).  `null_loop` finds and checks
a loop's crossings; the word routines check them again, since a `NullLoop`
can be built by hand, and refuse one whose crossings are None (unrecorded).

Each loop is evaluated once on a closed scan of `SAMPLES` intervals, read by
the contract check, the sign scan for cusps or crossings and every winding.
Windings are lifted continuously, bisecting P^1 angle steps of pi/4 or more
(pi/2 on the circle).  A step is read modulo a half-turn, so a swing of nearly
one between two samples would pass as small.  Hence the balanced charts:
[x : y] winds as [k x : y] for k > 0; k = max|y| / max|x| over the scan.
"""

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import FrontContractError, FrontlabError
from .expr import Expr, eval_jet, join, parse
from .front import dot, require_expr, stack
from .gallery import gallery
# lambda_jets is not called here; perfbench/layers.py wraps it by this name
from .singular import SingularClass, _bisect, _cross2, _dot2, classify, lambda_jets, lambda_value

TWO_PI = 2.0 * math.pi
SAMPLES = 512  # intervals of a loop's closed scan, linspace(0, period, SAMPLES + 1)

# Letters of the word monoid: `a` marks a zig, `b` a zag.
ZIG = "a"
ZAG = "b"


def _jet(source, t, order):
    """Jet of a one-parameter expression; the parameter rides the u-slot."""
    t = np.asarray(t, dtype=float)
    return eval_jet(source, t, np.zeros_like(t), order)


def _balance(x, y):
    """k = max|y| / max|x|: [k x : y] winds as [x : y], entries of one size."""
    mx, my = float(np.abs(x).max()), float(np.abs(y).max())
    return my / mx if mx > 0.0 and my > 0.0 else 1.0


@dataclass(frozen=True)
class PlaneFront:
    """Closed cusped curve in the plane with its unit normal.

    `normal`, `gamma` and `gamma_prime` are parsed 2-vector expressions in
    the curve parameter, written as the chart variable u.  Either the curve
    itself (`gamma`) or its derivative (`gamma_prime`) may be supplied; the
    letter and rotation machinery only ever consumes derivatives, so curves
    defined by non-elementary integrals are given through `gamma_prime` and
    `base`, and their positions are reconstructed by quadrature on demand.
    `orientation = -1` traverses the same curve backwards (t -> -t) without
    re-deriving any formulas.
    """

    normal: Expr
    gamma: Expr | None = None
    gamma_prime: Expr | None = None
    period: float = TWO_PI
    base: tuple = (0.0, 0.0)
    orientation: int = 1
    label: str = ""

    def __post_init__(self):
        if self.gamma is None and self.gamma_prime is None:
            raise ValueError("PlaneFront needs gamma or gamma_prime")
        curve = {"gamma": self.gamma, "gamma_prime": self.gamma_prime}
        require_expr("PlaneFront", normal=self.normal,
                     **{k: e for k, e in curve.items() if e is not None})
        if self.orientation not in (1, -1):
            raise ValueError("orientation must be +1 or -1")
        if not self.period > 0:
            raise ValueError("period must be positive")

    @cached_property
    def joint(self):
        """`gamma_prime` (else `gamma`) and `normal` as one expression."""
        curve = self.gamma if self.gamma_prime is None else self.gamma_prime
        return join(curve, self.normal)


def mirror_plane_front(pf):
    """The same curve traversed backwards (parameter t -> -t)."""
    return replace(pf, orientation=-pf.orientation,
                   label=(pf.label + " (reversed)") if pf.label else "(reversed)")


def _plane_jets(pf, t, second=True):
    """gamma', gamma'', nu, nu' at parameter t (orientation folded in)."""
    t = np.asarray(t, dtype=float)
    s = float(pf.orientation)
    ts = s * t
    deeper = pf.gamma_prime is None  # gamma given: derivatives sit one order up
    jg, jn = _jet(pf.joint, ts, ((2, int(second) + deeper), (2, 1)))
    if deeper:
        g1, g2 = jg.f_u, jg.f_uu if second else None
    else:
        g1, g2 = jg.value, jg.f_u if second else None
    # chain rule for the reversed parameter: odd derivatives pick up the sign,
    # gamma'' gets s^2 = 1
    return tuple(s * c for c in g1), g2, jn.value, tuple(s * c for c in jn.f_u)


def _plane_scan(pf):
    """The closed scan t and `_plane_jets` on it, contract checked."""
    t = np.linspace(0.0, pf.period, SAMPLES + 1)
    jets = _plane_jets(pf, t, second=False)
    g1, _, n0, _ = jets
    speed = np.hypot(*g1)
    worst = float(np.abs(np.hypot(*n0) - 1.0).max())
    if worst > 1e-9:
        raise FrontContractError(
            f"plane front normal is not unit: |nu|-1 reaches {worst:.3e}")
    regular = speed > 1e-6 * max(float(speed.max()), 1e-30)
    if np.any(regular):
        ortho = np.abs(_dot2(g1, n0)[regular]) / (1.0 + speed[regular])
        worst = float(ortho.max())
        if worst > 1e-9:
            raise FrontContractError(
                f"plane front normal is not orthogonal to the tangent: "
                f"g0(gamma', nu) reaches {worst:.3e}")
    return t, jets


def plane_position(pf, ts):
    """Positions gamma(t); reconstructed by quadrature for derivative data.

    One pass over the sorted times and 0: 16-node Gauss panels between
    neighbours, 128 a period and at least 8, summed from `base` at t = 0.
    """
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    if pf.gamma is not None:
        jg = _jet(pf.gamma, float(pf.orientation) * ts, 0)
        return stack(jg.value).reshape(len(ts), 2)
    base = np.asarray(pf.base, dtype=float)
    if not ts.any():
        return np.tile(base, (len(ts), 1))
    x16, w16 = np.polynomial.legendre.leggauss(16)
    knots, at = np.unique(np.r_[0.0, ts], return_inverse=True)
    nodes, wts = [], []
    for a, b in zip(knots[:-1], knots[1:]):
        edges = np.linspace(a, b, max(8, int(math.ceil((b - a) / pf.period * 128))) + 1)
        mid = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * (edges[1:] - edges[:-1])
        nodes.append((mid[:, None] + half[:, None] * x16[None, :]).ravel())
        wts.append((half[:, None] * w16[None, :]).ravel())
    g1 = stack(_plane_jets(pf, np.concatenate(nodes), second=False)[0])
    g1 = np.split(g1, np.cumsum([len(w) for w in wts])[:-1])
    rel = np.cumsum([np.zeros(2)] + [w @ g for w, g in zip(wts, g1)], axis=0)
    return base + (rel - rel[np.searchsorted(knots, 0.0)])[at[1:]]


# ---------------------------------------------------------------------------
# root isolation shared by the plane and surface scans


def _simple_roots(fn, t, vals, what):
    """Simple zeros of a periodic scalar function by sign scan + bisection.

    `vals` is `fn` on the closed scan `t`, whose last point is not read;
    a value there that is not finite is refused.  Zeros that the scan hits
    exactly are taken as-is; the sign changes between samples go through
    one masked bisection (`singular._bisect`), which looks ahead from the
    scan values at each bracket's ends (`singular`'s module docstring):
    one evaluation of `fn` for all of them per call, a few calls in all.
    A touching zero (no sign change) is rejected as non-generic.
    """
    period, n = float(t[-1]), len(t) - 1
    t, vals = t[:-1], np.asarray(vals[:-1], dtype=float)
    bad = ~np.isfinite(vals)
    if bad.any():
        raise FrontlabError(f"{what} is not finite at t={t[bad][0]:.6f}")
    scale = float(np.abs(vals).max())
    if scale == 0.0:
        raise FrontlabError(f"{what} vanishes identically on the loop")
    exact = vals == 0.0
    prev, nxt = np.roll(vals, 1), np.roll(vals, -1)
    i = np.nonzero(~exact & ~np.roll(exact, -1) & ~(vals * nxt > 0.0))[0]
    lo, hi, up = t[i], t[i] + period / n, vals[i] < 0.0
    neg, pos = _bisect(
        lambda m, _: np.asarray(fn(m), dtype=float),
        np.where(up, lo, hi), np.where(up, hi, lo),
        f_neg=np.where(up, vals[i], nxt[i]), f_pos=np.where(up, nxt[i], vals[i]),
    )
    roots = [float(x) for x in t[exact]] + (0.5 * (neg + pos) % period).tolist()
    # a zero that touches without changing sign hides between samples as a
    # deep |fn| dip; refine such dips by golden section and reject tangency
    size = np.abs(vals)
    dips = ~(exact | np.roll(exact, 1) | np.roll(exact, -1))
    dips &= ~(prev * vals < 0.0) & ~(vals * nxt < 0.0)
    dips &= ~(size > np.abs(prev)) & ~(size > np.abs(nxt)) & ~(size >= 1e-3 * scale)
    for i in np.nonzero(dips)[0]:
        lo, hi = t[i] - period / n, t[i] + period / n
        while hi - lo > 1e-12:
            m1 = lo + 0.381966 * (hi - lo)
            m2 = hi - 0.381966 * (hi - lo)
            if abs(float(fn(np.array([m1]))[0])) < abs(
                    float(fn(np.array([m2]))[0])):
                hi = m2
            else:
                lo = m1
        tmin = 0.5 * (lo + hi)
        if abs(float(fn(np.array([tmin]))[0])) < 1e-10 * scale:
            raise FrontlabError(
                f"double zero of {what} near t={tmin % period:.6f}: "
                "non-generic front")
    return sorted(roots)


# ---------------------------------------------------------------------------
# winding numbers by continuous angle lifting


def _winding(angle_at, t, a, mod, max_step, what, budget=1 << 16):
    """Winding, in units of `mod`, of the angle `a` on the closed scan `t`.

    Steps (modulo `mod`) of `max_step` or more are bisected, `angle_at`
    evaluated at the new midpoints only.  The steps sum to a(end) - a(0)
    modulo `mod` under any sampling, so a non-integer is final.
    """
    for _ in range(48):
        d = a[1:] - a[:-1]
        d -= mod * np.round(d / mod)
        bad = np.abs(d) >= max_step
        if not bad.any():
            w = float(d.sum()) / mod
            if abs(w - round(w)) > 1e-6:
                raise FrontlabError(
                    f"{what}: winding {w!r} is not an integer within 1e-6")
            return int(round(w))
        if t.size > budget:
            raise FrontlabError(
                f"{what}: angle steps stay above {max_step:.3f} rad after "
                f"refining to {t.size} samples")
        at = np.nonzero(bad)[0] + 1
        mids = 0.5 * (t[at - 1] + t[at])
        t = np.insert(t, at, mids)
        a = np.insert(a, at, np.asarray(angle_at(mids), dtype=float))
    raise FrontlabError(f"{what}: angle lifting did not converge")


# ---------------------------------------------------------------------------
# plane fronts


def _plane_cusps(pf, scan):
    t, (g1, _, n0, _) = scan

    def lam(m):
        g1, _, n0, _ = _plane_jets(pf, m, second=False)
        return _cross2(g1, n0)

    roots = _simple_roots(lam, t, _cross2(g1, n0),
                          "the plane singularity function det(gamma', nu)")
    # gamma'' at a cusp against the curve's mean rate |gamma'| 2 pi / period
    floor = 1e-8 * float(np.hypot(*g1).max()) * TWO_PI / pf.period
    cusps = []
    for r in roots:
        g1, g2, n0, n1 = _plane_jets(pf, r)
        g2mag = float(np.hypot(*g2))
        if g2mag < floor:
            raise FrontlabError(
                f"cusp at t={r:.6f} has vanishing gamma'': not a 3/2-cusp")
        lam_prime = float(_cross2(g2, n0) + _cross2(g1, n1))
        if abs(lam_prime) < 1e-8 * g2mag:
            raise FrontlabError(
                f"double zero of the plane singularity function at "
                f"t={r:.6f}: non-generic front")
        crit = lam_prime * float(_dot2(g2, n1))
        if crit == 0.0:
            raise FrontlabError(
                f"zig/zag criterion vanishes at t={r:.6f}: "
                "the normal is stationary at the cusp")
        cusps.append((r, ZIG if crit < 0.0 else ZAG))
    return cusps


def classify_cusps_plane(pf):
    """Word over {a, b} of the cusps of a plane front, ordered by parameter.

    Zig (`a`) where lambda' g0(gamma'', nu') < 0, zag (`b`) where it is
    positive.
    """
    return "".join(letter for _, letter in _plane_cusps(pf, _plane_scan(pf)))


def _curvature_angle(jets, k, window):
    """P^1 angle of the curvature map, x scaled by k, in the cusp chart
    where |lambda| < window."""
    g1, _, n0, n1 = jets
    lam = _cross2(g1, n0)
    x = _dot2(g1, g1)
    y = _dot2(g1, n1)
    use_ext = np.abs(lam) < window
    if np.any(use_ext):
        det_nn = _cross2(n0, n1)
        qn = _dot2(n1, n1)
        stalled = use_ext & (np.abs(det_nn) <= 1e-12 * (1.0 + qn))
        if np.any(stalled):
            raise FrontlabError(
                "curvature-map extension undefined: the normal is "
                "stationary near a cusp")
        with np.errstate(divide="ignore", invalid="ignore"):
            y_ext = -qn / np.where(det_nn == 0.0, 1.0, det_nn)
        # where both charts are defined, (x, y) = lambda (lambda, y_ext), so
        # one k balances both
        x = np.where(use_ext, lam, x)
        y = np.where(use_ext, y_ext, y)
    return np.arctan2(y, k * x)


def _half_turns_to_rotation(half_turns, what):
    # The first pair entry is a squared norm, so the P^1 angle only ever
    # crosses the vertical [0:1], once per cusp; the half-turn count is the
    # signed number of crossings and is even because crossings pair up on a
    # closed loop.  The rotation number is half of it.
    if half_turns % 2:
        raise FrontlabError(
            f"{what} wound an odd number of half-turns ({half_turns}): "
            "not a closed front loop")
    return half_turns // 2


def _plane_turns(pf, scan, angle, mod, max_step, what):
    """`_winding` of `angle`, a function of `_plane_jets`, on the scan."""
    t, jets = scan
    return _winding(lambda m: angle(_plane_jets(pf, m, second=False)), t,
                    angle(jets), mod, max_step, what)


def _plane_winding(pf, scan):
    g1, _, n0, n1 = scan[1]
    lam_scale = float(np.abs(_cross2(g1, n0)).max())
    window = 0.25 * lam_scale if lam_scale > 0.0 else math.inf
    k = _balance(_dot2(g1, g1), _dot2(g1, n1))
    half = _plane_turns(pf, scan, lambda j: _curvature_angle(j, k, window),
                        math.pi, 0.25 * math.pi, "plane curvature map")
    return _half_turns_to_rotation(half, "plane curvature map")


def rotation_number_plane(pf):
    """|winding| of the curvature map in P^1; equals the reduced word's k."""
    return abs(_plane_winding(pf, _plane_scan(pf)))


def _normal_index(pf, scan):
    return _plane_turns(pf, scan, lambda j: np.arctan2(j[2][1], j[2][0]),
                        TWO_PI, 0.5 * math.pi, "plane normal field")


def normal_rotation_index(pf):
    """Rotation index of the unit normal as a map into the circle."""
    return _normal_index(pf, _plane_scan(pf))


# ---------------------------------------------------------------------------
# null loops on surface fronts


@dataclass(frozen=True)
class NullLoop:
    """Loop in a front's parameter domain crossing the singular set only at
    cuspidal edges and only tangent to the null direction.

    `path` is a parsed 2-vector expression (u, v) of the loop parameter,
    written as the chart variable u.  `crossings`, the parameters where it
    meets the singular set, are recorded by `null_loop`; None if unrecorded.
    """

    path: Expr
    period: float = TWO_PI
    crossings: tuple | None = None
    orientation: int = 1
    label: str = ""

    def __post_init__(self):
        require_expr("NullLoop", path=self.path)
        if self.orientation not in (1, -1):
            raise ValueError("orientation must be +1 or -1")
        if not self.period > 0:
            raise ValueError("period must be positive")


def reverse_loop(loop):
    """The same loop traversed backwards (parameter t -> -t)."""
    flipped = None if loop.crossings is None else tuple(
        sorted((loop.period - t) % loop.period for t in loop.crossings))
    return replace(loop, orientation=-loop.orientation, crossings=flipped,
                   label=(loop.label + " (reversed)") if loop.label
                   else "(reversed)")


def _loop_jets(loop, t, order=1):
    t = np.asarray(t, dtype=float)
    s = float(loop.orientation)
    j = _jet(loop.path, s * t, order)
    out = [j.value]
    if order >= 1:
        out.append(tuple(s * c for c in j.f_u))
    if order >= 2:
        out.append(j.f_uu)
    return tuple(out)


def axis_loop(center, radii):
    """Elliptical loop hitting its axis extremes with axis-parallel tangent.

    Crossing an axis-aligned singular curve at an extreme point makes the
    tangent there exactly parallel to a coordinate direction, which is how
    the gallery loops meet the null direction of adapted charts.
    """
    cu, cv = float(center[0]), float(center[1])
    ru, rv = float(radii[0]), float(radii[1])
    return parse("(cu + ru*cos(u), cv + rv*sin(u))",
                 {"cu": cu, "cv": cv, "ru": ru, "rv": rv})


def _crossing(front, loop, r):
    """Chart point (u, v), loop derivatives s1, s2 and `classify` point of
    the crossing at t = r; raises unless it is a cuspidal edge that the
    loop meets within 1e-4 radians of the null direction."""
    uv, s1, s2 = _loop_jets(loop, r, order=2)
    u, v = float(uv[0]), float(uv[1])
    point = classify(front, (u, v))
    if point.kind != SingularClass.CUSPIDAL_EDGE:
        raise FrontlabError(
            f"null loop crossing at t={r:.6f} is {point.kind.value}, "
            "not a cuspidal edge")
    eta = np.asarray(point.null_dir, dtype=float)
    sin_angle = abs(float(_cross2(s1, eta))) / (
        float(np.hypot(*s1)) * float(np.hypot(*eta)))
    if sin_angle > 1e-4:
        raise FrontContractError(
            f"null loop tangent at t={r:.6f} deviates from the null "
            f"direction by {math.asin(min(1.0, sin_angle)):.3e} rad")
    return (u, v), s1, s2, point


def null_loop(front, path, period=TWO_PI, label=""):
    """Validate a loop against a front and record its singular crossings.

    Raises if a crossing is not a cuspidal edge or if the loop tangent
    deviates from the null direction there by more than 1e-4 radians.
    """
    probe = NullLoop(path=path, period=period, label=label)

    def lam(t):
        uv = _loop_jets(probe, t, order=0)[0]
        return np.asarray(lambda_value(front, *uv), dtype=float)

    t = np.linspace(0.0, period, SAMPLES + 1)
    roots = _simple_roots(lam, t, lam(t),
                          "the singularity function along the loop")
    for r in roots:
        _crossing(front, probe, r)
    return replace(probe, crossings=tuple(roots))


def _surface_crossings(front, loop):
    if loop.crossings is None:
        raise FrontlabError(
            "the loop's crossings were never validated: build it with null_loop")
    letters = []
    for r in loop.crossings:
        (u, v), s1, s2, point = _crossing(front, loop, r)
        lam_u, lam_v = point.grad_lambda
        lam_hat_prime = lam_u * s1[0] + lam_v * s1[1]
        jf, jn = front.jets(u, v, order_map=2, order_normal=1)
        sig_pp = tuple(a + b for a, b in zip(jf.along(s1, 2), jf.along(s2)))
        crit = float(lam_hat_prime) * float(dot(sig_pp, jn.along(s1)))
        if crit == 0.0:
            raise FrontlabError(
                f"zig/zag criterion vanishes at loop crossing t={r:.6f}")
        letters.append((float(r), (u, v), ZIG if crit > 0.0 else ZAG))
    return letters


def classify_crossings_surface(front, loop):
    """Word over {a, b} of a null loop's crossings, ordered along the loop.

    Zig (`a`) where lambda_hat' g(sigma_hat'', nu_hat') > 0, zag (`b`) where
    it is negative.  Note the sign is opposite to the plane-front rule; the
    two are reconciled through winding numbers, not letters.
    """
    return "".join(letter for _, _, letter in _surface_crossings(front, loop))


def rotation_number_surface(front, loop):
    """|winding| of the normal curvature map along a null loop.

    The homogeneous pair [g(sigma_hat', sigma_hat') : g(sigma_hat', nu_hat')]
    degenerates to [0 : 1] at the crossings (the loop tangent is null there);
    samples landing on a crossing are pinned to that value and the approach
    direction comes from the one-sided neighbours.
    """

    def pair(t):
        uv, s1 = _loop_jets(loop, t, order=1)
        jf, jn = front.jets(*uv, order_map=1, order_normal=1)
        sp = jf.along(s1)
        return dot(sp, sp), dot(sp, jn.along(s1))

    t = np.linspace(0.0, loop.period, SAMPLES + 1)
    x0, y0 = pair(t)
    k = _balance(x0, y0)
    pin = 1e-10 * float(np.hypot(k * x0, y0).max())

    def angle(x, y):
        a = np.arctan2(y, k * x)
        return np.where(np.hypot(k * x, y) < pin, 0.5 * math.pi, a)

    half = _winding(lambda m: angle(*pair(m)), t, angle(x0, y0), math.pi,
                    0.25 * math.pi, "normal curvature map")
    return abs(_half_turns_to_rotation(half, "normal curvature map"))


# ---------------------------------------------------------------------------
# word reduction and assembled results


def reduce_word(word):
    """Zigzag number k of a word over {a, b} with a^2 = b^2 = 1.

    Adjacent equal letters cancel to a fixed point; the survivor alternates,
    has even length 2k for a closed loop, and an odd length flags
    inconsistent input.
    """
    stack = []
    for ch in word:
        if ch not in (ZIG, ZAG):
            raise ValueError(f"word letter {ch!r} is not 'a' or 'b'")
        if stack and stack[-1] == ch:
            stack.pop()
        else:
            stack.append(ch)
    if len(stack) % 2:
        raise FrontlabError(
            f"word {word!r} reduces to odd length {len(stack)}: "
            "not the word of a closed loop")
    return len(stack) // 2


@dataclass(frozen=True)
class Crossing:
    t: float
    uv: tuple  # plane fronts: image point; null loops: chart point
    letter: str


@dataclass(frozen=True)
class ZigzagResult:
    word: str
    reduced_k: int
    rotation_number: int
    signed_winding: int
    crossings: tuple = ()
    m_rotation: int = None


def zigzag_plane(pf):
    """Word, reduced k, curvature-map winding, and normal index of a plane
    front, bundled with the cusp positions."""
    scan = _plane_scan(pf)
    cusps = _plane_cusps(pf, scan)
    word = "".join(letter for _, letter in cusps)
    positions = plane_position(pf, [t for t, _ in cusps])
    crossings = tuple(
        Crossing(t=t, uv=(float(p[0]), float(p[1])), letter=letter)
        for (t, letter), p in zip(cusps, positions))
    w = _plane_winding(pf, scan)
    return ZigzagResult(word=word, reduced_k=reduce_word(word),
                        rotation_number=abs(w), signed_winding=w,
                        crossings=crossings,
                        m_rotation=_normal_index(pf, scan))


def zigzag_surface(front, loop):
    """Word, reduced k, and normal-curvature winding along a null loop."""
    detail = _surface_crossings(front, loop)
    word = "".join(letter for _, _, letter in detail)
    crossings = tuple(Crossing(t=t, uv=uv, letter=letter)
                      for t, uv, letter in detail)
    rot = rotation_number_surface(front, loop)
    return ZigzagResult(word=word, reduced_k=reduce_word(word),
                        rotation_number=rot, signed_winding=rot,
                        crossings=crossings, m_rotation=None)


def zigzag_to_dict(result):
    out = {
        "word": result.word,
        "reduced_k": result.reduced_k,
        "rotation_number": result.rotation_number,
        "signed_winding": result.signed_winding,
        "crossings": [
            {"t": c.t, "uv": [c.uv[0], c.uv[1]], "letter": c.letter}
            for c in result.crossings
        ],
    }
    if result.m_rotation is not None:
        out["m_rotation"] = result.m_rotation
    return out


# ---------------------------------------------------------------------------
# gallery


# First zero of J1': the phase psi = t + B sin t then closes the loop
# integral of gamma' = sin t (-sin psi, cos psi) exactly (its Fourier side is
# pi (J0(B) - J2(B)) = 2 pi J1'(B)).
_BESSEL_B = -1.8411837813406593


def _plane_circle():
    return PlaneFront(
        gamma=parse("(cos(u), sin(u))"),
        normal=parse("(-cos(u), -sin(u))"),
        label="circle")


def _plane_ellipse_parallel():
    d = "sqrt(0.36*cos(u)^2 + sin(u)^2)"
    return PlaneFront(
        gamma=parse(f"(cos(u) - 0.42*cos(u)/{d}, 0.6*sin(u) - 0.7*sin(u)/{d})"),
        normal=parse(f"(0.6*cos(u)/{d}, sin(u)/{d})"),
        label="ellipse inner parallel")


def _plane_rose(freq, B):
    params = {"B": float(B), "m": float(freq)}
    return PlaneFront(
        gamma_prime=parse(
            "(-sin(m*u)*sin(u + B*sin(m*u)), sin(m*u)*cos(u + B*sin(m*u)))",
            params),
        normal=parse("(cos(u + B*sin(m*u)), sin(u + B*sin(m*u)))", params),
        label=f"phase-modulated rose ({freq} petals)")


_PLANE_BUILDERS = {
    "circle": _plane_circle,
    "ellipse_parallel": _plane_ellipse_parallel,
    "rose_one_pair": lambda: _plane_rose(1, _BESSEL_B),
    "rose_two_pairs": lambda: _plane_rose(2, -1.2),
}

# loop gallery: (front gallery name, ellipse center, ellipse radii)
_LOOP_BUILDERS = {
    "parabola_band": ("cuspidal_parabola", (0.3, 0.0), (0.25, 0.4)),
    "parabola_clear": ("cuspidal_parabola", (0.0, 0.8), (0.2, 0.2)),
    "pseudosphere_waist": ("pseudosphere", (0.0, math.pi), (0.5, 0.5)),
}


def plane_gallery(name):
    try:
        builder = _PLANE_BUILDERS[name]
    except KeyError:
        known = ", ".join(sorted(_PLANE_BUILDERS))
        raise KeyError(f"unknown plane front {name!r}; known: {known}")
    return builder()


def plane_gallery_names():
    return tuple(sorted(_PLANE_BUILDERS))


def loop_gallery(name):
    """(front, validated null loop) pair for a named gallery loop."""
    try:
        front_name, center, radii = _LOOP_BUILDERS[name]
    except KeyError:
        known = ", ".join(sorted(_LOOP_BUILDERS))
        raise KeyError(f"unknown null loop {name!r}; known: {known}")
    front = gallery(front_name)
    loop = null_loop(front, axis_loop(center, radii), label=name)
    return front, loop


def loop_gallery_names():
    return tuple(sorted(_LOOP_BUILDERS))
