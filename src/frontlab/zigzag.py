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

All winding numbers are tracked by continuous angle lifting with step-size
control (consecutive samples must stay within pi/4 in the P^1 angle, else the
offending interval is bisected), so no half-turn can be missed.
"""

import dataclasses
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import FrontContractError, FrontlabError
from .expr import Expr, eval_jet, parse
from .front import dot, require_expr
from .gallery import gallery
from .singular import SingularClass, _bisect, classify, lambda_jets, lambda_value

TWO_PI = 2.0 * math.pi

# Letters of the word monoid: `a` marks a zig, `b` a zag.
ZIG = "a"
ZAG = "b"


def _det2(p, q):
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    return p[..., 0] * q[..., 1] - p[..., 1] * q[..., 0]


def _dot2(p, q):
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    return p[..., 0] * q[..., 0] + p[..., 1] * q[..., 1]


def _jet(source, t, order):
    """Jet of a one-parameter expression; the parameter rides the u-slot."""
    t = np.asarray(t, dtype=float)
    return eval_jet(source, t, np.zeros_like(t), order)


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


def mirror_plane_front(pf):
    """The same curve traversed backwards (parameter t -> -t)."""
    return replace(pf, orientation=-pf.orientation,
                   label=(pf.label + " (reversed)") if pf.label else "(reversed)")


def _plane_jets(pf, t, second=True):
    """gamma', gamma'', nu, nu' at parameter t (orientation folded in)."""
    t = np.asarray(t, dtype=float)
    s = float(pf.orientation)
    ts = s * t
    if pf.gamma_prime is not None:
        jg = _jet(pf.gamma_prime, ts, 1 if second else 0)
        g1 = jg.value
        g2 = jg.f_u if second else None
    else:
        jg = _jet(pf.gamma, ts, 2 if second else 1)
        g1 = jg.f_u
        g2 = jg.f_uu if second else None
    jn = _jet(pf.normal, ts, 1)
    # chain rule for the reversed parameter: odd derivatives pick up the sign,
    # gamma'' gets s^2 = 1
    return s * g1, g2, jn.value, s * jn.f_u


def _check_plane_contract(pf, t):
    g1, _, n0, _ = _plane_jets(pf, t, second=False)
    speed = np.hypot(g1[..., 0], g1[..., 1])
    norm_err = np.abs(np.hypot(n0[..., 0], n0[..., 1]) - 1.0)
    worst = float(norm_err.max())
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


def plane_position(pf, ts):
    """Positions gamma(t); reconstructed by quadrature for derivative data."""
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    if pf.gamma is not None:
        jg = _jet(pf.gamma, float(pf.orientation) * ts, 0)
        return jg.value.reshape(len(ts), 2)
    x16, w16 = np.polynomial.legendre.leggauss(16)
    out = np.empty((len(ts), 2))
    for i, t in enumerate(ts):
        if t == 0.0:
            out[i] = pf.base
            continue
        panels = max(8, int(math.ceil(abs(t) / pf.period * 128)))
        edges = np.linspace(0.0, t, panels + 1)
        mid = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * (edges[1:] - edges[:-1])
        nodes = (mid[:, None] + half[:, None] * x16[None, :]).ravel()
        wts = (half[:, None] * w16[None, :]).ravel()
        g1 = _plane_jets(pf, nodes, second=False)[0]
        out[i] = np.asarray(pf.base, dtype=float) + wts @ g1
    return out


# ---------------------------------------------------------------------------
# root isolation shared by the plane and surface scans


def _simple_roots(fn, period, samples, what):
    """Simple zeros of a periodic scalar function by sign scan + bisection.

    Zeros that the scan grid hits exactly are taken as-is; the sign changes
    between samples go through one masked bisection (`singular._bisect`),
    one evaluation of `fn` per round for all of them.  A touching zero (no
    sign change) is rejected as non-generic.
    """
    t = np.linspace(0.0, period, samples, endpoint=False)
    vals = np.asarray(fn(t), dtype=float)
    scale = float(np.abs(vals).max())
    if scale == 0.0:
        raise FrontlabError(f"{what} vanishes identically on the loop")
    exact = vals == 0.0
    n = samples
    i = np.nonzero(~exact & ~np.roll(exact, -1) & ~(vals * np.roll(vals, -1) > 0.0))[0]
    lo, hi = t[i], t[i] + period / n
    neg, pos = _bisect(
        lambda m, _: np.asarray(fn(m), dtype=float),
        np.where(vals[i] < 0.0, lo, hi), np.where(vals[i] < 0.0, hi, lo),
    )
    roots = [float(x) for x in t[exact]] + (0.5 * (neg + pos) % period).tolist()
    # a zero that touches without changing sign hides between samples as a
    # deep |fn| dip; refine such dips by golden section and reject tangency
    for i in range(n):
        h, j = (i - 1) % n, (i + 1) % n
        if exact[i] or exact[h] or exact[j]:
            continue
        if vals[h] * vals[i] < 0.0 or vals[i] * vals[j] < 0.0:
            continue
        ai = abs(vals[i])
        if ai > abs(vals[h]) or ai > abs(vals[j]) or ai >= 1e-3 * scale:
            continue
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


def _lifted_turns(angle_at, period, samples, mod, max_step, what,
                  budget=1 << 16):
    """Total continuous angle change over one period, in units of `mod`."""
    t = np.linspace(0.0, period, samples + 1)
    a = np.asarray(angle_at(t), dtype=float)
    for _ in range(48):
        d = a[1:] - a[:-1]
        d -= mod * np.round(d / mod)
        bad = np.abs(d) >= max_step
        if not bad.any():
            return float(d.sum()) / mod
        if t.size > budget:
            raise FrontlabError(
                f"{what}: angle steps stay above {max_step:.3f} rad after "
                f"refining to {t.size} samples")
        mids = 0.5 * (t[:-1][bad] + t[1:][bad])
        t = np.sort(np.concatenate([t, mids]))
        a = np.asarray(angle_at(t), dtype=float)
    raise FrontlabError(f"{what}: angle lifting did not converge")


def _integer_winding(angle_at, period, samples, mod, max_step, what):
    n = samples
    w = math.nan
    for _ in range(3):
        w = _lifted_turns(angle_at, period, n, mod, max_step, what)
        if abs(w - round(w)) <= 1e-6:
            return int(round(w))
        n *= 2
    raise FrontlabError(
        f"{what}: winding {w!r} is not an integer within 1e-6 "
        "after refinement")


# ---------------------------------------------------------------------------
# plane fronts


def _plane_cusps(pf, samples):
    _check_plane_contract(pf, np.linspace(0.0, pf.period, samples,
                                          endpoint=False))

    def lam(t):
        g1, _, n0, _ = _plane_jets(pf, t, second=False)
        return _det2(g1, n0)

    roots = _simple_roots(lam, pf.period, samples,
                          "the plane singularity function det(gamma', nu)")
    cusps = []
    for r in roots:
        g1, g2, n0, n1 = _plane_jets(pf, r)
        g2mag = float(np.hypot(g2[..., 0], g2[..., 1]))
        if g2mag < 1e-8:
            raise FrontlabError(
                f"cusp at t={r:.6f} has vanishing gamma'': not a 3/2-cusp")
        lam_prime = float(_det2(g2, n0) + _det2(g1, n1))
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


def classify_cusps_plane(pf, samples=512):
    """Word over {a, b} of the cusps of a plane front, ordered by parameter.

    Zig (`a`) where lambda' g0(gamma'', nu') < 0, zag (`b`) where it is
    positive.
    """
    return "".join(letter for _, letter in _plane_cusps(pf, samples))


def _plane_curvature_angle(pf, window):
    def angle(t):
        g1, _, n0, n1 = _plane_jets(pf, t, second=False)
        lam = _det2(g1, n0)
        x_raw = _dot2(g1, g1)
        y_raw = _dot2(g1, n1)
        use_ext = np.abs(lam) < window
        if np.any(use_ext):
            det_nn = _det2(n0, n1)
            qn = _dot2(n1, n1)
            stalled = use_ext & (np.abs(det_nn) <= 1e-12 * (1.0 + qn))
            if np.any(stalled):
                raise FrontlabError(
                    "curvature-map extension undefined: the normal is "
                    "stationary near a cusp")
            with np.errstate(divide="ignore", invalid="ignore"):
                y_ext = -qn / np.where(det_nn == 0.0, 1.0, det_nn)
            x = np.where(use_ext, lam, x_raw)
            y = np.where(use_ext, y_ext, y_raw)
        else:
            x, y = x_raw, y_raw
        return np.arctan2(y, x)

    return angle


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


def _plane_winding(pf, samples):
    t0 = np.linspace(0.0, pf.period, samples, endpoint=False)
    g1, _, n0, _ = _plane_jets(pf, t0, second=False)
    lam_scale = float(np.abs(_det2(g1, n0)).max())
    window = 0.25 * lam_scale if lam_scale > 0.0 else math.inf
    angle = _plane_curvature_angle(pf, window)
    half = _integer_winding(angle, pf.period, samples, math.pi,
                            0.25 * math.pi, "plane curvature map")
    return _half_turns_to_rotation(half, "plane curvature map")


def rotation_number_plane(pf, samples=512):
    """|winding| of the curvature map in P^1; equals the reduced word's k."""
    return abs(_plane_winding(pf, samples))


def normal_rotation_index(pf, samples=512):
    """Rotation index of the unit normal as a map into the circle."""

    def angle(t):
        n0 = _plane_jets(pf, t, second=False)[2]
        return np.arctan2(n0[..., 1], n0[..., 0])

    return _integer_winding(angle, pf.period, samples, TWO_PI,
                            0.5 * math.pi, "plane normal field")


# ---------------------------------------------------------------------------
# null loops on surface fronts


@dataclass(frozen=True)
class NullLoop:
    """Loop in a front's parameter domain crossing the singular set only at
    cuspidal edges and only tangent to the null direction.

    `path` is a parsed 2-vector expression (u, v) of the loop parameter,
    written as the chart variable u.
    """

    path: Expr
    period: float = TWO_PI
    crossings: tuple = ()
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
    flipped = tuple(sorted((loop.period - t) % loop.period
                           for t in loop.crossings))
    return replace(loop, orientation=-loop.orientation, crossings=flipped,
                   label=(loop.label + " (reversed)") if loop.label
                   else "(reversed)")


def _loop_jets(loop, t, order=1):
    t = np.asarray(t, dtype=float)
    s = float(loop.orientation)
    j = _jet(loop.path, s * t, order)
    out = [j.value]
    if order >= 1:
        out.append(s * j.f_u)
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


def null_loop(front, path, period=TWO_PI, samples=512, angle_tol=1e-4,
              label=""):
    """Validate a loop against a front and record its singular crossings.

    Raises if a crossing is not a cuspidal edge or if the loop tangent
    deviates from the null direction there by more than `angle_tol` radians.
    """
    probe = NullLoop(path=path, period=period, label=label)

    def lam(t):
        uv = _loop_jets(probe, t, order=0)[0]
        return np.asarray(lambda_value(front, uv[..., 0], uv[..., 1]),
                          dtype=float)

    roots = _simple_roots(lam, period, samples,
                          "the singularity function along the loop")
    for r in roots:
        uv, s1 = _loop_jets(probe, np.array([r]), order=1)
        u, v = float(uv[0, 0]), float(uv[0, 1])
        point = classify(front, (u, v))
        if point.kind != SingularClass.CUSPIDAL_EDGE:
            raise FrontlabError(
                f"null loop crossing at t={r:.6f} is {point.kind.value}, "
                "not a cuspidal edge")
        eta = np.asarray(point.null_dir, dtype=float)
        tangent = s1[0]
        sin_angle = abs(float(_det2(tangent, eta))) / (
            float(np.hypot(*tangent)) * float(np.hypot(*eta)))
        if sin_angle > angle_tol:
            raise FrontContractError(
                f"null loop tangent at t={r:.6f} deviates from the null "
                f"direction by {math.asin(min(1.0, sin_angle)):.3e} rad")
    return NullLoop(path=path, period=period, crossings=tuple(roots),
                    label=label)


def _surface_crossings(front, loop):
    letters = []
    for r in loop.crossings:
        uv, s1, s2 = _loop_jets(loop, np.array([r]), order=2)
        u, v = float(uv[0, 0]), float(uv[0, 1])
        point = classify(front, (u, v))
        if point.kind != SingularClass.CUSPIDAL_EDGE:
            raise FrontlabError(
                f"null loop crossing at t={r:.6f} is {point.kind.value}, "
                "not a cuspidal edge")
        lam_u, lam_v = lambda_jets(front, u, v, order=1)[1:]
        lam_hat_prime = float(lam_u) * s1[0, 0] + float(lam_v) * s1[0, 1]
        jf, jn = front.jets(u, v, order_map=2, order_normal=1)
        sig_pp = jf.along(s1[0], 2) + jf.along(s2[0])
        crit = float(lam_hat_prime) * float(dot(sig_pp, jn.along(s1[0])))
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


def rotation_number_surface(front, loop, samples=512):
    """|winding| of the normal curvature map along a null loop.

    The homogeneous pair [g(sigma_hat', sigma_hat') : g(sigma_hat', nu_hat')]
    degenerates to [0 : 1] at the crossings (the loop tangent is null there);
    samples landing on a crossing are pinned to that value and the approach
    direction comes from the one-sided neighbours.
    """

    def pair(t):
        uv, s1 = _loop_jets(loop, t, order=1)
        jf, jn = front.jets(uv[..., 0], uv[..., 1], order_map=1,
                            order_normal=1)
        d = (s1[..., 0], s1[..., 1])
        sp = jf.along(d)
        return dot(sp, sp), dot(sp, jn.along(d))

    x0, y0 = pair(np.linspace(0.0, loop.period, samples, endpoint=False))
    pin = 1e-10 * float(np.hypot(x0, y0).max())

    def angle(t):
        x, y = pair(t)
        a = np.arctan2(y, x)
        return np.where(np.hypot(x, y) < pin, 0.5 * math.pi, a)

    half = _integer_winding(angle, loop.period, samples, math.pi,
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


def zigzag_plane(pf, samples=512):
    """Word, reduced k, curvature-map winding, and normal index of a plane
    front, bundled with the cusp positions."""
    cusps = _plane_cusps(pf, samples)
    word = "".join(letter for _, letter in cusps)
    positions = (plane_position(pf, [t for t, _ in cusps])
                 if cusps else np.empty((0, 2)))
    crossings = tuple(
        Crossing(t=t, uv=(float(p[0]), float(p[1])), letter=letter)
        for (t, letter), p in zip(cusps, positions))
    w = _plane_winding(pf, samples)
    return ZigzagResult(word=word, reduced_k=reduce_word(word),
                        rotation_number=abs(w), signed_winding=w,
                        crossings=crossings,
                        m_rotation=normal_rotation_index(pf, samples))


def zigzag_surface(front, loop, samples=512):
    """Word, reduced k, and normal-curvature winding along a null loop."""
    detail = _surface_crossings(front, loop)
    word = "".join(letter for _, _, letter in detail)
    crossings = tuple(Crossing(t=t, uv=uv, letter=letter)
                      for t, uv, letter in detail)
    rot = rotation_number_surface(front, loop, samples)
    return ZigzagResult(word=word, reduced_k=reduce_word(word),
                        rotation_number=rot, signed_winding=rot,
                        crossings=crossings, m_rotation=None)


def zigzag_over_loops(front, loops, samples=512):
    """Per-loop results for a user-supplied list of generators."""
    return tuple(zigzag_surface(front, loop, samples) for loop in loops)


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
