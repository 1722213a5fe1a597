"""Tests for cusp letters, word reduction, and curvature-map rotation numbers."""

import dataclasses
import json
import math

import numpy as np
import pytest

from frontlab import (
    FrontContractError,
    FrontlabError,
    NullLoop,
    PlaneFront,
    axis_loop,
    classify_crossings_surface,
    classify_cusps_plane,
    gallery,
    loop_gallery,
    loop_gallery_names,
    mirror_plane_front,
    normal_rotation_index,
    null_loop,
    parse,
    plane_gallery,
    plane_gallery_names,
    plane_position,
    reduce_word,
    reverse_loop,
    rotation_number_plane,
    zigzag_plane,
    zigzag_surface,
    zigzag_to_dict,
)
from frontlab import zigzag
from frontlab.expr import BinOp, Expr, Num, Vector, to_source

# first zero of J1', reused by the doubled-rose construction
B_ONE_PAIR = -1.8411837813406593


def _position_from_zero(pf, ts):
    """gamma(t) for derivative data, each time integrated from t = 0 on its
    own panels, 128 a period and at least 8, of 16 Gauss nodes."""
    x16, w16 = np.polynomial.legendre.leggauss(16)
    out = np.tile(np.asarray(pf.base, dtype=float), (len(ts), 1))
    for i, t in enumerate(ts):
        if t == 0.0:
            continue
        edges = np.linspace(0.0, t, max(8, int(math.ceil(abs(t) / pf.period * 128))) + 1)
        mid, half = 0.5 * (edges[:-1] + edges[1:]), 0.5 * (edges[1:] - edges[:-1])
        nodes = (mid[:, None] + half[:, None] * x16).ravel()
        g1 = zigzag._plane_jets(pf, nodes, second=False)[0]
        out[i] += (half[:, None] * w16).ravel() @ np.stack(g1, axis=-1)
    return out


@pytest.fixture(scope="module")
def plane_results():
    return {name: zigzag_plane(plane_gallery(name))
            for name in plane_gallery_names()}


@pytest.fixture(scope="module")
def loop_results():
    out = {}
    for name in loop_gallery_names():
        front, loop = loop_gallery(name)
        out[name] = (front, loop, zigzag_surface(front, loop))
    return out


class TestReduceWord:
    """Reduction in the free product where both letters square to one."""

    @pytest.mark.parametrize(
        "word, k",
        [("", 0), ("ab", 1), ("ba", 1), ("aabb", 0), ("abba", 0),
         ("abab", 2), ("baba", 2), ("aabbab", 1), ("abbbba", 0),
         ("abababab", 4)],
    )
    def test_reduction_table(self, word, k):
        got = reduce_word(word)
        assert got == k, f"reduce_word({word!r}) = {got}, expected {k}"

    @pytest.mark.parametrize("word", ["a", "aba", "abb"])
    def test_odd_reduced_length_rejected(self, word):
        with pytest.raises(FrontlabError, match="odd"):
            reduce_word(word)

    def test_foreign_letter_rejected(self):
        with pytest.raises(ValueError, match="letter"):
            reduce_word("ac")


class TestPlaneGallery:
    """Frozen words, rotation numbers, and normal indices of the gallery."""

    def test_names(self):
        assert plane_gallery_names() == (
            "circle", "ellipse_parallel", "rose_one_pair", "rose_two_pairs")

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown"):
            plane_gallery("astroid")

    @pytest.mark.parametrize(
        "name, word, k, m",
        [("circle", "", 0, 1),
         ("ellipse_parallel", "aaaa", 0, 1),
         ("rose_one_pair", "ba", 1, 1),
         ("rose_two_pairs", "baba", 2, 1)],
    )
    def test_frozen_table(self, plane_results, name, word, k, m):
        res = plane_results[name]
        assert res.word == word, f"{name}: word {res.word!r} != {word!r}"
        assert res.reduced_k == k, f"{name}: k {res.reduced_k} != {k}"
        assert res.m_rotation == m, f"{name}: m {res.m_rotation} != {m}"

    def test_word_equals_rotation_number(self, plane_results):
        for name, res in plane_results.items():
            assert res.reduced_k == res.rotation_number, (
                f"{name}: reduced k {res.reduced_k} != "
                f"rotation number {res.rotation_number}")

    def test_rose_loops_close(self):
        for name in ("rose_one_pair", "rose_two_pairs"):
            pf = plane_gallery(name)
            end = plane_position(pf, [pf.period])[0]
            gap = float(np.hypot(*(end - np.asarray(pf.base))))
            assert gap < 1e-12, f"{name}: endpoint gap {gap:.3e}"

    @pytest.mark.parametrize("name, nodes", [("rose_one_pair", 1024),
                                             ("rose_two_pairs", 1536)])
    def test_positions_in_one_pass(self, monkeypatch, plane_results, name, nodes):
        """The cusps' positions take one sweep of gamma' nodes to the last
        cusp and agree with integrating each time from t = 0 afresh; so do
        times on both sides of 0, repeated, and 0 itself."""
        pf = plane_gallery(name)
        cusps = [c.t for c in plane_results[name].crossings]
        real, counted = zigzag._plane_jets, []

        def plane_jets(pf, t, second=True):
            counted.append(np.size(t))
            return real(pf, t, second)

        monkeypatch.setattr(zigzag, "_plane_jets", plane_jets)
        plane_position(pf, cusps)
        assert counted == [nodes]
        monkeypatch.setattr(zigzag, "_plane_jets", real)
        for ts in (cusps, [-1.0, 2.5, 0.0, -3.0, 2.5, pf.period]):
            want = _position_from_zero(pf, ts)
            scale = float(np.abs(want).max())
            assert float(np.abs(plane_position(pf, ts) - want).max()) <= 1e-12 * scale

    def test_ellipse_parallel_cusp_parameters(self, plane_results):
        # cusps sit where the offset matches the radius of curvature:
        # D^3 = 0.42 with D^2 = 0.36 + 0.64 sin^2(u)
        u_star = math.asin(math.sqrt((0.42 ** (2.0 / 3.0) - 0.36) / 0.64))
        expected = [u_star, math.pi - u_star, math.pi + u_star,
                    2.0 * math.pi - u_star]
        got = [c.t for c in plane_results["ellipse_parallel"].crossings]
        assert len(got) == 4, f"expected 4 cusps, found {len(got)}"
        for g, e in zip(got, expected):
            assert abs(g - e) < 1e-9, f"cusp at {g}, expected {e}"

    def test_ellipse_parallel_cusps_sit_at_offset_distance(self, plane_results):
        # each cusp of the inner parallel lies at distance exactly 0.7 from
        # the ellipse point it was offset from
        for c in plane_results["ellipse_parallel"].crossings:
            base = np.array([math.cos(c.t), 0.6 * math.sin(c.t)])
            gap = abs(float(np.hypot(*(np.asarray(c.uv) - base))) - 0.7)
            assert gap < 1e-12, f"cusp at t={c.t}: offset distance off by {gap:.3e}"

    def test_rose_one_pair_cusp_parameters(self, plane_results):
        ts = [c.t for c in plane_results["rose_one_pair"].crossings]
        assert len(ts) == 2
        assert abs(ts[0]) < 1e-9 and abs(ts[1] - math.pi) < 1e-9, (
            f"cusps at {ts}, expected 0 and pi")

    def test_cusps_ordered_by_parameter(self, plane_results):
        for name, res in plane_results.items():
            ts = [c.t for c in res.crossings]
            assert ts == sorted(ts), f"{name}: cusp parameters not sorted: {ts}"


class TestPlaneContract:
    def test_normal_must_be_unit(self):
        pf = PlaneFront(gamma=parse("(cos(u), sin(u))"),
                        normal=parse("(2*cos(u), 2*sin(u))"))
        with pytest.raises(FrontContractError, match="unit"):
            classify_cusps_plane(pf)

    def test_normal_must_be_orthogonal(self):
        # unit field tilted 0.3 rad off the radial direction
        pf = PlaneFront(gamma=parse("(cos(u), sin(u))"),
                        normal=parse("(cos(u + 0.3), sin(u + 0.3))"))
        with pytest.raises(FrontContractError, match="orthogonal"):
            classify_cusps_plane(pf)

    def test_curve_data_required(self):
        with pytest.raises(ValueError, match="gamma"):
            PlaneFront(normal=parse("(cos(u), sin(u))"))

    def test_orientation_values(self):
        with pytest.raises(ValueError, match="orientation"):
            PlaneFront(gamma=parse("(cos(u), sin(u))"),
                       normal=parse("(-cos(u), -sin(u))"), orientation=2)


class TestPlaneDegeneracies:
    def test_touching_zero_between_samples(self):
        pf = PlaneFront(
            gamma_prime=parse(
                "((1 - cos(u - 0.005))*(-sin(u)), (1 - cos(u - 0.005))*cos(u))"),
            normal=parse("(cos(u), sin(u))"))
        with pytest.raises(FrontlabError, match="double zero"):
            classify_cusps_plane(pf)

    def test_touching_zero_on_a_sample(self):
        pf = PlaneFront(
            gamma_prime=parse("((1 - cos(u))*(-sin(u)), (1 - cos(u))*cos(u))"),
            normal=parse("(cos(u), sin(u))"))
        with pytest.raises(FrontlabError, match="gamma''"):
            classify_cusps_plane(pf)


class TestMirroredCurves:
    """Traversal reversal toggles letters at mirrored parameters and keeps k."""

    @pytest.mark.parametrize(
        "name, mirrored_word",
        [("circle", ""), ("ellipse_parallel", "bbbb"),
         ("rose_one_pair", "ab"), ("rose_two_pairs", "abab")],
    )
    def test_mirrored_words(self, name, mirrored_word):
        word = classify_cusps_plane(mirror_plane_front(plane_gallery(name)))
        assert word == mirrored_word, (
            f"{name} mirrored: {word!r} != {mirrored_word!r}")

    def test_k_and_rotation_invariant(self, plane_results):
        for name, res in plane_results.items():
            mres = zigzag_plane(mirror_plane_front(plane_gallery(name)))
            assert mres.reduced_k == res.reduced_k, name
            assert mres.rotation_number == res.rotation_number, name

    def test_signed_winding_flips(self, plane_results):
        mres = zigzag_plane(mirror_plane_front(plane_gallery("rose_one_pair")))
        assert plane_results["rose_one_pair"].signed_winding == 1
        assert mres.signed_winding == -1


class TestRotationNumberPlane:
    def test_circle_curvature_map_never_vertical(self):
        assert rotation_number_plane(plane_gallery("circle")) == 0

    def test_one_zig_one_zag_gives_one(self, plane_results):
        # a curve with exactly one zig and one zag and no other cusps
        res = plane_results["rose_one_pair"]
        assert sorted(res.word) == ["a", "b"]
        assert res.rotation_number == 1

    def test_circle_normal_index(self):
        assert normal_rotation_index(plane_gallery("circle")) == 1

    def test_doubling_adds_windings(self):
        # the same rose traversed twice: words concatenate and windings add
        params = {"B": B_ONE_PAIR}
        doubled = PlaneFront(
            gamma_prime=parse(
                "(-sin(2*u)*sin(2*u + B*sin(2*u)),"
                " sin(2*u)*cos(2*u + B*sin(2*u)))", params),
            normal=parse(
                "(cos(2*u + B*sin(2*u)), sin(2*u + B*sin(2*u)))", params))
        res = zigzag_plane(doubled)
        assert res.word == "baba", f"doubled word {res.word!r}"
        assert res.rotation_number == 2, "windings should add under doubling"
        assert res.m_rotation == 2


class TestNullLoopConstruction:
    def test_names(self):
        assert loop_gallery_names() == (
            "parabola_band", "parabola_clear", "pseudosphere_waist")

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown"):
            loop_gallery("torus_band")

    def test_parabola_band_crossings(self, loop_results):
        _, loop, _ = loop_results["parabola_band"]
        assert len(loop.crossings) == 2
        assert abs(loop.crossings[0]) < 1e-9
        assert abs(loop.crossings[1] - math.pi) < 1e-9

    def test_crossing_chart_points(self, loop_results):
        _, _, res = loop_results["parabola_band"]
        uv = [c.uv for c in res.crossings]
        assert abs(uv[0][0] - 0.55) < 1e-9 and abs(uv[0][1]) < 1e-9
        assert abs(uv[1][0] - 0.05) < 1e-9 and abs(uv[1][1]) < 1e-9

    def test_loop_avoiding_singular_set_is_empty(self, loop_results):
        _, loop, res = loop_results["parabola_clear"]
        assert loop.crossings == ()
        assert res.word == "" and res.rotation_number == 0

    def test_slightly_skew_tangent_within_tolerance(self):
        front = gallery("cuspidal_parabola")
        loop = null_loop(front, parse(
            "(0.3 + 0.25*cos(u), 0.4*sin(u) + 0.00001*cos(u))"))
        assert len(loop.crossings) == 2

    def test_skew_tangent_rejected(self):
        front = gallery("cuspidal_parabola")
        with pytest.raises(FrontContractError, match="null direction"):
            null_loop(front, parse(
                "(0.3 + 0.25*cos(u), 0.4*sin(u) + 0.1*cos(u))"))

    def test_peak_crossing_rejected(self):
        with pytest.raises(FrontlabError, match="cuspidal edge"):
            null_loop(gallery("cone"), axis_loop((1.0, 1.0), (0.3, 0.3)))

    def test_fabricated_peak_crossing_rejected(self):
        fake = NullLoop(path=axis_loop((1.0, 1.0), (0.3, 0.3)),
                        crossings=(0.5 * math.pi,))
        with pytest.raises(FrontlabError, match="cuspidal edge"):
            classify_crossings_surface(gallery("cone"), fake)


    def test_hand_built_loop_refused(self, loop_results):
        # a NullLoop built without null_loop carries no crossings (None),
        # where an empty tuple would read as a loop that meets no edge
        front, loop, res = loop_results["parabola_band"]
        bare = NullLoop(path=loop.path)
        for word_of in (classify_crossings_surface, zigzag_surface):
            with pytest.raises(FrontlabError, match="null_loop"):
                word_of(front, bare)
        assert res.word == "bb" and bare.crossings is None
        assert reverse_loop(bare).crossings is None

    def test_hand_built_off_null_crossing_refused(self):
        # the loop of test_skew_tangent_rejected, with its two lambda zeros
        # (v = 0.4 sin t + 0.1 cos t = 0) entered by hand
        front = gallery("cuspidal_parabola")
        t0 = math.pi - math.atan(0.25)
        loop = NullLoop(path=parse("(0.3 + 0.25*cos(u), 0.4*sin(u) + 0.1*cos(u))"),
                        crossings=(t0, t0 + math.pi))
        for word_of in (classify_crossings_surface, zigzag_surface):
            with pytest.raises(FrontContractError, match="null direction"):
                word_of(front, loop)


class TestSurfaceWords:
    @pytest.mark.parametrize(
        "name, word",
        [("parabola_band", "bb"), ("parabola_clear", ""),
         ("pseudosphere_waist", "aa")],
    )
    def test_frozen_words(self, loop_results, name, word):
        _, _, res = loop_results[name]
        assert res.word == word, f"{name}: word {res.word!r} != {word!r}"

    def test_word_equals_rotation_number(self, loop_results):
        for name, (_, _, res) in loop_results.items():
            assert res.reduced_k == res.rotation_number, (
                f"{name}: reduced k {res.reduced_k} != "
                f"rotation number {res.rotation_number}")

    def test_equal_letters_cancel(self, loop_results):
        _, _, res = loop_results["parabola_band"]
        assert res.word == "bb" and res.reduced_k == 0

    def test_reversal_keeps_letters_and_k(self, loop_results):
        for name, (front, loop, res) in loop_results.items():
            rres = zigzag_surface(front, reverse_loop(loop))
            assert rres.word == res.word[::-1], name
            assert rres.reduced_k == res.reduced_k, name
            assert rres.rotation_number == res.rotation_number, name

    def test_doubled_loop_adds_windings(self, loop_results):
        front, _, single = loop_results["parabola_band"]
        loop2 = null_loop(front, parse("(0.3 + 0.25*cos(2*u), 0.4*sin(2*u))"))
        res = zigzag_surface(front, loop2)
        assert res.word == single.word * 2
        assert res.rotation_number == 2 * single.rotation_number


class TestResultSerialization:
    def test_plane_dict_shape(self, plane_results):
        d = zigzag_to_dict(plane_results["rose_one_pair"])
        assert set(d) == {"word", "reduced_k", "rotation_number",
                          "signed_winding", "crossings", "m_rotation"}
        assert d["word"] == "ba" and d["reduced_k"] == 1
        for entry in d["crossings"]:
            assert set(entry) == {"t", "uv", "letter"}
            assert len(entry["uv"]) == 2
            assert entry["letter"] in ("a", "b")

    def test_surface_dict_drops_m(self, loop_results):
        _, _, res = loop_results["pseudosphere_waist"]
        d = zigzag_to_dict(res)
        assert "m_rotation" not in d
        assert d["word"] == "aa"

    def test_serialization_is_deterministic(self):
        first = json.dumps(zigzag_to_dict(
            zigzag_plane(plane_gallery("rose_two_pairs"))), sort_keys=True)
        second = json.dumps(zigzag_to_dict(
            zigzag_plane(plane_gallery("rose_two_pairs"))), sort_keys=True)
        assert first == second


def _scalar_roots(fn, period, samples):
    """The per-root scalar bisection the masked one replaced, to 1e-12."""
    t = np.linspace(0.0, period, samples, endpoint=False)
    vals = np.asarray(fn(t), dtype=float)
    roots = [float(x) for x in t[vals == 0.0]]
    for i in range(samples):
        j = (i + 1) % samples
        if vals[i] == 0.0 or vals[j] == 0.0 or vals[i] * vals[j] > 0.0:
            continue
        lo, hi, flo = t[i], t[i] + period / samples, vals[i]
        while hi - lo > 1e-12:
            mid = 0.5 * (lo + hi)
            fmid = float(fn(np.array([mid]))[0])
            if fmid == 0.0:
                lo = hi = mid
                break
            if flo * fmid < 0.0:
                hi = mid
            else:
                lo, flo = mid, fmid
        roots.append(0.5 * (lo + hi) % period)
    return sorted(roots)


def test_roots_match_scalar_bisection(monkeypatch):
    """Every root scan of the plane and loop galleries lands within 1e-12
    of the point-at-a-time bisection, and the words do not move."""
    calls = []
    real = zigzag._simple_roots

    def spy(fn, t, vals, what):
        # the closed scan t ends at the period, after `samples` intervals
        roots = real(fn, t, vals, what)
        calls.append((fn, float(t[-1]), len(t) - 1, roots))
        return roots

    monkeypatch.setattr(zigzag, "_simple_roots", spy)
    words = {name: zigzag_plane(plane_gallery(name)).word
             for name in plane_gallery_names()}
    for name in loop_gallery_names():
        front, loop = loop_gallery(name)
        words[name] = zigzag_surface(front, loop).word
    assert words == {"circle": "", "ellipse_parallel": "aaaa", "rose_one_pair": "ba",
                     "rose_two_pairs": "baba", "parabola_band": "bb",
                     "parabola_clear": "", "pseudosphere_waist": "aa"}
    assert sum(len(roots) for *_, roots in calls) >= 12
    for fn, period, samples, roots in calls:
        want = _scalar_roots(fn, period, samples)
        assert len(roots) == len(want)
        for got, ref in zip(roots, want):
            gap = abs(got - ref) % period
            assert min(gap, period - gap) <= 1e-12, (got, ref)


def test_non_finite_scan_value_refused():
    """A NaN in the scan is no sign change: cos t + 2 has no zero, and the
    scan is refused at its first NaN sample rather than given roots."""
    def fn(t):
        t = np.asarray(t, dtype=float)
        return np.where((t > 1.0) & (t < 1.2), np.nan, np.cos(t) + 2.0)

    t = np.linspace(0.0, 2.0 * math.pi, 65)
    with pytest.raises(FrontlabError, match=r"^f is not finite at t=1\.079922$"):
        zigzag._simple_roots(fn, t, fn(t), "f")
    vals = np.cos(t) + 2.0
    vals[7] = np.inf
    with pytest.raises(FrontlabError, match=r"t=0\.687223"):
        zigzag._simple_roots(fn, t, vals, "f")


def _loop_dips(vals, scale):
    """The per-sample dip scan that `_simple_roots`' mask replaced."""
    n, exact, out = len(vals), vals == 0.0, []
    for i in range(n):
        h, j = (i - 1) % n, (i + 1) % n
        if exact[i] or exact[h] or exact[j]:
            continue
        if vals[h] * vals[i] < 0.0 or vals[i] * vals[j] < 0.0:
            continue
        ai = abs(vals[i])
        if ai > abs(vals[h]) or ai > abs(vals[j]) or ai >= 1e-3 * scale:
            continue
        out.append(i)
    return out


@pytest.mark.parametrize("seed", range(8))
def test_dip_mask_matches_loop(seed):
    # runs of one sign, magnitudes over eight decades, equal neighbours and
    # some exact zeros; a dip shows as the first golden-section probe of
    # its window
    rng = np.random.default_rng(seed)
    n = zigzag.SAMPLES
    vals = np.repeat(rng.choice([-1.0, 1.0], n // 8), 8) * 10.0 ** rng.uniform(-8, 0, n)
    twins = rng.integers(0, n - 1, 32)
    vals[twins + 1] = vals[twins]
    vals[rng.integers(0, n, 16)] = 0.0
    t = np.linspace(0.0, 1.0, n + 1)
    probed = set()

    def fn(m):
        probed.update(np.ravel(m).tolist())
        return np.ones_like(m)

    zigzag._simple_roots(fn, t, np.append(vals, vals[0]), "test function")
    lo, hi = t[:-1] - 1.0 / n, t[:-1] + 1.0 / n
    first = lo + 0.381966 * (hi - lo)
    got = [i for i in range(n) if first[i] in probed]
    want = _loop_dips(vals, float(np.abs(vals).max()))
    assert len(want) > 3
    assert got == want


def _scaled(e, c):
    """The vector expression `e` times the constant c."""
    root = Vector([BinOp("*", Num(c, 0), x, 0) for x in e.root.components], 0)
    return Expr(root, e.params, to_source(root))


def _fields(res):
    return (res.word, res.reduced_k, res.rotation_number, res.signed_winding,
            res.m_rotation, [c.t for c in res.crossings])


class TestScaleCovariance:
    """Words, windings and crossing parameters do not see the front's scale.

    Scaling the curve (plane) or the map (surface) by c scales the two
    entries of the curvature map by c^2 and c; the balanced chart absorbs
    that, and the cusp floor on gamma'' is relative to |gamma'|.
    """

    @pytest.mark.parametrize("c", [1e-12, 1e-9, 1e-3, 1e3, 1e9])
    def test_plane_fronts(self, c):
        for name in plane_gallery_names():
            for pf in (plane_gallery(name), mirror_plane_front(plane_gallery(name))):
                curve = "gamma" if pf.gamma is not None else "gamma_prime"
                big = dataclasses.replace(pf, **{curve: _scaled(getattr(pf, curve), c)})
                assert _fields(zigzag_plane(big)) == _fields(zigzag_plane(pf)), (
                    pf.label, c)

    @pytest.mark.parametrize("c", [1e-3, 1e3, 1e6, 1e9])
    def test_null_loops(self, loop_results, c):
        for name, (front, loop, res) in loop_results.items():
            big = dataclasses.replace(front, map=_scaled(front.map, c))
            scaled = null_loop(big, loop.path, period=loop.period)
            assert _fields(zigzag_surface(big, scaled)) == _fields(res), (name, c)


class TestWinding:
    """`_winding` on synthetic angles whose steps on the scan are too long."""

    t = np.linspace(0.0, 2.0 * math.pi, zigzag.SAMPLES + 1)

    def _recorded(self, rate):
        asked = []

        def angle_at(m):
            asked.append(m)
            return rate * m

        return asked, angle_at

    def test_refines_to_the_exact_integer(self):
        # steps of 300 * 2 pi / 512 = 3.68 rad read as -2.60 modulo 2 pi;
        # two rounds of bisection bring them under pi/2
        asked, angle_at = self._recorded(300.0)
        got = zigzag._winding(angle_at, self.t, 300.0 * self.t, 2.0 * math.pi,
                              0.5 * math.pi, "test angle")
        assert got == 300
        assert [m.size for m in asked] == [512, 1024]
        # only new midpoints are evaluated, each once
        points = np.concatenate([self.t] + asked)
        assert np.unique(points).size == points.size

    def test_refinement_budget(self):
        _, angle_at = self._recorded(300.0)
        with pytest.raises(FrontlabError, match="stay above"):
            zigzag._winding(angle_at, self.t, 300.0 * self.t, 2.0 * math.pi,
                            0.5 * math.pi, "test angle", budget=600)

    def test_non_integer_after_refinement(self):
        asked, angle_at = self._recorded(300.5)
        with pytest.raises(FrontlabError, match="not an integer"):
            zigzag._winding(angle_at, self.t, 300.5 * self.t, 2.0 * math.pi,
                            0.5 * math.pi, "test angle")
        assert [m.size for m in asked] == [512, 1024]

    def test_jump_does_not_converge(self):
        def angle_at(m):
            return np.where(m < 1.0, 0.0, 2.0)

        with pytest.raises(FrontlabError, match="did not converge"):
            zigzag._winding(angle_at, self.t, angle_at(self.t), 2.0 * math.pi,
                            0.5 * math.pi, "test angle")


class TestEvaluationCounts:
    """A plane front's jets: one program run per point set."""

    def _spy(self, monkeypatch):
        calls = []
        real = zigzag.eval_jet

        def eval_jet(e, u, v, order):
            calls.append(np.array(u, dtype=float))
            return real(e, u, v, order)

        monkeypatch.setattr(zigzag, "eval_jet", eval_jet)
        return calls

    @pytest.mark.parametrize("name", ["ellipse_parallel", "rose_two_pairs"])
    def test_one_scan_call(self, monkeypatch, name):
        # calls on the scan grid, with or without its closing point
        calls = self._spy(monkeypatch)
        pf = plane_gallery(name)
        zigzag_plane(pf)
        grid = np.linspace(0.0, pf.period, zigzag.SAMPLES + 1)
        scans = [u.size for u in calls if u.size >= zigzag.SAMPLES
                 and np.array_equal(u[:zigzag.SAMPLES], grid[:-1])]
        assert scans == [zigzag.SAMPLES + 1]

    @pytest.mark.parametrize("name", ["ellipse_parallel", "rose_two_pairs"])
    def test_one_call_per_bisection_round(self, monkeypatch, name):
        calls = self._spy(monkeypatch)
        rounds = []
        real = zigzag._bisect

        def bisect(value, neg, pos, **kw):
            def counted(m, todo):
                before = len(calls)
                out = value(m, todo)
                rounds.append(len(calls) - before)
                return out

            return real(counted, neg, pos, **kw)

        monkeypatch.setattr(zigzag, "_bisect", bisect)
        zigzag_plane(plane_gallery(name))
        assert rounds and set(rounds) == {1}

    def test_root_bisection_calls(self, monkeypatch):
        """The four cusps of ellipse_parallel come to their last bit in a
        few look-ahead calls; one round per call took 48."""
        calls = []
        real = zigzag._bisect

        def bisect(value, neg, pos, **kw):
            return real(lambda m, todo: calls.append(len(m)) or value(m, todo), neg, pos, **kw)

        monkeypatch.setattr(zigzag, "_bisect", bisect)
        assert zigzag_plane(plane_gallery("ellipse_parallel")).word == "aaaa"
        assert 1 <= len(calls) <= 10
