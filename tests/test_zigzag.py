"""Tests for cusp letters, word reduction, and curvature-map rotation numbers."""

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
    zigzag_over_loops,
    zigzag_plane,
    zigzag_surface,
    zigzag_to_dict,
)
from frontlab import zigzag

# first zero of J1', reused by the doubled-rose construction
B_ONE_PAIR = -1.8411837813406593


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

    def test_over_loops_helper(self, loop_results):
        front, band, _ = loop_results["parabola_band"]
        _, clear, _ = loop_results["parabola_clear"]
        words = [r.word for r in zigzag_over_loops(front, [band, clear])]
        assert words == ["bb", ""]


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

    def spy(fn, period, samples, what):
        roots = real(fn, period, samples, what)
        calls.append((fn, period, samples, roots))
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
