"""Look-ahead bisection against the one-round-per-call oracle.

`singular._bisect` evaluates the midpoints of up to `_LOOKAHEAD` predicted
rounds per `value` call and replays the rounds.  Whatever the value
function and whatever the end values it is given, its ends must be the
ones `tests/plain_bisect.py` returns, byte for byte, in no more calls.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from plain_bisect import bisect as plain_bisect

from frontlab import FrontlabError, gallery, gallery_names, trace
from frontlab import singular
from frontlab.singular import _BISECT_ROUNDS, _LOOKAHEAD, _bisect

# the chart direction a point's coordinate is read along, for (n, 2) brackets
DIRECTION = (0.6, 0.8)


def _noise(s):
    """A sign-scrambling term in [-1, 1) from the bits of s, elementwise."""
    bits = np.ascontiguousarray(s).view(np.int64)
    return ((bits * 2654435761) % 4096) / 2048.0 - 1.0


def _shape(kind, d):
    """Value functions of the offset d from each bracket's own root."""
    if kind == "monotone":
        return d * d * d + 0.25 * d
    if kind == "noisy":
        return d + 1e-9 * _noise(d)
    if kind == "multi":
        return (d - 0.1) * d * (d + 0.23)
    if kind == "steps":  # plateaus of exact zeros
        return np.floor(d * 64.0) / 64.0
    # holes: NaN on one side of the root, inf and -inf on the other
    f = np.where((d > 0.01) & (d < 0.02), np.nan, d)
    f = np.where((d > -0.03) & (d < -0.02), np.inf, f)
    return np.where((d > -0.05) & (d < -0.04), -np.inf, f)


def _coordinate(x):
    x = np.asarray(x, dtype=float)
    return x if x.ndim == 1 else DIRECTION[0] * x[:, 0] + DIRECTION[1] * x[:, 1]


def _value(kind, roots, calls):
    def value(m, todo):
        calls.append(len(m))
        return _shape(kind, _coordinate(m) - roots[todo])

    return value


COORDS = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)
WRONG = st.sampled_from([np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0, -1.0, 1e300, -1e300])


@st.composite
def brackets(draw):
    dim = draw(st.sampled_from([1, 2]))
    n = draw(st.integers(1, 6))
    ends = []
    for _ in range(2 * n):
        ends.append([draw(COORDS) for _ in range(dim)])
    neg = np.array(ends[:n], dtype=float)
    pos = np.array(ends[n:], dtype=float)
    # some brackets span just one float step
    for k in range(n):
        if draw(st.booleans()) and draw(st.booleans()):
            pos[k] = np.nextafter(neg[k], draw(st.sampled_from([np.inf, -np.inf])))
    if dim == 1:
        neg, pos = neg[:, 0], pos[:, 0]
    roots = np.array([draw(COORDS) for _ in range(n)])
    return neg, pos, roots


@settings(max_examples=400, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    case=brackets(),
    kind=st.sampled_from(["monotone", "noisy", "multi", "steps", "holes"]),
    ends=st.sampled_from(["true", "wrong", "none"]),
    small=st.sampled_from([0.0, 0.0, 1e-9, 1e-3]),
    rounds=st.one_of(st.integers(0, _LOOKAHEAD + 1), st.just(64), st.integers(10, 70)),
    midpoint=st.sampled_from([None, "offset"]),
    data=st.data(),
)
def test_ends_bit_identical_to_plain_rounds(case, kind, ends, small, rounds, midpoint, data):
    neg, pos, roots = case
    mid = None if midpoint is None else (lambda a, b: a + 0.5 * (b - a))
    kw = {}
    if ends == "true":
        kw = {"f_neg": _shape(kind, _coordinate(neg) - roots),
              "f_pos": _shape(kind, _coordinate(pos) - roots)}
    elif ends == "wrong":
        wrong = st.lists(WRONG, min_size=len(neg), max_size=len(neg))
        kw = {"f_neg": np.array(data.draw(wrong)), "f_pos": np.array(data.draw(wrong))}
    want_calls, got_calls = [], []
    want = plain_bisect(_value(kind, roots, want_calls), neg, pos, mid, small, rounds)
    got = _bisect(_value(kind, roots, got_calls), neg, pos, mid, small, rounds, **kw)
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.dtype == w.dtype
        assert g.tobytes() == w.tobytes()
    assert len(got_calls) <= len(want_calls)
    if not kw:
        assert got_calls == want_calls


def test_true_end_values_save_calls():
    """Adjacent floats close in their first round, as they stand; [-1, 1]
    around 1/3 takes 55 rounds to its last bit, here in a few calls."""
    lo, hi = np.array([0.3, -1.0]), np.array([np.nextafter(0.3, 1.0), 1.0])
    roots = np.array([0.2, 1.0 / 3.0])
    f_neg, f_pos = _shape("monotone", lo - roots), _shape("monotone", hi - roots)
    want_calls, got_calls = [], []
    want = plain_bisect(_value("monotone", roots, want_calls), lo, hi)
    got = _bisect(_value("monotone", roots, got_calls), lo, hi, f_neg=f_neg, f_pos=f_pos)
    assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))
    assert want_calls[:2] == [2, 1] and len(want_calls) == 55
    assert got_calls[0] == 2 * _LOOKAHEAD and len(got_calls) <= 12


def _recorded_bisections(monkeypatch):
    calls = []
    real = singular._bisect

    def record(value, neg, pos, midpoint=None, small=0.0, rounds=_BISECT_ROUNDS, **kw):
        out = real(value, neg, pos, midpoint, small, rounds, **kw)
        calls.append((value, np.array(neg), np.array(pos), midpoint, small, rounds, out))
        return out

    monkeypatch.setattr(singular, "_bisect", record)
    return calls


def test_trace_bisections_match_plain_rounds(monkeypatch):
    """Every seeding and swallowtail bisection of the gallery's traces."""
    calls = _recorded_bisections(monkeypatch)
    cases = [(name, None) for name in gallery_names()] + [("ellipsoid_parallel", {"d": 1.1})]
    for grid in (32, 64):
        for name, params in cases:
            try:
                trace(gallery(name, params), grid=grid)
            except FrontlabError:  # refused after its bisections ran
                pass
    assert sum(m is not None for _, _, _, m, *_ in calls) >= 1
    for value, neg, pos, midpoint, small, rounds, got in calls:
        want = plain_bisect(value, neg, pos, midpoint, small, rounds)
        assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))


@pytest.mark.parametrize("name,params,grid,most", [
    ("ellipsoid_parallel", {"d": 2.0}, 64, 16),  # 53 calls one round at a time
    ("kuen", None, 48, 16),  # 64
])
def test_seeding_calls(monkeypatch, name, params, grid, most):
    """Seeding `trace` takes a few look-ahead calls of lambda."""
    calls = []
    real_value, real_crossings = singular.lambda_value, singular._crossings

    def counted(front, u, v):
        calls.append(np.size(u))
        return real_value(front, u, v)

    def crossings(*args):
        monkeypatch.setattr(singular, "lambda_value", counted)
        try:
            return real_crossings(*args)
        finally:
            monkeypatch.setattr(singular, "lambda_value", real_value)

    monkeypatch.setattr(singular, "_crossings", crossings)
    trace(gallery(name, params), grid=grid)
    assert 1 <= len(calls) <= most
