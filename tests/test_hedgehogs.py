"""Hedgehogs (`hedgehogs.py`) at `euler_report`'s defaults: two fronts close
both identities, and every front of the swept samples ends as recorded."""

import math
import re

import hedgehogs
import pytest

from frontlab import euler_report
from frontlab import gaussbonnet

# the first and third fronts of seed 2026, both at sigma = 0.25
SAMPLE = [front for i, (_, front) in enumerate(hedgehogs.sample(2026, 3)) if i != 1]

# Each front's recorded outcome: "closes", or the class of the error raised
# and a pattern its message matches (`python tests/hedgehogs.py` prints them).
CLOSES = "closes"
FOUR = ("TraceError", r"has four crossed edges")
COINCIDE = ("TraceError", r"swallowtail bracket at \(.*\) coincide in the chart")
SEED_2026 = [  # sigma 0.25 and 0.5, alternating
    CLOSES, FOUR, CLOSES, CLOSES,
    ("InapplicableError", r"degenerate singular points present"),
    FOUR, CLOSES,
    CLOSES,  # applicable with residual_signed -4 pi: xfail below
    CLOSES,
    ("FrontlabError", r"lost the singular curve while integrating near \(4\.63844, 2\.05732\)"),
    CLOSES, COINCIDE, CLOSES, FOUR, CLOSES, CLOSES, CLOSES, FOUR,
    CLOSES, CLOSES, CLOSES, CLOSES, CLOSES, COINCIDE,
]
SEED_1 = [  # sigma 0.6
    FOUR, CLOSES,
    ("TraceError", r"swallowtail bracket at \(1\.13728, 1\.57082\) coincide"),
    FOUR,
    # an open curve from (4.23530, v1) to (5.50921, v1), on the upper cap's ring
    ("InapplicableError", r"ends at \(4\.2353, 3\.13845\) on a polar cap's ring"),
    FOUR,
]
WRONG = {7: "ROADMAP item 5: applicable with residual_signed -4 pi"}
SWEEP = [
    pytest.param(front, want, id=front.label, marks=[
        pytest.mark.xfail(strict=True, reason=WRONG[i])] if i in WRONG else [])
    for i, ((_, front), want) in enumerate(zip(hedgehogs.sample(2026, 24), SEED_2026))
] + [
    pytest.param(front, want, id=front.label)
    for (_, front), want in zip(hedgehogs.sample(1, 6, (0.6,)), SEED_1)
]


@pytest.mark.parametrize("front", SAMPLE, ids=lambda f: f.label)
def test_default_report_closes(front):
    rep = euler_report(front)
    # nu is the identity of the sphere, negatively oriented in this chart
    assert abs(rep.int_K_dAhat + 4.0 * math.pi) < 1e-12
    assert rep.deg_nu == -1
    assert rep.provenance["panel_diff"] <= gaussbonnet._PANELS_TOL
    assert rep.chi_Mplus - rep.chi_Mminus + rep.S_plus - rep.S_minus == -2
    assert hedgehogs.closes(rep), (rep.residual_signed, rep.residual_unsigned)


@pytest.mark.parametrize("front, want", SWEEP)
def test_default_report_ends_as_recorded(front, want):
    line = hedgehogs.outcome(front)
    if want == CLOSES:
        assert line == CLOSES
    else:
        cls, pattern = want
        assert line.startswith(f"raised {cls}: ") and re.search(pattern, line), line
