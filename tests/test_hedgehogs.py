"""Hedgehogs (`hedgehogs.py`) close both identities at `euler_report`'s defaults."""

import math

import hedgehogs
import pytest

from frontlab import euler_report
from frontlab import gaussbonnet

# the first and third fronts of seed 2026, both at sigma = 0.25
SAMPLE = [front for i, (_, front) in enumerate(hedgehogs.sample(2026, 3)) if i != 1]


@pytest.mark.parametrize("front", SAMPLE, ids=lambda f: f.label)
def test_default_report_closes(front):
    rep = euler_report(front)
    # nu is the identity of the sphere, negatively oriented in this chart
    assert abs(rep.int_K_dAhat + 4.0 * math.pi) < 1e-12
    assert rep.deg_nu == -1
    assert rep.provenance["panel_diff"] <= gaussbonnet._PANELS_TOL
    assert rep.chi_Mplus - rep.chi_Mminus + rep.S_plus - rep.S_minus == -2
    assert hedgehogs.closes(rep), (rep.residual_signed, rep.residual_unsigned)
