"""Random closed fronts with known answers: hedgehogs.

A hedgehog is the envelope of the planes {<x, nu> = p(nu)} over the unit
sphere: f = p nu + grad p - <grad p, nu> nu, with unit normal nu
(R. Langevin, G. Levitt and H. Rosenberg, "Herissons et multiherissons",
Banach Center Publ. 20, 1988).  Here nu = (cos u sin v, sin u sin v, cos v)
in the sphere's chart with polar caps of 1e-3 pi, and
p = 1 + sum c_k m_k over the ten cubic monomials of `MONOMIALS`, grad p
their Euclidean gradient.  The coefficients are parameters of one
expression, so one jet program serves the whole family.

Answers known without tracing: nu is the identity of the sphere, so
int K dAhat = -4 pi (deg nu = -1 in this chart); chi(M) = 2, so
chi(M+) - chi(M-) + S+ - S- = -2; and int K dA + 2 int kappa_s ds = 4 pi.

    PYTHONPATH=src python tests/hedgehogs.py [SEED [COUNT [SIGMA ...]]]

prints `euler_report`'s outcome at its defaults for each of COUNT fronts
(default seed 2026, 24 fronts), sigma cycling through the SIGMAs given
(default 0.25 and 0.5, alternating), and the count of each outcome.
"""

import math
import re
import sys
from collections import Counter

import numpy as np

from frontlab import Domain, Front, FrontlabError, euler_report, parse

NU = ("cos(u)*sin(v)", "sin(u)*sin(v)", "cos(v)")
# (monomial, its gradient), each a polynomial in x, y, z
MONOMIALS = (
    ("x^3", ("3*x^2", "0", "0")),
    ("y^3", ("0", "3*y^2", "0")),
    ("z^3", ("0", "0", "3*z^2")),
    ("x*y*z", ("y*z", "x*z", "x*y")),
    ("x^2*y", ("2*x*y", "x^2", "0")),
    ("y*z^2", ("0", "z^2", "2*y*z")),
    ("x*z^2", ("z^2", "0", "2*x*z")),
    ("x^2*z", ("2*x*z", "0", "x^2")),
    ("y^2*z", ("0", "2*y*z", "y^2")),
    ("x*y^2", ("y^2", "2*x*y", "0")),
)
SIGMAS = (0.25, 0.5)


def _on_sphere(poly):
    for name, comp in zip("xyz", NU):
        poly = poly.replace(name, f"({comp})")
    return poly


def _source():
    p = "1 + " + " + ".join(f"c{k}*{_on_sphere(m)}" for k, (m, _) in enumerate(MONOMIALS))
    grad = [
        " + ".join(f"c{k}*{_on_sphere(g[i])}" for k, (_, g) in enumerate(MONOMIALS) if g[i] != "0")
        for i in range(3)
    ]
    radial = " + ".join(f"({g})*{n}" for g, n in zip(grad, NU))
    return "(" + ", ".join(
        f"({p})*{n} + {g} - ({radial})*{n}" for g, n in zip(grad, NU)
    ) + ")"


SOURCE = _source()


def hedgehog(coeffs, label="hedgehog"):
    """The hedgehog of p = 1 + sum c_k m_k, coefficients in `MONOMIALS` order."""
    params = {f"c{k}": float(c) for k, c in enumerate(coeffs)}
    return Front(
        map=parse(SOURCE, params),
        normal=parse("(" + ", ".join(NU) + ")"),
        domain=Domain(0.0, 2.0 * math.pi, 1e-3 * math.pi, (1.0 - 1e-3) * math.pi,
                      periodic_u=True),
        label=label,
        metadata={"chi": 2, "caps": 2},
    )


def sample(seed, count, sigmas=SIGMAS):
    """`count` hedgehogs, sigma cycling through `sigmas`; each front's ten
    coefficients are drawn in turn from one generator, rounded to 3 places."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        sigma = sigmas[i % len(sigmas)]
        c = np.round(rng.normal(0.0, sigma, 10), 3)
        yield sigma, hedgehog(c, f"hedgehog seed={seed} #{i} sigma={sigma}")


def closes(rep):
    """The report is applicable and both identities close."""
    return (rep.applicable and abs(rep.residual_signed) < 1e-8
            and abs(rep.residual_unsigned) < 1e-6)


def outcome(front):
    """One line: how `euler_report` at its defaults ends on `front`."""
    try:
        rep = euler_report(front)
    except FrontlabError as exc:
        return f"raised {type(exc).__name__}: {exc}"
    if not rep.applicable:
        return f"refused: {rep.reason}"
    if closes(rep):
        return "closes"
    return (f"applicable, residual_signed {rep.residual_signed / math.pi:+.3g} pi, "
            f"residual_unsigned {rep.residual_unsigned / math.pi:+.3g} pi")


def main(argv):
    seed = int(argv[0]) if argv else 2026
    count = int(argv[1]) if len(argv) > 1 else 24
    sigmas = tuple(map(float, argv[2:])) or SIGMAS
    tally = Counter()
    for i, (sigma, front) in enumerate(sample(seed, count, sigmas)):
        line = outcome(front)
        tally[re.sub(r"\(.*?\)", "(...)", line.split(", residual_unsigned")[0])] += 1
        print(f"{i:3d} sigma={sigma} {line}", flush=True)
    for line, n in tally.most_common():
        print(f"{n:3d} x {line}")


if __name__ == "__main__":
    main(sys.argv[1:])
