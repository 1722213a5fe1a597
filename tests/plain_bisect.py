"""Test oracle: masked bisection one round per `value` call.

This is `frontlab.singular._bisect` before it looked ahead: every round
evaluates the midpoints of the brackets still open, and nothing else.  The
library's look-ahead replays these rounds exactly, so the two return the
same ends bit for bit.
"""

import numpy as np

from frontlab.singular import _BISECT_ROUNDS


def bisect(value, neg, pos, midpoint=None, small=0.0, rounds=_BISECT_ROUNDS):
    """Masked bisection of the brackets between `neg` and `pos`.

    The ends are stacked on the first axis, numbers or points; `value` is
    negative at each `neg` end and not negative at each `pos` end.  Each
    round calls `value(m, open)` once, on the midpoints m of the brackets
    still open (indices `open`), and moves the end on each midpoint's side.
    A bracket closes onto its midpoint where |value| <= small or is not
    finite, and as it stands where the midpoint equals one of its ends (no
    float lies between them).  `midpoint(a, b)` replaces the plain average.
    Returns the final ends.
    """
    neg = np.array(neg, dtype=float)
    pos = np.array(pos, dtype=float)
    todo = np.arange(len(neg))
    for _ in range(rounds):
        if not todo.size:
            break
        a, b = neg[todo], pos[todo]
        m = 0.5 * (a + b) if midpoint is None else midpoint(a, b)
        f = value(m, todo)
        below = f < 0
        neg[todo[below]] = m[below]
        pos[todo[~below]] = m[~below]
        hit = ~(np.abs(f) > small)
        neg[todo[hit]] = pos[todo[hit]] = m[hit]
        flat = [(m == end).reshape(len(m), -1).all(axis=1) for end in (a, b)]
        todo = todo[~(hit | flat[0] | flat[1])]
    return neg, pos
