"""Layer spans recorded from outside the program.

A `Tracer` wraps functions so that every call records a span: its name, its
duration, and the share of that duration covered by nested spans.  A span's
self time is its duration minus the time its child spans cover.  Counts can
be attached to a span from the call's arguments and result, and two counts
(`jet_calls`, `jet_points`) are also summed inclusively over each span's
descendants, so a caller can ask how much jet work ran underneath it.

`instrumented` swaps wrappers into module namespaces for the length of a
`with` block and always puts the originals back.
"""

import contextlib
import functools
import time
from collections import defaultdict

INCLUSIVE = ("jet_calls", "jet_points")


class _Frame:
    __slots__ = ("name", "start", "child_s", "incl")

    def __init__(self, name, start):
        self.name = name
        self.start = start
        self.child_s = 0.0
        self.incl = dict.fromkeys(INCLUSIVE, 0)


class Tracer:
    """In-memory span recorder for one thread.

    `stats[name]` maps counter names to totals: `calls`, `self_s`, whatever
    the span's count function adds, and `incl_<key>` for the inclusive
    counts.  `root_s` is the time covered by spans that have no parent.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.reset()

    def reset(self):
        self.stats = defaultdict(lambda: defaultdict(float))
        self.root_s = 0.0
        self._stack = []

    def wrap(self, name, fn, count=None):
        """Return `fn` wrapped in a span called `name`.

        `count(args, kwargs, result, self_s)` may return a dict of counter
        increments for the span; keys named in INCLUSIVE also feed the
        inclusive totals of every enclosing span.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = _Frame(name, self.clock())
            self._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(frame)
                raise
            self._close(frame, count, (args, kwargs, result))
            return result

        return wrapper

    def _close(self, frame, count=None, call=None):
        """End the innermost span; `call` is (args, kwargs, result)."""
        duration = self.clock() - frame.start
        self._stack.pop()
        self_s = duration - frame.child_s
        st = self.stats[frame.name]
        st["calls"] += 1
        st["self_s"] += self_s
        if count is not None:
            for key, inc in count(*call, self_s).items():
                st[key] += inc
                if key in frame.incl:
                    frame.incl[key] += inc
        for key, value in frame.incl.items():
            st["incl_" + key] += value
        if self._stack:
            parent = self._stack[-1]
            parent.child_s += duration
            for key, value in frame.incl.items():
                parent.incl[key] += value
        else:
            self.root_s += duration

    def self_total(self):
        return sum(st["self_s"] for st in self.stats.values())


@contextlib.contextmanager
def instrumented(tracer, targets):
    """Wrap each `(namespace, attribute, span name, count)` target.

    Every namespace that looks a function up by name needs its own entry:
    a module that did `from .front import lambda_value` holds its own
    reference.  Each wrapper calls the original directly, so one call
    records one span whichever namespace it came through.  The originals
    are restored on exit, also when the block raises.
    """
    swapped = []
    try:
        for namespace, attr, name, count in targets:
            original = getattr(namespace, attr)
            setattr(namespace, attr, tracer.wrap(name, original, count))
            swapped.append((namespace, attr, original))
        yield swapped
    finally:
        for namespace, attr, original in reversed(swapped):
            setattr(namespace, attr, original)
