"""Self-test of the span accounting, on a synthetic call tree, of the
host-speed conversion and its premise, and of the jet counts on frontlab's
namespaces.

    python3 perfbench/test_spans.py

A fake clock advances only when the synthetic functions say they work, so
every self time is exact.
"""

import sys
import types
import unittest
from pathlib import Path

import spans


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def work(self, seconds):
        self.now += seconds


def call_tree(clock):
    """outer (3 s) -> middle twice (2 s each) -> leaf (1 s each)."""
    ns = types.SimpleNamespace()

    def leaf(u, v):
        clock.work(1.0)
        return "leaf"

    def middle():
        clock.work(2.0)
        return ns.leaf(0.0, [1.0, 2.0, 3.0])

    def outer():
        clock.work(3.0)
        ns.middle()
        ns.middle()
        return "done"

    def failing():
        clock.work(0.5)
        ns.leaf(0.0, 0.0)
        raise ValueError("job failed")

    ns.leaf, ns.middle, ns.outer, ns.failing = leaf, middle, outer, failing
    return ns


def count_leaf(args, kwargs, result, self_s):
    return {"jet_calls": 1, "jet_points": len(args[1]) if isinstance(args[1], list) else 1}


class SpanAccountingTest(unittest.TestCase):
    def setUp(self):
        self.clock = FakeClock()
        self.ns = call_tree(self.clock)
        self.originals = dict(vars(self.ns))
        self.tracer = spans.Tracer(clock=self.clock)
        self.targets = [
            (self.ns, "leaf", "leaf", count_leaf),
            (self.ns, "middle", "middle", None),
            (self.ns, "outer", "outer", None),
            (self.ns, "failing", "failing", None),
        ]

    def test_self_times_of_nested_tree(self):
        with spans.instrumented(self.tracer, self.targets):
            self.assertEqual(self.ns.outer(), "done")
        st = self.tracer.stats
        self.assertEqual(st["outer"]["self_s"], 3.0)
        self.assertEqual(st["middle"]["self_s"], 4.0)
        self.assertEqual(st["middle"]["calls"], 2)
        self.assertEqual(st["leaf"]["self_s"], 2.0)
        self.assertEqual(self.tracer.self_total(), 9.0)
        self.assertEqual(self.tracer.root_s, 9.0)

    def test_inclusive_counts_reach_every_ancestor(self):
        with spans.instrumented(self.tracer, self.targets):
            self.ns.outer()
        st = self.tracer.stats
        self.assertEqual(st["leaf"]["jet_points"], 6)
        self.assertEqual(st["middle"]["incl_jet_calls"], 2)
        self.assertEqual(st["outer"]["incl_jet_calls"], 2)
        self.assertEqual(st["outer"]["incl_jet_points"], 6)

    def test_wrappers_removed_afterwards(self):
        with spans.instrumented(self.tracer, self.targets):
            self.assertIsNot(self.ns.leaf, self.originals["leaf"])
        self.assertEqual(vars(self.ns), self.originals)

    def test_exception_closes_spans_and_restores(self):
        with self.assertRaises(ValueError):
            with spans.instrumented(self.tracer, self.targets):
                self.ns.failing()
        self.assertEqual(vars(self.ns), self.originals)
        st = self.tracer.stats
        self.assertEqual(st["failing"]["self_s"], 0.5)
        self.assertEqual(st["leaf"]["self_s"], 1.0)
        self.assertEqual(self.tracer.root_s, 1.5)
        # the aborted call left no open span behind
        with spans.instrumented(self.tracer, self.targets):
            self.ns.leaf(0.0, 0.0)
        self.assertEqual(self.tracer.root_s, 2.5)

    def test_missing_target_raises_and_restores(self):
        targets = self.targets + [(self.ns, "moved_away", "moved_away", None)]
        with self.assertRaises(AttributeError):
            with spans.instrumented(self.tracer, targets):
                pass
        self.assertEqual(vars(self.ns), self.originals)

    def test_self_times_plus_remainder_give_wall(self):
        start = self.clock()
        with spans.instrumented(self.tracer, self.targets):
            self.clock.work(0.25)  # caller's own code, outside any span
            self.ns.outer()
            self.ns.leaf(0.0, 0.0)
        wall = self.clock() - start
        remainder = wall - self.tracer.root_s
        self.assertEqual(remainder, 0.25)
        self.assertEqual(self.tracer.self_total() + remainder, wall)


class HostSpeedTest(unittest.TestCase):
    def test_reference_seconds(self):
        import hostspeed

        host = hostspeed.HostSpeed(0.05)
        ref = hostspeed.PROBE_REF_S
        # half the block at reference speed, half at half speed
        host.durations = [ref, 2.0 * ref]
        host.spent = 3.0 * ref
        self.assertAlmostEqual(host.speed(), 0.75)
        self.assertAlmostEqual(host.reference_seconds(1.0 + 3.0 * ref), 0.75)

    def test_timer_samples_and_disarms(self):
        import signal

        import hostspeed

        before = signal.getsignal(signal.SIGALRM)
        with hostspeed.HostSpeed(0.001) as host:
            hostspeed._probe()
            hostspeed._probe()
        self.assertGreater(len(host.durations), 0)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))
        self.assertIs(signal.getsignal(signal.SIGALRM), before)


    def test_premise_problem_reports_threads(self):
        import threading
        import time

        import hostspeed

        def busy_block():
            with hostspeed.HostSpeed(0.001) as host:
                end = time.perf_counter() + 0.05
                while time.perf_counter() < end:
                    hostspeed._probe()
            return host

        host = busy_block()
        self.assertIsNone(host.premise_problem())
        stop = threading.Event()
        worker = threading.Thread(target=stop.wait)
        worker.start()
        try:
            host = busy_block()
        finally:
            stop.set()
            worker.join()
        self.assertIn("threads", host.premise_problem())
        host.max_threads = 1
        host.wall, host.cpu = 1.0, 1.5
        self.assertIn("CPU time", host.premise_problem())


class FrontlabTargetsTest(unittest.TestCase):
    def test_jet_counts_and_restore(self):
        import numpy as np

        import layers
        from frontlab import front, gallery

        originals = [(ns, attr, getattr(ns, attr)) for ns, attr, _, _ in layers.TARGETS]
        f = gallery("cuspidal_parabola")
        tracer = spans.Tracer()
        with spans.instrumented(tracer, layers.TARGETS):
            front.lambda_value(f, 0.1, 0.2)
            f.jets(np.zeros(3), np.zeros((2, 1)), 2, 1)
        for ns, attr, fn in originals:
            self.assertIs(getattr(ns, attr), fn)
        m = layers.layer_metrics(tracer.stats)
        self.assertEqual(m["expr.eval_jet.calls"], 4)
        self.assertEqual(m["expr.eval_jet.scalar_calls"], 2)
        self.assertEqual(m["expr.eval_jet.points"], 2 + 2 * 6)
        self.assertEqual(m["front.lambda_value.calls"], 1)
        self.assertEqual(tracer.stats["front.lambda_value"]["incl_jet_calls"], 2)


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    unittest.main()
