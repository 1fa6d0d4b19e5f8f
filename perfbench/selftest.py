"""Self-test of the tracing harness on a synthetic call tree.

Checks span nesting, self-time and busy-time arithmetic, that wrappers
come off again, and that sefrag carries no wrapper outside a traced
phase. Traced benchmark runs execute it first; on its own:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import io
import json
import sys
import unittest
from pathlib import Path

from spans import Boundary, Tracer, busy, descendants, self_times, wrapped


class FakeClock:
    """Advances by one tick per reading, plus whatever ``work`` adds."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now

    def work(self, ticks: float):
        self.now += ticks


class Tree:
    """outer -> (inner -> leaf, inner -> leaf, leaf); leaf raises on demand."""

    clock: FakeClock

    @classmethod
    def outer(cls):
        cls.clock.work(10)
        cls.inner()
        cls.inner()
        cls.leaf()
        cls.clock.work(5)

    @classmethod
    def inner(cls):
        cls.clock.work(3)
        cls.leaf()

    @classmethod
    def leaf(cls, fail: bool = False):
        cls.clock.work(2)
        if fail:
            raise KeyError("leaf")


TREE = [Boundary(Tree, name, name) for name in ("outer", "inner", "leaf")]


class SpanArithmetic(unittest.TestCase):
    def setUp(self):
        Tree.clock = FakeClock()
        self.tracer = Tracer(clock=Tree.clock)

    def test_nesting_and_self_time(self):
        with self.tracer.installed(TREE):
            self.tracer.op = 7
            Tree.outer()
        spans = self.tracer.spans
        self.assertEqual([s.name for s in spans],
                         ["outer", "inner", "leaf", "inner", "leaf", "leaf"])
        outer, inner1, leaf1, inner2, leaf2, leaf3 = spans
        self.assertEqual([s.parent for s in spans], [None, 0, 1, 0, 3, 0])
        self.assertTrue(all(s.op == 7 for s in spans))
        # Each clock reading adds 1: a leaf lasts 2 + 1 = 3 and an inner
        # 3 + 1 (leaf opens) + 3 (leaf) + 1 (inner closes) = 8.
        self.assertEqual(leaf1.duration, 3)
        self.assertEqual(inner1.duration, 8)
        self.assertEqual(outer.duration, 38)
        selfs = self_times(spans)
        self.assertEqual(selfs[leaf1.id], 3)
        self.assertEqual(selfs[inner1.id], 8 - 3)
        self.assertEqual(selfs[outer.id], 38 - 8 - 8 - 3)
        self.assertEqual(sum(selfs.values()), outer.duration)
        self.assertEqual(len(descendants(spans, outer)), 5)
        self.assertEqual(busy(spans, lambda s: s.name == "leaf"), 9)
        self.assertEqual(busy(spans, lambda s: s.name in ("inner", "leaf")), 8 + 8 + 3)

    def test_overlapping_children_are_counted_once(self):
        self.tracer.op = 0
        with self.tracer.span("parent") as parent:
            pass
        parent.start, parent.end = 0.0, 10.0
        for start, end in ((1.0, 4.0), (3.0, 6.0), (8.0, 12.0)):
            with self.tracer.span("child") as child:
                pass
            child.parent, child.start, child.end = parent.id, start, end
        self.assertEqual(self_times(self.tracer.spans)[parent.id], 10 - 5 - 2)

    def test_failure_is_tagged_and_reraised(self):
        with self.tracer.installed(TREE):
            with self.assertRaises(KeyError):
                Tree.leaf(fail=True)
        self.assertTrue(self.tracer.spans[0].tags["failed"])

    def test_wrappers_are_removed(self):
        originals = {b.attr: vars(Tree)[b.attr] for b in TREE}
        with self.tracer.installed(TREE):
            self.assertEqual(wrapped(TREE), ["outer", "inner", "leaf"])
            with self.assertRaises(RuntimeError):
                Tracer().install(TREE)
        self.assertEqual(wrapped(TREE), [])
        self.assertEqual({b.attr: vars(Tree)[b.attr] for b in TREE}, originals)

    def test_adopted_spans_hang_under_their_parent(self):
        child = Tracer(clock=Tree.clock)
        with child.installed(TREE):
            Tree.inner()
        self.tracer.op = 3
        with self.tracer.span("process") as parent:
            pass
        self.tracer.adopt(child.dump(), parent)
        adopted = self.tracer.spans[1:]
        self.assertEqual([(s.name, s.parent, s.op) for s in adopted],
                         [("inner", parent.id, 3), ("leaf", adopted[0].id, 3)])


class SefragLayers(unittest.TestCase):
    def test_no_wrapper_outside_a_traced_phase(self):
        import layers

        self.assertEqual(wrapped(layers.boundaries()), [])

    def test_benchmark_json_lists_every_layer_metric(self):
        import layers

        declared = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
        self.assertEqual(declared["per_layer"],
                         [{"name": m.name, "unit": m.unit, "better": m.better}
                          for m in layers.METRICS])


def failures() -> list[str]:
    """Run the self-test quietly; returns the ids of failing tests."""
    suite = unittest.defaultTestLoader.loadTestsFromModule(sys.modules[__name__])
    result = unittest.TextTestRunner(stream=io.StringIO(), verbosity=0).run(suite)
    return [test.id() for test, _ in result.failures + result.errors]


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    unittest.main()
