"""Span arithmetic: self time, coverage and the wrappers that record."""

import pytest

import tracing
from tracing import Span, Tracer


def span(name, start, end, parent=-1):
    return Span(name, start, end, parent=parent)


def test_union_merges_overlaps_and_clips():
    assert tracing.union_length([(0, 2), (1, 3), (5, 6)]) == 4
    assert tracing.union_length([(0, 2), (1, 3)], lo=1, hi=2.5) == 1.5
    assert tracing.union_length([]) == 0
    assert tracing.union_length([(3, 1)]) == 0


def test_self_time_subtracts_children_once():
    spans = [span("root", 0, 10),
             span("a", 1, 4, parent=0),
             span("b", 3, 6, parent=0),      # overlaps a: covered once
             span("leaf", 1.5, 2.5, parent=1)]
    selfs = tracing.self_times(spans)
    assert selfs == pytest.approx([5.0, 2.0, 3.0, 1.0])


def test_self_times_of_a_serial_tree_add_up_to_the_root():
    spans = [span("root", 0, 10), span("a", 1, 4, parent=0),
             span("b", 4, 6, parent=0), span("leaf", 2, 3, parent=1)]
    assert sum(tracing.self_times(spans)) == pytest.approx(10.0)


def test_child_outside_parent_is_clipped():
    spans = [span("root", 0, 2), span("late", 1, 5, parent=0)]
    assert tracing.self_times(spans)[0] == pytest.approx(1.0)


def test_descendants_covered_stops_at_first_match():
    spans = [span("batch", 0, 10),
             span("engine", 1, 4, parent=0),
             span("engine", 2, 3, parent=1),   # inside a match: not re-added
             span("other", 5, 9, parent=0),
             span("engine", 6, 7, parent=3)]
    covered = tracing.descendants_covered(
        spans, 0, lambda s: s.name == "engine")
    assert covered == pytest.approx(4.0)


def test_timed_coverage_is_share_of_window():
    spans = [span("a", 0, 4), span("b", 2, 6), span("c", 8, 9)]
    assert tracing.timed_coverage(spans, [(0, 10)]) == pytest.approx(0.7)
    assert tracing.timed_coverage(spans, [(0, 4), (7, 9)]) == \
        pytest.approx(5 / 6)
    assert tracing.timed_coverage(spans, [(5, 5)]) == 0.0


def test_inner_coverage_leaves_out_the_sweep_wrappers():
    spans = [span("runtime.run_suite_batch", 0, 10),
             span("runtime.resilience.batch", 0.5, 9.5, parent=0),
             span("core.engine.dual.nls", 1, 7, parent=1),
             span("workloads.load_fetch_input", 8, 9, parent=1)]
    assert tracing.timed_coverage(spans, [(0, 10)]) == pytest.approx(1.0)
    assert tracing.inner_coverage(spans, [(0, 10)]) == pytest.approx(0.7)


class Toy:
    def outer(self, n):
        return self.inner(n) + 1

    def inner(self, n):
        return n * 2


def test_wrappers_nest_inherit_ident_and_uninstall():
    originals = dict(Toy.__dict__)
    tracer = Tracer()
    tracer.wrap(Toy, "outer", "toy.outer", ident=lambda self, n: f"n{n}")
    tracer.wrap(Toy, "inner", "toy.inner",
                after=lambda s, result: s.attrs.update(result=result))
    assert Toy().outer(3) == 7
    outer, inner = tracer.spans
    assert (outer.name, outer.parent, outer.ident) == ("toy.outer", -1, "n3")
    assert (inner.name, inner.parent, inner.ident) == ("toy.inner", 0, "n3")
    assert inner.attrs == {"result": 6}
    assert outer.start <= inner.start <= inner.end <= outer.end
    tracer.uninstall()
    assert Toy.__dict__["outer"] is originals["outer"]
    assert Toy.__dict__["inner"] is originals["inner"]
    Toy().outer(1)
    assert len(tracer.spans) == 2


def test_layer_metrics_sum_self_times():
    spans = [Span("workloads.load_fetch_input", 0, 4, ident="gcc"),
             Span("cpu.capture", 1, 3, parent=0, ident="gcc",
                  attrs={"instructions": 2_000_000}),
             Span("runtime.run_suite_batch", 5, 10),
             Span("core.engine.dual.nls", 6, 8, parent=2,
                  attrs={"instructions": 1_000_000})]
    layers = tracing.layer_metrics(spans, {"gcc": "int"})
    assert layers["workloads.load_fetch_input_s"] == pytest.approx(2.0)
    assert layers["cpu.capture_s"] == pytest.approx(2.0)
    assert layers["cpu.capture_s.int"] == pytest.approx(2.0)
    assert layers["cpu.capture_s.fp"] == 0
    assert layers["cpu.minstr_per_s"] == pytest.approx(1.0)
    assert layers["core.engine_s.dual.nls"] == pytest.approx(2.0)
    assert layers["core.engine_minstr_per_s.dual.nls"] == pytest.approx(0.5)
    assert layers["runtime.sweep_overhead_s"] == pytest.approx(3.0)
