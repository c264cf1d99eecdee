"""Span recording, patching, and self-time arithmetic."""

from __future__ import annotations

import gzip
import json
import types

import pytest

from perfbench.tracer import SPAN_ATTR, Tracer, self_times


def test_self_time_subtracts_children_not_grandchildren():
    #   0 root        [0, 10]
    #   1  child a    [1, 4]
    #   2   grandchild [2, 3]
    #   3  child b    [5, 9]
    parents = [-1, 0, 1, 0]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 9.0]
    assert self_times(parents, starts, ends) == [3.0, 2.0, 1.0, 4.0]


def test_self_time_counts_overlapping_children_once_and_clips_to_parent():
    #   root [0, 10]; children [1, 5] and [3, 7] overlap on [3, 5];
    #   child [8, 12] sticks out of its parent and counts only up to 10.
    parents = [-1, 0, 0, 0]
    starts = [0.0, 1.0, 3.0, 8.0]
    ends = [10.0, 5.0, 7.0, 12.0]
    out = self_times(parents, starts, ends)
    assert out[0] == pytest.approx(10.0 - 6.0 - 2.0)
    assert out[1:] == [4.0, 4.0, 4.0]


def test_self_time_of_a_slice_uses_absolute_parent_ids():
    # Spans 100..102 of a longer trace; parent ids are absolute.
    parents = [-1, 100, 100]
    starts = [0.0, 1.0, 2.0]
    ends = [4.0, 2.0, 3.0]
    assert self_times(parents, starts, ends, offset=100) == [2.0, 1.0, 1.0]


def test_recorded_self_times_add_up_to_the_root():
    tracer = Tracer()
    leaf = tracer.wrap(lambda: sum(range(2000)), "leaf")
    mid = tracer.wrap(lambda: [leaf() for _ in range(3)], "mid")
    lo = tracer.begin_run("r0")
    root = tracer.begin("root")
    mid()
    leaf()
    tracer.finish(root)
    spans = tracer.span_range(lo, len(tracer))
    assert [s[0] for s in spans] == ["root", "mid", "leaf", "leaf", "leaf", "leaf"]
    assert [s[1] for s in spans] == [-1, 0, 1, 1, 1, 0]
    selfs = self_times([s[1] for s in spans], [s[2] for s in spans], [s[3] for s in spans])
    root_wall = spans[0][3] - spans[0][2]
    assert sum(selfs) == pytest.approx(root_wall, rel=1e-9)
    assert all(t >= 0 for t in selfs)


def test_finish_out_of_order_is_an_error():
    tracer = Tracer()
    outer = tracer.begin("outer")
    tracer.begin("inner")
    with pytest.raises(RuntimeError):
        tracer.finish(outer)


def test_wrapped_call_closes_its_span_when_it_raises():
    tracer = Tracer()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.wrap(boom, "boom")()
    assert len(tracer) == 1
    assert tracer.end[0] >= tracer.start[0]
    assert tracer.begin("next") == 1  # the stack is empty again
    assert tracer.parent[1] == -1


def test_patch_and_restore_class_and_module_attributes():
    class Widget:
        def size(self):
            return 3

    module = types.SimpleNamespace(helper=lambda: 7)
    original_size = Widget.__dict__["size"]
    original_helper = module.helper
    tracer = Tracer()
    tracer.patch_span(Widget, "size", "widget.size")
    tracer.patch_span(module, "helper", "module.helper")
    assert getattr(Widget.size, SPAN_ATTR) == "widget.size"
    assert Widget().size() == 3 and module.helper() == 7
    assert [tracer.names[i] for i in tracer.name_id] == ["widget.size", "module.helper"]
    tracer.restore()
    assert Widget.__dict__["size"] is original_size
    assert module.helper is original_helper


def test_spans_are_written_as_gzipped_json_lines(tmp_path):
    tracer = Tracer()
    tracer.begin_run("run-a")
    tracer.wrap(lambda: None, "f")()
    path = tmp_path / "trace.jsonl.gz"
    tracer.write_jsonl_gz(str(path))
    with gzip.open(path, "rt") as handle:
        rows = [json.loads(line) for line in handle]
    assert len(rows) == 1
    assert rows[0]["name"] == "f" and rows[0]["run"] == "run-a" and rows[0]["parent"] == -1
    assert rows[0]["end"] >= rows[0]["start"]
