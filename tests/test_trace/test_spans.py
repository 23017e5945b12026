"""Unit tests for spans, the recorder, and JSONL export."""

import json
import threading

import pytest

from repro.errors import OutOfFuel
from repro.trace import (
    Budget,
    TraceRecorder,
    active_recorder,
    add_counter,
    current_span,
    install,
    recording,
    span,
    uninstall,
)
from repro.trace.spans import _NULL_CM, NULL_SPAN


class TestNoOpPath:
    def test_span_without_recorder_is_the_shared_noop(self):
        assert active_recorder() is None
        cm = span("anything", attr=1)
        assert cm is _NULL_CM
        with cm as sp:
            sp.count("steps")       # all no-ops
            sp.set(x=1)
        assert current_span() is NULL_SPAN
        add_counter("steps")        # no-op, must not raise

    def test_install_uninstall(self):
        rec = TraceRecorder()
        install(rec)
        try:
            assert active_recorder() is rec
            assert span("x") is not _NULL_CM
        finally:
            uninstall()
        assert active_recorder() is None


class TestNesting:
    def test_parent_child_structure(self):
        rec = TraceRecorder()
        with recording(rec):
            with span("outer", db="rado") as outer_sp:
                with span("inner") as inner_sp:
                    inner_sp.count("steps", 3)
                outer_sp.count("oracle_questions", 2)
        trace = rec.trace()
        outer, inner = trace.ordered()
        assert outer.name == "outer"
        assert inner.parent_id == outer.span_id
        assert inner.depth == 1
        assert outer.attrs == {"db": "rado"}
        assert inner.counters == {"steps": 3}
        assert trace.children(outer) == [inner]
        assert trace.roots() == [outer]
        assert trace.counter_total("steps") == 3

    def test_recording_restores_previous(self):
        first = TraceRecorder()
        second = TraceRecorder()
        install(first)
        try:
            with recording(second):
                assert active_recorder() is second
            assert active_recorder() is first
        finally:
            uninstall()

    def test_thread_local_stacks(self):
        rec = TraceRecorder()
        seen = {}

        def worker():
            with span("worker") as sp:
                seen["parent"] = sp.parent_id

        with recording(rec):
            with span("main"):
                t = threading.Thread(target=worker)
                t.start()
                t.join()
        # The worker thread's span does not nest under main's.
        assert seen["parent"] is None


class TestStatusOnDivergence:
    def test_out_of_fuel_sets_machine_readable_status(self):
        rec = TraceRecorder()
        budget = Budget(max_steps=1)
        with recording(rec):
            with pytest.raises(OutOfFuel):
                with span("loop"):
                    budget.charge(2)
        [sp] = rec.trace().ordered()
        assert sp.status == "out_of_fuel"

    def test_cancelled_status(self):
        rec = TraceRecorder()
        budget = Budget()
        budget.cancel()
        with recording(rec):
            with pytest.raises(OutOfFuel):
                with span("loop"):
                    budget.check()
        [sp] = rec.trace().ordered()
        assert sp.status == "cancelled"

    def test_other_exceptions_mark_error(self):
        rec = TraceRecorder()
        with recording(rec):
            with pytest.raises(ValueError):
                with span("boom"):
                    raise ValueError("x")
        [sp] = rec.trace().ordered()
        assert sp.status == "error"


class TestRingBuffer:
    def test_capacity_and_dropped(self):
        rec = TraceRecorder(capacity=2)
        with recording(rec):
            for i in range(5):
                with span(f"s{i}"):
                    pass
        trace = rec.trace()
        assert len(trace) == 2
        assert trace.dropped == 3
        assert [s.name for s in trace.ordered()] == ["s3", "s4"]


class TestJsonl:
    def test_schema(self, tmp_path):
        rec = TraceRecorder()
        with recording(rec):
            with span("outer", db="rado"):
                with span("inner") as sp:
                    sp.count("steps", 7)
        trace = rec.trace()
        lines = trace.to_jsonl().splitlines()
        assert len(lines) == 2
        records = [json.loads(line) for line in lines]
        outer, inner = records           # start order
        for record in records:
            assert set(record) >= {"id", "parent", "depth", "name",
                                   "start_us", "dur_us", "status"}
        assert outer["name"] == "outer"
        assert outer["parent"] is None
        assert outer["start_us"] == 0    # times relative to the epoch
        assert outer["attrs"] == {"db": "rado"}
        assert inner["parent"] == outer["id"]
        assert inner["counters"] == {"steps": 7}

        path = tmp_path / "trace.jsonl"
        trace.write_jsonl(path)
        assert path.read_text().splitlines() == lines

    def test_attrs_coerced_json_safe(self):
        rec = TraceRecorder()
        with recording(rec):
            with span("s", payload=(1, 2)):
                pass
        [record] = [json.loads(line)
                    for line in rec.trace().to_jsonl().splitlines()]
        assert record["attrs"]["payload"] == "(1, 2)"

    def test_format_tree_marks_tripped_spans(self):
        rec = TraceRecorder()
        budget = Budget(max_steps=0)
        with recording(rec):
            with pytest.raises(OutOfFuel):
                with span("outer"):
                    with span("inner"):
                        budget.charge()
        text = rec.trace().format_tree()
        assert "outer" in text and "inner" in text
        assert "[out_of_fuel]" in text


class TestSpanPropagation:
    """Span parentage does not cross threads."""

    def test_unpropagated_thread_spans_are_roots(self):
        """A span opened on a fresh thread roots its own subtree: the
        span stack is thread-local, so the submitting thread's open
        span is not its parent."""
        rec = TraceRecorder()
        with recording(rec):
            with span("submit"):
                def worker():
                    with span("task"):
                        pass
                t = threading.Thread(target=worker)
                t.start()
                t.join()
        submit, task = rec.trace().ordered()
        assert task.parent_id is None
        assert task.depth == 0


class TestRecorderThreadSafety:
    """The locked ring buffer keeps exact accounting under contention."""

    def test_concurrent_recording_accounts_exactly(self):
        rec = TraceRecorder(capacity=64)
        threads, per_thread = 8, 500
        barrier = threading.Barrier(threads)
        errors = []

        def work():
            try:
                barrier.wait()
                for i in range(per_thread):
                    with span("s"):
                        pass
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        with recording(rec):  # installed once; workers only emit spans
            ts = [threading.Thread(target=work) for _ in range(threads)]
            for t in ts:
                t.start()
            for t in ts:
                t.join()
        assert errors == []
        trace = rec.trace()
        assert len(trace) + trace.dropped == threads * per_thread
        assert len(trace) == 64
