"""The event tracer: zero-impact when disabled, deterministic when on."""

from __future__ import annotations

import pytest

from repro.obs import (
    EV_FAULT,
    EV_PHASE,
    EV_RECV,
    EV_SEND,
    EV_WAIT,
    SPAN_KINDS,
    Event,
    Tracer,
)
from repro.scenario import ExperimentWorkload, Scenario, run
from repro.workloads import SynthSpec

SMALL = ExperimentWorkload(
    db_spec=SynthSpec(
        num_sequences=90,
        mean_length=140,
        family_fraction=0.6,
        family_size=5,
        seed=7,
    ),
    query_bytes=1800,
)
PIO4 = Scenario("pioblast", 4, workload=SMALL)


class TestTracerUnit:
    def test_span_and_instant(self):
        t = Tracer()
        t.span(EV_WAIT, 0, 1.0, 2.5, "sleep")
        t.instant(EV_SEND, 1, 3.0, "send", 2, 5, 100)
        assert len(t) == 2
        sp, inst = t.events
        assert sp.is_span and sp.duration == pytest.approx(1.5)
        assert not inst.is_span and inst.t0 == inst.t1 == 3.0
        assert inst.args == (2, 5, 100)

    def test_filters(self):
        t = Tracer()
        t.span(EV_WAIT, 0, 0.0, 1.0, "sleep")
        t.instant(EV_SEND, 1, 1.0, "send")
        assert [e.kind for e in t.by_kind(EV_WAIT)] == [EV_WAIT]
        assert [e.rank for e in t.for_rank(1)] == [1]
        assert len(t.spans()) == 1

    def test_as_tuple_rounds(self):
        e = Event(EV_WAIT, 0, 0.1234567894, 1.0, "x", (1,))
        assert e.as_tuple()[0] == 0.123456789


class TestDisabledTracing:
    """Tracing off must change nothing and cost (almost) nothing."""

    def test_untraced_run_has_no_events_but_metrics(self):
        result = run(PIO4).result
        assert result.events is None
        assert result.metrics is not None
        assert result.metrics["totals"]["msgs_sent"] > 0

    def test_traced_and_untraced_runs_identical(self):
        plain, traced = run(PIO4), run(PIO4, Tracer())
        assert plain.result.makespan == traced.result.makespan
        assert plain.result.phase_times == traced.result.phase_times
        # Byte-identical report output.
        assert plain.output == traced.output
        assert traced.result.events, "traced run must produce events"


class TestDeterminism:
    def test_same_seed_same_event_stream(self):
        streams = []
        for _ in range(2):
            t = Tracer()
            run(PIO4, t)
            streams.append(t.as_tuples())
        assert streams[0] == streams[1]

    def test_same_fault_plan_same_event_stream(self):
        faulty = Scenario("pioblast", 4, workload=SMALL,
                          faults="seed=3,kill=2@0.05,slowdisk=0.3x0.5@0.1")
        streams = []
        for _ in range(2):
            t = Tracer()
            run(faulty, t)
            streams.append(t.as_tuples())
        assert streams[0] == streams[1]
        kinds = {s[3] for s in streams[0]}
        assert EV_FAULT in kinds, "fault events must appear in the trace"


class TestEventStream:
    @pytest.fixture(scope="class")
    def traced(self):
        t = Tracer()
        return t, run(PIO4, t).result

    def test_expected_kinds_present(self, traced):
        t, _ = traced
        kinds = {e.kind for e in t.events}
        for k in (EV_WAIT, EV_PHASE, EV_SEND, EV_RECV, "io", "comm.coll"):
            assert k in kinds, f"missing event kind {k}"

    def test_spans_well_formed(self, traced):
        t, result = traced
        for e in t.events:
            assert e.t1 >= e.t0 >= 0.0
            assert e.t1 <= result.makespan + 1e-9
            if e.kind in SPAN_KINDS:
                assert e.rank >= 0, "spans always belong to a rank"

    def test_wait_spans_tile_each_rank(self, traced):
        """Virtual time only advances while parked: per rank the wait
        spans are contiguous from 0 to the rank's last park."""
        t, _ = traced
        for rank in range(4):
            spans = [e for e in t.for_rank(rank) if e.kind == EV_WAIT]
            spans.sort(key=lambda e: e.t0)
            assert spans and spans[0].t0 == pytest.approx(0.0, abs=1e-9)
            for a, b in zip(spans, spans[1:]):
                assert b.t0 == pytest.approx(a.t1, abs=1e-9)

    def test_send_recv_message_ids_match(self, traced):
        t, _ = traced
        sends = {e.args[3] for e in t.by_kind(EV_SEND) if not e.args[4]}
        recvs = {e.args[3] for e in t.by_kind(EV_RECV)}
        assert recvs, "no receives traced"
        assert recvs <= sends, "every received mid must have been sent"

    def test_wait_metric_matches_spans(self, traced):
        t, result = traced
        for rank in range(4):
            span_sum = sum(
                e.duration for e in t.for_rank(rank) if e.kind == EV_WAIT
            )
            counted = result.metrics["per_rank"][rank]["counters"].get(
                "wait_s", 0.0
            )
            assert counted == pytest.approx(span_sum, rel=1e-9)
