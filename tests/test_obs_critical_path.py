"""Makespan attribution and critical path, validated against the
recorder's ground truth on 32-process runs of both drivers."""

from __future__ import annotations

import pytest

from repro.obs import Tracer
from repro.obs.critical_path import (
    CLASSES,
    attribute_makespan,
    breakdown_from_events,
    classify_wait,
    critical_path,
    phase_seconds_from_events,
    render_bottleneck_table,
)
from repro.parallel import bottleneck_table
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


@pytest.fixture(scope="module", params=["pioblast", "mpiblast"])
def traced_run(request):
    t = Tracer()
    r = run(Scenario(request.param, 32, workload=SMALL), t)
    return request.param, r.outcome, r.result


class TestClassify:
    @pytest.mark.parametrize(
        "label,cls",
        [
            ("sleep", "compute"),
            ("xfs:transfer", "io"),
            ("disk3:transfer", "io"),
            ("recv(src=0, tag=3)", "wait"),
            ("recv_timeout(src=-1, tag=40)", "wait"),
            ("probe(src=-1, tag=-1)", "wait"),
            ("irecv(src=2, tag=9)", "wait"),
            ("send(dest=1, tag=4, rendezvous)", "comm"),
            ("unlabelled", "wait"),
        ],
    )
    def test_labels(self, label, cls):
        assert classify_wait(label) == cls


class TestAttribution:
    def test_classes_tile_makespan_exactly(self, traced_run):
        _, _, result = traced_run
        attr = attribute_makespan(
            result.events, result.nprocs, result.makespan
        )
        assert len(attr) == result.nprocs
        for per_rank in attr:
            assert set(per_rank) == set(CLASSES)
            assert sum(per_rank.values()) == pytest.approx(
                result.makespan, rel=1e-9
            )

    def test_search_heavy_runs_are_compute_bound(self, traced_run):
        _, b, result = traced_run
        attr = attribute_makespan(
            result.events, result.nprocs, result.makespan
        )
        compute_max = max(a["compute"] for a in attr)
        # The slowest rank's modelled compute must at least cover the
        # recorder's search phase (search is pure compute).
        assert compute_max >= b.search * 0.99


class TestTable1FromEvents:
    def test_breakdown_within_one_percent(self, traced_run):
        """Acceptance: the event-derived Table-1 reproduces the
        recorder's phase totals within 1% on 32-process runs."""
        program, b, result = traced_run
        evb = breakdown_from_events(
            program, result.events, result.nprocs, result.makespan
        )
        for key in ("copy_input", "search", "output", "other", "total"):
            want = getattr(b, key)
            got = getattr(evb, key)
            assert got == pytest.approx(want, rel=0.01, abs=1e-6), key

    def test_phase_seconds_match_recorder_exactly(self, traced_run):
        _, _, result = traced_run
        acc = phase_seconds_from_events(result.events, result.nprocs)
        for rank in range(result.nprocs):
            want = result.phase_times[rank]
            got = acc[rank]
            assert set(got) == set(want)
            for name, secs in want.items():
                assert got[name] == pytest.approx(secs, rel=1e-9, abs=1e-12)


class TestCriticalPath:
    def test_covers_makespan(self, traced_run):
        _, _, result = traced_run
        cp = critical_path(result.events, result.nprocs, result.makespan)
        assert cp.coverage == pytest.approx(1.0, abs=0.01)

    def test_segments_form_a_chain(self, traced_run):
        _, _, result = traced_run
        cp = critical_path(result.events, result.nprocs, result.makespan)
        assert cp.segments
        for a, b in zip(cp.segments, cp.segments[1:]):
            assert b.t0 == pytest.approx(a.t1, abs=1e-9)
            assert b.t1 >= b.t0
        assert cp.segments[0].t0 == pytest.approx(0.0, abs=1e-9)

    def test_by_class_sums_to_makespan(self, traced_run):
        _, _, result = traced_run
        cp = critical_path(result.events, result.nprocs, result.makespan)
        acc = cp.by_class()
        assert sum(acc.values()) == pytest.approx(result.makespan, rel=1e-6)
        # Blocked waits are never on the path — the walk follows the
        # message edge to the sender instead.
        assert acc["wait"] == pytest.approx(0.0, abs=result.makespan * 0.05)


class TestBottleneckTable:
    def test_renders(self, traced_run):
        _, _, result = traced_run
        text = render_bottleneck_table(
            result.events, result.nprocs, result.makespan
        )
        for cls in CLASSES:
            assert cls in text
        assert "crit-path" in text

    def test_wrapper_requires_events(self):
        result = run(Scenario("pioblast", 4, workload=SMALL)).result
        with pytest.raises(ValueError, match="traced run"):
            bottleneck_table(result)

    def test_wrapper_renders_traced(self):
        t = Tracer()
        result = run(Scenario("pioblast", 4, workload=SMALL), t).result
        assert "Bottleneck attribution" in bottleneck_table(result)
