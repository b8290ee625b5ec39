"""The online query service: arrivals, admission, end-to-end identity.

The service-level contract under test: whatever the arrival order, the
wave composition, or which workers die, every admitted query is
answered exactly once and the concatenated per-query reports are
byte-identical to the serial oracle's.
"""

from __future__ import annotations

import pytest

from repro.obs import EV_QUERY, Tracer
from repro.service import (
    AdmissionScheduler,
    QueryJob,
    ServiceConfig,
    poisson_arrivals,
    run_service,
    trace_arrivals,
)
from repro.simmpi import CrashFault, FaultPlan, ProcessFailure


# ----------------------------------------------------------------------
# arrival generators
# ----------------------------------------------------------------------
class TestArrivals:
    def test_poisson_deterministic(self, small_queries):
        a = poisson_arrivals(small_queries, rate=2.0, seed=5)
        b = poisson_arrivals(small_queries, rate=2.0, seed=5)
        assert a == b
        c = poisson_arrivals(small_queries, rate=2.0, seed=6)
        assert a != c

    def test_poisson_shape(self, small_queries):
        jobs = poisson_arrivals(small_queries, rate=2.0, seed=1)
        assert [j.qid for j in jobs] == list(range(len(small_queries)))
        times = [j.arrival for j in jobs]
        assert times == sorted(times) and times[0] > 0.0
        assert all(j.lane is None for j in jobs)

    def test_poisson_start_offset(self, small_queries):
        jobs = poisson_arrivals(small_queries, rate=2.0, seed=1, start=10.0)
        assert jobs[0].arrival > 10.0

    def test_poisson_bad_rate(self, small_queries):
        with pytest.raises(ValueError, match="rate"):
            poisson_arrivals(small_queries, rate=0.0)

    def test_job_validation(self, small_queries):
        rec = small_queries[0]
        with pytest.raises(ValueError, match="arrival"):
            QueryJob(qid=0, arrival=-1.0, record=rec)
        with pytest.raises(ValueError, match="lane"):
            QueryJob(qid=0, arrival=0.0, record=rec, lane="express")
        job = QueryJob(qid=0, arrival=0.0, record=rec, lane="scan")
        assert job.payload_nbytes() > len(rec.sequence)

    def test_trace_roundtrip(self, small_queries):
        text = (
            "# a comment\n"
            "0.5 1\n"
            "\n"
            "1.25 0 interactive  # pinned lane\n"
            "2.0 3 scan\n"
        )
        jobs = trace_arrivals(text, small_queries)
        assert [(j.arrival, j.qid, j.lane) for j in jobs] == [
            (0.5, 1, None), (1.25, 0, "interactive"), (2.0, 3, "scan"),
        ]
        assert jobs[1].record is small_queries[0]

    @pytest.mark.parametrize(
        "line, err",
        [
            ("0.5", "expected"),
            ("0.5 1 interactive extra", "expected"),
            ("zero 1", "bad arrival"),
            ("0.5 one", "bad arrival"),
            ("-0.5 1", "negative arrival"),
            ("0.5 99", "out of range"),
            ("0.5 1 express", "unknown lane"),
        ],
    )
    def test_trace_errors(self, small_queries, line, err):
        with pytest.raises(ValueError, match=err) as ei:
            trace_arrivals(f"0.1 0\n{line}\n", small_queries)
        assert "line 2" in str(ei.value)

    def test_trace_repeated_index(self, small_queries):
        with pytest.raises(ValueError, match="repeated"):
            trace_arrivals("0.1 2\n0.2 2\n", small_queries)


# ----------------------------------------------------------------------
# admission scheduler
# ----------------------------------------------------------------------
def _job(qid: int, rec, lane=None) -> QueryJob:
    return QueryJob(qid=qid, arrival=0.0, record=rec, lane=lane)


class TestScheduler:
    def test_config_validation(self):
        with pytest.raises(ValueError, match="max_wave"):
            ServiceConfig(max_wave=0)
        with pytest.raises(ValueError, match="admission_delay"):
            ServiceConfig(admission_delay=-0.1)
        with pytest.raises(ValueError, match="max_scan_defer"):
            ServiceConfig(max_scan_defer=0)

    def test_lane_classification(self, small_queries):
        cfg = ServiceConfig(interactive_max_len=len(
            small_queries[0].sequence
        ))
        assert cfg.lane_for(small_queries[0]) == "interactive"
        long_recs = [
            r for r in small_queries
            if len(r.sequence) > cfg.interactive_max_len
        ]
        assert all(cfg.lane_for(r) == "scan" for r in long_recs)

    def test_wave_fills_at_max_wave(self, small_queries):
        s = AdmissionScheduler(ServiceConfig(max_wave=3, admission_delay=9.0))
        for i in range(3):
            s.enqueue(_job(i, small_queries[0], "scan"), now=0.0)
        assert s.wave_ready(0.0)
        wave = s.next_wave(0.0)
        assert [q.job.qid for q in wave] == [0, 1, 2] and s.pending == 0

    def test_wave_departs_at_deadline(self, small_queries):
        s = AdmissionScheduler(ServiceConfig(max_wave=8, admission_delay=0.5))
        s.enqueue(_job(0, small_queries[0], "scan"), now=1.0)
        assert not s.wave_ready(1.0)
        assert s.next_wave(1.2) == []
        assert s.next_deadline() == pytest.approx(1.5)
        assert s.wave_ready(1.5)
        assert [q.job.qid for q in s.next_wave(1.5)] == [0]

    def test_priority_preempts_scans(self, small_queries):
        s = AdmissionScheduler(ServiceConfig(max_wave=2, admission_delay=0.0))
        rec = small_queries[0]
        s.enqueue(_job(0, rec, "scan"), now=0.0)
        s.enqueue(_job(1, rec, "scan"), now=0.1)
        s.enqueue(_job(2, rec, "interactive"), now=0.2)
        wave = s.next_wave(1.0)
        # The later interactive query rides the first wave anyway.
        assert [q.job.qid for q in wave] == [2, 0]

    def test_fifo_without_priority(self, small_queries):
        s = AdmissionScheduler(
            ServiceConfig(max_wave=2, admission_delay=0.0, priority=False)
        )
        rec = small_queries[0]
        s.enqueue(_job(0, rec, "scan"), now=0.0)
        s.enqueue(_job(1, rec, "interactive"), now=0.1)
        s.enqueue(_job(2, rec, "interactive"), now=0.2)
        assert [q.job.qid for q in s.next_wave(1.0)] == [0, 1]
        assert [q.job.qid for q in s.next_wave(1.0)] == [2]

    def test_scan_starvation_bound(self, small_queries):
        """One scan vs an endless interactive stream: the scan departs
        after at most ``max_scan_defer`` bypassing waves."""
        defer = 3
        s = AdmissionScheduler(
            ServiceConfig(max_wave=1, admission_delay=0.0,
                          max_scan_defer=defer)
        )
        rec = small_queries[0]
        s.enqueue(_job(0, rec, "scan"), now=0.0)
        waves = []
        for i in range(1, 10):
            s.enqueue(_job(i, rec, "interactive"), now=float(i))
            waves.append([q.job.qid for q in s.next_wave(100.0)])
            if 0 in waves[-1]:
                break
        # Bypassed by `defer` waves, forced into wave defer+1.
        assert [0] in waves and waves.index([0]) == defer
        assert s.max_deferred_seen == defer


# ----------------------------------------------------------------------
# end-to-end service runs
# ----------------------------------------------------------------------
SERVICE_CFG = ServiceConfig(max_wave=3, admission_delay=0.2)


class TestServiceEndToEnd:
    def test_validation(self, staged, small_queries):
        store, cfg = staged
        jobs = poisson_arrivals(small_queries, rate=2.0, seed=1)
        with pytest.raises(ValueError, match="worker"):
            run_service(1, store, cfg, jobs)
        with pytest.raises(ValueError, match="QueryJob"):
            run_service(4, store, cfg, [])
        with pytest.raises(ValueError, match="duplicate qid"):
            run_service(4, store, cfg, [jobs[0], jobs[0]])

    def test_oracle_identity_and_accounting(
        self, staged, small_queries, serial_reference
    ):
        store, cfg = staged
        jobs = poisson_arrivals(small_queries, rate=5.0, seed=1)
        res = run_service(4, store, cfg, jobs, service=SERVICE_CFG)
        assert res.report == serial_reference
        n = len(small_queries)
        assert res.latency["all"]["count"] == n
        assert res.latency["throughput_qps"] > 0
        assert sorted(r["qid"] for r in res.per_query) == list(range(n))
        assert all(r["latency_s"] >= 0 for r in res.per_query)
        assert all(
            r["completed"] >= r["arrival"] for r in res.per_query
        )
        assert 1 <= res.waves <= n
        gauges = res.result.metrics["global"]["gauges"]
        assert gauges["service.queries"] == n
        assert gauges["service.waves"] == res.waves
        assert gauges["service.p95_s"] >= gauges["service.p50_s"] >= 0

    def test_trace_driven_arrivals(
        self, staged, small_queries, serial_reference
    ):
        store, cfg = staged
        # Reverse arrival order vs qid order: output must still be in
        # qid order (the oracle's).
        lines = [
            f"{0.1 * (len(small_queries) - qid)} {qid}"
            for qid in range(len(small_queries))
        ]
        jobs = trace_arrivals("\n".join(lines), small_queries)
        res = run_service(4, store, cfg, jobs, service=SERVICE_CFG)
        assert res.report == serial_reference

    def test_ev_query_spans(self, staged, small_queries):
        store, cfg = staged
        jobs = poisson_arrivals(small_queries, rate=5.0, seed=1)
        tracer = Tracer()
        res = run_service(4, store, cfg, jobs, service=SERVICE_CFG,
                          tracer=tracer)
        spans = tracer.by_kind(EV_QUERY)
        assert len(spans) == len(small_queries)
        by_arrival = {j.qid: j.arrival for j in jobs}
        for ev in spans:
            lane, qid, wave, nbytes = ev.name, *ev.args
            assert lane in ("interactive", "scan")
            assert ev.t0 == pytest.approx(by_arrival[qid])
            assert ev.t1 >= ev.t0
            assert 1 <= wave <= res.waves and nbytes > 0

    def test_priority_lane_beats_fifo_p95(
        self, staged, small_queries, serial_reference
    ):
        """The acceptance scenario at np=16: same arrivals, priority on
        vs off — the interactive lane's p95 must improve (and both runs
        stay byte-identical to the oracle)."""
        store, cfg = staged
        n = len(small_queries)
        # Burst arrival: everything lands at once, waves of 2, and the
        # three interactive queries are last in FIFO order — priority
        # pulls them into the first waves.
        jobs = [
            QueryJob(qid=i, arrival=0.0, record=small_queries[i],
                     lane="interactive" if i >= n - 3 else "scan")
            for i in range(n)
        ]
        p95 = {}
        for priority in (True, False):
            scfg = ServiceConfig(max_wave=2, admission_delay=0.05,
                                 priority=priority)
            res = run_service(16, store, cfg, jobs, service=scfg)
            assert res.report == serial_reference
            p95[priority] = res.latency["lanes"]["interactive"]["p95_s"]
        assert p95[True] < p95[False]

    def test_worker_death_recovers(
        self, staged, small_queries, serial_reference
    ):
        store, cfg = staged
        jobs = poisson_arrivals(small_queries, rate=5.0, seed=1)
        plan = FaultPlan(events=(CrashFault(rank=2, time=0.3),))
        res = run_service(4, store, cfg, jobs, service=SERVICE_CFG,
                          faults=plan)
        assert res.report == serial_reference
        assert res.result.dead_ranks == (2,)
        rep = res.result.fault_report
        assert rep.count("detect:worker-dead") == 1
        assert rep.count("recover:adopt") == 1


# ----------------------------------------------------------------------
# stale fragment maps fail fast
# ----------------------------------------------------------------------
def _repartition_at(t: float):
    """An out-of-band 'formatdb' that rewrites the volume index at t."""

    def hook(cluster):
        cluster.engine.schedule(
            t,
            lambda: cluster.shared_fs.store.write(
                "nr.xin", 0, b"REPARTITIONED"
            ),
        )

    return hook


class TestStaleFragmentMap:
    def test_service_rejects_repartitioned_db(self, staged, small_queries):
        store, cfg = staged
        jobs = poisson_arrivals(small_queries, rate=2.0, seed=3)
        with pytest.raises(ProcessFailure, match="re-partitioned"):
            run_service(
                4, store, cfg, jobs,
                service=ServiceConfig(max_wave=3, admission_delay=0.1),
                on_cluster=_repartition_at(1.0),
            )


# ----------------------------------------------------------------------
# chaos: service under randomized worker kills (tier 2)
# ----------------------------------------------------------------------
@pytest.mark.chaos
@pytest.mark.parametrize("rank, t", [
    (1, 0.05), (3, 0.2), (2, 0.6), (1, 1.1), (3, 1.7),
])
def test_service_chaos_worker_kill(
    staged, small_queries, serial_reference, rank, t
):
    store, cfg = staged
    jobs = poisson_arrivals(small_queries, rate=5.0, seed=1)
    plan = FaultPlan(events=(CrashFault(rank=rank, time=t),))
    res = run_service(4, store, cfg, jobs, service=SERVICE_CFG, faults=plan)
    assert res.report == serial_reference
    assert sorted(r["qid"] for r in res.per_query) == list(
        range(len(small_queries))
    )
