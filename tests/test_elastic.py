"""Elastic hierarchical service: live traffic through self-healing
replication groups.

Tier 1 pins config/topology algebra, fault-free oracle identity in
both placements, runtime join/drain, whole-group-loss recovery,
SLO-preserving degradation when a fragment slice is permanently lost,
and admission shedding.  The ``chaos`` tier sweeps role kills at
np=64/K=4 under a Poisson stream and carries the hypothesis property
that join/leave schedules never drop or duplicate a query.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.costmodel import CostModel
from repro.hier import (
    ElasticConfig,
    HierConfig,
    build_topology,
    run_hier_service,
)
from repro.parallel import ParallelConfig, stage_inputs
from repro.service import ServiceConfig, poisson_arrivals
from repro.simmpi import FaultPlan, FileStore


def _serve(staged, queries, nprocs=13, ngroups=3, mode="replicate",
           rate=0.5, faults=None, elastic=None, service=None):
    store, cfg = staged
    jobs = poisson_arrivals(queries, rate=rate, seed=0)
    plan = FaultPlan.parse(faults) if faults else None
    sres = run_hier_service(
        nprocs, store, cfg, jobs,
        hier=HierConfig(ngroups=ngroups, mode=mode),
        service=service, elastic=elastic, faults=plan,
    )
    return sres, store, cfg


def _answered_exactly_once(sres, queries):
    """Every admitted query answered once; shed queries accounted."""
    qids = [row["qid"] for row in sres.per_query]
    assert len(qids) == len(set(qids))
    assert sorted(qids) == list(range(len(queries)))
    answered = sum(1 for row in sres.per_query if "completed" in row)
    shed = sum(1 for row in sres.per_query if row.get("shed"))
    assert answered + shed == len(queries)
    assert shed == sres.shed_queries


# ----------------------------------------------------------------------
# config + topology algebra (pure, no simulator)
# ----------------------------------------------------------------------
class TestElasticConfig:
    def test_bad_values_rejected(self):
        with pytest.raises(ValueError, match="size >= 2"):
            ElasticConfig(joins=((1, 5.0),))
        with pytest.raises(ValueError, match="join time"):
            ElasticConfig(joins=((4, -1.0),))
        with pytest.raises(ValueError, match="drain gid"):
            ElasticConfig(drains=((-1, 5.0),))
        with pytest.raises(ValueError, match="drain time"):
            ElasticConfig(drains=((0, -2.0),))
        with pytest.raises(ValueError, match="recovery_attempts"):
            ElasticConfig(recovery_attempts=-1)
        with pytest.raises(ValueError, match="recovery_backoff"):
            ElasticConfig(recovery_backoff=0.0)
        with pytest.raises(ValueError, match="redispatch_timeout"):
            ElasticConfig(redispatch_timeout=0.0)
        with pytest.raises(ValueError, match="redispatch_timeout"):
            ElasticConfig(redispatch_timeout=-5.0)

    def test_defaults_are_valid(self):
        ecfg = ElasticConfig()
        assert ecfg.joins == () and ecfg.drains == ()
        assert ecfg.recovery_attempts >= 1
        assert ecfg.redispatch_timeout is None


class TestTopologyJoins:
    def test_join_groups_reserved_at_top_of_rank_space(self):
        topo = build_topology(17, 3, "replicate", joins=(4,))
        assert topo.latent == (3,)
        assert topo.groups[3].members == (13, 14, 15, 16)
        # Initial groups still tile ranks 1..12 contiguously.
        initial = [r for g in topo.initial_groups for r in g.members]
        assert initial == list(range(1, 13))
        assert [g.gid for g in topo.initial_groups] == [0, 1, 2]

    def test_latent_shard_group_owns_no_fragments_at_launch(self):
        topo = build_topology(17, 3, "shard", joins=(4,))
        assert topo.frag_ids(3) == ()
        # The global fragment space is defined by the initial groups.
        ids = [f for g in topo.initial_groups for f in topo.frag_ids(g.gid)]
        assert ids == list(range(topo.total_fragments))

    def test_join_sizes_validated(self):
        with pytest.raises(ValueError, match="size >= 2"):
            build_topology(17, 3, "replicate", joins=(1,))
        # Reserved ranks count against the floor.
        with pytest.raises(ValueError, match="reserved for joins"):
            build_topology(9, 3, "replicate", joins=(4,))


# ----------------------------------------------------------------------
# driver validation
# ----------------------------------------------------------------------
class TestValidation:
    def test_empty_and_duplicate_jobs_rejected(self, staged, small_queries):
        store, cfg = staged
        with pytest.raises(ValueError, match="at least one"):
            run_hier_service(13, store, cfg, [])
        jobs = poisson_arrivals(small_queries, rate=0.5, seed=0)
        with pytest.raises(ValueError, match="duplicate qid"):
            run_hier_service(13, store, cfg, jobs + [jobs[0]])

    def test_drain_gid_outside_topology_rejected(
        self, staged, small_queries
    ):
        store, cfg = staged
        jobs = poisson_arrivals(small_queries, rate=0.5, seed=0)
        with pytest.raises(ValueError, match="drain gid"):
            run_hier_service(
                13, store, cfg, jobs,
                hier=HierConfig(ngroups=3),
                elastic=ElasticConfig(drains=((7, 5.0),)),
            )


# ----------------------------------------------------------------------
# oracle identity: fault-free, join, drain
# ----------------------------------------------------------------------
class TestOracleIdentity:
    @pytest.mark.parametrize("mode", ["replicate", "shard"])
    def test_fault_free_matches_serial(
        self, staged, small_queries, serial_reference, mode
    ):
        sres, _store, _cfg = _serve(staged, small_queries, mode=mode)
        assert sres.report == serial_reference
        assert sres.degraded_queries == 0 and sres.shed_queries == 0
        _answered_exactly_once(sres, small_queries)

    @pytest.mark.parametrize("mode", ["replicate", "shard"])
    def test_runtime_join_matches_serial(
        self, staged, small_queries, serial_reference, mode
    ):
        sres, _store, _cfg = _serve(
            staged, small_queries, nprocs=17, mode=mode,
            elastic=ElasticConfig(joins=((4, 5.0),)),
        )
        assert sres.report == serial_reference
        assert sres.regroups >= 1  # the join is a regroup event
        _answered_exactly_once(sres, small_queries)

    @pytest.mark.parametrize("mode", ["replicate", "shard"])
    def test_runtime_drain_matches_serial(
        self, staged, small_queries, serial_reference, mode
    ):
        sres, _store, _cfg = _serve(
            staged, small_queries, mode=mode,
            elastic=ElasticConfig(drains=((0, 6.0),)),
        )
        assert sres.report == serial_reference
        assert sres.regroups >= 1
        _answered_exactly_once(sres, small_queries)

    def test_gauges_exported(self, staged, small_queries):
        sres, _store, _cfg = _serve(staged, small_queries)
        gauges = sres.result.metrics["global"]["gauges"]
        assert gauges["hier.ngroups"] == 3
        assert gauges["service.waves"] == sres.waves
        assert gauges["service.degraded_queries"] == 0
        assert gauges["service.shed_queries"] == 0
        assert 0.0 <= gauges["hier.group_coord_wait_share_max"] <= 1.0


# ----------------------------------------------------------------------
# failover domains through the service path
# ----------------------------------------------------------------------
class TestFailover:
    def test_submaster_kill(self, staged, small_queries, serial_reference):
        sres, _store, _cfg = _serve(
            staged, small_queries, faults="crash=submaster:g1@6"
        )
        assert sres.report == serial_reference
        _answered_exactly_once(sres, small_queries)

    def test_coordinator_kill(self, staged, small_queries, serial_reference):
        sres, _store, _cfg = _serve(
            staged, small_queries, faults="crash=coordinator@6"
        )
        assert sres.report == serial_reference
        _answered_exactly_once(sres, small_queries)


# ----------------------------------------------------------------------
# whole-group loss: recovery, re-replication, degradation
# ----------------------------------------------------------------------
class TestGroupLoss:
    def test_replicate_group_kill_recovers(
        self, staged, small_queries, serial_reference
    ):
        # Under replicate, surviving groups hold the whole database —
        # the dead group's waves are simply re-routed.
        sres, _store, _cfg = _serve(
            staged, small_queries, faults="crash=group:g1@6"
        )
        assert sres.report == serial_reference
        assert sres.degraded_queries == 0
        _answered_exactly_once(sres, small_queries)

    def test_shard_group_kill_rereplicates(
        self, staged, small_queries, serial_reference
    ):
        # Under shard, the dead group's fragment slice must be
        # re-replicated from the shared FS onto survivors before the
        # affected waves can finalize — still byte-identical.
        sres, _store, _cfg = _serve(
            staged, small_queries, mode="shard", faults="crash=group:g1@6"
        )
        assert sres.report == serial_reference
        assert sres.degraded_queries == 0
        assert sres.regroups >= 1  # group loss + re-replication span
        _answered_exactly_once(sres, small_queries)

    def test_early_redispatch_is_byte_safe(
        self, staged, small_queries, serial_reference
    ):
        # redispatch_timeout decouples work stealing from death
        # detection: a tiny patience steals the dead group's in-flight
        # wave long before the liveness budget expires, and first-wins
        # dedupe keeps the output byte-identical regardless.
        sres, _store, _cfg = _serve(
            staged, small_queries, faults="crash=group:g1@6",
            elastic=ElasticConfig(redispatch_timeout=20.0),
        )
        assert sres.report == serial_reference
        assert sres.degraded_queries == 0
        _answered_exactly_once(sres, small_queries)

    def test_unrecoverable_loss_degrades_but_completes(
        self, staged, small_queries, serial_reference
    ):
        # recovery_attempts=0 turns the group kill into permanent
        # fragment loss: the run must still complete, with the lost
        # slice accounted per query instead of hanging or crashing.
        sres, _store, _cfg = _serve(
            staged, small_queries, mode="shard", faults="crash=group:g1@6",
            elastic=ElasticConfig(recovery_attempts=0),
        )
        _answered_exactly_once(sres, small_queries)
        assert sres.degraded_queries >= 1
        assert sres.report != serial_reference
        assert sres.result.fault_report.degraded
        topo = sres.topology
        lost = set(topo.frag_ids(1))
        rows = [r for r in sres.per_query if "degraded" in r]
        assert len(rows) == sres.degraded_queries
        for row in rows:
            assert row["degraded"] == "missing-fragments"
            assert set(row["missing"]) <= lost and row["missing"]


# ----------------------------------------------------------------------
# SLO-preserving admission shedding
# ----------------------------------------------------------------------
class TestShedding:
    def test_burst_sheds_at_threshold(self, staged, small_queries):
        sres, _store, _cfg = _serve(
            staged, small_queries, rate=50.0,
            service=ServiceConfig(shed_threshold=4),
        )
        assert sres.shed_queries >= 1
        _answered_exactly_once(sres, small_queries)
        for row in sres.per_query:
            if row.get("shed"):
                assert "completed" not in row and "latency_s" not in row


# ----------------------------------------------------------------------
# chaos tier: np=64/K=4 kill sweep + elastic-schedule property
# ----------------------------------------------------------------------
SERVICE_KILLS = [
    ("replicate", "crash=group:g2@4"),
    ("replicate", "crash=submaster:g0@2,crash=coordinator@6"),
    ("replicate", "crash=group:g1@3,crash=submaster:g3@5"),
    ("shard", "crash=group:g1@4"),
    ("shard", "crash=coordinator@3"),
    ("shard", "crash=submaster:g2@2,crash=group:g0@6"),
]


@pytest.mark.chaos
@pytest.mark.parametrize("mode,faults", SERVICE_KILLS)
def test_chaos_service_kill_sweep(
    staged, small_queries, serial_reference, mode, faults
):
    """np=64, K=4, Poisson stream: every recoverable kill schedule
    leaves the service byte-identical to the oracle with each query
    answered exactly once."""
    sres, _store, _cfg = _serve(
        staged, small_queries, nprocs=64, ngroups=4, mode=mode,
        faults=faults,
    )
    assert sres.report == serial_reference
    assert sres.degraded_queries == 0
    _answered_exactly_once(sres, small_queries)


@pytest.mark.chaos
@given(
    mode=st.sampled_from(["replicate", "shard"]),
    join=st.sampled_from([None, (3, 2.0), (4, 6.0)]),
    drain=st.sampled_from([None, (0, 3.0), (1, 8.0)]),
)
@settings(max_examples=10, deadline=None)
def test_property_join_leave_never_drops_or_duplicates(
    small_db, small_queries, serial_reference, mode, join, drain
):
    """Any join/leave schedule preserves the admitted stream: no query
    dropped, none answered twice, output byte-identical."""
    store = FileStore()
    cfg = ParallelConfig(cost=CostModel())
    cfg = stage_inputs(store, small_db, small_queries, config=cfg,
                       title="test nr")
    ecfg = ElasticConfig(
        joins=(join,) if join else (),
        drains=(drain,) if drain else (),
    )
    nprocs = 13 + (join[0] if join else 0)
    jobs = poisson_arrivals(small_queries, rate=0.5, seed=0)
    sres = run_hier_service(
        nprocs, store, cfg, jobs,
        hier=HierConfig(ngroups=3, mode=mode), elastic=ecfg,
    )
    assert sres.report == serial_reference
    _answered_exactly_once(sres, small_queries)
