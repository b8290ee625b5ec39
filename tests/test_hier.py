"""Two-level replication groups: topology algebra, oracle identity,
hierarchical failover.

Tier 1 covers the topology math, fault-free byte-identity in both
database placements, and one kill per failover domain on a small
cluster (np=13, K=3).  The ``chaos`` tier replays a mixed kill matrix
and the np=256 acceptance points — sub-master and coordinator kills at
the scale the hierarchy exists for (see DESIGN.md).
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.costmodel import CostModel
from repro.experiments.common import (
    PAPER_COSTS,
    ExperimentWorkload,
    run_hier_raw,
    run_hier_service_raw,
)
from repro.hier import HierConfig, build_topology, run_hier
from repro.hier.coordinator import (
    TAG_HIER_REPLY,
    TAG_HIER_REQ,
    run_coordinator,
)
from repro.hier.groupmaster import TAG_GRP_REQ
from repro.obs import Tracer
from repro.obs.events import EV_SEND
from repro.obs.export import run_metrics
from repro.parallel.config import FTParams
from repro.simmpi import FaultPlan, run
from repro.workloads import SynthSpec

#: 90 sequences and 2.5 kB of queries: the replay goldens' workload.
SMALL = ExperimentWorkload(
    db_spec=SynthSpec(num_sequences=90, mean_length=130,
                      family_fraction=0.6, family_size=4, seed=2025),
    query_bytes=2_500,
)
COSTS = {"lab": CostModel(), "paper": PAPER_COSTS}


def _run(staged, nprocs=13, ngroups=3, mode="replicate", faults=None,
         batch_queries=0):
    store, cfg = staged
    plan = FaultPlan.parse(faults) if faults else None
    hres = run_hier(
        nprocs, store, cfg,
        HierConfig(ngroups=ngroups, mode=mode, batch_queries=batch_queries),
        faults=plan,
    )
    return hres, store, cfg


def _events(hres):
    return [ev.kind for ev in hres.result.fault_report.events]


# ----------------------------------------------------------------------
# topology algebra (pure, no simulator)
# ----------------------------------------------------------------------
class TestTopology:
    def test_contiguous_balanced_partition(self):
        topo = build_topology(14, 3, "replicate")
        members = [r for g in topo.groups for r in g.members]
        assert members == list(range(1, 14))
        sizes = [len(g.members) for g in topo.groups]
        assert sizes == [5, 4, 4]  # larger groups first
        assert max(sizes) - min(sizes) <= 1

    def test_submaster_is_lowest_member(self):
        topo = build_topology(13, 3, "replicate")
        for g in topo.groups:
            assert g.submaster == min(g.members)
            assert g.workers == g.members[1:]
            assert g.nfrag == len(g.members) - 1

    def test_group_of(self):
        topo = build_topology(13, 3, "replicate")
        assert topo.group_of(0) is None
        for g in topo.groups:
            for r in g.members:
                assert topo.group_of(r) == g.gid
        with pytest.raises(ValueError):
            topo.group_of(13)

    def test_coordinator_succession_is_live_member_list(self):
        # The live list admits *every* member rank in group order (rank
        # order), so a worker promoted to sub-master mid-run is a
        # coordinator candidate exactly like an original sub-master.
        topo = build_topology(13, 3, "replicate")
        members = tuple(r for g in topo.groups for r in g.members)
        assert topo.coordinator_succession() == (0, *members)
        assert topo.coordinator_succession() == tuple(range(13))
        # Original sub-masters keep their relative order inside it.
        succ = topo.coordinator_succession()
        positions = [succ.index(s) for s in topo.submasters()]
        assert positions == sorted(positions)

    def test_validation(self):
        with pytest.raises(ValueError, match="mode"):
            build_topology(13, 3, "mirror")
        with pytest.raises(ValueError, match="ngroups"):
            build_topology(13, 0, "replicate")
        # 3 groups need coordinator + 3 * (sub-master + worker) = 7.
        with pytest.raises(ValueError, match="at least 7 ranks"):
            build_topology(6, 3, "replicate")
        build_topology(7, 3, "replicate")  # boundary is legal

    def test_replicate_fragment_space_is_group_local(self):
        topo = build_topology(13, 3, "replicate")
        for g in topo.groups:
            assert topo.frag_base(g.gid) == 0
            assert topo.frag_ids(g.gid) == tuple(range(g.nfrag))
            assert topo.group_nfrag_total(g.gid) == g.nfrag
        with pytest.raises(ValueError, match="shard"):
            topo.owner_group(0)

    def test_shard_fragment_slices_partition_global_space(self):
        topo = build_topology(14, 3, "shard")
        ids = [f for g in topo.groups for f in topo.frag_ids(g.gid)]
        assert ids == list(range(topo.total_fragments))
        for g in topo.groups:
            assert topo.group_nfrag_total(g.gid) == topo.total_fragments
            for f in topo.frag_ids(g.gid):
                assert topo.owner_group(f) == g.gid
        with pytest.raises(ValueError, match="no group owns"):
            topo.owner_group(topo.total_fragments)

    def test_role_rank(self):
        topo = build_topology(13, 3, "replicate")
        assert topo.role_rank("coordinator", None) == 0
        for g in topo.groups:
            assert topo.role_rank("submaster", g.gid) == g.submaster
        with pytest.raises(ValueError, match="no group"):
            topo.role_rank("submaster", 3)
        with pytest.raises(ValueError, match="unknown role"):
            topo.role_rank("viceroy", None)

    @given(
        ngroups=st.integers(min_value=1, max_value=12),
        slack=st.integers(min_value=0, max_value=40),
    )
    @settings(max_examples=60, deadline=None)
    def test_partition_properties(self, ngroups, slack):
        nprocs = 2 * ngroups + 1 + slack
        topo = build_topology(nprocs, ngroups, "shard")
        members = [r for g in topo.groups for r in g.members]
        assert members == list(range(1, nprocs))  # exact contiguous cover
        sizes = [len(g.members) for g in topo.groups]
        assert max(sizes) - min(sizes) <= 1
        assert sorted(sizes, reverse=True) == sizes
        assert all(len(g.members) >= 2 for g in topo.groups)
        assert topo.total_fragments == nprocs - 1 - ngroups


# ----------------------------------------------------------------------
# config validation
# ----------------------------------------------------------------------
class TestHierConfig:
    def test_bad_values_rejected(self):
        with pytest.raises(ValueError):
            HierConfig(ngroups=0)
        with pytest.raises(ValueError):
            HierConfig(mode="mirror")
        with pytest.raises(ValueError):
            HierConfig(batch_queries=-1)


# ----------------------------------------------------------------------
# oracle identity (fault-free) + observability wiring
# ----------------------------------------------------------------------
class TestOracleIdentity:
    def test_replicate_matches_serial(self, staged, serial_reference):
        hres, store, cfg = _run(staged, mode="replicate")
        assert store.read(cfg.output_path) == serial_reference
        assert hres.report == serial_reference

    def test_shard_matches_serial(self, staged, serial_reference):
        _hres, store, cfg = _run(staged, mode="shard")
        assert store.read(cfg.output_path) == serial_reference

    def test_explicit_query_batching_matches_serial(
        self, staged, serial_reference
    ):
        _hres, store, cfg = _run(staged, batch_queries=3)
        assert store.read(cfg.output_path) == serial_reference

    def test_hier_gauges_exported(self, staged):
        hres, _store, _cfg = _run(staged, ngroups=3)
        gauges = hres.result.metrics["global"]["gauges"]
        assert gauges["hier.ngroups"] == 3
        assert 0.0 <= gauges["hier.coordinator.wait_share"] <= 1.0
        assert 0.0 <= gauges["hier.group_coord_wait_share_max"] <= 1.0
        for g in hres.topology.groups:
            assert f"hier.group.g{g.gid}.coord_wait_s" in gauges
        # run_metrics lifts hier.* gauges into the bench `hier` section
        # (prefix stripped) that repro.obs.compare diffs.
        section = run_metrics(hres.result, program="hier")["hier"]
        assert section["ngroups"] == 3
        assert "group_coord_wait_share_max" in section

    @pytest.mark.parametrize("mode", ["replicate", "shard"])
    def test_held_members_are_not_declared_dead(self, staged, mode):
        """An idle member's poll is held by its sub-master and sends
        nothing meanwhile; the hold expires long before the silence
        threshold, so a fault-free run never suspects a live member."""
        hres, _store, _cfg = _run(staged, mode=mode)
        assert "detect:worker-dead" not in _events(hres)

    def test_held_polls_are_not_coordinator_wait(self):
        """The coordinator holds a group's poll while no command
        exists for it — for most of a fault-free run — and those
        seconds are idle time, not coordinator wait: the headline share
        stays under the 0.001 the README claims."""
        hres, _store, _cfg = run_hier_raw(13, SMALL, ngroups=3)
        metrics = hres.result.metrics["global"]
        held = [
            metrics["counters"].get(f"hier.group.g{g.gid}.held_s", 0.0)
            for g in hres.topology.groups
        ]
        assert max(held) > 0.1 * hres.result.makespan
        assert metrics["gauges"]["hier.group_coord_wait_share_max"] < 0.001

    @pytest.mark.parametrize("costs", sorted(COSTS))
    @pytest.mark.parametrize("driver", ["replicate", "shard", "elastic"])
    def test_fault_free_runs_suspect_nobody(self, driver, costs):
        """Heartbeats go out once per ``failover_silence / 4`` and idle
        polls are held at both levels; nobody healthy looks dead, under
        the laboratory costs and under the paper's (where the silence
        is 1 900 s and a hold lasts ``req_timeout / 2`` = 118.75 s)."""
        wl = replace(SMALL, cost=COSTS[costs])
        if driver == "elastic":
            hres, _store, _cfg = run_hier_service_raw(
                17, wl, ngroups=3, rate=2.0
            )
        else:
            hres, _store, _cfg = run_hier_raw(13, wl, ngroups=3, mode=driver)
        suspected = {
            "detect:master-dead", "detect:worker-dead", "detect:group-dead",
        }
        assert suspected.isdisjoint(_events(hres))


# ----------------------------------------------------------------------
# failover domains (one kill each, small cluster)
# ----------------------------------------------------------------------
class TestFailover:
    def test_submaster_kill_stays_in_group(self, staged, serial_reference):
        # Kill early enough that the group still holds unfinished work,
        # so a member must actually promote (a late kill can be absorbed
        # by the coordinator redispatching the dead group's batches).
        hres, store, cfg = _run(staged, faults="crash=submaster:g1@0.2")
        assert store.read(cfg.output_path) == serial_reference
        kinds = _events(hres)
        assert "recover:promote-submaster" in kinds
        # Group-local failover: the coordinator never has to change.
        assert "recover:promote-coordinator" not in kinds

    def test_coordinator_kill_promotes_submaster(
        self, staged, serial_reference
    ):
        # Crash before the coordinator's last command: fault-free, this
        # run hands out its writes at 0.2 / 0.3 s and "done" at 0.4 s,
        # then lingers to 1.65 s — a crash after 0.4 s needs nobody.
        hres, store, cfg = _run(staged, faults="crash=coordinator@0.2")
        assert store.read(cfg.output_path) == serial_reference
        assert "recover:promote-coordinator" in _events(hres)

    def test_worker_kill(self, staged, serial_reference):
        _hres, store, cfg = _run(staged, faults="kill=6@0.3")
        assert store.read(cfg.output_path) == serial_reference

    def test_guessing_members_resend_when_the_successor_announces(self):
        """Sub-master 5 dies at 20 s.  Members 8 and 7 run out of
        patience first and advance to rank 6 by guess while 6 is still
        a member, so 6 drops what they send it.  When 6 promotes and
        announces itself, both send their request again at once — not
        at their resend deadline, ``req_timeout`` (237.5 s) later."""
        tracer = Tracer()
        hres, _store, _cfg = run_hier_raw(
            13, SMALL, ngroups=3,
            faults=FaultPlan.parse("crash=submaster:g1@20"), tracer=tracer,
        )
        events = hres.result.fault_report.events
        (promo,) = [e for e in events if e.kind == "recover:promote-submaster"]
        _gid, successor = promo.detail
        guessed = sorted(
            e.detail[1] for e in events
            if e.kind == "detect:master-dead" and e.detail[1] != successor
        )
        assert guessed == [7, 8]
        for member in guessed:
            resent = min(
                e.t0 for e in tracer.events
                if e.kind == EV_SEND and e.rank == member
                and e.args[:2] == (successor, TAG_GRP_REQ)
                and e.t0 >= promo.time
            )
            assert resent - promo.time < 0.01
        req_timeout = FTParams.for_cost(PAPER_COSTS).req_timeout
        assert req_timeout == 237.5
        assert hres.result.makespan < promo.time + req_timeout

    def test_superseded_poll_command_is_offered_again(self, staged):
        """The coordinator's side of the supersede rule.  A sub-master
        whose work poll is superseded by a newer ``seq`` never reads
        the answer to the old one; whatever ``batch`` or ``write`` that
        answer carried stays assigned to the group and is the answer to
        its next poll.  Rank 1 plays group 0's sub-master by hand and
        sends every poll twice before reading."""
        store, cfg = staged
        topo = build_topology(5, 2, "replicate")
        hcfg = HierConfig(ngroups=2, mode="replicate")
        pairs = []

        def prog(ctx):
            if ctx.rank == 0:
                return run_coordinator(ctx, cfg, hcfg, topo)
            if ctx.rank != 1:
                return None
            comm, seq = ctx.comm, 0

            def call(kind, data):
                nonlocal seq
                seq += 1
                comm.isend((1, seq, kind, data), dest=0, tag=TAG_HIER_REQ)
                while True:
                    rseq, body = comm.recv(source=0, tag=TAG_HIER_REPLY)
                    if rseq == seq:
                        return body
                    superseded.append(body)

            while True:
                superseded = []
                seq += 1  # a poll nobody reads: superseded by the next
                comm.isend((1, seq, "work", (0, 2)), dest=0, tag=TAG_HIER_REQ)
                kind, data = call("work", (0, 2))
                pairs.append((superseded, (kind, data)))
                if kind == "done":
                    return None
                if kind == "batch":
                    b, jobs = data
                    call("result", (0, b, {qi: 100 for qi, _rec in jobs}))
                else:
                    b, _jobs, _writes, epoch = data
                    call("wrote", (0, b, epoch))

        run(5, prog, shared_store=store)
        kinds = [answer[0] for _old, answer in pairs]
        assert kinds.count("batch") >= 2 and kinds.count("write") >= 2
        assert kinds[-1] == "done"
        for superseded, answer in pairs:
            assert superseded == [answer]


# ----------------------------------------------------------------------
# chaos tier: mixed kill matrix + the np=256 acceptance points
# ----------------------------------------------------------------------
KILL_MATRIX = [
    ("replicate", "crash=coordinator@0.5,crash=submaster:g1@1.0"),
    ("replicate", "crash=submaster:g0@0.3,crash=submaster:g2@0.9"),
    ("replicate", "kill=2@0.2,kill=3@0.4,kill=4@0.6"),
    ("replicate", "crash=coordinator@2.0,crash=submaster:g0@2.1"),
    ("replicate", "kill=5@0.2,crash=submaster:g1@0.5,crash=coordinator@1.0"),
    ("shard", "crash=coordinator@0.5"),
    ("shard", "crash=submaster:g1@0.8"),
    ("shard", "crash=coordinator@1.5,kill=10@0.4"),
]


@pytest.mark.chaos
@pytest.mark.parametrize("mode,faults", KILL_MATRIX)
def test_chaos_kill_matrix(staged, serial_reference, mode, faults):
    _hres, store, cfg = _run(staged, mode=mode, faults=faults)
    assert store.read(cfg.output_path) == serial_reference


@pytest.mark.chaos
@pytest.mark.parametrize(
    "faults", [None, "crash=submaster:g5@2.0", "crash=coordinator@3.0"]
)
def test_chaos_np256(staged, serial_reference, faults):
    """The acceptance scale: 255 ranks in 16 groups, byte-identical to
    the oracle with and without role kills."""
    _hres, store, cfg = _run(
        staged, nprocs=256, ngroups=16, faults=faults
    )
    assert store.read(cfg.output_path) == serial_reference
