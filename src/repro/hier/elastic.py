"""Elastic, self-healing replication groups serving live traffic.

This module marries the online query service (:mod:`repro.service`)
to the two-level hierarchy (:mod:`repro.hier`): the coordinator
becomes an **admission front-end** — it runs the
:class:`~repro.service.scheduler.AdmissionScheduler` (interactive
lane, scan lane, starvation bound) and routes each departing wave to a
replication group as a ``serve`` command — while the group layer
becomes **elastic**:

- **join** — rank sets reserved at build time
  (``build_topology(..., joins=...)``) sleep until their scheduled
  join instant, then enter the cluster: under ``replicate`` a join
  group serves immediately from its own whole-database partition;
  under ``shard`` the coordinator assigns it the least-covered
  fragment slice via a ``load`` command and admits it to the routing
  table once the group acknowledges the warm-load.
- **drain** — a scheduled drain lets the group finish its in-flight
  obligations (and, under ``shard``, re-homes any fragment slice it
  uniquely covers), then releases it from the routing table with a
  ``done``.
- **group-loss recovery** — a group silent past its budget is declared
  dead and its unanswered wave parts re-placed on the survivors.
  Under ``shard``, fragment ids left without a serving holder are
  re-replicated from the shared filesystem: the coordinator probes the
  fragment's volume files (transient IO faults retried), then commands
  the least-loaded surviving group to adopt the slice.  Each fragment
  gets a bounded recovery budget (``ElasticConfig.recovery_attempts``
  probes with multiplicative backoff); exhausting it declares the
  slice permanently lost.
- **graceful degradation** — permanently lost fragments never stall
  the service: affected waves shed the lost ids and finalize from the
  surviving candidates, and every affected query's accounting row
  carries ``degraded="missing-fragments"`` plus the missing id list.
  Load is shed at admission once the queue passes
  ``ServiceConfig.shed_threshold`` (shed queries are accounted, not
  searched).  Even with *every* group dead or drained the coordinator
  keeps answering — forced waves finalize with whatever candidates
  arrived (possibly none).

Protocol: the groups speak the unmodified hierarchical pull protocol
(:mod:`repro.hier.groupmaster`) — the coordinator merely answers
``work`` polls with ``serve``/``load``/``wait``/``done`` instead of
``batch``/``write``.  A ``serve`` batch is keyed ``(wid, pid)``
(epoch-unique wave id, part id); groups return the selected metas
*with* their rendered blocks, the coordinator dedupes by
``(owner_rank, local_id)`` (cross-group duplicates are byte-identical
by the warm-db determinism argument), re-selects globally, and renders
the per-query section.  When no fragment is permanently lost the
written report is byte-identical to the serial oracle under any kill
schedule — including whole-group kills — exactly like the batch
drivers.

Failover parity with :mod:`repro.hier.coordinator`: the same
checkpoint subdirectory, done-marker tombstone, live succession list,
promotion announcement and monotone abdication rule, so a coordinator
kill mid-stream promotes the lowest surviving member, which restores
the answered-query ledger and re-admits the rest.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any

from repro.blast.engine import BlastSearch
from repro.obs.events import EV_QUERY, EV_REGROUP
from repro.obs.latency import flatten_latency, latency_summary
from repro.parallel.checkpoint import CheckpointStore
from repro.parallel.common import (
    footer_bytes_for,
    header_bytes_for,
    reliable_read,
    reliable_write,
    write_output,
    writer_for,
)
from repro.parallel.config import ParallelConfig, ft_for_cost
from repro.parallel.pullrpc import HIER, Heartbeat, LivenessTable, PullServer
from repro.parallel.results import dedupe_candidates, select_metas
from repro.parallel.warmdb import partition_database
from repro.service.arrivals import QueryJob
from repro.service.scheduler import AdmissionScheduler, ServiceConfig
from repro.simmpi import FileStore, PlatformSpec, ProcContext, RunResult
from repro.simmpi.faults import FaultPlan, TransientIOError
from repro.simmpi.launcher import run

from repro.hier.coordinator import (
    COORD_CKPT_SUBDIR,
    TAG_HIER_PING,
    _group_budget,
    begin_coordinator,
    done_marker_path,
)
from repro.hier.groupmaster import run_group_master, run_group_member
from repro.hier.topology import (
    ElasticConfig,
    HierConfig,
    HierTopology,
    build_topology,
)


class _Part:
    """One group-sized slice of a wave's fragment coverage.

    ``fids is None`` under ``replicate`` (any group answers the whole
    wave from its own whole-database partition); under ``shard`` a
    part's ids must be jointly covered by the serving group.
    """

    __slots__ = ("pid", "fids")

    def __init__(self, pid: int, fids: set[int] | None) -> None:
        self.pid = pid
        self.fids = fids


class _Wave:
    """One departed admission wave moving through the groups."""

    __slots__ = (
        "wid", "no", "queue", "parts", "got", "pending_fids", "next_pid",
        "t0", "lost", "forced",
    )

    def __init__(self, wid: int, no: int, queue: list, t0: float) -> None:
        self.wid = wid
        self.no = no
        self.queue = queue  # [QueuedJob, ...]
        self.parts: dict[int, _Part] = {}
        self.got: dict[int, dict[int, list]] = {}  # pid -> {qid: pairs}
        self.pending_fids: set[int] = set()  # uncovered, awaiting recovery
        self.next_pid = 0
        self.t0 = t0
        self.lost: set[int] = set()  # fids this wave gave up on
        self.forced = False  # finalize with whatever arrived


# ----------------------------------------------------------------------
# coordinator (admission front-end + elastic group manager)
# ----------------------------------------------------------------------
def _serve_coordinator(
    ctx: ProcContext,
    cfg: ParallelConfig,
    hcfg,
    scfg: ServiceConfig,
    ecfg: ElasticConfig,
    topo: HierTopology,
    jobs: tuple[QueryJob, ...],
    join_times: dict[int, float],
    *,
    promoted: bool = False,
):
    cost, ft = cfg.cost, cfg.ft
    sim = ctx.engine
    report = ctx.fault_report
    metrics = ctx.cluster.metrics
    tracer = ctx.cluster.tracer
    me = ctx.rank
    mode = topo.mode
    out = cfg.output_path
    group_budget = _group_budget(ft, topo)
    steal_after = (
        ecfg.redispatch_timeout
        if ecfg.redispatch_timeout is not None
        else group_budget
    )
    drain_time = {gid: t for gid, t in ecfg.drains}
    ckpt = CheckpointStore(
        ctx, f"{cfg.checkpoint_dir}/{COORD_CKPT_SUBDIR}",
        interval=cfg.checkpoint_interval, io_attempts=ft.io_attempts,
    )
    marker = done_marker_path(cfg)

    def snap_result(snap: dict) -> dict:
        """Rebuild the service accounting from a checkpoint snapshot
        (used when a successor finds the run already finished)."""
        samples = {k: list(v) for k, v in snap["samples"].items()}
        rows = sorted(snap["per_query"], key=lambda r: r["qid"])
        done = [r["completed"] for r in rows if "completed" in r]
        arr = [r["arrival"] for r in rows]
        span = max(0.0, max(done, default=0.0) - min(arr, default=0.0))
        return {
            "latency": latency_summary(samples, span),
            "per_query": rows,
            "waves": snap["nwaves"],
            "degraded_queries": snap["degraded"],
            "shed_queries": len(snap["shed"]),
            "regroups": snap["regroups"],
        }

    submaster_of = begin_coordinator(ctx, cfg, topo, promoted)
    if submaster_of is None:
        # Surface whatever accounting the finished predecessor's
        # checkpoint carried.
        snap = ckpt.load_latest()
        return snap_result(snap) if snap is not None else "done"
    if not promoted:
        ctx.fs.delete(out)

    # ---- heartbeat ----------------------------------------------------
    def current_submasters() -> list[int]:
        return [
            submaster_of[gid] for gid in sorted(submaster_of)
            if states.get(gid) != "left"
        ]

    ping_submasters = Heartbeat(
        ctx, ft, TAG_HIER_PING, current_submasters
    ).beat

    # ---- group lifecycle state ----------------------------------------
    # latent -> (joining) -> active -> draining -> left, plus dead/revive;
    # ``live`` watches exactly the joining, active and draining groups
    # (it holds a latent group as dead until its first poll revives it).
    states: dict[int, str] = {
        g.gid: ("latent" if g.gid in topo.latent else "active")
        for g in topo.groups
    }
    covered_by: dict[int, set[int]] = {
        g.gid: (set(topo.frag_ids(g.gid)) if mode == "shard" else set())
        for g in topo.groups
    }
    live = LivenessTable(
        (g.gid for g in topo.groups if g.gid not in topo.latent), sim.now,
        dead=topo.latent,
    )
    join_t0: dict[int, float] = {}
    drain_started: set[int] = set()
    draining_since: dict[int, float] = {}
    pending_load: dict[int, set[int]] = {}  # gid -> fids to warm-load
    regroups = 0

    if promoted:
        ping_submasters(force=True)

    # ---- setup --------------------------------------------------------
    ctx.compute(cost.init_seconds())
    nglobal = topo.total_fragments if mode == "shard" else 1
    info, global_frags, _index_bytes = partition_database(
        ctx, cfg, nglobal, reliable=True
    )
    engine = BlastSearch(cfg.search)
    writer = writer_for(engine, info)
    all_fids = tuple(range(topo.total_fragments)) if mode == "shard" else ()

    # ---- recovery state (shard) ---------------------------------------
    unrecoverable: set[int] = set()
    lost_since: dict[int, float] = {}
    rec_attempts: dict[int, int] = {}
    rec_next: dict[int, float] = {}

    # ---- service state -------------------------------------------------
    sched = AdmissionScheduler(scfg)
    sections: dict[int, bytes] = {}
    samples_by_lane: dict[str, list[float]] = {}
    per_query: list[dict] = []
    shed_qids: set[int] = set()
    waves: dict[int, _Wave] = {}
    assigned: dict[tuple[int, int], tuple[int, float]] = {}
    wave_count = 0
    wid_base = me * 1_000_000  # epoch-unique: succession is monotone
    degraded_count = 0
    total = len(jobs)
    first_arrival = min(j.arrival for j in jobs)
    last_completion = first_arrival
    finished = False
    done_since: float | None = None
    marker_written = False

    if promoted:
        snap = ckpt.load_latest()
        if snap is not None:
            sections.update(snap["sections"])
            per_query.extend(snap["per_query"])
            for lane, vals in snap["samples"].items():
                samples_by_lane.setdefault(lane, []).extend(vals)
            shed_qids.update(snap["shed"])
            wave_count = snap["nwaves"]
            degraded_count = snap["degraded"]
            regroups = snap["regroups"]
            unrecoverable.update(snap["unrecoverable"])
            if unrecoverable:
                report.degraded = True
                report.missing_fragments = sorted(unrecoverable)
            last_completion = max(
                (r["completed"] for r in per_query if "completed" in r),
                default=first_arrival,
            )

    def ckpt_state() -> dict:
        return {
            "driver": "hier-elastic",
            "sections": dict(sections),
            "per_query": list(per_query),
            "samples": {k: list(v) for k, v in samples_by_lane.items()},
            "shed": sorted(shed_qids),
            "nwaves": wave_count,
            "degraded": degraded_count,
            "regroups": regroups,
            "unrecoverable": set(unrecoverable),
        }

    arrivals = deque(
        j for j in jobs
        if j.qid not in sections and j.qid not in shed_qids
    )

    # ---- routing table helpers ----------------------------------------
    def active_gids() -> list[int]:
        return sorted(g for g, s in states.items() if s == "active")

    def serving_gids() -> list[int]:
        """Groups a serve part may target: active, else draining as a
        last resort (a drained-out cluster must keep answering)."""
        return active_gids() or sorted(
            g for g, s in states.items() if s == "draining"
        )

    def cover_gids() -> list[int]:
        """Groups whose fragment coverage still counts (shard)."""
        return sorted(
            g for g, s in states.items() if s in ("active", "draining")
        )

    def cluster_lost() -> bool:
        """No group serves now and none ever will (joins included)."""
        return all(s in ("dead", "left") for s in states.values())

    def cover_count(fid: int) -> int:
        return sum(1 for g in cover_gids() if fid in covered_by[g])

    # ---- wave machinery -----------------------------------------------
    def place_fids(w: _Wave, fids: set[int]) -> None:
        """Carve ``fids`` into parts, one per covering group; ids with
        no serving cover park in ``pending_fids`` for recovery."""
        by_gid: dict[int, set[int]] = {}
        now = sim.now
        for f in sorted(fids):
            if f in unrecoverable:
                w.lost.add(f)
                continue
            cover = [g for g in cover_gids() if f in covered_by[g]]
            if not cover:
                w.pending_fids.add(f)
                lost_since.setdefault(f, now)
                continue
            by_gid.setdefault(min(cover), set()).add(f)
        for g in sorted(by_gid):
            p = _Part(w.next_pid, by_gid[g])
            w.parts[p.pid] = p
            w.next_pid += 1

    def force_wave(w: _Wave) -> None:
        w.forced = True
        for pid, p in w.parts.items():
            if pid not in w.got and p.fids:
                w.lost |= p.fids
        w.lost |= w.pending_fids
        w.pending_fids.clear()

    def compose_waves() -> None:
        nonlocal wave_count
        now = sim.now
        while sched.wave_ready(now):
            route = serving_gids()
            lost = cluster_lost()
            if not route and not lost:
                return  # a join/revival is still possible; hold the wave
            if route and len(waves) >= 2 * len(route):
                return  # bound in-flight waves to the serving capacity
            batch = sched.next_wave(now)
            if not batch:
                return
            wave_count += 1
            w = _Wave(wid_base + wave_count, wave_count, batch, now)
            waves[w.wid] = w
            if mode == "replicate":
                w.parts[0] = _Part(0, None)
                w.next_pid = 1
            else:
                place_fids(w, set(all_fids))
            if lost or (not w.parts and not w.pending_fids):
                force_wave(w)

    def serve_cmd(w: _Wave, p: _Part, gid: int):
        assigned[(w.wid, p.pid)] = (gid, sim.now + steal_after)
        payload = [(q.job.qid, q.job.record) for q in w.queue]
        fids = None if p.fids is None else tuple(sorted(p.fids))
        return ("serve", ((w.wid, p.pid), payload, fids))

    def reoffer_existing(gid: int):
        """Re-offer (and keep alive) the group's outstanding part."""
        for key in sorted(assigned):
            if assigned[key][0] != gid:
                continue
            wid, pid = key
            w = waves.get(wid)
            if w is None or pid not in w.parts or pid in w.got:
                continue
            return serve_cmd(w, w.parts[pid], gid)
        return None

    def offer_serve(gid: int):
        cmd = reoffer_existing(gid)
        if cmd is not None:
            return cmd
        now = sim.now
        for wid in sorted(waves):
            w = waves[wid]
            for pid in sorted(w.parts):
                if pid in w.got:
                    continue
                p = w.parts[pid]
                if p.fids is not None and not p.fids <= covered_by[gid]:
                    continue
                a = assigned.get((wid, pid))
                if a is not None and now <= a[1]:
                    continue  # someone else's live obligation
                if a is not None and a[0] != gid:
                    report.record(
                        sim.now, "recover:redispatch", (wid, pid), gid
                    )
                    metrics.inc(None, "hier.redispatches")
                return serve_cmd(w, p, gid)
        return None

    def finalize_wave(w: _Wave) -> None:
        nonlocal degraded_count, last_completion
        done_at = sim.now
        missing = tuple(sorted(w.lost))
        for q in w.queue:
            qid = q.job.qid
            pairs: list = []
            for pid in sorted(w.got):
                pairs.extend(w.got[pid].get(qid, []))
            pairs = dedupe_candidates(pairs)
            blocks = {(m.owner_rank, m.local_id): blk for m, blk in pairs}
            sel = select_metas(
                ctx, cost, [m for m, _blk in pairs],
                cfg.search.max_alignments,
            )
            parts = [header_bytes_for(writer, q.job.record, sel)]
            for m in sel:
                parts.append(blocks[(m.owner_rank, m.local_id)])
            parts.append(footer_bytes_for(writer, engine, q.job.record, info))
            section = b"".join(parts)
            sections[qid] = section
            lat = done_at - q.job.arrival
            samples_by_lane.setdefault(q.lane, []).append(lat)
            row = {
                "qid": qid, "lane": q.lane, "wave": w.no,
                "arrival": q.job.arrival, "completed": done_at,
                "latency_s": lat,
            }
            if w.lost or w.forced:
                row["degraded"] = "missing-fragments"
                row["missing"] = missing
                degraded_count += 1
                metrics.inc(None, "service.degraded_queries")
            per_query.append(row)
            metrics.inc(None, "service.queries")
            metrics.observe(None, "service.latency_s", lat)
            metrics.observe(None, f"service.latency.{q.lane}_s", lat)
            if tracer is not None:
                tracer.span(
                    EV_QUERY, me, q.job.arrival, done_at,
                    q.lane, qid, w.no, len(section),
                )
        last_completion = done_at

    def finalize_ready() -> None:
        for wid in sorted(waves):
            w = waves[wid]
            complete = not w.pending_fids and all(
                pid in w.got for pid in w.parts
            )
            if not (complete or w.forced):
                continue
            finalize_wave(w)
            del waves[wid]
            for key in [k for k in assigned if k[0] == wid]:
                del assigned[key]

    # ---- membership events --------------------------------------------
    def regroup_span(name: str, gid: int, fids, t0: float) -> None:
        nonlocal regroups
        regroups += 1
        if tracer is not None:
            tracer.span(
                EV_REGROUP, me, t0, sim.now, name, gid,
                tuple(sorted(fids)),
            )

    def cure_fids(fids: set[int]) -> None:
        """Coverage came back for ``fids``: clear their recovery state
        (a re-covered fragment is no longer missing for new waves)."""
        for f in fids:
            lost_since.pop(f, None)
            rec_attempts.pop(f, None)
            rec_next.pop(f, None)
            unrecoverable.discard(f)

    def unstall_waves(fids: set[int]) -> None:
        for w in waves.values():
            ready = w.pending_fids & fids
            if ready:
                w.pending_fids -= ready
                place_fids(w, ready)

    def pick_join_slice() -> set[int]:
        """The least-covered initial fragment slice (re-covers losses
        first: lost/unrecoverable ids have coverage 0)."""
        best = min(
            topo.initial_groups,
            key=lambda g: (
                sum(cover_count(f) for f in topo.frag_ids(g.gid)),
                g.gid,
            ),
        )
        return set(topo.frag_ids(best.gid))

    def group_join(gid: int) -> None:
        join_t0[gid] = sim.now
        if mode == "replicate":
            states[gid] = "active"
            report.record(sim.now, "recover:group-join", gid)
            regroup_span("join", gid, (), join_t0[gid])
            return
        states[gid] = "joining"
        fids = pick_join_slice()
        pending_load[gid] = set(fids)
        report.record(
            sim.now, "recover:group-join-start", gid, tuple(sorted(fids))
        )

    def handle_loaded(gid: int, fids) -> None:
        fids = set(fids)
        if mode == "shard":
            covered_by[gid] |= fids
        pend = pending_load.get(gid)
        if pend is not None:
            pend -= fids
            if not pend:
                del pending_load[gid]
        if states.get(gid) == "joining":
            if gid not in pending_load:
                states[gid] = "active"
                report.record(
                    sim.now, "recover:group-join", gid, tuple(sorted(fids))
                )
                regroup_span("join", gid, fids, join_t0.get(gid, sim.now))
        else:
            t0 = min(
                (lost_since[f] for f in fids if f in lost_since),
                default=sim.now,
            )
            report.record(
                sim.now, "recover:rereplicate", gid, tuple(sorted(fids))
            )
            regroup_span("rereplicate", gid, fids, t0)
        cure_fids(fids)
        unstall_waves(fids)

    def die(gid: int) -> None:
        states[gid] = "dead"
        report.record(sim.now, "detect:group-dead", gid)
        pending_load.pop(gid, None)
        for key in [k for k in assigned if assigned[k][0] == gid]:
            del assigned[key]
        if mode == "shard":
            for w in waves.values():
                for pid in sorted(w.parts):
                    if pid in w.got:
                        continue
                    p = w.parts[pid]
                    if p.fids is None:
                        continue
                    if any(
                        p.fids <= covered_by[g] for g in cover_gids()
                    ):
                        continue
                    del w.parts[pid]
                    place_fids(w, set(p.fids))
        if cluster_lost():
            if not report.degraded:
                report.degraded = True
                report.record(sim.now, "detect:degraded", ("all-groups",))
            for w in waves.values():
                force_wave(w)

    def readmit(gid: int) -> None:
        states[gid] = "active"
        drain_started.discard(gid)
        live.revive(gid, sim.now)  # restamped after the poll's stamp
        report.record(sim.now, "recover:group-revive", gid)
        if mode == "shard":
            # A successor sub-master re-derives only the launch-time
            # slice; elastic loads must be re-acknowledged before they
            # count as coverage again.
            covered_by[gid] = set(topo.frag_ids(gid))
            cure_fids(set(covered_by[gid]))
            unstall_waves(set(covered_by[gid]))

    # ---- drain ---------------------------------------------------------
    def drains_tick() -> None:
        now = sim.now
        for gid, t in ecfg.drains:
            if now < t or gid in drain_started:
                continue
            if states.get(gid) != "active":
                continue
            others = [g for g in active_gids() if g != gid]
            if not others and len(sections) + len(shed_qids) < total:
                continue  # never drain the last serving group mid-run
            drain_started.add(gid)
            states[gid] = "draining"
            draining_since[gid] = now
            report.record(sim.now, "recover:group-drain-start", gid)
            if mode == "shard" and others:
                solo = {
                    f for f in covered_by[gid]
                    if not any(f in covered_by[g] for g in others)
                }
                solo -= set().union(*pending_load.values()) if pending_load else set()
                if solo:
                    target = min(
                        others, key=lambda g: (len(covered_by[g]), g)
                    )
                    pending_load.setdefault(target, set()).update(solo)

    def try_release_drain(gid: int) -> bool:
        if gid in pending_load or any(a[0] == gid for a in assigned.values()):
            return False
        done = len(sections) + len(shed_qids) >= total and not waves
        if not done:
            others = [g for g in active_gids() if g != gid]
            if not others:
                return False  # last-resort server: hold until relieved
            if mode == "shard" and any(
                f not in unrecoverable
                and not any(f in covered_by[g] for g in others)
                for f in covered_by[gid]
            ):
                return False  # still the only holder of a live slice
        states[gid] = "left"
        live.retire(gid)
        covered_by[gid] = set()
        report.record(sim.now, "recover:group-drain", gid)
        regroup_span(
            "drain", gid, (), draining_since.get(gid, sim.now)
        )
        return True

    # ---- re-replication (shard) ---------------------------------------
    def probe_fragment(fid: int) -> bool:
        """Can this fragment be re-read from the shared filesystem?"""
        paths = sorted({
            f"{p.base_name}{ext}"
            for p in global_frags[fid]
            for ext in (".xhr", ".xsq")
        })
        for path in paths:
            if not ctx.fs.exists(path):
                return False
            try:
                reliable_read(
                    ctx, ft, path, charge_bytes=0, what=f"probe:{path}"
                )
            except TransientIOError:
                return False
        return True

    def declare_lost(fids: set[int]) -> None:
        nonlocal degraded_count
        if not fids:
            return
        unrecoverable.update(fids)
        report.degraded = True
        report.missing_fragments = sorted(
            set(report.missing_fragments) | fids
        )
        report.record(sim.now, "detect:group-lost", tuple(sorted(fids)))
        t0 = min(
            (lost_since[f] for f in fids if f in lost_since),
            default=sim.now,
        )
        regroup_span("loss", -1, fids, t0)
        for w in waves.values():
            hit = w.pending_fids & fids
            if hit:
                w.pending_fids -= hit
                w.lost |= hit
            for pid in sorted(w.parts):
                if pid in w.got:
                    continue
                p = w.parts[pid]
                if p.fids is None or not (p.fids & fids):
                    continue
                w.lost |= p.fids & fids
                p.fids -= fids
                if not p.fids:
                    del w.parts[pid]
                    assigned.pop((w.wid, pid), None)

    def recovery_tick() -> None:
        if mode != "shard":
            return
        now = sim.now
        in_load: set[int] = set()
        for fids in pending_load.values():
            in_load |= fids
        lost = [
            f for f in all_fids
            if f not in unrecoverable
            and f not in in_load
            and cover_count(f) == 0
        ]
        if not lost:
            return
        for f in lost:
            lost_since.setdefault(f, now)
        exhausted = {
            f for f in lost
            if rec_attempts.get(f, 0) >= ecfg.recovery_attempts
        }
        declare_lost(exhausted)
        due = [
            f for f in lost
            if f not in exhausted and now >= rec_next.get(f, 0.0)
        ]
        if not due:
            return
        targets = active_gids()
        if not targets:
            return  # nobody can adopt; joins/revivals may still fix it
        for f in due:
            rec_attempts[f] = rec_attempts.get(f, 0) + 1
            rec_next[f] = now + ecfg.recovery_backoff * rec_attempts[f]
        ok = [f for f in due if probe_fragment(f)]
        if len(ok) < len(due):
            report.record(
                sim.now, "detect:recovery-probe-failed",
                tuple(sorted(set(due) - set(ok))),
            )
        if ok:
            target = min(targets, key=lambda g: (len(covered_by[g]), g))
            pending_load.setdefault(target, set()).update(ok)
            report.record(
                sim.now, "recover:rereplicate-start",
                target, tuple(sorted(ok)),
            )

    # ---- admission + completion ---------------------------------------
    def admit_arrivals() -> None:
        now = sim.now
        while arrivals and arrivals[0].arrival <= now + 1e-12:
            job = arrivals.popleft()
            if (
                scfg.shed_threshold
                and sched.pending >= scfg.shed_threshold
            ):
                lane = (
                    job.lane if job.lane is not None
                    else scfg.lane_for(job.record)
                )
                shed_qids.add(job.qid)
                per_query.append({
                    "qid": job.qid, "lane": lane,
                    "arrival": job.arrival, "shed": True,
                })
                metrics.inc(None, "service.shed_queries")
                report.record(now, "detect:shed", job.qid)
                continue
            sched.enqueue(job, max(now, job.arrival))

    def maybe_finish() -> None:
        nonlocal finished, done_since, marker_written
        if finished or waves:
            return
        if len(sections) + len(shed_qids) < total:
            return
        with ctx.phase("output"):
            report_bytes = b"".join(
                [writer.preamble()]
                + [sections[qid] for qid in sorted(sections)]
            )
            write_output(ctx, cfg, 0, report_bytes)
        if not marker_written:
            marker_written = True
            reliable_write(ctx, ft, marker, 0, b"done", charge_bytes=0)
        finished = True
        done_since = sim.now

    # ---- request handling ---------------------------------------------
    def handle(r: int, kind: str, data: Any):
        if kind == "work":
            gid, _nalive = data
            if finished:
                return ("done", None)
            if gid in pending_load and states[gid] in (
                "joining", "active", "draining"
            ):
                return ("load", tuple(sorted(pending_load[gid])))
            state = states[gid]
            if state == "joining":
                return ("wait", ft.poll_backoff)
            if state == "draining":
                cmd = reoffer_existing(gid)
                if cmd is not None:
                    return cmd
                if try_release_drain(gid):
                    return ("done", None)
                if not active_gids():
                    cmd = offer_serve(gid)  # last-resort server
                    if cmd is not None:
                        return cmd
                return ("wait", ft.poll_backoff)
            cmd = offer_serve(gid)
            if cmd is not None:
                return cmd
            return ("wait", ft.poll_backoff)
        if kind == "result":
            gid, b, pairs = data
            wid, pid = b
            w = waves.get(wid)
            if w is None or pid in w.got or pid not in w.parts:
                report.record(sim.now, "recover:dup-result", b, gid)
            else:
                w.got[pid] = pairs
                metrics.inc(None, "hier.results")
            assigned.pop((wid, pid), None)
            return ("ok", None)
        if kind == "loaded":
            gid, fids = data
            handle_loaded(gid, fids)
            return ("ok", None)
        if kind == "wrote":
            return ("ok", None)  # no write commands in service mode
        raise RuntimeError(f"unknown hier request kind {kind!r}")

    # ---- serve loop ---------------------------------------------------
    start = sim.now

    def on_tick(request, now: float) -> None:
        nonlocal done_since
        ping_submasters()
        admit_arrivals()
        for gid, _quiet in live.sweep(sim.now, group_budget):
            die(gid)
        drains_tick()
        recovery_tick()
        compose_waves()
        finalize_ready()
        maybe_finish()
        ckpt.maybe_save(ckpt_state)
        if request is None:
            return
        r, _seq, _kind, data = request
        gid = data[0]
        submaster_of[gid] = r
        if finished:
            done_since = now
        state = states.get(gid)
        if live.heard(gid, now, revive=state == "latent"):
            group_join(gid)
        elif state == "dead":
            readmit(gid)

    def on_idle(now: float) -> bool:
        return (
            finished
            and done_since is not None
            and now - done_since > ft.linger
        )

    server = PullServer(ctx, ft, HIER, topo.coordinator_succession())
    if server.serve(
        on_tick=on_tick, on_idle=on_idle, on_request=handle
    ) is not None:
        return "abdicated"
    wait_acc = server.waited

    total_t = max(sim.now - start, 1e-12)
    metrics.set_gauge(None, "hier.ngroups", topo.ngroups)
    metrics.set_gauge(None, "hier.regroups", float(regroups))
    metrics.set_gauge(None, "hier.coordinator.wait_s", wait_acc)
    metrics.set_gauge(
        None, "hier.coordinator.busy_s", sim.now - start - wait_acc
    )
    metrics.set_gauge(None, "hier.coordinator.wait_share", wait_acc / total_t)
    span = max(0.0, last_completion - first_arrival)
    summary = latency_summary(samples_by_lane, span)
    for key, value in flatten_latency(summary).items():
        metrics.set_gauge(None, f"service.{key}", value)
    metrics.set_gauge(None, "service.waves", float(wave_count))
    metrics.set_gauge(
        None, "service.degraded_queries", float(degraded_count)
    )
    metrics.set_gauge(None, "service.shed_queries", float(len(shed_qids)))
    per_query.sort(key=lambda r: r["qid"])
    return {
        "latency": summary,
        "per_query": per_query,
        "waves": wave_count,
        "degraded_queries": degraded_count,
        "shed_queries": len(shed_qids),
        "regroups": regroups,
    }


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
def _program(ctx: ProcContext):
    cfg: ParallelConfig = ctx.args["config"]
    hcfg = ctx.args["hier"]
    scfg: ServiceConfig = ctx.args["service"]
    ecfg: ElasticConfig = ctx.args["elastic"]
    topo: HierTopology = ctx.args["topology"]
    jobs = ctx.args["jobs"]
    join_times: dict[int, float] = ctx.args["join_times"]
    if ctx.rank == 0:
        return _serve_coordinator(
            ctx, cfg, hcfg, scfg, ecfg, topo, jobs, join_times
        )
    gid = topo.group_of(ctx.rank)
    if gid in topo.latent:
        t = join_times.get(gid, 0.0)
        if t > ctx.engine.now:
            ctx.engine.sleep_until(t)
    group = topo.groups[gid]
    if ctx.rank == group.submaster:
        status = run_group_master(ctx, cfg, hcfg, topo, gid)
    else:
        status = run_group_member(ctx, cfg, hcfg, topo, gid)
        if status.startswith("promoted:"):
            status = status[len("promoted:"):]
    if status == "promote-coordinator":
        return _serve_coordinator(
            ctx, cfg, hcfg, scfg, ecfg, topo, jobs, join_times,
            promoted=True,
        )
    return status


@dataclass(frozen=True)
class HierServiceResult:
    """Outcome of one elastic hierarchical service run."""

    result: RunResult
    topology: HierTopology
    output_path: str
    latency: dict
    per_query: list
    waves: int
    degraded_queries: int
    shed_queries: int
    regroups: int

    @property
    def report(self) -> bytes:
        """The concatenated per-query reports (oracle-comparable when
        no fragment was permanently lost and nothing was shed)."""
        return self.result.store.read_all(self.output_path)


def run_hier_service(
    nprocs: int,
    store: FileStore,
    config: ParallelConfig,
    jobs: list[QueryJob],
    *,
    hier: HierConfig | None = None,
    service: ServiceConfig | None = None,
    elastic: ElasticConfig | None = None,
    platform: PlatformSpec | None = None,
    faults: FaultPlan | None = None,
    tracer=None,
    on_cluster=None,
) -> HierServiceResult:
    """Serve an online query stream through elastic replication groups.

    ``store`` holds the formatted database; ``jobs`` is the arrival
    stream (:mod:`repro.service.arrivals`).  ``elastic`` schedules
    group joins/drains and bounds group-loss recovery; role-targeted
    fault events (``crash=group:g1@40``) are resolved against the
    topology here.  The report at ``config.output_path`` concatenates
    the per-query sections in qid order and is byte-identical to the
    serial oracle whenever no fragment is permanently lost and no
    query was shed; otherwise the run still completes, with
    ``degraded="missing-fragments"`` rows in ``per_query``.
    """
    hier = hier if hier is not None else HierConfig()
    elastic = elastic if elastic is not None else ElasticConfig()
    service_cfg = service if service is not None else ServiceConfig()
    if not jobs:
        raise ValueError("the service needs at least one QueryJob")
    qids = [j.qid for j in jobs]
    if len(set(qids)) != len(qids):
        raise ValueError("duplicate qid in the job stream")
    topo = build_topology(
        nprocs, hier.ngroups, hier.mode,
        joins=tuple(n for n, _t in elastic.joins),
    )
    for gid, _t in elastic.drains:
        if not 0 <= gid < topo.ngroups:
            raise ValueError(
                f"drain gid {gid} outside the {topo.ngroups}-group "
                f"topology"
            )
    join_times = {
        gid: t for gid, (_n, t) in zip(topo.latent, elastic.joins)
    }
    cfg = ft_for_cost(config)
    if faults is not None:
        faults = faults.resolve_roles(topo.role_rank)
    ordered = tuple(sorted(jobs, key=lambda j: (j.arrival, j.qid)))
    result = run(
        nprocs,
        _program,
        platform,
        shared_store=store,
        args={
            "config": cfg, "hier": hier, "service": service_cfg,
            "elastic": elastic, "topology": topo, "jobs": ordered,
            "join_times": join_times,
        },
        faults=faults,
        tracer=tracer,
        on_cluster=on_cluster,
    )
    rrs = result.rank_results
    values = list(rrs.values()) if isinstance(rrs, dict) else list(rrs)
    master = None
    for r in values:
        if isinstance(r, dict) and "per_query" in r:
            if master is None or len(r["per_query"]) > len(
                master["per_query"]
            ):
                master = r
    if master is None:
        raise RuntimeError(
            "no coordinator incarnation completed the service run"
        )
    gauges = (result.metrics or {}).get("global", {}).get("gauges")
    if gauges is not None and result.makespan > 0:
        worst = max(
            (
                gauges.get(f"hier.group.g{g.gid}.coord_wait_s", 0.0)
                for g in topo.groups
            ),
            default=0.0,
        )
        gauges["hier.group_coord_wait_share_max"] = worst / result.makespan
    return HierServiceResult(
        result=result,
        topology=topo,
        output_path=cfg.output_path,
        latency=master["latency"],
        per_query=master["per_query"],
        waves=master["waves"],
        degraded_queries=master["degraded_queries"],
        shed_queries=master["shed_queries"],
        regroups=master["regroups"],
    )
