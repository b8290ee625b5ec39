"""Top-level coordinator of a two-level hierarchical run.

The coordinator (rank 0 initially; a promoted sub-master after a
coordinator death) owns the query stream and the output layout, and
**only group-level metadata ever reaches it**: per-section byte sizes
under ``replicate``, per-shard pruned meta lists under ``shard``.  The
per-fragment result/block traffic that serializes the flat master stays
inside the groups.

Protocol (pull, sub-master driven, mirroring the flat FT drivers)::

  sub-master -> coordinator   (rank, seq, kind, data) on TAG_HIER_REQ
    kind ``work``    data (gid, nalive)        — poll for a command
    kind ``result``  data (gid, batch_no, payload)
    kind ``wrote``   data (gid, batch_no)
  coordinator -> sub-master   (seq, body) on TAG_HIER_REPLY
    body ``("batch", (batch_no, jobs))``       — process this batch
    body ``("write", (batch_no, jobs, writes, epoch))`` — write these
    body ``("wait", 0)`` / ``("ok", None)`` / ``("done", None)``

A ``work`` poll the coordinator has no command for is held
(:class:`~repro.parallel.pullrpc.PullServer`) and answered as soon as
one exists, or ``("wait", 0)`` — poll again now — when the hold
expires.  A sub-master with a ``result`` or ``wrote`` to deliver sends
it at once under a new ``seq``, superseding its own held poll; a
command the coordinator gave that superseded poll stays assigned to the
group and is offered again at its next poll.

``epoch`` is the issuing coordinator's rank — unique per incarnation,
because succession is monotone.  A promoted coordinator whose restored
checkpoint carries no (or a mismatched) layout clears the output file
before rewriting it, which invalidates every write a group performed
under an earlier epoch; epoch-tagging the write commands and their
confirmations is what forces those groups to re-perform the writes
instead of answering from their local done-ledger.
  coordinator -> sub-masters  own rank on TAG_HIER_PING (heartbeat +
    new-coordinator announcement)

``jobs`` is ``[(query_index, record), ...]`` — every command is
self-contained, so a cold successor sub-master can honour a ``write``
for a batch it never processed by re-deriving it (rendering is
deterministic, rewrites are byte-identical and idempotent).

Obligations carry deadlines: an assigned batch whose group goes silent
past its budget is re-offered to the next polling group (``replicate``;
duplicate completions are byte-identical, first result wins).  Under
``shard`` every group must answer every batch from its own fragment
slice, so a whole dead group degrades the run instead
(``FaultReport.missing_fragments``) — exactly like the flat FT drivers
when every holder of a fragment dies.

Failover: sub-masters track the coordinator with a
:class:`repro.parallel.checkpoint.FailoverTracker` over the *live*
succession list ``[0] + every member rank in group order`` (so a
mid-run-promoted sub-master is a coordinator candidate exactly like
an original one); the lowest surviving candidate promotes itself,
restores the coordinator checkpoint (``{checkpoint_dir}/coord``) if
one survives, and re-collects the rest from the groups' caches.  The
monotone-succession abdication rule (higher candidate pings win) is
the same one the flat drivers use.
"""

from __future__ import annotations

from typing import Any

from repro.blast.engine import BlastSearch
from repro.parallel.checkpoint import CheckpointStore
from repro.parallel.common import (
    layout_query_section,
    read_queries_bytes,
    reliable_read,
    reliable_write,
    write_output,
    writer_for,
)
from repro.parallel.config import ParallelConfig
from repro.parallel.pullrpc import HIER, Heartbeat, LivenessTable, PullServer
from repro.parallel.results import select_metas
from repro.parallel.warmdb import partition_database
from repro.simmpi import ProcContext

from repro.hier.topology import HierTopology

TAG_HIER_REQ, TAG_HIER_REPLY, TAG_HIER_PING = HIER

COORD_CKPT_SUBDIR = "coord"


def done_marker_path(cfg: ParallelConfig) -> str:
    """Shared-filesystem tombstone the coordinator writes on completion.

    Ranks that promote long after the run finished (their silence
    windows outlasted everyone else's exit) check it before walking a
    succession of ranks that can never answer — and before a cold
    coordinator restart could clear a complete, confirmed output file.
    """
    return f"{cfg.checkpoint_dir}/hier.done"


def batch_jobs(queries, hcfg_batch: int, ngroups: int):
    """Split the query list into numbered, contiguous batches.

    ``hcfg_batch == 0`` picks ~2 batches per group so the coordinator
    has slack to balance uneven groups; contiguity keeps batch order ==
    global query order, which the layout pass relies on.
    """
    nq = len(queries)
    if hcfg_batch > 0:
        size = hcfg_batch
    else:
        size = max(1, -(-nq // (2 * ngroups)))
    out = []
    for b, start in enumerate(range(0, nq, size)):
        out.append(
            (b, [(qi, queries[qi]) for qi in range(start, min(start + size, nq))])
        )
    return out


def _group_budget(ft, topo: HierTopology) -> float:
    """How long a group may go silent before its obligations expire.

    Covers one full in-group succession walk (every member timing out
    one ``failover_silence`` window in turn) plus a search timeout for
    the work itself.
    """
    gsize = max(len(g.members) for g in topo.groups)
    return ft.search_timeout + ft.failover_silence * (gsize + 1)


def begin_coordinator(
    ctx: ProcContext, cfg: ParallelConfig, topo: HierTopology, promoted: bool
) -> dict[int, int] | None:
    """Prologue of every coordinator incarnation, batch or elastic.

    Returns the ``gid -> sub-master rank`` map the heartbeat starts
    from, or None when a finished predecessor left its tombstone: the
    output is complete and confirmed, and a cold restart would clear
    and rewrite it — the caller must touch nothing and exit.
    """
    sim, report, me = ctx.engine, ctx.fault_report, ctx.rank
    marker = done_marker_path(cfg)
    if promoted:
        report.record(sim.now, "recover:promote-coordinator", me)
        if ctx.fs.exists(marker):
            report.record(sim.now, "recover:done-marker", me)
            return None
    else:
        # Stale tombstone from a previous run over the same store.
        ctx.fs.delete(marker)
    submaster_of = {g.gid: g.submaster for g in topo.groups}
    if promoted:
        # A sub-master promoting to coordinator hands its group to the
        # next member; ping that successor (not ourselves) so it learns
        # who the coordinator is without waiting out a silence window.
        for g in topo.groups:
            if me in g.members:
                idx = g.members.index(me)
                if idx + 1 < len(g.members):
                    submaster_of[g.gid] = g.members[idx + 1]
                break
    return submaster_of


def run_coordinator(
    ctx: ProcContext,
    cfg: ParallelConfig,
    hcfg,
    topo: HierTopology,
    *,
    promoted: bool = False,
) -> str:
    cost, ft = cfg.cost, cfg.ft
    sim = ctx.engine
    report = ctx.fault_report
    metrics = ctx.cluster.metrics
    me = ctx.rank
    mode = topo.mode
    out = cfg.output_path
    ckpt = CheckpointStore(
        ctx, f"{cfg.checkpoint_dir}/{COORD_CKPT_SUBDIR}",
        interval=cfg.checkpoint_interval, io_attempts=ft.io_attempts,
    )
    marker = done_marker_path(cfg)
    submaster_of = begin_coordinator(ctx, cfg, topo, promoted)
    if submaster_of is None:
        return "done"

    # ---- heartbeat ----------------------------------------------------
    def current_submasters() -> list[int]:
        # Ping current sub-masters only: the live succession list spans
        # every member rank, so fanning pings over it would be O(nprocs)
        # per tick; polls teach us who actually leads each group.
        return sorted(set(submaster_of.values()))

    ping_submasters = Heartbeat(
        ctx, ft, TAG_HIER_PING, current_submasters
    ).beat
    if promoted:
        # Announce before anything slow (setup, checkpoint restore):
        # the announcement stops further coordinator succession.
        ping_submasters(force=True)

    # ---- setup --------------------------------------------------------
    ctx.compute(cost.init_seconds())
    qdata = reliable_read(
        ctx, ft, cfg.query_path,
        charge_bytes=cost.wire_bytes(ctx.fs.size(cfg.query_path)),
    )
    queries = read_queries_bytes(qdata)
    # One-fragment partition = the cheap way to read the global index
    # and derive GlobalDbInfo (the writer needs it for footers).
    info, _frags, _index_bytes = partition_database(ctx, cfg, 1, reliable=True)
    engine = BlastSearch(cfg.search)
    writer = writer_for(engine, info)
    batches = batch_jobs(queries, hcfg.batch_queries, topo.ngroups)
    jobs_of = dict(batches)
    group_budget = _group_budget(ft, topo)

    # ---- obligations --------------------------------------------------
    # replicate: results[b] = {qi: section_nbytes}; shard:
    # results[(b, gid)] = [pruned metas per job].  ``written`` mirrors
    # the keys of the write obligations.
    results: dict[Any, Any] = {}
    producer: dict[int, int] = {}
    assigned: dict[Any, tuple[int, float]] = {}
    write_assigned: dict[Any, tuple[int, float]] = {}
    written: set[Any] = set()
    live = LivenessTable((g.gid for g in topo.groups), sim.now)
    layout: dict[Any, Any] | None = None  # key -> (jobs, writes) per group cmd
    write_producer: dict[Any, int] = {}
    merge_acc = 0.0

    # Write confirmations from a previous incarnation are only valid if
    # that incarnation's layout put every byte where ours will: hold
    # them aside until compute_layout can compare layout signatures.
    restored_written: set[Any] = set()
    restored_sig: dict[Any, Any] | None = None
    if promoted:
        snap = ckpt.load_latest()
        if snap is not None:
            results.update(snap["results"])
            producer.update(snap["producer"])
            restored_written = set(snap["written"])
            restored_sig = snap.get("layout_sig")

    def ckpt_state() -> dict:
        return {
            "driver": "hier-coordinator",
            "results": dict(results),
            "producer": dict(producer),
            "written": set(written),
            "layout_sig": (
                {k: list(layout[k][1]) for k in layout}
                if layout is not None
                else None
            ),
        }

    # ---- completeness -------------------------------------------------
    def search_keys() -> list[Any]:
        """Every search obligation the run still owes, dead groups
        excluded (their absence is the degraded path)."""
        if mode == "replicate":
            if len(live.dead) == topo.ngroups:
                return [b for b, _ in batches if b in results]
            return [b for b, _ in batches]
        return [
            (b, g.gid)
            for b, _ in batches
            for g in topo.groups
            if g.gid not in live.dead or (b, g.gid) in results
        ]

    def search_complete() -> bool:
        return all(k in results for k in search_keys())

    def mark_degraded() -> None:
        if mode == "shard" and live.dead:
            missing = sorted(
                fid for gid in live.dead for fid in topo.frag_ids(gid)
            )
            if missing and not report.missing_fragments:
                report.degraded = True
                report.missing_fragments = missing
                report.record(sim.now, "detect:degraded", tuple(missing))
        if mode == "replicate" and len(live.dead) == topo.ngroups:
            missing = [b for b, _ in batches if b not in results]
            if missing and not report.degraded:
                report.degraded = True
                report.record(
                    sim.now, "detect:degraded", ("batches", tuple(missing))
                )

    # ---- layout -------------------------------------------------------
    def compute_layout() -> None:
        """Fix every output byte's position; write the coordinator's own
        pieces.  Deterministic in the results, so every coordinator
        incarnation derives the same layout and rewrites are
        idempotent."""
        nonlocal layout, merge_acc
        mark_degraded()
        layout = {}
        pieces: list[tuple[int, bytes]] = []
        pre = writer.preamble()
        pieces.append((0, pre))
        off = len(pre)
        if mode == "replicate":
            for b, jobs in batches:
                if b not in results:
                    continue  # degraded: every group died
                sizes = results[b]
                writes = []
                for qi, _rec in jobs:
                    writes.append((qi, off))
                    off += sizes[qi]
                layout[b] = (jobs, writes)
                write_assigned[b] = (
                    producer[b], sim.now + group_budget
                )
                write_producer[b] = producer[b]
        else:
            t0m = sim.now
            by_group: dict[int, dict[int, list]] = {}
            for b, jobs in batches:
                for i, (qi, qrec) in enumerate(jobs):
                    ping_submasters()
                    cand = [
                        m
                        for g in topo.groups
                        if (b, g.gid) in results
                        for m in results[(b, g.gid)][i]
                    ]
                    selected = select_metas(
                        ctx, cost, cand, cfg.search.max_alignments
                    )
                    header, placed, footer, end = layout_query_section(
                        writer, engine, qrec, selected, info, off
                    )
                    pieces.append((off, header))
                    for m, boff in placed:
                        gid = topo.owner_group(m.owner_rank)
                        by_group.setdefault(b, {}).setdefault(gid, []).append(
                            (m.owner_rank, m.local_id, boff)
                        )
                    pieces.append((end - len(footer), footer))
                    off = end
            merge_acc += sim.now - t0m
            for b, jobs in batches:
                for gid, writes in sorted(by_group.get(b, {}).items()):
                    key = (b, gid)
                    layout[key] = (jobs, writes)
                    write_assigned[key] = (gid, sim.now + group_budget)
                    write_producer[key] = gid
        # Restored write confirmations are only as good as the layout
        # they were written under: trust them solely when the previous
        # incarnation's checkpointed layout signature places every byte
        # exactly where ours does (a degraded predecessor may have laid
        # the file out differently).
        if (
            restored_written
            and restored_sig is not None
            and set(restored_sig) == set(layout)
            and all(
                list(restored_sig[k]) == list(layout[k][1]) for k in layout
            )
        ):
            written.update(k for k in restored_written if k in layout)
        # Nothing confirmed written yet -> clear any stale bytes; the
        # epoch tag on write commands makes the groups re-perform
        # writes they confirmed to an earlier incarnation.
        if not written:
            ctx.fs.delete(out)
        with ctx.phase("output"):
            for poff, buf in pieces:
                ping_submasters()
                write_output(ctx, cfg, poff, buf)
        # Drop write obligations nobody can honour (dead shard groups).
        for key in list(layout):
            gid = key[1] if mode == "shard" else None
            if gid is not None and gid in live.dead:
                del layout[key]
                write_assigned.pop(key, None)
                report.record(sim.now, "detect:unwritable", key)

    def write_complete() -> bool:
        return layout is not None and all(k in written for k in layout)

    marker_written = False

    def mark_done() -> None:
        """Drop the completion tombstone (once) for late successors."""
        nonlocal marker_written
        if marker_written:
            return
        marker_written = True
        reliable_write(ctx, ft, marker, 0, b"done", charge_bytes=0)

    # ---- request handling --------------------------------------------
    def offer_search(gid: int):
        now = sim.now
        if mode == "replicate":
            for b, jobs in batches:
                if b in results:
                    continue
                a = assigned.get(b)
                if a is None or a[0] == gid or now > a[1]:
                    if a is not None and a[0] != gid:
                        report.record(sim.now, "recover:redispatch", b, gid)
                        metrics.inc(None, "hier.redispatches")
                    assigned[b] = (gid, now + group_budget)
                    return ("batch", (b, jobs))
            return None
        for b, jobs in batches:
            if (b, gid) not in results:
                assigned[(b, gid)] = (gid, now + group_budget)
                return ("batch", (b, jobs))
        return None

    def offer_write(gid: int):
        now = sim.now
        if layout is None:
            return None
        for key in sorted(layout):
            if key in written:
                continue
            kgid = key[1] if mode == "shard" else None
            if kgid is not None and kgid != gid:
                continue  # shard blocks only their owner group can hold
            wa = write_assigned.get(key)
            if wa is None or wa[0] == gid or now > wa[1]:
                if wa is not None and wa[0] != gid:
                    report.record(
                        sim.now, "recover:redispatch-write", key, gid
                    )
                    metrics.inc(None, "hier.redispatches")
                write_assigned[key] = (gid, now + group_budget)
                jobs, writes = layout[key]
                b = key[0] if mode == "shard" else key
                return ("write", (b, jobs, writes, me))
        return None

    def handle(r: int, kind: str, data: Any):
        """A reply body, or None: an idle ``work`` poll is held until
        there is a command for its group (``PullServer.sweep``)."""
        if kind == "work":
            gid, _nalive = data
            cmd = offer_search(gid)
            if cmd is not None:
                return cmd
            if not search_complete():
                return None
            if layout is None:
                compute_layout()
            cmd = offer_write(gid)
            if cmd is not None:
                return cmd
            if write_complete():
                mark_done()
                return ("done", None)
            return None
        if kind == "result":
            gid, b, payload = data
            key = b if mode == "replicate" else (b, gid)
            if key not in results:
                results[key] = payload
                if mode == "replicate":
                    producer[b] = gid
                metrics.inc(None, "hier.results")
            else:
                report.record(sim.now, "recover:dup-result", key, gid)
            assigned.pop(key, None)
            return ("ok", None)
        if kind == "wrote":
            gid, b, epoch = data
            key = b if mode == "replicate" else (b, gid)
            if epoch == me:
                if layout is not None and key in layout:
                    written.add(key)
                write_assigned.pop(key, None)
            # A confirmation for an earlier epoch is vacuous: that
            # incarnation's bytes were cleared with its layout.
            return ("ok", None)
        raise RuntimeError(f"unknown hier request kind {kind!r}")

    # ---- serve loop ---------------------------------------------------
    start = sim.now
    server = PullServer(ctx, ft, HIER, topo.coordinator_succession())

    def on_tick(request, now: float) -> None:
        ping_submasters()
        for gid, _quiet in live.sweep(sim.now, group_budget):
            report.record(sim.now, "detect:group-dead", gid)
        ckpt.maybe_save(ckpt_state)
        if request is None:
            return
        r, _seq, _kind, data = request
        gid = data[0]
        submaster_of[gid] = r
        if live.heard(gid, now, revive=layout is None):
            report.record(sim.now, "recover:group-revive", gid)

    def on_idle(now: float) -> bool:
        # A degraded run must still converge with nobody polling.
        # (Even with *no* results — every group dead before
        # producing anything — the empty layout still terminates
        # the run with a preamble-only degraded report.)
        if search_complete() and layout is None:
            compute_layout()
        if write_complete() or (layout is not None and not layout):
            mark_done()
            return server.lingered(now)
        return False

    # Stepping down is safe: the successor's layout and rewrites are
    # byte-identical.
    abdicated = server.serve(
        on_tick=on_tick, on_idle=on_idle, on_request=handle
    ) is not None
    wait_acc = server.waited
    # How long each group's idle polls sat held here: ``run_hier``
    # takes it out of the group's coordinator wait (no command existed).
    for r, held in sorted(server.held_s.items()):
        metrics.inc(None, f"hier.group.g{topo.group_of(r)}.held_s", held)

    total = max(sim.now - start, 1e-12)
    metrics.set_gauge(None, "hier.ngroups", topo.ngroups)
    metrics.set_gauge(None, "hier.coordinator.wait_s", wait_acc)
    metrics.set_gauge(None, "hier.coordinator.busy_s", sim.now - start - wait_acc)
    metrics.set_gauge(None, "hier.coordinator.wait_share", wait_acc / total)
    metrics.set_gauge(None, "hier.coordinator.merge_s", merge_acc)
    mark_degraded()
    return "abdicated" if abdicated else "coordinator"
