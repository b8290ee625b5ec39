"""Group sub-master + group member (worker) of a hierarchical run.

One replication group is a miniature fault-tolerant pioBLAST cluster:
the sub-master speaks the same idempotent pull-RPC worker protocol the
flat FT drivers speak (sequence-numbered requests, reply cache,
deadline-bounded obligations, death-by-silence, lowest-survivor
adoption of orphaned fragments), while acting as a *client* of the
coordinator for query batches, service waves (``serve`` — like a
batch but answered with the selected metas *and* their rendered
blocks, so the coordinator can merge across groups and write), write
commands, and fragment re-replication commands (``load`` — adopt
additional fragment ids into the group's serving set; elastic
coordinators use it for join-time coverage and group-loss recovery;
members warm-load the new pieces through the ordinary adoption
path).

Group protocol (worker driven)::

  worker -> sub-master  (rank, seq, kind, data) on TAG_GRP_REQ
    ``hello``  None                      -> ("setup", (info, index_bytes,
                                             {fid: pieces}))
    ``work``   None                      -> ("adopt", {fid: pieces})
                                          | ("search", (batch_no, jobs, fids))
                                          | ("fetch", (batch_no, jobs, reqs))
                                          | ("wait", dt) | ("done", None)
    ``metas``  (batch_no, {fid: metas})  -> ("ok", None)
    ``blocks`` (batch_no, [((fid, lid), block)...]) -> ("ok", None)
  sub-master -> worker  (seq, body) on TAG_GRP_REPLY; own rank on
  TAG_GRP_PING (heartbeat + new-sub-master announcement).

Every command is self-contained (``jobs`` carries the query records),
and workers cache one batch of rendered blocks per fragment — a fetch
for a stale batch deterministically re-searches, so re-homed output is
byte-identical (the PR-5/PR-7 invariant, now per group).

Failover is group-local: workers run a
:class:`~repro.parallel.checkpoint.FailoverTracker` over the group's
member list; the succession walk, promotion, announcement and
abdication rules are the flat driver's, scoped to the group.  The
coordinator is *not* involved — it just sees the group's new sub-master
polling and re-offers the outstanding obligation (commands are
self-contained, so a cold successor recomputes the batch from scratch,
modulo the group checkpoint ``{checkpoint_dir}/g{gid}``).  A sub-master
whose *coordinator* tracker reaches its own rank returns
``"promote-coordinator"`` and the dispatcher runs the coordinator loop
instead; its abandoned group self-heals via member succession.

The sub-master serves fragments whose holder is itself in-line (a
promoted worker keeps its loaded fragments; a sub-master whose last
worker died adopts everything) — safe from false in-group failover
because ``FTParams.for_cost`` scales ``failover_silence`` with the
compute scale, the same guarantee the flat FT masters rely on during
long merges.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.blast.engine import BlastSearch
from repro.obs.events import EV_GROUP
from repro.parallel.checkpoint import CheckpointStore, FailoverTracker
from repro.parallel.common import (
    footer_bytes_for,
    header_bytes_for,
    parse_index,
    write_output,
    writer_for,
)
from repro.parallel.config import ParallelConfig
from repro.parallel.pullrpc import (
    GROUP,
    HIER,
    Heartbeat,
    Orphaned,
    Promoted,
    PullClient,
    PullServer,
)
from repro.parallel.results import select_metas
from repro.parallel.warmdb import (
    load_fragment_pieces,
    partition_database,
    search_loaded_pieces,
)
from repro.simmpi import ProcContext, Status
from repro.simmpi.comm import ANY_SOURCE, ANY_TAG, TIMEOUT

from repro.hier.coordinator import (
    TAG_HIER_PING,
    TAG_HIER_REPLY,
    done_marker_path,
)
from repro.hier.topology import HierTopology

TAG_GRP_REQ, TAG_GRP_REPLY, TAG_GRP_PING = GROUP


@dataclass
class HeldState:
    """What a worker carries into its own promotion to sub-master."""

    vols: dict[int, list] = field(default_factory=dict)
    pieces: dict[int, Any] = field(default_factory=dict)
    cache: dict[int, tuple[int, list[bytes], list]] = field(
        default_factory=dict
    )


class _Batch:
    """One query batch moving through the group pipeline."""

    __slots__ = (
        "no", "jobs", "need", "got", "t0", "stage", "selected",
        "need_blocks", "blocks", "write_req", "serve",
    )

    def __init__(self, no, jobs, need, write_req=None, serve=False):
        self.no = no
        self.jobs = jobs
        self.need = set(need)
        self.got: dict[int, list] = {}
        self.t0 = None
        self.stage = "search"
        self.selected: list | None = None
        self.need_blocks: set[tuple[int, int]] = set()
        self.blocks: dict[tuple[int, int], bytes] = {}
        self.write_req = write_req  # replicate: ([(qi, off)], epoch)
        self.serve = serve  # service wave: answer with (meta, block) pairs


class _ShardWrite:
    """One shard-mode write command being fulfilled (block gathering)."""

    __slots__ = ("no", "jobs", "offs", "need_blocks", "blocks", "t0", "epoch")

    def __init__(self, no, jobs, writes, epoch):
        self.no = no
        self.jobs = jobs
        self.offs = {(fid, lid): off for fid, lid, off in writes}
        self.need_blocks = set(self.offs)
        self.blocks: dict[tuple[int, int], bytes] = {}
        self.t0 = None
        self.epoch = epoch


def run_group_master(
    ctx: ProcContext,
    cfg: ParallelConfig,
    hcfg,
    topo: HierTopology,
    gid: int,
    *,
    held: HeldState | None = None,
) -> str:
    comm, cost, ft = ctx.comm, cfg.cost, cfg.ft
    sim = ctx.engine
    report = ctx.fault_report
    metrics = ctx.cluster.metrics
    tracer = ctx.cluster.tracer
    me = ctx.rank
    mode = topo.mode
    group = topo.groups[gid]
    members = list(group.members)
    my_pos = members.index(me)
    promoted = my_pos != 0
    ckpt = CheckpointStore(
        ctx, f"{cfg.checkpoint_dir}/g{gid}",
        interval=cfg.checkpoint_interval, io_attempts=ft.io_attempts,
    )

    # ---- member-facing server ----------------------------------------
    hb = Heartbeat(ctx, ft, TAG_GRP_PING, lambda: members)
    ping_members = hb.beat
    server = PullServer(ctx, ft, GROUP, members)

    done_marker = done_marker_path(cfg)
    if promoted:
        report.record(sim.now, "recover:promote-submaster", gid, me)
        ping_members(force=True)
        if ctx.fs.exists(done_marker):
            # We out-waited a run that finished: the coordinator left
            # its tombstone and exited.  Skip setup; just answer member
            # polls with "done" for a re-poll window, then leave.
            report.record(sim.now, "recover:done-marker", gid, me)
            end = sim.now + ft.req_timeout + ft.master_tick
            while sim.now < end:
                st = Status()
                msg = comm.recv_with_timeout(
                    source=ANY_SOURCE, tag=ANY_TAG,
                    timeout=ft.master_tick, status=st,
                )
                if msg is not TIMEOUT and st.tag == TAG_GRP_REQ:
                    server.serve_request(
                        msg, lambda _w, _kind, _data: ("done", None)
                    )
            return "done"

    # ---- setup (deterministic; every successor recomputes it) ---------
    ctx.compute(cost.init_seconds())
    info, frags, index_bytes = partition_database(
        ctx, cfg, topo.group_nfrag_total(gid), reliable=True
    )
    # The serving set is mutable: elastic coordinators grow it with
    # ``load`` commands (join-time coverage, group-loss re-replication),
    # drawing pieces from the full partition.
    my_fids = set(topo.frag_ids(gid))
    all_frags = frags
    frag_pieces = {fid: frags[fid] for fid in my_fids}
    indexes = {base: parse_index(data) for base, data in index_bytes.items()}
    engine = BlastSearch(cfg.search)
    writer = writer_for(engine, info)

    # ---- group membership + fragment placement ------------------------
    # Members before this rank in succession order are presumed dead
    # (we out-waited each of them); the standard silence sweep below
    # re-detects reality.
    alive = set(members[my_pos + 1:])
    dead = set(members[:my_pos])
    workers_order = list(group.workers)
    holder: dict[int, int] = {}
    for i, fid in enumerate(sorted(my_fids)):
        holder[fid] = workers_order[i % len(workers_order)]

    def rehome(fid: int) -> None:
        holder[fid] = min(alive) if alive else me
        report.record(sim.now, "recover:adopt-fragment", gid, fid, holder[fid])

    for fid in sorted(my_fids):
        if holder[fid] in dead:
            rehome(fid)
    # Survivors are assumed to hold their initial assignment; adoption
    # commands (idempotent on the worker side) heal any difference.
    holds: dict[int, set[int]] = {
        w: {f for f in my_fids if holder[f] == w} for w in alive
    }

    # In-line serving state (the sub-master as its own worker).
    my_vols: dict[int, list] = held.vols if held else {}
    my_cache: dict[int, tuple[int, list[bytes], list]] = (
        held.cache if held else {}
    )

    # ---- coordinator client -------------------------------------------
    co = FailoverTracker(
        ctx, ft, succession=list(topo.coordinator_succession())
    )
    coord = PullClient(ctx, ft, co, HIER)
    outbox: list[tuple[str, Any]] = []
    next_poll = sim.now
    done_flag = False
    done_since: float | None = None

    # ---- pipeline state ------------------------------------------------
    batch: _Batch | None = None
    shard_write: _ShardWrite | None = None
    # (b, jobs, writes, epoch) — ``epoch`` is the issuing coordinator's
    # rank.  A new coordinator incarnation clears the output file before
    # laying it out again, so a write confirmed under an *older* epoch
    # must be re-performed, not answered from ``written_local``.
    writes_pending: list[tuple[int, list, list, int]] = []
    done_batches: dict[int, Any] = {}
    written_local: dict[int, int] = {}  # b -> coordinator epoch
    search_out: dict[int, tuple[int, float]] = {}  # fid -> (worker, deadline)
    fetch_out: dict[int, tuple[set, float]] = {}   # worker -> (reqs, deadline)
    last_seen: dict[int, float] = {w: sim.now for w in alive}
    wait_acc = coord_wait_acc = search_acc = merge_acc = 0.0

    if promoted:
        snap = ckpt.load_latest()
        if snap is not None:
            done_batches.update(snap["done"])
            written_local.update(snap["written"])

    def ckpt_state() -> dict:
        return {
            "driver": "hier-group",
            "gid": gid,
            "done": dict(done_batches),
            "written": dict(written_local),
        }

    # ---- worker liveness ----------------------------------------------
    def declare_dead(w: int, why: str) -> None:
        if w not in alive:
            return
        alive.discard(w)
        dead.add(w)
        report.record(sim.now, "detect:worker-dead", gid, w, why)
        for fid, (sw, _dl) in list(search_out.items()):
            if sw == w:
                search_out.pop(fid)
        fetch_out.pop(w, None)
        for fid in sorted(my_fids):
            if holder[fid] == w:
                rehome(fid)

    def revive(w: int) -> None:
        if w not in dead:
            return
        dead.discard(w)
        alive.add(w)
        last_seen[w] = sim.now
        holds.setdefault(w, set())
        report.record(sim.now, "recover:revive", gid, w)

    def check_deaths() -> None:
        now = sim.now
        for fid, (w, dl) in list(search_out.items()):
            if now > dl:
                declare_dead(w, "search-timeout")
        for w, (_reqs, dl) in list(fetch_out.items()):
            if now > dl:
                declare_dead(w, "fetch-timeout")
        for w in sorted(alive):
            if now - last_seen.get(w, now) > ft.search_timeout:
                declare_dead(w, "silent")

    # ---- in-line fragment serving -------------------------------------
    def inline_fresh(fid: int, batch_no: int, jobs) -> None:
        """Make my_cache[fid] current for ``batch_no``."""
        cached = my_cache.get(fid)
        if cached is not None and cached[0] == batch_no:
            return
        if cached is not None:
            report.record(sim.now, "recover:stale-cache", gid, fid)
        if fid not in my_vols:
            with ctx.phase("input"):
                my_vols[fid] = load_fragment_pieces(
                    ctx, cfg, frag_pieces[fid], indexes, reliable=True
                )
        queries = [rec for _qi, rec in jobs]
        with ctx.phase("search"):
            blist, metas = search_loaded_pieces(
                ctx, cfg, engine, writer, queries, info, my_vols[fid], fid
            )
        my_cache[fid] = (batch_no, blist, metas)

    # ---- batch pipeline ------------------------------------------------
    def start_batch(b: int, jobs, write_req=None, serve=False, need=None):
        nonlocal batch
        batch = _Batch(
            b, jobs, my_fids if need is None else need,
            write_req=write_req, serve=serve,
        )
        batch.t0 = sim.now
        search_out.clear()

    def merge_batch() -> None:
        """All metas in: select per query, then fetch blocks
        (``replicate``) or report the pruned ranking (``shard``)."""
        nonlocal merge_acc, search_acc
        assert batch is not None
        search_acc += sim.now - batch.t0
        t0m = sim.now
        selected = []
        for i in range(len(batch.jobs)):
            ping_members()
            cand = [m for f in sorted(batch.got) for m in batch.got[f][i]]
            selected.append(
                select_metas(ctx, cost, cand, cfg.search.max_alignments)
            )
        merge_acc += sim.now - t0m
        batch.selected = selected
        if mode == "shard" and not batch.serve:
            finish_batch(selected)
            return
        batch.stage = "fetch"
        fetch_out.clear()
        for sel in selected:
            for m in sel:
                ctx.compute(cost.fetch_overhead_seconds())
                key = (m.owner_rank, m.local_id)
                if holder[m.owner_rank] == me:
                    inline_fresh(m.owner_rank, batch.no, batch.jobs)
                    batch.blocks[key] = my_cache[m.owner_rank][1][m.local_id]
                else:
                    batch.need_blocks.add(key)

    def finish_batch(payload_or_selected) -> None:
        """Archive the batch and queue its result/write for the
        coordinator."""
        nonlocal batch
        assert batch is not None
        b, jobs = batch.no, batch.jobs
        if batch.serve:
            # A service wave: the coordinator merges across groups and
            # renders, so ship the pruned metas together with their
            # already-rendered blocks.
            pairs = {
                qi: [
                    (m, batch.blocks[(m.owner_rank, m.local_id)])
                    for m in sel
                ]
                for (qi, _qrec), sel in zip(jobs, batch.selected)
            }
            done_batches[b] = {"pairs": pairs}
            payload = pairs
        elif mode == "shard":
            payload = payload_or_selected
            done_batches[b] = {"metas": payload}
        else:
            sections: dict[int, bytes] = {}
            for (qi, qrec), sel in zip(jobs, batch.selected):
                ping_members()
                parts = [header_bytes_for(writer, qrec, sel)]
                for m in sel:
                    parts.append(batch.blocks[(m.owner_rank, m.local_id)])
                parts.append(footer_bytes_for(writer, engine, qrec, info))
                sections[qi] = b"".join(parts)
            done_batches[b] = {
                "sections": sections,
                "sizes": {qi: len(s) for qi, s in sections.items()},
            }
            payload = done_batches[b]["sizes"]
        metrics.inc(None, "hier.batches_processed")
        if tracer is not None:
            tracer.span(
                EV_GROUP, me, batch.t0, sim.now,
                "serve" if batch.serve else "batch",
                gid, b, len(jobs),
            )
        write_req = batch.write_req
        batch = None
        if write_req is not None:
            do_replicate_write(b, *write_req)
        else:
            outbox.append(("result", (gid, b, payload)))

    def do_replicate_write(b: int, writes, epoch: int) -> None:
        t0w = sim.now
        sections = done_batches[b]["sections"]
        with ctx.phase("output"):
            for qi, off in writes:
                ping_members()
                write_output(ctx, cfg, off, sections[qi])
        written_local[b] = epoch
        outbox.append(("wrote", (gid, b, epoch)))
        if tracer is not None:
            tracer.span(
                EV_GROUP, me, t0w, sim.now, "write", gid, b, len(writes)
            )

    def finish_shard_write() -> None:
        nonlocal shard_write
        assert shard_write is not None
        b = shard_write.no
        with ctx.phase("output"):
            for key in sorted(shard_write.offs):
                ping_members()
                write_output(
                    ctx, cfg, shard_write.offs[key], shard_write.blocks[key]
                )
        written_local[b] = shard_write.epoch
        outbox.append(("wrote", (gid, b, shard_write.epoch)))
        if tracer is not None:
            tracer.span(
                EV_GROUP, me, shard_write.t0, sim.now, "write",
                gid, b, len(shard_write.offs),
            )
        shard_write = None

    def advance() -> None:
        """One unit of local progress per serve-loop iteration, so long
        local work keeps interleaving with worker/coordinator traffic."""
        nonlocal shard_write
        if batch is not None and batch.stage == "search":
            for fid in sorted(batch.need - set(batch.got)):
                if holder[fid] == me:
                    inline_fresh(fid, batch.no, batch.jobs)
                    batch.got[fid] = my_cache[fid][2]
                    return
            if batch.need <= set(batch.got):
                merge_batch()
                return
        if batch is not None and batch.stage == "fetch":
            if batch.need_blocks <= set(batch.blocks):
                finish_batch(None)
                return
            # Orphaned blocks whose holder became this rank re-search
            # in-line.
            for key in sorted(batch.need_blocks - set(batch.blocks)):
                if holder[key[0]] == me:
                    inline_fresh(key[0], batch.no, batch.jobs)
                    batch.blocks[key] = my_cache[key[0]][1][key[1]]
                    return
            return
        if shard_write is not None:
            if shard_write.need_blocks <= set(shard_write.blocks):
                finish_shard_write()
                return
            for key in sorted(shard_write.need_blocks - set(shard_write.blocks)):
                if holder[key[0]] == me:
                    inline_fresh(key[0], shard_write.no, shard_write.jobs)
                    shard_write.blocks[key] = (
                        my_cache[key[0]][1][key[1]]
                    )
                    return
            return
        if batch is None and writes_pending:
            b, jobs, writes, epoch = writes_pending[0]
            if written_local.get(b) == epoch:
                writes_pending.pop(0)
                outbox.append(("wrote", (gid, b, epoch)))
            elif mode == "shard":
                writes_pending.pop(0)
                shard_write = _ShardWrite(b, jobs, writes, epoch)
                shard_write.t0 = sim.now
                fetch_out.clear()
            elif b in done_batches:
                writes_pending.pop(0)
                do_replicate_write(b, writes, epoch)
            else:
                # Cold successor: re-derive the batch, then write it.
                writes_pending.pop(0)
                start_batch(b, jobs, write_req=(writes, epoch))

    # ---- coordinator replies ------------------------------------------
    def handle_reply(body) -> None:
        nonlocal done_flag, done_since, next_poll
        kind, data = body
        if kind == "ok":
            return
        if kind == "wait":
            next_poll = sim.now + data
            return
        if kind == "batch":
            b, jobs = data
            if b in done_batches:
                if mode == "shard":
                    outbox.append(
                        ("result", (gid, b, done_batches[b]["metas"]))
                    )
                else:
                    outbox.append(
                        ("result", (gid, b, done_batches[b]["sizes"]))
                    )
                return
            if batch is not None or shard_write is not None:
                return  # keepalive re-offer while busy
            if any(w[0] == b for w in writes_pending):
                return
            start_batch(b, jobs)
            return
        if kind == "serve":
            b, jobs, fids = data
            if b in done_batches:
                outbox.append(
                    ("result", (gid, b, done_batches[b]["pairs"]))
                )
                return
            if batch is not None or shard_write is not None:
                return  # keepalive re-offer while busy
            if any(w[0] == b for w in writes_pending):
                return
            start_batch(
                b, jobs, serve=True,
                need=my_fids if fids is None else fids,
            )
            return
        if kind == "load":
            fresh_fids = tuple(f for f in data if f not in my_fids)
            if fresh_fids:
                targets = sorted(alive) or [me]
                for i, f in enumerate(fresh_fids):
                    my_fids.add(f)
                    frag_pieces[f] = all_frags[f]
                    holder[f] = targets[i % len(targets)]
                report.record(
                    sim.now, "recover:load-fragments", gid, fresh_fids
                )
            # Ack the full request (idempotent under re-delivery); the
            # actual warm-load rides the members' adoption path.
            outbox.append(("loaded", (gid, tuple(data))))
            return
        if kind == "write":
            b, jobs, writes, epoch = data
            busy_with = {w[0] for w in writes_pending}
            if batch is not None and batch.write_req is not None:
                busy_with.add(batch.no)
            if shard_write is not None:
                busy_with.add(shard_write.no)
            if b not in busy_with:
                writes_pending.append((b, jobs, writes, epoch))
            return
        if kind == "done":
            done_flag = True
            done_since = sim.now
            return
        raise RuntimeError(f"unknown coordinator reply kind {kind!r}")

    # ---- worker requests ----------------------------------------------
    def fetch_consumer():
        if batch is not None and batch.stage == "fetch":
            return batch
        return shard_write

    def work_reply(w: int):
        now = sim.now
        if done_flag:
            return ("done", None)
        adopt = {
            fid: frag_pieces[fid]
            for fid in sorted(my_fids)
            if holder[fid] == w and fid not in holds.get(w, set())
        }
        if adopt:
            holds.setdefault(w, set()).update(adopt)
            return ("adopt", adopt)
        if batch is not None and batch.stage == "search":
            fids = sorted(
                f
                for f in batch.need - set(batch.got)
                if holder[f] == w and f not in search_out
            )
            if fids:
                dl = now + ft.search_timeout
                for f in fids:
                    search_out[f] = (w, dl)
                return ("search", (batch.no, batch.jobs, fids))
        tgt = fetch_consumer()
        if tgt is not None:
            inflight = set()
            for reqs, _dl in fetch_out.values():
                inflight |= reqs
            reqs = sorted(
                k
                for k in tgt.need_blocks - set(tgt.blocks)
                if holder[k[0]] == w and k not in inflight
            )
            if reqs:
                fetch_out[w] = (
                    set(reqs), now + ft.search_timeout + ft.write_timeout
                )
                return ("fetch", (tgt.no, tgt.jobs, reqs))
        return ("wait", ft.poll_backoff)

    def handle(w: int, kind: str, data: Any):
        if kind == "hello":
            assign = {
                fid: frag_pieces[fid]
                for fid in sorted(my_fids)
                if holder[fid] == w
            }
            holds[w] = set(assign)
            return ("setup", (info, index_bytes, assign))
        if kind == "work":
            return work_reply(w)
        if kind == "metas":
            b, by_fid = data
            holds.setdefault(w, set()).update(by_fid)
            if batch is not None and batch.no == b and batch.stage == "search":
                for fid, metas in by_fid.items():
                    if fid in batch.need and fid not in batch.got:
                        batch.got[fid] = metas
                    search_out.pop(fid, None)
            return ("ok", None)
        if kind == "blocks":
            b, blks = data
            tgt = fetch_consumer()
            if tgt is not None and tgt.no == b:
                for key, blk in blks:
                    if key in tgt.need_blocks:
                        tgt.blocks[key] = blk
            fetch_out.pop(w, None)
            return ("ok", None)
        raise RuntimeError(f"unknown group request kind {kind!r}")

    # ---- serve loop ----------------------------------------------------
    def busy_locally() -> bool:
        return (
            batch is not None
            or shard_write is not None
            or bool(writes_pending)
            or bool(outbox)
        )

    def give_up(status: str) -> str:
        nonlocal done_flag, done_since
        done_flag = True
        done_since = sim.now
        coord.cancel()
        report.record(sim.now, "detect:group-orphaned", gid, me)
        return status

    status = "submaster"
    while True:
        advance()
        # -- coordinator client step --
        if coord.request is None and not done_flag:
            if outbox:
                coord.send(*outbox.pop(0))
            elif sim.now >= next_poll:
                coord.send("work", (gid, 1 + len(alive)))
                next_poll = sim.now + ft.poll_backoff
        st = Status()
        t0 = sim.now
        msg = comm.recv_with_timeout(
            source=ANY_SOURCE, tag=ANY_TAG, timeout=ft.master_tick, status=st
        )
        dt = sim.now - t0
        if coord.request is not None and not busy_locally():
            coord_wait_acc += dt
        else:
            wait_acc += dt
        now = sim.now
        ping_members()
        check_deaths()
        ckpt.maybe_save(ckpt_state)
        # Coordinator-tracker upkeep runs every iteration: worker
        # traffic keeps the receive from timing out, but coordinator
        # death must still be detected by coordinator silence alone.
        if co.tick():
            if co.promoted:
                # Graceful departure: name a successor to every live
                # member before leaving for the coordinator role, or
                # the group only notices by silence — long after the
                # rest of the run may have finished (zombie successors
                # then walk the whole succession against exited ranks).
                successor = next(
                    (
                        w
                        for w in members[my_pos + 1:]
                        if w not in dead
                    ),
                    None,
                )
                if successor is not None:
                    hb.name(
                        successor,
                        [w for w in members[my_pos + 1:] if w not in dead],
                    )
                status = "promote-coordinator"
                break
            if not done_flag and ctx.fs.exists(done_marker):
                # The candidate advanced against a finished run; the
                # coordinator's tombstone says there is nothing left to
                # ask for.  Wind the group down instead of walking the
                # rest of the succession one silence window at a time.
                report.record(sim.now, "recover:done-marker", gid, me)
                done_flag = True
                done_since = sim.now
                coord.cancel()
            elif not coord.resend():
                status = give_up("orphaned")
        if co.exhausted and not done_flag:
            status = give_up("orphaned")
        if coord.overdue(now) and not co.promoted:
            if not coord.resend():
                status = give_up("orphaned")
        if done_flag and done_since is not None:
            if now - done_since > ft.linger:
                break
        if msg is TIMEOUT:
            continue
        if st.tag == TAG_HIER_PING:
            coord.ping(msg)
            continue
        if st.tag == TAG_HIER_REPLY:
            body = coord.match(msg, st.source)
            if body is not None:
                handle_reply(body)
            continue
        if st.tag == TAG_GRP_PING:
            if server.outranked_by(msg):
                report.record(sim.now, "recover:abdicate-submaster", gid, me, msg)
                status = "abdicated"
                break
            continue
        if st.tag != TAG_GRP_REQ:
            continue
        w = msg[0]
        if w in dead:
            revive(w)
        last_seen[w] = now
        server.serve_request(msg, handle)

    g = f"hier.group.g{gid}."
    metrics.set_gauge(None, g + "wait_s", wait_acc)
    metrics.set_gauge(None, g + "coord_wait_s", coord_wait_acc)
    metrics.set_gauge(None, g + "search_s", search_acc)
    metrics.set_gauge(None, g + "merge_s", merge_acc)
    return status


# ----------------------------------------------------------------------
# group member (worker)
# ----------------------------------------------------------------------
def run_group_member(
    ctx: ProcContext,
    cfg: ParallelConfig,
    hcfg,
    topo: HierTopology,
    gid: int,
) -> str:
    """Pull-RPC worker inside one group; mirrors the flat FT worker.

    Returns its status string; on in-group promotion it *becomes* the
    sub-master — and thereby a live coordinator candidate, since the
    coordinator succession list admits every member rank in group
    order (see :meth:`HierTopology.coordinator_succession`).
    """
    cost, ft = cfg.cost, cfg.ft
    report = ctx.fault_report
    group = topo.groups[gid]
    rpc = PullClient(
        ctx, ft, FailoverTracker(ctx, ft, succession=list(group.members)),
        GROUP, done_marker=done_marker_path(cfg),
    ).call
    held = HeldState()

    def load(fid: int, pieces) -> None:
        held.pieces[fid] = pieces
        with ctx.phase("input"):
            held.vols[fid] = load_fragment_pieces(
                ctx, cfg, pieces, indexes, reliable=True
            )

    def fresh(fid: int, batch_no: int, jobs) -> None:
        cached = held.cache.get(fid)
        if cached is not None and cached[0] == batch_no:
            return
        if cached is not None:
            report.record(
                ctx.engine.now, "recover:stale-cache", gid, fid
            )
        queries = [rec for _qi, rec in jobs]
        with ctx.phase("search"):
            blist, metas = search_loaded_pieces(
                ctx, cfg, engine, writer, queries, info, held.vols[fid], fid
            )
        held.cache[fid] = (batch_no, blist, metas)

    try:
        body = rpc("hello")
        while body[0] != "setup":
            # A successor sub-master may answer the first poll with
            # "wait" before it can serve setup; keep asking.
            kind, data = body
            if kind == "wait":
                ctx.engine.sleep(data)
            elif kind == "done":
                return "done"
            body = rpc("hello")
        info, index_bytes, assign = body[1]
        ctx.compute(cost.init_seconds())
        indexes = {
            base: parse_index(data) for base, data in index_bytes.items()
        }
        engine = BlastSearch(cfg.search)
        writer = writer_for(engine, info)
        for fid in sorted(assign):
            load(fid, assign[fid])

        while True:
            kind, data = rpc("work")
            if kind == "wait":
                ctx.engine.sleep(data)
            elif kind == "done":
                return "done"
            elif kind == "adopt":
                for fid in sorted(data):
                    if fid not in held.vols:
                        load(fid, data[fid])
            elif kind == "search":
                b, jobs, fids = data
                by_fid = {}
                for fid in fids:
                    if fid not in held.vols:
                        continue  # raced an adoption; sub-master re-homes
                    fresh(fid, b, jobs)
                    by_fid[fid] = held.cache[fid][2]
                rpc("metas", (b, by_fid))
            elif kind == "fetch":
                b, jobs, reqs = data
                out = []
                for fid in sorted({fid for fid, _lid in reqs}):
                    if fid not in held.vols:
                        continue
                    fresh(fid, b, jobs)
                for fid, lid in reqs:
                    if fid in held.cache and held.cache[fid][0] == b:
                        out.append(((fid, lid), held.cache[fid][1][lid]))
                rpc("blocks", (b, out))
            else:  # pragma: no cover - protocol error
                raise RuntimeError(f"unknown group reply kind {kind!r}")
    except Promoted:
        status = run_group_master(ctx, cfg, hcfg, topo, gid, held=held)
        return f"promoted:{status}"
    except Orphaned:
        return "orphaned"
