"""pioBLAST: the paper's optimized parallel BLAST (§3).

The four techniques, all implemented here (parallel input and
collective output can be switched off for the ablation benchmarks via
:class:`repro.parallel.config.ParallelConfig`):

1. **Dynamic virtual partitioning** (§3.1) — the master reads only the
   global index, computes ``(start, end)`` byte ranges per fragment, and
   scatters them; no physical fragments exist.
2. **Parallel input** (§3.1) — each worker reads its byte ranges of the
   global ``.xhr``/``.xsq`` with individual MPI-IO reads, concurrently,
   into memory buffers; the search kernel runs on those buffers.
3. **Result caching + metadata-only merging** (§3.2) — workers render
   their alignment output blocks into memory as results are produced and
   submit only (ids, scores, block sizes) to the master; alignment data
   never makes a round trip.
4. **Parallel collective output** (§3.3) — the master computes every
   block's byte offset in the single output file, distributes offsets,
   and all ranks write their pieces with one collective MPI-IO
   ``write_at_all`` (the master contributes the preamble, per-query
   headers and footers).

§5 extensions (off by default, used by the extension benchmarks):
early-score pruning — an allreduce of per-query score cut lines before
metadata submission — and adaptive granularity (more virtual fragments
than workers, assigned from a work queue).

**Fault tolerance** (``config.fault_tolerance`` or a ``faults`` plan):
the collective data-flow above deadlocks the moment any rank dies inside
a broadcast, gather or collective write, so the FT driver replaces it
with a pull-style RPC protocol (see FAULTS.md):

- workers drive everything through idempotent, sequence-numbered RPCs on
  ``TAG_FT_REQ``/``TAG_FT_REPLY`` (the master caches its last reply per
  worker, so dropped requests *or* replies are healed by resending);
- the master detects death by silence (per-worker timeouts), requeues a
  dead worker's fragment to the survivors, and has surviving workers
  re-search fragments whose cached output blocks died with their owner;
- output uses individual reliable writes at master-computed offsets
  (never a collective — a collective cannot complete with dead ranks);
  because rendering is deterministic, a re-searching worker regenerates
  byte-identical blocks and the final file equals the fault-free one;
- if *every* worker dies, the master degrades gracefully: it writes a
  report over the fragments it can still account for and records the
  rest in ``FaultReport.missing_fragments``.
"""

from __future__ import annotations

from bisect import insort
from typing import Any

from repro.blast.engine import BlastSearch
from repro.parallel.assignment import GreedyAssigner
from repro.parallel.common import (
    GlobalDbInfo,
    layout_query_section,
    parse_index,
    read_queries_bytes,
    reliable_read,
    search_fragment_timed,
    write_output,
    writer_for,
)
from repro.parallel.checkpoint import CheckpointStore, FailoverTracker
from repro.parallel.config import ParallelConfig
from repro.blast.formatdb import DatabaseVolume
from repro.parallel.fragments import VolumePiece
from repro.parallel.pruning import prune_metas, score_cutlines
from repro.parallel.pullrpc import (
    PIO_FT,
    TAG_TABLE,
    Heartbeat,
    LivenessTable,
    Orphaned,
    Promoted,
    PullClient,
    PullServer,
)
from repro.parallel.results import AlignmentMeta, meta_from_alignment, select_metas
from repro.parallel.warmdb import (
    check_fingerprint,
    fingerprint_database,
    load_fragment_pieces,
    partition_database,
    search_loaded_pieces,
)
from repro.simmpi import (
    FileStore,
    FileView,
    MPIFile,
    PlatformSpec,
    ProcContext,
    RunResult,
)
from repro.simmpi.faults import FaultPlan
from repro.simmpi.launcher import run

TAG_SELECT = TAG_TABLE["pioblast.SELECT"]
TAG_FETCH = TAG_TABLE["pioblast.FETCH"]
TAG_FETCHRESP = TAG_TABLE["pioblast.FETCHRESP"]
TAG_WQ_REQ = TAG_TABLE["pioblast.WQ_REQ"]
TAG_WQ_ASSIGN = TAG_TABLE["pioblast.WQ_ASSIGN"]

# Fault-tolerant pull-RPC channel (see repro.parallel.pullrpc / FAULTS.md).
TAG_FT_REQ, TAG_FT_REPLY, TAG_FT_PING = PIO_FT

NO_MORE_WORK = -1


def _worker_fragments(
    ctx: ProcContext, cfg: ParallelConfig, frags: list[list[VolumePiece]]
) -> list[list[VolumePiece]]:
    """Fragments this worker searches (each a list of volume pieces).

    Natural partitioning: fragment ``rank-1`` (one per worker).  With
    more fragments than workers (adaptive granularity), the master runs
    a small work queue over the fragment list.
    """
    comm = ctx.comm
    nworkers = ctx.size - 1
    if len(frags) == nworkers and not cfg.adaptive_granularity:
        return [frags[ctx.rank - 1]]
    # Work queue: request fragments until exhausted.
    mine: list[list[VolumePiece]] = []
    while True:
        comm.send(ctx.rank, dest=0, tag=TAG_WQ_REQ)
        fid = comm.recv(source=0, tag=TAG_WQ_ASSIGN)
        if fid == NO_MORE_WORK:
            return mine
        mine.append(frags[fid])


def _master_work_queue(ctx: ProcContext, nfrags: int) -> None:
    comm = ctx.comm
    nworkers = ctx.size - 1
    next_frag = 0
    released = 0
    while released < nworkers:
        w = comm.recv(source=-1, tag=TAG_WQ_REQ)
        if next_frag < nfrags:
            comm.send(next_frag, dest=w, tag=TAG_WQ_ASSIGN)
            next_frag += 1
        else:
            comm.send(NO_MORE_WORK, dest=w, tag=TAG_WQ_ASSIGN)
            released += 1


def _master(ctx: ProcContext, cfg: ParallelConfig) -> None:
    comm = ctx.comm
    cost = cfg.cost
    nworkers = ctx.size - 1
    nfrag = cfg.fragments_for(nworkers)
    if cfg.adaptive_granularity and cfg.num_fragments == 0:
        nfrag = 2 * nworkers
    ctx.compute(cost.init_seconds())

    # ---- setup: queries + dynamic partitioning from the global index ----
    qdata = ctx.fs.read(
        cfg.query_path, charge_bytes=cost.wire_bytes(ctx.fs.size(cfg.query_path))
    )
    queries = read_queries_bytes(qdata)
    # Multi-volume databases (the 11 GB nt case, paper §4): read every
    # volume's index and partition over the concatenated space.
    info, frags, index_bytes = partition_database(ctx, cfg, nfrag)
    comm.bcast((queries, info, frags, index_bytes), root=0)
    # Multi-round runs keep using the fragment map across rounds; pin
    # the volume layout it was computed from (see repro.parallel.warmdb).
    batches = cfg.query_batches(len(queries))
    db_fp = (
        fingerprint_database(ctx.fs.store, cfg.db_name)
        if len(batches) > 1 else None
    )

    engine = BlastSearch(cfg.search)
    writer = writer_for(engine, info)

    # Adaptive granularity: drive the fragment work queue.
    if len(frags) != nworkers or cfg.adaptive_granularity:
        _master_work_queue(ctx, len(frags))

    # ---- merge + output, one round per query batch (§5 batching) ----
    offset = 0
    for batch_no, (qlo, qhi) in enumerate(batches):
        if db_fp is not None and batch_no > 0:
            check_fingerprint(
                ctx.fs.store, db_fp, where=f"query batch {batch_no}"
            )
        if cfg.early_score_pruning:
            comm.allreduce(
                {},
                op=lambda a, b: score_cutlines(
                    a, b, cfg.search.max_alignments
                ),
            )
        gathered = comm.gatherv(None, root=0)
        per_query: list[list[AlignmentMeta]] = [[] for _ in range(qhi - qlo)]
        for worker_metas in gathered:
            if not worker_metas:
                continue
            for qi, metas in enumerate(worker_metas):
                per_query[qi].extend(metas)

        with ctx.phase("output"):
            master_regions: list[tuple[int, int]] = []
            master_buffers: list[bytes] = []
            if batch_no == 0:
                pre = writer.preamble()
                master_regions.append((0, len(pre)))
                master_buffers.append(pre)
                offset = len(pre)
            selections: dict[int, list[tuple[int, int]]] = {
                w: [] for w in range(1, ctx.size)
            }  # worker -> [(local_id, file offset)]
            for qi in range(qhi - qlo):
                qrec = queries[qlo + qi]
                selected = select_metas(
                    ctx, cost, per_query[qi], cfg.search.max_alignments
                )
                header, placed, footer, end = layout_query_section(
                    writer, engine, qrec, selected, info, offset
                )
                master_regions.append((offset, len(header)))
                master_buffers.append(header)
                for m, boff in placed:
                    selections[m.owner_rank].append((m.local_id, boff))
                master_regions.append((end - len(footer), len(footer)))
                master_buffers.append(footer)
                offset = end

            if cfg.collective_output:
                # Notify workers of their selected blocks + offsets.
                for w in range(1, ctx.size):
                    comm.send(selections[w], dest=w, tag=TAG_SELECT)
                f = MPIFile(comm, ctx.fs, cfg.output_path)
                f.set_view(FileView(regions=master_regions))
                f.write_at_all(master_buffers, data_scale=cost.data_scale)
            else:
                # Ablation: master-serialized writing of worker blocks
                # (the mpiBLAST output path, but with cached blocks:
                # isolates collective I/O from caching).
                for w in range(1, ctx.size):
                    comm.send(selections[w], dest=w, tag=TAG_SELECT)
                for region, buf in zip(master_regions, master_buffers):
                    ctx.fs.write(
                        cfg.output_path,
                        region[0],
                        buf,
                        charge_bytes=cost.wire_bytes(len(buf)),
                    )
                for w in range(1, ctx.size):
                    for local_id, off in selections[w]:
                        ctx.compute(cost.fetch_overhead_seconds())
                        comm.send((local_id,), dest=w, tag=TAG_FETCH)
                        block: bytes = comm.recv(source=w, tag=TAG_FETCHRESP)
                        ctx.fs.write(
                            cfg.output_path,
                            off,
                            block,
                            charge_bytes=cost.wire_bytes(len(block)),
                        )
                    comm.send(None, dest=w, tag=TAG_FETCH)


def _worker(ctx: ProcContext, cfg: ParallelConfig) -> None:
    comm = ctx.comm
    cost = cfg.cost
    queries, info, frags, index_bytes = comm.bcast(None, root=0)
    ctx.compute(cost.init_seconds())
    indexes = {base: parse_index(data) for base, data in index_bytes.items()}
    engine = BlastSearch(cfg.search)

    mine = _worker_fragments(ctx, cfg, frags)

    # ---- parallel input: read my byte ranges of the global files ----
    # One fragment is a list of volume pieces; multi-volume fragments
    # read from several global files (the paper's §4 extension).
    loaded: list[list[tuple[VolumePiece, DatabaseVolume]]] = []
    with ctx.phase("input"):
        for pieces in mine:
            loaded.append(load_fragment_pieces(ctx, cfg, pieces, indexes))

    # ---- per-batch rounds: search → cache → merge → write (§5) ----
    # The cache lives for one round only, bounding worker memory to one
    # batch of results; each round ends in one collective write.
    writer = writer_for(engine, info)
    flat_pieces = [pv for frag_vols in loaded for pv in frag_vols]
    for qlo, qhi in cfg.query_batches(len(queries)):
        batch = queries[qlo:qhi]
        cache: list[bytes] = []
        metas_per_query: list[list[AlignmentMeta]] = [[] for _ in batch]
        with ctx.phase("search"):
            for piece, volume in flat_pieces:
                per_query = search_fragment_timed(
                    ctx, engine, batch, volume, info, piece.global_base,
                    cost,
                )
                for qi, als in enumerate(per_query):
                    for al in als:
                        local_id = len(cache)
                        block = writer.alignment_block(al)
                        ctx.compute(cost.render_seconds(len(block)))
                        cache.append(block)
                        metas_per_query[qi].append(
                            meta_from_alignment(
                                al, ctx.rank, local_id, len(block)
                            )
                        )

        # §5 extension: early score communication + local pruning.
        if cfg.early_score_pruning:
            local_cuts = {
                qi: sorted((m.score for m in metas), reverse=True)
                for qi, metas in enumerate(metas_per_query)
                if metas
            }
            cuts = comm.allreduce(
                local_cuts,
                op=lambda a, b: score_cutlines(
                    a, b, cfg.search.max_alignments
                ),
            )
            metas_per_query = prune_metas(
                metas_per_query, cuts, cfg.search.max_alignments
            )

        # Submit metadata only.
        comm.gatherv(metas_per_query, root=0)

        # Waiting for the master's selection is idle time, not output
        # work; the phase starts once this worker has blocks to write.
        selections: list[tuple[int, int]] = comm.recv(
            source=0, tag=TAG_SELECT
        )
        with ctx.phase("output"):
            if cfg.collective_output:
                regions = []
                buffers = []
                for local_id, off in selections:
                    block = cache[local_id]
                    regions.append((off, len(block)))
                    buffers.append(block)
                f = MPIFile(comm, ctx.fs, cfg.output_path)
                f.set_view(FileView(regions=regions))
                f.write_at_all(buffers, data_scale=cost.data_scale)
            else:
                while True:
                    req = comm.recv(source=0, tag=TAG_FETCH)
                    if req is None:
                        break
                    (local_id,) = req
                    block = cache[local_id]
                    comm.send(
                        block,
                        dest=0,
                        tag=TAG_FETCHRESP,
                        nbytes=cost.wire_bytes(len(block)),
                    )


# ======================================================================
# Fault-tolerant driver (pull-RPC scheduling; see module docstring)
# ======================================================================
#
# Protocol.  Workers and master speak repro.parallel.pullrpc on the
# PIO_FT channel: idempotent sequence-numbered requests, a reply cache on
# the master, heartbeat pings.  This driver's message kinds:
#
# Request kinds           Reply bodies
#   ("hello",  None)        ("setup",  (queries, info, frags, indexes))
#   ("work",   None)        ("frag", fid) | ("wait", dt)
#                           | ("select", (round, [(fid, lid, off)...]))
#                           | ("done", None)
#   ("result", (fid, metas))("ok", None)
#   ("wrote",  (round, fids))("ok", None)
#
# In FT mode ``AlignmentMeta.owner_rank`` carries the *fragment id*, not
# a rank: block ownership is dynamic (any worker that searched the
# fragment holds byte-identical rendered blocks, because rendering is
# deterministic), so the master maps fragment → current holder at output
# time and can re-home writes when a holder dies.
#
# Master failover (see repro.parallel.checkpoint).  The master — rank 0
# initially — heartbeats on TAG_FT_PING during long silent passes and
# checkpoints its scheduler state crash-consistently.  Workers route
# RPCs to the rank they currently believe is master; silence longer
# than ``FTParams.failover_silence`` advances the candidate, and the
# lowest surviving worker promotes itself: it restores the newest valid
# checkpoint, seeds the fragments it searched itself (its cached blocks
# are written by the master in-line during output rounds), re-runs the
# death sweep, and serves the same protocol.  A promoted master's first
# ping doubles as the new-master announcement.


def _ft_setup(ctx: ProcContext, cfg: ParallelConfig):
    """Read queries + indexes, partition (same logic as `_master`)."""
    cost = cfg.cost
    nworkers = ctx.size - 1
    nfrag = cfg.fragments_for(nworkers)
    qdata = reliable_read(
        ctx, cfg.ft, cfg.query_path,
        charge_bytes=cost.wire_bytes(ctx.fs.size(cfg.query_path)),
    )
    queries = read_queries_bytes(qdata)
    info, frags, index_bytes = partition_database(
        ctx, cfg, nfrag, reliable=True
    )
    return queries, info, frags, index_bytes


def _ft_master(
    ctx: ProcContext,
    cfg: ParallelConfig,
    *,
    setup: Any = None,
    held_blocks: dict[int, list[bytes]] | None = None,
    held_metas: dict[int, list[list[AlignmentMeta]]] | None = None,
) -> None:
    """Serve the FT protocol as master.

    Rank 0 enters with defaults; a *promoted* worker passes the setup
    blob it got at hello (None if it never completed hello), plus the
    blocks and metas of the fragments it searched itself — the new
    master writes those blocks in-line at output time, so they are
    never re-searched.
    """
    cost, ft = cfg.cost, cfg.ft
    sim = ctx.engine
    report = ctx.fault_report
    me = ctx.rank
    promoted = me != 0
    nfrag = cfg.fragments_for(ctx.size - 1)
    ckpt = CheckpointStore(
        ctx, cfg.checkpoint_dir,
        interval=cfg.checkpoint_interval, io_attempts=ft.io_attempts,
    )
    ping_workers = Heartbeat(ctx, ft, TAG_FT_PING).beat
    if promoted:
        report.record(sim.now, "recover:promote-master", me)
        # Announce before doing anything slow (cold setup, checkpoint
        # restore): the announcement resets every survivor's silence
        # clock, heading off a second spurious succession.
        ping_workers(force=True)
    if setup is None:
        ctx.compute(cost.init_seconds())
        setup = _ft_setup(ctx, cfg)
    queries, info, frags, index_bytes = setup
    setup_blob = setup
    engine = BlastSearch(cfg.search)
    writer = writer_for(engine, info)
    out = cfg.output_path
    my_blocks = held_blocks if held_blocks is not None else {}

    # ---- scheduler state ------------------------------------------------
    # A promoted master starts every other rank as presumed-alive with a
    # fresh liveness window: the standard death sweep below then re-runs
    # against reality and re-detects the genuinely dead ones.
    live = LivenessTable((r for r in range(1, ctx.size) if r != me), sim.now)
    assigned: dict[int, int] = {}        # worker -> fid being (re)searched
    assigner = GreedyAssigner(nfrag)     # first-search queue
    research: list[int] = []             # completed fids needing re-search
    frag_results: dict[int, list[list[AlignmentMeta]]] = {}
    holders: dict[int, set[int]] = {f: set() for f in range(nfrag)}
    state = "search"
    # output-phase state
    out_round = 0
    pending: set[int] = set()            # fids with unconfirmed blocks
    dispatched: dict[int, tuple[int, float]] = {}  # fid -> (worker, t)
    current_sels: dict[int, list[tuple[int, int]]] = {}

    # ---- restore (promoted master only) ---------------------------------
    if promoted:
        snap = ckpt.load_latest()
        if snap is not None:
            for fid, metas in snap["frag_results"].items():
                frag_results[fid] = metas
                assigner.mark_completed(fid)
            for fid, hs in snap["holders"].items():
                holders[fid] |= {h for h in hs if h != me}
        for fid, metas in (held_metas or {}).items():
            if fid not in frag_results:
                frag_results[fid] = metas
                assigner.mark_completed(fid)

    # ---- helpers --------------------------------------------------------
    def writable_now() -> set[int]:
        """Fragments an output round can cover right now."""
        if live.alive:
            return set(frag_results)  # survivors can re-search the rest
        return {f for f in frag_results if f in my_blocks}

    def ckpt_state() -> dict:
        return {
            "driver": "pioblast",
            "frag_results": {
                f: frag_results[f] for f in sorted(frag_results)
            },
            "holders": {
                f: tuple(sorted(hs))
                for f, hs in sorted(holders.items())
                if hs
            },
        }

    def compute_layout(writable: set[int]):
        """Offsets for master pieces + worker blocks over ``writable``."""
        per_query: list[list[AlignmentMeta]] = [[] for _ in queries]
        for fid in sorted(writable):
            for qi, metas in enumerate(frag_results[fid]):
                per_query[qi].extend(metas)
        pieces: list[tuple[int, bytes]] = []
        sel_by_fid: dict[int, list[tuple[int, int]]] = {}
        pre = writer.preamble()
        pieces.append((0, pre))
        off = len(pre)
        for qi, qrec in enumerate(queries):
            ping_workers()
            selected = select_metas(
                ctx, cost, per_query[qi], cfg.search.max_alignments
            )
            header, placed, footer, end = layout_query_section(
                writer, engine, qrec, selected, info, off
            )
            pieces.append((off, header))
            for m, boff in placed:
                # owner_rank carries the fragment id in FT mode
                sel_by_fid.setdefault(m.owner_rank, []).append(
                    (m.local_id, boff)
                )
            pieces.append((end - len(footer), footer))
            off = end
        return pieces, sel_by_fid

    def start_output_round(writable: set[int]) -> None:
        nonlocal out_round, pending, dispatched, current_sels
        out_round += 1
        missing = sorted(set(range(nfrag)) - writable)
        if missing:
            report.degraded = True
            report.missing_fragments = missing
            report.record(sim.now, "detect:degraded", tuple(missing))
        pieces, current_sels = compute_layout(writable)
        # Relayouts shrink the file; rewrite it from scratch so no stale
        # tail bytes from an earlier, larger layout survive.
        ctx.fs.delete(out)
        with ctx.phase("output"):
            for off, buf in pieces:
                ping_workers()
                write_output(ctx, cfg, off, buf)
            # A promoted master writes its own cached blocks in-line: no
            # worker holds them (and re-searching them would waste work).
            for fid in sorted(current_sels):
                if fid not in my_blocks or not current_sels[fid]:
                    continue
                for lid, off in current_sels[fid]:
                    ping_workers()
                    write_output(ctx, cfg, off, my_blocks[fid][lid])
                report.record(sim.now, "recover:master-held-write", fid)
        pending = {
            f for f, sels in current_sels.items()
            if sels and f not in my_blocks
        }
        dispatched = {}
        ensure_progress()

    def queue_research(fid: int) -> None:
        if fid not in research and fid not in assigned.values():
            insort(research, fid)
            report.record(sim.now, "recover:research", fid)

    def ensure_progress() -> None:
        """Every pending fid must have a live holder or be re-queued."""
        if state != "output":
            return
        for fid in sorted(pending):
            if fid in dispatched or (holders[fid] & live.alive):
                continue
            queue_research(fid)

    def worker_lost(w: int, quiet: float, owes_write: bool) -> None:
        """Recover from ``w``, which the sweep has just declared dead."""
        why = "search-timeout" if w in assigned else "silent"
        if owes_write and quiet > ft.write_timeout:
            why = "write-timeout"
        report.record(sim.now, "detect:worker-dead", w, why)
        assigner.drop_worker(w)
        for fid in holders:
            holders[fid].discard(w)
        fid = assigned.pop(w, None)
        if fid is not None:
            if fid not in frag_results:
                if assigner.requeue(fid):
                    report.record(sim.now, "recover:requeue", fid, w)
            elif state == "output" and fid in pending:
                queue_research(fid)
        for dfid, (dw, _t) in list(dispatched.items()):
            if dw == w:
                dispatched.pop(dfid)
                report.record(sim.now, "recover:rehome-write", dfid, w)
        ensure_progress()

    def work_reply(w: int):
        nonlocal state
        now = sim.now
        if state == "search":
            fid = assigner.assign(w)
            if fid is not None:
                assigned[w] = fid
                return ("frag", fid)
            if len(frag_results) == nfrag:
                state = "output"
                start_output_round(set(frag_results))
                return work_reply(w)
            return ("wait", ft.poll_backoff)
        # output state
        if research:
            fid = research.pop(0)
            assigned[w] = fid
            return ("frag", fid)
        fid = assigner.assign(w)  # degraded entry may leave first-search work
        if fid is not None:
            assigned[w] = fid
            return ("frag", fid)
        sels: list[tuple[int, int, int]] = []
        mine: list[int] = []
        for fid in sorted(pending):
            if fid in dispatched:
                continue
            if w in holders[fid]:
                mine.append(fid)
                sels.extend(
                    (fid, lid, off) for lid, off in current_sels[fid]
                )
        if mine:
            for fid in mine:
                dispatched[fid] = (w, now)
            return ("select", (out_round, sels))
        if pending:
            return ("wait", ft.poll_backoff)
        return ("done", None)

    def handle(w: int, kind: str, data: Any):
        nonlocal state
        if kind == "hello":
            return ("setup", setup_blob)
        if kind == "result":
            fid, metas = data
            holders[fid].add(w)
            if assigned.get(w) == fid:
                assigned.pop(w)
            if fid not in frag_results:
                frag_results[fid] = metas
                assigner.mark_completed(fid)
            else:
                report.record(sim.now, "recover:dup-result", fid, w)
            if state == "search" and len(frag_results) == nfrag:
                state = "output"
                start_output_round(set(frag_results))
            return ("ok", None)
        if kind == "wrote":
            round_no, fids = data
            if round_no == out_round:
                for fid in fids:
                    dw, _t = dispatched.get(fid, (None, 0.0))
                    if dw == w:
                        dispatched.pop(fid)
                        pending.discard(fid)
            return ("ok", None)
        if kind == "work":
            return work_reply(w)
        raise RuntimeError(f"unknown FT request kind {kind!r}")

    # ---- serve loop -----------------------------------------------------
    if promoted:
        # Announce the new master immediately: surviving workers adopt
        # it on the first ping instead of waiting out failover_silence.
        ping_workers(force=True)
    server = PullServer(ctx, ft, PIO_FT, range(ctx.size))
    # Silence limit by whether the worker owes a write (then
    # write_timeout, if shorter).
    limits = (ft.search_timeout, min(ft.write_timeout, ft.search_timeout))

    def on_tick(request, now: float) -> None:
        if request is not None:
            if live.heard(request[0], now):
                report.record(sim.now, "recover:revive", request[0])
                ensure_progress()
        writing = {dw for dw, _t in dispatched.values()}
        for w, quiet in live.sweep(sim.now, lambda w: limits[w in writing]):
            worker_lost(w, quiet, w in writing)
        ping_workers()
        ckpt.maybe_save(ckpt_state)

    def on_idle(now: float) -> bool:
        nonlocal state
        if state == "search" and not live.alive:
            # Degraded: nobody left to search the missing fragments
            # (a promoted master can still write its own blocks).
            state = "output"
            start_output_round(writable_now())
        elif state == "output" and not live.alive and pending:
            # Everyone died mid-output: shrink to what the master
            # can write alone.
            start_output_round(writable_now())
        return (
            state == "output" and not pending and not research
            and server.lingered(now)
        )

    if server.serve(
        on_tick=on_tick, on_idle=on_idle, on_request=handle
    ) is not None:
        return  # abdicated: the successor rewrites the output from scratch

    # Final accounting: fragments the report never saw results for.
    missing = sorted(set(range(nfrag)) - set(frag_results))
    if missing and not report.missing_fragments:
        report.degraded = True
        report.missing_fragments = missing


def _ft_search_fragment(
    ctx: ProcContext,
    cfg: ParallelConfig,
    engine: BlastSearch,
    writer,
    queries,
    info: GlobalDbInfo,
    indexes,
    pieces: list[VolumePiece],
    fid: int,
    blocks: dict[int, list[bytes]],
) -> list[list[AlignmentMeta]]:
    """Load + search one fragment; cache rendered blocks under ``fid``.

    Local ids are indices into the fragment's own block list, so any
    worker that searches ``fid`` produces the same (deterministic)
    blocks under the same ids — the property that lets the master
    re-home output writes after a death.
    """
    with ctx.phase("input"):
        frag_vols = load_fragment_pieces(
            ctx, cfg, pieces, indexes, reliable=True
        )
    with ctx.phase("search"):
        blist, metas_per_query = search_loaded_pieces(
            ctx, cfg, engine, writer, queries, info, frag_vols, fid
        )
    blocks[fid] = blist
    return metas_per_query


def _ft_worker(ctx: ProcContext, cfg: ParallelConfig) -> str:
    comm, cost, ft = ctx.comm, cfg.cost, cfg.ft
    report = ctx.fault_report
    rpc = PullClient(ctx, ft, FailoverTracker(ctx, ft), PIO_FT).call
    setup: Any = None
    blocks: dict[int, list[bytes]] = {}
    my_metas: dict[int, list[list[AlignmentMeta]]] = {}
    try:
        setup = rpc("hello")[1]
        queries, info, frags, index_bytes = setup
        ctx.compute(cost.init_seconds())
        indexes = {
            base: parse_index(data) for base, data in index_bytes.items()
        }
        engine = BlastSearch(cfg.search)
        writer = writer_for(engine, info)

        while True:
            kind, data = rpc("work")
            if kind == "wait":
                ctx.engine.sleep(data)
            elif kind == "done":
                return "done"
            elif kind == "frag":
                fid = data
                metas = _ft_search_fragment(
                    ctx, cfg, engine, writer, queries, info, indexes,
                    frags[fid], fid, blocks,
                )
                my_metas[fid] = metas
                rpc("result", (fid, metas))
            elif kind == "select":
                round_no, sels = data
                with ctx.phase("output"):
                    f = MPIFile(comm, ctx.fs, cfg.output_path)
                    for fid, lid, off in sels:
                        blk = blocks[fid][lid]
                        f.write_at_reliable(
                            off, blk,
                            charge_bytes=cost.wire_bytes(len(blk)),
                            attempts=ft.io_attempts, report=report,
                        )
                fids = tuple(sorted({fid for fid, _lid, _off in sels}))
                rpc("wrote", (round_no, fids))
            else:  # pragma: no cover - protocol error
                raise RuntimeError(f"unknown FT reply kind {kind!r}")
    except Promoted:
        # Become the master: restore + serve (see _ft_master).
        _ft_master(
            ctx, cfg, setup=setup, held_blocks=blocks, held_metas=my_metas
        )
        return "promoted-master"
    except Orphaned:
        return "orphaned"


def _program(ctx: ProcContext) -> Any:
    cfg: ParallelConfig = ctx.args["config"]
    if ctx.args.get("ft"):
        if ctx.rank == 0:
            _ft_master(ctx, cfg)
        else:
            return _ft_worker(ctx, cfg)
        return None
    if ctx.rank == 0:
        _master(ctx, cfg)
    else:
        _worker(ctx, cfg)
    return None


def run_pioblast(
    nprocs: int,
    store: FileStore,
    config: ParallelConfig,
    platform: PlatformSpec | None = None,
    *,
    faults: FaultPlan | None = None,
    tracer=None,
    on_cluster=None,
) -> RunResult:
    """Run pioBLAST on a simulated cluster.

    ``store`` needs only the *global* formatted database and the query
    file — no pre-partitioning (that is the point).  The report lands at
    ``config.output_path``, byte-identical to the serial reference.

    Passing a ``faults`` plan (or setting ``config.fault_tolerance``)
    switches to the fault-tolerant pull-RPC driver, which survives
    worker crashes, control-message drops and transient I/O errors; the
    resulting :class:`repro.simmpi.FaultReport` is attached to the
    returned :class:`RunResult`.
    """
    if nprocs < 2:
        raise ValueError("pioBLAST needs a master and at least one worker")
    ft_mode = config.fault_tolerance or faults is not None
    if ft_mode and config.query_batch > 0:
        raise ValueError(
            "query_batch is not supported by the fault-tolerant pioBLAST "
            "driver (the pull-RPC scheduler assigns whole fragments); "
            "set query_batch=0 or run without faults/fault_tolerance"
        )
    return run(
        nprocs,
        _program,
        platform,
        shared_store=store,
        args={"config": config, "ft": ft_mode},
        faults=faults,
        tracer=tracer,
        on_cluster=on_cluster,
    )
