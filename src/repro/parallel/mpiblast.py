"""mpiBLAST 1.2.1 data-flow reproduction (the paper's baseline).

Master/worker organisation per the paper §2.2 and §3.2:

1. The database was *pre-partitioned* into physical fragments by
   ``mpiformatdb`` (outside this run — its cost is the operational
   overhead the paper §3.1 criticises).
2. The master broadcasts the query set, then greedily assigns
   un-searched fragments to idle workers.
3. A worker **copies** its fragment from shared storage to local
   storage (on the Altix, which exposes no user local disks, the copy
   target is shared job scratch — §4.1), then **searches** it with the
   real BLAST kernel, memory-mapping the local copy (the load is
   charged inside the search phase, as mpiBLAST's mmap I/O is).
4. The worker ships per-query result *metadata* to the master and keeps
   alignment data locally.
5. Once every fragment has reported, the master merges each query's
   candidates, and — serially, per selected alignment — **fetches** the
   alignment data from the owning worker, renders the output block, and
   appends it to the single output file with a small write.  This
   serialized fetch/format/write loop is the bottleneck Table 1 shows
   (the "result fetching" alone is >40% of output time).

**Fault tolerance** (``config.fault_tolerance`` or a ``faults`` plan):
the FT variant swaps the blocking broadcast/recv control flow for the
same idempotent pull-RPC scheduling pioBLAST's FT driver uses (sequence
numbers + reply cache + per-worker silence timeouts + requeue), but
deliberately *keeps* the baseline's serialized fetch/format/write output
path — under faults it gains per-fetch timeouts and restarts the whole
output file when an owning worker dies mid-fetch (alignment data lives
only in the owner's memory, so a death invalidates the owner's share of
the report and its fragments must be re-searched).  The contrast with
pioBLAST's re-homeable deterministic blocks is the point: result caching
is also a *recovery* optimisation, not just a throughput one.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from typing import Any

from repro.blast.engine import BlastSearch
from repro.blast.formatdb import DatabaseVolume
from repro.blast.hsp import Alignment
from repro.parallel.assignment import GreedyAssigner
from repro.parallel.common import (
    GlobalDbInfo,
    footer_bytes_for,
    header_bytes_for,
    parse_index,
    read_queries_bytes,
    reliable_read,
    reliable_write,
    search_fragment_timed,
    write_output,
    writer_for,
)
from repro.parallel.checkpoint import CheckpointStore, FailoverTracker
from repro.parallel.config import ParallelConfig
from repro.parallel.fragments import fragment_paths
from repro.parallel.pullrpc import (
    MPI_FT,
    TAG_TABLE,
    Heartbeat,
    LivenessTable,
    Orphaned,
    Promoted,
    PullClient,
    PullServer,
)
from repro.parallel.results import AlignmentMeta, meta_from_alignment, select_metas
from repro.simmpi import FileStore, PlatformSpec, ProcContext, RunResult, Status
from repro.simmpi.comm import ANY_SOURCE, ANY_TAG, TIMEOUT
from repro.simmpi.faults import FaultPlan
from repro.simmpi.launcher import run

TAG_WORKREQ = TAG_TABLE["mpiblast.WORKREQ"]
TAG_ASSIGN = TAG_TABLE["mpiblast.ASSIGN"]
TAG_RESULT = TAG_TABLE["mpiblast.RESULT"]
TAG_FETCH = TAG_TABLE["mpiblast.FETCH"]
TAG_FETCHRESP = TAG_TABLE["mpiblast.FETCHRESP"]
TAG_DONE = TAG_TABLE["mpiblast.DONE"]
# Fault-tolerant pull-RPC channel (see repro.parallel.pullrpc / FAULTS.md).
TAG_FT_REQ, TAG_FT_REPLY, TAG_FT_PING = MPI_FT

NO_MORE_WORK = -1


@dataclass
class _Setup:
    """Broadcast payload: everything a worker needs to start."""

    queries: list
    ranges: list[tuple[int, int]]
    info: GlobalDbInfo

    def payload_nbytes(self) -> int:
        qbytes = sum(len(q.defline) + len(q.sequence) for q in self.queries)
        return qbytes + 16 * len(self.ranges) + self.info.payload_nbytes()


def _master(ctx: ProcContext, cfg: ParallelConfig) -> None:
    comm = ctx.comm
    cost = cfg.cost
    nworkers = ctx.size - 1
    nfrag = cfg.fragments_for(nworkers)
    ctx.compute(cost.init_seconds())

    # ---- setup ("other"): read queries + global index, broadcast ----
    qdata = ctx.fs.read(
        cfg.query_path, charge_bytes=cost.wire_bytes(ctx.fs.size(cfg.query_path))
    )
    queries = read_queries_bytes(qdata)
    index = parse_index(
        ctx.fs.read(
            f"{cfg.db_name}.xin",
            charge_bytes=cost.db_wire_bytes(ctx.fs.size(f"{cfg.db_name}.xin")),
        )
    )
    info = GlobalDbInfo(index.title, index.nseqs, index.total_letters)
    ranges = index.partition_ranges(nfrag)
    setup = _Setup(queries, ranges, info)
    comm.bcast(setup, root=0)

    engine = BlastSearch(cfg.search)
    writer = writer_for(engine, info)

    # ---- assignment + result collection (overlaps worker search) ----
    assigner = GreedyAssigner(nfrag)
    results: list[list[AlignmentMeta]] = [[] for _ in queries]
    fragments_reported = 0
    workers_released = 0
    while fragments_reported < nfrag or workers_released < nworkers:
        st = Status()
        payload = comm.recv(source=ANY_SOURCE, tag=ANY_TAG, status=st)
        if st.tag == TAG_WORKREQ:
            frag = assigner.assign(st.source)
            if frag is None:
                comm.send(NO_MORE_WORK, dest=st.source, tag=TAG_ASSIGN)
                workers_released += 1
            else:
                assigner.note_holding(st.source, frag)
                comm.send(frag, dest=st.source, tag=TAG_ASSIGN)
        elif st.tag == TAG_RESULT:
            _frag_id, metas_per_query = payload
            for qi, metas in enumerate(metas_per_query):
                results[qi].extend(metas)
            fragments_reported += 1
        else:  # pragma: no cover - protocol error
            raise RuntimeError(f"unexpected tag {st.tag}")

    # ---- serialized merge + fetch + output ----
    with ctx.phase("output"):
        out = cfg.output_path
        pre = writer.preamble()
        ctx.fs.write(out, 0, pre, charge_bytes=cost.wire_bytes(len(pre)))
        offset = len(pre)
        for qi, qrec in enumerate(queries):
            # Centralized screening of full result-alignment structures,
            # then the global-statistics filter that restores exactly the
            # serial result list.
            selected = select_metas(
                ctx, cost, results[qi], cfg.search.max_alignments,
                expect=cfg.search.expect,
            )
            header = header_bytes_for(writer, qrec, selected)
            ctx.fs.write(
                out, offset, header, charge_bytes=cost.wire_bytes(len(header))
            )
            offset += len(header)
            for m in selected:
                # Serial fetch of alignment data from the owning worker.
                ctx.compute(cost.fetch_overhead_seconds())
                comm.send((qi, m.local_id), dest=m.owner_rank, tag=TAG_FETCH)
                al: Alignment = comm.recv(source=m.owner_rank, tag=TAG_FETCHRESP)
                block = writer.alignment_block(al)
                ctx.compute(cost.render_seconds(len(block)))
                ctx.fs.write(
                    out,
                    offset,
                    block,
                    charge_bytes=cost.wire_bytes(len(block)),
                )
                offset += len(block)
            footer = footer_bytes_for(writer, engine, qrec, info)
            ctx.fs.write(
                out, offset, footer, charge_bytes=cost.wire_bytes(len(footer))
            )
            offset += len(footer)

    for w in range(1, ctx.size):
        comm.send(None, dest=w, tag=TAG_DONE)


def _worker(ctx: ProcContext, cfg: ParallelConfig) -> None:
    comm = ctx.comm
    cost = cfg.cost
    setup: _Setup = comm.bcast(None, root=0)
    ctx.compute(cost.init_seconds())
    queries, ranges, info = setup.queries, setup.ranges, setup.info
    engine = BlastSearch(cfg.search)
    # Local result cache: (query_index, local_id) -> Alignment.
    cache: dict[tuple[int, int], Alignment] = {}
    next_local_id = 0
    # Copy target: private local disk when the platform has one, shared
    # job scratch otherwise (the Altix case, §4.1).
    local = ctx.local_disk

    while True:
        comm.send(ctx.rank, dest=0, tag=TAG_WORKREQ)
        frag = comm.recv(source=0, tag=TAG_ASSIGN)
        if frag == NO_MORE_WORK:
            break
        lo, hi = ranges[frag]
        paths = fragment_paths(cfg.db_name, frag)

        with ctx.phase("copy"):
            for ext, path in paths.items():
                nbytes = ctx.fs.size(path)
                wire = int(cost.db_wire_bytes(nbytes) * cost.copy_inefficiency)
                data = ctx.fs.read(path, charge_bytes=wire)
                # cp-style buffered copy: every chunk pays metadata/
                # syscall overhead on both sides (see CostModel).
                ctx.engine.sleep(
                    cost.copy_chunk_overhead_seconds(
                        wire, ctx.fs.op_overhead
                    )
                )
                target = f"scratch/r{ctx.rank}/{path}"
                if local is not None:
                    local.write(target, 0, data, charge_bytes=wire)
                    ctx.engine.sleep(
                        cost.copy_chunk_overhead_seconds(
                            wire, local.op_overhead
                        )
                    )
                else:
                    ctx.fs.write(target, 0, data, charge_bytes=wire)
                    ctx.engine.sleep(
                        cost.copy_chunk_overhead_seconds(
                            wire, ctx.fs.op_overhead
                        )
                    )

        with ctx.phase("search"):
            # mpiBLAST memory-maps the local copy: the load is I/O
            # embedded in the search stage.
            loaded: dict[str, bytes] = {}
            for ext, path in paths.items():
                target = f"scratch/r{ctx.rank}/{path}"
                src = local if local is not None else ctx.fs
                loaded[ext] = src.read(
                    target,
                    charge_bytes=int(
                        cost.db_wire_bytes(src.size(target))
                        * cost.mmap_inefficiency
                    ),
                )
            fidx = parse_index(loaded["xin"])
            volume = DatabaseVolume(fidx, loaded["xhr"], loaded["xsq"])
            # An un-informed per-fragment NCBI run filters against the
            # fragment's own statistics: more marginal candidates pass
            # and flow to the master (paper 3.2 / 5).
            per_query = search_fragment_timed(
                ctx, engine, queries, volume, info, lo, cost,
                filter_local=True,
            )

        # Submit result metadata; keep alignment data locally.
        metas_per_query: list[list[AlignmentMeta]] = []
        for qi, als in enumerate(per_query):
            metas = []
            for al in als:
                key = (qi, next_local_id)
                cache[key] = al
                metas.append(
                    meta_from_alignment(al, ctx.rank, next_local_id, 0)
                )
                next_local_id += 1
            metas_per_query.append(metas)
        payload_bytes = sum(
            m.payload_nbytes() for ms in metas_per_query for m in ms
        )
        comm.send(
            (frag, metas_per_query),
            dest=0,
            tag=TAG_RESULT,
            nbytes=cost.wire_bytes(payload_bytes),
        )

    # Serve the master's serialized fetches until DONE.
    while True:
        st = Status()
        msg = comm.recv(source=0, tag=ANY_TAG, status=st)
        if st.tag == TAG_DONE:
            break
        if st.tag != TAG_FETCH:  # pragma: no cover - protocol error
            raise RuntimeError(f"unexpected tag {st.tag}")
        qi, local_id = msg
        al = cache[(qi, local_id)]
        comm.send(
            al,
            dest=0,
            tag=TAG_FETCHRESP,
            nbytes=cfg.cost.wire_bytes(al.payload_nbytes()),
        )


# ---------------------------------------------------------------------------
# Fault-tolerant variant.
#
# Same pull-RPC protocol as pioBLAST's FT driver (repro.parallel.pullrpc,
# on the MPI_FT channel).  The crucial difference is the *output* path:
# mpiBLAST's alignment data lives only in the owning worker's memory,
# under that worker's private local ids.  ``owner_rank`` therefore really is a rank
# here (unlike FT pioBLAST, where it carries a fragment id), a fetch that
# times out means the whole output file must be restarted after the dead
# owner's fragments are re-searched by someone else, and an output
# restart re-pays every serialized fetch.  That asymmetry is the
# experiment: pioBLAST's result caching doubles as cheap recovery.
#
# Request kinds           Reply bodies
#   ("hello",  None)        ("setup", (queries, ranges, info))
#   ("work",   None)        ("frag", fid) | ("wait", dt) | ("done", None)
#   ("result", (fid, metas))("ok", None)
#
# The master's serialized fetches ride the baseline's TAG_FETCH /
# TAG_FETCHRESP channel, extended with a fetch sequence number so a
# retried fetch ignores stale responses: master sends ``(fseq, qi, lid)``
# and the owner echoes ``(fseq, alignment)``.  Workers answer fetches
# from *inside* their RPC receive loop, so a worker blocked waiting for
# a slow master reply still serves the master's output phase.
#
# Master failover (see repro.parallel.checkpoint): the master heartbeats
# on TAG_FT_PING (especially through the long serialized output pass,
# which would otherwise look like death to the workers), checkpoints
# ``frag_metas`` crash-consistently, and on master silence the lowest
# surviving worker promotes itself, restoring the newest valid
# checkpoint.  The promoted master carries its own alignment cache: its
# fetches to itself are answered from memory, and restored metas owned
# by ranks the death sweep later declares dead go back to re-search —
# exactly the baseline's recovery asymmetry, now surviving rank 0 too.


def _ft_master(
    ctx: ProcContext,
    cfg: ParallelConfig,
    *,
    setup: Any = None,
    held_cache: dict[tuple[int, int], Alignment] | None = None,
    held_metas: dict[int, list[list[AlignmentMeta]]] | None = None,
) -> None:
    """Serve the FT protocol as master.

    Rank 0 enters with defaults; a *promoted* worker passes the setup
    blob from its hello (None if it never completed hello), its local
    alignment cache and the per-fragment metas it produced itself — its
    own fragments are then served from memory instead of re-searched.
    """
    comm, cost, ft = ctx.comm, cfg.cost, cfg.ft
    sim = ctx.engine
    report = ctx.fault_report
    me = ctx.rank
    promoted = me != 0
    nfrag = cfg.fragments_for(ctx.size - 1)
    ckpt = CheckpointStore(
        ctx, cfg.checkpoint_dir,
        interval=cfg.checkpoint_interval, io_attempts=ft.io_attempts,
    )
    # Called throughout the serialized output pass too: that pass can
    # outlast ``failover_silence``, and a silent master mid-output must
    # not trigger a spurious succession.
    ping_workers = Heartbeat(ctx, ft, TAG_FT_PING).beat
    if promoted:
        report.record(sim.now, "recover:promote-master", me)
        # Announce before doing anything slow (cold setup, checkpoint
        # restore): the announcement resets every survivor's silence
        # clock, heading off a second spurious succession.
        ping_workers(force=True)

    # ---- setup: same partitioning as `_master`, retried reads ----------
    if setup is None:
        ctx.compute(cost.init_seconds())
        qdata = reliable_read(
            ctx, ft, cfg.query_path,
            charge_bytes=cost.wire_bytes(ctx.fs.size(cfg.query_path)),
        )
        queries = read_queries_bytes(qdata)
        xin = f"{cfg.db_name}.xin"
        index = parse_index(
            reliable_read(
                ctx, ft, xin,
                charge_bytes=cost.db_wire_bytes(ctx.fs.size(xin)),
            )
        )
        info = GlobalDbInfo(index.title, index.nseqs, index.total_letters)
        ranges = index.partition_ranges(nfrag)
        setup = (queries, ranges, info)
    else:
        queries, ranges, info = setup
    setup_blob = setup
    engine = BlastSearch(cfg.search)
    writer = writer_for(engine, info)
    out = cfg.output_path
    my_cache = held_cache if held_cache is not None else {}

    # ---- scheduler state ------------------------------------------------
    # A promoted master starts every other rank as presumed-alive with a
    # fresh liveness window; the death sweep then re-detects the dead.
    live = LivenessTable((r for r in range(1, ctx.size) if r != me), sim.now)
    assigned: dict[int, int] = {}        # worker -> fid being (re)searched
    assigner = GreedyAssigner(nfrag)     # first-search queue
    research: list[int] = []             # fids whose owner died; search again
    # fid -> (owning worker, metas per query).  Dropped when the owner
    # dies: the metas' local ids only mean something to that owner.
    frag_metas: dict[int, tuple[int, list[list[AlignmentMeta]]]] = {}
    state = "search"
    fetch_seq = 0

    # ---- restore (promoted master only) ---------------------------------
    if promoted:
        snap = ckpt.load_latest()
        if snap is not None:
            for fid, (ow, metas) in snap["frag_metas"].items():
                # Entries owned by us come from held_metas below (the
                # cache is authoritative); dead owners' entries are
                # dropped by the death sweep exactly as in-band deaths.
                if ow != me:
                    frag_metas[fid] = (ow, metas)
                    assigner.mark_completed(fid)
        for fid, metas in (held_metas or {}).items():
            if fid not in frag_metas:
                frag_metas[fid] = (me, metas)
                assigner.mark_completed(fid)

    # ---- helpers --------------------------------------------------------
    def ckpt_state() -> dict:
        return {
            "driver": "mpiblast",
            "frag_metas": {
                f: frag_metas[f] for f in sorted(frag_metas)
            },
        }

    def queue_research(fid: int) -> None:
        if fid not in research and fid not in assigned.values():
            insort(research, fid)
            report.record(sim.now, "recover:research", fid)

    def worker_lost(w: int, why: str) -> None:
        """Recover from ``w``, which the table has just declared dead."""
        report.record(sim.now, "detect:worker-dead", w, why)
        assigner.drop_worker(w)
        fid = assigned.pop(w, None)
        if fid is not None and fid not in frag_metas:
            if assigner.requeue(fid):
                report.record(sim.now, "recover:requeue", fid, w)
        # The dead worker's completed fragments are lost with it (the
        # alignments lived in its memory); re-search them from scratch.
        lost = sorted(
            f for f, (ow, _m) in frag_metas.items() if ow == w
        )
        for f in lost:
            del frag_metas[f]
            queue_research(f)

    def fetch(owner: int, qi: int, local_id: int) -> Alignment | None:
        """One serialized fetch, retried; None means the owner is gone."""
        nonlocal fetch_seq
        if owner == me:
            # Promoted master serving its own fragments: the alignment
            # is in the cache it carried over from its worker life.
            return my_cache[(qi, local_id)]
        for _attempt in range(3):
            fetch_seq += 1
            comm.isend((fetch_seq, qi, local_id), dest=owner, tag=TAG_FETCH)
            # Wait in master_tick slices, pinging between them: a fetch
            # to a dead owner stalls for write_timeout per attempt, and
            # that silence must not look like master death to the
            # surviving workers.
            deadline = sim.now + ft.write_timeout
            while True:
                ping_workers()
                remaining = deadline - sim.now
                if remaining <= 0:
                    break
                reply = comm.recv_with_timeout(
                    source=owner, tag=TAG_FETCHRESP,
                    timeout=min(ft.master_tick, remaining),
                )
                if reply is TIMEOUT:
                    continue
                fseq, al = reply
                if fseq == fetch_seq:
                    return al
                # stale response to an earlier (timed-out) fetch; drain
        return None

    def try_output() -> bool:
        """One attempt at the serialized fetch/format/write output pass.

        False: an owning worker died mid-fetch.  Its fragments go back
        to the re-search queue, the caller re-enters the search state,
        and the next attempt rebuilds the file from offset 0, paying
        every fetch again (the restart cost pioBLAST's cached blocks
        avoid)."""
        missing = sorted(set(range(nfrag)) - set(frag_metas))
        per_query: list[list[AlignmentMeta]] = [[] for _ in queries]
        for fid in sorted(frag_metas):
            _ow, metas_pq = frag_metas[fid]
            for qi, metas in enumerate(metas_pq):
                per_query[qi].extend(metas)
        with ctx.phase("output"):
            ctx.fs.delete(out)

            def rwrite(offset: int, buf: bytes) -> None:
                ping_workers()
                write_output(ctx, cfg, offset, buf)

            pre = writer.preamble()
            rwrite(0, pre)
            offset = len(pre)
            for qi, qrec in enumerate(queries):
                selected = select_metas(
                    ctx, cost, per_query[qi], cfg.search.max_alignments,
                    expect=cfg.search.expect,
                )
                header = header_bytes_for(writer, qrec, selected)
                rwrite(offset, header)
                offset += len(header)
                for m in selected:
                    ping_workers()
                    ctx.compute(cost.fetch_overhead_seconds())
                    al = fetch(m.owner_rank, qi, m.local_id)
                    if al is None:
                        if live.declare_dead(m.owner_rank):
                            worker_lost(m.owner_rank, "fetch-timeout")
                        report.record(
                            sim.now, "recover:restart-output", m.owner_rank
                        )
                        return False
                    block = writer.alignment_block(al)
                    ctx.compute(cost.render_seconds(len(block)))
                    rwrite(offset, block)
                    offset += len(block)
                footer = footer_bytes_for(writer, engine, qrec, info)
                rwrite(offset, footer)
                offset += len(footer)
        if missing:
            report.degraded = True
            report.missing_fragments = missing
            report.record(sim.now, "detect:degraded", tuple(missing))
        return True

    def attempt_output() -> None:
        nonlocal state
        ok = try_output()
        # The serialized output pass can outlast the silence thresholds;
        # give surviving workers a fresh liveness window so they are not
        # declared dead for politely waiting out our fetch loop.
        live.refresh(sim.now)
        if ok:
            state = "done"

    def work_reply(w: int):
        if state == "done":
            return ("done", None)
        if research:
            fid = research.pop(0)
            assigned[w] = fid
            assigner.note_holding(w, fid)
            return ("frag", fid)
        fid = assigner.assign(w)
        if fid is not None:
            assigned[w] = fid
            assigner.note_holding(w, fid)
            return ("frag", fid)
        return ("wait", ft.poll_backoff)

    def handle(w: int, kind: str, data: Any):
        if kind == "hello":
            return ("setup", setup_blob)
        if kind == "work":
            return work_reply(w)
        if kind == "result":
            fid, metas = data
            if assigned.get(w) == fid:
                assigned.pop(w)
            if fid not in frag_metas:
                # First (or revived-after-loss) report for this fragment.
                frag_metas[fid] = (w, metas)
                assigner.mark_completed(fid)
                if fid in research:
                    research.remove(fid)
            else:
                report.record(sim.now, "recover:dup-result", fid, w)
            return ("ok", None)
        raise RuntimeError(f"unknown FT request kind {kind!r}")

    # ---- serve loop -----------------------------------------------------
    if promoted:
        # Announce the new master immediately: surviving workers adopt
        # it on the first ping instead of waiting out failover_silence.
        ping_workers(force=True)
    server = PullServer(ctx, ft, MPI_FT, range(ctx.size))

    def on_tick(request, now: float) -> None:
        if request is not None:
            w = request[0]
            if live.heard(w, now):
                report.record(sim.now, "recover:revive", w)
        for w, _quiet in live.sweep(sim.now, ft.search_timeout):
            worker_lost(w, "search-timeout" if w in assigned else "silent")
        ping_workers()
        if state == "search":
            ckpt.maybe_save(ckpt_state)
        if state == "search" and (
            len(frag_metas) == nfrag or (request is None and not live.alive)
        ):
            # Complete — or degraded with nobody left to search the
            # missing fragments.  Either way, attempt the output pass.
            attempt_output()

    def on_idle(_now: float) -> bool:
        # sim.now: the tick may just have run the whole output pass
        return state == "done" and server.lingered(sim.now)

    if server.serve(
        on_tick=on_tick, on_idle=on_idle, on_request=handle
    ) is not None:
        return  # abdicated: the successor rewrites the output from scratch

    # Final accounting: fragments the report never saw results for.
    missing = sorted(set(range(nfrag)) - set(frag_metas))
    if missing and not report.missing_fragments:
        report.degraded = True
        report.missing_fragments = missing


def _ft_copy_and_search(
    ctx: ProcContext,
    cfg: ParallelConfig,
    engine: BlastSearch,
    queries,
    ranges: list[tuple[int, int]],
    info: GlobalDbInfo,
    frag: int,
) -> list[list[Alignment]]:
    """The baseline copy + mmap-search pipeline with transient-I/O retry."""
    cost, ft = cfg.cost, cfg.ft
    lo, _hi = ranges[frag]
    paths = fragment_paths(cfg.db_name, frag)
    local = ctx.local_disk

    with ctx.phase("copy"):
        for _ext, path in paths.items():
            nbytes = ctx.fs.size(path)
            wire = int(cost.db_wire_bytes(nbytes) * cost.copy_inefficiency)
            data = reliable_read(ctx, ft, path, charge_bytes=wire)
            ctx.engine.sleep(
                cost.copy_chunk_overhead_seconds(wire, ctx.fs.op_overhead)
            )
            target = f"scratch/r{ctx.rank}/{path}"
            dst = local if local is not None else ctx.fs
            reliable_write(
                ctx, ft, target, 0, data, charge_bytes=wire, fs=dst
            )
            ctx.engine.sleep(
                cost.copy_chunk_overhead_seconds(wire, dst.op_overhead)
            )

    with ctx.phase("search"):
        loaded: dict[str, bytes] = {}
        for ext, path in paths.items():
            target = f"scratch/r{ctx.rank}/{path}"
            src = local if local is not None else ctx.fs
            charge = int(
                cost.db_wire_bytes(src.size(target)) * cost.mmap_inefficiency
            )
            loaded[ext] = reliable_read(
                ctx, ft, target, charge_bytes=charge, fs=src
            )
        fidx = parse_index(loaded["xin"])
        volume = DatabaseVolume(fidx, loaded["xhr"], loaded["xsq"])
        return search_fragment_timed(
            ctx, engine, queries, volume, info, lo, cost,
            filter_local=True,
        )


def _ft_worker(ctx: ProcContext, cfg: ParallelConfig) -> str:
    comm, cost, ft = ctx.comm, cfg.cost, cfg.ft
    setup: Any = None
    # Local result cache, exactly as in the baseline: alignment data
    # never leaves this worker until the master fetches it.
    cache: dict[tuple[int, int], Alignment] = {}
    # fid -> metas per query for fragments *we* searched; carried into
    # _ft_master on promotion so our fragments need no re-search.
    my_metas: dict[int, list[list[AlignmentMeta]]] = {}
    next_local_id = 0

    def serve_fetch(msg: tuple[int, int, int], requester: int) -> int:
        """Answer one of the master's serialized fetches.  The master's
        output pass interleaves them with our polling, so the RPC
        receive loop serves them in-line.  Only a master fetches: the
        requester is returned as an (implicit) master announcement."""
        fseq, qi, local_id = msg
        al = cache[(qi, local_id)]
        comm.isend(
            (fseq, al),
            dest=requester,
            tag=TAG_FETCHRESP,
            nbytes=cost.wire_bytes(al.payload_nbytes()),
        )
        return requester

    rpc = PullClient(
        ctx, ft, FailoverTracker(ctx, ft), MPI_FT,
        extra={TAG_FETCH: serve_fetch},
    ).call
    try:
        setup = rpc("hello")[1]
        queries, ranges, info = setup
        ctx.compute(cost.init_seconds())
        engine = BlastSearch(cfg.search)

        while True:
            kind, data = rpc("work")
            if kind == "wait":
                ctx.engine.sleep(data)
            elif kind == "done":
                return "done"
            elif kind == "frag":
                frag = data
                per_query = _ft_copy_and_search(
                    ctx, cfg, engine, queries, ranges, info, frag
                )
                metas_per_query: list[list[AlignmentMeta]] = []
                for qi, als in enumerate(per_query):
                    metas = []
                    for al in als:
                        cache[(qi, next_local_id)] = al
                        metas.append(
                            meta_from_alignment(
                                al, ctx.rank, next_local_id, 0
                            )
                        )
                        next_local_id += 1
                    metas_per_query.append(metas)
                my_metas[frag] = metas_per_query
                rpc("result", (frag, metas_per_query))
            else:  # pragma: no cover - protocol error
                raise RuntimeError(f"unknown FT reply kind {kind!r}")
    except Promoted:
        # Become the master: restore + serve (see _ft_master).
        _ft_master(
            ctx, cfg, setup=setup, held_cache=cache, held_metas=my_metas
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


def run_mpiblast(
    nprocs: int,
    store: FileStore,
    config: ParallelConfig,
    platform: PlatformSpec | None = None,
    *,
    faults: FaultPlan | None = None,
    tracer=None,
) -> RunResult:
    """Run the mpiBLAST reproduction on a simulated cluster.

    ``store`` must already hold the formatted database, its physical
    fragments (see :func:`repro.parallel.fragments.mpiformatdb` — run it
    with ``config.fragments_for(nprocs - 1)`` fragments), and the query
    file.  The report lands at ``config.output_path`` in the store.

    Passing a ``faults`` plan (or setting ``config.fault_tolerance``)
    switches to the fault-tolerant pull-RPC driver; note its recovery
    path is deliberately costlier than pioBLAST's (see the module
    docstring): an owner death restarts the whole serialized output.
    """
    if nprocs < 2:
        raise ValueError("mpiBLAST needs a master and at least one worker")
    ft_mode = config.fault_tolerance or faults is not None
    if ft_mode and config.query_batch > 0:
        raise ValueError(
            "query_batch is not supported by the fault-tolerant mpiBLAST "
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
    )
