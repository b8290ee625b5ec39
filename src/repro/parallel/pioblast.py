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
the collective data-flow above deadlocks the moment any rank dies, so
:mod:`repro.parallel.flatft`'s scheduler replaces it, with
:class:`PioOutput` as its output policy.
"""

from __future__ import annotations

from repro.blast.engine import BlastSearch
from repro.blast.formatdb import DatabaseVolume
from repro.parallel.common import (
    layout_query_section,
    parse_index,
    read_queries_bytes,
    search_fragment_timed,
    write_output,
    writer_for,
)
from repro.parallel.config import ParallelConfig
from repro.parallel.flatft import OutputPolicy, run_flat
from repro.parallel.fragments import VolumePiece
from repro.parallel.pruning import prune_metas, score_cutlines
from repro.parallel.pullrpc import PIO_FT, TAG_TABLE
from repro.parallel.results import AlignmentMeta, meta_from_alignment, select_metas
from repro.parallel.warmdb import (
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

    engine = BlastSearch(cfg.search)
    writer = writer_for(engine, info)

    # Adaptive granularity: drive the fragment work queue.
    if len(frags) != nworkers or cfg.adaptive_granularity:
        _master_work_queue(ctx, len(frags))

    # ---- metadata-only merge ----
    if cfg.early_score_pruning:
        comm.allreduce(
            {},
            op=lambda a, b: score_cutlines(a, b, cfg.search.max_alignments),
        )
    gathered = comm.gatherv(None, root=0)
    per_query: list[list[AlignmentMeta]] = [[] for _ in queries]
    for worker_metas in gathered:
        if not worker_metas:
            continue
        for qi, metas in enumerate(worker_metas):
            per_query[qi].extend(metas)

    # ---- offsets, then one collective write ----
    with ctx.phase("output"):
        pre = writer.preamble()
        master_regions: list[tuple[int, int]] = [(0, len(pre))]
        master_buffers: list[bytes] = [pre]
        offset = len(pre)
        selections: dict[int, list[tuple[int, int]]] = {
            w: [] for w in range(1, ctx.size)
        }  # worker -> [(local_id, file offset)]
        for qi, qrec in enumerate(queries):
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

        # Notify workers of their selected blocks + offsets.
        for w in range(1, ctx.size):
            comm.send(selections[w], dest=w, tag=TAG_SELECT)
        if cfg.collective_output:
            f = MPIFile(comm, ctx.fs, cfg.output_path)
            f.set_view(FileView(regions=master_regions))
            f.write_at_all(master_buffers, data_scale=cost.data_scale)
            return
        # Ablation: master-serialized writing of worker blocks (the
        # mpiBLAST output path, but with cached blocks: isolates
        # collective I/O from caching).
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

    # ---- search, caching rendered blocks in memory ----
    writer = writer_for(engine, info)
    cache: list[bytes] = []
    metas_per_query: list[list[AlignmentMeta]] = [[] for _ in queries]
    with ctx.phase("search"):
        for frag_vols in loaded:
            for piece, volume in frag_vols:
                per_query = search_fragment_timed(
                    ctx, engine, queries, volume, info, piece.global_base,
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
            op=lambda a, b: score_cutlines(a, b, cfg.search.max_alignments),
        )
        metas_per_query = prune_metas(
            metas_per_query, cuts, cfg.search.max_alignments
        )

    # Submit metadata only.
    comm.gatherv(metas_per_query, root=0)

    # Waiting for the master's selection is idle time, not output
    # work; the phase starts once this worker has blocks to write.
    selections: list[tuple[int, int]] = comm.recv(source=0, tag=TAG_SELECT)
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
            return
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


class PioOutput(OutputPolicy):
    """pioBLAST's FT output policy: cached blocks, re-homeable writes.

    ``AlignmentMeta.owner_rank`` carries the *fragment id* here, not a
    rank: any worker that searched a fragment holds its byte-identical
    blocks under the same local ids, so the master maps fragment →
    current holders at output time.  Each output round lays the file
    out over the fragments it can cover, rewrites it from scratch,
    writes the master's own pieces (and, promoted, its own cached
    blocks) and hands each pending fragment's blocks to one live holder
    as a ``("select", (round, [(fid, lid, off)...]))`` reply; the holder
    confirms with ``("wrote", (round, fids))``.  A dead writer's
    fragments go to another holder (``recover:rehome-write``) or, with
    none left, back to search.
    """

    tags = PIO_FT

    def __init__(self, ctx: ProcContext, cfg: ParallelConfig) -> None:
        super().__init__(ctx, cfg)
        self.blocks: dict[int, list[bytes]] = {}  # fid -> rendered blocks

    def bind(self, setup) -> None:
        self.queries, self.info, self.frags, index_bytes = setup
        self.indexes = {b: parse_index(d) for b, d in index_bytes.items()}
        self.engine = BlastSearch(self.cfg.search)
        self.writer = writer_for(self.engine, self.info)

    # -- worker ----------------------------------------------------------
    def search(self, fid: int) -> list[list[AlignmentMeta]]:
        ctx, cfg = self.ctx, self.cfg
        with ctx.phase("input"):
            frag_vols = load_fragment_pieces(
                ctx, cfg, self.frags[fid], self.indexes, reliable=True
            )
        with ctx.phase("search"):
            self.blocks[fid], metas = search_loaded_pieces(
                ctx, cfg, self.engine, self.writer, self.queries, self.info,
                frag_vols, fid,
            )
        return metas

    def reply(self, kind: str, data) -> tuple[str, tuple]:
        if kind != "select":
            return super().reply(kind, data)
        ctx, cfg = self.ctx, self.cfg
        round_no, sels = data
        with ctx.phase("output"):
            f = MPIFile(ctx.comm, ctx.fs, cfg.output_path)
            for fid, lid, off in sels:
                blk = self.blocks[fid][lid]
                f.write_at_reliable(
                    off, blk,
                    charge_bytes=cfg.cost.wire_bytes(len(blk)),
                    attempts=cfg.ft.io_attempts, report=ctx.fault_report,
                )
        return ("wrote", (round_no, tuple(sorted({s[0] for s in sels}))))

    # -- master ----------------------------------------------------------
    def read_setup(self, queries, nfrag: int):
        info, frags, index_bytes = partition_database(
            self.ctx, self.cfg, nfrag, reliable=True
        )
        return queries, info, frags, index_bytes

    def attach(self, master) -> None:
        super().attach(master)
        self.holders: dict[int, set[int]] = {
            f: set() for f in range(master.nfrag)
        }
        self.round = 0                        # 0: still searching
        self.pending: set[int] = set()        # fids with unconfirmed blocks
        self.dispatched: dict[int, int] = {}  # fid -> worker writing it
        # fid -> [(local id, offset)] of its blocks in this round
        self.placed: dict[int, list[tuple[int, int]]] = {}

    def restore(self, snap, held):
        if snap is None:
            return dict(held)
        for fid, hs in snap["holders"].items():
            self.holders[fid] |= {h for h in hs if h != self.ctx.rank}
        return {**held, **snap["frag_results"]}

    def ckpt_state(self) -> dict:
        results = self.m.results
        return {
            "driver": "pioblast",
            "frag_results": {f: results[f] for f in sorted(results)},
            "holders": {
                f: tuple(sorted(hs))
                for f, hs in sorted(self.holders.items())
                if hs
            },
        }

    def requests(self):
        return {"wrote": self.wrote}

    def wrote(self, w: int, data) -> tuple[str, None]:
        round_no, fids = data
        if round_no == self.round:
            for fid in fids:
                if self.dispatched.get(fid) == w:
                    del self.dispatched[fid]
                    self.pending.discard(fid)
        return ("ok", None)

    def idle_reply(self, w: int):
        m = self.m
        if not self.round:
            if len(m.results) < m.nfrag:
                return m.wait
            self.start_round(set(m.results))
            return m.work(w)
        sels: list[tuple[int, int, int]] = []
        mine = [
            fid for fid in sorted(self.pending)
            if fid not in self.dispatched and w in self.holders[fid]
        ]
        for fid in mine:
            self.dispatched[fid] = w
            sels.extend((fid, lid, off) for lid, off in self.placed[fid])
        if mine:
            return ("select", (self.round, sels))
        return m.wait if self.pending else ("done", None)

    def reported(self, w: int, fid: int) -> None:
        self.holders[fid].add(w)
        if not self.round and len(self.m.results) == self.m.nfrag:
            self.start_round(set(self.m.results))

    def lost(self, w: int, fid: int | None) -> None:
        for hs in self.holders.values():
            hs.discard(w)
        if fid in self.pending:
            self.m.queue_research(fid)
        for dfid, dw in list(self.dispatched.items()):
            if dw == w:
                del self.dispatched[dfid]
                self.m.report.record(
                    self.m.sim.now, "recover:rehome-write", dfid, w
                )
        self.ensure_progress()

    def writers(self) -> set[int]:
        return set(self.dispatched.values())

    def revived(self) -> None:
        self.ensure_progress()

    def settle(self, now: float) -> float | None:
        m = self.m
        if not m.live.alive and (not self.round or self.pending):
            # Degraded — nobody left to search the missing fragments, or
            # everyone died mid-output: shrink to what the master can
            # write alone (a promoted master holds its own blocks).
            self.start_round({f for f in m.results if f in self.blocks})
        if self.round and not self.pending and not m.research:
            return now
        return None

    # -- output rounds ---------------------------------------------------
    def ensure_progress(self) -> None:
        """Every pending fid must have a live holder or be re-queued."""
        if not self.round:
            return
        alive = self.m.live.alive
        for fid in sorted(self.pending):
            if fid not in self.dispatched and not self.holders[fid] & alive:
                self.m.queue_research(fid)

    def start_round(self, writable: set[int]) -> None:
        """Lay the report out over ``writable`` and rewrite the file with
        the master's pieces; each fragment's blocks then wait in
        ``placed`` / ``pending`` for a holder to write them."""
        m, ctx, cfg, writer = self.m, self.ctx, self.cfg, self.writer
        self.round += 1
        m.degrade(writable)
        per_query = m.merged(writable, len(self.queries))
        pre = writer.preamble()
        pieces: list[tuple[int, bytes]] = [(0, pre)]
        self.placed = {}
        off = len(pre)
        for qi, qrec in enumerate(self.queries):
            m.ping()
            selected = select_metas(
                ctx, cfg.cost, per_query[qi], cfg.search.max_alignments
            )
            header, placed, footer, end = layout_query_section(
                writer, self.engine, qrec, selected, self.info, off
            )
            pieces.append((off, header))
            for meta, boff in placed:
                # owner_rank carries the fragment id
                self.placed.setdefault(meta.owner_rank, []).append(
                    (meta.local_id, boff)
                )
            pieces.append((end - len(footer), footer))
            off = end
        # Relayouts shrink the file; rewrite it from scratch so no stale
        # tail bytes from an earlier, larger layout survive.
        ctx.fs.delete(cfg.output_path)
        with ctx.phase("output"):
            for off, buf in pieces:
                m.ping()
                write_output(ctx, cfg, off, buf)
            # A promoted master writes its own cached blocks in-line: no
            # worker holds them (and re-searching them would waste work).
            for fid in sorted(self.placed.keys() & self.blocks.keys()):
                for lid, off in self.placed[fid]:
                    m.ping()
                    write_output(ctx, cfg, off, self.blocks[fid][lid])
                m.report.record(m.sim.now, "recover:master-held-write", fid)
        self.pending = self.placed.keys() - self.blocks.keys()
        self.dispatched = {}
        self.ensure_progress()


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
    return run_flat(
        nprocs, store, config, platform,
        plain=(_master, _worker), policy=PioOutput,
        faults=faults, tracer=tracer, on_cluster=on_cluster,
    )
