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
the blocking broadcast/recv control flow gives way to the scheduler of
:mod:`repro.parallel.flatft`, the one pioBLAST's FT driver uses, but
:class:`MpiOutput` deliberately *keeps* the baseline's serialized
fetch/format/write output path.  The contrast with pioBLAST's
re-homeable blocks is the point: result caching is also a *recovery*
optimisation, not just a throughput one.
"""

from __future__ import annotations

from dataclasses import dataclass

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
from repro.parallel.config import ParallelConfig
from repro.parallel.flatft import OutputPolicy, run_flat
from repro.parallel.fragments import fragment_paths
from repro.parallel.pullrpc import MPI_FT, TAG_TABLE
from repro.parallel.results import AlignmentMeta, meta_from_alignment, select_metas
from repro.simmpi import FileStore, PlatformSpec, ProcContext, RunResult, Status
from repro.simmpi.comm import ANY_SOURCE, ANY_TAG, TIMEOUT
from repro.simmpi.faults import FaultPlan

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


class MpiOutput(OutputPolicy):
    """mpiBLAST's FT output policy: the serialized fetch pass, restarted.

    Alignment data lives only in the owning worker's memory, under that
    worker's private local ids, so ``owner_rank`` really is a rank and
    the master keeps one owner per fragment.  When every fragment has
    reported, a tick runs the baseline's serialized fetch/format/write
    pass.  Its fetches ride ``TAG_FETCH`` / ``TAG_FETCHRESP`` with a
    fetch sequence number, so a retried fetch ignores stale responses:
    the master sends ``(fseq, qi, lid)`` and the owner echoes
    ``(fseq, alignment)``.  Workers answer fetches from *inside* their
    RPC receive loop, so a worker blocked on a slow master reply still
    serves the output pass.  A fetch that times out declares the owner
    dead; its fragments go back to search and the next pass rebuilds
    the file from offset 0, paying every fetch again
    (``recover:restart-output``) — the restart cost pioBLAST's cached
    blocks avoid.  A promoted master fetches from its own cache.
    """

    tags = MPI_FT

    def __init__(self, ctx: ProcContext, cfg: ParallelConfig) -> None:
        super().__init__(ctx, cfg)
        # Local result cache, exactly as in the baseline: alignment data
        # never leaves this rank until the master fetches it.
        self.cache: dict[tuple[int, int], Alignment] = {}
        self.next_local_id = 0
        self.extra = {TAG_FETCH: self.serve_fetch}

    def bind(self, setup) -> None:
        self.queries, self.ranges, self.info = setup
        self.engine = BlastSearch(self.cfg.search)
        self.writer = writer_for(self.engine, self.info)

    # -- worker ----------------------------------------------------------
    def serve_fetch(self, msg: tuple[int, int, int], requester: int) -> int:
        """Answer one of the master's serialized fetches.  Only a master
        fetches: the requester is returned as an (implicit) master
        announcement."""
        fseq, qi, local_id = msg
        al = self.cache[(qi, local_id)]
        self.ctx.comm.isend(
            (fseq, al),
            dest=requester,
            tag=TAG_FETCHRESP,
            nbytes=self.cfg.cost.wire_bytes(al.payload_nbytes()),
        )
        return requester

    def search(self, fid: int) -> list[list[AlignmentMeta]]:
        """The baseline copy + mmap-search pipeline with transient-I/O
        retry; alignments stay in the cache."""
        ctx, cfg = self.ctx, self.cfg
        cost, ft = cfg.cost, cfg.ft
        paths = fragment_paths(cfg.db_name, fid)
        local = ctx.local_disk
        dst = local if local is not None else ctx.fs
        with ctx.phase("copy"):
            for path in paths.values():
                wire = int(
                    cost.db_wire_bytes(ctx.fs.size(path))
                    * cost.copy_inefficiency
                )
                data = reliable_read(ctx, ft, path, charge_bytes=wire)
                ctx.engine.sleep(
                    cost.copy_chunk_overhead_seconds(wire, ctx.fs.op_overhead)
                )
                reliable_write(
                    ctx, ft, f"scratch/r{ctx.rank}/{path}", 0, data,
                    charge_bytes=wire, fs=dst,
                )
                ctx.engine.sleep(
                    cost.copy_chunk_overhead_seconds(wire, dst.op_overhead)
                )
        with ctx.phase("search"):
            loaded: dict[str, bytes] = {}
            for ext, path in paths.items():
                target = f"scratch/r{ctx.rank}/{path}"
                charge = int(
                    cost.db_wire_bytes(dst.size(target))
                    * cost.mmap_inefficiency
                )
                loaded[ext] = reliable_read(
                    ctx, ft, target, charge_bytes=charge, fs=dst
                )
            volume = DatabaseVolume(
                parse_index(loaded["xin"]), loaded["xhr"], loaded["xsq"]
            )
            per_query = search_fragment_timed(
                ctx, self.engine, self.queries, volume, self.info,
                self.ranges[fid][0], cost, filter_local=True,
            )
        metas_per_query: list[list[AlignmentMeta]] = []
        for qi, als in enumerate(per_query):
            metas = []
            for al in als:
                self.cache[(qi, self.next_local_id)] = al
                metas.append(
                    meta_from_alignment(al, ctx.rank, self.next_local_id, 0)
                )
                self.next_local_id += 1
            metas_per_query.append(metas)
        return metas_per_query

    # -- master ----------------------------------------------------------
    def read_setup(self, queries, nfrag: int):
        ctx, cfg = self.ctx, self.cfg
        xin = f"{cfg.db_name}.xin"
        index = parse_index(reliable_read(
            ctx, cfg.ft, xin,
            charge_bytes=cfg.cost.db_wire_bytes(ctx.fs.size(xin)),
        ))
        info = GlobalDbInfo(index.title, index.nseqs, index.total_letters)
        return queries, index.partition_ranges(nfrag), info

    def attach(self, master) -> None:
        super().attach(master)
        # fid -> the worker holding its alignments.  Dropped with the
        # results when the owner dies: the metas' local ids only mean
        # something to that owner.
        self.owner: dict[int, int] = {}
        self.fetch_seq = 0

    def restore(self, snap, held):
        me, found = self.ctx.rank, {}
        for fid, (ow, metas) in (snap["frag_metas"] if snap else {}).items():
            # Entries owned by us come from ``held`` (the cache is
            # authoritative); dead owners' entries are dropped by the
            # death sweep exactly as in-band deaths.
            if ow != me:
                found[fid], self.owner[fid] = metas, ow
        for fid, metas in held.items():
            if fid not in found:
                found[fid], self.owner[fid] = metas, me
        return found

    def ckpt_state(self) -> dict:
        results = self.m.results
        return {
            "driver": "mpiblast",
            "frag_metas": {
                f: (self.owner[f], results[f]) for f in sorted(results)
            },
        }

    def assigned(self, w: int, fid: int) -> None:
        self.m.assigner.note_holding(w, fid)  # its local copy

    def reported(self, w: int, fid: int) -> None:
        self.owner.setdefault(fid, w)

    def lost(self, w: int, fid: int | None) -> None:
        # The dead worker's completed fragments are lost with it (the
        # alignments lived in its memory); re-search them from scratch.
        m = self.m
        for f in sorted(f for f, ow in self.owner.items() if ow == w):
            del self.owner[f], m.results[f]
            m.queue_research(f)

    def ticked(self, request) -> None:
        m = self.m
        if not self.finished and (
            len(m.results) == m.nfrag or (request is None and not m.live.alive)
        ):
            # Complete — or degraded with nobody left to search the
            # missing fragments.  Either way, attempt the output pass.
            ok = self.output_pass()
            # The pass can outlast the silence thresholds; give surviving
            # workers a fresh liveness window so they are not declared
            # dead for politely waiting out our fetch loop.
            m.live.refresh(m.sim.now)
            self.finished = ok

    def settle(self, now: float) -> float | None:
        # sim.now: the tick may just have run the whole output pass
        return self.m.sim.now if self.finished else None

    # -- the serialized output pass ----------------------------------------
    def fetch(self, owner: int, qi: int, local_id: int) -> Alignment | None:
        """One serialized fetch, retried; None means the owner is gone."""
        if owner == self.ctx.rank:
            return self.cache[(qi, local_id)]
        comm, ft, m = self.ctx.comm, self.cfg.ft, self.m
        for _attempt in range(3):
            self.fetch_seq += 1
            comm.isend(
                (self.fetch_seq, qi, local_id), dest=owner, tag=TAG_FETCH
            )
            # Wait in master_tick slices, pinging between them: a fetch
            # to a dead owner stalls for write_timeout per attempt, and
            # that silence must not look like master death.
            deadline = m.sim.now + ft.write_timeout
            while True:
                m.ping()
                remaining = deadline - m.sim.now
                if remaining <= 0:
                    break
                reply = comm.recv_with_timeout(
                    source=owner, tag=TAG_FETCHRESP,
                    timeout=min(ft.master_tick, remaining),
                )
                if reply is TIMEOUT:
                    continue
                fseq, al = reply
                if fseq == self.fetch_seq:
                    return al
                # stale response to an earlier (timed-out) fetch; drain
        return None

    def output_pass(self) -> bool:
        """One attempt at the fetch/format/write pass; False when an
        owning worker died mid-fetch."""
        m, ctx, cfg, writer = self.m, self.ctx, self.cfg, self.writer
        per_query = m.merged(m.results, len(self.queries))

        def rwrite(offset: int, buf: bytes) -> int:
            m.ping()
            write_output(ctx, cfg, offset, buf)
            return offset + len(buf)

        with ctx.phase("output"):
            ctx.fs.delete(cfg.output_path)
            offset = rwrite(0, writer.preamble())
            for qi, qrec in enumerate(self.queries):
                selected = select_metas(
                    ctx, cfg.cost, per_query[qi], cfg.search.max_alignments,
                    expect=cfg.search.expect,
                )
                header = header_bytes_for(writer, qrec, selected)
                offset = rwrite(offset, header)
                for meta in selected:
                    m.ping()
                    ctx.compute(cfg.cost.fetch_overhead_seconds())
                    al = self.fetch(meta.owner_rank, qi, meta.local_id)
                    if al is None:
                        if m.live.declare_dead(meta.owner_rank):
                            m.lost(meta.owner_rank, "fetch-timeout")
                        m.report.record(
                            m.sim.now, "recover:restart-output",
                            meta.owner_rank,
                        )
                        return False
                    block = writer.alignment_block(al)
                    ctx.compute(cfg.cost.render_seconds(len(block)))
                    offset = rwrite(offset, block)
                offset = rwrite(offset, footer_bytes_for(
                    writer, self.engine, qrec, self.info
                ))
        m.degrade(m.results)  # unchanged by a pass that completes
        return True


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
    return run_flat(
        nprocs, store, config, platform,
        plain=(_master, _worker), policy=MpiOutput,
        faults=faults, tracer=tracer,
    )
