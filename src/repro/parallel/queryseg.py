"""Query segmentation: the earlier-generation baseline (§2.1).

"Earlier work in parallel sequence search mostly adopts the query
segmentation method, which partitions the sequence query set ...
However, as databases are growing larger rapidly, this approach will
incur higher I/O costs and have limited scalability."

Each worker takes a slice of the query set and searches the *whole*
database: every worker reads (and holds) the entire database — the
I/O-cost problem the paper cites — but needs no result merging beyond
concatenating per-query sections, which the master writes in query
order.  Output is byte-identical to the other drivers.
"""

from __future__ import annotations

from typing import Any

from repro.blast.engine import BlastSearch
from repro.blast.formatdb import DatabaseVolume
from repro.parallel.common import (
    GlobalDbInfo,
    footer_bytes_for,
    header_bytes_for,
    parse_index,
    read_queries_bytes,
    search_fragment_timed,
    writer_for,
)
from repro.parallel.config import ParallelConfig
from repro.parallel.pullrpc import TAG_TABLE
from repro.parallel.results import merge_select, meta_from_alignment
from repro.simmpi import FileStore, PlatformSpec, ProcContext, RunResult
from repro.simmpi.launcher import run

TAG_SECTION = TAG_TABLE["queryseg.SECTION"]


def _query_slice(nqueries: int, nworkers: int, w: int) -> tuple[int, int]:
    """Contiguous slice of queries for worker ``w`` (0-based)."""
    base = nqueries // nworkers
    extra = nqueries % nworkers
    lo = w * base + min(w, extra)
    hi = lo + base + (1 if w < extra else 0)
    return lo, hi


def _program(ctx: ProcContext) -> Any:
    cfg: ParallelConfig = ctx.args["config"]
    comm = ctx.comm
    cost = cfg.cost
    nworkers = ctx.size - 1

    if ctx.rank == 0:
        qdata = ctx.fs.read(
            cfg.query_path,
            charge_bytes=cost.wire_bytes(ctx.fs.size(cfg.query_path)),
        )
        queries = read_queries_bytes(qdata)
        index = parse_index(ctx.fs.read(f"{cfg.db_name}.xin"))
        info = GlobalDbInfo(index.title, index.nseqs, index.total_letters)
        comm.bcast((queries, info), root=0)
        engine = BlastSearch(cfg.search)
        writer = writer_for(engine, info)
        # Collect per-query sections (waiting for workers is idle time,
        # not output work), then write the file in query order.
        sections: dict[int, bytes] = {}
        for _ in range(len(queries)):
            qi, data = comm.recv(source=-1, tag=TAG_SECTION)
            sections[qi] = data
        with ctx.phase("output"):
            out = cfg.output_path
            pre = writer.preamble()
            ctx.fs.write(out, 0, pre, charge_bytes=cost.wire_bytes(len(pre)))
            offset = len(pre)
            for qi in range(len(queries)):
                data = sections.pop(qi)
                ctx.fs.write(
                    out, offset, data,
                    charge_bytes=cost.wire_bytes(len(data)),
                )
                offset += len(data)
        return None

    # Worker: read the WHOLE database, search own query slice.
    queries, info = comm.bcast(None, root=0)
    engine = BlastSearch(cfg.search)
    writer = writer_for(engine, info)
    lo, hi = _query_slice(len(queries), nworkers, ctx.rank - 1)
    mine = queries[lo:hi]

    with ctx.phase("input"):
        index = parse_index(
            ctx.fs.read(
                f"{cfg.db_name}.xin",
                charge_bytes=cost.db_wire_bytes(ctx.fs.size(f"{cfg.db_name}.xin")),
            )
        )
        xhr = ctx.fs.read(
            f"{cfg.db_name}.xhr",
            charge_bytes=cost.db_wire_bytes(ctx.fs.size(f"{cfg.db_name}.xhr")),
        )
        xsq = ctx.fs.read(
            f"{cfg.db_name}.xsq",
            charge_bytes=cost.db_wire_bytes(ctx.fs.size(f"{cfg.db_name}.xsq")),
        )
        volume = DatabaseVolume(index, xhr, xsq)

    with ctx.phase("search"):
        per_query = search_fragment_timed(
            ctx, engine, mine, volume, info, 0, cost
        )

    pending: list[tuple[int, bytes]] = []
    with ctx.phase("output"):
        for k, (qrec, als) in enumerate(zip(mine, per_query)):
            # Queries were searched with slice-local indices; rendering
            # is per-query so only ranking matters, which is global.
            metas = [
                meta_from_alignment(a, ctx.rank, i, 0)
                for i, a in enumerate(als)
            ]
            selected = merge_select(metas, cfg.search.max_alignments)
            by_id = {m.local_id: als[m.local_id] for m in selected}
            parts = [header_bytes_for(writer, qrec, selected)]
            for m in selected:
                block = writer.alignment_block(by_id[m.local_id])
                ctx.compute(cost.render_seconds(len(block)))
                parts.append(block)
            parts.append(footer_bytes_for(writer, engine, qrec, info))
            pending.append((lo + k, b"".join(parts)))
    for qi, section in pending:
        comm.send(
            (qi, section),
            dest=0,
            tag=TAG_SECTION,
            nbytes=cost.wire_bytes(len(section)),
        )
    return None


def run_queryseg(
    nprocs: int,
    store: FileStore,
    config: ParallelConfig,
    platform: PlatformSpec | None = None,
    *,
    tracer=None,
) -> RunResult:
    """Run the query-segmentation baseline on a simulated cluster."""
    if nprocs < 2:
        raise ValueError("query segmentation needs a master and a worker")
    return run(
        nprocs,
        _program,
        platform,
        shared_store=store,
        args={"config": config},
        tracer=tracer,
    )
