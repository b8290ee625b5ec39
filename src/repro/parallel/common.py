"""Pieces shared by the serial, mpiBLAST and pioBLAST drivers."""

from __future__ import annotations

from dataclasses import dataclass

from repro.blast.engine import BlastSearch, SearchStats
from repro.blast.fasta import SeqRecord, parse_fasta
from repro.blast.formatdb import DatabaseIndex, DatabaseVolume
from repro.blast.hsp import Alignment
from repro.blast.output import DbStats, HitSummary, ReportWriter
from repro.costmodel import CostModel
from repro.parallel.config import FTParams, ParallelConfig
from repro.parallel.results import AlignmentMeta
from repro.simmpi.faults import retry_io


@dataclass(frozen=True)
class GlobalDbInfo:
    """Global database statistics every rank needs (small broadcast)."""

    title: str
    num_sequences: int
    total_letters: int

    def payload_nbytes(self) -> int:
        return 32 + len(self.title)


def writer_for(engine: BlastSearch, info: GlobalDbInfo) -> ReportWriter:
    sp = engine.stats_params
    return ReportWriter(
        engine.params.program,
        DbStats(info.title, info.num_sequences, info.total_letters),
        lam=sp.lam,
        k=sp.K,
        h=sp.H,
    )


def header_bytes_for(
    writer: ReportWriter,
    query: SeqRecord,
    selected: list[AlignmentMeta],
) -> bytes:
    summaries = [
        HitSummary(m.subject_defline, m.bit_score, m.evalue) for m in selected
    ]
    return writer.query_header(query.defline, len(query.sequence), summaries)


def footer_bytes_for(
    writer: ReportWriter, engine: BlastSearch, query: SeqRecord,
    info: GlobalDbInfo,
) -> bytes:
    space = engine.effective_space(
        len(query.sequence), info.total_letters, info.num_sequences
    )
    return writer.query_footer(space)


def layout_query_section(
    writer: ReportWriter,
    engine: BlastSearch,
    query: SeqRecord,
    selected: list[AlignmentMeta],
    info: GlobalDbInfo,
    offset: int,
) -> tuple[bytes, list[tuple[AlignmentMeta, int]], bytes, int]:
    """Place one query's report section starting at ``offset``.

    The section is ``header · blocks (in selection order) · footer``;
    block sizes come from the metas, so any rank that holds the
    selection can compute the same byte-exact layout without touching
    the block data.  Returns ``(header, [(meta, block_offset)...],
    footer, end_offset)`` — the caller writes the header at ``offset``,
    each block at its paired offset, and the footer just before
    ``end_offset``.
    """
    header = header_bytes_for(writer, query, selected)
    off = offset + len(header)
    placed = []
    for m in selected:
        placed.append((m, off))
        off += m.block_nbytes
    footer = footer_bytes_for(writer, engine, query, info)
    return header, placed, footer, off + len(footer)


def search_fragment_timed(
    ctx,
    engine: BlastSearch,
    queries: list[SeqRecord],
    volume: DatabaseVolume,
    info: GlobalDbInfo,
    base_oid: int,
    cost: CostModel,
    *,
    nfragments_factor: int = 1,
    filter_local: bool = False,
) -> list[list[Alignment]]:
    """Run the real kernel on a fragment and charge modelled time.

    ``filter_local`` applies the expect filter with the fragment's own
    statistics (what a per-fragment NCBI run does — the mpiBLAST worker
    behaviour); reported E-values stay global either way.
    """
    stats = SearchStats()
    per_query = engine.search_fragment(
        queries,
        volume,
        db_letters=info.total_letters,
        db_num_seqs=info.num_sequences,
        base_oid=base_oid,
        stats=stats,
        filter_db_letters=volume.total_letters if filter_local else None,
        filter_db_num_seqs=volume.num_sequences if filter_local else None,
    )
    ctx.compute(
        cost.search_seconds(
            stats, nqueries=len(queries), nfragments=nfragments_factor
        )
    )
    return per_query


def reliable_read(ctx, ft: FTParams, path: str, *, charge_bytes: int,
                  fs=None, what: str | None = None) -> bytes:
    """One filesystem read, retried through transient I/O errors.

    ``fs`` defaults to the shared filesystem (pass a rank's local disk
    otherwise).  ``what`` labels the retries in the ``FaultReport`` —
    and so in every replay fingerprint — as ``read:<path>`` unless given.
    """
    fs = ctx.fs if fs is None else fs
    return retry_io(
        ctx.engine,
        lambda: fs.read(path, charge_bytes=charge_bytes),
        attempts=ft.io_attempts,
        report=ctx.fault_report,
        what=what or f"read:{path}",
    )


def reliable_write(ctx, ft: FTParams, path: str, offset: int, buf: bytes, *,
                   charge_bytes: int, fs=None,
                   what: str | None = None) -> None:
    """The write counterpart of :func:`reliable_read`; the default
    label is ``write:<path>``."""
    fs = ctx.fs if fs is None else fs
    retry_io(
        ctx.engine,
        lambda: fs.write(path, offset, buf, charge_bytes=charge_bytes),
        attempts=ft.io_attempts,
        report=ctx.fault_report,
        what=what or f"write:{path}",
    )


def write_output(ctx, cfg: ParallelConfig, offset: int, buf: bytes) -> None:
    """One reliable write into the run's report: charged at the wire
    size of ``buf``, its retries labelled ``write:output``."""
    reliable_write(
        ctx, cfg.ft, cfg.output_path, offset, buf,
        charge_bytes=cfg.cost.wire_bytes(len(buf)), what="write:output",
    )


def parse_index(data: bytes) -> DatabaseIndex:
    return DatabaseIndex.from_bytes(data)


def read_queries_bytes(data: bytes) -> list[SeqRecord]:
    return parse_fasta(data.decode("utf-8"))
