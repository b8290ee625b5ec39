"""Serial whole-database BLAST — the byte-equality oracle.

``serial_report`` performs the search outside the simulator and renders
the report exactly as the parallel drivers assemble it (same preamble /
per-query header / ranked blocks / footer pieces), so its output —
staged by ``run_serial_reference``, or written to disk by ``repro
search`` — is the reference both mpiBLAST and pioBLAST must reproduce
byte-for-byte (the paper's §3 correctness claim).
"""

from __future__ import annotations

from repro.blast.engine import BlastSearch, SearchParams, finalize_results
from repro.blast.fasta import SeqRecord
from repro.blast.formatdb import FormattedDatabase
from repro.blast.hsp import QueryResult
from repro.parallel.common import (
    GlobalDbInfo,
    footer_bytes_for,
    header_bytes_for,
    read_queries_bytes,
    writer_for,
)
from repro.parallel.config import ParallelConfig
from repro.parallel.results import meta_from_alignment
from repro.simmpi import FileStore


def serial_report(
    db: FormattedDatabase, queries: list[SeqRecord], params: SearchParams
) -> tuple[bytes, list[QueryResult]]:
    """Search ``queries`` against ``db``; the report and ranked results."""
    engine = BlastSearch(params)
    info = GlobalDbInfo(db.title, db.num_sequences, db.total_letters)

    per_query = engine.search_fragment(
        queries,
        db,
        db_letters=db.total_letters,
        db_num_seqs=db.num_sequences,
    )
    results = finalize_results(queries, per_query, params.max_alignments)

    writer = writer_for(engine, info)
    parts = [writer.preamble()]
    for qrec, qr in zip(queries, results):
        ranked = qr.alignments
        metas = [
            meta_from_alignment(a, 0, i, 0) for i, a in enumerate(ranked)
        ]
        parts.append(header_bytes_for(writer, qrec, metas))
        for a in ranked:
            parts.append(writer.alignment_block(a))
        parts.append(footer_bytes_for(writer, engine, qrec, info))
    return b"".join(parts), results


def run_serial_reference(
    store: FileStore, config: ParallelConfig, *, output_path: str | None = None
) -> bytes:
    """Search and write the reference report; returns its bytes."""
    db = FormattedDatabase.open(config.db_name, store.read_all)
    queries = read_queries_bytes(store.read_all(config.query_path))
    report, _results = serial_report(db, queries, config.search)
    store.write(output_path or config.output_path, 0, report)
    return report
