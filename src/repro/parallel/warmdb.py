"""Warm-database primitives: partition once, search many times.

The batch drivers (`pioblast`, `mpiblast`) historically fused three
things into one run-once function: *partitioning* the database from its
global index, *loading* fragment byte ranges into worker memory, and
*searching* them for one fixed query set.  A resident service
(:mod:`repro.service`) needs the first two to happen once — at startup,
against a warm database — and the third to run repeatedly for every
admitted query wave.  This module is that split: pure functions over a
:class:`~repro.simmpi.launcher.ProcContext`, shared verbatim by the
batch drivers (which now call them) and by the service scheduler.

It also owns the *stale fragment map* guard.  A partition is computed
from the ``.xin`` index files at one instant; if the database is
re-formatted or re-partitioned while a run (or a long-lived service) is
using that partition, the byte ranges silently point into the wrong
sequences.  :func:`fingerprint_database` captures the volume layout at
partition time and :func:`check_fingerprint` fails fast with a clear
:exc:`ValueError` the moment the layout no longer matches — instead of
searching a stale fragment map and producing corrupt output.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

from repro.blast.engine import BlastSearch
from repro.blast.formatdb import DatabaseIndex, DatabaseVolume
from repro.parallel.common import (
    GlobalDbInfo,
    parse_index,
    reliable_read,
    search_fragment_timed,
)
from repro.parallel.config import ParallelConfig
from repro.parallel.fragments import (
    VolumePiece,
    pieces_for_single_volume,
    virtual_partition_multi,
)
from repro.parallel.results import AlignmentMeta, meta_from_alignment
from repro.simmpi import FileStore, MPIFile, ProcContext


@dataclass(frozen=True)
class DbFingerprint:
    """The volume layout a fragment map was computed from.

    One ``(base_name, index_nbytes, index_crc32)`` triple per volume:
    any re-format, re-partition or volume addition/removal changes at
    least one index file, so comparing fingerprints detects every way
    the byte ranges of an existing partition can go stale.
    """

    db_name: str
    volumes: tuple[tuple[str, int, int], ...]


def _volume_bases(store: FileStore, db_name: str) -> list[str]:
    if store.exists(f"{db_name}.xal"):
        from repro.blast.formatdb import parse_alias

        bases, _title = parse_alias(store.read_all(f"{db_name}.xal"))
        return list(bases)
    return [db_name]


def fingerprint_database(store: FileStore, db_name: str) -> DbFingerprint:
    """Capture the current volume layout from the raw store.

    Reads the raw :class:`FileStore` (not the timed filesystem model):
    the fingerprint is bookkeeping of the scheduler, not modelled I/O,
    so it must not perturb virtual time.
    """
    vols = []
    for base in _volume_bases(store, db_name):
        path = f"{base}.xin"
        if not store.exists(path):
            raise ValueError(
                f"database {db_name!r} has no index file {path!r}"
            )
        data = store.read_all(path)
        vols.append((base, len(data), zlib.crc32(data)))
    return DbFingerprint(db_name, tuple(vols))


def check_fingerprint(
    store: FileStore, expected: DbFingerprint, *, where: str
) -> None:
    """Fail fast if the database no longer matches ``expected``.

    Raises :exc:`ValueError` naming what changed; ``where`` says which
    scheduling step tripped the guard (e.g. ``"query batch 2"`` or
    ``"service wave 7"``).
    """
    try:
        current = fingerprint_database(store, expected.db_name)
    except ValueError as e:
        raise ValueError(
            f"database {expected.db_name!r} was re-partitioned mid-run "
            f"(at {where}): {e}; the fragment map computed at startup is "
            "stale — restart the run to re-partition"
        ) from None
    if current != expected:
        old = {b: (n, c) for b, n, c in expected.volumes}
        new = {b: (n, c) for b, n, c in current.volumes}
        changed = sorted(
            set(old) ^ set(new)
            | {b for b in set(old) & set(new) if old[b] != new[b]}
        )
        raise ValueError(
            f"database {expected.db_name!r} was re-partitioned mid-run "
            f"(at {where}): volume index changed for {changed}; the "
            "fragment map computed at startup is stale — restart the "
            "run to re-partition"
        )


def partition_database(
    ctx: ProcContext,
    cfg: ParallelConfig,
    nfrag: int,
    *,
    reliable: bool = False,
) -> tuple[GlobalDbInfo, list[list[VolumePiece]], dict[str, bytes]]:
    """Dynamic virtual partitioning from the global index (paper §3.1).

    Reads every volume's ``.xin`` (multi-volume databases via the
    ``.xal`` alias, the 11 GB *nt* case of §4) and computes ``nfrag``
    fragments of byte ranges.  ``reliable`` retries transient I/O errors
    (the FT drivers' read path).  Returns the global statistics, the
    fragment list and the raw index bytes (workers re-parse them
    locally).
    """
    cost = cfg.cost
    if ctx.fs.exists(f"{cfg.db_name}.xal"):
        from repro.blast.formatdb import parse_alias

        bases, alias_title = parse_alias(ctx.fs.read(f"{cfg.db_name}.xal"))
    else:
        bases, alias_title = [cfg.db_name], None
    index_bytes: dict[str, bytes] = {}
    indexes = []
    for base in bases:
        path = f"{base}.xin"
        charge = cost.db_wire_bytes(ctx.fs.size(path))
        if reliable:
            data = reliable_read(ctx, cfg.ft, path, charge_bytes=charge)
        else:
            data = ctx.fs.read(path, charge_bytes=charge)
        index_bytes[base] = data
        indexes.append(parse_index(data))
    info = GlobalDbInfo(
        alias_title or indexes[0].title,
        sum(ix.nseqs for ix in indexes),
        sum(ix.total_letters for ix in indexes),
    )
    if len(bases) == 1:
        frags = pieces_for_single_volume(indexes[0], cfg.db_name, nfrag)
    else:
        frags = virtual_partition_multi(indexes, bases, nfrag)
    return info, frags, index_bytes


def load_fragment_pieces(
    ctx: ProcContext,
    cfg: ParallelConfig,
    pieces: list[VolumePiece],
    indexes: dict[str, DatabaseIndex],
    *,
    reliable: bool = False,
) -> list[tuple[VolumePiece, DatabaseVolume]]:
    """Parallel input (§3.1): read one fragment's byte ranges into memory.

    Each piece is a byte range of one volume's global ``.xhr``/``.xsq``;
    the returned in-memory volumes are what the search kernel runs on —
    load once, search any number of query waves.  With
    ``cfg.parallel_input`` off (ablation) every worker reads the whole
    files and slices locally.  ``reliable`` uses the retrying MPI-IO
    reads of the FT drivers.
    """
    cost, ft = cfg.cost, cfg.ft
    frag_vols: list[tuple[VolumePiece, DatabaseVolume]] = []
    for piece in pieces:
        fx_hr = MPIFile(ctx.comm, ctx.fs, f"{piece.base_name}.xhr")
        fx_sq = MPIFile(ctx.comm, ctx.fs, f"{piece.base_name}.xsq")
        if reliable:
            xhr = fx_hr.read_at_reliable(
                *piece.xhr_range,
                charge_bytes=cost.db_wire_bytes(piece.xhr_range[1]),
                attempts=ft.io_attempts, report=ctx.fault_report,
            )
            xsq = fx_sq.read_at_reliable(
                *piece.xsq_range,
                charge_bytes=cost.db_wire_bytes(piece.xsq_range[1]),
                attempts=ft.io_attempts, report=ctx.fault_report,
            )
        elif cfg.parallel_input:
            xhr = fx_hr.read_at(
                *piece.xhr_range,
                charge_bytes=cost.db_wire_bytes(piece.xhr_range[1]),
            )
            xsq = fx_sq.read_at(
                *piece.xsq_range,
                charge_bytes=cost.db_wire_bytes(piece.xsq_range[1]),
            )
        else:
            # Ablation: every worker reads the *whole* files and
            # slices locally (no range-based parallel input).
            hr_size = ctx.fs.size(f"{piece.base_name}.xhr")
            sq_size = ctx.fs.size(f"{piece.base_name}.xsq")
            whole_hr = fx_hr.read_at(
                0, hr_size, charge_bytes=cost.db_wire_bytes(hr_size)
            )
            whole_sq = fx_sq.read_at(
                0, sq_size, charge_bytes=cost.db_wire_bytes(sq_size)
            )
            h0, hn = piece.xhr_range
            s0, sn = piece.xsq_range
            xhr = whole_hr[h0 : h0 + hn]
            xsq = whole_sq[s0 : s0 + sn]
        vol = DatabaseVolume(
            indexes[piece.base_name], xhr, xsq,
            lo=piece.lo, hi=piece.hi,
        )
        frag_vols.append((piece, vol))
    return frag_vols


def search_loaded_pieces(
    ctx: ProcContext,
    cfg: ParallelConfig,
    engine: BlastSearch,
    writer,
    queries,
    info: GlobalDbInfo,
    frag_vols: list[tuple[VolumePiece, DatabaseVolume]],
    owner: int,
) -> tuple[list[bytes], list[list[AlignmentMeta]]]:
    """Search warm (already-loaded) pieces; render + cache blocks.

    Returns the fragment's rendered block list and per-query metadata
    whose ``owner_rank`` field carries ``owner`` and whose ``local_id``
    indexes the block list.  Rendering is deterministic, so any rank
    that searches the same pieces for the same queries produces
    byte-identical blocks under the same local ids — the property that
    lets a master re-home output after a worker death.
    """
    cost = cfg.cost
    blist: list[bytes] = []
    metas_per_query: list[list[AlignmentMeta]] = [[] for _ in queries]
    for piece, volume in frag_vols:
        per_query = search_fragment_timed(
            ctx, engine, queries, volume, info, piece.global_base, cost
        )
        for qi, als in enumerate(per_query):
            for al in als:
                block = writer.alignment_block(al)
                ctx.compute(cost.render_seconds(len(block)))
                lid = len(blist)
                blist.append(block)
                metas_per_query[qi].append(
                    meta_from_alignment(al, owner, lid, len(block))
                )
    return blist, metas_per_query
