"""The per-subject scalar search kernel: the identity oracle.

:func:`search_fragment` returns what
:meth:`repro.blast.engine.BlastSearch.search_fragment` returns — same
alignments in the same order, same :class:`SearchStats` accounting —
one query, one subject, one trigger and one seed at a time.  It is what
``tests/test_batch_identity.py`` holds the wave kernel bit-identical to
and nothing else: no module under ``src/repro`` imports it.

It reads an engine's configuration and reuses what both kernels agree
on by construction (word index, E-value cutoffs, leftover suppression,
rendering) but keeps its own per-seed loop — gap-trigger test, inside
check, anchor, memo key: an oracle must not share the logic it checks.
"""

from __future__ import annotations

import numpy as np

from repro.blast.engine import (
    BlastSearch,
    SearchStats,
    SequenceDatabase,
    _ungapped_hsp,
)
from repro.blast.extend import (
    GappedExtension,
    UngappedHit,
    extend_gapped,
    ungapped_extend,
)
from repro.blast.fasta import SeqRecord
from repro.blast.hsp import HSP, Alignment, cull_contained, hsp_from_extension
from repro.blast.seeding import SeedStats, one_hit_triggers, two_hit_triggers


def search_fragment(
    engine: BlastSearch,
    queries: list[SeqRecord],
    fragment: SequenceDatabase,
    *,
    db_letters: int,
    db_num_seqs: int,
    base_oid: int = 0,
    stats: SearchStats | None = None,
    filter_db_letters: int | None = None,
    filter_db_num_seqs: int | None = None,
) -> list[list[Alignment]]:
    """``engine.search_fragment(...)``, by the scalar kernel."""
    out = [
        _search_one(
            engine, qi, engine.alphabet.encode(qrec.sequence), fragment,
            db_letters, db_num_seqs, base_oid, stats,
            filter_db_letters, filter_db_num_seqs,
        )
        for qi, qrec in enumerate(queries)
    ]
    if stats is not None:
        stats.queries += len(queries)
    return out


def _search_one(
    engine: BlastSearch,
    query_index: int,
    qcodes: np.ndarray,
    fragment: SequenceDatabase,
    db_letters: int,
    db_num_seqs: int,
    base_oid: int,
    stats: SearchStats | None,
    filter_db_letters: int | None,
    filter_db_num_seqs: int | None,
) -> list[Alignment]:
    p = engine.params
    index = engine._index_for(qcodes)
    sstats = SeedStats()
    # Memo of gapped extensions within one (query x fragment) search:
    # duplicated subjects produce identical (subject bytes, anchor) DP
    # problems; repeats are answered from here and counted as
    # ``SearchStats.gapped_dedup``, as the wave kernel's per-query memo
    # does.
    memo: dict[tuple, GappedExtension] = {}
    space, filter_space, min_raw, min_keep = engine._cutoffs(
        len(qcodes), db_letters, db_num_seqs,
        filter_db_letters, filter_db_num_seqs,
    )

    alignments: list[Alignment] = []
    nsub = fragment.num_sequences
    for si in range(nsub):
        scodes = fragment.get_codes(si)
        spos, qpos = index.find_hits(scodes, sstats)
        if len(spos) == 0:
            continue
        if p.program == "blastp":
            triggers = two_hit_triggers(
                spos,
                qpos,
                window=p.two_hit_window,
                word_size=p.effective_word_size,
            )
        else:
            triggers = one_hit_triggers(spos, qpos)
        if len(triggers[0]) == 0:
            continue
        sstats.triggers += len(triggers[0])
        hsps = _extend_subject(
            engine, qcodes, scodes, triggers, si, stats, min_keep, memo
        )
        if not hsps:
            continue
        hsps = cull_contained(hsps)
        for h in hsps:
            if h.score < min_raw:
                continue
            al = engine._render(
                query_index,
                qcodes,
                scodes,
                h,
                fragment.get_defline(si),
                base_oid + si,
                space,
            )
            # Filter in the (possibly fragment-local) space; the
            # reported evalue on the record is always global.
            if engine.stats_params.evalue(h.score, filter_space) <= p.expect:
                alignments.append(al)
    if stats is not None:
        stats.subjects += nsub
        stats.letters_scanned += sstats.positions_scanned
        stats.word_hits += sstats.word_hits
        stats.triggers += sstats.triggers
        stats.alignments += len(alignments)
    alignments.sort(key=Alignment.sort_key)
    return alignments


def _extend_subject(
    engine: BlastSearch,
    q: np.ndarray,
    s: np.ndarray,
    triggers: tuple[np.ndarray, np.ndarray],
    subject_local_index: int,
    stats: SearchStats | None,
    min_keep: int,
    memo: dict[tuple, GappedExtension],
) -> list[HSP]:
    p = engine.params
    w = p.effective_word_size
    # Ungapped stage, skipping triggers inside already-extended
    # regions on the same diagonal.
    covered: dict[int, int] = {}
    ungapped_hits = []
    tq, ts = triggers
    for qp, sp in zip(tq.tolist(), ts.tolist()):
        dg = qp - sp
        if covered.get(dg, -1) >= sp:
            continue
        hit = ungapped_extend(
            q, s, qp, sp, w, engine.matrix, p.x_drop_ungapped
        )
        covered[dg] = hit.send
        if stats is not None:
            stats.ungapped_extensions += 1
        if hit.score > 0 and hit.score >= min_keep:
            ungapped_hits.append(hit)
    if not ungapped_hits:
        return []
    return _gapped_stage(
        engine, q, s, ungapped_hits, subject_local_index, stats, memo
    )


def _gapped_stage(
    engine: BlastSearch,
    q: np.ndarray,
    s: np.ndarray,
    ungapped_hits: list[UngappedHit],
    subject_local_index: int,
    stats: SearchStats | None,
    memo: dict[tuple, GappedExtension],
) -> list[HSP]:
    p = engine.params
    if not p.gapped:
        return [_ungapped_hsp(subject_local_index, h) for h in ungapped_hits]

    # Gapped stage: extend each qualifying ungapped HSP, best first,
    # skipping seeds already inside a gapped alignment.  Duplicate
    # (subject sequence, anchor) triples — common with replicated
    # subjects in synthetic DBs — reuse the memoized DP result.
    ungapped_hits.sort(key=lambda h: (-h.score, h.qstart, h.sstart))
    skey: bytes | None = None
    gapped: list[HSP] = []
    leftovers = []
    for h in ungapped_hits:
        if h.score < engine.gap_trigger_raw:
            leftovers.append(h)
            continue
        inside = any(
            g.qstart <= h.qstart
            and h.qend <= g.qend
            and g.sstart <= h.sstart
            and h.send <= g.send
            for g in gapped
        )
        if inside:
            continue
        mid = (h.qstart + h.qend) // 2
        anchor_q = mid
        anchor_s = h.sstart + (mid - h.qstart)
        if skey is None:
            skey = s.tobytes()
        key = (skey, anchor_q, anchor_s)
        ext = memo.get(key)
        if ext is not None:
            if stats is not None:
                stats.gapped_dedup += 1
        else:
            ext = extend_gapped(
                q,
                s,
                anchor_q,
                anchor_s,
                engine.matrix,
                p.gap_open,
                p.gap_extend,
                p.x_drop_gapped,
            )
            memo[key] = ext
            if stats is not None:
                stats.gapped_extensions += 1
        gapped.append(hsp_from_extension(subject_local_index, ext))
    return engine._finish_gapped(subject_local_index, gapped, leftovers)
