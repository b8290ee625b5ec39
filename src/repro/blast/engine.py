"""The BLAST search driver.

``BlastSearch`` wires the pipeline together: word index → scan →
two-hit triggers → ungapped X-drop extensions → gapped X-drop
extensions (when the best ungapped score reaches the gap trigger) →
containment culling → Karlin–Altschul statistics → ranked alignments.

Statistics note for parallel correctness: E-values are always computed
against the *global* database size (``db_letters``/``db_num_seqs``
arguments), even when only a fragment is being searched — this mirrors
mpiBLAST, and it is what makes fragment results mergeable into exactly
the output a serial whole-database search produces.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields
from typing import Protocol

import numpy as np

from repro.blast.alphabet import (
    DNA,
    NUM_STD_AA,
    NUM_STD_NT,
    PROTEIN,
    Alphabet,
)
from repro.blast.extend import (
    GappedBatchStats,
    UngappedHit,
    extend_gapped_batch,
    ungapped_extend_batch,
)
from repro.blast.fasta import SeqRecord
from repro.blast.hsp import (
    HSP,
    Alignment,
    QueryResult,
    cull_contained,
    hsp_from_extension,
)
from repro.blast.karlin import (
    effective_search_space,
    gapped_params,
    karlin_params,
)
from repro.blast.matrices import dna_matrix, get_matrix
from repro.blast.seeding import WordIndex, rolling_codes, wave_triggers


@dataclass(frozen=True)
class SearchParams:
    """Knobs of a BLAST search (NCBI-flavoured defaults)."""

    program: str = "blastp"
    matrix_name: str = "BLOSUM62"
    gap_open: int = 11
    gap_extend: int = 1
    gapped: bool = True
    word_size: int = 0  # 0 → program default (3 for blastp, 11 for blastn)
    threshold: int = 11  # neighbourhood score threshold T
    two_hit_window: int = 40  # A
    x_drop_ungapped: int = 16  # raw score units
    x_drop_gapped: int = 38
    expect: float = 10.0
    gap_trigger_bits: float = 22.0
    max_alignments: int = 100  # per query, applied after global ranking
    dna_match: int = 1
    dna_mismatch: int = -3

    def __post_init__(self) -> None:
        if self.program not in ("blastp", "blastn"):
            raise ValueError(f"unsupported program {self.program!r}")
        if self.gap_open < 0 or self.gap_extend < 1:
            raise ValueError("need gap_open >= 0 and gap_extend >= 1")
        if self.word_size < 0:
            raise ValueError("word_size must be >= 0 (0 = program default)")
        if self.expect <= 0:
            raise ValueError("expect threshold must be positive")
        if self.max_alignments < 1:
            raise ValueError("max_alignments must be >= 1")
        if self.x_drop_ungapped < 1 or self.x_drop_gapped < 1:
            raise ValueError("X-drop parameters must be >= 1")
        if self.two_hit_window < self.effective_word_size:
            raise ValueError("two_hit_window must cover at least one word")

    @property
    def effective_word_size(self) -> int:
        if self.word_size:
            return self.word_size
        return 3 if self.program == "blastp" else 11


@dataclass
class SearchStats:
    """Work counters (drives the simulator's cost model).

    ``gapped_extensions`` counts gapped DPs actually *executed*;
    ``gapped_dedup`` counts seeds answered from the per-query memo of
    identical ``(subject, anchor)`` extensions instead of re-running
    the DP.  Both are path-independent (the wave kernel and the scalar
    oracle, ``reference.py`` in this package, memoize identically), so
    they participate in the bit-identity equality the property suite
    asserts.  The ``gapped_widenings`` / ``gapped_fallbacks`` /
    ``gapped_peak_cells`` / ``gapped_rows`` health counters describe the
    banded engine only and are excluded from equality.
    """

    queries: int = 0
    subjects: int = 0
    letters_scanned: int = 0
    word_hits: int = 0
    triggers: int = 0
    ungapped_extensions: int = 0
    gapped_extensions: int = 0
    gapped_dedup: int = 0
    alignments: int = 0
    gapped_widenings: int = field(default=0, compare=False)
    gapped_fallbacks: int = field(default=0, compare=False)
    gapped_peak_cells: int = field(default=0, compare=False)
    gapped_rows: int = field(default=0, compare=False)

    def merge(self, other: "SearchStats") -> None:
        for f in fields(self):
            a, b = getattr(self, f.name), getattr(other, f.name)
            peak = f.name == "gapped_peak_cells"
            setattr(self, f.name, max(a, b) if peak else a + b)


class SequenceDatabase(Protocol):
    """What the driver needs from a database (or database fragment)."""

    @property
    def num_sequences(self) -> int: ...

    @property
    def total_letters(self) -> int: ...

    def get_codes(self, i: int) -> np.ndarray: ...

    def get_defline(self, i: int) -> str: ...

    def get_length(self, i: int) -> int: ...


class ListDatabase:
    """In-memory :class:`SequenceDatabase` over FASTA records."""

    def __init__(self, records: list[SeqRecord], alphabet: Alphabet):
        self.records = list(records)
        self.alphabet = alphabet
        self._codes = [alphabet.encode(r.sequence) for r in self.records]

    @property
    def num_sequences(self) -> int:
        return len(self.records)

    @property
    def total_letters(self) -> int:
        return sum(len(c) for c in self._codes)

    def get_codes(self, i: int) -> np.ndarray:
        return self._codes[i]

    def get_defline(self, i: int) -> str:
        return self.records[i].defline

    def get_length(self, i: int) -> int:
        return len(self._codes[i])


@dataclass
class _Joined:
    """Code arrays concatenated around sentinel codes (see _join)."""

    concat: np.ndarray
    starts: np.ndarray
    lens: np.ndarray
    seq_of: np.ndarray


def _join(seqs: list[np.ndarray], sentinel: int) -> _Joined:
    """Concatenate code arrays around sentinel codes.

    The result carries the concatenation (one sentinel before, between
    and after the sequences), each sequence's start offset inside it and
    its length, and a concat position → sequence id lookup (O(1) per
    hit; sentinel slots get the preceding sequence's id, and hits never
    land on a sentinel, so that never surfaces).
    """
    n = len(seqs)
    lens = np.fromiter((len(c) for c in seqs), dtype=np.int64, count=n)
    starts = np.cumsum(lens + 1) - lens
    concat = np.full(int(lens.sum()) + n + 1, sentinel, dtype=np.uint8)
    for off, codes in zip(starts.tolist(), seqs):
        concat[off : off + len(codes)] = codes
    marks = np.zeros(len(concat), dtype=np.int32)
    marks[starts[1:]] = 1
    return _Joined(concat, starts, lens, np.cumsum(marks, dtype=np.int32))


@dataclass
class _Wave:
    """The queries of one ``search_fragment`` call, laid out as one array.

    The same sentinel join the fragment's subjects get (so
    ``matrix_ext`` ends every extension at a query boundary) plus the
    joint word index and, per index entry, which query it belongs to
    and the offset inside that query.  A pure function of the query
    letters and the scoring config, memoised process-wide.
    """

    qcodes: list[np.ndarray]
    joined: _Joined
    index: WordIndex
    entry_qid: np.ndarray
    entry_ql: np.ndarray


@dataclass
class _GapState:
    """One (query, subject) pair in the round-based gapped dispatcher.

    ``ptr`` walks the score-sorted seed list; ``slot`` is the index of
    the DP this pair is waiting on in the current lockstep round.
    Holding at most one outstanding DP per pair preserves the scalar
    rule that each seed's inside-check sees all earlier seeds' results.
    """

    qi: int
    si: int
    qcodes: np.ndarray
    scodes: np.ndarray
    skey: bytes
    hits: list
    ptr: int = 0
    slot: int = -1
    gapped: list = field(default_factory=list)
    leftovers: list = field(default_factory=list)


def _ungapped_hsp(subject_local_index: int, h: UngappedHit) -> HSP:
    """An ungapped extension reported as it stands: all-match ops."""
    return HSP(
        subject_oid=subject_local_index,
        qstart=h.qstart,
        qend=h.qend,
        sstart=h.sstart,
        send=h.send,
        score=h.score,
        ops="M" * (h.qend - h.qstart),
    )


class BlastSearch:
    """A configured search engine, reusable across queries and fragments."""

    def __init__(self, params: SearchParams | None = None):
        self.params = params if params is not None else SearchParams()
        p = self.params
        if p.program == "blastp":
            self.alphabet = PROTEIN
            self.nstd = NUM_STD_AA
            self.matrix = get_matrix(p.matrix_name)
            self.ungapped = karlin_params(self.matrix)
            self.stats_params = (
                gapped_params(
                    p.matrix_name, p.gap_open, p.gap_extend, ungapped=self.ungapped
                )
                if p.gapped
                else self.ungapped
            )
        elif p.program == "blastn":
            self.alphabet = DNA
            self.nstd = NUM_STD_NT
            self.matrix = dna_matrix(p.dna_match, p.dna_mismatch)
            self.ungapped = karlin_params(self.matrix, alphabet=DNA)
            # blastn reports with ungapped statistics (NCBI practice for
            # the default large gap penalties).
            self.stats_params = self.ungapped
        else:
            raise ValueError(f"unsupported program {p.program!r}")
        self.gap_trigger_raw = int(
            round(
                (p.gap_trigger_bits * np.log(2.0) + np.log(self.ungapped.K))
                / self.ungapped.lam
            )
        )
        # Sentinel-extended matrix for the batched kernel: fragment
        # records are concatenated with a sentinel code between them
        # whose score against anything is far below any X-drop, so a
        # vectorized extension terminates at a record boundary exactly
        # where the scalar path runs out of array.
        size = self.matrix.shape[0]
        self.sentinel_code = size
        ext = np.full((size + 1, size + 1), -(1 << 30), dtype=np.int64)
        ext[:size, :size] = self.matrix
        self.matrix_ext = ext
        # Host-seconds per wave-kernel stage, accumulated across
        # blocks/fragments (scan / ungapped / gapped / render).
        # Purely observational: repro.obs.bench reports it per scenario.
        self.stage_times: dict[str, float] = {}

    # Process-wide memo of word indexes, waves and cutoffs.  All are
    # immutable and pure functions of their keys; sharing them across
    # the simulated ranks only removes redundant *wall-clock* work —
    # virtual time for index construction is charged by the cost
    # model.  One dict, one cap: a long service run clears it every
    # ``_MEMO_CAP`` distinct entries.
    _GLOBAL_INDEX_MEMO: dict[tuple, "WordIndex | _Wave | tuple"] = {}
    _MEMO_CAP = 4096

    def _memo_put(self, key: tuple, value: object) -> None:
        memo = BlastSearch._GLOBAL_INDEX_MEMO
        if len(memo) >= self._MEMO_CAP:
            memo.clear()
        memo[key] = value

    def _scoring_key(self) -> tuple:
        p = self.params
        return (
            p.program,
            p.matrix_name,
            p.effective_word_size,
            p.threshold,
            p.dna_match,
            p.dna_mismatch,
        )

    # ------------------------------------------------------------------
    def _index_for(self, qcodes: np.ndarray) -> WordIndex:
        p = self.params
        key = (qcodes.tobytes(), *self._scoring_key())
        idx = BlastSearch._GLOBAL_INDEX_MEMO.get(key)
        if idx is None:
            idx = WordIndex(
                qcodes,
                self.matrix,
                word_size=p.effective_word_size,
                threshold=p.threshold,
                nstd=self.nstd,
                exact_only=(p.program == "blastn"),
            )
            self._memo_put(key, idx)
        return idx

    def _wave_for(self, queries: list[SeqRecord]) -> _Wave:
        """The call's queries encoded, joined and jointly indexed.

        Keyed by the query letters, so the fragments of one job (and
        every simulated rank searching the same batch) encode, join and
        merge once.
        """
        key = (tuple(q.sequence for q in queries), *self._scoring_key())
        wave = BlastSearch._GLOBAL_INDEX_MEMO.get(key)
        if wave is None:
            qcodes = [self.alphabet.encode(q.sequence) for q in queries]
            joined = _join(qcodes, self.sentinel_code)
            index = WordIndex.merged(
                [self._index_for(c) for c in qcodes], joined.starts
            )
            qid = joined.seq_of[index.data].astype(np.int64)
            wave = _Wave(
                qcodes, joined, index, qid, index.data - joined.starts[qid]
            )
            self._memo_put(key, wave)
        return wave

    # ------------------------------------------------------------------
    def search_fragment(
        self,
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
        """Search all queries against one database fragment.

        Returns, per query, the alignments passing the expect filter,
        with **global** subject oids (``base_oid`` + local index) and
        E-values computed against the global database statistics.

        ``filter_db_letters``/``filter_db_num_seqs`` optionally apply the
        expect *filter* against a different (e.g. fragment-local) search
        space.  This mirrors an un-informed per-fragment NCBI BLAST run,
        which is what mpiBLAST workers execute: a smaller space lowers
        local E-values, so more marginal candidates flow to the master —
        the paper's 'total size of result alignments to be screened and
        merged by the master increases linearly' behaviour.  Reported
        E-values are always global, so a downstream global filter
        restores exactly the serial result list.
        """
        if not queries:
            return []
        out = self._search_wave(
            self._wave_for(queries), fragment, db_letters, db_num_seqs,
            base_oid, stats, filter_db_letters, filter_db_num_seqs,
        )
        if stats is not None:
            stats.queries += len(queries)
        return out

    # ------------------------------------------------------------------
    def _cutoffs(
        self,
        qlen: int,
        db_letters: int,
        db_num_seqs: int,
        filter_db_letters: int | None,
        filter_db_num_seqs: int | None,
    ) -> tuple[float, float, float, float]:
        """One query's ``(space, filter_space, min_raw, min_keep)``.

        A pure function of its arguments and the params, memoised
        process-wide beside the waves: the DB totals are the run's.
        ``min_keep`` is the lowest ungapped score that can still
        influence the output: below both the gap trigger (never
        gapped-extended) and ``min_raw`` (never rendered) an HSP is
        inert — culling and the leftover check rank by score first — so
        dropping it right after extension is output-identical.
        """
        p = self.params
        key = (p, qlen, db_letters, db_num_seqs,
               filter_db_letters, filter_db_num_seqs)
        cut = BlastSearch._GLOBAL_INDEX_MEMO.get(key)
        if cut is None:
            sp = self.stats_params
            space = effective_search_space(sp, qlen, db_letters, db_num_seqs)
            filter_space = space
            if filter_db_letters is not None:
                filter_space = effective_search_space(
                    sp, qlen, filter_db_letters, filter_db_num_seqs or 1
                )
            # Raw score that meets the expect threshold: cheap pre-filter.
            min_raw = sp.raw_score_for_evalue(p.expect, filter_space)
            keep = min(self.gap_trigger_raw, min_raw) if p.gapped else min_raw
            cut = (space, filter_space, min_raw, keep)
            self._memo_put(key, cut)
        return cut

    # ------------------------------------------------------------------
    # wave kernel
    # ------------------------------------------------------------------
    #: query letters x subject letters per scan slab — bounds the
    #: transient hit, trigger and ungapped arrays, most of a large
    #: call's peak memory (one ~300-letter query: 2^19-letter slabs;
    #: more query letters, proportionally shorter slabs).
    BLOCK_CELLS = 300 << 19
    #: slabs whose survivors share one gapped cohort, which costs per
    #: DP row however many slots it holds.
    SLABS_PER_COHORT = 4
    #: initial half-band of the banded gapped DP: too narrow only costs
    #: widening retries (see repro.blast.extend), never correctness.
    BAND = 32

    def _fragment_scan(
        self, fragment: SequenceDatabase, slab_letters: int
    ) -> tuple[_Joined, list[tuple[int, int]]]:
        """Join a fragment's records and cut them into slabs.

        Returns the join and ``[lo, hi)`` subject ranges whose total
        letters stay under ``slab_letters`` (a record longer than that
        gets a slab of its own).
        """
        nsub = fragment.num_sequences
        joined = _join(
            [fragment.get_codes(i) for i in range(nsub)], self.sentinel_code
        )
        slabs: list[tuple[int, int]] = []
        lo = 0
        acc = 0
        for i, n in enumerate(joined.lens.tolist()):
            if acc and acc + n > slab_letters:
                slabs.append((lo, i))
                lo, acc = i, 0
            acc += n
        if nsub:
            slabs.append((lo, nsub))
        return joined, slabs

    def _search_wave(
        self,
        wave: _Wave,
        fragment: SequenceDatabase,
        db_letters: int,
        db_num_seqs: int,
        base_oid: int,
        stats: SearchStats | None,
        filter_db_letters: int | None = None,
        filter_db_num_seqs: int | None = None,
    ) -> list[list[Alignment]]:
        """Every query of the wave against the fragment, block by block.

        Bit-identical, per query, to the per-subject scalar oracle
        (``reference.py`` in this package).  Seeding and the ungapped
        stage run once per (wave x subject slab) block: one lookup in
        the wave's joint word index per scanned position and one sorted
        key per hit with the (query, subject) pair folded in
        (:func:`~repro.blast.seeding.wave_triggers`), so no pair of
        hits spans two queries or two subjects; one ungapped round loop
        over every (query, subject, diagonal) run
        (:func:`ungapped_extend_batch` on the two sentinel-joined
        arrays).  The gap trigger's survivors of ``SLABS_PER_COHORT``
        slabs go through the banded lockstep gapped engine as one cohort
        per round (:meth:`_gapped_stage_batch`).  Per-stage host
        seconds accumulate in :attr:`stage_times`.
        """
        p = self.params
        nq = len(wave.qcodes)
        cut = [
            self._cutoffs(
                len(c), db_letters, db_num_seqs,
                filter_db_letters, filter_db_num_seqs,
            )
            for c in wave.qcodes
        ]
        min_keep = np.array([c[3] for c in cut], dtype=np.float64)
        wave_letters = int(wave.joined.lens.sum())
        subjects, slabs = self._fragment_scan(
            fragment, self.BLOCK_CELLS // max(wave_letters, 1)
        )
        concat, starts, lens = subjects.concat, subjects.starts, subjects.lens
        qcat, qstarts = wave.joined.concat, wave.joined.starts
        max_qlen = int(wave.joined.lens.max())
        memos: list[dict] = [{} for _ in range(nq)]  # gapped, per query
        out: list[list[Alignment]] = [[] for _ in range(nq)]
        w = p.effective_word_size
        word_hits = triggers = 0
        stg = self.stage_times
        for c in range(0, len(slabs), self.SLABS_PER_COHORT):
            pairs: list[_GapState] = []
            for lo, hi in slabs[c : c + self.SLABS_PER_COHORT]:
                t0 = time.perf_counter()
                slab_off = int(starts[lo])
                slab_end = int(starts[hi - 1] + lens[hi - 1]) + 1  # + sentinel
                # Per scanned position: its slice of the joint index, its
                # record and the offset inside it.  Per hit: wave_triggers.
                spos, codes = rolling_codes(
                    concat[slab_off:slab_end], w, self.nstd
                )
                keep, cstarts, counts = wave.index.lookup(codes)
                spos = spos[keep]
                spos += slab_off
                subj = subjects.seq_of[spos]
                spos -= starts[subj]
                subj -= lo
                nsl = hi - lo
                max_slen = int(lens[lo:hi].max())
                word_hits += int(counts.sum())
                t_pair, tq, ts = wave_triggers(
                    subj, spos, cstarts, counts, wave.entry_qid, wave.entry_ql,
                    nq=nq, nsl=nsl, max_qlen=max_qlen, max_slen=max_slen,
                    window=p.two_hit_window, word_size=w,
                    two_hit=p.program == "blastp",
                )
                n_t = len(tq)
                triggers += n_t
                t1 = time.perf_counter()
                stg["scan"] = stg.get("scan", 0.0) + t1 - t0
                if n_t == 0:
                    continue
                # Ungapped stage in rounds: only the first live trigger of
                # each (query, subject, diagonal) run extends; every trigger
                # the scalar path's covered-diagonal rule would skip is
                # skipped here by one vectorized searchsorted over the run
                # keys — batched work equals the scalar path's executed
                # extensions, in as many rounds as the deepest run needs.
                t_query = t_pair // nsl
                t_qoff = qstarts[t_query]
                t_soff = starts[t_pair - t_query * nsl + lo]
                qpos_c = t_qoff + tq
                spos_c = t_soff + ts
                diag = tq - ts
                newg = np.empty(n_t, dtype=bool)
                newg[0] = True
                newg[1:] = (t_pair[1:] != t_pair[:-1]) | (
                    diag[1:] != diag[:-1]
                )
                gid = np.cumsum(newg) - 1
                grp_start = np.flatnonzero(newg)
                grp_end = np.append(grp_start[1:], n_t)
                bigs = max_slen + 2
                gkey = gid * bigs + ts
                # columns: qstart, qend, sstart, send (joined coordinates)
                ext = np.empty((4, n_t), np.int64)
                usc = np.zeros(n_t, np.int64)
                heads = grp_start
                while heads.size:
                    r = ungapped_extend_batch(
                        qcat, concat, qpos_c[heads], spos_c[heads], w,
                        self.matrix_ext, p.x_drop_ungapped,
                    )
                    ext[:, heads] = r[:4]
                    usc[heads] = r[4]
                    if stats is not None:
                        stats.ungapped_extensions += heads.size
                    # Advance each run past triggers covered by this
                    # extension (subject pos <= send, the scalar skip rule).
                    targets = gid[heads] * bigs + (r[3] - t_soff[heads])
                    nxt = np.searchsorted(gkey, targets, side="right")
                    heads = nxt[nxt < grp_end[gid[heads]]]
                # A trigger that never extended keeps score 0 and drops out
                # with the non-positive scores.
                sel = np.flatnonzero((usc > 0) & (usc >= min_keep[t_query]))
                if sel.size:
                    ext = ext[:, sel]
                    ext[:2] -= t_qoff[sel]
                    ext[2:] -= t_soff[sel]
                    rows = list(zip(*ext.tolist(), usc[sel].tolist()))
                    pair = t_pair[sel]
                    edges = np.flatnonzero(pair[1:] != pair[:-1]) + 1
                    bounds = [0, *edges.tolist(), sel.size]
                    for a, b in zip(bounds, bounds[1:]):
                        qi, si = divmod(int(pair[a]), nsl)
                        si += lo
                        off = int(starts[si])
                        scodes = concat[off : off + int(lens[si])]
                        pairs.append(
                            _GapState(
                                qi, si, wave.qcodes[qi], scodes,
                                scodes.tobytes(),
                                [UngappedHit(*row) for row in rows[a:b]],
                            )
                        )
                stg["ungapped"] = (
                    stg.get("ungapped", 0.0) + time.perf_counter() - t1
                )
            t2 = time.perf_counter()
            if p.gapped:
                self._gapped_stage_batch(pairs, memos, stats)
            else:
                for st in pairs:
                    st.gapped = [_ungapped_hsp(st.si, h) for h in st.hits]
            t3 = time.perf_counter()
            stg["gapped"] = stg.get("gapped", 0.0) + t3 - t2
            for st in pairs:
                space, filter_space, min_raw, _ = cut[st.qi]
                for h in cull_contained(st.gapped):
                    if h.score < min_raw:
                        continue
                    al = self._render(
                        st.qi, st.qcodes, st.scodes, h,
                        fragment.get_defline(st.si), base_oid + st.si, space,
                    )
                    # Filter in the (possibly fragment-local) space; the
                    # reported evalue on the record is always global.
                    if (
                        self.stats_params.evalue(h.score, filter_space)
                        <= p.expect
                    ):
                        out[st.qi].append(al)
            stg["render"] = stg.get("render", 0.0) + time.perf_counter() - t3
        for als in out:
            als.sort(key=Alignment.sort_key)
        if stats is not None:
            stats.subjects += nq * fragment.num_sequences
            stats.letters_scanned += nq * int(lens.sum())
            stats.word_hits += word_hits
            stats.triggers += triggers
            stats.alignments += sum(len(als) for als in out)
        return out

    # ------------------------------------------------------------------
    def _finish_gapped(
        self,
        subject_local_index: int,
        gapped: list[HSP],
        leftovers: list[UngappedHit],
    ) -> list[HSP]:
        """Append surviving sub-trigger HSPs after the gapped pass.

        HSPs below the gap trigger are still reported (ungapped) if
        they survive the E-value cutoff downstream — as NCBI BLAST
        does.  Under a *fragment-local* cutoff these marginal HSPs are
        what makes candidate volume grow with fragment count (the
        mpiBLAST merging-pressure mechanism, paper §5).
        """
        for h in leftovers:
            inside = any(
                g.qstart <= h.qstart
                and h.qend <= g.qend
                and g.sstart <= h.sstart
                and h.send <= g.send
                for g in gapped
            )
            if not inside:
                gapped.append(_ungapped_hsp(subject_local_index, h))
        return gapped

    # ------------------------------------------------------------------
    def _gapped_stage_batch(
        self,
        pending: list[_GapState],
        memos: list[dict],
        stats: SearchStats | None,
    ) -> None:
        """Round-based batched gapped stage over many pairs at once.

        Leaves each pair's HSPs in its ``gapped`` list, bit-identical to
        the scalar oracle's gapped stage per (query, subject) pair: a
        pair's seeds are still consumed best-first and its inside-check
        sees exactly the gapped HSPs its own earlier seeds produced,
        because a pair submits at most one DP per round and blocks until
        the result lands.  Across pairs — other subjects, other queries
        of the wave — the rounds run in lockstep through one
        :func:`extend_gapped_batch` cohort; seeds never depend on
        *other* pairs' results, so cross-pair ordering cannot change
        which DPs execute.  ``memos[qi]`` is query ``qi``'s memo for the
        whole call.  Within a round, duplicate (query, subject sequence,
        anchor) keys share one DP slot and the non-first submitters
        count as ``gapped_dedup`` — the same split the scalar memo
        produces, keeping SearchStats path-independent.
        """
        p = self.params
        for st in pending:
            st.hits.sort(key=lambda h: (-h.score, h.qstart, h.sstart))
        while pending:
            waiting: list[_GapState] = []
            round_map: dict[tuple, int] = {}
            bqs: list[np.ndarray] = []
            bsubs: list[np.ndarray] = []
            baq: list[int] = []
            bas: list[int] = []
            bkeys: list[tuple] = []
            for st in pending:
                memo = memos[st.qi]
                queued = False
                while st.ptr < len(st.hits):
                    h = st.hits[st.ptr]
                    st.ptr += 1
                    if h.score < self.gap_trigger_raw:
                        st.leftovers.append(h)
                        continue
                    inside = any(
                        g.qstart <= h.qstart
                        and h.qend <= g.qend
                        and g.sstart <= h.sstart
                        and h.send <= g.send
                        for g in st.gapped
                    )
                    if inside:
                        continue
                    mid = (h.qstart + h.qend) // 2
                    anchor_q = mid
                    anchor_s = h.sstart + (mid - h.qstart)
                    key = (st.skey, anchor_q, anchor_s)
                    ext = memo.get(key)
                    if ext is not None:
                        if stats is not None:
                            stats.gapped_dedup += 1
                        st.gapped.append(hsp_from_extension(st.si, ext))
                        continue
                    slot = round_map.get((st.qi, *key))
                    if slot is None:
                        slot = len(bsubs)
                        round_map[(st.qi, *key)] = slot
                        bqs.append(st.qcodes)
                        bsubs.append(st.scodes)
                        baq.append(anchor_q)
                        bas.append(anchor_s)
                        bkeys.append((memo, key))
                    elif stats is not None:
                        stats.gapped_dedup += 1
                    st.slot = slot
                    queued = True
                    break
                if queued:
                    waiting.append(st)
                else:
                    self._finish_gapped(st.si, st.gapped, st.leftovers)
            if bsubs:
                bst = GappedBatchStats()
                exts = extend_gapped_batch(
                    bqs, bsubs, baq, bas, self.matrix,
                    p.gap_open, p.gap_extend, p.x_drop_gapped,
                    band=self.BAND, stats=bst,
                )
                for (memo, key), ext in zip(bkeys, exts):
                    memo[key] = ext
                if stats is not None:
                    stats.gapped_extensions += len(bsubs)
                    stats.gapped_widenings += bst.widenings
                    stats.gapped_fallbacks += bst.fallbacks
                    stats.gapped_peak_cells = max(
                        stats.gapped_peak_cells, bst.peak_cells
                    )
                    stats.gapped_rows += bst.rows
                for st in waiting:
                    st.gapped.append(hsp_from_extension(st.si, exts[st.slot]))
            pending = waiting

    # ------------------------------------------------------------------
    def _render(
        self,
        query_index: int,
        q: np.ndarray,
        s: np.ndarray,
        h: HSP,
        subject_defline: str,
        global_oid: int,
        search_space: float,
    ) -> Alignment:
        letters = self.alphabet.letters
        aq: list[str] = []
        mid: list[str] = []
        asub: list[str] = []
        identities = positives = gaps = 0
        i, j = h.qstart, h.sstart
        for op in h.ops:
            if op == "M":
                cq, cs = int(q[i]), int(s[j])
                lq, ls = letters[cq], letters[cs]
                aq.append(lq)
                asub.append(ls)
                if cq == cs:
                    mid.append(lq)
                    identities += 1
                    positives += 1
                elif self.matrix[cq, cs] > 0:
                    mid.append("+")
                    positives += 1
                else:
                    mid.append(" ")
                i += 1
                j += 1
            elif op == "D":  # gap in subject
                aq.append(letters[int(q[i])])
                mid.append(" ")
                asub.append("-")
                gaps += 1
                i += 1
            else:  # 'I': gap in query
                aq.append("-")
                mid.append(" ")
                asub.append(letters[int(s[j])])
                gaps += 1
                j += 1
        sp = self.stats_params
        return Alignment(
            query_index=query_index,
            subject_oid=global_oid,
            subject_defline=subject_defline,
            subject_length=len(s),
            score=h.score,
            bit_score=sp.bit_score(h.score),
            evalue=sp.evalue(h.score, search_space),
            qstart=h.qstart,
            qend=h.qend,
            sstart=h.sstart,
            send=h.send,
            aligned_query="".join(aq),
            midline="".join(mid),
            aligned_subject="".join(asub),
            identities=identities,
            positives=positives,
            gaps=gaps,
        )

    # ------------------------------------------------------------------
    def effective_space(self, query_length: int, db_letters: int,
                        db_num_seqs: int) -> float:
        return effective_search_space(
            self.stats_params, query_length, db_letters, db_num_seqs
        )


def finalize_results(
    queries: list[SeqRecord],
    per_query_alignments: list[list[Alignment]],
    max_alignments: int,
) -> list[QueryResult]:
    """Rank and cap each query's alignments (shared by all drivers)."""
    results = []
    for qi, (qrec, als) in enumerate(zip(queries, per_query_alignments)):
        ranked = sorted(als, key=Alignment.sort_key)[:max_alignments]
        results.append(
            QueryResult(
                query_index=qi,
                query_defline=qrec.defline,
                query_length=len(qrec.sequence),
                alignments=ranked,
            )
        )
    return results


def blastp_search(
    queries: list[SeqRecord] | str,
    subjects: list[SeqRecord] | str,
    params: SearchParams | None = None,
) -> list[QueryResult]:
    """Convenience serial blastp: queries vs subjects (records or FASTA)."""
    return _simple_search(queries, subjects, params or SearchParams())


def blastn_search(
    queries: list[SeqRecord] | str,
    subjects: list[SeqRecord] | str,
    params: SearchParams | None = None,
) -> list[QueryResult]:
    """Convenience serial blastn."""
    base = params or SearchParams(program="blastn", gapped=False)
    if base.program != "blastn":
        raise ValueError("params.program must be 'blastn'")
    return _simple_search(queries, subjects, base)


def _simple_search(
    queries: list[SeqRecord] | str,
    subjects: list[SeqRecord] | str,
    params: SearchParams,
) -> list[QueryResult]:
    from repro.blast.fasta import parse_fasta

    qs = parse_fasta(queries) if isinstance(queries, str) else list(queries)
    subs = parse_fasta(subjects) if isinstance(subjects, str) else list(subjects)
    engine = BlastSearch(params)
    db = ListDatabase(subs, engine.alphabet)
    per_query = engine.search_fragment(
        qs, db, db_letters=db.total_letters, db_num_seqs=db.num_sequences
    )
    return finalize_results(qs, per_query, params.max_alignments)
