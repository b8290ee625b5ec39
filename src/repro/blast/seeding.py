"""Word seeding: neighbourhood word indexes, scanning, two-hit logic.

blastp builds an index of all length-``w`` words whose substitution
score against some query word reaches the neighbourhood threshold ``T``
(Altschul et al. 1990 §3; BLAST 2.0 defaults w=3, T=11).  Database
sequences are scanned against the index, and the *two-hit* heuristic
(Altschul et al. 1997) only triggers an ungapped extension when two
non-overlapping hits land on the same diagonal within a window ``A``.

blastn uses exact word matches (default w=11) and one-hit triggering.

Two scanning paths share the index.  The scalar oracle takes one
subject at a time: :meth:`WordIndex.find_hits` materialises the
``(spos, qpos)`` hit arrays and :func:`two_hit_triggers` /
:func:`one_hit_triggers` pair them up.  The wave kernel
(:func:`wave_triggers`) scans a block of many queries x many subjects
and never builds per-hit coordinates: each hit is one int64 key

    (pair * drange + diagonal + max_slen) * big + subject offset

with ``pair = query * nsl + subject``, which is *linear* in a part known
per scanned subject position and a part known per index entry, so the
block's keys are one ``repeat``, one gather and one add over the CSR
expansion.  Sorted, the keys of one (pair, diagonal) run are adjacent,
ascending by subject offset, and runs are more than the two-hit window
apart (``big > window + longest subject``), so pairing tests never
cross a run.  Precondition of the two-hit test: the keys of a block are
*distinct* — a CSR slice never repeats a query position, so one subject
position cannot hit the same query position twice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def rolling_codes(
    s: np.ndarray, word_size: int, nstd: int
) -> tuple[np.ndarray, np.ndarray]:
    """Rolling word codes of ``s``; returns (positions, codes).

    Positions whose word contains a wildcard (code >= ``nstd``) are
    excluded.  Pure function of the sequence and (word_size, nstd) —
    query-independent, so scan drivers may compute it once per subject
    buffer and reuse it across query indexes.
    """
    n = len(s) - word_size + 1
    if n <= 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    s64 = s.astype(np.int64)
    codes = np.zeros(n, dtype=np.int64)
    valid = np.ones(n, dtype=bool)
    for k in range(word_size):
        part = s64[k : k + n]
        codes = codes * nstd + part
        valid &= part < nstd
    pos = np.nonzero(valid)[0]
    return pos, codes[pos]


@dataclass
class SeedStats:
    """Work counters from scanning one subject (feeds the cost model)."""

    positions_scanned: int = 0
    word_hits: int = 0
    triggers: int = 0


class WordIndex:
    """Query word index with neighbourhood expansion (CSR layout)."""

    def __init__(
        self,
        query: np.ndarray,
        matrix: np.ndarray,
        *,
        word_size: int,
        threshold: int,
        nstd: int,
        exact_only: bool = False,
    ) -> None:
        if word_size < 1:
            raise ValueError("word_size must be >= 1")
        self.word_size = int(word_size)
        self.threshold = int(threshold)
        self.nstd = int(nstd)
        self.query_length = len(query)
        self._build(np.asarray(query), np.asarray(matrix), exact_only)

    def _build(self, q: np.ndarray, m: np.ndarray, exact_only: bool) -> None:
        w, nstd = self.word_size, self.nstd
        npos = len(q) - w + 1
        if npos > 0 and not exact_only and w == 3:
            # Neighbourhood for the blastp case.  The score of candidate
            # word (a,b,c) against the query word at position p is
            # std[q[p],a] + std[q[p+1],b] + std[q[p+2],c].  Two stages:
            # sum the first two letters for all positions at once and
            # keep the (p,a,b) that can still reach T with the best
            # third letter (~6 % of them), then score only those against
            # the 20 third letters — never the npos x 20^3 cube.  Both
            # ``nonzero`` calls walk C order, so entries come out
            # lexicographic in (p,a,b,c), as the cube's would.
            std = m[:nstd, :nstd].astype(np.int32)
            q64 = q.astype(np.int64)
            w0, w1, w2 = q64[:npos], q64[1 : npos + 1], q64[2 : npos + 2]
            pos_ok = np.nonzero((w0 < nstd) & (w1 < nstd) & (w2 < nstd))[0]
            if pos_ok.size:
                a, b, c = std[w0[pos_ok]], std[w1[pos_ok]], std[w2[pos_ok]]
                ab = a[:, :, None] + b[:, None, :]
                need = self.threshold - c.max(axis=1)
                hp, ha, hb = np.nonzero(ab >= need[:, None, None])
                abc = ab[hp, ha, hb][:, None] + c[hp]
                keep, hc = np.nonzero(abc >= self.threshold)
                self._set_csr(
                    ha[keep] * (nstd * nstd) + hb[keep] * nstd + hc,
                    pos_ok[hp[keep]],
                )
                return
        if npos > 0 and (exact_only or w != 3):
            # Exact words (blastn, or exact_only protein mode): the same
            # rolling-code scheme the subject scan uses, so the build is
            # one vectorized pass instead of a per-position Python loop
            # with a per-residue inner loop.
            positions, codes = rolling_codes(q, w, nstd)
        else:
            positions = np.empty(0, dtype=np.int64)
            codes = np.empty(0, dtype=np.int64)
        self._set_csr(codes, positions)

    def _set_csr(self, codes: np.ndarray, positions: np.ndarray) -> None:
        """Lay ``(code, position)`` entries out for :meth:`find_hits`.

        ``positions`` must be ascending within each code once stably
        sorted by code (true of every builder here), so the per-code
        slices of ``data`` come out position-ascending.
        """
        nwords = self.nstd**self.word_size
        self.num_words = nwords
        self._dense = nwords <= 1 << 16
        order = np.argsort(codes, kind="stable")
        self.data = positions[order].astype(np.int64, copy=False)
        if self._dense:
            counts = np.bincount(codes, minlength=nwords)
            self.indptr = np.concatenate(([0], np.cumsum(counts))).astype(
                np.int64
            )
        else:
            # Large word spaces (blastn w=11 has 4^11 ≈ 4.2M words):
            # a dense table would cost O(num_words) to build and to
            # gather from per scan.  Store the distinct codes sorted
            # and binary-search subject codes into them instead —
            # O(entries + scan·log(distinct)).
            codes_sorted = codes[order]
            uniq, ustarts = np.unique(codes_sorted, return_index=True)
            self._uniq = uniq
            self._ubounds = np.concatenate(
                (ustarts, [len(codes_sorted)])
            ).astype(np.int64)
            # Bool membership table: one O(1) gather per scanned
            # position replaces a binary search over the whole scan.
            self._member = np.zeros(nwords, dtype=bool)
            self._member[uniq] = True

    def _entry_codes(self) -> np.ndarray:
        """Word code of each ``data`` entry (the CSR, unrolled)."""
        if self._dense:
            return np.repeat(
                np.arange(self.num_words, dtype=np.int64),
                np.diff(self.indptr),
            )
        return np.repeat(self._uniq, np.diff(self._ubounds))

    @classmethod
    def merged(
        cls, indexes: list["WordIndex"], offsets: np.ndarray
    ) -> "WordIndex":
        """Joint index over several queries laid out in one array.

        ``offsets[k]`` is where query ``k`` starts in the joined array;
        the result's :meth:`find_hits` reports joined query positions.
        Built by merging the per-query CSR arrays — the neighbourhood
        expansion each index already paid for is not repeated.
        """
        first = indexes[0]
        joint = cls.__new__(cls)
        joint.word_size = first.word_size
        joint.threshold = first.threshold
        joint.nstd = first.nstd
        joint.query_length = sum(ix.query_length for ix in indexes)
        # Query-major concatenation keeps positions ascending per code
        # under the stable sort: offsets increase with k.
        joint._set_csr(
            np.concatenate([ix._entry_codes() for ix in indexes]),
            np.concatenate(
                [ix.data + int(off) for ix, off in zip(indexes, offsets)]
            ),
        )
        return joint

    # ------------------------------------------------------------------
    def lookup(
        self, codes: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """CSR slices of the scanned words that have entries.

        ``codes`` holds one word code per scanned position.  Returns
        ``(keep, starts, counts)``: a bool mask over ``codes`` of the
        positions with at least one entry and, for those, where their
        slice of ``data`` starts and how long it is.  Everything here
        is per scanned *position*; :func:`expand_slices` turns the
        slices into per-hit entry numbers.
        """
        if self._dense:
            starts = self.indptr[codes]
            counts = self.indptr[codes + 1] - starts
            keep = counts > 0
            return keep, starts[keep], counts[keep]
        keep = self._member[codes]
        iu = np.searchsorted(self._uniq, codes[keep])
        starts = self._ubounds[iu]
        return keep, starts, self._ubounds[iu + 1] - starts

    def find_hits(
        self, s: np.ndarray, stats: SeedStats | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """All word hits against subject ``s``: arrays (spos, qpos).

        Hits are ordered by subject position (then query position).
        """
        pos, codes = rolling_codes(s, self.word_size, self.nstd)
        if stats is not None:
            stats.positions_scanned += len(s)
        keep, starts, counts = self.lookup(codes)
        qpos = self.data[expand_slices(starts, counts)]
        if stats is not None:
            stats.word_hits += len(qpos)
        return np.repeat(pos[keep], counts), qpos


def expand_slices(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(starts[i], starts[i] + counts[i])``.

    The CSR expansion: one entry number per word hit, position-major.
    Every count must be positive (:meth:`WordIndex.lookup` drops the
    positions without entries).
    """
    if len(counts) == 0:
        return np.empty(0, dtype=np.int64)
    # Entry numbers go up by one inside a slice and jump at each slice
    # start: write the steps, sum them up.
    ends = np.cumsum(counts)
    idx = np.ones(int(ends[-1]), dtype=np.int64)
    idx[0] = starts[0]
    idx[ends[:-1]] = starts[1:] - (starts[:-1] + counts[:-1] - 1)
    return np.cumsum(idx, out=idx)


_EMPTY = np.empty(0, dtype=np.int64)


def two_hit_triggers(
    spos: np.ndarray,
    qpos: np.ndarray,
    *,
    window: int,
    word_size: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Two-hit trigger points from word hits.

    A hit triggers when an *earlier* hit exists on the same diagonal at
    subject distance in ``[word_size, window]`` — non-overlapping, and
    within the two-hit window A (Altschul et al. 1997).  Returns the
    ``(qpos, spos)`` arrays of the triggering (second) hits, ordered by
    (diagonal, subject position).
    """
    if len(spos) == 0:
        return _EMPTY, _EMPTY
    diag = qpos - spos
    # Combined sort key (diagonal, subject position) so a same-diagonal
    # window is one contiguous slice searchable with searchsorted.
    big = int(spos.max()) + int(window) + 2
    key = diag * big + spos
    key.sort()
    lo = np.searchsorted(key, key - window, side="left")
    hi = np.searchsorted(key, key - word_size, side="right")
    mask = lo < hi
    trig = key[mask]
    d = trig // big
    s = trig - d * big
    q = d + s
    return q, s


def one_hit_triggers(
    spos: np.ndarray, qpos: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Every word hit triggers (blastn / one-hit blastp mode).

    Returns the ``(qpos, spos)`` arrays ordered by (diagonal, subject
    position).
    """
    if len(spos) == 0:
        return _EMPTY, _EMPTY
    diag = qpos - spos
    order = np.lexsort((spos, diag))
    return (
        qpos[order].astype(np.int64, copy=False),
        spos[order].astype(np.int64, copy=False),
    )


#: A block whose key span reaches this does not fold into one int64;
#: :func:`wave_triggers` then takes it one subject at a time.
KEY_LIMIT = 1 << 62


def wave_triggers(
    subj: np.ndarray,
    sl: np.ndarray,
    starts: np.ndarray,
    counts: np.ndarray,
    entry_qid: np.ndarray,
    entry_ql: np.ndarray,
    *,
    nq: int,
    nsl: int,
    max_qlen: int,
    max_slen: int,
    window: int,
    word_size: int,
    two_hit: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Triggers of one (wave x subject slab) block, straight from the CSR.

    Per scanned position that has hits: ``subj`` (record number inside
    the block, ascending), ``sl`` (offset inside the record) and its
    slice of the wave's joint index (``starts``, ``counts`` — see
    :meth:`WordIndex.lookup`).  Per index entry: ``entry_qid`` and
    ``entry_ql``, the query and the offset inside it.  ``nq`` / ``nsl``
    count the block's queries and subjects, ``max_qlen`` / ``max_slen``
    bound their lengths.

    Returns ``(pair, qpos, spos)`` trigger arrays, ``pair = query * nsl
    + subject``, in increasing pair order and inside a pair by
    (diagonal, subject offset) — the concatenation of the scalar path's
    :func:`two_hit_triggers` (or :func:`one_hit_triggers`) results over
    the pairs, which is the order the scalar kernel visits them in.

    Per hit this does the key assembly, one sort and the two-hit test
    (module docstring); everything else is per position or per entry,
    and coordinates are decoded only for the keys that trigger.
    """
    # Diagonals span (-max_slen, max_qlen); subject offsets [0, max_slen).
    drange = max_qlen + max_slen
    big = max_slen + window + 1
    if nq * nsl * drange * big >= KEY_LIMIT and nsl > 1:
        # Unfoldable without overflow (gigantic subjects; never the
        # synthetic workloads): one subject at a time — its positions
        # are contiguous, ``subj`` ascends — through this same routine,
        # then a stable sort back into pair order.
        cuts = np.searchsorted(subj, np.arange(nsl + 1)).tolist()
        parts = []
        for j, (a, b) in enumerate(zip(cuts, cuts[1:])):
            qid, tq, ts = wave_triggers(
                subj[a:b] - j, sl[a:b], starts[a:b], counts[a:b],
                entry_qid, entry_ql, nq=nq, nsl=1, max_qlen=max_qlen,
                max_slen=max_slen, window=window, word_size=word_size,
                two_hit=two_hit,
            )
            parts.append((qid * nsl + j, tq, ts))
        pair, tq, ts = map(np.concatenate, zip(*parts))
        order = np.argsort(pair, kind="stable")
        return pair[order], tq[order], ts[order]
    pos_part = (subj.astype(np.int64) * drange + (max_slen - sl)) * big + sl
    entry_part = (entry_qid * (nsl * drange) + entry_ql) * big
    key = entry_part[expand_slices(starts, counts)]
    key += np.repeat(pos_part, counts)
    key.sort()
    if two_hit:
        # Keys of a run are distinct integers, so a key's k-th
        # predecessor is at least k away: its nearest predecessor at
        # distance >= word_size is among the first word_size, and that
        # one is in the window iff any is.
        near = np.zeros(len(key), dtype=bool)
        for k in range(1, word_size + 1):
            gap = key[k:] - key[:-k]
            gap -= word_size
            # 0 <= gap <= window - word_size, as one unsigned compare.
            near[k:] |= gap.view(np.uint64) <= window - word_size
        key = key[near]
    run = key // big
    spos = key - run * big
    pair = run // drange
    return pair, run - pair * drange - max_slen + spos, spos
