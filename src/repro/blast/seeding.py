"""Word seeding: neighbourhood word indexes, scanning, two-hit logic.

blastp builds an index of all length-``w`` words whose substitution
score against some query word reaches the neighbourhood threshold ``T``
(Altschul et al. 1990 §3; BLAST 2.0 defaults w=3, T=11).  Database
sequences are scanned against the index, and the *two-hit* heuristic
(Altschul et al. 1997) only triggers an ungapped extension when two
non-overlapping hits land on the same diagonal within a window ``A``.

blastn uses exact word matches (default w=11) and one-hit triggering.

Everything on the scanning path is NumPy-vectorized: rolling word codes,
CSR index lookup, and the same-diagonal pairing test.
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
            # Fully vectorized neighbourhood for the blastp case: the
            # score of candidate word (a,b,c) against the query word at
            # position p is std[q[p],a] + std[q[p+1],b] + std[q[p+2],c] —
            # a broadcasted 3-way outer sum over all positions at once.
            std = m[:nstd, :nstd].astype(np.int32)
            q64 = q.astype(np.int64)
            w0, w1, w2 = q64[:npos], q64[1 : npos + 1], q64[2 : npos + 2]
            ok = (w0 < nstd) & (w1 < nstd) & (w2 < nstd)
            pos_ok = np.nonzero(ok)[0]
            if pos_ok.size:
                # Rows are safe to index even for wildcards (clipped),
                # masked positions are excluded afterwards.
                a = std[np.minimum(w0[pos_ok], nstd - 1)]
                b = std[np.minimum(w1[pos_ok], nstd - 1)]
                c = std[np.minimum(w2[pos_ok], nstd - 1)]
                scores = (
                    a[:, :, None, None]
                    + b[:, None, :, None]
                    + c[:, None, None, :]
                )
                hit_pos, ha, hb, hc = np.nonzero(scores >= self.threshold)
                self._set_csr(
                    ha * (nstd * nstd) + hb * nstd + hc, pos_ok[hit_pos]
                )
                return
        if npos > 0 and (exact_only or w != 3):
            # Exact words (blastn, or exact_only protein mode): the same
            # rolling-code scheme :meth:`subject_codes` uses, so the
            # build is one vectorized pass instead of a per-position
            # Python loop with a per-residue inner loop.
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

    @property
    def total_entries(self) -> int:
        return len(self.data)

    # ------------------------------------------------------------------
    def subject_codes(self, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Rolling word codes of ``s``; returns (positions, codes).

        Positions whose word contains a wildcard are excluded.
        """
        return rolling_codes(s, self.word_size, self.nstd)

    def find_hits(
        self,
        s: np.ndarray,
        stats: SeedStats | None = None,
        *,
        precomputed: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """All word hits against subject ``s``: arrays (spos, qpos).

        Hits are ordered by subject position (then query position).
        ``precomputed`` optionally supplies ``(positions, codes)`` from a
        prior :func:`rolling_codes` pass over ``s`` — the codes depend
        only on (word_size, nstd), so a caller scanning the same subject
        data with many query indexes computes them once.
        """
        if precomputed is not None:
            pos, codes = precomputed
        else:
            pos, codes = self.subject_codes(s)
        if stats is not None:
            stats.positions_scanned += len(s)
        if len(pos) == 0:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        if self._dense:
            starts = self.indptr[codes]
            counts = self.indptr[codes + 1] - starts
            # Drop positions with no hits before the expansion so
            # cumsum/repeat run over the hit-bearing positions only.
            nz = counts > 0
            pos, starts, counts = pos[nz], starts[nz], counts[nz]
        else:
            if len(self._uniq) == 0:
                return (
                    np.empty(0, dtype=np.int64),
                    np.empty(0, dtype=np.int64),
                )
            ok = self._member[codes]
            pos, codes = pos[ok], codes[ok]
            iu = np.searchsorted(self._uniq, codes)
            starts = self._ubounds[iu]
            counts = self._ubounds[iu + 1] - starts
        total = int(counts.sum())
        if total == 0:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        spos = np.repeat(pos, counts)
        # Entry k of a position's CSR slice sits at starts + k; with
        # ``cum`` the hits before the position, k = hit number - cum.
        cum = np.cumsum(counts) - counts
        idx = np.repeat(starts - cum, counts)
        idx += np.arange(total, dtype=np.int64)
        qpos = self.data[idx]
        if stats is not None:
            stats.word_hits += len(spos)
        return spos, qpos


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


def batch_triggers(
    group: np.ndarray,
    spos: np.ndarray,
    qpos: np.ndarray,
    *,
    window: int,
    word_size: int,
    two_hit: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Segment-aware triggers over hits spanning many sequences at once.

    ``group`` identifies the (query, subject) pair each hit belongs to —
    the caller folds both ids into one integer — and ``spos`` / ``qpos``
    are the hit's *sequence-local* positions.  The two-hit window never
    pairs hits from different groups (the group id is folded into the
    sort key), so the result decomposes exactly into per-pair
    :func:`two_hit_triggers` calls.  Returns ``(group, qpos, spos)``
    trigger arrays in increasing group order, each group internally
    ordered by (diagonal, subject position) — the order the scalar
    kernel visits them in.

    Falls back to a per-group loop if the folded key would overflow
    ``int64`` (gigantic subjects; never the synthetic workloads).
    """
    if len(spos) == 0:
        return _EMPTY, _EMPTY, _EMPTY
    if not two_hit:
        order = np.lexsort((spos, qpos - spos, group))
        return (
            group[order].astype(np.int64, copy=False),
            qpos[order].astype(np.int64, copy=False),
            spos[order].astype(np.int64, copy=False),
        )
    diag = qpos - spos
    d0 = int(diag.min())
    drange = int(diag.max()) - d0 + 1
    big = int(spos.max()) + int(window) + 2
    ngroups = int(group.max()) + 1
    if float(ngroups) * float(drange) * float(big) >= float(1 << 62):
        # Unfoldable without overflow: do it per group (rare).
        out_g, out_q, out_p = [], [], []
        for g in np.unique(group):
            sel = group == g
            q, s = two_hit_triggers(
                spos[sel], qpos[sel], window=window, word_size=word_size
            )
            out_g.append(np.full(len(q), g, dtype=np.int64))
            out_q.append(q)
            out_p.append(s)
        return (
            np.concatenate(out_g),
            np.concatenate(out_q),
            np.concatenate(out_p),
        )
    # key = ((group, diagonal), spos): within one (group, diagonal)
    # block keys differ only in spos, and blocks are spaced by ``big`` >
    # any in-window distance, so the searchsorted window test below can
    # never cross a block boundary — same construction as the
    # single-subject key, with the group folded in.  Built in place:
    # the hit arrays are the kernel's largest transients.
    key = diag
    key -= d0
    key += group.astype(np.int64, copy=False) * drange
    key *= big
    key += spos
    key.sort()
    lo = np.searchsorted(key, key - window, side="left")
    hi = np.searchsorted(key, key - word_size, side="right")
    trig = key[lo < hi]
    g = trig // big
    s = trig - g * big
    d = g % drange + d0
    return g // drange, d + s, s
