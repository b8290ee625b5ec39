"""X-drop ungapped and gapped extensions.

``ungapped_extend`` grows a word hit in both directions, keeping the
best running score and abandoning a direction once the running score
falls ``x_drop`` below the best — exactly BLAST's ungapped extension.

``extend_gapped`` is the gapped stage: an *extension alignment* (anchored
at a seed pair, free end) computed with the Gotoh affine-gap recurrence,
an X-drop band that grows and shrinks per row, and full traceback.  Rows
are NumPy-vectorized; the horizontal-gap state is computed exactly with
a prefix-max trick:

    E[j] = max_{k<j} (H0[k] - open - (j-k)·ext)

is valid because chaining a new gap-open directly onto a gap-ended cell
is never better than extending the existing gap (gap_open ≥ 0), so only
non-E-derived cells ``H0 = max(diag, F)`` need to be considered as gap
origins — and that max is a running ``np.maximum.accumulate``.

``extend_gapped_batch`` is the vectorized gapped engine: many gapped
extensions evaluated at once, each restricted to a diagonal band of
width ``2·band+1`` around its seed, with all live wavefronts advanced
in lockstep (one ndarray op per DP step for the whole batch).  The band
is *score-safe*: each stored row carries one ghost column past each
band edge, computed exactly as the full DP would; if a ghost cell is
ever still live after X-drop masking, the optimal path might leave the
band, so that alignment is retried with a doubled band (and falls back
to the scalar DP once the band covers the whole matrix).  When no ghost
cell is ever live, every out-of-band cell of the full DP is provably
X-drop dead, so the banded scores, traceback, and ops are bit-identical
to :func:`extend_gapped` — the property suite asserts exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

NEG_INF = np.int64(-(1 << 40))


@dataclass
class UngappedHit:
    """Result of an ungapped extension (half-open coordinates)."""

    qstart: int
    qend: int
    sstart: int
    send: int
    score: int

    @property
    def length(self) -> int:
        return self.qend - self.qstart


def ungapped_extend(
    q: np.ndarray,
    s: np.ndarray,
    qpos: int,
    spos: int,
    word_size: int,
    matrix: np.ndarray,
    x_drop: int,
) -> UngappedHit:
    """Extend the word hit at (qpos, spos) without gaps.

    The seed word ``q[qpos:qpos+word_size]`` / ``s[spos:spos+word_size]``
    is scored first, then both directions are extended with X-drop
    termination.  Trimmed to the best-scoring extent.
    """
    score = 0
    for k in range(word_size):
        score += int(matrix[q[qpos + k], s[spos + k]])

    # Right extension.
    best = score
    qe, se = qpos + word_size, spos + word_size
    cur = score
    i, j = qe, se
    best_qe, best_se = qe, se
    nq, ns = len(q), len(s)
    while i < nq and j < ns:
        cur += int(matrix[q[i], s[j]])
        i += 1
        j += 1
        if cur > best:
            best = cur
            best_qe, best_se = i, j
        elif cur <= best - x_drop:
            break

    # Left extension.
    cur = best
    best2 = best
    i, j = qpos - 1, spos - 1
    best_qs, best_ss = qpos, spos
    while i >= 0 and j >= 0:
        cur += int(matrix[q[i], s[j]])
        if cur > best2:
            best2 = cur
            best_qs, best_ss = i, j
        elif cur <= best2 - x_drop:
            break
        i -= 1
        j -= 1

    return UngappedHit(best_qs, best_qe, best_ss, best_se, int(best2))


#: Widest chunk of the batched ungapped extension, and therefore the
#: padding either end of its sequences needs: a window that starts on
#: the first barrier past a sequence end still lies inside the array.
_MAX_CHUNK = 128


#: Row length from which :func:`_run_down` loops over the steps.
_STEP_LOOP_COLUMNS = 512


def _run_down(op: np.ufunc, a: np.ndarray) -> None:
    """Running ``op`` down the rows of ``a`` (one row per step), in place.

    One contiguous vector op per step once a row is long enough to pay
    for the Python call (a bulk scan's first rounds: tens of thousands
    of triggers per row); below that, NumPy's own axis-0 accumulate —
    one call, but a strided inner loop at ~4 ns per element (a small
    fragment's rounds: a few hundred).  The two cross near 400 columns.
    """
    if a.shape[1] < _STEP_LOOP_COLUMNS:
        op.accumulate(a, axis=0, out=a)
    else:
        for k in range(1, len(a)):
            op(a[k - 1], a[k], out=a[k])


def _advance_batch(
    q: np.ndarray,
    q0: np.ndarray,
    s: np.ndarray,
    s0: np.ndarray,
    flat: np.ndarray,
    width: int,
    cur: np.ndarray,
    x_drop: int,
    chunk: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Chunked driver for one extension direction.

    Trigger ``i`` reads ``q[q0[i] + k]`` against ``s[s0[i] + k]`` at
    step ``k`` (both arrays padded so that a ``_MAX_CHUNK`` window from
    any step a live row can reach stays inside them);
    ``flat[qcode * width + scode]`` is the substitution score.  ``cur``
    holds the scores the direction starts from.  Returns
    ``(best, best_off)``: the best prefix score and the steps to it (0 =
    empty extension), exactly as the scalar loop in
    :func:`ungapped_extend` finds them: the running best is a cumulative
    max over score prefixes, a step terminates its row once the running
    score drops ``x_drop`` below it, and improvements must be *strict*
    (ties keep the shorter extent).
    """
    n = len(cur)
    cur = cur.copy()
    best = cur.copy()
    best_off = np.zeros(n, dtype=np.int64)
    done = np.zeros(n, dtype=np.int64)
    active = np.arange(n)
    cols = np.arange(n)
    while active.size:
        # Chunk size never affects the result (the break scan happens
        # within each chunk and running state carries over exactly), so
        # grow it geometrically: most extensions die in the first small
        # chunk, and the few long survivors get wide chunks.  The
        # windows are transposed while they are still bytes: step-major,
        # the running sums and maxima below can be one contiguous
        # vector op per step over all live triggers (_run_down).
        done_a = done[active]
        qwin = sliding_window_view(q, chunk)[q0[active] + done_a]
        swin = sliding_window_view(s, chunk)[s0[active] + done_a]
        idx = np.ascontiguousarray(qwin.T) * np.intp(width)
        idx += np.ascontiguousarray(swin.T)
        csum = flat.take(idx)
        prev_best = best[active]
        csum[0] += cur[active]
        _run_down(np.add, csum)
        pb = csum.copy()
        np.maximum(pb[0], prev_best, out=pb[0])
        _run_down(np.maximum, pb)
        dead = (pb - csum) >= x_drop
        _run_down(np.logical_or, dead)
        has_brk = dead[-1]
        stop = np.minimum(chunk - dead.sum(axis=0), chunk - 1)
        sel = cols[: active.size]
        new_best = pb[stop, sel]
        # The running best is non-decreasing and moves only on a strict
        # improvement, so the last improvement at or before the stop is
        # where it first reaches its value at the stop.
        first = (pb < new_best).sum(axis=0)
        best_off[active] = np.where(
            new_best > prev_best, done_a + first + 1, best_off[active]
        )
        best[active] = new_best
        cur[active] = csum[stop, sel]
        done[active] = done_a + stop + 1
        active = active[~has_brk]
        chunk = min(chunk * 2, _MAX_CHUNK)
    return best, best_off


def ungapped_extend_batch(
    q: np.ndarray,
    s: np.ndarray,
    qpos: np.ndarray,
    spos: np.ndarray,
    word_size: int,
    matrix: np.ndarray,
    x_drop: int,
    *,
    chunk: int = 16,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized :func:`ungapped_extend` over many trigger points.

    Returns ``(qstart, qend, sstart, send, score)`` int64 arrays whose
    element ``i`` equals ``ungapped_extend(q, s, qpos[i], spos[i], ...)``
    bit for bit.  Steps past either end of a sequence read a barrier
    code that ends the extension, and sequences may carry in-band
    sentinel codes (rows/columns of ``matrix`` at or below ``-x_drop``)
    to delimit records inside one concatenated array — an extension can
    never cross a sentinel.
    """
    n = len(qpos)
    if n == 0:
        e = np.empty(0, dtype=np.int64)
        return e, e.copy(), e.copy(), e.copy(), e.copy()
    qp = np.asarray(qpos, dtype=np.int64)
    sp = np.asarray(spos, dtype=np.int64)

    # The seed word scores as it stands; X-drop only governs the steps.
    seed = np.zeros(n, dtype=np.int64)
    for k in range(word_size):
        seed += matrix[q[qp + k], s[sp + k]]

    # One more code, the barrier, pads both sequences so every chunk is
    # a plain window read.  A step scoring at or below -x_drop ends its
    # row there whatever its magnitude (the running score cannot exceed
    # the running best), so the barrier and everything below -x_drop
    # score exactly -x_drop.  That bounds how far a running value can
    # move from the seed — steps x largest score — and the state is
    # int32 whenever twice that (best minus running) fits.
    ncodes = matrix.shape[0]
    width = ncodes + 1
    mat = np.full((width, width), -x_drop, dtype=np.int64)
    np.maximum(matrix, -x_drop, out=mat[:ncodes, :ncodes])
    reach = int(np.abs(seed).max()) + (
        min(len(q), len(s)) + _MAX_CHUNK
    ) * max(int(mat.max()), x_drop)
    flat = mat.astype(np.int32 if reach < 1 << 30 else np.int64).ravel()
    pad = np.full(_MAX_CHUNK, ncodes, dtype=np.min_scalar_type(ncodes))
    qpad = np.concatenate((pad, q.astype(pad.dtype, copy=False), pad))
    spad = np.concatenate((pad, s.astype(pad.dtype, copy=False), pad))

    # Right extension from the residue after the word.
    qe0, se0 = qp + word_size, sp + word_size
    best, roff = _advance_batch(
        qpad, qe0 + _MAX_CHUNK, spad, se0 + _MAX_CHUNK,
        flat, width, seed.astype(flat.dtype), x_drop, chunk,
    )
    # Left extension, seeded with the right-extension best: the same
    # window reads on the reversed arrays, from the residue before the
    # word (index len - 1 - i of the reversal is index i).
    best, loff = _advance_batch(
        qpad[::-1], len(qpad) - _MAX_CHUNK - qp,
        spad[::-1], len(spad) - _MAX_CHUNK - sp,
        flat, width, best, x_drop, chunk,
    )

    return (
        qp - loff,
        qe0 + roff,
        sp - loff,
        se0 + roff,
        best.astype(np.int64, copy=False),
    )


@dataclass
class _HalfExtension:
    score: int
    qlen: int  # query residues consumed
    slen: int  # subject residues consumed
    ops: str  # 'M' both, 'D' query only (gap in subject), 'I' subject only


def _extend_half(
    q: np.ndarray,
    s: np.ndarray,
    matrix: np.ndarray,
    gap_open: int,
    gap_extend: int,
    x_drop: int,
) -> _HalfExtension:
    """Extension DP from an implicit anchor before q[0]/s[0].

    Returns the best-scoring extension (possibly empty) and its edit ops.
    """
    nq, ns = len(q), len(s)
    if nq == 0 or ns == 0:
        return _HalfExtension(0, 0, 0, "")
    go, ge = int(gap_open), int(gap_extend)
    open_cost = go + ge  # cost of a gap of length 1

    width = ns + 1
    # Score matrices for traceback (row 0 .. nq).
    H = np.full((nq + 1, width), NEG_INF, dtype=np.int64)
    E = np.full((nq + 1, width), NEG_INF, dtype=np.int64)
    F = np.full((nq + 1, width), NEG_INF, dtype=np.int64)
    # All substitution scores at once (row i-1 of the DP reads row
    # i-1 of this) — one gather instead of one per row.
    subsc = matrix[q.astype(np.int64)[:, None], s.astype(np.int64)[None, :]]
    subsc = subsc.astype(np.int64, copy=False)

    jj = np.arange(width, dtype=np.int64)
    gejj = ge * jj
    buf = np.empty(width, dtype=np.int64)
    H[0, 0] = 0
    # First row: leading gap in the query (consumes subject only).
    first = -(go + gejj[1:])
    H[0, 1:] = first
    E[0, 1:] = first
    best = 0
    best_ij = (0, 0)
    H[0, H[0] < best - x_drop] = NEG_INF

    for i in range(1, nq + 1):
        Hp = H[i - 1]
        # Vertical gaps (consume query only).
        Fi = F[i]
        np.subtract(F[i - 1], ge, out=Fi)
        np.maximum(Fi, Hp - open_cost, out=Fi)
        # Diagonal, merged with F in place: H0 = max(diag, F).
        Hi = H[i]
        np.add(Hp[:-1], subsc[i - 1], out=Hi[1:])
        np.maximum(Hi, Fi, out=Hi)
        Hi[0] = Fi[0]
        # Horizontal gaps via exact prefix-max over non-E cells:
        # E[j] = max_{k<j} (H0[k] - go - ge*(j-k)).
        np.add(Hi, gejj, out=buf)
        np.maximum.accumulate(buf, out=buf)
        Ei = E[i]
        np.subtract(buf[:-1], go + gejj[1:], out=Ei[1:])
        np.maximum(Hi, Ei, out=Hi)
        # X-drop bookkeeping and masking.
        row_best = int(Hi.max())
        if row_best > best:
            best = row_best
            best_ij = (i, int(Hi.argmax()))
        Hi[Hi < best - x_drop] = NEG_INF
        if row_best < best - x_drop:
            break

    bi, bj = best_ij
    # Traceback from (bi, bj) to (0, 0).
    ops_rev: list[str] = []
    i, j = bi, bj
    state = "H"
    while i > 0 or j > 0:
        if state == "H":
            h = H[i, j]
            if (
                i > 0
                and j > 0
                and H[i - 1, j - 1] > NEG_INF
                and h == H[i - 1, j - 1] + matrix[q[i - 1], s[j - 1]]
            ):
                ops_rev.append("M")
                i -= 1
                j -= 1
            elif j > 0 and h == E[i, j]:
                state = "E"
            elif i > 0 and h == F[i, j]:
                state = "F"
            else:  # pragma: no cover - would indicate a DP bug
                raise AssertionError(f"traceback stuck at ({i},{j})")
        elif state == "E":
            # Horizontal gap: consumes subject residue s[j-1].
            ops_rev.append("I")
            extending = j >= 2 and E[i, j] == E[i, j - 1] - ge
            j -= 1
            if not extending:
                state = "H"
        else:  # state == 'F'
            # Vertical gap: consumes query residue q[i-1].
            ops_rev.append("D")
            extending = i >= 2 and F[i, j] == F[i - 1, j] - ge
            i -= 1
            if not extending:
                state = "H"

    return _HalfExtension(int(best), bi, bj, "".join(reversed(ops_rev)))


@dataclass
class GappedExtension:
    """A gapped extension around an anchor pair (half-open coordinates)."""

    qstart: int
    qend: int
    sstart: int
    send: int
    score: int
    ops: str  # 'M' aligned pair, 'D' gap in subject, 'I' gap in query


def extend_gapped(
    q: np.ndarray,
    s: np.ndarray,
    anchor_q: int,
    anchor_s: int,
    matrix: np.ndarray,
    gap_open: int,
    gap_extend: int,
    x_drop: int,
) -> GappedExtension:
    """Gapped X-drop extension through the anchor pair (anchor_q, anchor_s).

    The anchor residue pair is always part of the alignment (BLAST seeds
    the gapped stage inside a high-scoring ungapped region, so this is
    safe); the two half extensions grow outward from it.
    """
    if not (0 <= anchor_q < len(q) and 0 <= anchor_s < len(s)):
        raise ValueError("anchor out of range")
    anchor_score = int(matrix[q[anchor_q], s[anchor_s]])

    fwd = _extend_half(
        q[anchor_q + 1 :], s[anchor_s + 1 :], matrix, gap_open, gap_extend, x_drop
    )
    bwd = _extend_half(
        q[:anchor_q][::-1], s[:anchor_s][::-1], matrix, gap_open, gap_extend, x_drop
    )
    score = anchor_score + fwd.score + bwd.score
    ops = bwd.ops[::-1] + "M" + fwd.ops
    return GappedExtension(
        qstart=anchor_q - bwd.qlen,
        qend=anchor_q + 1 + fwd.qlen,
        sstart=anchor_s - bwd.slen,
        send=anchor_s + 1 + fwd.slen,
        score=int(score),
        ops=ops,
    )


@dataclass
class GappedBatchStats:
    """Work/health counters for one or more batched gapped calls.

    ``peak_cells`` is the high-water mark of *allocated* banded history
    cells (H+E+F) across the lockstep batch — the number the memory-
    hygiene test bounds: retiring and compacting finished wavefronts
    must keep it near the live alignments' need, not the naive
    ``n_alignments × longest_alignment`` rectangle.
    """

    halves: int = 0  # half-extension DPs executed (2 per alignment)
    widenings: int = 0  # band-doubling retries after a ghost-cell hit
    fallbacks: int = 0  # halves that ran the scalar reference DP
    peak_cells: int = 0  # peak allocated banded history cells

    def merge(self, other: "GappedBatchStats") -> None:
        self.halves += other.halves
        self.widenings += other.widenings
        self.fallbacks += other.fallbacks
        self.peak_cells = max(self.peak_cells, other.peak_cells)


def _traceback_banded(
    Hh: np.ndarray,
    Eh: np.ndarray,
    Fh: np.ndarray,
    qh: np.ndarray,
    sh: np.ndarray,
    matrix: np.ndarray,
    ge: int,
    off: int,
    bi: int,
    bj: int,
) -> str:
    """Scalar traceback over one banded history (row i, col ``j-i+off``).

    Decision-for-decision the traceback of :func:`_extend_half`; under
    the no-ghost-live invariant every cell it can visit holds the same
    value as the full DP matrix, so the ops come out identical.
    """
    ops_rev: list[str] = []
    i, j = bi, bj
    state = "H"
    W = Hh.shape[1]
    while i > 0 or j > 0:
        d = j - i + off
        if state == "H":
            h = Hh[i, d]
            if (
                i > 0
                and j > 0
                and Hh[i - 1, d] > _NEG32
                and h == Hh[i - 1, d] + matrix[qh[i - 1], sh[j - 1]]
            ):
                ops_rev.append("M")
                i -= 1
                j -= 1
            elif j > 0 and h == Eh[i, d]:
                state = "E"
            elif i > 0 and h == Fh[i, d]:
                state = "F"
            else:  # pragma: no cover - would indicate a DP bug
                raise AssertionError(f"banded traceback stuck at ({i},{j})")
        elif state == "E":
            ops_rev.append("I")
            extending = j >= 2 and d >= 1 and Eh[i, d] == Eh[i, d - 1] - ge
            j -= 1
            if not extending:
                state = "H"
        else:  # state == 'F'
            ops_rev.append("D")
            extending = (
                i >= 2 and d + 1 < W and Fh[i, d] == Fh[i - 1, d + 1] - ge
            )
            i -= 1
            if not extending:
                state = "H"
    return "".join(reversed(ops_rev))


#: Initial rows allocated per banded history; doubled on demand.
_BAND_INIT_ROWS = 8
#: Compact the lockstep batch when live slots drop below this fraction.
_COMPACT_FRACTION = 0.5
#: Dead-cell sentinel for the int32 banded state.  Large enough that no
#: real score reaches it, small enough that sentinel arithmetic
#: (``_NEG32 + _SENT_SCORE`` at worst) stays inside int32.
_NEG32 = np.int32(-(1 << 30))
#: Substitution score against the out-of-range sentinel code: any diag
#: move that reads past a subject's real letters is astronomically dead.
_SENT_SCORE = np.int32(-(1 << 28))


def _run_band_cohort(
    probs: list[tuple[np.ndarray, np.ndarray]],
    matrix: np.ndarray,
    go: int,
    ge: int,
    x_drop: int,
    band: int,
    bstats: GappedBatchStats,
) -> list[_HalfExtension | None]:
    """Lockstep banded DP over a cohort of half-extension problems.

    Returns, per problem, its :class:`_HalfExtension` — or ``None`` if
    a ghost cell went live (band too narrow; the caller widens and
    retries).  Every problem must have non-empty query and subject.

    Hot-loop layout: all DP state is int32 (scores are bounded far
    inside it); histories are ``(rows, slots, W)`` so each wavefront row
    is a contiguous ``(L, W)`` view computed in place with ``out=``
    ufuncs; subject codes are concatenated with ``W+2`` sentinel codes
    around every subject so the sliding-window gather needs no bounds
    masks — out-of-range reads hit the sentinel matrix row and come out
    astronomically dead on their own.
    """
    A = len(probs)
    W = 2 * band + 3
    off = band + 1
    open_cost = np.int32(go + ge)
    ge32 = np.int32(ge)
    nq = np.fromiter((len(p[0]) for p in probs), np.int64, count=A)
    ns = np.fromiter((len(p[1]) for p in probs), np.int64, count=A)
    qflat = np.concatenate(
        [np.asarray(p[0], dtype=np.int32) for p in probs]
    )
    # Subject codes with W+2 sentinels between/around subjects: the
    # window never reaches further than W past either end of a live
    # subject before the slot retires, so every gather index lands on a
    # real letter or a sentinel.
    sz = matrix.shape[0]
    sent_pad = np.full(W + 2, sz, dtype=np.int32)
    schunks: list[np.ndarray] = []
    soff = np.empty(A, np.int64)
    pos = 0
    for k, p in enumerate(probs):
        schunks.append(sent_pad)
        pos += len(sent_pad)
        soff[k] = pos
        schunks.append(np.asarray(p[1], dtype=np.int32))
        pos += len(p[1])
    schunks.append(sent_pad)
    sflat = np.concatenate(schunks)
    qoff = np.concatenate(([0], np.cumsum(nq)[:-1]))
    qlast = qoff + nq - 1
    matext = np.full((sz + 1, sz + 1), _SENT_SCORE, dtype=np.int32)
    matext[:sz, :sz] = matrix
    matflat = np.ascontiguousarray(matext).ravel()
    mat = np.ascontiguousarray(matrix, dtype=np.int64)
    dar = np.arange(W, dtype=np.int64)
    gedar = (ge * dar).astype(np.int32)[None, :]
    ecost = (go + ge * dar[1:]).astype(np.int32)[None, :]
    #: Best possible per-step gain; bounds what any escaped path can
    #: still earn (value + maxpos*min(remaining q, remaining s) is
    #: non-increasing along every DP path).
    maxpos = np.int64(max(int(matrix.max()), 0))

    out: list[_HalfExtension | None] = [None] * A

    # Slot state (slot -> original problem index via ``orig``).  Retired
    # slots go inactive immediately and are *compacted away* (history
    # pads released) once live slots fall below _COMPACT_FRACTION, so
    # dead lanes never cost more than a constant factor in compute or
    # memory while one straggler finishes.
    orig = np.arange(A)
    active = np.ones(A, dtype=bool)
    cap = _BAND_INIT_ROWS
    # Rows >= 1 are fully overwritten in place before being read, so
    # histories start uninitialised; only row 0 needs explicit values.
    Hh = np.empty((cap, A, W), dtype=np.int32)
    Eh = np.empty((cap, A, W), dtype=np.int32)
    Fh = np.empty((cap, A, W), dtype=np.int32)
    best = np.zeros(A, dtype=np.int32)
    best_i = np.zeros(A, dtype=np.int64)
    best_j = np.zeros(A, dtype=np.int64)
    #: Rightmost in-range band column (``j <= ns``); walks left one
    #: column per row as the window slides.
    hi_d = ns - 1 + off
    #: Sliding gather index into ``sflat``; advanced in place each row.
    sidx = soff[:, None] + (dar - off)[None, :]

    def alloc_scratch(L: int):
        return (
            np.empty((L, W), dtype=np.int32),  # diag
            np.empty((L, W), dtype=np.int32),  # tmp
            np.empty((L, W), dtype=np.int32),  # subject codes
            np.empty((L, W), dtype=np.int32),  # matrix gather index
            np.empty((L, W), dtype=np.int32),  # substitution scores
            np.empty((L, W), dtype=bool),      # mask buffer
            np.empty(L, dtype=np.int32),       # row max
        )

    D, T, SC, MI, SS, MB, RB = alloc_scratch(A)

    def finish(slots: np.ndarray) -> None:
        for k in slots.tolist():
            o = int(orig[k])
            qh, sh = probs[o]
            ops = _traceback_banded(
                Hh[:, k, :], Eh[:, k, :], Fh[:, k, :], qh, sh, mat, ge,
                off, int(best_i[k]), int(best_j[k]),
            )
            out[o] = _HalfExtension(
                int(best[k]), int(best_i[k]), int(best_j[k]), ops
            )

    # Row 0: leading gap in the query, masked against best=0.
    j0 = dar - off
    valid0 = (j0[None, :] >= 0) & (j0[None, :] <= ns[:, None])
    gap0 = (-(go + ge * j0[None, :])).astype(np.int32)
    H = np.where(j0[None, :] == 0, np.int32(0), gap0)
    H = np.where(valid0, H, _NEG32)
    H = np.where(H < best[:, None] - np.int32(x_drop), _NEG32, H)
    Hh[0] = H
    Eh[0] = np.where((j0[None, :] >= 1) & valid0, gap0, _NEG32)
    Fh[0].fill(_NEG32)

    # Row-0 ghost check: a live upper ghost means even the first row's
    # leading-gap reach escapes the band — clipped, retry wider.
    ghost0 = (Hh[0, :, 0] > _NEG32) | (Hh[0, :, W - 1] > _NEG32)
    active &= ~ghost0

    def regrow(old: np.ndarray, keep, rows: int) -> np.ndarray:
        """Copy of ``old`` with ``rows`` rows and only ``keep``'s slots."""
        if keep is None:
            g = np.empty((rows,) + old.shape[1:], dtype=np.int32)
            g[: len(old)] = old
        else:
            g = np.empty((rows, len(keep), W), dtype=np.int32)
            # mode="clip": the default buffers the whole output
            np.take(old, keep, axis=1, out=g[: len(old)], mode="clip")
        return g

    xd32 = np.int32(x_drop)
    n_live = int(active.sum())
    r = 1
    while n_live:
        L = len(orig)
        # Release retired slots' history once fewer than
        # _COMPACT_FRACTION are live — and always when the history must
        # grow, since that copies it anyway.  It doubles, but never past
        # the last row a live slot can reach.
        compact = n_live < (_COMPACT_FRACTION * L if r < cap else L)
        if compact or r >= cap:
            keep = np.flatnonzero(active) if compact else None
            if r >= cap:
                cap = min(cap * 2, int(nq[active].max()) + 1)
            # Last row's views would keep the old histories alive; one
            # history at a time, so one old copy at most sits next to
            # the new ones.
            H = E = F = Hp = Fp = None
            Hh = regrow(Hh, keep, cap)
            Eh = regrow(Eh, keep, cap)
            Fh = regrow(Fh, keep, cap)
        if compact:
            orig, nq, ns, qoff, qlast = (
                orig[keep], nq[keep], ns[keep], qoff[keep], qlast[keep]
            )
            best, best_i, best_j = best[keep], best_i[keep], best_j[keep]
            hi_d = hi_d[keep]
            sidx = np.ascontiguousarray(sidx[keep])
            L = n_live
            active = np.ones(L, dtype=bool)
            D, T, SC, MI, SS, MB, RB = alloc_scratch(L)
        bstats.peak_cells = max(bstats.peak_cells, 3 * L * cap * W)
        if r > 1:
            sidx += 1
            hi_d -= 1
        Hp = Hh[r - 1]
        Fp = Fh[r - 1]
        H = Hh[r]
        E = Eh[r]
        F = Fh[r]
        # Substitution scores via two flat gathers: subject codes from
        # the sliding window, then the (query row x subject code) cell
        # of the sentinel-extended matrix.  mode='clip' keeps retired
        # slots' runaway indices harmless.
        qcode = qflat[np.minimum(qoff + r - 1, qlast)]
        np.take(sflat, sidx, out=SC, mode="clip")
        np.add(SC, (qcode * np.int32(sz + 1))[:, None], out=MI)
        np.take(matflat, MI, out=SS, mode="clip")
        np.add(Hp, SS, out=D)
        # F/diag predecessors sit one band column to the right in the
        # previous row (the window slides one subject position per row).
        np.subtract(Fp[:, 1:], ge32, out=F[:, : W - 1])
        np.subtract(Hp[:, 1:], open_cost, out=T[:, : W - 1])
        np.maximum(F[:, : W - 1], T[:, : W - 1], out=F[:, : W - 1])
        F[:, W - 1] = _NEG32
        np.maximum(D, F, out=H)  # H0
        # E from the in-row prefix max of H0 + ge*d (the open/extend
        # recurrence collapsed into one accumulate).
        np.add(H, gedar, out=T)
        np.maximum.accumulate(T, axis=1, out=T)
        E[:, 0] = _NEG32
        np.subtract(T[:, : W - 1], ecost, out=E[:, 1:])
        np.maximum(H, E, out=H)
        # Clamp columns past the subject end (E can leak into them with
        # live-looking values; the full DP has no such cells).
        np.greater(dar[None, :], hi_d[:, None], out=MB)
        np.copyto(H, _NEG32, where=MB)
        np.maximum.reduce(H, axis=1, out=RB)
        imp = active & (RB > best)
        if imp.any():
            best[imp] = RB[imp]
            best_i[imp] = r
            best_j[imp] = r + H[imp].argmax(axis=1) - off
        np.less(H, (best - xd32)[:, None], out=MB)
        np.copyto(H, _NEG32, where=MB)
        glow = H[:, 0] > _NEG32
        gup = H[:, W - 1] > _NEG32
        ghost = active & (glow | gup)
        if ghost.any():
            # Safe-ghost rule: a live ghost whose optimistic bound
            # (value plus the best score the remaining letters could
            # ever earn) is *strictly* below the current best cannot
            # lie on, or taint, any best-scoring path — kill it in
            # place instead of clipping.  The common case is a
            # trailing-gap tail riding a sequence end out of the band
            # after the best cell is already fixed.  Ties must clip:
            # the scalar traceback could prefer the escaped path.
            pot_low = maxpos * np.maximum(
                np.minimum(nq - r, ns - (r - off)), 0
            )
            pot_up = maxpos * np.maximum(
                np.minimum(nq - r, ns - (r + off)), 0
            )
            b64 = best.astype(np.int64)
            safe_low = glow & (H[:, 0] + pot_low < b64)
            safe_up = gup & (H[:, W - 1] + pot_up < b64)
            H[safe_low, 0] = _NEG32
            H[safe_up, W - 1] = _NEG32
            ghost = active & ((glow & ~safe_low) | (gup & ~safe_up))
        done = active & ~ghost & ((RB < best - xd32) | (r >= nq))
        if ghost.any() or done.any():
            finish(np.flatnonzero(done))
            active &= ~(ghost | done)
            n_live = int(active.sum())
        r += 1
    return out


def _extend_half_batch(
    halves: list[tuple[np.ndarray, np.ndarray]],
    matrix: np.ndarray,
    go: int,
    ge: int,
    x_drop: int,
    band: int,
    max_batch: int,
    bstats: GappedBatchStats,
) -> list[_HalfExtension]:
    """All half-extensions, banded-batched with widening retries.

    Each half runs at ``band`` first; halves whose ghost columns go
    live retry with the band doubled, and fall back to the scalar
    :func:`_extend_half` once the band would cover the whole DP matrix
    (at which point banding cannot help).  Results equal the scalar DP
    bit for bit.
    """
    n = len(halves)
    out: list[_HalfExtension | None] = [None] * n
    todo: list[int] = []
    for i, (qh, sh) in enumerate(halves):
        if len(qh) == 0 or len(sh) == 0:
            out[i] = _HalfExtension(0, 0, 0, "")
        else:
            todo.append(i)
    b = band
    first = True
    while todo:
        run: list[int] = []
        rest: list[int] = []
        for i in todo:
            qh, sh = halves[i]
            # A band covering the whole matrix cannot clip (the ghost
            # columns fall outside the real cell range), so the first
            # pass keeps every problem vectorized; only *clipped*
            # problems whose doubled band outgrew the matrix take the
            # scalar reference DP.
            if not first and b >= max(len(qh), len(sh)):
                out[i] = _extend_half(qh, sh, matrix, go, ge, x_drop)
                bstats.fallbacks += 1
                bstats.halves += 1
            else:
                run.append(i)
        if not first:
            bstats.widenings += len(run)
        for lo in range(0, len(run), max_batch):
            chunk = run[lo : lo + max_batch]
            res = _run_band_cohort(
                [halves[i] for i in chunk], matrix, go, ge, x_drop, b, bstats
            )
            for i, r in zip(chunk, res):
                if r is None:
                    rest.append(i)  # clipped: retry at 2*b
                else:
                    out[i] = r
                    bstats.halves += 1
        todo = rest
        b *= 2
        first = False
    return out  # type: ignore[return-value]


def extend_gapped_batch(
    q: np.ndarray | list[np.ndarray],
    subjects: list[np.ndarray],
    anchors_q,
    anchors_s,
    matrix: np.ndarray,
    gap_open: int,
    gap_extend: int,
    x_drop: int,
    *,
    band: int = 32,
    max_batch: int = 1024,
    stats: GappedBatchStats | None = None,
) -> list[GappedExtension]:
    """Vectorized :func:`extend_gapped` over many (subject, seed) pairs.

    ``q`` is one query shared by every problem, or a list with one
    query per problem (a wave's problems ride in one cohort).  Element
    ``k`` equals
    ``extend_gapped(q[k], subjects[k], anchors_q[k], anchors_s[k], ...)``
    bit for bit: same spans, same score, same ops string.  Each
    extension is two banded half-extensions (forward and backward from
    the anchor) evaluated in one lockstep wavefront batch; band-edge
    hits widen and retry per half (see :func:`_extend_half_batch`), so
    the band is a pure performance knob, never a correctness one.
    """
    n = len(subjects)
    qs = [q] * n if isinstance(q, np.ndarray) else q
    if not (len(qs) == len(anchors_q) == len(anchors_s) == n):
        raise ValueError(
            "queries, subjects and anchors must have equal length"
        )
    if stats is None:
        stats = GappedBatchStats()
    anchors = [
        (int(aq), int(asub)) for aq, asub in zip(anchors_q, anchors_s)
    ]
    halves: list[tuple[np.ndarray, np.ndarray]] = []
    for qk, s, (aq, asub) in zip(qs, subjects, anchors):
        if not (0 <= aq < len(qk) and 0 <= asub < len(s)):
            raise ValueError("anchor out of range")
        halves.append((qk[aq + 1 :], s[asub + 1 :]))
        halves.append((qk[:aq][::-1], s[:asub][::-1]))
    res = _extend_half_batch(
        halves, matrix, int(gap_open), int(gap_extend), int(x_drop),
        int(band), int(max_batch), stats,
    )
    out: list[GappedExtension] = []
    for k, (qk, s, (aq, asub)) in enumerate(zip(qs, subjects, anchors)):
        fwd, bwd = res[2 * k], res[2 * k + 1]
        out.append(
            GappedExtension(
                qstart=aq - bwd.qlen,
                qend=aq + 1 + fwd.qlen,
                sstart=asub - bwd.slen,
                send=asub + 1 + fwd.slen,
                score=int(matrix[qk[aq], s[asub]]) + fwd.score + bwd.score,
                ops=bwd.ops[::-1] + "M" + fwd.ops,
            )
        )
    return out


def score_alignment_ops(
    q: np.ndarray,
    s: np.ndarray,
    ext: GappedExtension,
    matrix: np.ndarray,
    gap_open: int,
    gap_extend: int,
) -> int:
    """Re-score an extension from its ops (traceback validation oracle)."""
    score = 0
    i, j = ext.qstart, ext.sstart
    k = 0
    n = len(ext.ops)
    while k < n:
        op = ext.ops[k]
        if op == "M":
            score += int(matrix[q[i], s[j]])
            i += 1
            j += 1
            k += 1
        else:
            run = 0
            while k < n and ext.ops[k] == op:
                run += 1
                k += 1
            score -= gap_open + gap_extend * run
            if op == "D":
                i += run
            else:
                j += run
    if i != ext.qend or j != ext.send:
        raise ValueError("ops do not span the claimed ranges")
    return score
