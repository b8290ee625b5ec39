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
width ``2·band+1`` around its seed, with all live alignments advanced
row by row in lockstep (one ndarray op per DP step for the whole
batch).  The band is *score-safe*: each stored row carries one ghost
column past each band edge, computed exactly as the full DP would; if a
ghost cell is ever still live after X-drop masking, the optimal path
might leave the band, so that alignment continues at a doubled band —
from the clipping row on when its cohort is small (the rows above it
are exact at any band), from row 0 in a retry pass otherwise (falling
back to the scalar DP once the band covers the whole matrix).  When no
ghost cell is ever live, every out-of-band cell of the full DP is
provably X-drop dead, so the banded scores, traceback, and ops are
bit-identical to :func:`extend_gapped` — the property suite asserts
exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    cells (H and F; E is not kept) across the lockstep batch — the
    number the memory-hygiene test bounds: retiring and compacting
    finished wavefronts must keep it near the live alignments' need,
    not the naive ``n_alignments × longest_alignment`` rectangle.
    ``rows`` is what the no-restart rule bounds: a cohort that widens
    where it stands runs the clipping row twice and no other.
    """

    halves: int = 0  # half-extension DPs executed (2 per alignment)
    widenings: int = 0  # clipped halves, widened in place or retried
    fallbacks: int = 0  # halves that ran the scalar reference DP
    peak_cells: int = 0  # peak allocated banded history cells
    rows: int = 0  # lockstep rows executed, all passes
    #: (row, query-half length) of every clip, for tools/cohort_census.py
    clips: list[tuple[int, int]] = field(default_factory=list)

    def merge(self, other: "GappedBatchStats") -> None:
        self.halves += other.halves
        self.widenings += other.widenings
        self.fallbacks += other.fallbacks
        self.peak_cells = max(self.peak_cells, other.peak_cells)
        self.rows += other.rows
        self.clips += other.clips


def _e_row(
    Hh: np.ndarray,
    Fh: np.ndarray,
    i: int,
    qh: np.ndarray,
    sh: np.ndarray,
    matext: np.ndarray,
    go: int,
    ge: int,
    off: int,
) -> list[int]:
    """Row ``i`` of one slot's E (gap-in-query) lane, from its H and F.

    The cohort keeps no E history: a row's E is a function of the
    previous row's H and its own F — the same int32 steps as the row
    loop of :func:`_run_band_cohort` — and the traceback asks for it
    only on the rows where a gap opens or runs.  Cells that were dead in
    the cohort may come out as a different dead value; no live cell
    compares equal to either.
    """
    W = Hh.shape[1]
    ns = len(sh)
    d = np.arange(W, dtype=np.int32)
    j = d + np.int32(i - off)
    inside = (j >= 1) & (j <= ns)
    if i == 0:
        return np.where(inside, -(go + ge * j), _NEG32).tolist()
    codes = sh[np.minimum(np.maximum(j - 1, 0), ns - 1)]
    sc = np.where(inside, matext[qh[i - 1], codes], _SENT_SCORE)
    t = np.maximum(Hh[i - 1] + sc, Fh[i]) + ge * d
    np.maximum.accumulate(t, out=t)
    cost = go + ge * d[1:] - _SENT_SCORE * (j[1:] > ns)
    return [int(_NEG32), *(t[:-1] - cost).tolist()]


def _traceback_banded(
    Hh: np.ndarray,
    Fh: np.ndarray,
    qh: np.ndarray,
    sh: np.ndarray,
    matrix: list[list[int]],
    matext: np.ndarray,
    go: int,
    ge: int,
    off: int,
    bi: int,
    bj: int,
) -> str:
    """Scalar traceback over one banded history (row i, col ``j-i+off``).

    Decision-for-decision the traceback of :func:`_extend_half`; under
    the no-ghost-live invariant every cell it can visit holds the same
    value as the full DP matrix, so the ops come out identical.  It
    touches a cell or two per row, so it reads them as Python ints
    (``ndarray.item``; ``matrix`` is ``matext`` as a nested list)
    rather than as NumPy scalars, and E a row at a time from
    :func:`_e_row`.
    """
    ops_rev: list[str] = []
    i, j = bi, bj
    state = "H"
    W = Hh.shape[1]
    H, F = Hh.item, Fh.item
    neg = int(_NEG32)
    ql, sl = qh[:bi].tolist(), sh[:bj].tolist()
    e_at, e_row = -1, []

    def E(i: int, d: int) -> int:
        nonlocal e_at, e_row
        if e_at != i:
            e_at, e_row = i, _e_row(Hh, Fh, i, qh, sh, matext, go, ge, off)
        return e_row[d]

    while i > 0 or j > 0:
        d = j - i + off
        if state == "H":
            h = H(i, d)
            hp = H(i - 1, d) if i > 0 and j > 0 else neg
            if hp > neg and h == hp + matrix[ql[i - 1]][sl[j - 1]]:
                ops_rev.append("M")
                i -= 1
                j -= 1
            elif j > 0 and h == E(i, d):
                state = "E"
            elif i > 0 and h == F(i, d):
                state = "F"
            else:  # pragma: no cover - would indicate a DP bug
                raise AssertionError(f"banded traceback stuck at ({i},{j})")
        elif state == "E":
            ops_rev.append("I")
            extending = j >= 2 and d >= 1 and E(i, d) == E(i, d - 1) - ge
            j -= 1
            if not extending:
                state = "H"
        else:  # state == 'F'
            ops_rev.append("D")
            extending = (
                i >= 2 and d + 1 < W and F(i, d) == F(i - 1, d + 1) - ge
            )
            i -= 1
            if not extending:
                state = "H"
    return "".join(reversed(ops_rev))


#: A history chunk holds about this many cells per H / F plane, and
#: at least ``_CHUNK_MIN_ROWS`` rows: a small cohort's whole half fits in
#: one chunk, a large cohort never holds more than a chunk of rows it may
#: not need.
_CHUNK_CELLS = 1 << 16
_CHUNK_MIN_ROWS = 8
#: Compact the lockstep batch when live slots drop below this fraction.
_COMPACT_FRACTION = 0.5
#: Cells of substitution scores and E-costs one pair of gathers fetches:
#: a small cohort gets many rows per dispatch, a large one (whose rows
#: already outweigh their dispatches) one, and the three block buffers
#: stay this size whatever the cohort.
_BLOCK_CELLS = 1 << 13
#: A clipped cohort widens where it stands while ``live slots x new band
#: width`` stays under this many cells — the size at which a row's ufunc
#: dispatches still outweigh its cells, so running every slot at twice
#: the width from here on costs less than a second pass, from row 0, for
#: the clipped ones.  Larger cohorts send only their clipped slots to
#: the retry pass.
_WIDEN_CELLS = 2200
#: Dead-cell sentinel for the int32 banded state.  Large enough that no
#: real score reaches it, small enough that sentinel arithmetic
#: (``_NEG32 + _SENT_SCORE`` at worst) stays inside int32.
_NEG32 = np.int32(-(1 << 30))
#: Substitution score against the out-of-range sentinel code: any diag
#: move that reads past a subject's real letters is astronomically dead.
#: Its negation is the E-cost of a column past the subject's end.
_SENT_SCORE = np.int32(-(1 << 28))


def _band_layout(subjects, band: int, go: int, ge: int, sz: int):
    """Everything a cohort derives from its band alone.

    Band column ``d`` of row ``i`` is DP cell ``j = i + d - off``;
    columns ``0`` and ``W - 1`` are the ghosts.  Subject codes are
    concatenated with ``W + 2`` sentinel codes around every subject, so
    the sliding-window gather needs no bounds masks: the window never
    reaches further than ``W`` past either end of a live subject before
    the slot retires (rows a block gathers beyond that feed dead cells
    only).  ``sbase + r`` is the ``sflat`` index of row ``r``'s column 0.
    """
    W = 2 * band + 3
    off = band + 1
    dar = np.arange(W, dtype=np.int32)[:, None]
    gedar = ge * dar
    ecost = go + gedar[1:]
    pad = np.full(W + 2, sz, dtype=np.int32)
    chunks: list[np.ndarray] = []
    soff = np.empty(len(subjects), np.int32)
    pos = 0
    for k, s in enumerate(subjects):
        chunks.append(pad)
        pos += len(pad)
        soff[k] = pos
        chunks.append(np.asarray(s, dtype=np.int32))
        pos += len(s)
    chunks.append(pad)
    sflat = np.concatenate(chunks)
    sbase = soff - np.int32(off + 1)
    return W, off, dar, gedar, ecost, sflat, sbase


def _compact(chunks: list, keep: np.ndarray) -> list:
    """``keep``'s slots of the full chunks.  Neighbours of one band
    layout become one chunk (minus the row each repeats from its
    predecessor), so their number follows the widenings, not the rows.
    Consumes ``chunks``: each old chunk is released as soon as it is
    copied, so one old copy at most sits next to the new ones."""
    groups: list[tuple[int, int, list]] = []
    for r0, coff, X in chunks:
        if groups and groups[-1][1] == coff:
            groups[-1][2].append(X[:, 1:])
        else:
            groups.append((r0, coff, [X]))
    chunks.clear()
    out = []
    for r0, coff, parts in groups:
        rows = sum(X.shape[1] for X in parts)
        g = np.empty((2, rows, parts[0].shape[2], len(keep)), dtype=np.int32)
        at = 0
        while parts:
            X = parts.pop(0)
            for dst, src in zip(g, X):
                # mode="clip": the default buffers the whole output
                np.take(src, keep, axis=2, out=dst[at : at + X.shape[1]],
                        mode="clip")
            at += X.shape[1]
        out.append((r0, coff, g))
    return out


def _new_chunk(rows: int, W: int, L: int) -> np.ndarray:
    """An uninitialised ``(H|F, rows, W, slots)`` chunk.  F's last band
    column, which no row computes, is filled here, once, not per row."""
    g = np.empty((2, rows, W, L), dtype=np.int32)
    g[1, :, W - 1] = _NEG32
    return g


def _next_chunk(last: np.ndarray, rows: int, W: int) -> np.ndarray:
    """A fresh chunk whose row 0 repeats ``last``, the previous chunk's
    final ``(H|F, W, slots)`` row — centred, the new columns dead,
    when the band has widened.  No earlier row is copied."""
    Wo = last.shape[1]
    g = _new_chunk(rows, W, last.shape[2])
    shift = (W - Wo) // 2
    if shift:
        g[:, 0] = _NEG32
    g[:, 0, shift : shift + Wo] = last
    return g


def _slot_history(chunks, k: int, n: int, W: int, off: int) -> np.ndarray:
    """Slot ``k``'s H and F rows ``0 .. n-1`` in the current band layout,
    pasted together from its ``(first row, off, chunk)`` pieces."""
    hf = np.full((2, n, W), _NEG32, dtype=np.int32)
    for r0, coff, X in chunks:
        lo = off - coff
        m = min(X.shape[1], n - r0)
        hf[:, r0 : r0 + m, lo : lo + X.shape[2]] = X[:, :m, :, k]
    return hf


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
    a ghost cell went live in a cohort too large to widen where it
    stands (the caller retries those at twice the band).  Every problem
    must have non-empty query and subject.

    Two rules shape the loop.  *A computed row is never recomputed*: no
    ghost cell was live before the clipping row ``r``, so every cell
    outside the band in rows ``< r`` is dead in the full DP and those
    rows are exact at any wider band.  A small cohort therefore widens
    where it stands: row ``r - 1`` is copied into a ``2 x band`` chunk
    (old columns centred, the rest dead), everything
    :func:`_band_layout` derives from the band is rebuilt, and row ``r``
    runs again.  *A row does the recurrence and nothing else*:
    substitution scores and E-costs — "past the subject's end" folded in
    as a cost no score survives — come from one pair of gathers per
    ``_BLOCK_CELLS`` cells into reused buffers; retired slots are dead
    lanes (all ``_NEG32``, kept so by the X-drop mask), which lets the
    ghost and done tests be one reduction each with no ``active`` mask;
    best cells are recovered from the stored rows when a slot finishes.

    All DP state is int32 (scores are bounded far inside it).  H and F
    are kept for the traceback, in chunks of ``(rows, W, slots)``: a
    wavefront row is a contiguous ``(W, L)`` view computed in place with
    ``out=`` ufuncs, and its neighbour columns ``[1:]`` / ``[:-1]`` are
    contiguous too.  A full chunk is kept as it is and the next one
    starts with a copy of its last row, so growing and widening copy one
    row, and only compaction (which releases retired slots' cells)
    copies history.  E is one scratch row: the traceback recomputes the
    few rows of it that it reads (:func:`_e_row`).
    """
    A = len(probs)
    open_cost = np.int32(go + ge)
    ge32 = np.int32(ge)
    xd32 = np.int32(x_drop)
    big = -_SENT_SCORE
    nq = np.fromiter((len(p[0]) for p in probs), np.int64, count=A)
    ns = np.fromiter((len(p[1]) for p in probs), np.int64, count=A)
    sz = matrix.shape[0]
    matext = np.full((sz + 1, sz + 1), _SENT_SCORE, dtype=np.int32)
    matext[:sz, :sz] = matrix
    matflat = np.ascontiguousarray(matext).ravel()
    matl = matext.tolist()  # the traceback's view of it
    # Query codes as row offsets into ``matflat``.
    qrow = np.concatenate(
        [np.asarray(p[0], dtype=np.int32) for p in probs]
    ) * np.int32(sz + 1)
    qoff = np.concatenate(([0], np.cumsum(nq)[:-1]))
    qlast = qoff + nq - 1
    #: Best possible per-step gain; bounds what any escaped path can
    #: still earn (value + maxpos*min(remaining q, remaining s) is
    #: non-increasing along every DP path).
    maxpos = np.int64(max(int(matrix.max()), 0))

    out: list[_HalfExtension | None] = [None] * A

    # Slot state (slot -> original problem index via ``orig``).  Retired
    # slots are made dead in place and *compacted away* (history pads
    # released) once live slots fall below _COMPACT_FRACTION, so dead
    # lanes never cost more than a constant factor in compute or memory
    # while one straggler finishes.
    orig = np.arange(A)
    active = np.ones(A, dtype=bool)
    best = np.zeros(A, dtype=np.int32)
    W, off, dar, gedar, ecost, sflat, sbase = _band_layout(
        [p[1] for p in probs], band, go, ge, sz
    )
    #: Closed chunks, ``(first row, off, chunk)``; the open chunk's row
    #: ``i`` is DP row ``r = r0 + i`` and it holds ``cap`` rows.
    chunks: list[tuple] = []
    r0 = 0
    cap = min(int(nq.max()) + 1, max(_CHUNK_MIN_ROWS, _CHUNK_CELLS // (A * W)))
    # Rows >= 1 are fully overwritten in place before being read, so
    # histories start uninitialised but for row 0.
    HF = _new_chunk(cap, W, A)
    Hh, Fh = HF
    bstats.peak_cells = max(bstats.peak_cells, HF.size)

    def alloc_scratch(L: int):
        nblk = max(1, min(_BLOCK_CELLS // (L * W), int(nq.max())))
        brows = np.arange(nblk, dtype=np.int32)[:, None]
        # Subject codes, then matrix indices, then (the scores read)
        # E-costs; and the scores.
        SC, SS = (np.empty((nblk, W, L), dtype=np.int32) for _ in range(2))
        T = np.empty((W, L), dtype=np.int32)
        # E is scratch, not history (the traceback recomputes the rows
        # it needs, _e_row); its first band column is never computed.
        E = np.full((W, L), _NEG32, dtype=np.int32)
        return (
            brows,
            brows[:, :, None] + dar + sbase,  # gather index of rows 0..
            SC, SC[:, 1:], SS,
            T, T[: W - 1], E, E[1:],
            np.empty((W, L), dtype=bool),  # x-drop mask
            np.empty(L, dtype=np.int32),  # row max
            np.empty(L, dtype=np.int32),  # x-drop threshold
            np.empty(L, dtype=bool),  # row below threshold
        )

    brows, IX, SC, EC, SS, T, Tl, E, E1, MB, RB, thr, DN = alloc_scratch(A)
    ix_row = 0  # the row ``IX[0]`` indexes

    def finish(slots: np.ndarray) -> None:
        pieces = [*chunks, (r0, off, HF)]
        for k in slots.tolist():
            o = int(orig[k])
            qh, sh = probs[o]
            # The best cell is never masked, and the first row / column
            # holding it is where the scalar DP's strict ``>`` put it.
            Hk, Fk = _slot_history(pieces, k, r + 1, W, off)
            bi = int(Hk.max(axis=1).argmax())
            bj = bi + int(Hk[bi].argmax()) - off
            ops = _traceback_banded(
                Hk, Fk, qh, sh, matl, matext, go, ge, off, bi, bj
            )
            out[o] = _HalfExtension(int(best[k]), bi, bj, ops)

    # Row 0: leading gap in the query, masked against best=0.
    j0 = dar - off
    valid0 = (j0 >= 0) & (j0 <= ns)
    gap0 = -(go + ge * j0)
    H = np.where(valid0 & (gap0 >= -xd32), gap0, _NEG32)
    H[off] = 0
    Fh[0] = _NEG32
    # Row-0 ghost check: a live upper ghost means even the first row's
    # leading-gap reach escapes the band — nothing is computed yet, so
    # these go straight to the retry pass.
    ghost0 = H[W - 1] > _NEG32
    H[:, ghost0] = _NEG32
    Hh[0] = H
    active &= ~ghost0
    bstats.clips += [(0, int(n)) for n in nq[ghost0]]

    n_live = int(active.sum())
    n_dead = A - n_live
    widen = compact = False
    packed_at = _CHUNK_MIN_ROWS  # the row retired slots were last released on
    blk_end = 1  # first row the gathered block does not cover
    if n_live:
        first_end, last_end = int(nq[active].min()), int(nq[active].max())
    r = i = 1
    while n_live:
        L = len(orig)
        if widen or compact or i >= cap:
            # Close the open chunk (last row's views would keep a
            # replaced chunk alive) and start the next from its last
            # row; nothing else is copied unless retired slots are
            # released: once fewer than _COMPACT_FRACTION are live, on
            # widening (which would double their dead lanes too), and
            # whenever the history has doubled since the last time.
            H = F = Hp = Fp = Fl = Hh = Fh = None
            chunks.append((r0, off, HF[:, :i]))
            HF = None
            if n_live < L and (widen or compact or r >= 2 * packed_at):
                packed_at = r
                keep = np.flatnonzero(active)
                orig, nq, ns, qoff, qlast, best, sbase = (
                    a[keep]
                    for a in (orig, nq, ns, qoff, qlast, best, sbase)
                )
                chunks = _compact(chunks, keep)
                L = n_live
                n_dead = 0
                active = np.ones(L, dtype=bool)
            if widen:
                # Rows < r are exact at any band, so only row r runs
                # again.  A band >= max(nq, ns) cannot clip, so this
                # stops by construction.
                band *= 2
                W, off, dar, gedar, ecost, sflat, sbase = _band_layout(
                    [probs[o][1] for o in orig.tolist()], band, go, ge, sz
                )
            r0, i = r - 1, 1
            cap = 1 + min(
                max(_CHUNK_MIN_ROWS, _CHUNK_CELLS // (L * W)),
                last_end - r + 1,
            )
            HF = _next_chunk(chunks[-1][2][:, -1], cap, W)
            Hh, Fh = HF
            if widen or len(RB) != L:
                (brows, IX, SC, EC, SS, T, Tl, E, E1, MB, RB, thr,
                 DN) = alloc_scratch(L)
                ix_row, blk_end = 0, r
            bstats.peak_cells = max(
                bstats.peak_cells,
                HF.size + sum(X.size for _c0, _coff, X in chunks),
            )
            widen = compact = False
        if r >= blk_end:
            # One block of rows: subject codes from the sliding window,
            # then the (query row x subject code) cell of the sentinel-
            # extended matrix.  mode='clip' keeps retired slots' runaway
            # indices harmless.  The code buffer is free again once the
            # scores are read and takes the E-costs: open/extend by
            # column, ``big`` for columns past the subject's end (E can
            # leak into them with live-looking values; the full DP has
            # no such cells, and D and F there are dead on their own).
            nb = min(len(brows), last_end - r + 1)
            br = brows[:nb]
            np.add(IX, np.int32(r - ix_row), out=IX)
            ix_row = r
            np.take(sflat, IX[:nb], out=SC[:nb], mode="clip")
            qr = qrow[np.minimum(qoff + (r - 1 + br), qlast)]
            np.add(SC[:nb], qr[:, None], out=SC[:nb])
            np.take(matflat, SC[:nb], out=SS[:nb], mode="clip")
            hi = (ns + (off - r) - br).astype(np.int32)
            np.greater(dar[1:], hi[:, None], out=EC[:nb])
            np.multiply(EC[:nb], big, out=EC[:nb])
            np.add(EC[:nb], ecost, out=EC[:nb])
            blk_r0, blk_end = r, r + nb
        bstats.rows += 1
        Hp = Hh[i - 1]
        Fp = Fh[i - 1]
        H = Hh[i]
        F = Fh[i]
        Fl = F[: W - 1]
        np.add(Hp, SS[r - blk_r0], out=H)
        # F/diag predecessors sit one band column up in the previous
        # row (the window slides one subject position per row).
        np.subtract(Fp[1:], ge32, out=Fl)
        np.subtract(Hp[1:], open_cost, out=Tl)
        np.maximum(Fl, Tl, out=Fl)
        np.maximum(H, F, out=H)  # H0
        # E from the in-row prefix max of H0 + ge*d (the open/extend
        # recurrence collapsed into one accumulate).
        np.add(H, gedar, out=T)
        np.maximum.accumulate(T, axis=0, out=T)
        np.subtract(Tl, EC[r - blk_r0], out=E1)
        np.maximum(H, E, out=H)
        np.maximum.reduce(H, axis=0, out=RB)
        np.maximum(best, RB, out=best)
        np.subtract(best, xd32, out=thr)
        np.less(H, thr, out=MB)
        np.putmask(H, MB, _NEG32)
        np.less(RB, thr, out=DN)
        # Dead lanes are below threshold on every row, so a count other
        # than theirs means a live slot just dropped out.
        if (
            r < first_end
            and np.count_nonzero(DN) == n_dead
            and np.maximum.reduce(H[:: W - 1], axis=None) <= _NEG32
        ):
            r += 1
            i += 1
            continue
        glow = active & (H[0] > _NEG32)
        gup = active & (H[W - 1] > _NEG32)
        ghost = glow | gup
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
            safe_low = glow & (H[0] + pot_low < b64)
            safe_up = gup & (H[W - 1] + pot_up < b64)
            H[0, safe_low] = _NEG32
            H[W - 1, safe_up] = _NEG32
            ghost = (glow & ~safe_low) | (gup & ~safe_up)
        done = active & ~ghost & (DN | (r >= nq))
        finish(np.flatnonzero(done))
        active &= ~done
        n_clipped = int(ghost.sum())
        n_live = int(active.sum())
        if n_clipped:
            bstats.clips += [(r, int(n)) for n in nq[ghost]]
            if n_live * (4 * band + 3) <= _WIDEN_CELLS:
                # One widening decision: a cohort this small widens
                # where it stands, a larger one sends its clipped slots
                # to the retry pass.
                bstats.widenings += n_clipped
                widen = True
                continue
            active &= ~ghost
            n_live -= n_clipped
        # Dead in place: nothing a retired slot's lane computes from
        # here on survives the X-drop mask.
        retired = done | ghost
        H[:, retired] = _NEG32
        F[:, retired] = _NEG32
        n_dead = len(orig) - n_live
        if n_live:
            first_end = int(nq[active].min())
            last_end = int(nq[active].max())
            compact = n_live < _COMPACT_FRACTION * len(orig)
        r += 1
        i += 1
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

    Each half runs at ``band`` first.  A half whose ghost columns go
    live is widened where it stands when its cohort is small
    (:func:`_run_band_cohort`); out of a larger cohort it comes back
    clipped and retries here with the band doubled, falling back to the
    scalar :func:`_extend_half` once that band would cover the whole DP
    matrix (at which point banding cannot help).  Results equal the
    scalar DP bit for bit.
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
    the anchor) evaluated in one lockstep row-by-row batch; a half that
    touches the band edge is widened, in place or in a retry pass (see
    :func:`_extend_half_batch`), so ``band`` decides where the work is
    done, never the result.
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
