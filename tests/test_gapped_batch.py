"""Batched banded gapped extension vs the scalar Gotoh oracle.

``extend_gapped_batch`` promises *bit-identical* ``GappedExtension``
results (score, spans, and edit script) at any band width: a band-edge
touch is detected via ghost columns and the half is widened — where it
stands when its cohort is small, in a retry pass at double width
otherwise, with the scalar reference DP as the last resort.  These
tests are that promise, the no-restart rule (a widened cohort runs the
clipping row twice and no other), and the memory-hygiene contract of the
lockstep cohort (retired wavefronts must release their rows, so one
straggler cannot keep a whole batch's pad arrays alive).
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.blast.extend as extend_mod
from repro.blast.alphabet import PROTEIN
from repro.blast.extend import (
    GappedBatchStats,
    extend_gapped,
    extend_gapped_batch,
)
from repro.blast.matrices import blosum62

M = blosum62()
GO, GE = 11, 1
NAA = 20  # standard residues; synthesized codes stay below this


def enc(s: str) -> np.ndarray:
    return PROTEIN.encode(s)


def random_codes(rng, n):
    return rng.integers(0, NAA, size=n).astype(np.int8)


def mutate(rng, codes, rate):
    """A homolog: substitutions plus short indels at ``rate``."""
    out = []
    for c in codes:
        r = rng.random()
        if r < rate / 3:
            continue  # deletion
        if r < 2 * rate / 3:
            out.append(int(rng.integers(0, NAA)))  # substitution
        else:
            out.append(int(c))
        if rng.random() < rate / 3:
            out.append(int(rng.integers(0, NAA)))  # insertion
    if not out:
        out = [int(rng.integers(0, NAA))]
    return np.array(out, dtype=np.int8)


def random_matrix(rng):
    """A symmetric scoring matrix with a positive diagonal."""
    m = rng.integers(-6, 5, size=(NAA, NAA))
    m = np.minimum(m, m.T)
    np.fill_diagonal(m, rng.integers(1, 9, size=NAA))
    return m.astype(np.int64)


def assert_batch_equals_oracle(q, subjects, aqs, ass, matrix, go, ge,
                               xdrop, band, stats=None):
    exts = extend_gapped_batch(
        q, subjects, aqs, ass, matrix, go, ge, xdrop,
        band=band, stats=stats,
    )
    for s, aq, asub, got in zip(subjects, aqs, ass, exts):
        want = extend_gapped(q, s, aq, asub, matrix, go, ge, xdrop)
        assert got == want, (
            f"banded batch diverged from oracle at band={band}: "
            f"{got} != {want}"
        )
    return exts


class TestBitIdentityProperty:
    @given(
        seed=st.integers(0, 2**32 - 1),
        band=st.integers(1, 24),
        go=st.integers(0, 14),
        ge=st.integers(1, 5),
        xdrop=st.integers(5, 79),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_matrix_and_sequences(self, seed, band, go, ge, xdrop):
        """Random matrices / gap params / sequences / bands: tiny bands
        force band-edge widening retries, the rest must still be
        bit-identical to the scalar oracle."""
        rng = np.random.default_rng(seed)
        matrix = random_matrix(rng)
        q = random_codes(rng, int(rng.integers(20, 120)))
        subjects, aqs, ass = [], [], []
        for _ in range(6):
            if rng.random() < 0.6:
                s = mutate(rng, q, rng.uniform(0.05, 0.4))
            else:
                s = random_codes(rng, int(rng.integers(5, 120)))
            subjects.append(s)
            aqs.append(int(rng.integers(0, len(q))))
            ass.append(int(rng.integers(0, len(s))))
        assert_batch_equals_oracle(
            q, subjects, aqs, ass, matrix, go, ge, xdrop, band
        )

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_blosum_homolog_families(self, seed):
        """The engine's real regime: BLOSUM62, mutated homologs, default
        band, mid-sequence anchors."""
        rng = np.random.default_rng(seed)
        q = random_codes(rng, 200)
        subjects = [mutate(rng, q, rng.uniform(0.05, 0.3))
                    for _ in range(8)]
        aqs = [100] * len(subjects)
        ass = [min(100, len(s) - 1) for s in subjects]
        assert_batch_equals_oracle(
            q, subjects, aqs, ass, M, GO, GE, 38, 32
        )


def drift_subject(rng, q, size, count, insert=True):
    """``q`` with ``count`` indels of ``size`` residues, all in one
    direction, a stretch of matches before each: the best path drifts
    ``count * size`` diagonals off the seed, one gap at a time."""
    stretch = max(2, (len(q) - 1) // (count + 1))
    out, i = [int(q[0])], 1
    for _ in range(count):
        out += q[i : i + stretch].tolist()
        i += stretch
        if insert:
            out += rng.integers(0, NAA, size=size).tolist()
        else:
            i += size
    out += q[i:].tolist()
    return np.array(out, dtype=np.int8)


def drift_cohort(rng, band, n_pairs):
    """Related pairs at ``band`` that between them take every widening
    path (anchors all (0, 0), so each pair is one forward half):

    * pair 0 drifts ``3 * band`` through three insertions: with gaps of
      ``band`` residues just surviving X-drop it clips at ``band`` and
      again at ``2 * band`` — two widenings of one slot;
    * pair 1 opens with ``band`` extra subject residues (cysteines
      before the query's leading tryptophan): row 0's leading gap
      reaches the W-W match and row 1's E tail reaches the ghost — a
      clip on row 1;
    * pair 2 is ``6 * band + 1`` tryptophans against ``band`` cysteines
      (no diagonal move ever scores, a half length no other pair has):
      the upper ghost column lies past the subject's end, so only a huge
      x-drop's vertical-gap tail can clip it — at the lower ghost, on
      rows ``B + 1`` for ``B`` = band, 2 x band, 4 x band, after which
      the band has reached ``max(nq, ns)`` and cannot clip;
    * the rest drift 0 to 3 bands up or down, or not at all;

    and :func:`with_finisher` adds the pair that finishes on a clip row.
    Returns ``(pairs, go, ge, xdrop)``; ``xdrop = go + ge * band`` lets a
    gap of ``band`` residues through and keeps a pure gap off the
    diagonal from ever reaching the ghost column ``band + 1`` away.
    """
    go, ge = 3, 1
    q = random_codes(rng, int(rng.integers(9 * band + 12, 9 * band + 40)))
    q[1] = enc("W")[0]
    pairs = [
        (q, drift_subject(rng, q, band, 3)),
        (q, np.concatenate([q[:1], enc("C" * band), q[1:]])),
        (enc("W" * (6 * band + 2)), enc("W" + "C" * band)),
    ]
    while len(pairs) < n_pairs:
        count = int(rng.integers(0, 4))
        size = int(rng.integers(1, band + 1))
        pairs.append(
            (q, drift_subject(rng, q, size, count, rng.random() < 0.5))
        )
    return pairs[:n_pairs], go, ge, go + ge * band


def run_cohort(pairs, go, ge, xdrop, band, widen_cells=None):
    """Oracle-checked batch call; ``(stats, cohort calls)``."""
    bst = GappedBatchStats()
    calls = []
    inner = extend_mod._run_band_cohort

    def counting(*args):
        calls.append(1)
        return inner(*args)

    cells = extend_mod._WIDEN_CELLS if widen_cells is None else widen_cells
    with mock.patch.object(extend_mod, "_WIDEN_CELLS", cells), \
            mock.patch.object(extend_mod, "_run_band_cohort", counting):
        exts = extend_gapped_batch(
            [p[0] for p in pairs], [p[1] for p in pairs],
            [0] * len(pairs), [0] * len(pairs), M, go, ge, xdrop,
            band=band, stats=bst,
        )
    for (q, s), got in zip(pairs, exts):
        want = extend_gapped(q, s, 0, 0, M, go, ge, xdrop)
        assert got == want, (
            f"band={band} widen_cells={cells}: {got} != {want}"
        )
    return bst, len(calls)


def with_finisher(pairs, go, ge, xdrop, band):
    """``pairs`` plus an identity pair whose query half is exactly as
    long as the cohort's first clip row, so it finishes (query
    exhausted) on the row another slot clips."""
    bst, _ = run_cohort(pairs, go, ge, xdrop, band)
    rows = [r for r, _n in bst.clips if r >= 1]
    if not rows:
        return pairs
    q = pairs[0][0][: min(rows) + 1]
    return pairs + [(q, q.copy())]


class TestWideningInPlace:
    """The invariant, not just the examples: rows below a clipping row
    are exact at any wider band, so widening may happen anywhere."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        band=st.sampled_from([1, 2, 4, 8]),
        n_pairs=st.integers(1, 12),
        huge_xdrop=st.booleans(),
        tight_budget=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_planted_drift_equals_oracle(
        self, seed, band, n_pairs, huge_xdrop, tight_budget
    ):
        """Cohorts of 1-12 related pairs drifting up to 3 x band.  A
        huge x-drop clips most slots on row 0 (nothing to widen yet:
        they double through retry passes into the scalar fallback) and
        widens pair 2 in place until the band reaches ``max(nq, ns)``
        and cannot clip; a budget of two slots sends the clipped slots
        of any larger cohort to the retry pass."""
        rng = np.random.default_rng(seed)
        pairs, go, ge, xdrop = drift_cohort(rng, band, n_pairs)
        if huge_xdrop:
            xdrop = 10**5
        pairs = with_finisher(pairs, go, ge, xdrop, band)
        cells = 2 * (4 * band + 3) if tight_budget else None
        run_cohort(pairs, go, ge, xdrop, band, cells)

    def test_drift_cohort_takes_every_widening_path(self):
        """The construction above does what its docstring says, at every
        band the property draws."""
        for band in (1, 2, 4, 8):
            rng = np.random.default_rng(20050404 + band)
            pairs, go, ge, xdrop = drift_cohort(rng, band, 6)
            base, _ = run_cohort(pairs, go, ge, xdrop, band)
            first_clip = min(r for r, _n in base.clips if r >= 1)
            pairs = with_finisher(pairs, go, ge, xdrop, band)
            assert len(pairs[-1][0]) - 1 == first_clip
            bst, calls = run_cohort(pairs, go, ge, xdrop, band)
            # Everything widened where it stood, in the one cohort.
            assert calls == 1 and bst.fallbacks == 0
            assert bst.widenings == len(bst.clips) >= 2
            # Pair 1 clips on row 1, pair 0's drift clips the widened
            # cohort again further down: two widenings of one cohort,
            # each re-running one row.
            clip_rows = {r for r, _n in bst.clips}
            assert 1 in clip_rows and max(clip_rows) > 1
            assert bst.rows <= len(pairs[0][0]) - 1 + len(bst.clips)
            # Above the budget the clipped slots leave for retry passes.
            tight, tight_calls = run_cohort(
                pairs, go, ge, xdrop, band, 2 * (4 * band + 3)
            )
            assert tight_calls > 1 and tight.widenings >= bst.widenings
            # A band that reaches max(nq, ns) cannot clip.  Pair 2 gets
            # there in place — clipped on row B + 1 at every band B below
            # its query half's length, then never again — while the row-0
            # clips of the others reach it through retry passes and fall
            # back to the scalar DP.
            huge, huge_calls = run_cohort(pairs, go, ge, 10**5, band)
            tall = len(pairs[2][0]) - 1
            assert [r for r, n in huge.clips if n == tall] == [
                band + 1, 2 * band + 1, 4 * band + 1
            ] and 8 * band >= tall
            assert huge_calls > 1 and huge.fallbacks >= 1

    def test_widening_does_not_restart_from_row_zero(self):
        """Eight halves, one of which crosses a planted 12-residue
        insertion at band 16 (x-drop 23 lets a 12-gap through and keeps
        the gap tail 12 columns long: it reaches the ghost from the
        drifted path, and cannot reach the one at band 32).  The cohort
        runs every row once and the clipping row twice."""
        rng = np.random.default_rng(22)
        q = random_codes(rng, 121)
        subjects = [q.copy() for _ in range(4)]
        subjects[2] = np.concatenate(
            [q[:90], random_codes(rng, 12), q[90:]]
        ).astype(np.int8)
        bst = GappedBatchStats()
        exts = assert_batch_equals_oracle(
            q, subjects, [60] * 4, [60] * 4, M, GO, GE, 23, 16, stats=bst
        )
        assert exts[2].send - exts[2].sstart == len(q) + 12
        assert bst.halves == 8 and bst.widenings == 1
        longest = 60  # both halves of every pair are 60 query residues
        assert bst.rows <= longest + 1, (
            f"{bst.rows} lockstep rows for halves of {longest}: a clipped "
            f"half was restarted instead of widened where it stood"
        )


class TestWideningRegression:
    def test_indel_drift_forces_widening(self):
        """A 12-residue insertion drifts the optimal path 12 diagonals
        off the seed; at band=4 the first pass must clip, widen, and
        still return the oracle alignment."""
        rng = np.random.default_rng(7)
        q = random_codes(rng, 80)
        s = np.concatenate(
            [q[:40], random_codes(rng, 12), q[40:]]
        ).astype(np.int8)
        bst = GappedBatchStats()
        exts = assert_batch_equals_oracle(
            q, [s], [10], [10], M, GO, GE, 200, 4, stats=bst
        )
        assert bst.widenings > 0, "band=4 should have clipped and widened"
        # The alignment really does cross the insertion (spans both
        # flanks), so the widening was load-bearing, not incidental.
        assert exts[0].qend - exts[0].qstart > 40

    def test_scalar_fallback_last_resort(self):
        """Doubling past max(nq, ns) must hand the half to the scalar
        reference DP instead of widening forever."""
        rng = np.random.default_rng(11)
        q = random_codes(rng, 48)
        # A subject built from interleaved slices keeps the best path
        # wandering; with band=1 and huge x-drop, widenings escalate.
        s = np.concatenate(
            [q[24:], q[:24], random_codes(rng, 30)]
        ).astype(np.int8)
        bst = GappedBatchStats()
        assert_batch_equals_oracle(
            q, [s], [0], [0], M, GO, GE, 10**6, 1, stats=bst
        )
        assert bst.widenings > 0
        # Under this x-drop the leading gap of row 0 already reaches the
        # ghost column, and a row-0 clip leaves for the retry pass
        # whatever the cohort's size (no row is computed yet, there is
        # nothing to widen in place): the half doubles through retry
        # passes until the band would cover the matrix and then takes
        # the scalar DP.  ``fallbacks`` counts exactly those halves; a
        # half widened where it stands stops clipping once its band
        # reaches max(nq, ns) and never falls back
        # (TestWideningInPlace).
        assert bst.fallbacks == 1

    def test_band_one_degenerate_inputs(self):
        """Edge geometry: anchors at sequence ends, single-letter
        subjects, empty halves."""
        q = enc("MKVLATTLLW")
        cases = [
            (enc("M"), 0, 0),
            (enc("W"), len(q) - 1, 0),
            (q.copy(), 0, 0),
            (q.copy(), len(q) - 1, len(q) - 1),
        ]
        subjects = [c[0] for c in cases]
        assert_batch_equals_oracle(
            q, subjects, [c[1] for c in cases], [c[2] for c in cases],
            M, GO, GE, 38, 1,
        )


class TestMemoryHygiene:
    def test_straggler_does_not_pin_batch_rows(self):
        """One long alignment must not keep the whole batch's history
        rows alive: finished wavefronts retire and the cohort compacts,
        so peak allocated cells stay far below the naive
        ``n_alignments x longest`` rectangle."""
        rng = np.random.default_rng(3)
        q = random_codes(rng, 800)
        n_short = 64
        subjects = [q[:30].copy() for _ in range(n_short)]
        aqs = [0] * n_short
        ass = [0] * n_short
        # The straggler: a self-alignment that only terminates at the
        # sequence end (x-drop can never trigger on an identity path).
        subjects.append(q.copy())
        aqs.append(0)
        ass.append(0)
        bst = GappedBatchStats()
        exts = extend_gapped_batch(
            q, subjects, aqs, ass, M, GO, GE, 38, band=32, stats=bst,
        )
        assert exts[-1].qend - exts[-1].qstart == len(q)
        band_w = 2 * 32 + 3
        naive = 3 * (n_short + 1) * len(q) * band_w
        assert bst.peak_cells > 0
        assert bst.peak_cells < naive / 4, (
            f"peak {bst.peak_cells} cells is within 4x of the naive "
            f"rectangle {naive}; retirement/compaction is not releasing "
            f"finished rows"
        )
