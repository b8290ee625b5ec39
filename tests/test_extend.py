"""Extension DP: ungapped X-drop, gapped Gotoh X-drop, traceback oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blast.alphabet import PROTEIN
from repro.blast.extend import (
    GappedExtension,
    extend_gapped,
    score_alignment_ops,
    ungapped_extend,
    ungapped_extend_batch,
)
from repro.blast.matrices import blosum62

M = blosum62()
GO, GE = 11, 1


def enc(s: str) -> np.ndarray:
    return PROTEIN.encode(s)


def reference_half_extension(q, s, go, ge):
    """Plain O(nm) Gotoh *extension* (anchored start, free end), no
    X-drop — the oracle for the vectorized implementation."""
    nq, ns = len(q), len(s)
    NEG = -(10**9)
    H = [[NEG] * (ns + 1) for _ in range(nq + 1)]
    E = [[NEG] * (ns + 1) for _ in range(nq + 1)]
    F = [[NEG] * (ns + 1) for _ in range(nq + 1)]
    H[0][0] = 0
    for j in range(1, ns + 1):
        E[0][j] = -(go + ge * j)
        H[0][j] = E[0][j]
    for i in range(1, nq + 1):
        F[i][0] = -(go + ge * i)
        H[i][0] = F[i][0]
        for j in range(1, ns + 1):
            E[i][j] = max(E[i][j - 1] - ge, H[i][j - 1] - go - ge)
            F[i][j] = max(F[i - 1][j] - ge, H[i - 1][j] - go - ge)
            diag = H[i - 1][j - 1] + int(M[q[i - 1], s[j - 1]])
            H[i][j] = max(diag, E[i][j], F[i][j])
    return max(max(row) for row in H)


class TestUngapped:
    def test_perfect_match_extends_fully(self):
        s = enc("MKVLAWYQNDCE")
        hit = ungapped_extend(s, s, 4, 4, 3, M, 16)
        assert hit.qstart == 0 and hit.qend == len(s)
        assert hit.score == sum(int(M[c, c]) for c in s)

    def test_mismatch_tail_trimmed(self):
        q = enc("MKVLAW" + "P")
        s = enc("MKVLAW" + "W")
        hit = ungapped_extend(q, s, 0, 0, 3, M, 16)
        # P vs W scores -4: the best extent excludes the tail
        assert hit.qend == 6
        assert hit.score == sum(int(M[c, c]) for c in enc("MKVLAW"))

    def test_xdrop_stops_early(self):
        # strong word, then a long run of terrible matches, then strong
        q = enc("WWW" + "P" * 30 + "WWW")
        s = enc("WWW" + "G" * 30 + "WWW")
        hit = ungapped_extend(q, s, 0, 0, 3, M, 10)
        assert hit.qend <= 8  # never crosses the desert

    def test_left_extension(self):
        q = enc("MKVLAWWWW")
        s = enc("MKVLAWWWW")
        hit = ungapped_extend(q, s, 6, 6, 3, M, 16)
        assert hit.qstart == 0

    def test_score_trimmed_to_best(self):
        q = enc("WWWPA")
        s = enc("WWWGA")
        hit = ungapped_extend(q, s, 0, 0, 3, M, 40)
        best_possible = 33  # WWW
        assert hit.score >= best_possible


def sentinel_join(seqs, sentinel):
    """One sentinel before, between and after the records (the wave
    kernel's layout); returns the array and each record's start."""
    parts, starts, off = [np.array([sentinel], dtype=np.uint8)], [], 1
    for c in seqs:
        parts += [c, np.array([sentinel], dtype=np.uint8)]
        starts.append(off)
        off += len(c) + 1
    return np.concatenate(parts), starts


def sentinel_matrix(m):
    """``m`` plus one sentinel code scoring far below any X-drop."""
    size = m.shape[0]
    ext = np.full((size + 1, size + 1), -(1 << 30), dtype=np.int64)
    ext[:size, :size] = m
    return ext


def assert_batch_equals_scalar(q, s, qpos, spos, w, m, x_drop):
    got = ungapped_extend_batch(
        q, s, np.array(qpos), np.array(spos), w, m, x_drop
    )
    assert all(col.dtype == np.int64 for col in got)
    for i, row in enumerate(zip(*(col.tolist() for col in got))):
        hit = ungapped_extend(q, s, qpos[i], spos[i], w, m, x_drop)
        assert row == (
            hit.qstart, hit.qend, hit.sstart, hit.send, hit.score
        ), (i, qpos[i], spos[i])


class TestUngappedBatchWindows:
    """The batched extension reads fixed windows of barrier-padded
    arrays: record edges, array edges, chunk growth and the int32 /
    int64 running state must all be invisible in the results."""

    W = 3
    # A family: the founder, a diverged copy, and the founder inside
    # unrelated flanks — extensions of every length, ending at record
    # edges, at mismatches and at the X-drop.
    rng = np.random.default_rng(404)
    founder = rng.integers(0, 20, 420).astype(np.uint8)
    diverged = founder.copy()
    diverged[rng.integers(0, 420, 60)] = rng.integers(0, 20, 60)
    flanked = np.concatenate((
        rng.integers(0, 20, 37).astype(np.uint8), founder[100:300],
        rng.integers(0, 20, 41).astype(np.uint8),
    ))

    def joined_case(self):
        q, qstarts = sentinel_join([self.founder, self.diverged], 24)
        s, sstarts = sentinel_join(
            [self.founder, self.flanked, self.diverged], 24
        )
        n = len(self.founder)
        qpos, spos = [], []
        # First and last word of the first and the last record, on
        # both sides: the steps next to them are the sentinels and,
        # one further, the padding.
        for qo in (qstarts[0], qstarts[0] + n - self.W,
                   qstarts[1], qstarts[1] + n - self.W):
            for so in (sstarts[0], sstarts[0] + n - self.W,
                       sstarts[2], sstarts[2] + n - self.W):
                qpos.append(qo), spos.append(so)
        # Main diagonals of the homologous pairs, every 29 letters.
        for qs, ss, shift in ((qstarts[0], sstarts[0], 0),
                              (qstarts[1], sstarts[2], 0),
                              (qstarts[0], sstarts[2], 0),
                              (qstarts[0] + 100, sstarts[1] + 37, 0)):
            for k in range(0, 190, 29):
                qpos.append(qs + k), spos.append(ss + k + shift)
        return q, s, qpos, spos

    @pytest.mark.parametrize("x_drop", [1, 16, 10_000])
    def test_sentinel_joined_records_and_their_edges(self, x_drop):
        q, s, qpos, spos = self.joined_case()
        assert_batch_equals_scalar(
            q, s, qpos, spos, self.W, sentinel_matrix(M), x_drop
        )

    @pytest.mark.parametrize("x_drop", [1, 16, 10_000])
    def test_array_edges_without_sentinels(self, x_drop):
        """Raw arrays: the first and last word sit against the padding
        itself."""
        q, s = self.founder, self.diverged
        last = len(q) - self.W
        qpos = [0, 0, last, last, 0, last, 200]
        spos = [0, last, 0, last, 5, last - 5, 200]
        assert_batch_equals_scalar(q, s, qpos, spos, self.W, M, x_drop)

    def test_many_triggers_take_the_step_loop(self):
        """Enough triggers at once that the running sums go step by
        step instead of through NumPy's accumulate (both sides of
        ``_STEP_LOOP_COLUMNS`` must give the scalar result; every other
        case here is on the short side)."""
        from repro.blast import extend

        q, s, qpos, spos = self.joined_case()
        rng = np.random.default_rng(5)
        n = 3 * extend._STEP_LOOP_COLUMNS
        # Random cells (mostly noise, dying in the first chunk) plus the
        # homologous diagonals (surviving into the later, wider ones).
        qpos = qpos + (1 + rng.integers(0, 415, n)).tolist()
        spos = spos + (1 + rng.integers(0, 415, n)).tolist()
        assert_batch_equals_scalar(
            q, s, qpos, spos, self.W, sentinel_matrix(M), 16
        )

    def test_long_identical_pair_grows_the_chunk(self):
        """420 identical letters from the middle: 16 + 32 + 64 + 128
        steps, then full-width chunks, in both directions."""
        q = self.founder
        got = ungapped_extend_batch(
            q, q, np.array([200, 0]), np.array([200, 0]), self.W, M, 16
        )
        score = sum(int(M[c, c]) for c in q)
        assert [col.tolist() for col in got] == [
            [0, 0], [420, 420], [0, 0], [420, 420], [score, score]
        ]
        assert_batch_equals_scalar(q, q, [200, 0], [200, 0], self.W, M, 16)

    @pytest.mark.parametrize("scale", [1, 10**3, 10**7])
    def test_scaled_matrix_falls_back_to_int64(self, scale):
        """At 10^7 the identical pair alone scores past 2^31: int32
        running state would wrap, so the state must widen — decided
        from the inputs, with nothing for a caller to set."""
        q, s, qpos, spos = self.joined_case()
        m = sentinel_matrix(M * scale)
        assert_batch_equals_scalar(q, s, qpos, spos, self.W, m, 16 * scale)
        if scale == 10**7:
            best = ungapped_extend_batch(
                q, s, np.array(qpos[:1]) + 200, np.array(spos[:1]) + 200,
                self.W, m, 16 * scale,
            )[4]
            assert int(best[0]) > 1 << 31


class TestGapped:
    def test_identity_alignment(self):
        s = enc("MKVLAWYQNDCEHGIST")
        ext = extend_gapped(s, s, 8, 8, M, GO, GE, 38)
        assert ext.qstart == 0 and ext.qend == len(s)
        assert ext.ops == "M" * len(s)
        assert ext.score == sum(int(M[c, c]) for c in s)

    def test_alignment_with_insertion(self):
        q = enc("MKVLAWYQNDCEHGIST")
        sub = enc("MKVLAWYQ" + "AAA" + "NDCEHGIST")
        ext = extend_gapped(q, sub, 2, 2, M, GO, GE, 38)
        assert "I" * 3 in ext.ops
        # score = identity - gap(3)
        ident = sum(int(M[c, c]) for c in q)
        assert ext.score == ident - (GO + GE * 3)

    def test_alignment_with_deletion(self):
        q = enc("MKVLAWYQAAANDCEHGIST")
        sub = enc("MKVLAWYQNDCEHGIST")
        ext = extend_gapped(q, sub, 2, 2, M, GO, GE, 38)
        assert "D" * 3 in ext.ops

    def test_rescore_matches_reported_score(self):
        q = enc("MKVLAWYQNDCEHGISTMKVLAW")
        sub = enc("MKVLAWYQCEHGISTMKVLAW")
        ext = extend_gapped(q, sub, 1, 1, M, GO, GE, 38)
        assert score_alignment_ops(q, sub, ext, M, GO, GE) == ext.score

    def test_gapped_at_least_ungapped(self):
        q = enc("MKVLAWYQNDCEHGIST")
        sub = enc("MKVLAWYQAANDCEHGIST")
        uh = ungapped_extend(q, sub, 0, 0, 3, M, 16)
        ext = extend_gapped(q, sub, 1, 1, M, GO, GE, 38)
        assert ext.score >= uh.score

    def test_anchor_out_of_range_raises(self):
        s = enc("MKVLAW")
        with pytest.raises(ValueError):
            extend_gapped(s, s, 10, 0, M, GO, GE, 38)

    def test_anchor_only_alignment_possible(self):
        # surrounded by junk: alignment collapses to near the anchor
        q = enc("PPPPWGGGG")
        sub = enc("GGGGWPPPP")
        ext = extend_gapped(q, sub, 4, 4, M, GO, GE, 8)
        assert ext.qstart <= 4 < ext.qend
        assert ext.score >= int(M[q[4], sub[4]])

    def test_ops_span_claimed_ranges(self):
        q = enc("MKVLAWYQNDCEHG")
        sub = enc("MKVAWYQNDACEHG")
        ext = extend_gapped(q, sub, 5, 5, M, GO, GE, 38)
        nq = sum(1 for op in ext.ops if op in "MD")
        ns = sum(1 for op in ext.ops if op in "MI")
        assert nq == ext.qend - ext.qstart
        assert ns == ext.send - ext.sstart


_protein = st.text(alphabet="ARNDCQEGHILKMFPSTWYV", min_size=1, max_size=40)


class TestAgainstReference:
    @given(_protein, _protein)
    @settings(max_examples=80, deadline=None)
    def test_half_extension_equals_full_dp_without_xdrop(self, qs, ss):
        """With an effectively infinite X-drop the vectorized extension
        must equal the plain Gotoh reference (validates the accumax-E
        trick and the masking logic)."""
        from repro.blast.extend import _extend_half

        q, s = enc(qs), enc(ss)
        got = _extend_half(q, s, M, GO, GE, 10**6)
        want = reference_half_extension(q, s, GO, GE)
        assert got.score == want

    @given(_protein, _protein,
           st.integers(min_value=5, max_value=60))
    @settings(max_examples=80, deadline=None)
    def test_traceback_rescores_exactly(self, qs, ss, xdrop):
        q, s = enc(qs), enc(ss)
        aq = min(len(q) - 1, len(q) // 2)
        asub = min(len(s) - 1, len(s) // 2)
        ext = extend_gapped(q, s, aq, asub, M, GO, GE, xdrop)
        assert score_alignment_ops(q, s, ext, M, GO, GE) == ext.score

    @given(_protein)
    @settings(max_examples=40, deadline=None)
    def test_self_alignment_is_identity(self, qs):
        q = enc(qs)
        a = len(q) // 2
        ext = extend_gapped(q, q, a, a, M, GO, GE, 1000)
        assert ext.ops == "M" * len(q)
        assert ext.score == sum(int(M[c, c]) for c in q)

    @given(_protein, st.integers(min_value=5, max_value=1000))
    @settings(max_examples=40, deadline=None)
    def test_xdrop_never_beats_unbounded(self, qs, xdrop):
        q = enc(qs)
        other = enc(qs[::-1])
        if len(other) == 0:
            return
        a = 0
        bounded = extend_gapped(q, other, a, a, M, GO, GE, xdrop)
        unbounded = extend_gapped(q, other, a, a, M, GO, GE, 10**6)
        assert bounded.score <= unbounded.score
