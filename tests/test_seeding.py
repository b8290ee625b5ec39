"""Word seeding: index construction, scanning, two-hit logic."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blast import seeding
from repro.blast.alphabet import DNA, PROTEIN
from repro.blast.matrices import blosum62, dna_matrix
from repro.blast.seeding import (
    SeedStats,
    WordIndex,
    one_hit_triggers,
    rolling_codes,
    two_hit_triggers,
    wave_triggers,
)


def make_index(seq: str, threshold: int = 11) -> WordIndex:
    return WordIndex(
        PROTEIN.encode(seq),
        blosum62(),
        word_size=3,
        threshold=threshold,
        nstd=20,
    )


class TestWordIndexProtein:
    def test_identity_word_always_in_neighbourhood(self):
        # Self-score of common words exceeds T=11 for most triples; use
        # a word with a high self-score (WWW = 33).
        idx = make_index("WWWAAA")
        q = PROTEIN.encode("WWW")
        spos, qpos = idx.find_hits(q)
        assert (qpos == 0).any()

    def test_low_selfscore_word_excluded_at_high_threshold(self):
        # AAA self-score is 12; with T=13 the identity word is excluded.
        idx = make_index("AAA", threshold=13)
        spos, qpos = idx.find_hits(PROTEIN.encode("AAA"))
        assert len(spos) == 0

    def test_neighbourhood_matches_bruteforce(self):
        seq = "MKVLAWYQ"
        idx = make_index(seq)
        m = blosum62()[:20, :20]
        q = PROTEIN.encode(seq)
        # brute force neighbourhood of position 2 (VLA)
        a, b, c = int(q[2]), int(q[3]), int(q[4])
        scores = (
            m[a][:, None, None] + m[b][None, :, None] + m[c][None, None, :]
        )
        expected = int((scores >= 11).sum())
        count = 0
        for code in range(8000):
            s, e = idx.indptr[code], idx.indptr[code + 1]
            count += int((idx.data[s:e] == 2).sum())
        assert count == expected

    def test_wildcard_query_word_skipped(self):
        idx = make_index("MKXLA")  # words containing X are skipped
        # positions 0,1,2 contain X; no position 0..2 indexed
        present = set(idx.data.tolist())
        assert 0 not in present and 1 not in present and 2 not in present

    def test_short_query_has_empty_index(self):
        idx = make_index("MK")
        assert len(idx.data) == 0

    def test_subject_wildcards_not_scanned(self):
        s = PROTEIN.encode("MKXVLA")  # X at 2 invalidates words at 0,1,2
        pos, _codes = rolling_codes(s, 3, 20)
        assert 0 not in pos and 1 not in pos and 2 not in pos

    def test_hits_sorted_by_subject_position(self):
        idx = make_index("MKVLAWMKVLAW")
        s = PROTEIN.encode("MKVLAWMKVLAW")
        spos, qpos = idx.find_hits(s)
        assert (np.diff(spos) >= 0).all()

    def test_stats_counted(self):
        idx = make_index("MKVLAW")
        stats = SeedStats()
        idx.find_hits(PROTEIN.encode("MKVLAWMKVLAW"), stats)
        assert stats.positions_scanned == 12
        assert stats.word_hits > 0


class TestWordIndexDna:
    def test_exact_word_match_only(self):
        q = DNA.encode("ACGTACGTACGTACG")
        idx = WordIndex(q, dna_matrix(), word_size=11, threshold=0, nstd=4,
                        exact_only=True)
        spos, qpos = idx.find_hits(q)
        # every position matches itself on the diagonal
        assert all((qp - sp) % 4 == 0 for sp, qp in zip(spos, qpos))
        diag0 = [(sp, qp) for sp, qp in zip(spos, qpos) if sp == qp]
        assert len(diag0) == len(q) - 11 + 1

    def test_mutation_breaks_words(self):
        q = DNA.encode("ACGTACGTACGTACGTT")
        idx = WordIndex(q, dna_matrix(), word_size=11, threshold=0, nstd=4,
                        exact_only=True)
        s = DNA.encode("ACGTACGTACGAACGTT")  # mutation at pos 11
        spos, _ = idx.find_hits(s)
        # words overlapping position 11 cannot match exactly
        assert len(spos) < len(q) - 10


def trigger_pairs(trig):
    """(qpos, spos) ndarray pair -> list of (qpos, spos) tuples."""
    tq, ts = trig
    return list(zip(tq.tolist(), ts.tolist()))


class TestTwoHit:
    def test_pair_within_window_triggers(self):
        spos = np.array([0, 10])
        qpos = np.array([5, 15])  # same diagonal 5
        trig = two_hit_triggers(spos, qpos, window=40, word_size=3)
        assert trigger_pairs(trig) == [(15, 10)]

    def test_overlapping_pair_does_not_trigger(self):
        spos = np.array([0, 2])
        qpos = np.array([5, 7])  # distance 2 < word_size
        trig = two_hit_triggers(spos, qpos, window=40, word_size=3)
        assert trigger_pairs(trig) == []

    def test_beyond_window_does_not_trigger(self):
        spos = np.array([0, 100])
        qpos = np.array([5, 105])
        trig = two_hit_triggers(spos, qpos, window=40, word_size=3)
        assert trigger_pairs(trig) == []

    def test_different_diagonals_do_not_pair(self):
        spos = np.array([0, 10])
        qpos = np.array([5, 16])  # diagonals 5 and 6
        trig = two_hit_triggers(spos, qpos, window=40, word_size=3)
        assert trigger_pairs(trig) == []

    def test_dense_identity_run_triggers(self):
        """Consecutive overlapping hits (distance 1) must still produce
        triggers from non-adjacent pairs — the self-hit regression."""
        n = 30
        spos = np.arange(n)
        qpos = np.arange(n)
        tq, _ts = two_hit_triggers(spos, qpos, window=40, word_size=3)
        # every position >= word_size has an earlier hit at distance in
        # [3, 40]
        assert len(tq) == n - 3

    def test_empty_input(self):
        trig = two_hit_triggers(np.array([]), np.array([]), window=40,
                                word_size=3)
        assert trigger_pairs(trig) == []

    def test_one_hit_mode_triggers_everything(self):
        spos = np.array([3, 1])
        qpos = np.array([7, 2])
        trig = one_hit_triggers(spos, qpos)
        assert sorted(trigger_pairs(trig)) == [(2, 1), (7, 3)]

    @given(
        st.lists(
            st.tuples(st.integers(0, 300), st.integers(0, 300)),
            min_size=0,
            max_size=80,
            unique=True,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_bruteforce(self, pairs):
        if pairs:
            spos = np.array([p[0] for p in pairs])
            qpos = np.array([p[1] for p in pairs])
        else:
            spos = np.array([], dtype=np.int64)
            qpos = np.array([], dtype=np.int64)
        trig = set(
            trigger_pairs(
                two_hit_triggers(spos, qpos, window=40, word_size=3)
            )
        )
        expected = set()
        for sp, qp in pairs:
            d = qp - sp
            for sp2, qp2 in pairs:
                if qp2 - sp2 == d and 3 <= sp - sp2 <= 40:
                    expected.add((qp, sp))
                    break
        assert trig == expected


# ----------------------------------------------------------------------
# wave kernel: keys straight from the CSR, two-hit as shifted differences
# ----------------------------------------------------------------------


def csr_inputs(hits):
    """``wave_triggers`` positional inputs for a set of distinct hits.

    ``hits`` are ``(qid, ql, subj, sl)``.  One index entry per hit, in
    (subject position, query position) order, so each subject
    position's hits are one CSR slice that never repeats a query
    position — what a real joint index guarantees.
    """
    hits = sorted(hits, key=lambda h: (h[2], h[3], h[0], h[1]))
    subj, sl, starts, counts = [], [], [], []
    for i, (_qid, _ql, sj, so) in enumerate(hits):
        if subj and (subj[-1], sl[-1]) == (sj, so):
            counts[-1] += 1
        else:
            subj.append(sj), sl.append(so), starts.append(i), counts.append(1)
    qid, ql = [h[0] for h in hits], [h[1] for h in hits]
    return tuple(np.array(c, dtype=np.int64)
                 for c in (subj, sl, starts, counts, qid, ql))


def per_pair_oracle(hits, *, nsl, window, word_size, two_hit):
    """Scalar triggers of each (query, subject) pair, concatenated."""
    groups = {}
    for qid, ql, sj, so in hits:
        groups.setdefault(qid * nsl + sj, []).append((so, ql))
    out = []
    for pair in sorted(groups):
        spos, qpos = (np.array(c) for c in zip(*groups[pair]))
        if two_hit:
            trig = two_hit_triggers(spos, qpos, window=window,
                                    word_size=word_size)
        else:
            trig = one_hit_triggers(spos, qpos)
        out += [(pair, q, s) for q, s in trigger_pairs(trig)]
    return out


def wave(hits, *, nq, nsl, max_qlen, max_slen, window, word_size, two_hit):
    pair, tq, ts = wave_triggers(
        *csr_inputs(hits), nq=nq, nsl=nsl, max_qlen=max_qlen,
        max_slen=max_slen, window=window, word_size=word_size,
        two_hit=two_hit,
    )
    return list(zip(pair.tolist(), tq.tolist(), ts.tolist()))


@st.composite
def hit_blocks(draw):
    """A small block's dimensions and a set of distinct hits in it.

    Hits sit on few diagonals — including both extreme ones, where the
    last run of one pair and the first run of the next are neighbours
    in key space — at offsets that include both record ends.
    """
    nq, nsl = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    max_qlen, max_slen = draw(st.integers(2, 50)), draw(st.integers(2, 50))
    diags = draw(st.lists(
        st.integers(-(max_slen - 1), max_qlen - 1), min_size=1, max_size=3,
    )) + [-(max_slen - 1), max_qlen - 1]
    cells = draw(st.sets(
        st.tuples(st.integers(0, nq - 1), st.integers(0, nsl - 1),
                  st.sampled_from(diags), st.integers(0, max_slen - 1)),
        max_size=120,
    ))
    hits = [(qid, d + so, sj, so) for qid, sj, d, so in cells
            if 0 <= d + so < max_qlen]
    return dict(nq=nq, nsl=nsl, max_qlen=max_qlen, max_slen=max_slen), hits


class TestWaveTriggers:
    @given(
        block=hit_blocks(),
        word_size=st.sampled_from([2, 3, 4, 5]),
        window=st.sampled_from(["w", "w+1", 40]),
        two_hit=st.booleans(),
        limit=st.sampled_from([seeding.KEY_LIMIT, 1]),
    )
    @settings(max_examples=300, deadline=None)
    def test_equals_per_pair_scalar_triggers(
        self, block, word_size, window, two_hit, limit
    ):
        dims, hits = block
        window = {"w": word_size, "w+1": word_size + 1}.get(window, window)
        kw = dict(window=window, word_size=word_size, two_hit=two_hit)
        # limit=1: every multi-subject block goes through the overflow
        # guard, one subject at a time.
        with mock.patch.object(seeding, "KEY_LIMIT", limit):
            got = wave(hits, **dims, **kw)
        assert got == per_pair_oracle(hits, nsl=dims["nsl"], **kw)

    @pytest.mark.parametrize("word_size", [2, 3, 4, 5])
    @pytest.mark.parametrize("window", ["w", "w+1", 40])
    def test_planted_predecessor_distances(self, word_size, window):
        """Every subset of hits planted on one diagonal at distances
        w-1, w, window and window+1 from each other's neighbourhood —
        the four edges of the ``[word_size, window]`` test — in two
        neighbouring pairs at once."""
        window = {"w": word_size, "w+1": word_size + 1}.get(window, window)
        offsets = sorted({0, word_size - 1, word_size, window, window + 1,
                          window + word_size, 2 * window + 1})
        dims = dict(nq=1, nsl=2, max_qlen=offsets[-1] + 8,
                    max_slen=offsets[-1] + 1)
        kw = dict(window=window, word_size=word_size, two_hit=True)
        for mask in range(1, 1 << len(offsets)):
            picked = [o for i, o in enumerate(offsets) if mask >> i & 1]
            hits = [(0, o + 7, sj, o) for o in picked for sj in (0, 1)]
            got = wave(hits, **dims, **kw)
            assert got == per_pair_oracle(hits, nsl=2, **kw), picked
            expected = {o for o in picked
                        if any(word_size <= o - e <= window for e in picked)}
            assert {s for pair, _q, s in got if pair == 0} == expected

    def test_guard_path_on_a_real_index(self):
        """Patched overflow bound, real joint index and subject join:
        the guard path returns the triggers of the folded path."""
        rng = np.random.default_rng(11)
        queries = [rng.integers(0, 20, n).astype(np.uint8) for n in (40, 25)]
        qstarts = np.array([0, 41])
        index = WordIndex.merged(
            [WordIndex(q, blosum62(), word_size=3, threshold=11, nstd=20)
             for q in queries], qstarts,
        )
        qid = (index.data >= 41).astype(np.int64)
        subjects = [rng.integers(0, 20, n).astype(np.uint8)
                    for n in (60, 30, 90)]
        subj, sl, starts, counts = [], [], [], []
        for j, s in enumerate(subjects):
            pos, codes = rolling_codes(s, 3, 20)
            keep, st_, ct = index.lookup(codes)
            subj.append(np.full(int(keep.sum()), j)), sl.append(pos[keep])
            starts.append(st_), counts.append(ct)
        args = (*map(np.concatenate, (subj, sl, starts, counts)),
                qid, index.data - qstarts[qid])
        kw = dict(nq=2, nsl=3, max_qlen=40, max_slen=90, window=40,
                  word_size=3, two_hit=True)
        folded = wave_triggers(*args, **kw)
        assert len(folded[0]) > 0
        with mock.patch.object(seeding, "KEY_LIMIT", 1):
            guarded = wave_triggers(*args, **kw)
        for a, b in zip(folded, guarded):
            assert np.array_equal(a, b)


# ----------------------------------------------------------------------
# neighbourhood build: two stages against the full score cube
# ----------------------------------------------------------------------


def cube_csr(q, m, threshold, nstd=20):
    """Brute-force reference: the npos x 20^3 score cube, then the CSR."""
    codes, positions = [], []
    for p in range(len(q) - 2):
        a, b, c = (int(x) for x in q[p : p + 3])
        if max(a, b, c) >= nstd:
            continue
        cube = (m[a, :nstd, None, None] + m[b, None, :nstd, None]
                + m[c, None, None, :nstd])
        for code in np.flatnonzero(cube.ravel() >= threshold).tolist():
            codes.append(code), positions.append(p)
    codes = np.array(codes, dtype=np.int64)
    order = np.argsort(codes, kind="stable")
    per_code = np.bincount(codes, minlength=nstd**3)
    indptr = np.concatenate(([0], np.cumsum(per_code)))
    return indptr, np.array(positions, dtype=np.int64)[order]


class TestTwoStageBuild:
    M = blosum62()
    LOWEST = 3 * int(M[:20, :20].min())  # every word of every position
    ABOVE_MAX = 3 * int(M[:20, :20].max()) + 1  # nothing

    @pytest.mark.parametrize("threshold", [LOWEST, 11, 13, ABOVE_MAX])
    @pytest.mark.parametrize("seed", range(4))
    def test_equals_cube_reference(self, threshold, seed):
        rng = np.random.default_rng(seed)
        # Codes 20..23 are wildcards/ambiguity letters: their words are
        # skipped.  Short enough that LOWEST stays a small index.
        q = rng.integers(0, 24, int(rng.integers(3, 14))).astype(np.uint8)
        idx = WordIndex(q, self.M, word_size=3, threshold=threshold, nstd=20)
        indptr, data = cube_csr(q, self.M, threshold)
        assert np.array_equal(idx.indptr, indptr)
        assert np.array_equal(idx.data, data)
        if threshold == self.ABOVE_MAX:
            assert len(idx.data) == 0
        if threshold == self.LOWEST:
            nvalid = sum(q[p : p + 3].max() < 20 for p in range(len(q) - 2))
            assert len(idx.data) == 8000 * nvalid

    @pytest.mark.parametrize("threshold", [LOWEST, 11])
    def test_query_shorter_than_the_word(self, threshold):
        idx = WordIndex(PROTEIN.encode("MK"), self.M, word_size=3,
                        threshold=threshold, nstd=20)
        assert len(idx.data) == 0 and idx.indptr[-1] == 0
        assert len(idx.find_hits(PROTEIN.encode("MKVLAW"))[0]) == 0
