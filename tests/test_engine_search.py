"""The BLAST search driver: hits, statistics, fragments, blastn."""

import numpy as np
import pytest

from repro.blast.engine import (
    BlastSearch,
    ListDatabase,
    SearchParams,
    SearchStats,
    blastn_search,
    blastp_search,
    finalize_results,
)
from repro.blast.fasta import SeqRecord
from repro.workloads import SynthSpec, synthesize_protein_records


@pytest.fixture(scope="module")
def tiny_db():
    return synthesize_protein_records(
        SynthSpec(num_sequences=40, mean_length=120, family_fraction=0.5,
                  family_size=4, seed=77)
    )


class TestBlastpBasics:
    def test_self_hit_is_perfect(self, tiny_db):
        q = tiny_db[7]
        res = blastp_search([q], tiny_db)
        top = res[0].alignments[0]
        assert top.subject_oid == 7
        assert top.identities == top.align_length == len(q.sequence)
        assert top.gaps == 0

    def test_family_members_found(self, tiny_db):
        # sequence 1 is a family member of founder 0
        res = blastp_search([tiny_db[1]], tiny_db)
        oids = {a.subject_oid for a in res[0].alignments}
        assert 0 in oids and 1 in oids

    def test_results_ranked_by_score(self, tiny_db):
        res = blastp_search([tiny_db[1]], tiny_db)
        scores = [a.score for a in res[0].alignments]
        assert scores == sorted(scores, reverse=True)

    def test_evalues_within_threshold(self, tiny_db):
        params = SearchParams(expect=1e-3)
        res = blastp_search([tiny_db[3]], tiny_db, params)
        assert all(a.evalue <= 1e-3 for a in res[0].alignments)

    def test_tighter_expect_never_adds_hits(self, tiny_db):
        loose = blastp_search([tiny_db[2]], tiny_db, SearchParams(expect=10))
        tight = blastp_search([tiny_db[2]], tiny_db, SearchParams(expect=0.001))
        loose_ids = {(a.subject_oid, a.qstart) for a in loose[0].alignments}
        tight_ids = {(a.subject_oid, a.qstart) for a in tight[0].alignments}
        assert tight_ids <= loose_ids

    def test_max_alignments_cap(self, tiny_db):
        params = SearchParams(max_alignments=2)
        res = blastp_search([tiny_db[1]], tiny_db, params)
        assert len(res[0].alignments) <= 2

    def test_no_hits_for_unrelated_low_expect(self, tiny_db):
        alien = SeqRecord("alien", "W" * 50)
        res = blastp_search([alien], tiny_db, SearchParams(expect=1e-6))
        assert res[0].alignments == []

    def test_multiple_queries_independent(self, tiny_db):
        res = blastp_search([tiny_db[0], tiny_db[5]], tiny_db)
        assert res[0].alignments[0].subject_oid == 0
        assert res[1].alignments[0].subject_oid == 5

    def test_midline_conventions(self, tiny_db):
        res = blastp_search([tiny_db[1]], tiny_db)
        for a in res[0].alignments:
            assert len(a.midline) == len(a.aligned_query) == len(
                a.aligned_subject
            )
            # identity positions show the residue
            for cq, cm, cs in zip(a.aligned_query, a.midline,
                                  a.aligned_subject):
                if cq == cs and cq != "-":
                    assert cm == cq

    def test_identity_positive_gap_counts(self, tiny_db):
        res = blastp_search([tiny_db[1]], tiny_db)
        for a in res[0].alignments:
            n = a.align_length
            assert 0 <= a.identities <= a.positives <= n
            assert a.gaps == a.aligned_query.count("-") + (
                a.aligned_subject.count("-")
            )


class TestFragmentsAndStatistics:
    def test_fragment_union_equals_whole(self, tiny_db):
        engine = BlastSearch()
        db = ListDatabase(tiny_db, engine.alphabet)
        whole = engine.search_fragment(
            [tiny_db[1]], db, db_letters=db.total_letters,
            db_num_seqs=db.num_sequences,
        )[0]
        # two halves with global stats and base oids
        half = len(tiny_db) // 2
        d1 = ListDatabase(tiny_db[:half], engine.alphabet)
        d2 = ListDatabase(tiny_db[half:], engine.alphabet)
        e2 = BlastSearch()
        a1 = e2.search_fragment(
            [tiny_db[1]], d1, db_letters=db.total_letters,
            db_num_seqs=db.num_sequences, base_oid=0,
        )[0]
        a2 = e2.search_fragment(
            [tiny_db[1]], d2, db_letters=db.total_letters,
            db_num_seqs=db.num_sequences, base_oid=half,
        )[0]
        whole_keys = sorted(
            (a.subject_oid, a.qstart, a.send, a.score) for a in whole
        )
        frag_keys = sorted(
            (a.subject_oid, a.qstart, a.send, a.score) for a in a1 + a2
        )
        assert whole_keys == frag_keys

    def test_local_filter_is_superset(self, tiny_db):
        """Fragment-local expect filtering only *adds* candidates."""
        engine = BlastSearch()
        db = ListDatabase(tiny_db, engine.alphabet)
        half_db = ListDatabase(tiny_db[:20], engine.alphabet)
        global_hits = engine.search_fragment(
            [tiny_db[1]], half_db, db_letters=db.total_letters,
            db_num_seqs=db.num_sequences,
        )[0]
        local = engine.search_fragment(
            [tiny_db[1]], half_db, db_letters=db.total_letters,
            db_num_seqs=db.num_sequences,
            filter_db_letters=half_db.total_letters,
            filter_db_num_seqs=half_db.num_sequences,
        )[0]
        gk = {(a.subject_oid, a.qstart, a.send) for a in global_hits}
        lk = {(a.subject_oid, a.qstart, a.send) for a in local}
        assert gk <= lk

    def test_local_filter_evalues_stay_global(self, tiny_db):
        engine = BlastSearch()
        half_db = ListDatabase(tiny_db[:20], engine.alphabet)
        db = ListDatabase(tiny_db, engine.alphabet)
        local = engine.search_fragment(
            [tiny_db[1]], half_db, db_letters=db.total_letters,
            db_num_seqs=db.num_sequences,
            filter_db_letters=half_db.total_letters,
            filter_db_num_seqs=half_db.num_sequences,
        )[0]
        global_hits = engine.search_fragment(
            [tiny_db[1]], half_db, db_letters=db.total_letters,
            db_num_seqs=db.num_sequences,
        )[0]
        ge = {(a.subject_oid, a.qstart, a.send): a.evalue for a in global_hits}
        for a in local:
            key = (a.subject_oid, a.qstart, a.send)
            if key in ge:
                assert a.evalue == ge[key]

    def test_stats_counters_populate(self, tiny_db):
        engine = BlastSearch()
        db = ListDatabase(tiny_db, engine.alphabet)
        stats = SearchStats()
        engine.search_fragment(
            [tiny_db[0]], db, db_letters=db.total_letters,
            db_num_seqs=db.num_sequences, stats=stats,
        )
        assert stats.queries == 1
        assert stats.subjects == len(tiny_db)
        assert stats.letters_scanned > 0
        assert stats.word_hits > 0
        assert stats.ungapped_extensions > 0
        assert stats.gapped_extensions > 0

    def test_stats_merge(self):
        a = SearchStats(queries=1, word_hits=10, gapped_peak_cells=7)
        b = SearchStats(queries=2, word_hits=5, gapped_peak_cells=4)
        a.merge(b)
        assert a.queries == 3 and a.word_hits == 15
        assert a.gapped_peak_cells == 7  # a high-water mark, not a sum

    def test_cutoffs_are_computed_once_per_key(self, monkeypatch):
        """Cutoffs are memoised process-wide, keyed by the params too:
        an engine never reads another configuration's."""
        import repro.blast.engine as engine_mod

        args = (300, 10**6, 3000, 10**5, 300)
        engines = [
            BlastSearch(SearchParams()),
            BlastSearch(SearchParams(expect=1e-3)),
            BlastSearch(SearchParams(gapped=False)),
        ]
        fresh = []
        for eng in engines:
            BlastSearch._GLOBAL_INDEX_MEMO.clear()
            fresh.append(eng._cutoffs(*args))
        assert len(set(fresh)) == 3
        BlastSearch._GLOBAL_INDEX_MEMO.clear()
        calls = []
        real = engine_mod.effective_search_space

        def counting(*a):
            calls.append(a)
            return real(*a)

        monkeypatch.setattr(engine_mod, "effective_search_space", counting)
        for _ in range(2):
            assert [e._cutoffs(*args) for e in engines] == fresh
        assert len(calls) == 2 * len(engines)  # space and filter space


class TestBlastn:
    def test_self_hit(self):
        recs = [SeqRecord(f"n{i}", "ACGTTGCA" * 8) for i in range(3)]
        recs.append(SeqRecord("u", "ACGGTACGGCTAGCTAGGCTAAACGGTTTACG" * 2))
        res = blastn_search([recs[3]], recs)
        top = res[0].alignments[0]
        assert top.subject_oid == 3
        assert top.identities == top.align_length

    def test_wrong_program_rejected(self):
        with pytest.raises(ValueError):
            blastn_search([], [], SearchParams(program="blastp"))

    def test_unknown_program_rejected(self):
        with pytest.raises(ValueError):
            BlastSearch(SearchParams(program="tblastn"))


class TestFinalize:
    def test_cap_and_rank(self, tiny_db):
        engine = BlastSearch()
        db = ListDatabase(tiny_db, engine.alphabet)
        per_q = engine.search_fragment(
            [tiny_db[1]], db, db_letters=db.total_letters,
            db_num_seqs=db.num_sequences,
        )
        res = finalize_results([tiny_db[1]], per_q, max_alignments=1)
        assert len(res[0].alignments) == 1
        assert res[0].query_length == len(tiny_db[1].sequence)


class TestSearchParamsValidation:
    def test_defaults_valid(self):
        SearchParams()
        SearchParams(program="blastn")

    def test_bad_program(self):
        with pytest.raises(ValueError):
            SearchParams(program="psiblast")

    def test_bad_gaps(self):
        with pytest.raises(ValueError):
            SearchParams(gap_open=-1)
        with pytest.raises(ValueError):
            SearchParams(gap_extend=0)

    def test_bad_expect(self):
        with pytest.raises(ValueError):
            SearchParams(expect=0.0)

    def test_bad_caps(self):
        with pytest.raises(ValueError):
            SearchParams(max_alignments=0)

    def test_bad_xdrops(self):
        with pytest.raises(ValueError):
            SearchParams(x_drop_ungapped=0)
        with pytest.raises(ValueError):
            SearchParams(x_drop_gapped=0)

    def test_window_must_cover_word(self):
        with pytest.raises(ValueError):
            SearchParams(two_hit_window=2)  # word size 3
