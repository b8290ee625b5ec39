"""Bit-identity of the fast paths against their scalar references.

Two independent fast paths landed together and both promise *identical*
output, not just equivalent output:

* the wave search kernel (``BlastSearch.search_fragment``, the only
  production path) must produce the same alignments, the same
  statistics counters, and byte-identical rendered reports as the
  scalar per-subject oracle (``repro.blast.reference``);
* the simmpi scheduler (events drained inline by the parking rank) must
  replay whole simulated runs — makespans, per-rank phase times, output
  files — bit for bit against digests captured from the closure-per-wake
  scheduler it replaced.

These tests are the contract that lets every other test in the suite
run against the fast paths only.
"""

import dataclasses
import hashlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blast import reference
from repro.blast.engine import (
    BlastSearch,
    ListDatabase,
    SearchParams,
    SearchStats,
)
from repro.blast.extend import ungapped_extend, ungapped_extend_batch
from repro.blast.fasta import SeqRecord
from repro.blast.matrices import blosum62
from repro.blast.output import DbStats, HitSummary, ReportWriter
from repro.simmpi.engine import Engine, SimError
from repro.workloads import (
    SynthSpec,
    synthesize_dna_records,
    synthesize_protein_records,
)

# ----------------------------------------------------------------------
# batched search kernel vs scalar reference
# ----------------------------------------------------------------------


def run_search(params: SearchParams, records, queries, *, scalar=False):
    """One fragment search by the wave kernel (or the scalar oracle);
    returns (results, stats, report bytes)."""
    BlastSearch._GLOBAL_INDEX_MEMO.clear()
    eng = BlastSearch(params)
    db = ListDatabase(records, eng.alphabet)
    stats = SearchStats()
    search = (
        reference.search_fragment if scalar
        else BlastSearch.search_fragment
    )
    results = search(
        eng,
        queries,
        db,
        db_letters=db.total_letters,
        db_num_seqs=db.num_sequences,
        stats=stats,
    )
    sp = eng.stats_params
    writer = ReportWriter(
        params.program,
        DbStats("identity-db", db.num_sequences, db.total_letters),
        lam=sp.lam,
        k=sp.K,
        h=sp.H,
    )
    parts = [writer.preamble()]
    for query, alns in zip(queries, results):
        summaries = [
            HitSummary(a.subject_defline, a.bit_score, a.evalue)
            for a in alns
        ]
        parts.append(
            writer.query_header(query.defline, len(query.sequence),
                                summaries)
        )
        parts.extend(writer.alignment_block(a) for a in alns)
        parts.append(
            writer.query_footer(
                eng.effective_space(len(query.sequence), db.total_letters,
                                    db.num_sequences)
            )
        )
    return results, stats, b"".join(parts)


def assert_batch_identical(records, queries, **params):
    scalar = run_search(SearchParams(**params), records, queries, scalar=True)
    batched = run_search(SearchParams(**params), records, queries)
    assert scalar[1] == batched[1], "statistics counters diverged"
    assert scalar[0] == batched[0], "alignments diverged"
    assert scalar[2] == batched[2], "rendered report bytes diverged"


class TestBatchedKernelIdentity:
    def test_protein_families(self):
        recs = synthesize_protein_records(
            SynthSpec(num_sequences=120, mean_length=150,
                      family_fraction=0.6, family_size=5, seed=101)
        )
        assert_batch_identical(recs, [recs[0], recs[3], recs[50]],
                               program="blastp")

    def test_protein_low_threshold(self):
        # A lower neighbourhood threshold densifies word hits and
        # triggers, stressing the covered-diagonal replay rounds.
        recs = synthesize_protein_records(
            SynthSpec(num_sequences=60, mean_length=120, seed=8)
        )
        assert_batch_identical(recs, [recs[1]], program="blastp",
                               threshold=9)

    def test_protein_ungapped(self):
        recs = synthesize_protein_records(
            SynthSpec(num_sequences=60, mean_length=120, seed=9)
        )
        assert_batch_identical(recs, [recs[2], recs[30]], program="blastp",
                               gapped=False)

    def test_nucleotide(self):
        recs = synthesize_dna_records(
            SynthSpec(num_sequences=150, mean_length=250,
                      family_fraction=0.5, family_size=5, seed=11)
        )
        assert_batch_identical(recs, [recs[0], recs[70]], program="blastn")

    def test_nucleotide_ungapped(self):
        recs = synthesize_dna_records(
            SynthSpec(num_sequences=150, mean_length=250, seed=12)
        )
        assert_batch_identical(recs, [recs[5]], program="blastn",
                               gapped=False)

    def test_wildcard_subjects(self):
        recs = list(
            synthesize_protein_records(
                SynthSpec(num_sequences=40, mean_length=100, seed=13)
            )
        )
        # Splice wildcards into subjects: word scanning must skip the
        # X-containing words identically in both programs, and batched
        # extensions must not leak across them.
        for i in range(0, len(recs), 3):
            s = recs[i].sequence
            mid = len(s) // 2
            recs[i] = SeqRecord(recs[i].defline,
                                s[:mid] + "XXX" + s[mid:])
        assert_batch_identical(recs, [recs[0], recs[3]], program="blastp")

    def test_degenerate_subjects(self):
        recs = list(
            synthesize_protein_records(
                SynthSpec(num_sequences=30, mean_length=90, seed=14)
            )
        )
        # Empty, single-residue, and all-wildcard records exercise the
        # concatenation bookkeeping (zero-length segments, sentinel
        # adjacency) that the scalar path never sees.
        recs[3] = SeqRecord("empty subject", "")
        recs[7] = SeqRecord("single residue", "W")
        recs[11] = SeqRecord("all wildcards", "XXXXX")
        assert_batch_identical(recs, [recs[0], recs[7]], program="blastp")

    def test_duplicate_subjects(self):
        recs = list(
            synthesize_protein_records(
                SynthSpec(num_sequences=20, mean_length=110, seed=15)
            )
        )
        # Duplicates force exact tie-breaking (same score, same spans,
        # different oids) through cull/rank/render.
        recs = recs + recs[:6]
        assert_batch_identical(recs, [recs[0], recs[2]], program="blastp")

    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=8, deadline=None)
    def test_random_workloads(self, seed):
        recs = synthesize_protein_records(
            SynthSpec(num_sequences=25, mean_length=80,
                      family_fraction=0.4, family_size=3, seed=seed)
        )
        assert_batch_identical(recs, [recs[0]], program="blastp")

    def test_tiny_band_forces_widening(self, monkeypatch):
        # A half-band of 1 makes nearly every gapped DP clip its band
        # edge: the widen-and-retry (and, for long halves,
        # scalar-fallback) paths must still render byte-identical
        # reports and equal stats.
        recs = synthesize_protein_records(
            SynthSpec(num_sequences=80, mean_length=150,
                      family_fraction=0.6, family_size=5, seed=21)
        )
        monkeypatch.setattr(BlastSearch, "BAND", 1)
        assert_batch_identical(recs, [recs[0], recs[10]], program="blastp")

    def test_duplicate_subjects_dedup_gapped_work(self):
        # Word-identical subjects produce identical (subject, anchor) DP
        # problems; both kernels must answer repeats from the memo —
        # counted as gapped_dedup, which the stats equality check above
        # also forces to be path-independent.
        recs = list(
            synthesize_protein_records(
                SynthSpec(num_sequences=30, mean_length=120,
                          family_fraction=0.5, family_size=4, seed=23)
            )
        )
        recs = recs + recs[:10] + recs[:10]
        queries = [recs[0], recs[4]]
        scalar = run_search(
            SearchParams(program="blastp"), recs, queries, scalar=True
        )
        batched = run_search(SearchParams(program="blastp"), recs, queries)
        assert scalar[1] == batched[1]
        assert scalar[0] == batched[0]
        assert scalar[2] == batched[2]
        assert batched[1].gapped_dedup > 0, (
            "triplicated subjects produced no memoized gapped hits"
        )
        assert scalar[1].gapped_dedup == batched[1].gapped_dedup


class TestOneKernelPath:
    """``search_fragment`` has nothing to select: the scalar kernel is
    test support, reachable only by importing it."""

    def test_no_source_module_imports_the_oracle(self):
        import ast
        import pathlib

        import repro
        import repro.blast

        offenders = []
        for path in pathlib.Path(repro.__file__).parent.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    targets = [a.name for a in node.names]
                elif isinstance(node, ast.ImportFrom):
                    targets = [node.module or ""] + [
                        a.name for a in node.names
                    ]
                else:
                    continue
                # no other module of the package is called ``reference``
                if any(t.split(".")[-1] == "reference" for t in targets):
                    offenders.append(f"{path}:{node.lineno}")
        assert offenders == []
        assert "reference" not in repro.blast.__all__

    @pytest.mark.parametrize(
        "removed", [dict(batch=False), dict(gapped_batch=False),
                    dict(band=1)],
    )
    def test_removed_knobs_are_not_accepted(self, removed):
        with pytest.raises(TypeError):
            SearchParams(**removed)
        assert len(dataclasses.fields(SearchParams)) == 15


# ----------------------------------------------------------------------
# wave kernel: one pass per stage for all the call's queries
# ----------------------------------------------------------------------


def search_call(eng, queries, db, *, search=BlastSearch.search_fragment,
                **kwargs):
    """One ``search_fragment`` call; (per-query alignments, stats)."""
    stats = SearchStats()
    out = search(
        eng, queries, db, db_letters=db.total_letters,
        db_num_seqs=db.num_sequences, stats=stats, **kwargs,
    )
    return out, stats


def assert_wave_identical(program, records, queries, **params):
    """wave == concatenation of single-query calls == scalar path."""
    BlastSearch._GLOBAL_INDEX_MEMO.clear()
    eng = BlastSearch(SearchParams(program=program, **params))
    db = ListDatabase(records, eng.alphabet)
    # mpiBLAST workers filter against the fragment-local search space
    local = dict(filter_db_letters=db.total_letters // 3,
                 filter_db_num_seqs=max(1, db.num_sequences // 3))
    wave, wave_stats = search_call(eng, queries, db, **local)
    singles_stats = SearchStats()
    for qi, q in enumerate(queries):
        (single,), st1 = search_call(eng, [q], db, **local)
        singles_stats.merge(st1)
        assert wave[qi] == [replace(a, query_index=qi) for a in single], (
            f"query {qi} differs from its single-query call"
        )
    assert wave_stats == singles_stats
    scalar, scalar_stats = search_call(
        eng, queries, db, search=reference.search_fragment, **local
    )
    assert wave == scalar
    assert wave_stats == scalar_stats
    return wave, wave_stats


class TestWaveIdentity:
    @pytest.mark.parametrize("program, synth, mean_length, specials", [
        ("blastp", synthesize_protein_records, 70,
         [SeqRecord("shorter than a word", "MK"),
          SeqRecord("all wildcards", "X" * 12)]),
        ("blastn", synthesize_dna_records, 160,
         [SeqRecord("shorter than a word", "ACGTACG"),
          SeqRecord("all wildcards", "N" * 30)]),
    ])
    @given(seed=st.integers(0, 2**16), nq=st.integers(1, 16),
           data=st.data())
    @settings(max_examples=5, deadline=None)
    def test_random_waves(self, program, synth, mean_length, specials,
                          seed, nq, data):
        recs = synth(
            SynthSpec(num_sequences=24, mean_length=mean_length,
                      family_fraction=0.5, family_size=4, seed=seed)
        )
        picks = data.draw(st.lists(
            st.sampled_from(recs + specials), min_size=nq, max_size=nq,
        ))
        # the same query twice inside one wave
        picks.append(picks[0])
        assert_wave_identical(program, recs, picks)

    def test_many_blocks(self, monkeypatch):
        # A block budget of a few subjects: every query's state (gapped
        # memo, append order) has to survive across the call's blocks,
        # and across gapped cohorts of one, three (the last one short)
        # or all of the ~16 slabs.
        recs = list(synthesize_protein_records(
            SynthSpec(num_sequences=40, mean_length=90,
                      family_fraction=0.6, family_size=5, seed=31)
        ))
        recs = recs + recs[:8]
        queries = [recs[0], recs[5], recs[0], recs[17]]
        monkeypatch.setattr(BlastSearch, "BLOCK_CELLS", 4 * 90 * 300)
        for per_cohort in (1, 3, 64):
            monkeypatch.setattr(BlastSearch, "SLABS_PER_COHORT", per_cohort)
            _wave, stats = assert_wave_identical("blastp", recs, queries)
            assert stats.gapped_dedup > 0

    @pytest.mark.parametrize("wave", [True, False])
    def test_empty_wave(self, wave):
        # no queries: nothing returned, nothing counted — by the wave
        # kernel and by the oracle
        eng = BlastSearch(SearchParams())
        db = ListDatabase([SeqRecord("s", "MKVLAWYRND")], eng.alphabet)
        search = (
            BlastSearch.search_fragment if wave
            else reference.search_fragment
        )
        out, stats = search_call(eng, [], db, search=search)
        assert out == [] and stats == SearchStats()

    def test_two_hit_pair_never_spans_two_queries(self):
        # In the joined query array [#]A[#]B[#], A's last word (local
        # 6, joined 7) against subject position 6 and B's first word
        # (local 0, joined 11) against subject position 10 share joined
        # diagonal 1 at subject distance 4 — inside the two-hit window.
        # Neither query has a non-overlapping pair of its own.
        a = SeqRecord("A", "AAAAAAWWW")
        b = SeqRecord("B", "CCCAAAAAA")
        subject = SeqRecord("S", "PPPPPPWWWPCCCPPPPPP")
        wave, stats = assert_wave_identical("blastp", [subject], [a, b])
        assert stats.word_hits > 0
        assert stats.triggers == 0
        assert wave == [[], []]

    def test_extension_stops_at_the_query_sentinel(self):
        # The subject is A, one letter, then B: in the joined array A
        # and B sit on ONE diagonal against it, so an extension that
        # ignored the sentinel would run from A straight into B.
        recs = synthesize_protein_records(
            SynthSpec(num_sequences=2, mean_length=60, seed=77)
        )
        a, b = recs[0], recs[1]
        subject = SeqRecord("A-B", a.sequence + "G" + b.sequence)
        wave, _stats = assert_wave_identical("blastp", [subject], [a, b])
        (top_a,), (top_b,) = wave
        assert (top_a.qstart, top_a.qend) == (0, len(a.sequence))
        assert (top_b.qstart, top_b.qend) == (0, len(b.sequence))
        assert top_a.send == len(a.sequence)
        assert top_b.sstart == len(a.sequence) + 1


class TestWaveBatching:
    """The property itself: stages run per wave, not per query."""

    @staticmethod
    def _fixture():
        recs = synthesize_protein_records(
            SynthSpec(num_sequences=60, mean_length=120,
                      family_fraction=0.6, family_size=5, seed=5)
        )
        eng = BlastSearch(SearchParams())
        return eng, recs[:15], ListDatabase(recs[:20], eng.alphabet)

    def test_rounds_take_the_max_over_queries_not_the_sum(self, monkeypatch):
        import repro.blast.engine as engine_mod
        import repro.blast.extend as extend_mod

        calls = {"ungapped": 0, "cohort": 0}

        def counting(mod, name, key):
            fn = getattr(mod, name)

            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(mod, name, wrapper)

        counting(engine_mod, "ungapped_extend_batch", "ungapped")
        counting(extend_mod, "_run_band_cohort", "cohort")
        eng, queries, db = self._fixture()

        def count(qs):
            calls.update(ungapped=0, cohort=0)
            search_call(eng, qs, db)
            return calls["ungapped"], calls["cohort"]

        singles = [count([q]) for q in queries]
        ungapped, cohort = count(queries)
        assert max(c for _u, c in singles) > 0, "fixture ran no gapped DP"
        assert sum(u for u, _c in singles) > 3 * ungapped
        assert ungapped <= max(u for u, _c in singles)
        assert cohort <= max(c for _u, c in singles)

    def test_block_budget_bounds_transient_memory(self, monkeypatch):
        import tracemalloc

        rng = np.random.default_rng(9)
        letters = "ARNDCQEGHILKMFPSTWYV"

        def random_record(name, n):
            return SeqRecord(
                name, "".join(letters[i] for i in rng.integers(0, 20, n))
            )

        subjects = [random_record(f"s{i}", 40) for i in range(2000)]
        queries = [random_record(f"q{i}", 80) for i in range(64)]
        # Nothing random is this significant: the reported alignments,
        # which rightly grow with the wave, stay out of the measurement.
        eng = BlastSearch(SearchParams(expect=1e-6))
        db = ListDatabase(subjects, eng.alphabet)
        # One 80-letter query x this fragment is exactly one block.
        monkeypatch.setattr(
            BlastSearch, "BLOCK_CELLS", 80 * db.total_letters
        )

        def peak(qs):
            search_call(eng, qs, db)  # wave and indexes memoised
            tracemalloc.start()
            try:
                base, _ = tracemalloc.get_traced_memory()
                search_call(eng, qs, db)
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        one = peak(queries[:1])
        wave = peak(queries)
        assert wave <= 1.5 * one, (one, wave)


    def test_default_block_bounds_a_multi_slab_peak(self):
        """``BLOCK_CELLS`` is sized by the scan's transients: a call
        over four slabs peaks (traced: numpy's buffers included) at
        17.6 MiB above its set-up at ``300 << 19``, 25.6 MiB at twice
        that block and 47.9 MiB at ``300 << 21``, the size before.  A
        larger block must come with a reason to raise this bound."""
        import tracemalloc

        recs = synthesize_protein_records(
            SynthSpec(num_sequences=800, mean_length=300, seed=5)
        )
        queries = [r for r in recs if r.defline.endswith("founder")][:8]
        eng = BlastSearch(SearchParams())
        db = ListDatabase(recs, eng.alphabet)
        wave_letters = sum(len(q.sequence) for q in queries)
        slab = BlastSearch.BLOCK_CELLS // wave_letters
        assert db.total_letters > 3 * slab, "fixture is not multi-slab"
        search_call(eng, queries, db)  # wave and indexes memoised
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            search_call(eng, queries, db)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * 17.6 * 2**20, peak / 2**20

    def test_scan_transients_per_word_hit(self, monkeypatch):
        """The scan keeps one sorted key per word hit and decodes
        coordinates only for triggers: no hit-length (spos, qpos),
        subject, query, pair or diagonal arrays.  Pinned as peak traced
        bytes per word hit of one 8-query x 2 000-subject block, scan
        only (the call is cut short where the ungapped stage starts).
        """
        import tracemalloc

        import repro.blast.engine as engine_mod

        rng = np.random.default_rng(17)
        letters = "ARNDCQEGHILKMFPSTWYV"

        def random_record(name, n):
            return SeqRecord(
                name, "".join(letters[i] for i in rng.integers(0, 20, n))
            )

        subjects = [random_record(f"s{i}", 120) for i in range(2000)]
        queries = [random_record(f"q{i}", 150) for i in range(8)]
        eng = BlastSearch(SearchParams())
        db = ListDatabase(subjects, eng.alphabet)
        _out, stats = search_call(eng, queries, db)  # memoises the wave
        assert stats.word_hits > 1_000_000

        class ScanDone(Exception):
            pass

        def stop(*_args, **_kwargs):
            raise ScanDone

        monkeypatch.setattr(engine_mod, "ungapped_extend_batch", stop)
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            with pytest.raises(ScanDone):
                search_call(eng, queries, db)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # 57.1 bytes per hit at the parent of the change that removed
        # the hit-length arrays (34.3 after it), with 1.25x slack.
        assert peak / stats.word_hits <= 57.1 * 1.25, peak / stats.word_hits


class TestUngappedBatchProperty:
    @given(
        seed=st.integers(0, 2**16),
        qlen=st.integers(10, 60),
        slen=st.integers(10, 60),
    )
    @settings(max_examples=40, deadline=None)
    def test_elementwise_equals_scalar(self, seed, qlen, slen):
        rng = np.random.default_rng(seed)
        q = rng.integers(0, 20, qlen).astype(np.int8)
        s = rng.integers(0, 20, slen).astype(np.int8)
        m = blosum62()
        w = 3
        qpos = np.arange(0, qlen - w + 1, dtype=np.int64)
        spos = rng.integers(0, slen - w + 1, len(qpos)).astype(np.int64)
        qs, qe, ss, se, sc = ungapped_extend_batch(q, s, qpos, spos, w, m, 16)
        for i in range(len(qpos)):
            hit = ungapped_extend(q, s, int(qpos[i]), int(spos[i]), w, m, 16)
            assert (qs[i], qe[i], ss[i], se[i], sc[i]) == (
                hit.qstart, hit.qend, hit.sstart, hit.send, hit.score,
            )


# ----------------------------------------------------------------------
# simmpi scheduler: replay against digests captured on the last commit
# that still had the closure-per-wake reference scheduler
# ----------------------------------------------------------------------


def _replay_workload():
    from repro.experiments.common import ExperimentWorkload

    return ExperimentWorkload(
        db_spec=SynthSpec(num_sequences=90, mean_length=130,
                          family_fraction=0.6, family_size=4,
                          seed=2025),
        query_bytes=2_500,
    )


def _dense(result, store):
    files = {p: store.read_all(p) for p in store.listdir()}
    return {
        "makespan": result.makespan,
        "phase_times": result.phase_times,
        "messages_sent": result.messages_sent,
        "bytes_sent": result.bytes_sent,
        "fs_ops": (result.fs_read_ops, result.fs_write_ops),
        "dead_ranks": result.dead_ranks,
        "promotions": result.promotions,
        "files": files,
    }


def run_fingerprint(program, nprocs, *, faults=None):
    """Full-driver run; dense fingerprint."""
    from repro.experiments.common import run_program_raw

    _b, result, store, _cfg = run_program_raw(
        program, nprocs, _replay_workload(), faults=faults
    )
    return _dense(result, store)


def run_hier_fingerprint(faults, *, service=False):
    """Hierarchical run (np=13, or the np=17 elastic service) in three
    groups under a role-targeted fault plan; the dense fingerprint
    plus the exact ``FaultReport`` event list."""
    from repro.experiments.common import run_hier_raw, run_hier_service_raw
    from repro.simmpi.faults import FaultPlan

    plan = FaultPlan.parse(faults)
    if service:
        hres, store, _cfg = run_hier_service_raw(
            17, _replay_workload(), ngroups=3, faults=plan
        )
    else:
        hres, store, _cfg = run_hier_raw(
            13, _replay_workload(), ngroups=3, faults=plan
        )
    fp = _dense(hres.result, store)
    fp["events"] = [
        (e.time, e.kind, e.detail)
        for e in hres.result.fault_report.events
    ]
    return fp


def _canon(x) -> str:
    """Canonical text of a fingerprint: floats exact, files by digest."""
    if isinstance(x, dict):
        return "{" + ",".join(
            f"{_canon(k)}:{_canon(v)}"
            for k, v in sorted(x.items(), key=lambda kv: repr(kv[0]))
        ) + "}"
    if isinstance(x, (list, tuple)):
        return "[" + ",".join(_canon(v) for v in x) + "]"
    if isinstance(x, (bytes, bytearray)):
        return "b:" + hashlib.sha256(bytes(x)).hexdigest()
    if isinstance(x, float):
        return x.hex()
    return repr(x)


def fingerprint_digest(fp) -> str:
    return hashlib.sha256(_canon(fp).encode()).hexdigest()


#: sha256 of ``run_fingerprint`` taken at commit 421f6c1, where the
#: drain scheduler and the legacy one (``fast_wakes=False``, since
#: deleted) both produced exactly these.  The FT chaos run re-captured
#: with ``GOLDEN_HIER_REPLAY``: its master heartbeats once per
#: ``failover_silence / 4`` now.
GOLDEN_REPLAY = {
    "mpiblast-np6":
        "a0005422b5e3c1bdf8030ae06e61ee161443eb163da4c4a16ae8b9819f5af8a7",
    "pioblast-np6":
        "4436377e5196dfbf676737d4ce919ea0231436ae98c6bd279647cc577a1ca19c",
    "pioblast-np8-chaos":
        "347b21b5f0ce70221e3288a3a0b67fc2c690f47287944ee69e32097b1b45757d",
}


#: The same, for the roles ``GOLDEN_REPLAY`` misses — sub-master,
#: coordinator, elastic coordinator — each through a failover, as
#: ``faults -> (the FaultReport kinds it exists to record, sha256)``.
#: Re-captured (twice, equal) by the change whose parent is e2d8bad,
#: which paced heartbeats by ``failover_silence / 4``, made the batch
#: coordinator hold idle polls and made a guessed candidate's first
#: announcement trigger a resend.  The group kill lands at 28 s, while
#: g1 serves wave 3 (23.5 - 33.1 s fault-free): at 40 s it holds none.
GOLDEN_HIER_REPLAY = {
    "crash=submaster:g1@20": (
        ("detect:master-dead", "recover:promote-submaster"),
        "62f07e32d653f0b18f6a95285f42f38c57d69ab540b662241dd7281cae37a765",
    ),
    "crash=coordinator@20": (
        (
            "detect:master-dead",
            "recover:promote-coordinator",
            "recover:promote-submaster",
        ),
        "da6123b6fe0f77006f8ec6f70d63c26ea8b079a64ad1dd8a70fe540bad071c0b",
    ),
    "crash=group:g1@28": (
        ("detect:group-dead",),
        "db7ea5dac72f24d84e6f070f789f3253a33fa884626633ac360c93cefc11f960",
    ),
}


#: The fault-scenario corpus (ROADMAP item 1): every FT driver — flat
#: pio / mpi, hier replicate / shard, the elastic service — under crash,
#: drop, ``ioerr`` and slow-disk plans, ``name -> (driver, nprocs,
#: faults, options, kinds, sha256)``.  ``kinds`` are the FaultReport
#: kinds the entry exists to record; a re-timed protocol that stops
#: reaching them fails ``test_fault_corpus_records_its_kinds``.  The
#: ``ioerr`` plans are timed so that ``recover:io-retry`` is recorded
#: through every ``reliable_read`` / ``reliable_write`` /
#: ``write_output`` call site of the protocol modules.  ``lab=True``
#: runs under the laboratory cost model, whose FT timeouts are seconds
#: rather than thousands of seconds, so a crash costs a fraction of a
#: host second to sit out; other options are ``ParallelConfig`` fields.
#: Kill instants are read off the fault-free trace, at a moment the
#: target holds an obligation: member 6 searches its first fragment
#: from 0.001 to 0.012 s, g2's sub-master writes batch 1 from 0.700 to
#: 0.708 s, and pio's promoted master writes its own blocks from about
#: 2.092 to 2.098 s.  Digests re-captured with ``GOLDEN_HIER_REPLAY``.
#: ``pio/kill-writer`` (any instant from 0.058 to 0.072 s) and
#: ``mpi/kill-owner-revive`` were captured on the two drivers' separate
#: FT masters, before they became one scheduler, and pin it unchanged.
#: In the latter the dead owner's poll, sent before the crash, is
#: consumed after the fetch timeout and revives it (FAULTS.md §8).
#: ``mpi/kill-owner-mid-output`` never terminated there: the output
#: pass declared rank 2 dead, then its pre-crash poll was handed the
#: fragment to re-search.
FAULT_CORPUS = {
    "pio/ioerr-queries": (
        "pioblast", 6,
        "ioerr=queries@0n2",
        dict(),
        ("recover:io-retry",),
        "0f49356c6b2f9eb5661008dbeb57ee80c3fc056a2afc593eee189fc00f9cea58",
    ),
    "pio/ioerr-index": (
        "pioblast", 6,
        "ioerr=nr.xin@0n2",
        dict(),
        ("recover:io-retry",),
        "f7d8c9a2b55f166eff7903e54e4191832b9192e8bbe3494b69715b39af80b0cf",
    ),
    "pio/ioerr-output": (
        "pioblast", 6,
        "ioerr=results@0n3",
        dict(),
        ("recover:io-retry",),
        "38e6928d749e6f26e41f410b6c8b50fee78c83f6fe10fa5f37805cb56c9a0580",
    ),
    "pio/slowdisk": (
        "pioblast", 6,
        "slowdisk=4x20@0",
        dict(),
        ("inject:slowdisk-begin", "inject:slowdisk-end"),
        "e4de89f32cd3cad067ea79dc7438118158c87a9721c3603ea11cf42c1c79aeac",
    ),
    "pio/drop-request": (
        "pioblast", 6,
        "drop=*>0:40n3",
        dict(),
        ("inject:drop",),
        "5a990b11fcae55aba70c9064ca01199dbf6e191494a6633601287226bac78707",
    ),
    "pio/kill-worker": (
        "pioblast", 6,
        "kill=2@0.02",
        dict(lab=True),
        ("detect:worker-dead", "recover:requeue"),
        "a4390c00a55e2ecfcaba24c72302c4cffa19566006a1406d6c899e72157809a1",
    ),
    "pio/kill-master-ioerr-output": (
        "pioblast", 6,
        "kill=0@0.03,ioerr=results@0n3,ioerr=results@2.095n2",
        dict(lab=True, checkpoint_interval=0.01),
        (
            "detect:master-dead",
            "recover:promote-master",
            "recover:master-held-write",
            "recover:io-retry",
        ),
        "b603121f56f66be9de5b167f75e3b17d1ae3e350743ab445dafab29797b7fc52",
    ),
    "pio/kill-writer": (
        "pioblast", 6,
        "kill=2@0.065",
        dict(lab=True),
        ("recover:rehome-write", "recover:research", "recover:dup-result"),
        "d83db2edeb6625b2ef404a9a7bb1f0f215d1bd176027adc30ea9828584c712e4",
    ),
    "pio/mixed": (
        "pioblast", 8,
        "seed=3,kill=3@0.02,drop=0>*:41n2,ioerr=@0.01n2",
        dict(lab=True),
        (
            "detect:worker-dead",
            "recover:requeue",
            "inject:drop",
            "recover:io-retry",
        ),
        "e0e2e3ab4ae9ab21007305a83697058f8e040fc8a67cb317ca7eb326933322cb",
    ),
    "mpi/drop-request": (
        "mpiblast", 6,
        "drop=*>0:16n3",
        dict(),
        ("inject:drop",),
        "73c0f22f595626256bc84bc96a3391f741e80860e516d8f95ea14b8a163e195e",
    ),
    "mpi/ioerr-setup": (
        "mpiblast", 6,
        "ioerr=queries@0n2,ioerr=nr.xin@0n1",
        dict(),
        ("recover:io-retry",),
        "4f25a039de6704315afee2bcbdea286a9fb92e7e490ea34698be1af73fc33d05",
    ),
    "mpi/ioerr-copy-read": (
        "mpiblast", 6,
        "ioerr=nr.frag@0n4",
        dict(),
        ("recover:io-retry",),
        "8882e5a3da7301c11562abe7d395b1e5e9b590106952b7caf98fc52d88c1f82e",
    ),
    "mpi/ioerr-scratch": (
        "mpiblast", 6,
        "ioerr=scratch/@0n3,ioerr=scratch/@9.7n4",
        dict(),
        ("recover:io-retry",),
        "41aeeb32c9158eada9dc277e044d0d8b408234a7239718f17861839095fda3ed",
    ),
    "mpi/ioerr-output": (
        "mpiblast", 6,
        "ioerr=results@0n3",
        dict(),
        ("recover:io-retry",),
        "927378bbc1865748bb6f4f4e3716406cf7e03f2802e922b1c81a0ff7fa66be50",
    ),
    "mpi/slowdisk": (
        "mpiblast", 6,
        "slowdisk=4x30@0",
        dict(),
        ("inject:slowdisk-begin", "inject:slowdisk-end"),
        "0a18282361274ac9c6d2fdd04e611f87e5ecbaa1f2708f5f08ad846d5486388a",
    ),
    "mpi/kill-worker": (
        "mpiblast", 6,
        "kill=2@0.02",
        dict(lab=True),
        ("detect:worker-dead", "recover:requeue"),
        "5812841edd7a1a0a96c63782a9c6303de56930f28da57ac994d9de093a2b6694",
    ),
    "mpi/kill-master": (
        "mpiblast", 6,
        "kill=0@0.06",
        dict(lab=True, checkpoint_interval=0.01),
        (
            "detect:master-dead",
            "recover:promote-master",
            "recover:restore-checkpoint",
        ),
        "d92dab61392e5cfedcf7e320432023cfcb1eedc459c1142685e871268138e1c7",
    ),
    "mpi/kill-owner-revive": (
        "mpiblast", 6,
        "kill=3@0.15",
        dict(lab=True),
        ("recover:restart-output", "recover:revive"),
        "71cc3f18de6b1451f561ddbaf0f854cdc94dc06e29155a73efb3b654df9830cb",
    ),
    "mpi/kill-owner-mid-output": (
        "mpiblast", 6,
        "kill=2@0.1",
        dict(lab=True),
        ("detect:worker-dead", "recover:research", "recover:restart-output"),
        "aa6b661af56b557810375b3a08e23c8b07a327b4b34b95782241a923a74ac1d9",
    ),
    "hier-replicate/drop-request": (
        "hier-replicate", 13,
        "drop=*>0:80n3",
        dict(),
        ("inject:drop",),
        "70284e4cdf8f883cb27982f5d4c07fc086e2627fe2580a8699f3bd45cf9fb977",
    ),
    "hier-replicate/ioerr-queries": (
        "hier-replicate", 13,
        "ioerr=queries@0n2",
        dict(),
        ("recover:io-retry",),
        "484ab6522c6bd5578427c0d8807e2c27c8110e75dacee451df286b3f03ca1b92",
    ),
    "hier-replicate/ioerr-index": (
        "hier-replicate", 13,
        "ioerr=nr.xin@0n2",
        dict(),
        ("recover:io-retry",),
        "38211f088dfc759c59786caa9c4d27d6e2ac0173cf16cfd0b77927c18a3687a0",
    ),
    "hier-replicate/ioerr-output": (
        "hier-replicate", 13,
        "ioerr=results@0n4,ioerr=results@61.2n3",
        dict(),
        ("recover:io-retry",),
        "122262fbcb6c9ab38789c2be167057fae90972133cc3bcb524c04875ae00cd02",
    ),
    "hier-replicate/ioerr-marker": (
        "hier-replicate", 13,
        "ioerr=_ckpt/hier.done@0n2",
        dict(),
        ("recover:io-retry",),
        "374f76349d23c59f5387b24760babb015946efd0bbdbd3040c824ee618f2ad99",
    ),
    "hier-replicate/crash-submaster": (
        "hier-replicate", 13,
        "crash=submaster:g1@0.3",
        dict(lab=True),
        ("detect:master-dead", "recover:promote-submaster"),
        "8dfb504821bfda82814d4640ad4ae3d5e36ab5c4daf88ea9b0fa121026a820ab",
    ),
    "hier-replicate/kill-member": (
        "hier-replicate", 13,
        "kill=6@0.005",
        dict(lab=True),
        ("detect:worker-dead", "recover:adopt-fragment"),
        "3255aad4181df8bc2a766e5a2078895c7fa2c6bda4f96d6e9e2e2e1659803f42",
    ),
    "hier-shard/ioerr-output": (
        "hier-shard", 13,
        "ioerr=results@0n5",
        dict(),
        ("recover:io-retry",),
        "bbc02aafd84997ebb1764a79c83118aabd20e4279029e36c2f419a72431cbceb",
    ),
    "hier-shard/slowdisk": (
        "hier-shard", 13,
        "slowdisk=3x40@10",
        dict(),
        ("inject:slowdisk-begin", "inject:slowdisk-end"),
        "3e2a2ad126f7011e1908362781ef679203b4b909b6b1490a537f1023e7f4fa54",
    ),
    "hier-shard/drop-group-request": (
        "hier-shard", 13,
        "drop=*>*:90n4",
        dict(),
        ("inject:drop",),
        "4c0522bd0776b53d0653dff7b8e99a57cb9d6e3a326644e3723464f9edbcf8bb",
    ),
    "hier-shard/crash-coordinator": (
        "hier-shard", 13,
        "crash=coordinator@1.0",
        dict(lab=True),
        (
            "detect:master-dead",
            "recover:promote-coordinator",
            "recover:promote-submaster",
        ),
        "404c0fb73f12243bba17e6709a9373e7f47bc0d40879b89ad11919b97e9dd7ca",
    ),
    "hier-shard/crash-submaster-ioerr-output": (
        "hier-shard", 13,
        "crash=submaster:g2@0.705,ioerr=results@0n3",
        dict(lab=True),
        (
            "detect:master-dead",
            "recover:promote-submaster",
            "recover:io-retry",
        ),
        "7904387aaa914fbaad559a92605eaef7f09ce660538b1e41f4b6d2da9ef6a346",
    ),
    "elastic-replicate/group-kill-ioerr-output": (
        "elastic-replicate", 17,
        "crash=group:g1@3,ioerr=results@0n2",
        dict(lab=True),
        ("inject:crash", "recover:io-retry"),
        "09d00aec46b844a68c69a4bd0ebbc5ad4c12cf7539195e32cb7cc1b0964be064",
    ),
    "elastic-replicate/crash-coordinator": (
        "elastic-replicate", 17,
        "crash=coordinator@3",
        dict(lab=True),
        (
            "detect:master-dead",
            "recover:promote-coordinator",
            "recover:promote-submaster",
        ),
        "038a96c12b4129eba4e853f1934ccd212efc8d60cdc9068d27f92760f87f5c31",
    ),
    "elastic-replicate/ioerr-marker": (
        "elastic-replicate", 17,
        "ioerr=_ckpt/hier.done@0n2",
        dict(lab=True),
        ("recover:io-retry",),
        "0d86d1df1190a69c158d4cae3dbbc477c477272c88aa95afc152dca972487165",
    ),
    "elastic-replicate/drop-request": (
        "elastic-replicate", 17,
        "drop=*>0:80n3",
        dict(lab=True),
        ("inject:drop",),
        "9640ebd38479d85c52485bc03d6370d0eec7ea64df80699a0546a2a0ab575ef8",
    ),
    "elastic-shard/group-kill-ioerr-probe": (
        "elastic-shard", 17,
        "crash=group:g1@3,ioerr=nr.x@3.5n2",
        dict(lab=True),
        (
            "detect:group-dead",
            "recover:rereplicate-start",
            "recover:load-fragments",
            "recover:rereplicate",
            "recover:io-retry",
        ),
        "9b4b72e8f2550e0118a23867778e554292a280d9dba2c42adcbf99a4afb42386",
    ),
    "elastic-shard/kill-submaster-slowdisk": (
        "elastic-shard", 17,
        "kill=7@2,slowdisk=2x5@1",
        dict(lab=True),
        (
            "detect:master-dead",
            "recover:promote-submaster",
            "inject:slowdisk-begin",
        ),
        "961f327998200fd785eadc81fdd203e24b789e91c6eb0f3610d1c2b30b1b848c",
    ),
}


def run_corpus_fingerprint(driver, nprocs, faults, *, lab=False, **overrides):
    """One corpus scenario: the dense fingerprint (makespan, per-rank
    phase seconds, every file's bytes) plus ``FaultReport.as_tuple()``."""
    from repro.costmodel import CostModel
    from repro.experiments.common import (
        run_hier_raw,
        run_hier_service_raw,
        run_program_raw,
    )
    from repro.simmpi.faults import FaultPlan

    wl = _replay_workload()
    if lab:
        wl = replace(wl, cost=CostModel())
    common = dict(faults=FaultPlan.parse(faults),
                  config_overrides=overrides or None)
    kind, _, mode = driver.partition("-")
    if kind == "hier":
        hres, store, _cfg = run_hier_raw(
            nprocs, wl, ngroups=3, mode=mode, **common
        )
        result = hres.result
    elif kind == "elastic":
        hres, store, _cfg = run_hier_service_raw(
            nprocs, wl, ngroups=3, mode=mode, rate=2.0, **common
        )
        result = hres.result
    else:
        _b, result, store, _cfg = run_program_raw(
            driver, nprocs, wl, **common
        )
    fp = _dense(result, store)
    fp["fault_report"] = result.fault_report.as_tuple()
    return fp


_FINGERPRINTS: dict[str, dict] = {}


def replay_fingerprint(faults: str) -> dict:
    """``run_hier_fingerprint`` of a ``GOLDEN_HIER_REPLAY`` key, run
    once per test run (its digest and its kinds are two tests)."""
    if faults not in _FINGERPRINTS:
        _FINGERPRINTS[faults] = run_hier_fingerprint(
            faults, service=faults.startswith("crash=group:")
        )
    return _FINGERPRINTS[faults]


def corpus_fingerprint(name: str) -> dict:
    """``run_corpus_fingerprint`` of a ``FAULT_CORPUS`` entry, run once
    per test run."""
    if name not in _FINGERPRINTS:
        driver, nprocs, faults, options, _kinds, _sha = FAULT_CORPUS[name]
        _FINGERPRINTS[name] = run_corpus_fingerprint(
            driver, nprocs, faults, **options
        )
    return _FINGERPRINTS[name]


class TestSchedulerReplayIdentity:
    @pytest.mark.parametrize("program", ["mpiblast", "pioblast"])
    def test_driver_replays_bit_for_bit(self, program):
        fp = run_fingerprint(program, 6)
        assert fingerprint_digest(fp) == GOLDEN_REPLAY[f"{program}-np6"]

    @pytest.mark.parametrize(
        "faults", ["crash=submaster:g1@20", "crash=coordinator@20"]
    )
    def test_hier_failover_replays_bit_for_bit(self, faults):
        fp = replay_fingerprint(faults)
        assert fingerprint_digest(fp) == GOLDEN_HIER_REPLAY[faults][1]

    def test_hier_service_group_kill_replays_bit_for_bit(self):
        fp = replay_fingerprint("crash=group:g1@28")
        assert fingerprint_digest(fp) == GOLDEN_HIER_REPLAY[
            "crash=group:g1@28"][1]

    @pytest.mark.parametrize("faults", sorted(GOLDEN_HIER_REPLAY))
    def test_hier_replay_records_its_kinds(self, faults):
        kinds = {kind for _t, kind, _d in replay_fingerprint(faults)["events"]}
        declared = GOLDEN_HIER_REPLAY[faults][0]
        assert [k for k in declared if k not in kinds] == []

    def test_chaos_replay(self):
        from repro.simmpi.faults import CrashFault, FaultPlan, StragglerFault

        plan = FaultPlan(
            seed=11,
            events=(CrashFault(rank=2, time=0.05),
                    StragglerFault(rank=3, factor=2.5)),
        )
        fp = run_fingerprint("pioblast", 8, faults=plan)
        assert fingerprint_digest(fp) == GOLDEN_REPLAY["pioblast-np8-chaos"]

    @pytest.mark.parametrize("name", sorted(FAULT_CORPUS))
    def test_fault_corpus_replays_bit_for_bit(self, name):
        fp = corpus_fingerprint(name)
        assert fp["fault_report"][0], "the plan injected nothing"
        assert fingerprint_digest(fp) == FAULT_CORPUS[name][-1]

    def test_owner_lost_mid_output_recovers_the_serial_report(self):
        """A poll from a rank declared dead gets no fragment, so the
        re-search reaches a live worker and the run ends."""
        from repro.experiments.common import make_store
        from repro.parallel.serial import run_serial_reference

        fp = corpus_fingerprint("mpi/kill-owner-mid-output")
        store, cfg = make_store(_replay_workload())
        assert fp["files"][cfg.output_path] == run_serial_reference(
            store, cfg
        )

    @pytest.mark.parametrize("name", sorted(FAULT_CORPUS))
    def test_fault_corpus_records_its_kinds(self, name):
        events = corpus_fingerprint(name)["fault_report"][0]
        kinds = {kind for _t, kind, _d in events}
        declared = FAULT_CORPUS[name][-2]
        assert declared, "every entry names what it exists for"
        assert [k for k in declared if k not in kinds] == []


class TestSchedulerDrainUnits:
    def test_park_steal_consumes_own_sleep(self):
        eng = Engine()
        seen = []

        def prog():
            for i in range(5):
                eng.sleep(1.0)
                seen.append(eng.now)

        eng.spawn(prog, 0)
        assert eng.run() == 5.0
        assert seen == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_preposted_value_delivered(self):
        eng = Engine()
        got = []

        def prog():
            p = eng.make_parker("pre-posted")
            eng.unpark_at(p, eng.now, value="hello")
            eng.sleep(0.5)  # wake fires while we are busy elsewhere
            got.append(eng.park(p))

        eng.spawn(prog, 0)
        eng.run()
        assert got == ["hello"]

    def test_double_unpark_is_error(self):
        eng = Engine()

        def prog():
            p = eng.make_parker("dup")
            eng.unpark_at(p, eng.now + 1.0, value=1)
            eng.unpark_at(p, eng.now + 2.0, value=2)
            eng.park(p)
            eng.sleep(5.0)

        eng.spawn(prog, 0)
        with pytest.raises(SimError, match="woken twice"):
            eng.run()

    def test_relay_hands_off_between_ranks(self):
        # Three ranks alternating sleeps: the baton goes rank to rank;
        # order and final clock are what the legacy scheduler produced.
        eng = Engine()
        order = []

        def mk(rank):
            def prog():
                for _ in range(20):
                    eng.sleep(1.0 + rank * 0.001)
                    order.append((rank, round(eng.now, 6)))
            return prog

        for r in range(3):
            eng.spawn(mk(r), r)
        assert round(eng.run(), 6) == 20.04
        assert order == [
            (r, round((i + 1) * (1.0 + r * 0.001), 6))
            for i in range(20) for r in range(3)
        ]


class TestCancelCompaction:
    def test_cancelled_timeouts_do_not_accumulate(self):
        # The FT drivers' heartbeat pattern: schedule a timeout, cancel
        # it, repeat.  Without compaction the heap grows linearly with
        # the number of cancels; with it the pending queue stays small.
        eng = Engine()
        n = 5000

        def prog():
            for i in range(n):
                ev = eng.schedule(eng.now + 1000.0 + i, lambda: None)
                eng.cancel(ev)
                if i % 100 == 0:
                    eng.sleep(0.001)
            # All cancels are pending by now; the queue must be bounded
            # by the live events, not the cancel count.
            assert len(eng._queue) + len(eng._ready) < n // 10

        eng.spawn(prog, 0)
        eng.run()

    def test_cancel_then_fire_is_noop(self):
        eng = Engine()
        fired = []

        def prog():
            ev = eng.schedule(eng.now + 1.0, lambda: fired.append(1))
            keep = eng.schedule(eng.now + 1.0, lambda: fired.append("keep"))
            eng.cancel(ev)
            eng.cancel(ev)  # double-cancel must not corrupt the counter
            assert eng._cancelled_pending == 1
            del keep
            eng.sleep(2.0)

        eng.spawn(prog, 0)
        eng.run()
        assert fired == ["keep"]
