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
        # memo, append order) has to survive across the call's blocks.
        recs = list(synthesize_protein_records(
            SynthSpec(num_sequences=40, mean_length=90,
                      family_fraction=0.6, family_size=5, seed=31)
        ))
        recs = recs + recs[:8]
        queries = [recs[0], recs[5], recs[0], recs[17]]
        monkeypatch.setattr(BlastSearch, "BLOCK_CELLS", 4 * 90 * 300)
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
#: deleted) both produced exactly these.
GOLDEN_REPLAY = {
    "mpiblast-np6":
        "a0005422b5e3c1bdf8030ae06e61ee161443eb163da4c4a16ae8b9819f5af8a7",
    "pioblast-np6":
        "4436377e5196dfbf676737d4ce919ea0231436ae98c6bd279647cc577a1ca19c",
    "pioblast-np8-chaos":
        "069d669a151bfe9ab6c9723695e9bd6e53478bdc89e190e16861bc5ac09a42bb",
}


#: The same, for the roles ``GOLDEN_REPLAY`` misses — sub-master,
#: coordinator, elastic coordinator — each through a failover.
#: Re-captured (twice, equal) by the change whose parent is 3a6d929,
#: which made group sub-masters hold idle member polls instead of
#: answering ``wait``: the hier timeline moved, the flat goldens above
#: did not.
GOLDEN_HIER_REPLAY = {
    "crash=submaster:g1@20":
        "02f7516a77defc7dfb32c6acb091da502b1493a90c8ac989f6423551c4077a8d",
    "crash=coordinator@20":
        "a8e59efde707dd86bdd97b8f853a214089ba276a90f79fe437f14b3e106e4ce2",
    "crash=group:g1@40":
        "ee4c127af2390682ffa4640a7c07b95f52d74943037643da729a9e39d6104d5f",
}


#: The fault-scenario corpus (ROADMAP item 1): every FT driver — flat
#: pio / mpi, hier replicate / shard, the elastic service — under crash,
#: drop, ``ioerr`` and slow-disk plans, ``name -> (driver, nprocs,
#: faults, options, sha256)``.  The ``ioerr`` plans are timed so that
#: ``recover:io-retry`` is recorded through every ``reliable_read`` /
#: ``reliable_write`` / ``write_output`` call site of the protocol
#: modules.  ``lab=True`` runs under the laboratory cost model, whose
#: FT timeouts are seconds rather than thousands of seconds, so a crash
#: costs a fraction of a host second to sit out; other options are
#: ``ParallelConfig`` fields.
#: Flat digests taken at commit 5f2f1d6 (the parent of the change that
#: replaced the protocol modules' inline ``retry_io`` wrappers); hier
#: and elastic digests re-captured with the held member polls, as
#: ``GOLDEN_HIER_REPLAY``.
FAULT_CORPUS = {
    "pio/ioerr-queries": (
        "pioblast", 6,
        "ioerr=queries@0n2",
        dict(),
        "6edc32f9d52c45be3cf4b3c3c2bcfc43ac5a9e3ce767f73ec90f92fe94cf2953",
    ),
    "pio/ioerr-index": (
        "pioblast", 6,
        "ioerr=nr.xin@0n2",
        dict(),
        "1c6184a4377c0cf6f7af9e9add7084fea6f929b7f92526ed8d65f0cc0543a2b2",
    ),
    "pio/ioerr-output": (
        "pioblast", 6,
        "ioerr=results@0n3",
        dict(),
        "0897053776ea9c4d9357121524d31780beefdc0cf8567d712515bcec1be0e37b",
    ),
    "pio/slowdisk": (
        "pioblast", 6,
        "slowdisk=4x20@0",
        dict(),
        "5ddc5bd3b19f23b623bdd555e38f940c1b2666ea7b9608e1fbcc19bf88a8b548",
    ),
    "pio/drop-request": (
        "pioblast", 6,
        "drop=*>0:40n3",
        dict(),
        "f15a63dc663e6d2e54614aad213cadb69e088493da80b2bc7df4d7fec3aec436",
    ),
    "pio/kill-worker": (
        "pioblast", 6,
        "kill=2@0.02",
        dict(lab=True),
        "c8c4d5b365e59d032b22f28a7fb284c4193b57a815229b3b902e1716e4dbf13c",
    ),
    "pio/kill-master-ioerr-output": (
        "pioblast", 6,
        "kill=0@0.03,ioerr=results@0n3,ioerr=results@2.14n2",
        dict(lab=True, checkpoint_interval=0.01),
        "1c51751adb9806d343c130ccd5df1dd7f2dab49150b93c3e20800d591d36308d",
    ),
    "pio/mixed": (
        "pioblast", 8,
        "seed=3,kill=3@0.02,drop=0>*:41n2,ioerr=@0.01n2",
        dict(lab=True),
        "d16fd4fb9eeb2a8a49207368ab6e39b1e1f50526e7b1c971aaed16637907f585",
    ),
    "mpi/drop-request": (
        "mpiblast", 6,
        "drop=*>0:16n3",
        dict(),
        "ae46b573ee768e70ee3fc5c1df59d7803a1ea34e5fcf4054653dabbb07c8f040",
    ),
    "mpi/ioerr-setup": (
        "mpiblast", 6,
        "ioerr=queries@0n2,ioerr=nr.xin@0n1",
        dict(),
        "073c9cf5351daa2b2aeb687d0aab9751e9fec0e5d950aa1d49744716e707ae17",
    ),
    "mpi/ioerr-copy-read": (
        "mpiblast", 6,
        "ioerr=nr.frag@0n4",
        dict(),
        "953d0f10a6db81756742ea06148b66faa33274578316050956166431babdd73c",
    ),
    "mpi/ioerr-scratch": (
        "mpiblast", 6,
        "ioerr=scratch/@0n3,ioerr=scratch/@9.7n4",
        dict(),
        "ead3aab95e1d874982567b5dd2f86ec85690aa1b6e69f54bfe161f7cf26894ec",
    ),
    "mpi/ioerr-output": (
        "mpiblast", 6,
        "ioerr=results@0n3",
        dict(),
        "020992c642989cab7ceaf36b47a2acf8d4ef7ba21ab7c0f6600daa51b66ab021",
    ),
    "mpi/slowdisk": (
        "mpiblast", 6,
        "slowdisk=4x30@0",
        dict(),
        "120c4c5031fa040efa4e642a3a9ea4a270c1be4cb66c2da7ceb2990d4abd9e68",
    ),
    "mpi/kill-worker": (
        "mpiblast", 6,
        "kill=2@0.02",
        dict(lab=True),
        "a2216707180bf16a9f1cce4546a8dd74d06819c444c8a331dd865fe01e156f52",
    ),
    "mpi/kill-master": (
        "mpiblast", 6,
        "kill=0@0.06",
        dict(lab=True, checkpoint_interval=0.01),
        "b21d4cd51b43a9d2c634e77ec29e4dafcb2f83bac3dfaa43444013d52e1d83af",
    ),
    "hier-replicate/drop-request": (
        "hier-replicate", 13,
        "drop=*>0:80n3",
        dict(),
        "5427c9c2ff6b0eb8640dd769096a76b0e59fb011b3e02d0d8ba584421de9067d",
    ),
    "hier-replicate/ioerr-queries": (
        "hier-replicate", 13,
        "ioerr=queries@0n2",
        dict(),
        "467ffe54786a74aafddff4f39492b705dcde4707148fb6291981ab9fbfd284c8",
    ),
    "hier-replicate/ioerr-index": (
        "hier-replicate", 13,
        "ioerr=nr.xin@0n2",
        dict(),
        "4bcc8d7d9a2023ceb9d3f686d7b953177d4967f3bbad2e62700ddf9b85c520ef",
    ),
    "hier-replicate/ioerr-output": (
        "hier-replicate", 13,
        "ioerr=results@0n4,ioerr=results@61.2n3",
        dict(),
        "b88fa42cf6b27937a2b3dccf07a900c257b088c9fc0a4819d7f9bd470eeb1c9b",
    ),
    "hier-replicate/ioerr-marker": (
        "hier-replicate", 13,
        "ioerr=_ckpt/hier.done@0n2",
        dict(),
        "da428ae6227f7e948cdc52c35818b513f113328e0135e3ebde313f6f088ec2a3",
    ),
    "hier-replicate/crash-submaster": (
        "hier-replicate", 13,
        "crash=submaster:g1@0.3",
        dict(lab=True),
        "78a4f77b29352b5b61ccd2ee45ee3ece0b88b2a70cff219b695e1b343e1f3127",
    ),
    "hier-replicate/kill-member": (
        "hier-replicate", 13,
        "kill=6@0.3",
        dict(lab=True),
        "e953805eb1057074fc8be0e539b12c7e8b977488f9f495cb431159f8481da5ce",
    ),
    "hier-shard/ioerr-output": (
        "hier-shard", 13,
        "ioerr=results@0n5",
        dict(),
        "393de19b750bd10c484d0b1f126cb8286dfe3358df3f85304da23fb25fc9d670",
    ),
    "hier-shard/slowdisk": (
        "hier-shard", 13,
        "slowdisk=3x40@10",
        dict(),
        "241d2d42dc02c3f10dc5740b8fc73b39d6d461808283ef1011ebe67460a799b2",
    ),
    "hier-shard/drop-group-request": (
        "hier-shard", 13,
        "drop=*>*:90n4",
        dict(),
        "67d6cad97fea9a4a338148542f4d046f4e21d5f890df1e306c5cf7665388c315",
    ),
    "hier-shard/crash-coordinator": (
        "hier-shard", 13,
        "crash=coordinator@1.0",
        dict(lab=True),
        "f10b0bb91e419126dd317bf7154002c0eaae22c57b462c804adf69eccfe5bda6",
    ),
    "hier-shard/crash-submaster-ioerr-output": (
        "hier-shard", 13,
        "crash=submaster:g2@1.5,ioerr=results@0n3",
        dict(lab=True),
        "38447d3ee95dd03a6f92f2bf4fd2e7c730d2120d6b29091a6818117965e76763",
    ),
    "elastic-replicate/group-kill-ioerr-output": (
        "elastic-replicate", 17,
        "crash=group:g1@3,ioerr=results@0n2",
        dict(lab=True),
        "51f3d5ef3338f41df03987aa3eb58483c432513177c7d3867becbf9af2f29634",
    ),
    "elastic-replicate/crash-coordinator": (
        "elastic-replicate", 17,
        "crash=coordinator@3",
        dict(lab=True),
        "0b21406db153c7d1af551771653ac9819fca981515078822dee5422f79cfbe1d",
    ),
    "elastic-replicate/ioerr-marker": (
        "elastic-replicate", 17,
        "ioerr=_ckpt/hier.done@0n2",
        dict(lab=True),
        "1dc04d86d679ca6ed2ca2fcd3bb344231988110e383434f285c6bcd246e11134",
    ),
    "elastic-replicate/drop-request": (
        "elastic-replicate", 17,
        "drop=*>0:80n3",
        dict(lab=True),
        "753756b7ac171a7f1db179a8081073091bb4203d3dd3e2480a43f6f4bcbcf9ea",
    ),
    "elastic-shard/group-kill-ioerr-probe": (
        "elastic-shard", 17,
        "crash=group:g1@3,ioerr=nr.x@3.5n2",
        dict(lab=True),
        "d37fab156655fe5b9556e295679b344c7d7ac02463d4552a592c4cef25a9870a",
    ),
    "elastic-shard/kill-submaster-slowdisk": (
        "elastic-shard", 17,
        "kill=7@2,slowdisk=2x5@1",
        dict(lab=True),
        "fc9996ddfa2dddb13b631ea2fc0f5ca30c40d0cddaf23e6407182cd3a799c917",
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


class TestSchedulerReplayIdentity:
    @pytest.mark.parametrize("program", ["mpiblast", "pioblast"])
    def test_driver_replays_bit_for_bit(self, program):
        fp = run_fingerprint(program, 6)
        assert fingerprint_digest(fp) == GOLDEN_REPLAY[f"{program}-np6"]

    @pytest.mark.parametrize(
        "faults", ["crash=submaster:g1@20", "crash=coordinator@20"]
    )
    def test_hier_failover_replays_bit_for_bit(self, faults):
        fp = run_hier_fingerprint(faults)
        assert fingerprint_digest(fp) == GOLDEN_HIER_REPLAY[faults]

    def test_hier_service_group_kill_replays_bit_for_bit(self):
        faults = "crash=group:g1@40"
        fp = run_hier_fingerprint(faults, service=True)
        assert fingerprint_digest(fp) == GOLDEN_HIER_REPLAY[faults]

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
        driver, nprocs, faults, options, golden = FAULT_CORPUS[name]
        fp = run_corpus_fingerprint(driver, nprocs, faults, **options)
        assert fp["fault_report"][0], "the plan injected nothing"
        assert fingerprint_digest(fp) == golden


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
