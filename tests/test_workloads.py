"""Synthetic workload generators and query sampling."""

import hashlib

import numpy as np
import pytest

from repro.blast.alphabet import DNA, PROTEIN
from repro.blast.fasta import format_record
from repro.blast.karlin import ROBINSON_FREQS
from repro.workloads import (
    SynthSpec,
    mutate_sequence,
    query_set_bytes,
    sample_queries,
    synthesize_dna_records,
    synthesize_protein_records,
)
from repro.workloads.synth import _cdf, _draw

PROTEIN_PROBS = ROBINSON_FREQS / ROBINSON_FREQS.sum()
DNA_PROBS = np.full(4, 0.25)


class TestSynthSpec:
    def test_defaults_valid(self):
        SynthSpec()

    def test_validation(self):
        with pytest.raises(ValueError):
            SynthSpec(num_sequences=0)
        with pytest.raises(ValueError):
            SynthSpec(mean_length=5)
        with pytest.raises(ValueError):
            SynthSpec(family_fraction=1.5)
        with pytest.raises(ValueError):
            SynthSpec(family_size=1)


class TestProteinSynthesis:
    def test_count_and_alphabet(self):
        recs = synthesize_protein_records(SynthSpec(num_sequences=50))
        assert len(recs) == 50
        for r in recs:
            assert PROTEIN.is_valid_strict(r.sequence)

    def test_deterministic_by_seed(self):
        a = synthesize_protein_records(SynthSpec(num_sequences=30, seed=1))
        b = synthesize_protein_records(SynthSpec(num_sequences=30, seed=1))
        assert [r.sequence for r in a] == [r.sequence for r in b]

    def test_different_seeds_differ(self):
        a = synthesize_protein_records(SynthSpec(num_sequences=30, seed=1))
        b = synthesize_protein_records(SynthSpec(num_sequences=30, seed=2))
        assert [r.sequence for r in a] != [r.sequence for r in b]

    def test_family_structure_in_deflines(self):
        recs = synthesize_protein_records(
            SynthSpec(num_sequences=40, family_fraction=0.5, family_size=4)
        )
        founders = [r for r in recs if "founder" in r.defline]
        members = [r for r in recs if "member" in r.defline]
        singletons = [r for r in recs if "singleton" in r.defline]
        assert founders and members and singletons
        assert len(founders) + len(members) + len(singletons) == 40

    def test_family_members_are_similar_to_founder(self):
        recs = synthesize_protein_records(
            SynthSpec(num_sequences=20, family_fraction=1.0, family_size=5,
                      mutation_rate=0.1, indel_rate=0.0)
        )
        f = PROTEIN.encode(recs[0].sequence)
        m = PROTEIN.encode(recs[1].sequence)
        assert len(f) == len(m)
        identity = (f == m).mean()
        assert identity > 0.8

    def test_unique_ids(self):
        recs = synthesize_protein_records(SynthSpec(num_sequences=25))
        assert len({r.id for r in recs}) == 25

    def test_composition_roughly_robinson(self):
        recs = synthesize_protein_records(
            SynthSpec(num_sequences=60, mean_length=400, family_fraction=0.0)
        )
        codes = np.concatenate([PROTEIN.encode(r.sequence) for r in recs])
        freqs = np.bincount(codes, minlength=24)[:20] / len(codes)
        assert np.abs(freqs - ROBINSON_FREQS).max() < 0.02


class TestDnaSynthesis:
    def test_alphabet(self):
        recs = synthesize_dna_records(SynthSpec(num_sequences=10))
        for r in recs:
            assert set(r.sequence) <= set("ACGT")


class TestMutate:
    def test_substitutions_only_keeps_length(self):
        rng = np.random.default_rng(0)
        probs = np.full(20, 0.05)
        seq = np.zeros(200, dtype=np.uint8)
        out = mutate_sequence(seq, rng, nstd=20, probs=probs,
                              mutation_rate=0.2, indel_rate=0.0)
        assert len(out) == 200
        assert (out != seq).any()

    def test_indels_change_length_sometimes(self):
        rng = np.random.default_rng(3)
        probs = np.full(20, 0.05)
        seq = np.zeros(300, dtype=np.uint8)
        lengths = {
            len(mutate_sequence(seq, rng, nstd=20, probs=probs,
                                mutation_rate=0.0, indel_rate=0.05))
            for _ in range(10)
        }
        assert len(lengths) > 1

    def test_original_not_mutated(self):
        rng = np.random.default_rng(1)
        probs = np.full(20, 0.05)
        seq = np.arange(100, dtype=np.uint8) % 20
        before = seq.copy()
        mutate_sequence(seq, rng, nstd=20, probs=probs,
                        mutation_rate=0.5, indel_rate=0.1)
        assert np.array_equal(seq, before)


class TestSampling:
    def test_reaches_target_bytes(self):
        db = synthesize_protein_records(SynthSpec(num_sequences=100))
        qs = sample_queries(db, 5000, seed=0)
        assert query_set_bytes(qs) >= 5000

    def test_deterministic(self):
        db = synthesize_protein_records(SynthSpec(num_sequences=50))
        a = sample_queries(db, 2000, seed=4)
        b = sample_queries(db, 2000, seed=4)
        assert [r.id for r in a] == [r.id for r in b]

    def test_without_replacement_until_exhausted(self):
        db = synthesize_protein_records(SynthSpec(num_sequences=30))
        qs = sample_queries(db, 10**9, seed=0)  # asks for more than exists
        assert len(qs) == 30
        assert len({r.id for r in qs}) == 30

    def test_with_repeats_keeps_growing(self):
        db = synthesize_protein_records(SynthSpec(num_sequences=10))
        target = query_set_bytes(db) * 3
        qs = sample_queries(db, target, seed=0, allow_repeats=True)
        assert query_set_bytes(qs) >= target

    def test_queries_come_from_db(self):
        db = synthesize_protein_records(SynthSpec(num_sequences=40))
        ids = {r.id for r in db}
        qs = sample_queries(db, 1500, seed=2)
        assert all(q.id in ids for q in qs)

    def test_bad_args(self):
        db = synthesize_protein_records(SynthSpec(num_sequences=5))
        with pytest.raises(ValueError):
            sample_queries(db, 0)
        with pytest.raises(ValueError):
            sample_queries([], 100)

    def test_query_set_bytes_matches_fasta(self):
        db = synthesize_protein_records(SynthSpec(num_sequences=5))
        assert query_set_bytes(db) == sum(len(format_record(r)) for r in db)


class TestCdfDraw:
    """``_draw`` is ``Generator.choice`` with ``p=`` minus its per-call
    validation: the same codes from the same generator state."""

    @pytest.mark.parametrize("probs", [PROTEIN_PROBS, DNA_PROBS],
                             ids=["protein", "dna"])
    @pytest.mark.parametrize("k", [0, 1, 10_000])
    def test_equals_generator_choice(self, probs, k):
        ours, numpy_s = np.random.default_rng(7), np.random.default_rng(7)
        got = _draw(ours, _cdf(probs), k)
        want = numpy_s.choice(len(probs), size=k, p=probs).astype(np.uint8)
        assert got.dtype == np.uint8 and np.array_equal(got, want)
        assert ours.bit_generator.state == numpy_s.bit_generator.state

    def test_mutate_checks_probs_against_nstd(self):
        with pytest.raises(ValueError):
            mutate_sequence(np.zeros(50, dtype=np.uint8),
                            np.random.default_rng(0), nstd=20,
                            probs=DNA_PROBS, mutation_rate=0.1,
                            indel_rate=0.0)


def _fasta_sha(records) -> str:
    h = hashlib.sha256()
    for r in records:
        h.update(f">{r.defline}\n{r.sequence}\n".encode())
    return h.hexdigest()


#: The 6 000-sequence database of ``bench/workloads.py``'s kernel-bulk
#: at its default seed, and a DNA database of the same shape, as
#: ``Generator.choice`` drew them before the synthesizer searched one
#: CDF itself: any change to the draws moves these.
BULK_SPEC = SynthSpec(num_sequences=6_000, mean_length=300, seed=20050405)
GOLDEN_DB_SHA = {
    "protein":
        "215acaf861e4ebf0b399eb0c48f2a46873e565a49c18b5cec496858075390bc2",
    "dna":
        "eeba51d7775de374fcb37524a9598d82281be6206d1731fb843026983eb3b8ad",
}


class TestGoldenDatabases:
    def test_kernel_bulk_protein_database(self):
        assert (_fasta_sha(synthesize_protein_records(BULK_SPEC))
                == GOLDEN_DB_SHA["protein"])

    def test_dna_database(self):
        assert (_fasta_sha(synthesize_dna_records(BULK_SPEC))
                == GOLDEN_DB_SHA["dna"])
