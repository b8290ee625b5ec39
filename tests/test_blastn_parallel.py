"""DNA (blastn) searches through the full parallel stack.

The paper's Fig. 1(a) experiments ran against the nucleotide nt
database; this exercises the blastn code path end to end — synthetic
DNA workload, DNA formatdb, and byte-identical parallel output.
"""

import pytest

from repro.blast.alphabet import DNA
from repro.blast.engine import SearchParams
from repro.costmodel import CostModel
from repro.parallel import (
    ParallelConfig,
    mpiformatdb,
    run_mpiblast,
    run_pioblast,
    run_serial_reference,
    stage_inputs,
)
from repro.simmpi import FileStore
from repro.workloads import SynthSpec, sample_queries, synthesize_dna_records

DNA_SPEC = SynthSpec(
    num_sequences=60,
    mean_length=300,
    family_fraction=0.5,
    family_size=4,
    mutation_rate=0.03,  # blastn needs long exact words
    indel_rate=0.002,
    seed=404,
)

NT_PARAMS = SearchParams(program="blastn", gapped=False, max_alignments=50)


@pytest.fixture(scope="module")
def dna_workload():
    db = synthesize_dna_records(DNA_SPEC)
    queries = sample_queries(db, 2500, seed=6)
    return db, queries


def _staged(db, queries, **cfg_kwargs):
    store = FileStore()
    cfg = ParallelConfig(
        db_name="nt",
        cost=CostModel(),
        search=NT_PARAMS,
        **cfg_kwargs,
    )
    cfg = stage_inputs(store, db, queries, config=cfg, alphabet=DNA,
                       title="synthetic nt")
    return store, cfg


@pytest.fixture(scope="module")
def dna_reference(dna_workload):
    db, queries = dna_workload
    store, cfg = _staged(db, queries)
    return run_serial_reference(store, cfg, output_path="ref.out")


class TestBlastnSerial:
    def test_reference_is_blastn_report(self, dna_reference):
        assert dna_reference.startswith(b"BLASTN")
        assert b"synthetic nt" in dna_reference

    def test_queries_find_themselves(self, dna_workload, dna_reference):
        db, queries = dna_workload
        text = dna_reference.decode()
        for q in queries[:3]:
            assert f"Query= {q.defline}" in text


class TestBlastnParallel:
    def test_pioblast_matches_serial(self, dna_workload, dna_reference):
        db, queries = dna_workload
        store, cfg = _staged(db, queries)
        run_pioblast(5, store, cfg)
        assert store.read_all(cfg.output_path) == dna_reference

    def test_mpiblast_matches_serial(self, dna_workload, dna_reference):
        db, queries = dna_workload
        store, cfg = _staged(db, queries)
        mpiformatdb(store, cfg.db_name, 4)
        run_mpiblast(5, store, cfg)
        assert store.read_all(cfg.output_path) == dna_reference

    def test_dna_database_files_use_dna_alphabet(self, dna_workload):
        from repro.blast.formatdb import DatabaseIndex

        db, queries = dna_workload
        store, cfg = _staged(db, queries)
        idx = DatabaseIndex.from_bytes(store.read("nt.xin"))
        assert idx.dbtype == 1
        assert idx.alphabet is DNA
