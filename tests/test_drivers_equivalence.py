"""The reproduction's central correctness claim (paper §3):

    "Given the same input query and database, pioBLAST and mpiBLAST
     generate the same output."

Every driver — serial reference, mpiBLAST, pioBLAST (all ablation
variants, both §5 extensions), query segmentation — must produce
byte-identical report files, across process counts, fragment counts,
and platforms.
"""

from dataclasses import replace

import pytest

from repro.parallel import (
    mpiformatdb,
    run_mpiblast,
    run_pioblast,
    run_queryseg,
)
from repro.platforms import NCSU_BLADE, ORNL_ALTIX


def fresh(staged_factory):
    return staged_factory


@pytest.fixture()
def make_staged(small_db, small_queries):
    """Factory producing a fresh staged store per driver run."""
    from repro.costmodel import CostModel
    from repro.parallel import ParallelConfig, stage_inputs
    from repro.simmpi import FileStore

    def _make(**cfg_kwargs):
        store = FileStore()
        cfg = ParallelConfig(cost=CostModel(), **cfg_kwargs)
        cfg = stage_inputs(store, small_db, small_queries, config=cfg,
                           title="test nr")
        return store, cfg

    return _make


class TestMpiblastEquivalence:
    @pytest.mark.parametrize("nprocs", [2, 3, 5, 9])
    def test_matches_serial_across_process_counts(
        self, make_staged, serial_reference, nprocs
    ):
        store, cfg = make_staged()
        mpiformatdb(store, cfg.db_name, nprocs - 1)
        run_mpiblast(nprocs, store, cfg, ORNL_ALTIX)
        assert store.read_all(cfg.output_path) == serial_reference

    @pytest.mark.parametrize("nfrag", [2, 7, 12])
    def test_matches_serial_across_fragment_counts(
        self, make_staged, serial_reference, nfrag
    ):
        store, cfg = make_staged(num_fragments=nfrag)
        mpiformatdb(store, cfg.db_name, nfrag)
        run_mpiblast(5, store, cfg, ORNL_ALTIX)
        assert store.read_all(cfg.output_path) == serial_reference

    def test_matches_on_nfs_platform(self, make_staged, serial_reference):
        store, cfg = make_staged()
        mpiformatdb(store, cfg.db_name, 3)
        run_mpiblast(4, store, cfg, NCSU_BLADE)
        assert store.read_all(cfg.output_path) == serial_reference


class TestPioblastEquivalence:
    @pytest.mark.parametrize("nprocs", [2, 3, 5, 9])
    def test_matches_serial_across_process_counts(
        self, make_staged, serial_reference, nprocs
    ):
        store, cfg = make_staged()
        run_pioblast(nprocs, store, cfg, ORNL_ALTIX)
        assert store.read_all(cfg.output_path) == serial_reference

    def test_matches_with_more_fragments_than_workers(
        self, make_staged, serial_reference
    ):
        store, cfg = make_staged(num_fragments=11)
        run_pioblast(4, store, cfg, ORNL_ALTIX)
        assert store.read_all(cfg.output_path) == serial_reference

    def test_matches_without_collective_output(
        self, make_staged, serial_reference
    ):
        store, cfg = make_staged(collective_output=False)
        run_pioblast(5, store, cfg, ORNL_ALTIX)
        assert store.read_all(cfg.output_path) == serial_reference

    def test_matches_without_parallel_input(
        self, make_staged, serial_reference
    ):
        store, cfg = make_staged(parallel_input=False)
        run_pioblast(5, store, cfg, ORNL_ALTIX)
        assert store.read_all(cfg.output_path) == serial_reference

    def test_matches_with_early_score_pruning(
        self, make_staged, serial_reference
    ):
        store, cfg = make_staged(early_score_pruning=True)
        run_pioblast(5, store, cfg, ORNL_ALTIX)
        assert store.read_all(cfg.output_path) == serial_reference

    def test_matches_with_adaptive_granularity(
        self, make_staged, serial_reference
    ):
        store, cfg = make_staged(adaptive_granularity=True)
        run_pioblast(5, store, cfg, ORNL_ALTIX)
        assert store.read_all(cfg.output_path) == serial_reference

    def test_matches_on_nfs_platform(self, make_staged, serial_reference):
        store, cfg = make_staged()
        run_pioblast(4, store, cfg, NCSU_BLADE)
        assert store.read_all(cfg.output_path) == serial_reference

    def test_all_flags_off_is_still_correct(
        self, make_staged, serial_reference
    ):
        store, cfg = make_staged(
            parallel_input=False,
            collective_output=False,
        )
        run_pioblast(4, store, cfg, ORNL_ALTIX)
        assert store.read_all(cfg.output_path) == serial_reference


class TestQuerysegEquivalence:
    @pytest.mark.parametrize("nprocs", [2, 4, 7])
    def test_matches_serial(self, make_staged, serial_reference, nprocs):
        store, cfg = make_staged()
        run_queryseg(nprocs, store, cfg, ORNL_ALTIX)
        assert store.read_all(cfg.output_path) == serial_reference


class TestCrossDriver:
    def test_mpi_equals_pio_directly(self, make_staged):
        s1, c1 = make_staged()
        mpiformatdb(s1, c1.db_name, 4)
        run_mpiblast(5, s1, c1, ORNL_ALTIX)
        s2, c2 = make_staged()
        run_pioblast(5, s2, c2, ORNL_ALTIX)
        assert s1.read_all(c1.output_path) == s2.read_all(c2.output_path)

    def test_determinism_of_a_driver(self, make_staged):
        outs = []
        for _ in range(2):
            store, cfg = make_staged()
            run_pioblast(4, store, cfg, ORNL_ALTIX)
            outs.append(store.read_all(cfg.output_path))
        assert outs[0] == outs[1]

    def test_minimum_process_counts_enforced(self, make_staged):
        store, cfg = make_staged()
        with pytest.raises(ValueError):
            run_pioblast(1, store, cfg)
        with pytest.raises(ValueError):
            run_mpiblast(1, store, cfg)
        with pytest.raises(ValueError):
            run_queryseg(1, store, cfg)
