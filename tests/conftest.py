"""Shared fixtures: small, fast workloads reused across the suite."""

from __future__ import annotations

import faulthandler

import pytest

from repro.blast.fasta import SeqRecord
from repro.costmodel import CostModel
from repro.parallel import ParallelConfig, stage_inputs
from repro.simmpi import FileStore
from repro.workloads import SynthSpec, sample_queries, synthesize_protein_records

SMALL_SPEC = SynthSpec(
    num_sequences=90,
    mean_length=140,
    family_fraction=0.6,
    family_size=5,
    seed=12345,
)


@pytest.fixture(autouse=True)
def _hang_watchdog():
    """A hang must fail, not wedge CI.  A livelocked serve loop spins in
    virtual time forever (the engine's deadlock detector only sees
    *blocked* ranks), so after 10 host minutes in one test dump every
    thread's stack — each simulated rank is a thread — and exit."""
    faulthandler.dump_traceback_later(600, exit=True)
    yield
    faulthandler.cancel_dump_traceback_later()


@pytest.fixture(scope="session")
def small_db() -> list[SeqRecord]:
    return synthesize_protein_records(SMALL_SPEC)


@pytest.fixture(scope="session")
def small_queries(small_db) -> list[SeqRecord]:
    return sample_queries(small_db, 1600, seed=9)


@pytest.fixture()
def staged(small_db, small_queries):
    """Fresh store + config staged with the small workload."""
    store = FileStore()
    cfg = ParallelConfig(cost=CostModel())
    cfg = stage_inputs(store, small_db, small_queries, config=cfg,
                       title="test nr")
    return store, cfg


@pytest.fixture(scope="session")
def serial_reference(small_db, small_queries) -> bytes:
    """The serial report for the small workload (session-cached)."""
    from repro.parallel import run_serial_reference

    store = FileStore()
    cfg = ParallelConfig(cost=CostModel())
    cfg = stage_inputs(store, small_db, small_queries, config=cfg,
                       title="test nr")
    return run_serial_reference(store, cfg, output_path="ref.out")
