"""repro.parallel — the paper's systems.

- :mod:`repro.parallel.mpiblast` — a faithful reproduction of the
  mpiBLAST 1.2.1 data flow the paper measures: pre-partitioned physical
  fragments, greedy master assignment, fragment copy to local storage,
  workers shipping result metadata, the master *serially* fetching
  alignment data per selected hit and serially writing the output file.
- :mod:`repro.parallel.pioblast` — the paper's contribution: dynamic
  virtual partitioning from the global index, parallel MPI-IO input,
  worker-side result caching with metadata-only merging, and
  offset-computed collective output.
- :mod:`repro.parallel.queryseg` — the earlier-generation baseline
  (query segmentation, §2.1): split the query set, search the whole
  database on every worker.
- :mod:`repro.parallel.pruning`, :mod:`repro.parallel.loadbalance` —
  the paper's §5 future-work features, implemented: early score
  broadcast for local pruning, and adaptive partition granularity.

All drivers produce byte-identical output files for the same inputs
(the paper's own correctness claim for pioBLAST vs mpiBLAST).
"""

from repro.parallel.checkpoint import CheckpointStore, FailoverTracker
from repro.parallel.config import FTParams, ParallelConfig, stage_inputs
from repro.parallel.fragments import (
    mpiformatdb,
    fragment_paths,
    virtual_partition,
    virtual_partition_multi,
    VolumePiece,
)
from repro.parallel.assignment import GreedyAssigner
from repro.parallel.results import AlignmentMeta, merge_select
from repro.parallel.serial import run_serial_reference
from repro.parallel.warmdb import (
    DbFingerprint,
    check_fingerprint,
    fingerprint_database,
    load_fragment_pieces,
    partition_database,
    search_loaded_pieces,
)
from repro.parallel.mpiblast import run_mpiblast
from repro.parallel.pioblast import run_pioblast
from repro.parallel.queryseg import run_queryseg
from repro.parallel.phases import (
    PhaseBreakdown,
    bottleneck_table,
    breakdown_from_run,
    fault_summary,
)

__all__ = [
    "CheckpointStore",
    "FailoverTracker",
    "FTParams",
    "ParallelConfig",
    "stage_inputs",
    "mpiformatdb",
    "fragment_paths",
    "virtual_partition",
    "virtual_partition_multi",
    "VolumePiece",
    "GreedyAssigner",
    "AlignmentMeta",
    "merge_select",
    "run_serial_reference",
    "DbFingerprint",
    "check_fingerprint",
    "fingerprint_database",
    "load_fragment_pieces",
    "partition_database",
    "search_loaded_pieces",
    "run_mpiblast",
    "run_pioblast",
    "run_queryseg",
    "PhaseBreakdown",
    "bottleneck_table",
    "breakdown_from_run",
    "fault_summary",
]
