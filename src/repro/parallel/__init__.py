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
- :mod:`repro.parallel.pruning` and pioBLAST's work-queue mode
  (``ParallelConfig.adaptive_granularity``) — the paper's §5
  future-work features, implemented: early score broadcast for local
  pruning, and more virtual fragments than workers.

All drivers produce byte-identical output files for the same inputs
(the paper's own correctness claim for pioBLAST vs mpiBLAST).
"""

from repro._lazy import namespace

__all__, __getattr__, __dir__ = namespace(__name__, {
    "checkpoint": ("CheckpointStore", "FailoverTracker"),
    "config": ("FTParams", "ParallelConfig", "stage_inputs"),
    "fragments": (
        "mpiformatdb", "fragment_paths", "virtual_partition",
        "virtual_partition_multi", "VolumePiece",
    ),
    "assignment": ("GreedyAssigner",),
    "results": ("AlignmentMeta", "merge_select"),
    "serial": ("run_serial_reference",),
    "warmdb": (
        "DbFingerprint", "check_fingerprint", "fingerprint_database",
        "load_fragment_pieces", "partition_database",
        "search_loaded_pieces",
    ),
    "mpiblast": ("run_mpiblast",),
    "pioblast": ("run_pioblast",),
    "queryseg": ("run_queryseg",),
    "phases": (
        "PhaseBreakdown", "bottleneck_table", "breakdown_from_run",
        "fault_summary",
    ),
})
