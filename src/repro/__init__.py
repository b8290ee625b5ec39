"""repro — reproduction of *Efficient Data Access for Parallel BLAST*
(Lin, Ma, Chandramohan, Geist, Samatova; IPDPS 2005).

Three layers:

- :mod:`repro.blast`   — a from-scratch BLAST engine (seeding, X-drop
  extension, Karlin–Altschul statistics, formatdb-style databases,
  NCBI-style reports);
- :mod:`repro.simmpi`  — a deterministic discrete-event MPI + MPI-IO +
  filesystem simulator the parallel drivers execute on;
- :mod:`repro.parallel` — the paper's systems: a faithful mpiBLAST
  data-flow reproduction, the pioBLAST optimizations (dynamic
  partitioning, parallel input, result caching, collective output), and
  baselines/extensions.

Entry points most users want::

    from repro import blastp_search, formatdb          # serial BLAST
    from repro.parallel import run_mpiblast, run_pioblast
    from repro.workloads import synthesize_protein_fasta, sample_queries
    from repro.platforms import ORNL_ALTIX, NCSU_BLADE
"""

from repro._lazy import namespace

__version__ = "1.0.0"

__all__, __getattr__, __dir__ = namespace(__name__, {
    "blast.engine": (
        "BlastSearch", "SearchParams", "blastp_search", "blastn_search",
    ),
    "blast.formatdb": ("formatdb", "FormattedDatabase"),
})
__all__.append("__version__")
