"""Ablations: isolate each pioBLAST technique and the §5 extensions.

The paper presents pioBLAST as a bundle; these harnesses quantify each
design choice separately (DESIGN.md's per-technique index):

- **output ablation** — collective MPI-IO output vs master-serialized
  writes of the same cached blocks (isolates §3.3 from §3.2);
- **input ablation** — range-based parallel input vs every worker
  reading the whole database (isolates §3.1's virtual partitioning);
- **pruning** — §5 early score communication: message volume saved,
  output unchanged;
- **granularity** — §5 adaptive fragments under a heterogeneous
  (skewed) platform: coarse+refined work queue vs natural partitioning;
- **query segmentation** — the §2.1 prior-generation baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.experiments.report import format_table
from repro.parallel.phases import PhaseBreakdown
from repro.platforms import NCSU_BLADE, ORNL_ALTIX
from repro.scenario import ExperimentWorkload, Scenario, run


@dataclass(frozen=True)
class AblationRow:
    label: str
    breakdown: PhaseBreakdown
    messages: int = 0
    bytes_sent: int = 0


def run_output_ablation(
    wl: ExperimentWorkload | None = None, nprocs: int = 32
) -> list[AblationRow]:
    w = wl if wl is not None else ExperimentWorkload()
    rows = []
    for label, overrides in (
        ("pio (collective output)", {}),
        ("pio (serialized output)", {"collective_output": False}),
    ):
        r = run(Scenario("pioblast", nprocs, workload=w, options=overrides))
        rows.append(AblationRow(label, r.outcome))
    mpi = run(Scenario("mpiblast", nprocs, workload=w))
    rows.append(AblationRow("mpiBLAST (reference)", mpi.outcome))
    return rows


def run_input_ablation(
    wl: ExperimentWorkload | None = None, nprocs: int = 16
) -> list[AblationRow]:
    w = wl if wl is not None else ExperimentWorkload()
    rows = []
    for label, overrides in (
        ("pio (range input)", {}),
        ("pio (whole-file input)", {"parallel_input": False}),
    ):
        r = run(Scenario("pioblast", nprocs, workload=w, platform=NCSU_BLADE,
                         options=overrides))
        rows.append(AblationRow(label, r.outcome))
    return rows


def run_pruning_ablation(
    wl: ExperimentWorkload | None = None, nprocs: int = 16
) -> tuple[list[AblationRow], bool]:
    """Returns rows + whether output was identical with pruning on."""
    base = wl if wl is not None else ExperimentWorkload()
    # A binding report cap is what gives the global cut line teeth.
    from repro.blast.engine import SearchParams

    w = replace(
        base, search=replace(base.search, max_alignments=5)
    )
    outputs = []
    rows = []
    for label, overrides in (
        ("pio (no pruning)", {}),
        ("pio (early score pruning)", {"early_score_pruning": True}),
    ):
        r = run(Scenario("pioblast", nprocs, workload=w, options=overrides))
        rows.append(
            AblationRow(
                label,
                r.outcome,
                messages=r.result.messages_sent,
                bytes_sent=r.result.bytes_sent,
            )
        )
        outputs.append(r.output)
    return rows, outputs[0] == outputs[1]


def run_granularity_ablation(
    wl: ExperimentWorkload | None = None, nprocs: int = 9
) -> list[AblationRow]:
    """Adaptive granularity (§5) on a *heterogeneous* cluster.

    Half the workers run at 40% speed.  Natural partitioning (one
    fragment per worker) stalls on the slow nodes; the work-queue with
    finer fragments rebalances — at the price of per-fragment kernel
    overhead, which is the paper's granularity/overhead compromise.
    """
    base = wl if wl is not None else ExperimentWorkload()
    # Granularity refinement pays when imbalance dominates per-fragment
    # overhead; per-fragment kernel setup scales with the query count
    # (the Fig. 1(b) effect), so this experiment uses a lighter query
    # set and a strongly skewed cluster — the regime the paper's §5
    # "heterogeneous nodes or skewed search" points at.
    w = replace(base, query_bytes=min(base.query_bytes, 4000))
    skewed = replace(
        ORNL_ALTIX,
        name="ornl-altix-skewed",
        cpu_speed_per_rank=(1.0, 1.0, 0.25),
    )
    rows = []
    for label, overrides in (
        ("pio natural (W fragments)", {}),
        (
            "pio adaptive (2W fragments, work queue)",
            {"adaptive_granularity": True},
        ),
        (
            "pio fine (4W fragments, work queue)",
            {"num_fragments": 4 * (nprocs - 1)},
        ),
    ):
        r = run(Scenario("pioblast", nprocs, workload=w, platform=skewed,
                         options=overrides))
        rows.append(AblationRow(label, r.outcome))
    return rows


def run_queryseg_comparison(
    wl: ExperimentWorkload | None = None, nprocs: int = 16
) -> list[AblationRow]:
    w = wl if wl is not None else ExperimentWorkload()
    rows = []
    for label, program in (("query segmentation", "queryseg"),
                           ("pioBLAST (db segmentation)", "pioblast")):
        r = run(Scenario(program, nprocs, workload=w, platform=NCSU_BLADE))
        rows.append(AblationRow(label, r.outcome))
    return rows


def render_ablation(title: str, rows: list[AblationRow]) -> str:
    table_rows = []
    for r in rows:
        table_rows.append(
            [
                r.label,
                r.breakdown.copy_input,
                r.breakdown.search,
                r.breakdown.output,
                r.breakdown.total,
            ]
        )
    return format_table(
        title,
        ["variant", "copy/input", "search", "output", "total"],
        table_rows,
    )
