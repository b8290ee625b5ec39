"""Figure 1(b): mpiBLAST sensitivity to the number of fragments.

Paper: 32 processes, 150 KB query vs nr, fragment counts {31, 61, 96,
167}.  Both search time and non-search time rise with fragment count —
per-fragment kernel overhead plus more candidate results to merge —
so over-fragmenting to accommodate future larger runs is not viable
(the motivation for dynamic partitioning).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.report import format_table
from repro.parallel.phases import PhaseBreakdown
from repro.scenario import ExperimentWorkload, Scenario, run

FRAGMENT_COUNTS = (31, 61, 96, 167)


def paper_fig1b() -> dict[int, float]:
    """Total time per fragment count, read off the paper's chart (s)."""
    return {31: 1350.0, 61: 1800.0, 96: 2600.0, 167: 4100.0}


@dataclass(frozen=True)
class Fig1bResult:
    breakdowns: dict[int, PhaseBreakdown]  # fragment count -> breakdown


def run_fig1b(
    wl: ExperimentWorkload | None = None,
    nprocs: int = 32,
    fragment_counts: tuple[int, ...] = FRAGMENT_COUNTS,
) -> Fig1bResult:
    w = wl if wl is not None else ExperimentWorkload()
    out: dict[int, PhaseBreakdown] = {}
    for f in fragment_counts:
        b = run(Scenario("mpiblast", nprocs, workload=w,
                         options={"num_fragments": f})).outcome
        out[f] = b
    return Fig1bResult(breakdowns=out)


def render_fig1b(res: Fig1bResult) -> str:
    paper = paper_fig1b()
    rows = []
    for f, b in sorted(res.breakdowns.items()):
        rows.append(
            [f, b.search, b.non_search, b.total, paper.get(f, float("nan"))]
        )
    return format_table(
        "Figure 1(b) — mpiBLAST vs fragment count, 32 processes (seconds)",
        ["fragments", "search", "other", "total", "paper total"],
        rows,
        note="total must rise monotonically with fragment count",
    )
