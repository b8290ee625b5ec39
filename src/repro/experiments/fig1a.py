"""Figure 1(a): mpiBLAST search vs non-search time, 16/32/64 processes.

Paper observation (nt database, Altix): the search share of total time
slips from 95.6% at 16 processes to 70.7% at 64 — the non-search
(result merging/output) portion grows steadily with parallelism even
while the search itself scales.

This experiment ran against the 11 GB *nt* database (all others use the
1 GB nr); we stand in for nt by scaling the kernel-compute charge by
``NT_COMPUTE_FACTOR`` on the same synthetic workload, which puts the
search share in the paper's band while keeping the result-handling load
identical.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.report import format_table
from repro.parallel.phases import PhaseBreakdown
from repro.scenario import ExperimentWorkload, Scenario, run

PROCESS_COUNTS = (16, 32, 64)

#: nt is ~11x nr in residues; searching it costs ~12x the kernel time
#: per query at fixed result volume.
NT_COMPUTE_FACTOR = 12.0


def paper_fig1a() -> dict[int, float]:
    """Search share of total time per process count (paper's text gives
    the 16- and 64-process endpoints; 32 interpolated from the chart)."""
    return {16: 0.956, 32: 0.88, 64: 0.707}


@dataclass(frozen=True)
class Fig1aResult:
    breakdowns: dict[int, PhaseBreakdown]

    def search_shares(self) -> dict[int, float]:
        return {p: b.search_share for p, b in self.breakdowns.items()}


def run_fig1a(
    wl: ExperimentWorkload | None = None,
    process_counts: tuple[int, ...] = PROCESS_COUNTS,
) -> Fig1aResult:
    from dataclasses import replace

    base = wl if wl is not None else ExperimentWorkload()
    w = replace(
        base,
        cost=base.cost.scaled(
            compute=base.cost.compute_scale * NT_COMPUTE_FACTOR
        ),
    )
    out: dict[int, PhaseBreakdown] = {}
    for p in process_counts:
        out[p] = run(Scenario("mpiblast", p, workload=w)).outcome
    return Fig1aResult(breakdowns=out)


def render_fig1a(res: Fig1aResult) -> str:
    paper = paper_fig1a()
    rows = []
    for p, b in sorted(res.breakdowns.items()):
        rows.append(
            [
                p,
                b.search,
                b.non_search,
                b.total,
                f"{100 * b.search_share:.1f}%",
                f"{100 * paper.get(p, float('nan')):.1f}%",
            ]
        )
    return format_table(
        "Figure 1(a) — mpiBLAST search vs non-search time (seconds)",
        ["procs", "search", "other", "total", "search%", "paper search%"],
        rows,
        note="search share must fall monotonically as processes grow",
    )
