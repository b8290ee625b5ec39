"""Figure 3(a): node scalability on the Altix, 4 → 62 processes.

Paper observations to reproduce (150 KB query vs nr):

- both programs' *search* time falls nicely with more processes;
- mpiBLAST's non-search time rises steadily, and beyond 31 workers the
  rise *overtakes* the search decrease: total time grows again;
- pioBLAST keeps scaling: 32 → 62 processes gives 1.86x overall, and at
  61 workers 92.4% of its time is still BLAST search (vs mpiBLAST's
  10.3%).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.report import format_table
from repro.parallel.phases import PhaseBreakdown
from repro.scenario import ExperimentWorkload, Scenario, run

PROCESS_COUNTS = (4, 8, 16, 32, 62)


def paper_fig3a() -> dict[str, dict[int, float]]:
    """Approximate totals read off the chart (seconds)."""
    return {
        "mpiblast": {4: 2350.0, 8: 1270.0, 16: 770.0, 32: 1350.0, 62: 2350.0},
        "pioblast": {4: 2150.0, 8: 1100.0, 16: 560.0, 32: 310.0, 62: 165.0},
        "facts": {
            "pio_speedup_32_to_62": 1.86,
            "pio_search_share_62": 0.924,
            "mpi_search_share_62": 0.103,
        },
    }


@dataclass(frozen=True)
class Fig3aResult:
    mpi: dict[int, PhaseBreakdown]
    pio: dict[int, PhaseBreakdown]


def run_fig3a(
    wl: ExperimentWorkload | None = None,
    process_counts: tuple[int, ...] = PROCESS_COUNTS,
) -> Fig3aResult:
    w = wl if wl is not None else ExperimentWorkload()
    mpi: dict[int, PhaseBreakdown] = {}
    pio: dict[int, PhaseBreakdown] = {}
    for p in process_counts:
        mpi[p] = run(Scenario("mpiblast", p, workload=w)).outcome
        pio[p] = run(Scenario("pioblast", p, workload=w)).outcome
    return Fig3aResult(mpi=mpi, pio=pio)


def render_fig3a(res: Fig3aResult) -> str:
    paper = paper_fig3a()
    rows = []
    for p in sorted(res.mpi):
        m, o = res.mpi[p], res.pio[p]
        rows.append(
            [
                p,
                m.search,
                m.non_search,
                m.total,
                o.search,
                o.non_search,
                o.total,
                paper["mpiblast"].get(p, float("nan")),
                paper["pioblast"].get(p, float("nan")),
            ]
        )
    counts = sorted(res.pio)
    note = ""
    if 32 in res.pio and 62 in res.pio:
        sp = res.pio[32].total / res.pio[62].total
        note = (
            f"pio 32->62 speedup {sp:.2f}x (paper 1.86x); pio search share "
            f"at 62: {100 * res.pio[62].search_share:.1f}% (paper 92.4%); "
            f"mpi search share at 62: "
            f"{100 * res.mpi[62].search_share:.1f}% (paper 10.3%)"
        )
    del counts
    return format_table(
        "Figure 3(a) — node scalability on the Altix (seconds)",
        ["procs", "mpi search", "mpi other", "mpi total",
         "pio search", "pio other", "pio total",
         "paper mpi", "paper pio"],
        rows,
        note=note or None,
    )
