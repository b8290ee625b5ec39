"""Figure 3(b): output-size scalability at 62 processes.

Paper: with the four Table-2 query sets (output 11/47/96/153 MB), both
programs' total times scale roughly with output size; mpiBLAST's total
is dominated by output time, pioBLAST's by search time, and pioBLAST's
non-search time less than doubles from the 11 MB to the 153 MB output
(vs a much steeper growth for mpiBLAST).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.report import format_table
from repro.experiments.table2 import QUERY_BYTES
from repro.parallel.phases import PhaseBreakdown
from repro.scenario import ExperimentWorkload, Scenario, run


def paper_fig3b() -> dict[str, dict[int, float]]:
    """Totals per output size (MB) read off the chart (seconds)."""
    return {
        "mpiblast": {11: 260.0, 47: 1100.0, 96: 2350.0, 153: 3700.0},
        "pioblast": {11: 30.0, 47: 90.0, 96: 165.0, 153: 260.0},
    }


@dataclass(frozen=True)
class Fig3bRow:
    query_bytes: int
    output_bytes: int
    mpi: PhaseBreakdown
    pio: PhaseBreakdown


@dataclass(frozen=True)
class Fig3bResult:
    rows: list[Fig3bRow]


def run_fig3b(
    wl: ExperimentWorkload | None = None,
    nprocs: int = 62,
    query_bytes: tuple[int, ...] = QUERY_BYTES,
) -> Fig3bResult:
    base = wl if wl is not None else ExperimentWorkload()
    rows: list[Fig3bRow] = []
    for qb in query_bytes:
        w = base.with_query_bytes(qb)
        mpi = run(Scenario("mpiblast", nprocs, workload=w))
        pio = run(Scenario("pioblast", nprocs, workload=w))
        rows.append(
            Fig3bRow(
                query_bytes=qb, output_bytes=len(mpi.output),
                mpi=mpi.outcome, pio=pio.outcome,
            )
        )
    return Fig3bResult(rows=rows)


def render_fig3b(res: Fig3bResult) -> str:
    rows = []
    for r in res.rows:
        rows.append(
            [
                f"{r.output_bytes / 1024:.0f} KB",
                r.mpi.search,
                r.mpi.non_search,
                r.mpi.total,
                r.pio.search,
                r.pio.non_search,
                r.pio.total,
            ]
        )
    note = None
    if len(res.rows) >= 2:
        first, last = res.rows[0], res.rows[-1]
        growth = last.pio.non_search / max(first.pio.non_search, 1e-12)
        mgrowth = last.mpi.non_search / max(first.mpi.non_search, 1e-12)
        note = (
            f"pio non-search growth smallest->largest output: {growth:.2f}x "
            f"(paper <2x); mpi: {mgrowth:.2f}x (paper ~10x)"
        )
    return format_table(
        "Figure 3(b) — output scalability at 62 processes (seconds)",
        ["output", "mpi search", "mpi other", "mpi total",
         "pio search", "pio other", "pio total"],
        rows,
        note=note,
    )
