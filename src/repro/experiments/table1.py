"""Table 1: phase breakdown at 32 processes on the Altix.

Paper (150 KB query vs nr, 32 processes, natural partitioning):

    =========  ==========  ======  ======  =====  ======
    program    copy/input  search  output  other  total
    =========  ==========  ======  ======  =====  ======
    mpiBLAST         17.1   318.5  1007.2   11.3  1354.1
    pioBLAST          0.4   281.7    15.4   10.4   307.9
    =========  ==========  ======  ======  =====  ======

i.e. pioBLAST takes the search share of total time from 24.5% to 95.5%
and cuts the output stage by ~65x.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.report import format_table
from repro.parallel.phases import PhaseBreakdown
from repro.scenario import ExperimentWorkload, Scenario, run


def paper_table1() -> dict[str, dict[str, float]]:
    return {
        "mpiblast": {
            "copy_input": 17.1,
            "search": 318.5,
            "output": 1007.2,
            "other": 11.3,
            "total": 1354.1,
        },
        "pioblast": {
            "copy_input": 0.4,
            "search": 281.7,
            "output": 15.4,
            "other": 10.4,
            "total": 307.9,
        },
    }


@dataclass(frozen=True)
class Table1Result:
    mpi: PhaseBreakdown
    pio: PhaseBreakdown

    @property
    def speedup(self) -> float:
        return self.mpi.total / self.pio.total

    @property
    def output_improvement(self) -> float:
        return self.mpi.output / max(self.pio.output, 1e-12)


def run_table1(
    wl: ExperimentWorkload | None = None, nprocs: int = 32
) -> Table1Result:
    w = wl if wl is not None else ExperimentWorkload()
    mpi = run(Scenario("mpiblast", nprocs, workload=w)).outcome
    pio = run(Scenario("pioblast", nprocs, workload=w)).outcome
    return Table1Result(mpi=mpi, pio=pio)


def render_table1(res: Table1Result) -> str:
    paper = paper_table1()
    rows = []
    for name, b in (("mpiBLAST", res.mpi), ("pioBLAST", res.pio)):
        p = paper[name.lower()]
        rows.append(
            [
                name,
                b.copy_input,
                b.search,
                b.output,
                b.other,
                b.total,
                f"{100 * b.search_share:.1f}%",
            ]
        )
        rows.append(
            [
                "  (paper)",
                p["copy_input"],
                p["search"],
                p["output"],
                p["other"],
                p["total"],
                f"{100 * p['search'] / p['total']:.1f}%",
            ]
        )
    return format_table(
        "Table 1 — execution time breakdown, 32 processes (seconds)",
        ["program", "copy/input", "search", "output", "other", "total",
         "search%"],
        rows,
        note=(
            f"measured speedup {res.speedup:.1f}x "
            f"(paper {1354.1 / 307.9:.1f}x), output improvement "
            f"{res.output_improvement:.0f}x (paper "
            f"{1007.2 / 15.4:.0f}x)"
        ),
    )
