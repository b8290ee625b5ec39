"""Figure 4: process scalability on the NCSU blade cluster (NFS).

Paper: same trends as the Altix, but the slow shared filesystem hurts —
pioBLAST's search share falls from 93% at 4 processes to 64% at 32
(worse than on the Altix but still far milder than mpiBLAST's 50% → 14%).
mpiBLAST's search time itself stops scaling because its embedded I/O
runs against NFS.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.report import format_table
from repro.parallel.phases import PhaseBreakdown
from repro.platforms import NCSU_BLADE
from repro.scenario import ExperimentWorkload, Scenario, run

PROCESS_COUNTS = (4, 8, 16, 32)


def paper_fig4() -> dict[str, dict[int, float]]:
    return {
        "search_share_pio": {4: 0.93, 32: 0.64},
        "search_share_mpi": {4: 0.50, 32: 0.14},
        "totals_mpi": {4: 5800.0, 8: 4000.0, 16: 3500.0, 32: 4000.0},
        "totals_pio": {4: 2400.0, 8: 1300.0, 16: 800.0, 32: 550.0},
    }


@dataclass(frozen=True)
class Fig4Result:
    mpi: dict[int, PhaseBreakdown]
    pio: dict[int, PhaseBreakdown]


def run_fig4(
    wl: ExperimentWorkload | None = None,
    process_counts: tuple[int, ...] = PROCESS_COUNTS,
) -> Fig4Result:
    w = wl if wl is not None else ExperimentWorkload()
    mpi: dict[int, PhaseBreakdown] = {}
    pio: dict[int, PhaseBreakdown] = {}
    for p in process_counts:
        for program, out in (("mpiblast", mpi), ("pioblast", pio)):
            out[p] = run(Scenario(program, p, workload=w,
                                  platform=NCSU_BLADE)).outcome
    return Fig4Result(mpi=mpi, pio=pio)


def render_fig4(res: Fig4Result) -> str:
    paper = paper_fig4()
    rows = []
    for p in sorted(res.mpi):
        m, o = res.mpi[p], res.pio[p]
        rows.append(
            [
                p,
                m.total,
                f"{100 * m.search_share:.0f}%",
                o.total,
                f"{100 * o.search_share:.0f}%",
                paper["totals_mpi"].get(p, float("nan")),
                paper["totals_pio"].get(p, float("nan")),
            ]
        )
    note = None
    counts = sorted(res.pio)
    if counts:
        lo, hi = counts[0], counts[-1]
        note = (
            f"pio search share {100 * res.pio[lo].search_share:.0f}% -> "
            f"{100 * res.pio[hi].search_share:.0f}% (paper 93% -> 64%); "
            f"mpi {100 * res.mpi[lo].search_share:.0f}% -> "
            f"{100 * res.mpi[hi].search_share:.0f}% (paper 50% -> 14%)"
        )
    return format_table(
        "Figure 4 — NCSU blade cluster (NFS) scalability (seconds)",
        ["procs", "mpi total", "mpi search%", "pio total", "pio search%",
         "paper mpi", "paper pio"],
        rows,
        note=note,
    )
