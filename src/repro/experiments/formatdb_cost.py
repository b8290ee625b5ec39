"""The formatdb / mpiformatdb preprocessing cost (§3.1 text).

Paper: on the Altix head node, formatdb takes ~6 minutes for the 1 GB
nr database and ~22 minutes for the 11 GB nt database — and mpiBLAST
must *re-run the partitioning* whenever the fragment count changes,
while pioBLAST repartitions at run time for free.

We measure our real formatdb/mpiformatdb on the synthetic database and
model the paper-scale cost with the same letters-per-second throughput
the paper implies, then count the fragment files each approach creates
(the paper's data-management argument).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.experiments.report import format_table
from repro.parallel import ParallelConfig, mpiformatdb, stage_inputs
from repro.scenario import ExperimentWorkload, build_workload
from repro.simmpi import FileStore


def paper_formatdb() -> dict[str, float]:
    return {
        "nr_seconds": 6 * 60.0,
        "nt_seconds": 22 * 60.0,
        "nr_bytes": 1e9,
        "nt_bytes": 11e9,
    }


@dataclass(frozen=True)
class FormatDbResult:
    db_letters: int
    format_seconds: float  # real measured wall time of our formatdb
    repartition_seconds: dict[int, float]  # fragment count -> wall time
    files_mpiblast: dict[int, int]  # fragment count -> files created
    files_pioblast: int  # always the global 3 (+alias)
    projected_nr_seconds: float  # our throughput projected to 1 GB
    projected_nt_seconds: float


def run_formatdb_cost(
    wl: ExperimentWorkload | None = None,
    fragment_counts: tuple[int, ...] = (15, 31, 61),
) -> FormatDbResult:
    w = wl if wl is not None else ExperimentWorkload()
    db, queries = build_workload(w)
    letters = sum(len(r.sequence) for r in db)

    store = FileStore()
    t0 = time.perf_counter()
    cfg = stage_inputs(store, db, queries, config=ParallelConfig(), title="nr")
    fmt_seconds = time.perf_counter() - t0

    repart: dict[int, float] = {}
    files: dict[int, int] = {}
    for f in fragment_counts:
        t0 = time.perf_counter()
        mpiformatdb(store, cfg.db_name, f, out_prefix=f"f{f}/{cfg.db_name}")
        repart[f] = time.perf_counter() - t0
        files[f] = len(store.listdir(f"f{f}/"))

    paper = paper_formatdb()
    throughput = letters / max(fmt_seconds, 1e-9)
    return FormatDbResult(
        db_letters=letters,
        format_seconds=fmt_seconds,
        repartition_seconds=repart,
        files_mpiblast=files,
        files_pioblast=3,
        projected_nr_seconds=paper["nr_bytes"] / throughput,
        projected_nt_seconds=paper["nt_bytes"] / throughput,
    )


def render_formatdb(res: FormatDbResult) -> str:
    rows = [
        ["formatdb (global)", f"{res.format_seconds * 1000:.0f} ms", 3],
    ]
    for f, secs in sorted(res.repartition_seconds.items()):
        rows.append(
            [f"mpiformatdb {f} fragments", f"{secs * 1000:.0f} ms",
             res.files_mpiblast[f]]
        )
    rows.append(["pioBLAST repartition (any N)", "0 ms (run time)", 0])
    return format_table(
        "formatdb / repartitioning cost (§3.1)",
        ["operation", "wall time", "files created"],
        rows,
        note=(
            "paper: formatdb nr=6min, nt=22min; every fragment-count "
            "change forces mpiBLAST to re-partition, pioBLAST never does"
        ),
    )
