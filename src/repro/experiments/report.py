"""Assemble archived benchmark tables into one reproduction report.

``pytest benchmarks/ --benchmark-only`` archives each experiment's
rendered paper-vs-measured table under ``benchmarks/results/``; this
module stitches them into a single document (the data behind
EXPERIMENTS.md).
"""

from __future__ import annotations

import pathlib

#: Presentation order: paper order, then ablations/extensions.
SECTION_ORDER = [
    ("table1", "Table 1 — phase breakdown at 32 processes"),
    ("fig1a", "Figure 1(a) — mpiBLAST search share erosion"),
    ("fig1b", "Figure 1(b) — fragment-count sensitivity"),
    ("table2", "Table 2 — query size vs output size"),
    ("fig3a", "Figure 3(a) — node scalability (Altix)"),
    ("fig3b", "Figure 3(b) — output scalability at 62 processes"),
    ("fig4", "Figure 4 — NFS blade cluster"),
    ("formatdb", "§3.1 — formatdb / repartitioning cost"),
    ("ablation_output", "Ablation — collective output"),
    ("ablation_input", "Ablation — parallel range input"),
    ("ablation_pruning", "Extension §5 — early score communication"),
    ("ablation_granularity", "Extension §5 — adaptive granularity"),
    ("ablation_queryseg", "Baseline §2.1 — query segmentation"),
    ("chaos", "Chaos — fault-injection recovery (FAULTS.md)"),
    ("bottleneck", "Bottleneck — event-derived makespan attribution "
                   "(OBSERVABILITY.md)"),
]


def collect_results(results_dir: str | pathlib.Path) -> dict[str, str]:
    """Read every archived table; returns {name: rendered text}."""
    d = pathlib.Path(results_dir)
    out: dict[str, str] = {}
    if not d.is_dir():
        return out
    for path in sorted(d.glob("*.txt")):
        out[path.stem] = path.read_text().rstrip("\n")
    return out


def assemble_report(results_dir: str | pathlib.Path) -> str:
    """One text report over all archived experiments, paper order."""
    results = collect_results(results_dir)
    lines = [
        "Reproduction report — Efficient Data Access for Parallel BLAST "
        "(IPDPS 2005)",
        "=" * 72,
        "",
    ]
    seen = set()
    for name, heading in SECTION_ORDER:
        if name in results:
            lines += [heading, "", results[name], "", ""]
            seen.add(name)
    extras = sorted(set(results) - seen)
    for name in extras:
        lines += [name, "", results[name], "", ""]
    if len(lines) <= 3:
        lines.append(
            "(no archived results — run `pytest benchmarks/ "
            "--benchmark-only` first)"
        )
    return "\n".join(lines)


def missing_experiments(results_dir: str | pathlib.Path) -> list[str]:
    """Experiments from the paper index with no archived table yet."""
    results = collect_results(results_dir)
    return [name for name, _ in SECTION_ORDER if name not in results]


def format_table(
    title: str,
    headers: list[str],
    rows: list[list],
    *,
    note: str | None = None,
) -> str:
    """Fixed-width ascii table (the bench scripts' output format)."""
    srows = [
        [f"{c:.1f}" if isinstance(c, float) else str(c) for c in r]
        for r in rows
    ]
    widths = [
        max(len(h), *(len(r[i]) for r in srows)) if srows else len(h)
        for i, h in enumerate(headers)
    ]
    lines = [title, "-" * len(title)]
    lines.append("  ".join(h.rjust(widths[i]) for i, h in enumerate(headers)))
    for r in srows:
        lines.append("  ".join(c.rjust(widths[i]) for i, c in enumerate(r)))
    if note:
        lines.append(f"  note: {note}")
    return "\n".join(lines)
