"""Experiment harnesses — one module per table/figure of the paper.

Each module exposes a ``run_*`` function returning structured rows and a
``paper_reference()`` with the numbers the paper reports, so the
benchmark scripts can print paper-vs-measured tables.  See DESIGN.md §4
for the experiment index and EXPERIMENTS.md for recorded outcomes.
"""

from repro._lazy import namespace

__all__, __getattr__, __dir__ = namespace(__name__, {
    "common": ("ExperimentWorkload", "build_workload"),
    "report": ("format_table",),
    "table1": ("run_table1", "paper_table1"),
    "table2": ("run_table2", "paper_table2"),
    "fig1a": ("run_fig1a", "paper_fig1a"),
    "fig1b": ("run_fig1b", "paper_fig1b"),
    "fig3a": ("run_fig3a", "paper_fig3a"),
    "fig3b": ("run_fig3b", "paper_fig3b"),
    "fig4": ("run_fig4", "paper_fig4"),
    "formatdb_cost": ("run_formatdb_cost", "paper_formatdb"),
    "ablations": (
        "run_output_ablation", "run_input_ablation", "run_pruning_ablation",
        "run_granularity_ablation", "run_queryseg_comparison",
    ),
})
