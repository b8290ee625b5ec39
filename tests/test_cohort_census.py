"""tools/cohort_census.py: the table it prints from its call records.

The census itself runs a benchmark workload's timed region (seconds to
minutes) and is not run here; canned records stand in for it.
"""

import importlib.util
import pathlib

_PATH = (
    pathlib.Path(__file__).resolve().parents[1] / "tools" / "cohort_census.py"
)
_spec = importlib.util.spec_from_file_location("cohort_census", _PATH)
cohort_census = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cohort_census)
Call = cohort_census.CohortCall

CALLS = [
    Call(32, 6, 1, 0, 140, 0.010, (0.25,)),
    Call(32, 10, 0, 2, 160, 0.020, (0.50, 0.75)),
    Call(32, 8, 0, 0, 120, 0.015, ()),
    Call(64, 2, 0, 0, 90, 0.005, ()),
]


def test_report_sums_per_band_and_counts_retry_passes():
    lines = cohort_census.report(CALLS).splitlines()
    assert lines[0].split()[:8] == [
        "band", "calls", "halves", "widened", "retried", "rows", "seconds",
        "cohort",
    ]
    first, retry = lines[1].split(), lines[2].split()
    # band calls halves widened retried rows seconds cohort-median
    assert first[:8] == ["32", "3", "24", "1", "2", "420", "0.045", "8"]
    # Clip positions: quartiles of 0.25, 0.50, 0.75 of the way through.
    assert first[8:] == ["0.38", "/", "0.50", "/", "0.62"]
    assert retry[:8] == ["64", "1", "2", "0", "0", "90", "0.005", "2"]
    assert retry[8:] == ["-"]
    assert lines[-1] == (
        "total: 4 calls (1 retry passes), 510 rows, 0.050 s"
    )


def test_rows_total_is_what_the_gate_compares():
    assert cohort_census.total_rows(CALLS) == 510
    assert cohort_census.total_rows([]) == 0
    assert cohort_census.report([]).splitlines()[-1] == (
        "total: 0 calls (0 retry passes), 0 rows, 0.000 s"
    )
