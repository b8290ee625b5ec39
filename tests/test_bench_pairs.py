"""tools/bench_pairs.py: the arithmetic behind a pairs verdict.

The pairs themselves are minutes of benchmark runs and are not run
here; canned numbers stand in for them.
"""

import importlib.util
import pathlib

import pytest

_PATH = pathlib.Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

PARENT = [2.9, 2.7, 2.6, 2.8, 3.0, 2.7, 2.65, 2.75, 2.85, 2.95]
CHANGE = [1.6, 1.5, 1.7, 1.55, 1.65, 1.5, 1.45, 1.6, 1.7, 1.75]


def test_parse_seeds():
    assert bench_pairs.parse_seeds("101..104") == [101, 102, 103, 104]
    assert bench_pairs.parse_seeds("501,507") == [501, 507]
    assert bench_pairs.parse_seeds("7") == [7]


def test_quartiles_interpolate_between_order_statistics():
    assert bench_pairs.quartiles([1, 2, 3, 4, 5]) == (2, 3, 4)
    assert bench_pairs.quartiles([1, 2, 3, 4]) == (1.75, 2.5, 3.25)
    assert bench_pairs.quartiles([4.2]) == (4.2, 4.2, 4.2)
    q1, med, q3 = bench_pairs.quartiles(PARENT)
    assert med == pytest.approx(2.775)
    assert (q1, q3) == (pytest.approx(2.7), pytest.approx(2.8875))


def test_wins_follow_the_metric_direction_and_ties_count_for_neither():
    p, c = [3, 3, 3, 3], [2, 4, 3, 1]
    assert bench_pairs.count_wins(p, c, "lower") == (2, 1, 1)
    assert bench_pairs.count_wins(p, c, "higher") == (1, 2, 1)


def test_gain_needs_nine_tenths_of_pairs_and_more_than_the_parents_spread():
    assert bench_pairs.gain(PARENT, CHANGE, "lower")
    assert not bench_pairs.gain(PARENT, CHANGE, "higher")
    # Two lost pairs of ten: no claim, however large the median step.
    lost_two = [9.0, 9.0] + CHANGE[2:]
    assert not bench_pairs.gain(PARENT, lost_two, "lower")
    # Ten wins, but by less than the parent's quartile distance.
    hair = [v - 0.01 for v in PARENT]
    assert bench_pairs.count_wins(PARENT, hair, "lower") == (10, 0, 0)
    assert not bench_pairs.gain(PARENT, hair, "lower")
    # A tie is not a win: 8 wins + 2 ties of 10 is below nine tenths.
    tied = PARENT[:2] + CHANGE[2:]
    assert not bench_pairs.gain(PARENT, tied, "lower")


def test_report_lists_every_pair_both_summaries_and_failures():
    def run(v, failed=0):
        return {"correct": failed == 0, "attempted": 8, "failed": failed,
                "metrics": {"host_s": {"value": v, "unit": "s"}}}

    text = bench_pairs.report(
        [("host_s", "s", "lower")], [101, 102],
        [run(2.0), run(4.0)], [run(1.0), run(3.0, failed=1)],
    )
    assert "seed 101" in text and "seed 102" in text
    assert "parent median 3  quartiles 2.5 .. 3.5" in text
    assert "change median 2  quartiles 1.5 .. 2.5" in text
    assert "-33.3 %" in text
    assert "wins change 2 / parent 0 / ties 0 of 2" in text
    assert "change failed 1 of 16 attempted; correct in 1 of 2 runs" in text
    assert "parent failed 0 of 16 attempted; correct in 2 of 2 runs" in text
