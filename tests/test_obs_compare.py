"""Exit-code paths of the bench comparator and the latency columns.

Complements ``test_obs_export.py`` (which covers the basic delta
machinery): here the CLI exit codes (0 clean / 1 regression / 2
flavour mismatch / 3 host budget), the host-threshold handling, the
``latency`` section with its higher-is-better throughput column, and
the latency-percentile math including the empty-run edge case.
"""

from __future__ import annotations

import json

import pytest

from repro.obs import (
    PERCENTILES,
    flatten_latency,
    latency_summary,
    percentile,
)
from repro.obs.bench import main as bench_main
from repro.obs.compare import compare_bench
from repro.obs.compare import main as compare_main


def _doc(*, makespan=100.0, host_s=None, latency=None, hier=None,
         quick=None, name="service-prio/np16"):
    run = {"makespan": makespan}
    if host_s is not None:
        run["host_s"] = host_s
    if latency is not None:
        run["latency"] = latency
    if hier is not None:
        run["hier"] = hier
    doc = {"runs": {name: run}}
    if quick is not None:
        doc["meta"] = {"quick": quick}
    return doc


def _write(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


# ----------------------------------------------------------------------
# latency section in the comparison
# ----------------------------------------------------------------------
class TestLatencySection:
    def test_p95_regression_flagged(self):
        old = _doc(latency={"p95_s": 10.0})
        new = _doc(latency={"p95_s": 14.0})
        deltas = compare_bench(old, new)
        assert [d.key for d in deltas] == ["latency.p95_s"]
        assert deltas[0].regression

    def test_throughput_drop_is_regression(self):
        old = _doc(latency={"throughput_qps": 2.0})
        new = _doc(latency={"throughput_qps": 1.0})
        (d,) = compare_bench(old, new)
        assert d.key == "latency.throughput_qps"
        assert d.regression and "WORSE" in d.render()

    def test_throughput_gain_is_improvement(self):
        old = _doc(latency={"throughput_qps": 1.0})
        new = _doc(latency={"throughput_qps": 2.0})
        (d,) = compare_bench(old, new)
        assert not d.regression and "better" in d.render()

    def test_lane_columns_compared(self):
        old = _doc(latency={"lanes.interactive.p95_s": 5.0})
        new = _doc(latency={"lanes.interactive.p95_s": 9.0})
        (d,) = compare_bench(old, new)
        assert d.key == "latency.lanes.interactive.p95_s"
        assert d.regression


# ----------------------------------------------------------------------
# hier section in the comparison (two-level driver runs)
# ----------------------------------------------------------------------
class TestHierSection:
    def test_wait_share_growth_is_regression(self):
        """Every hier key is plain lower-is-better: a group waiting
        longer on its coordinator is the hierarchy losing its point."""
        old = _doc(hier={"group_coord_wait_share_max": 0.01}, name="hier/np256")
        new = _doc(hier={"group_coord_wait_share_max": 0.20}, name="hier/np256")
        (d,) = compare_bench(old, new)
        assert d.key == "hier.group_coord_wait_share_max"
        assert d.regression and "WORSE" in d.render()

    def test_wait_drop_is_improvement(self):
        old = _doc(hier={"group.g3.coord_wait_s": 40.0}, name="hier/np256")
        new = _doc(hier={"group.g3.coord_wait_s": 4.0}, name="hier/np256")
        (d,) = compare_bench(old, new)
        assert not d.regression and "better" in d.render()

    def test_missing_section_is_silent(self):
        """A baseline without hier runs (pre-hierarchy bench files)
        produces no hier deltas — only keys both sides share compare."""
        old = _doc(name="hier/np256")
        new = _doc(hier={"coordinator.wait_share": 0.9}, name="hier/np256")
        assert compare_bench(old, new) == []

    def test_hier_regression_through_cli(self, tmp_path):
        old = _write(tmp_path, "old.json",
                     _doc(hier={"group_coord_wait_share_max": 0.01},
                          name="hier/np1024"))
        new = _write(tmp_path, "new.json",
                     _doc(hier={"group_coord_wait_share_max": 0.5},
                          name="hier/np1024"))
        assert compare_main([old, new]) == 1
        assert compare_main([old, old]) == 0


# ----------------------------------------------------------------------
# compare CLI exit codes
# ----------------------------------------------------------------------
class TestCompareExitCodes:
    def test_host_threshold(self, tmp_path, capsys):
        old = _write(tmp_path, "old.json", _doc(host_s=10.0))
        new = _write(tmp_path, "new.json", _doc(host_s=13.0))
        # +30% host time: inside the default 50% band ...
        assert compare_main([old, new]) == 0
        # ... a regression with a tight band ...
        assert compare_main([old, new, "--host-threshold", "0.1"]) == 1
        assert "host_s" in capsys.readouterr().out
        # ... and invisible when host time is ignored.
        assert compare_main([old, new, "--host-threshold", "inf"]) == 0

    def test_quick_full_mismatch_exits_2(self, tmp_path, capsys):
        old = _write(tmp_path, "old.json", _doc(quick=True))
        new = _write(tmp_path, "new.json", _doc(quick=False))
        assert compare_main([old, new]) == 2
        assert "cannot compare" in capsys.readouterr().out

    def test_latency_regression_through_cli(self, tmp_path):
        old = _write(tmp_path, "old.json",
                     _doc(latency={"throughput_qps": 2.0}))
        new = _write(tmp_path, "new.json",
                     _doc(latency={"throughput_qps": 0.5}))
        assert compare_main([old, new]) == 1


# ----------------------------------------------------------------------
# bench --host-budget exit path
# ----------------------------------------------------------------------
class TestBenchHostBudget:
    @pytest.fixture()
    def fake_bench(self, monkeypatch, tmp_path):
        doc = {
            "meta": {"quick": True},
            "runs": {"pioblast/np4": {"makespan": 1.0, "host_s": 6.0}},
            "kernel": {"blastn/100": {"batch_host_s": 4.0}},
        }
        monkeypatch.setattr(
            "repro.obs.bench.write_bench",
            lambda path, **kw: doc,
        )
        return str(tmp_path / "bench.json")

    def test_within_budget_exits_0(self, fake_bench):
        assert bench_main(["--out", fake_bench,
                           "--host-budget", "60"]) == 0

    def test_over_budget_exits_3(self, fake_bench, capsys):
        # Total host time is 6 + 4 = 10s.
        assert bench_main(["--out", fake_bench,
                           "--host-budget", "5"]) == 3
        assert "HOST BUDGET EXCEEDED" in capsys.readouterr().out


# ----------------------------------------------------------------------
# latency percentile math
# ----------------------------------------------------------------------
class TestLatencyMath:
    def test_nearest_rank(self):
        samples = [float(i) for i in range(1, 101)]
        assert percentile(samples, 50) == 50.0
        assert percentile(samples, 95) == 95.0
        assert percentile(samples, 99) == 99.0
        assert percentile(samples, 100) == 100.0
        assert all(percentile([7.0], p) == 7.0 for p in PERCENTILES)

    def test_percentile_validation(self):
        with pytest.raises(ValueError):
            percentile([1.0], 0)
        with pytest.raises(ValueError):
            percentile([1.0], 101)

    def test_summary_shape(self):
        summary = latency_summary(
            {"interactive": [0.1, 0.2], "scan": [1.0, 2.0, 3.0]}, 10.0
        )
        assert summary["queries"] == 5
        assert summary["throughput_qps"] == pytest.approx(0.5)
        assert summary["all"]["p50_s"] == pytest.approx(1.0)
        assert summary["lanes"]["scan"]["max_s"] == 3.0
        flat = flatten_latency(summary)
        assert flat["lanes.interactive.count"] == 2
        assert flat["p99_s"] == 3.0

    def test_empty_run(self):
        """A service run that admitted nothing still exports a
        well-formed (all-zero) latency section."""
        summary = latency_summary({}, 0.0)
        assert summary["queries"] == 0
        assert summary["throughput_qps"] == 0.0
        assert summary["all"]["p95_s"] == 0.0
        assert summary["lanes"] == {}
        flat = flatten_latency(summary)
        assert flat["queries"] == 0 and flat["p50_s"] == 0.0
        assert percentile([], 95) == 0.0
