"""Exporters (Chrome trace + run metrics) and the bench comparator."""

from __future__ import annotations

import json

import pytest

from repro.obs import (
    Tracer,
    chrome_trace,
    run_metrics,
    write_chrome_trace,
    write_run_metrics,
)
from repro.obs.compare import Delta, compare_bench, load_bench, main
from repro.scenario import ExperimentWorkload, Scenario, run
from repro.workloads import SynthSpec

SMALL = ExperimentWorkload(
    db_spec=SynthSpec(
        num_sequences=90,
        mean_length=140,
        family_fraction=0.6,
        family_size=5,
        seed=7,
    ),
    query_bytes=1800,
)


@pytest.fixture(scope="module")
def traced_run():
    t = Tracer()
    return run(Scenario("pioblast", 4, workload=SMALL), t).result


class TestChromeTrace:
    def test_schema(self, traced_run):
        doc = chrome_trace(traced_run.events, traced_run.nprocs)
        assert set(doc) == {"traceEvents", "displayTimeUnit"}
        events = doc["traceEvents"]
        assert events
        names = set()
        for ev in events:
            assert ev["ph"] in ("M", "X", "i", "C"), ev
            assert ev["pid"] == 0
            assert isinstance(ev["tid"], int)
            assert 0 <= ev["tid"] <= traced_run.nprocs
            if ev["ph"] == "M":
                names.add(ev["args"]["name"])
                continue
            assert ev["ts"] >= 0.0
            if ev["ph"] == "X":
                assert ev["dur"] >= 0.0
                assert ev["cat"]
            if ev["ph"] == "i":
                assert ev["s"] == "t"
            if ev["ph"] == "C":
                assert ev["name"].startswith("streams:")
                assert isinstance(ev["args"]["streams"], int)
        # One named track per rank, plus the scheduler.
        for r in range(traced_run.nprocs):
            assert f"rank {r}" in names
        assert "scheduler" in names

    def test_json_serializable_and_microseconds(self, traced_run):
        doc = chrome_trace(traced_run.events, traced_run.nprocs)
        text = json.dumps(doc)
        assert json.loads(text) == doc
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        # ts is microseconds: the run lasts > 1 virtual second, so some
        # span must start beyond 1e6 µs.
        assert max(e["ts"] for e in spans) > 1e6

    def test_write(self, traced_run, tmp_path):
        p = tmp_path / "trace.json"
        write_chrome_trace(p, traced_run.events, traced_run.nprocs)
        assert json.loads(p.read_text())["traceEvents"]


class TestRunMetrics:
    def test_keys(self, traced_run):
        m = run_metrics(traced_run, program="pioblast")
        assert m["program"] == "pioblast"
        assert m["makespan"] == traced_run.makespan
        assert m["phases"]["search"] > 0
        assert m["counters"]["msgs_sent"] > 0
        assert 0.9 <= m["critical_path_coverage"] <= 1.0 + 1e-9
        assert sum(m["critical_path"].values()) == pytest.approx(
            traced_run.makespan, rel=1e-6
        )

    def test_untraced_has_no_attribution(self):
        result = run(Scenario("pioblast", 4, workload=SMALL)).result
        m = run_metrics(result, program="pioblast")
        assert "critical_path" not in m
        assert m["counters"]["msgs_sent"] > 0

    def test_write(self, traced_run, tmp_path):
        p = tmp_path / "metrics.json"
        write_run_metrics(p, traced_run, program="pioblast")
        assert json.loads(p.read_text())["makespan"] > 0


def _doc(makespan: float, search: float = 10.0) -> dict:
    return {
        "runs": {
            "pioblast/np4": {
                "makespan": makespan,
                "phases": {"search": search},
            }
        }
    }


class TestCompare:
    def test_identical_docs_no_deltas(self):
        assert compare_bench(_doc(100.0), _doc(100.0)) == []

    def test_small_change_not_flagged(self):
        assert compare_bench(_doc(100.0), _doc(104.0)) == []

    def test_regression_flagged(self):
        deltas = compare_bench(_doc(100.0), _doc(110.0))
        assert len(deltas) == 1
        d = deltas[0]
        assert d.key == "makespan" and d.regression
        assert d.ratio == pytest.approx(0.10)

    def test_improvement_flagged_but_not_regression(self):
        deltas = compare_bench(_doc(100.0), _doc(80.0))
        assert len(deltas) == 1 and not deltas[0].regression

    def test_nested_sections_compared(self):
        deltas = compare_bench(
            _doc(100.0, search=10.0), _doc(100.0, search=20.0)
        )
        assert [d.key for d in deltas] == ["phases.search"]

    def test_threshold_parameter(self):
        assert compare_bench(_doc(100.0), _doc(110.0), threshold=0.2) == []

    def test_delta_render(self):
        d = Delta("run", "makespan", 100.0, 110.0)
        assert "WORSE" in d.render()

    def test_cli_exit_codes(self, tmp_path):
        old = tmp_path / "old.json"
        new = tmp_path / "new.json"
        old.write_text(json.dumps(_doc(100.0)))
        new.write_text(json.dumps(_doc(100.0)))
        assert main([str(old), str(new)]) == 0
        new.write_text(json.dumps(_doc(150.0)))
        assert main([str(old), str(new)]) == 1
        assert main([str(old), str(new), "--threshold", "0.6"]) == 0
        assert load_bench(old)["runs"]
