"""``repro.scenario``: the text form, staging, and the one run path."""

from __future__ import annotations

import ast
import pathlib
from dataclasses import replace

import pytest

from repro.hier import ElasticConfig
from repro.platforms import NCSU_BLADE, ORNL_ALTIX
from repro.scenario import WORKLOADS, Scenario, run
from repro.service import ServiceConfig

ROOT = pathlib.Path(__file__).resolve().parent.parent

SCENARIOS = [
    Scenario("mpiblast", 6, workload=WORKLOADS["replay"], cost="lab",
             faults="kill=2@0.1"),
    Scenario("hier-service", 17, "shard", 3, WORKLOADS["replay"], rate=2.0,
             faults="crash=group:g1@3,ioerr=nr.x@3.5n2"),
    Scenario("pioblast", 9,
             workload=WORKLOADS["paper"].with_query_bytes(4000),
             platform=replace(ORNL_ALTIX, name="skewed altix",
                              cpu_speed_per_rank=(1.0, 1.0, 0.25)),
             options={"adaptive_granularity": True, "num_fragments": 12,
                      "checkpoint_dir": "a dir"}),
    Scenario("service", 6, platform=NCSU_BLADE, trace="0.0 0\n0.5 1 scan\n",
             service=ServiceConfig(max_wave=4, priority=False)),
    Scenario("hier-service", 17, service=ServiceConfig(shed_threshold=2),
             elastic=ElasticConfig(joins=((4, 5.0),), drains=((0, 20.0),))),
    Scenario("hier", 13, groups=3, batch_queries=2),
    Scenario("serial", 1),
]


class TestText:
    @pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda s: s.driver)
    def test_parse_inverts_str(self, scenario):
        text = str(scenario)
        assert Scenario.parse(text) == scenario
        assert str(Scenario.parse(text)) == text

    def test_defaults_are_left_out(self):
        s = Scenario("pioblast", 6, faults=" kill=2@0.1, ioerr=results@0n3")
        assert str(s) == "pioblast nprocs=6 faults=kill=2@0.1,ioerr=results@0n3"

    @pytest.mark.parametrize("text, match", [
        ("blastall nprocs=6", "unknown driver"),
        ("pioblast nprocs=6 cost=cheap", "cost"),
        ("pioblast nprocs=6 num_fragmnts=3", "num_fragmnts"),
        ("pioblast nprocs=6 replay", "key=value"),
    ])
    def test_bad_text_is_rejected(self, text, match):
        with pytest.raises(ValueError, match=match):
            Scenario.parse(text)


def test_mpiblast_stages_the_fragments_it_is_told_to_run():
    """``num_fragments`` given as an option is the count mpiformatdb
    stages: the driver runs 12 fragments on 5 workers and writes the
    serial oracle's report."""
    r = run(Scenario.parse("mpiblast nprocs=6 workload=replay "
                           "num_fragments=12"))
    assert r.config.num_fragments == 12
    assert r.store.exists("nr.frag0011.xin")
    serial = run(Scenario.parse("serial nprocs=1 workload=replay"))
    assert r.output == serial.output


def _sources(*dirs):
    for d in dirs:
        for path in sorted((ROOT / d).rglob("*.py")):
            yield path, ast.parse(path.read_text())


def _names(tree):
    """``(node, name)`` of every name a module binds, reads or imports."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node, node.name
        elif isinstance(node, ast.Name):
            yield node, node.id
        elif isinstance(node, ast.Attribute):
            yield node, node.attr
        elif isinstance(node, ast.alias):
            yield node, node.name


class TestOneRunPath:
    """A second runner cannot grow back beside ``run()``."""

    ADAPTERS = {"run_program_raw", "run_hier_raw", "run_hier_service_raw"}

    def test_bench_adapters_serve_bench_only(self):
        common = ROOT / "src" / "repro" / "experiments" / "common.py"
        offenders = [
            f"{path.relative_to(ROOT)}:{node.lineno}"
            for path, tree in _sources("src", "tests", "tools", "benchmarks")
            for node, name in _names(tree)
            if name in self.ADAPTERS
            and not (path == common and isinstance(node, ast.FunctionDef))
        ]
        assert offenders == []

    def test_tests_and_tools_take_the_fingerprint_from_scenario(self):
        offenders = [
            f"{path.relative_to(ROOT)}:{node.lineno} {name}"
            for path, tree in _sources("tests", "tools")
            for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
            for name in [node.name]
            if not name.startswith("test_")
            and ("fingerprint" in name or name in ("_dense", "_canon"))
        ]
        assert offenders == []
