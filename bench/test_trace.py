"""The host-span recorder on toy runs.  Run: ``python -m pytest bench -q``."""

from __future__ import annotations

import json
import pathlib
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run as bench_run  # noqa: E402
import workloads  # noqa: E402
from hostspans import ENGINE, OTHER  # noqa: E402

import repro.blast.engine  # noqa: E402
import repro.parallel.pioblast  # noqa: E402
from repro.blast import karlin  # noqa: E402
from repro.experiments.common import (  # noqa: E402
    ExperimentWorkload,
    run_program_raw,
)
from repro.obs import Tracer  # noqa: E402
from repro.simmpi import Communicator, Engine, launcher  # noqa: E402
from repro.workloads import SynthSpec  # noqa: E402

TOY = ExperimentWorkload(
    db_spec=SynthSpec(num_sequences=60, mean_length=120, seed=5),
    query_bytes=700,
)


def toy_run(probe: layers.Probe | None):
    """pioBLAST on 4 ranks; returns (RunResult, event tuples)."""
    tracer = Tracer()
    if probe is not None:
        probe.install()
        probe.rec.start()
    try:
        _b, result, _store, _cfg = run_program_raw(
            "pioblast", 4, TOY, tracer=tracer
        )
    finally:
        if probe is not None:
            probe.rec.stop()
            probe.remove()
    return result, tracer.as_tuples()


def test_buckets_tile_wall_time():
    probe = layers.Probe()
    toy_run(probe)
    rec = probe.rec
    assert abs(sum(rec.self_s.values()) - rec.wall_s) < 1e-6 * rec.wall_s
    # span self times are the same seconds, itemised
    assert abs(sum(s[6] for s in rec.spans) - rec.wall_s) < 1e-6 * rec.wall_s
    by_layer = probe.host_by_layer()
    accounted = 1.0 - by_layer["other"] / rec.wall_s
    assert 0.99 <= accounted <= 1.0
    assert rec.self_s[ENGINE] > 0 and rec.self_s["driver"] > 0
    assert rec.calls["driver"] == 4
    assert rec.self_s.get(OTHER, 0.0) < 0.01 * rec.wall_s


def test_span_around_parking_call_excludes_parked_interval():
    burn = 0.05

    def program(ctx):
        if ctx.rank == 0:
            return ctx.comm.recv(source=1)
        end = time.perf_counter() + burn  # host work while rank 0 is parked
        while time.perf_counter() < end:
            pass
        ctx.comm.send("done", dest=0)

    probe = layers.Probe()
    probe.install()
    probe.rec.start()
    try:
        result = launcher.run(2, program)
    finally:
        probe.rec.stop()
        probe.remove()
    assert result.rank_results[0] == "done"
    recv = [s for s in probe.rec.spans if s[2] == "simmpi.comm.p2p.recv"]
    assert len(recv) == 1
    _sid, _parent, _name, rank, start, end, self_s = recv[0]
    assert rank == 0
    assert end - start >= burn  # the span stayed open across the burn
    assert self_s < burn / 5  # but was not charged for it
    root1 = [s for s in probe.rec.spans if s[2] == "driver" and s[3] == 1]
    assert root1[0][6] >= burn * 0.9  # the burning rank was


def test_recorder_does_not_perturb_the_simulation():
    plain_result, plain_events = toy_run(None)
    traced_result, traced_events = toy_run(layers.Probe())
    assert traced_result.makespan == plain_result.makespan
    assert traced_events == plain_events
    assert traced_result.messages_sent == plain_result.messages_sent


def test_every_patch_is_removed():
    watched = [
        (Engine, "park"), (Engine, "run"), (Engine, "spawn"),
        (Communicator, "recv"), (Communicator, "bcast"),
        (repro.blast.engine.BlastSearch, "search_fragment"),
        # names re-bound in importing modules
        (repro.parallel.pioblast, "run"),
        (repro.blast.engine, "effective_search_space"),
        (karlin, "length_adjustment"),
        (repro.parallel.pioblast, "select_metas"),
        (workloads, "stage_inputs"),
    ]
    before = [vars(owner)[name] for owner, name in watched]
    probe = layers.Probe()
    probe.install()
    during = [vars(owner)[name] for owner, name in watched]
    assert all(d is not b for d, b in zip(during, before))
    assert len(probe.patches) > len(watched)
    probe.remove()
    after = [vars(owner)[name] for owner, name in watched]
    assert all(a is b for a, b in zip(after, before))
    assert len(probe.patches) == 0
    assert repro.parallel.pioblast.run is launcher.run


def test_benchmark_json_names_the_metrics_the_code_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (name, workloads.WORKLOADS[name].why) for name in bench_run.GATED
    ]
    assert set(workloads.WORKLOADS) == set(bench_run.WORKLOADS)
    assert workloads.DEFAULT_SEED == bench_run.DEFAULT_SEED
    assert [
        (m["name"], m["unit"], m["better"], m["bound"])
        for m in spec["end_to_end"]
    ] == [
        (n, u, b, bound) for n, u, b, bound, _limit in bench_run.END_TO_END
        if n not in bench_run.ZERO_CAPABLE
    ]
    assert [
        (m["name"], m["unit"], m["better"]) for m in spec["per_layer"]
    ] == layers.PER_LAYER
    assert spec["paths"] == ["bench"]


def test_compare_sections_names_the_failing_queries():
    want = b"preamble\nQuery= a\nAAA\nQuery= b\nBBB\nQuery= c\nCCC\n"
    assert workloads.compare_sections(want, want) == (3, set())
    one_bad = want.replace(b"BBB", b"BxB")
    assert workloads.compare_sections(one_bad, want) == (3, {1})
    # a missing section or a different preamble fails every query
    assert workloads.compare_sections(want[:-12], want) == (3, {0, 1, 2})
    assert workloads.compare_sections(b"x" + want, want) == (3, {0, 1, 2})


def test_a_failed_output_check_fails_the_command():
    rep = {
        "seed": 1, "host_s": 1.0, "setup_s": 0.1, "peak_rss_mb": 50.0,
        "virt": {"virt_makespan_s": 2.0}, "output_sha256": "00",
        "checked": "oracle", "attempted": 15, "failed": 2,
    }
    again = dict(rep, checked="sha", attempted=0, failed=0)
    e2e = bench_run.summarize([rep, again])
    assert (e2e["attempted"], e2e["failed"]) == (30, 4)
    assert e2e["failed_ops_share"]["value"] == 4 / 30
    assert bench_run.set_failures({"w": {"end_to_end": e2e}})
    ok = bench_run.summarize([dict(rep, failed=0)])
    assert not bench_run.set_failures({"w": {"end_to_end": ok}})
