"""Emit the machine-readable benchmark file (``BENCH_pr10.json``).

Runs the paper-regime experiments — the Table-1 32-process comparison,
the Figure-3(a) scalability sweep, the large np=128..1024 points, the
flat-vs-hierarchical comparison at np=256/512/1024, the
online-service scenario (Poisson arrivals, priority lane on/off, with
p50/p95/p99 latency and throughput in a ``latency`` section), and the
elastic hierarchical-service scenario (the same Poisson stream served
through replication groups, fault-free and through a whole-group kill)
— with metrics and tracing on, and stores each run's
:func:`repro.obs.export.run_metrics` dict (makespan, per-phase maxima,
counter totals, makespan attribution, critical-path decomposition)
under ``runs["<program>/np<N>"]``.

The ``headline`` section distills the hierarchy's argument: per
process count, the flat driver's worker-wait share of makespan (the
single master is the bottleneck the workers wait on) next to the
hierarchical runs' worst group-level coordinator-wait share
(``hier.group_coord_wait_share_max``).  The latter collapsing while
the former climbs past np=256 is the two-level design doing its job.
``headline["hier-service"]`` carries the robustness claim: the
interactive p95 of the stream served *through* a whole-group kill,
next to the fault-free p95 — the ratio staying under 2x is the
SLO-preserving-recovery acceptance point (FAULTS.md §5).

Two kinds of time appear in the file and must not be confused:

* **virtual** seconds (``makespan``, ``phases.*``) — simulated time from
  the cost model; deterministic, comparable across machines;
* **host** seconds (``host_s``, ``*_host_s``) — wall-clock time the run
  took on the machine that wrote the file; noisy, only comparable
  against baselines from similar hardware; ``bench/`` (BENCHMARK.json)
  is the harness that owns host time and attributes it by layer.

The ``kernel`` section times the BLAST search kernel directly (no
simulator): each scenario searches a synthetic database once and
records the host time (``batch_host_s``, the key the committed files
carry), the per-stage breakdown, and the gapped-DP work counters.  The
paper's data-access argument is made on GenBank *nt*-scale databases,
so scenarios cover 10^4-sequence blastn and blastp plus a 10^5-sequence
blastp point (see PERFORMANCE.md §2).

The file is the comparison baseline for :mod:`repro.obs.compare`::

    python -m repro.obs.bench --out BENCH_pr10.json         # full (slow)
    python -m repro.obs.bench --quick --out /tmp/now.json   # CI-sized
    python -m repro.obs.compare BENCH_pr10.json /tmp/now.json

``--quick`` shrinks the workload, the process counts, and the kernel
databases so the sweep finishes in seconds; quick files are only
comparable to quick files (the document records which flavour it is).
``--host-budget S`` makes the run fail (exit 3) if the total host time
exceeds ``S`` seconds — the hard wall-clock gate the CI perf-smoke job
relies on.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import time

from repro.blast.engine import (
    BlastSearch,
    ListDatabase,
    SearchParams,
    SearchStats,
)
from repro.experiments.fig3a import PROCESS_COUNTS
from repro.hier import ElasticConfig
from repro.obs.export import run_metrics
from repro.obs.tracer import Tracer
from repro.scenario import ExperimentWorkload, Scenario, run
from repro.service import ServiceConfig
from repro.workloads import (
    SynthSpec,
    synthesize_dna_records,
    synthesize_protein_records,
)

#: Figure-3(a) sweep plus the Table-1 point (32 is in both) plus the
#: large scheduler-stress points.  np=512 and np=1024 are the flat
#: baselines the hierarchical sweep is compared against.
FULL_COUNTS = PROCESS_COUNTS + (128, 256, 512, 1024)
#: CI keeps the np=128 and np=256 points: they are the scheduler-heavy
#: regime the simmpi fast path exists for, and the quick workload keeps
#: them cheap.
QUICK_COUNTS = (4, 8, 128, 256)
QUICK_QUERY_BYTES = 4_000

#: mpiBLAST's *physical* fragmentation cannot outgrow the database:
#: past ~255 fragments the 600-sequence workload produces empty
#: fragments (mpiformatdb materializes them; the karlin statistics then
#: reject a zero-length database).  The np=512/1024 flat points reuse
#: the np=256 fragment set — the surplus workers idle, which is itself
#: the flat-scaling story the hierarchy answers.  pioBLAST's virtual
#: partitioning clamps itself to the sequence count and needs no cap.
MPIBLAST_FRAG_CAP = 255

#: Flat-vs-hierarchical comparison points: (nprocs, ngroups).  Group
#: counts track ~sqrt(np) so neither level's master serves more than a
#: few dozen clients (see repro.hier.topology).
HIER_POINTS = ((256, 16), (512, 16), (1024, 32))
HIER_POINTS_QUICK = ((256, 16),)
HIER_MODE = "replicate"

#: Kernel scenarios: (program, database sequences, queries).
#: Sequences average 300 letters, so 10^4 sequences is a ~3 Mletter
#: fragment and 10^5 a ~30 Mletter one (one query in the quick set, so
#: CI measures the 10^5 regime inside the perf-smoke budget).
KERNEL_QUERIES = 4
KERNEL_FULL = (
    ("blastn", 10_000, KERNEL_QUERIES),
    ("blastp", 10_000, KERNEL_QUERIES),
    ("blastp", 100_000, KERNEL_QUERIES),
)
KERNEL_QUICK = (
    ("blastn", 1_000, KERNEL_QUERIES),
    ("blastp", 1_000, KERNEL_QUERIES),
    ("blastp", 100_000, 1),
)

#: Online-service scenario: a Poisson arrival stream against the warm
#: resident cluster, once with the interactive priority lane and once
#: as a single FIFO.  The two runs share the arrival seed, so their
#: ``latency.lanes.interactive.p95_s`` columns are directly comparable
#: (the priority lane's should be lower — that is the point).
SERVICE_NP = 16
SERVICE_NP_QUICK = 8
#: Arrival rate is tuned so the queue oversubscribes ``max_wave``
#: (otherwise every queued query rides the next wave and priority
#: cannot matter) without saturating the cluster (where the forced-scan
#: starvation bound floods waves and drowns the interactive lane).
SERVICE_RATE = 0.2
SERVICE_RATE_QUICK = 0.5
SERVICE_SEED = 7
SERVICE_MAX_WAVE = 4
SERVICE_MAX_SCAN_DEFER = 10
SERVICE_ADMISSION_DELAY = 20.0
#: The workload's sampled queries run 160-340 residues; 210 puts
#: roughly the shortest third on the interactive lane.
SERVICE_INTERACTIVE_MAX_LEN = 210

#: Elastic hierarchical-service scenario: the same Poisson stream
#: served through K replication groups, once fault-free and once with
#: a whole group (sub-master included) killed mid-stream.  Both runs
#: share the arrival seed, so their p95 columns are directly
#: comparable; ``headline["hier-service"]`` records the ratio (the
#: acceptance point is < 2x — recovery must preserve the latency SLO,
#: not merely the bytes).
HIER_SERVICE_NP = 32
HIER_SERVICE_NP_QUICK = 17
HIER_SERVICE_GROUPS = 4
HIER_SERVICE_GROUPS_QUICK = 3
HIER_SERVICE_KILL = "crash=group:g1@40"
#: Work-redispatch patience (ElasticConfig.redispatch_timeout): a bit
#: above the healthy per-wave service time under the paper-regime
#: costs, and far below the group-death silence budget the stretched
#: FT timeouts imply — this is what keeps the p95 through the kill
#: inside the SLO instead of waiting out a liveness deadline.
HIER_SERVICE_REDISPATCH = 90.0


def kernel_scenarios(
    scenarios=KERNEL_FULL, *, verbose: bool = False
) -> dict[str, dict]:
    """Time the search kernel per scenario.

    The global index memo is cleared before each timed run so no
    scenario inherits another's cached work.  Per scenario the entry
    carries the host seconds (``batch_host_s``), the per-stage host
    seconds (``stages``: scan / ungapped / gapped / render) and the
    gapped-DP work/health counters (``gapped_extensions``,
    ``gapped_dedup``, ``gapped_widenings``, ``gapped_fallbacks``,
    ``gapped_peak_cells``, ``gapped_rows``) — see OBSERVABILITY.md §6.
    """
    out: dict[str, dict] = {}
    for program, nseqs, nqueries in scenarios:
        if program == "blastn":
            recs = synthesize_dna_records(
                SynthSpec(num_sequences=nseqs, mean_length=300, seed=11)
            )
            params = SearchParams(program="blastn", gapped=False)
        else:
            recs = synthesize_protein_records(
                SynthSpec(num_sequences=nseqs, mean_length=300)
            )
            params = SearchParams(program="blastp")
        step = max(1, nseqs // nqueries)
        queries = [recs[i] for i in range(0, nseqs, step)][:nqueries]
        BlastSearch._GLOBAL_INDEX_MEMO.clear()
        eng = BlastSearch(params)
        db = ListDatabase(recs, eng.alphabet)
        stats = SearchStats()
        t0 = time.perf_counter()
        eng.search_fragment(
            queries,
            db,
            db_letters=db.total_letters,
            db_num_seqs=db.num_sequences,
            stats=stats,
        )
        host_s = time.perf_counter() - t0
        name = f"{program}/{nseqs}"
        out[name] = {
            "num_sequences": nseqs,
            "num_queries": len(queries),
            "db_letters": db.total_letters,
            "batch_host_s": host_s,
            "stages": {k: round(v, 4) for k, v in eng.stage_times.items()},
            "gapped_extensions": stats.gapped_extensions,
            "gapped_dedup": stats.gapped_dedup,
            "gapped_widenings": stats.gapped_widenings,
            "gapped_fallbacks": stats.gapped_fallbacks,
            "gapped_peak_cells": stats.gapped_peak_cells,
            "gapped_rows": stats.gapped_rows,
        }
        if verbose:
            print(f"kernel {name}: {host_s:.2f}s")
    return out


def _timed_run(runs: dict, name: str, scenario: Scenario, trace: bool):
    """The time-run-record step every simulated scenario shares: the
    run's :func:`run_metrics` plus its host seconds land in
    ``runs[name]``.  Returns ``(Run, host_s)``."""
    tracer = Tracer() if trace else None
    t0 = time.perf_counter()
    r = run(scenario, tracer)
    host_s = time.perf_counter() - t0
    runs[name] = run_metrics(r.result, program=scenario.driver)
    runs[name]["host_s"] = host_s
    return r, host_s


def bench_document(
    *, quick: bool = False, trace: bool = True, verbose: bool = False,
) -> dict:
    """Run the sweep and the kernel scenarios; build the bench document."""
    wl = ExperimentWorkload()
    counts = FULL_COUNTS
    kernels = KERNEL_FULL
    if quick:
        wl = wl.with_query_bytes(QUICK_QUERY_BYTES)
        counts = QUICK_COUNTS
        kernels = KERNEL_QUICK
    # Kernel scenarios run first: they are pure wall-clock measurements,
    # and timing them in a fresh process state (before the simulator
    # sweep has churned the allocator) keeps them reproducible.
    kernel = kernel_scenarios(kernels, verbose=verbose)
    runs: dict[str, dict] = {}
    for program in ("mpiblast", "pioblast"):
        for nprocs in counts:
            options = {}
            if program == "mpiblast" and nprocs - 1 > MPIBLAST_FRAG_CAP:
                options["num_fragments"] = MPIBLAST_FRAG_CAP
            name = f"{program}/np{nprocs}"
            r, host_s = _timed_run(
                runs, name,
                Scenario(program, nprocs, workload=wl, options=options),
                trace,
            )
            if verbose:
                print(
                    f"{name}: makespan {r.result.makespan:.1f}s, "
                    f"host {host_s:.2f}s, "
                    f"{len(r.result.events or [])} events"
                )
    hier_points = HIER_POINTS_QUICK if quick else HIER_POINTS
    for nprocs, ngroups in hier_points:
        name = f"hier/np{nprocs}"
        r, host_s = _timed_run(
            runs, name,
            Scenario("hier", nprocs, HIER_MODE, ngroups, workload=wl),
            trace,
        )
        if verbose:
            share = runs[name]["hier"]["group_coord_wait_share_max"]
            print(
                f"{name}: makespan {r.result.makespan:.1f}s, "
                f"host {host_s:.2f}s, K={ngroups}, "
                f"coord-wait share {share:.4f}"
            )
    service_np = SERVICE_NP_QUICK if quick else SERVICE_NP
    service_rate = SERVICE_RATE_QUICK if quick else SERVICE_RATE
    admission = dict(
        max_wave=SERVICE_MAX_WAVE,
        max_scan_defer=SERVICE_MAX_SCAN_DEFER,
        interactive_max_len=SERVICE_INTERACTIVE_MAX_LEN,
        admission_delay=SERVICE_ADMISSION_DELAY,
    )
    for label, priority in (("prio", True), ("fifo", False)):
        name = f"service-{label}/np{service_np}"
        r, host_s = _timed_run(
            runs, name,
            Scenario(
                "service", service_np, workload=wl, rate=service_rate,
                arrival_seed=SERVICE_SEED,
                service=ServiceConfig(priority=priority, **admission),
            ),
            trace,
        )
        if verbose:
            lat = r.outcome.latency
            print(
                f"{name}: {lat['all']['count']} queries in "
                f"{r.outcome.waves} waves, interactive p95 "
                f"{lat['lanes'].get('interactive', {}).get('p95_s', 0.0):.1f}s,"
                f" throughput {lat['throughput_qps']:.3f} q/s, "
                f"host {host_s:.2f}s"
            )
    hs_np = HIER_SERVICE_NP_QUICK if quick else HIER_SERVICE_NP
    hs_groups = HIER_SERVICE_GROUPS_QUICK if quick else HIER_SERVICE_GROUPS
    hs_latency: dict[str, dict] = {}
    for label, fault_spec in (("plain", None), ("groupkill",
                                                HIER_SERVICE_KILL)):
        name = f"hier-service-{label}/np{hs_np}"
        r, host_s = _timed_run(
            runs, name,
            Scenario(
                "hier-service", hs_np, HIER_MODE, hs_groups, workload=wl,
                faults=fault_spec, rate=service_rate,
                arrival_seed=SERVICE_SEED, service=ServiceConfig(**admission),
                elastic=ElasticConfig(
                    redispatch_timeout=HIER_SERVICE_REDISPATCH
                ),
            ),
            trace,
        )
        hs_latency[label] = r.outcome.latency
        if verbose:
            lat = r.outcome.latency
            print(
                f"{name}: {lat['all']['count']} queries in "
                f"{r.outcome.waves} waves, K={hs_groups}, p95 "
                f"{lat['all']['p95_s']:.1f}s, "
                f"{r.outcome.degraded_queries} degraded, "
                f"{r.outcome.regroups} regroups, host {host_s:.2f}s"
            )
    headline: dict[str, dict] = {}

    def _p95(lat: dict) -> float:
        inter = lat.get("lanes", {}).get("interactive") or {}
        return inter.get("p95_s", lat["all"]["p95_s"])

    hs_plain, hs_kill = hs_latency["plain"], hs_latency["groupkill"]
    headline["hier-service"] = {
        "nprocs": hs_np,
        "groups": hs_groups,
        "fault": HIER_SERVICE_KILL,
        "fault_free_p95_s": _p95(hs_plain),
        "groupkill_p95_s": _p95(hs_kill),
        "p95_ratio": _p95(hs_kill) / max(_p95(hs_plain), 1e-12),
    }
    for nprocs, ngroups in hier_points:
        entry: dict = {"hier_groups": ngroups}
        for program in ("mpiblast", "pioblast"):
            r = runs.get(f"{program}/np{nprocs}")
            if r and r.get("makespan") and "attribution_rank_max" in r:
                entry[f"{program}_wait_share"] = (
                    r["attribution_rank_max"].get("wait", 0.0)
                    / r["makespan"]
                )
        hier_run = runs[f"hier/np{nprocs}"]
        entry["hier_coord_wait_share"] = hier_run.get("hier", {}).get(
            "group_coord_wait_share_max", 0.0
        )
        headline[f"np{nprocs}"] = entry
    return {
        "meta": {
            "source": "repro.obs.bench",
            "quick": quick,
            "process_counts": list(counts),
            "hier_points": [list(p) for p in hier_points],
            "hier_mode": HIER_MODE,
            "query_bytes": wl.query_bytes,
            "service": {
                "nprocs": service_np,
                "rate": service_rate,
                "seed": SERVICE_SEED,
                "max_wave": SERVICE_MAX_WAVE,
                "max_scan_defer": SERVICE_MAX_SCAN_DEFER,
                "interactive_max_len": SERVICE_INTERACTIVE_MAX_LEN,
            },
            "hier_service": {
                "nprocs": hs_np,
                "groups": hs_groups,
                "mode": HIER_MODE,
                "rate": service_rate,
                "seed": SERVICE_SEED,
                "fault": HIER_SERVICE_KILL,
                "redispatch_timeout": HIER_SERVICE_REDISPATCH,
            },
        },
        "headline": headline,
        "runs": runs,
        "kernel": kernel,
    }


def total_host_s(doc: dict) -> float:
    """Total wall-clock seconds recorded in a bench document."""
    total = sum(r.get("host_s", 0.0) for r in doc.get("runs", {}).values())
    for entry in doc.get("kernel", {}).values():
        total += entry.get("batch_host_s", 0.0)
    return total


def write_bench(
    path: str | pathlib.Path,
    *, quick: bool = False, trace: bool = True, verbose: bool = False,
) -> dict:
    doc = bench_document(quick=quick, trace=trace, verbose=verbose)
    pathlib.Path(path).write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n"
    )
    return doc


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m repro.obs.bench",
        description=(
            "Run the table1/fig3a/np128 sweep and the kernel scenarios, "
            "write bench JSON."
        ),
    )
    ap.add_argument("--out", default="BENCH_pr10.json")
    ap.add_argument("--quick", action="store_true",
                    help="small workload + few process counts (CI)")
    ap.add_argument("--no-trace", action="store_true",
                    help="skip tracing (no attribution/critical path)")
    ap.add_argument("--host-budget", type=float, default=None, metavar="S",
                    help="fail (exit 3) if total host time exceeds S "
                         "seconds")
    ns = ap.parse_args(argv)
    doc = write_bench(
        ns.out, quick=ns.quick, trace=not ns.no_trace, verbose=True
    )
    spent = total_host_s(doc)
    print(f"wrote {ns.out} ({len(doc['runs'])} runs, "
          f"{len(doc['kernel'])} kernel scenarios, "
          f"host time {spent:.1f}s)")
    if ns.host_budget is not None and spent > ns.host_budget:
        print(f"HOST BUDGET EXCEEDED: {spent:.1f}s > {ns.host_budget:.1f}s")
        return 3
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
