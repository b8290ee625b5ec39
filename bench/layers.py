"""Which public callables the traced pass wraps, and the per-layer
metrics it derives from them.

Everything here is applied from outside: ``Probe.install`` patches
classes and module-level names of ``repro`` for the length of one timed
region and ``Probe.remove`` puts every one of them back.  ``PER_LAYER``
is the single list of per-layer metric names, units and directions;
``BENCHMARK.json`` repeats it and ``test_trace.py`` holds the two equal.
"""

from __future__ import annotations

import functools

from hostspans import ENGINE, OTHER, Patches, Recorder

from repro.blast import karlin
from repro.blast.engine import BlastSearch, SearchStats
from repro.blast.output import ReportWriter
from repro.blast.seeding import WordIndex
from repro.experiments.common import build_workload
from repro.obs import run_metrics
from repro.parallel import (
    CheckpointStore,
    load_fragment_pieces,
    mpiformatdb,
    partition_database,
    stage_inputs,
)
from repro.parallel.results import (
    dedupe_candidates,
    merge_select,
    select_metas,
)
from repro.service.scheduler import AdmissionScheduler
from repro.simmpi import (
    TIMEOUT,
    Communicator,
    Engine,
    FilesystemModel,
    MPIFile,
    ProcContext,
)
from repro.simmpi.launcher import run as launcher_run

#: modules whose namespaces may hold a ``from m import fn`` copy
PATCH_PREFIXES = ("repro", "workloads")

P2P = ("send", "isend", "recv", "irecv", "probe")  # + recv_with_timeout
COLLECTIVES = ("bcast", "gather", "gatherv", "scatter", "allgather",
               "reduce", "allreduce", "alltoall", "barrier")
IOFILE = ("read_at", "write_at", "read_at_all", "write_at_all",
          "read_at_reliable", "write_at_reliable")
FILESYSTEM = ("read", "write", "append", "write_atomic", "read_atomic")
REPORT = ("preamble", "query_header", "alignment_block", "query_footer")
KARLIN = ("karlin_params", "gapped_params", "effective_search_space",
          "length_adjustment")
SCHEDULER = ("enqueue", "wave_ready", "next_wave")
STAGES = ("scan", "ungapped", "gapped", "render")
STATS = ("letters_scanned", "word_hits", "triggers",
         "ungapped_extensions", "gapped_extensions", "gapped_dedup",
         "alignments", "gapped_widenings", "gapped_fallbacks",
         "gapped_peak_cells")

#: self-time buckets -> the layer whose host seconds they are
LAYER_OF = {
    "blast": "blast", "simmpi": "simmpi", "driver": "driver",
    "parallel": "driver", "service": "driver", "setup": "setup",
    OTHER: "other",
}

_S, _N, _R = "s", "count", "ratio"
PER_LAYER: list[tuple[str, str, str]] = [
    # (name, unit, better)
    ("failed_ops_share", _R, "lower"),
    ("virt_nonsearch_share", _R, "lower"),
    ("blast.engine.calls", _N, "lower"),
    ("blast.engine.call_s", _S, "lower"),
    ("blast.engine.ms_per_call", "ms", "lower"),
    ("blast.engine.fixed_s", _S, "lower"),
    ("blast.engine.whole_db_s", _S, "lower"),
    ("blast.engine.frag_penalty", _R, "lower"),
    ("blast.engine.render_s", _S, "lower"),
    ("blast.seeding.scan_s", _S, "lower"),
    ("blast.seeding.mletters_per_s", "Mletters/s", "higher"),
    ("blast.seeding.index_builds", _N, "lower"),
    ("blast.seeding.index_build_s", _S, "lower"),
    ("blast.seeding.triggers_per_hit", _R, "lower"),
    ("blast.extend.ungapped_s", _S, "lower"),
    ("blast.extend.gapped_s", _S, "lower"),
    ("blast.extend.gapped_per_trigger", _R, "lower"),
    ("blast.extend.widening_share", _R, "lower"),
    ("blast.karlin.calls", _N, "lower"),
    ("blast.karlin.s", _S, "lower"),
    *[(f"blast.stats.{k}", _N, "lower") for k in STATS],
    ("blast.output.blocks", _N, "lower"),
    ("blast.output.bytes", "bytes", "lower"),
    ("blast.output.s", _S, "lower"),
    ("simmpi.engine.parks", _N, "lower"),
    ("simmpi.engine.sched_s", _S, "lower"),
    ("simmpi.engine.us_per_park", "us", "lower"),
    ("simmpi.engine.events", _N, "lower"),
    ("simmpi.engine.events_per_host_s", "1/s", "higher"),
    ("simmpi.launcher.spawn_s", _S, "lower"),
    ("simmpi.launcher.compute_calls", _N, "lower"),
    ("simmpi.comm.p2p_calls", _N, "lower"),
    ("simmpi.comm.p2p_self_s", _S, "lower"),
    ("simmpi.comm.coll_calls", _N, "lower"),
    ("simmpi.comm.coll_self_s", _S, "lower"),
    ("simmpi.comm.messages", _N, "lower"),
    ("simmpi.comm.bytes", "bytes", "lower"),
    ("simmpi.comm.timeouts", _N, "lower"),
    ("simmpi.comm.timeout_share", _R, "lower"),
    ("simmpi.iofile.calls", _N, "lower"),
    ("simmpi.iofile.self_s", _S, "lower"),
    ("simmpi.iofile.collective_writes", _N, "lower"),
    ("simmpi.filesystem.read_ops", _N, "lower"),
    ("simmpi.filesystem.write_ops", _N, "lower"),
    ("simmpi.filesystem.self_s", _S, "lower"),
    ("simmpi.faults.injected", _N, "lower"),
    ("simmpi.faults.detected", _N, "lower"),
    ("simmpi.faults.recovered", _N, "lower"),
    ("simmpi.faults.io_retries", _N, "lower"),
    ("driver.self_s", _S, "lower"),
    ("driver.us_per_message", "us", "lower"),
    ("parallel.results.merge_calls", _N, "lower"),
    ("parallel.results.merge_s", _S, "lower"),
    ("parallel.checkpoint.saves", _N, "lower"),
    ("parallel.checkpoint.save_s", _S, "lower"),
    ("parallel.warmdb.load_s", _S, "lower"),
    ("parallel.warmdb.partition_s", _S, "lower"),
    ("service.scheduler.waves", _N, "lower"),
    ("service.scheduler.self_s", _S, "lower"),
    ("service.queries", _N, "higher"),
    ("service.degraded", _N, "lower"),
    ("service.shed", _N, "lower"),
    ("service.p95_s", "virt_s", "lower"),
    ("service.interactive_p95_s", "virt_s", "lower"),
    ("service.throughput_qps", "1/virt_s", "higher"),
    ("hier.regroups", _N, "lower"),
    ("hier.redispatches", _N, "lower"),
    ("hier.promotions", _N, "lower"),
    ("hier.group_coord_wait_share_max", _R, "lower"),
    *[(f"virt.phase.{p}_s", "virt_s", "lower")
      for p in ("input", "copy", "search", "output")],
    *[(f"virt.baseline.{p}_s", "virt_s", "lower")
      for p in ("makespan", "copy", "output")],
    *[(f"virt.cp.{c}_s", "virt_s", "lower")
      for c in ("compute", "io", "comm", "wait", "idle")],
    ("obs.tracer.events", _N, "lower"),
    ("obs.export.run_metrics_s", _S, "lower"),
    ("obs.trace_overhead_share", _R, "lower"),
    *[(f"setup.{k}_s", _S, "lower")
      for k in ("import", "synth", "stage_inputs", "mpiformatdb", "load")],
    ("host.traced_s", _S, "lower"),
    *[(f"host.{layer}_s", _S, "lower")
      for layer in ("blast", "simmpi", "driver", "setup", "other")],
    ("host.accounted_share", _R, "higher"),
]


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


class Probe:
    """The recorder plus the patch table that feeds it."""

    def __init__(self) -> None:
        self.rec = Recorder()
        self.patches = Patches()
        self.stats = SearchStats()

    def _search_fragment(self, fn):
        rec, totals = self.rec, self.stats

        @functools.wraps(fn)
        def wrapper(engine, *args, **kwargs):
            before = dict(engine.stage_times)
            rec.push("blast.engine", "blast.engine.search_fragment")
            try:
                return fn(engine, *args, **kwargs)
            finally:
                rec.pop()
                # stage_times accumulates per engine instance
                for stage, t in engine.stage_times.items():
                    rec.count(f"stage.{stage}", t - before.get(stage, 0.0))
                stats = kwargs.get("stats")
                if stats is not None:
                    totals.merge(stats)

        return wrapper

    # -- install / remove ----------------------------------------------
    def install(self) -> None:
        rec, p = self.rec, self.patches

        def spans(cls, names, bucket, after=None):
            for name in names:
                p.method(cls, name, functools.partial(
                    rec.span, bucket, f"{bucket}.{name}", after=after))

        def fspan(fn, bucket, label, after=None):
            p.function(
                fn, functools.partial(rec.span, bucket, label, after=after),
                prefixes=PATCH_PREFIXES,
            )

        # what some wrappers count besides timing
        def timed_out(got):
            if got is TIMEOUT:
                rec.count("comm.timeouts")

        def piece_bytes(piece):
            rec.count("output.bytes", len(piece))

        def rank_window(_result):
            rec.count("launcher.rank_window_s", rec.take_rank_window())

        # simmpi: the engine's single blocking primitive, rank roots
        p.method(Engine, "park",
                 functools.partial(rec.parking, "simmpi.engine.park"))
        p.method(Engine, "run",
                 functools.partial(rec.parking, "simmpi.engine.run"))
        p.method(Engine, "spawn",
                 functools.partial(rec.rank_root, "driver"))
        fspan(launcher_run, "simmpi.launcher", "simmpi.launcher.run",
              after=rank_window)
        spans(ProcContext, ("compute",), "simmpi.launcher")
        spans(Communicator, P2P, "simmpi.comm.p2p")
        spans(Communicator, ("recv_with_timeout",), "simmpi.comm.p2p",
              after=timed_out)
        spans(Communicator, COLLECTIVES, "simmpi.comm.coll")
        spans(MPIFile, IOFILE, "simmpi.iofile")
        spans(FilesystemModel, FILESYSTEM, "simmpi.filesystem")
        # blast
        p.method(BlastSearch, "search_fragment", self._search_fragment)
        p.method(WordIndex, "__init__", functools.partial(
            rec.span, "blast.seeding", "blast.seeding.index_build"))
        for name in KARLIN:
            fspan(getattr(karlin, name), "blast.karlin",
                  f"blast.karlin.{name}")
        spans(ReportWriter, REPORT, "blast.output", after=piece_bytes)
        # driver helpers
        for fn in (merge_select, select_metas, dedupe_candidates):
            fspan(fn, "parallel.results",
                  f"parallel.results.{fn.__name__}")
        spans(CheckpointStore, ("save", "load_latest"),
              "parallel.checkpoint")
        fspan(load_fragment_pieces, "parallel.warmdb.load",
              "parallel.warmdb.load")
        fspan(partition_database, "parallel.warmdb.partition",
              "parallel.warmdb.partition")
        spans(AdmissionScheduler, SCHEDULER, "service.scheduler")
        # set-up that run_*_raw does inside the timed region
        fspan(build_workload, "setup.synth", "setup.synth")
        fspan(stage_inputs, "setup.stage_inputs", "setup.stage_inputs")
        fspan(mpiformatdb, "setup.mpiformatdb", "setup.mpiformatdb")

    def remove(self) -> None:
        self.patches.restore()

    # -- derived metrics -----------------------------------------------
    def host_by_layer(self) -> dict[str, float]:
        """Self seconds of the traced region summed per layer."""
        out = {layer: 0.0 for layer in set(LAYER_OF.values())}
        for bucket, t in self.rec.self_s.items():
            out[LAYER_OF[bucket.split(".", 1)[0]]] += t
        return out

    def metrics(self, wl, *, untraced_host_s: float,
                setup_s: dict[str, float]) -> dict[str, float]:
        """Every ``PER_LAYER`` value except the two copied from the
        end-to-end side (``failed_ops_share``, ``virt_nonsearch_share``).

        ``wl`` is the workload after its traced ``run`` and ``check``;
        ``setup_s`` the set-up timers taken before the region.
        """
        rec, st = self.rec, self.stats
        self_s, calls, incl, cnt = (
            rec.self_s, rec.calls, rec.incl_s, rec.counters
        )

        def ncalls(prefix: str) -> int:
            return sum(n for k, n in calls.items() if k.startswith(prefix))

        host_s = rec.wall_s
        m: dict[str, float] = {}
        # blast
        ncall = calls.get("blast.engine.search_fragment", 0)
        call_s = incl.get("blast.engine.search_fragment", 0.0)
        stage = {s: cnt.get(f"stage.{s}", 0.0) for s in STAGES}
        results = wl.run_results()
        whole = wl.whole_db_s or call_s
        m["blast.engine.calls"] = ncall
        m["blast.engine.call_s"] = call_s
        m["blast.engine.ms_per_call"] = 1e3 * _ratio(call_s, ncall)
        m["blast.engine.fixed_s"] = call_s - sum(stage.values())
        m["blast.engine.whole_db_s"] = whole
        m["blast.engine.frag_penalty"] = _ratio(
            call_s, whole * max(len(results), 1)
        )
        m["blast.engine.render_s"] = stage["render"]
        m["blast.seeding.scan_s"] = stage["scan"]
        m["blast.seeding.mletters_per_s"] = _ratio(
            st.letters_scanned / 1e6, stage["scan"]
        )
        m["blast.seeding.index_builds"] = calls.get(
            "blast.seeding.index_build", 0
        )
        m["blast.seeding.index_build_s"] = incl.get(
            "blast.seeding.index_build", 0.0
        )
        m["blast.seeding.triggers_per_hit"] = _ratio(
            st.triggers, st.word_hits
        )
        m["blast.extend.ungapped_s"] = stage["ungapped"]
        m["blast.extend.gapped_s"] = stage["gapped"]
        m["blast.extend.gapped_per_trigger"] = _ratio(
            st.gapped_extensions, st.triggers
        )
        m["blast.extend.widening_share"] = _ratio(
            st.gapped_widenings, st.gapped_extensions
        )
        m["blast.karlin.calls"] = ncalls("blast.karlin.")
        m["blast.karlin.s"] = self_s.get("blast.karlin", 0.0)
        for k in STATS:
            m[f"blast.stats.{k}"] = getattr(st, k)
        m["blast.output.blocks"] = calls.get(
            "blast.output.alignment_block", 0
        )
        m["blast.output.bytes"] = cnt.get("output.bytes", 0)
        m["blast.output.s"] = self_s.get("blast.output", 0.0)
        # simmpi
        parks = calls.get("simmpi.engine.park", 0)
        sched_s = self_s.get(ENGINE, 0.0)
        events = sum(len(r.events or ()) for r in results)
        m["simmpi.engine.parks"] = parks
        m["simmpi.engine.sched_s"] = sched_s
        m["simmpi.engine.us_per_park"] = 1e6 * _ratio(sched_s, parks)
        m["simmpi.engine.events"] = events
        m["simmpi.engine.events_per_host_s"] = _ratio(events, host_s)
        m["simmpi.launcher.spawn_s"] = incl.get(
            "simmpi.launcher.run", 0.0
        ) - cnt.get("launcher.rank_window_s", 0.0)
        m["simmpi.launcher.compute_calls"] = calls.get(
            "simmpi.launcher.compute", 0
        )
        m["simmpi.comm.p2p_calls"] = ncalls("simmpi.comm.p2p.")
        m["simmpi.comm.p2p_self_s"] = self_s.get("simmpi.comm.p2p", 0.0)
        m["simmpi.comm.coll_calls"] = ncalls("simmpi.comm.coll.")
        m["simmpi.comm.coll_self_s"] = self_s.get("simmpi.comm.coll", 0.0)
        m["simmpi.comm.messages"] = sum(r.messages_sent for r in results)
        m["simmpi.comm.bytes"] = sum(r.bytes_sent for r in results)
        timeouts = cnt.get("comm.timeouts", 0)
        m["simmpi.comm.timeouts"] = timeouts
        m["simmpi.comm.timeout_share"] = _ratio(
            timeouts, calls.get("simmpi.comm.p2p.recv_with_timeout", 0)
        )
        m["simmpi.iofile.calls"] = ncalls("simmpi.iofile.")
        m["simmpi.iofile.self_s"] = self_s.get("simmpi.iofile", 0.0)
        m["simmpi.iofile.collective_writes"] = calls.get(
            "simmpi.iofile.write_at_all", 0
        )
        m["simmpi.filesystem.read_ops"] = sum(
            r.fs_read_ops for r in results
        )
        m["simmpi.filesystem.write_ops"] = sum(
            r.fs_write_ops for r in results
        )
        m["simmpi.filesystem.self_s"] = self_s.get("simmpi.filesystem", 0.0)

        def faults(prefix: str) -> int:
            return sum(r.fault_report.count(prefix) for r in results)

        m["simmpi.faults.injected"] = faults("inject:")
        m["simmpi.faults.detected"] = faults("detect:")
        m["simmpi.faults.recovered"] = faults("recover:")
        m["simmpi.faults.io_retries"] = faults("recover:io-retry")
        # driver
        driver_s = self_s.get("driver", 0.0)
        m["driver.self_s"] = driver_s
        m["driver.us_per_message"] = 1e6 * _ratio(
            driver_s, m["simmpi.comm.messages"]
        )
        m["parallel.results.merge_calls"] = ncalls("parallel.results.")
        m["parallel.results.merge_s"] = self_s.get("parallel.results", 0.0)
        m["parallel.checkpoint.saves"] = calls.get(
            "parallel.checkpoint.save", 0
        )
        m["parallel.checkpoint.save_s"] = self_s.get(
            "parallel.checkpoint", 0.0
        )
        m["parallel.warmdb.load_s"] = self_s.get("parallel.warmdb.load", 0.0)
        m["parallel.warmdb.partition_s"] = self_s.get(
            "parallel.warmdb.partition", 0.0
        )
        m["service.scheduler.self_s"] = self_s.get("service.scheduler", 0.0)
        # virtual decomposition and service numbers, from the primary
        # program's own records (run_metrics is the obs layer's analysis,
        # timed here because it runs after the region)
        virt = wl.virtual()
        rm: dict = {}
        rm_s = 0.0
        if results:
            t0 = rec.clock()
            rm = run_metrics(results[-1])
            rm_s = rec.clock() - t0
        lat, hier = rm.get("latency", {}), rm.get("hier", {})
        glob = rm.get("global_counters", {})
        m["service.scheduler.waves"] = lat.get("waves", 0)
        m["service.queries"] = lat.get("queries", 0)
        m["service.degraded"] = lat.get("degraded_queries", 0)
        m["service.shed"] = lat.get("shed_queries", 0)
        m["service.p95_s"] = lat.get("p95_s", 0.0)
        m["service.interactive_p95_s"] = lat.get(
            "lanes.interactive.p95_s", 0.0
        )
        m["service.throughput_qps"] = lat.get("throughput_qps", 0.0)
        m["hier.regroups"] = hier.get("regroups", 0)
        m["hier.redispatches"] = glob.get("hier.redispatches", 0)
        m["hier.promotions"] = faults("recover:promote")
        m["hier.group_coord_wait_share_max"] = hier.get(
            "group_coord_wait_share_max", 0.0
        )
        if results:
            phases = rm["phases"]
            cp = rm["critical_path"]
        else:
            phases = {"search": virt["virt_makespan_s"]}
            cp = {"compute": virt["virt_makespan_s"]}
        for ph in ("input", "copy", "search", "output"):
            m[f"virt.phase.{ph}_s"] = phases.get(ph, 0.0)
        base = results[0] if len(results) > 1 else None
        m["virt.baseline.makespan_s"] = base.makespan if base else 0.0
        for ph in ("copy", "output"):
            m[f"virt.baseline.{ph}_s"] = base.phase_max(ph) if base else 0.0
        for c in ("compute", "io", "comm", "wait", "idle"):
            m[f"virt.cp.{c}_s"] = cp.get(c, 0.0)
        # obs
        m["obs.tracer.events"] = events
        m["obs.export.run_metrics_s"] = rm_s
        m["obs.trace_overhead_share"] = _ratio(
            host_s - untraced_host_s, untraced_host_s
        )
        # set-up: timers before the region plus spans inside it
        for k in ("import", "synth", "stage_inputs", "mpiformatdb", "load"):
            m[f"setup.{k}_s"] = (
                setup_s.get(k, 0.0) + self_s.get(f"setup.{k}", 0.0)
            )
        # the whole
        layers = self.host_by_layer()
        m["host.traced_s"] = host_s
        for layer, t in layers.items():
            m[f"host.{layer}_s"] = t
        m["host.accounted_share"] = _ratio(host_s - layers["other"], host_s)
        return m
