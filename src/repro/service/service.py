"""The resident query service: a long-lived master over warm workers.

Where the batch drivers run once (setup → search → output → exit), the
service keeps the cluster *resident*: workers load their database
fragments once at startup (:func:`repro.parallel.warmdb.load_fragment_pieces`)
and then answer any number of search waves against those warm,
in-memory volumes.  The master is an event loop on the virtual clock —
admit arrivals, compose waves (:class:`repro.service.scheduler.AdmissionScheduler`),
dispatch, merge, fetch, record latency — that only writes the report
file when the last admitted query has been answered.

Protocol (point-to-point only — no collectives, so a worker death can
never deadlock the service; cf. the FT pioBLAST rationale in FAULTS.md):

====================  ================================================
master → worker        ``(kind, data)`` on ``TAG_SRV_CMD``
  ``setup``            ``(info, index_bytes, {fid: pieces})`` — load
                       warm fragments, ack ``loaded``
  ``adopt``            ``{fid: pieces}`` — load a dead peer's fragments
  ``wave``             ``(wave_no, [(qid, record)...], [fid...])`` —
                       search the listed warm fragments for the wave's
                       queries, reply ``metas``
  ``fetch``            ``(wave_no, [(fid, lid)...])`` — reply the
                       selected rendered blocks
  ``done``             shut down, return stats
worker → master        ``(rank, kind, data)`` on ``TAG_SRV_MSG``
====================  ================================================

Fault handling: the master bounds every dispatched obligation with a
deadline (``FTParams`` timeouts); a silent worker is declared dead, its
fragments are adopted by the lowest surviving rank, and the in-flight
wave is re-searched there.  Rendering is deterministic, so re-searched
blocks are byte-identical and the output never depends on who died —
the concatenated per-query reports always equal the serial oracle's.

The fragment map is pinned at startup
(:func:`repro.parallel.warmdb.fingerprint_database`); a database
re-partitioned mid-run fails the next wave fast with a clear
:exc:`ValueError` instead of searching stale byte ranges.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from typing import Any

from repro.blast.engine import BlastSearch
from repro.obs.events import EV_QUERY
from repro.obs.latency import flatten_latency, latency_summary
from repro.parallel.common import (
    footer_bytes_for,
    header_bytes_for,
    parse_index,
    writer_for,
)
from repro.parallel.config import FTParams, ParallelConfig
from repro.parallel.pullrpc import TAG_TABLE
from repro.parallel.results import select_metas
from repro.parallel.warmdb import (
    check_fingerprint,
    fingerprint_database,
    load_fragment_pieces,
    partition_database,
    search_loaded_pieces,
)
from repro.service.arrivals import QueryJob
from repro.service.scheduler import AdmissionScheduler, ServiceConfig
from repro.simmpi import (
    FileStore,
    PlatformSpec,
    ProcContext,
    RunResult,
    Status,
)
from repro.simmpi.comm import ANY_SOURCE, TIMEOUT
from repro.simmpi.faults import FaultPlan
from repro.simmpi.launcher import run

TAG_SRV_CMD = TAG_TABLE["service.SRV_CMD"]
TAG_SRV_MSG = TAG_TABLE["service.SRV_MSG"]


# ----------------------------------------------------------------------
# master
# ----------------------------------------------------------------------
def _master(
    ctx: ProcContext,
    cfg: ParallelConfig,
    jobs: tuple[QueryJob, ...],
    scfg: ServiceConfig,
) -> dict:
    comm, cost, ft = ctx.comm, cfg.cost, cfg.ft
    sim = ctx.engine
    report = ctx.fault_report
    metrics = ctx.cluster.metrics
    tracer = ctx.cluster.tracer
    nworkers = ctx.size - 1
    nfrag = cfg.fragments_for(nworkers)

    ctx.compute(cost.init_seconds())
    # Pin the volume layout the fragment map is computed from: any
    # mid-run re-partition must fail the next wave, not corrupt it.
    db_fp = fingerprint_database(ctx.fs.store, cfg.db_name)
    info, frags, index_bytes = partition_database(ctx, cfg, nfrag)
    engine = BlastSearch(cfg.search)
    writer = writer_for(engine, info)

    # -- cluster state ----------------------------------------------------
    alive: set[int] = set(range(1, ctx.size))
    holder: dict[int, int] = {
        fid: 1 + (fid % nworkers) for fid in range(nfrag)
    }
    deadline: dict[int, float] = {}  # rank -> obligation deadline

    for w in sorted(alive):
        assign = {f: frags[f] for f, h in holder.items() if h == w}
        comm.isend(
            ("setup", (info, index_bytes, assign)), dest=w, tag=TAG_SRV_CMD
        )

    def declare_dead(w: int, why: str) -> tuple[int, list[int]]:
        """Remove ``w``; re-home its fragments to the lowest survivor."""
        alive.discard(w)
        deadline.pop(w, None)
        report.record(sim.now, "detect:worker-dead", w, why)
        orphans = sorted(f for f, h in holder.items() if h == w)
        if not alive:
            raise RuntimeError(
                "service lost every worker; admitted queries cannot "
                "be answered"
            )
        adopter = min(alive)
        for f in orphans:
            holder[f] = adopter
        if orphans:
            comm.isend(
                ("adopt", {f: frags[f] for f in orphans}),
                dest=adopter, tag=TAG_SRV_CMD,
            )
            report.record(sim.now, "recover:adopt", tuple(orphans), adopter)
        return adopter, orphans

    def sweep_deaths(why: str) -> bool:
        """Declare every rank whose obligation deadline passed."""
        died = False
        for w in sorted(set(deadline) & alive):
            if sim.now > deadline[w]:
                declare_dead(w, why)
                died = True
        return died

    # -- wave machinery ---------------------------------------------------
    def collect_metas(
        wave_no: int, jobs_payload: list, got: dict[int, list]
    ) -> None:
        """Pump messages until every fragment reported wave metas.

        Missing fragments are (re)dispatched to their current holder
        whenever it is alive and idle — this one rule heals worker
        deaths (the adopter re-searches, deterministically) and lost
        dispatches alike.
        """
        while len(got) < nfrag:
            st = Status()
            msg = comm.recv_with_timeout(
                source=ANY_SOURCE, tag=TAG_SRV_MSG,
                timeout=ft.master_tick, status=st,
            )
            now = sim.now
            if msg is TIMEOUT:
                sweep_deaths("search-timeout")
                by_w: dict[int, list[int]] = {}
                for f in range(nfrag):
                    if f not in got:
                        by_w.setdefault(holder[f], []).append(f)
                for w, fids in sorted(by_w.items()):
                    if w in alive and w not in deadline:
                        comm.isend(
                            ("wave", (wave_no, jobs_payload, fids)),
                            dest=w, tag=TAG_SRV_CMD,
                        )
                        deadline[w] = now + ft.search_timeout
                continue
            w, kind, data = msg
            if w not in alive:
                continue
            if kind == "metas":
                msg_wave, by_fid = data
                deadline.pop(w, None)
                if msg_wave == wave_no:
                    for f, metas in by_fid.items():
                        if f not in got:
                            got[f] = metas
            # "loaded" acks (and stale replies) count only as liveness.

    def fetch_blocks(
        wave_no: int, jobs_payload: list, needed: list[tuple[int, int]]
    ) -> dict[tuple[int, int], bytes]:
        """Fetch the selected rendered blocks from their holders."""
        blocks: dict[tuple[int, int], bytes] = {}

        def dispatch(keys: list[tuple[int, int]], *, research: bool) -> None:
            by_w: dict[int, list[tuple[int, int]]] = {}
            for fid, lid in keys:
                by_w.setdefault(holder[fid], []).append((fid, lid))
            now = sim.now
            for w, reqs in sorted(by_w.items()):
                if w not in alive or w in deadline:
                    continue
                if research:
                    # The new holder never searched this wave: re-search
                    # its adopted fragments first (deterministic blocks).
                    fids = sorted({f for f, _l in reqs})
                    comm.isend(
                        ("wave", (wave_no, jobs_payload, fids)),
                        dest=w, tag=TAG_SRV_CMD,
                    )
                comm.isend(
                    ("fetch", (wave_no, sorted(reqs))),
                    dest=w, tag=TAG_SRV_CMD,
                )
                deadline[w] = now + ft.search_timeout + ft.write_timeout

        dispatch(needed, research=False)
        while len(blocks) < len(needed):
            st = Status()
            msg = comm.recv_with_timeout(
                source=ANY_SOURCE, tag=TAG_SRV_MSG,
                timeout=ft.master_tick, status=st,
            )
            if msg is TIMEOUT:
                died = sweep_deaths("fetch-timeout")
                missing = [k for k in needed if k not in blocks]
                dispatch(missing, research=died)
                continue
            w, kind, data = msg
            if w not in alive:
                continue
            if kind == "blocks":
                msg_wave, triples = data
                deadline.pop(w, None)
                if msg_wave == wave_no:
                    for fid, lid, blk in triples:
                        blocks[(fid, lid)] = blk
            # re-search "metas" duplicates are byte-identical; ignore.
        return blocks

    # -- the service loop -------------------------------------------------
    arrivals = deque(sorted(jobs, key=lambda j: (j.arrival, j.qid)))
    sched = AdmissionScheduler(scfg)
    sections: dict[int, bytes] = {}
    samples_by_lane: dict[str, list[float]] = {}
    per_query: list[dict] = []
    total = len(jobs)
    first_arrival = arrivals[0].arrival
    last_completion = first_arrival
    wave_no = 0

    def run_wave() -> None:
        nonlocal wave_no, last_completion
        wave_no += 1
        wave = sched.next_wave(sim.now)
        check_fingerprint(
            ctx.fs.store, db_fp, where=f"service wave {wave_no}"
        )
        jobs_payload = [(q.job.qid, q.job.record) for q in wave]
        now = sim.now
        for w in sorted(alive):
            fids = sorted(f for f, h in holder.items() if h == w)
            comm.isend(
                ("wave", (wave_no, jobs_payload, fids)),
                dest=w, tag=TAG_SRV_CMD,
            )
            deadline[w] = now + ft.search_timeout
        got: dict[int, list] = {}
        collect_metas(wave_no, jobs_payload, got)

        selected_per_q = []
        for i in range(len(wave)):
            cand = [m for f in sorted(got) for m in got[f][i]]
            selected_per_q.append(
                select_metas(ctx, cost, cand, cfg.search.max_alignments)
            )
        needed: list[tuple[int, int]] = []
        for sel in selected_per_q:
            for m in sel:
                ctx.compute(cost.fetch_overhead_seconds())
                needed.append((m.owner_rank, m.local_id))
        blocks = fetch_blocks(wave_no, jobs_payload, sorted(set(needed)))

        done_at = sim.now
        for i, q in enumerate(wave):
            qrec, qid = q.job.record, q.job.qid
            sel = selected_per_q[i]
            parts = [header_bytes_for(writer, qrec, sel)]
            for m in sel:
                parts.append(blocks[(m.owner_rank, m.local_id)])
            parts.append(footer_bytes_for(writer, engine, qrec, info))
            section = b"".join(parts)
            sections[qid] = section
            lat = done_at - q.job.arrival
            samples_by_lane.setdefault(q.lane, []).append(lat)
            per_query.append({
                "qid": qid, "lane": q.lane, "wave": wave_no,
                "arrival": q.job.arrival, "completed": done_at,
                "latency_s": lat,
            })
            metrics.inc(None, "service.queries")
            metrics.observe(None, "service.latency_s", lat)
            metrics.observe(None, f"service.latency.{q.lane}_s", lat)
            if tracer is not None:
                tracer.span(
                    EV_QUERY, ctx.rank, q.job.arrival, done_at,
                    q.lane, qid, wave_no, len(section),
                )
        last_completion = done_at
        metrics.inc(None, "service.waves")

    while len(sections) < total:
        now = sim.now
        while arrivals and arrivals[0].arrival <= now + 1e-12:
            job = arrivals.popleft()
            sched.enqueue(job, max(now, job.arrival))
        if sched.wave_ready(sim.now):
            run_wave()
            continue
        targets = []
        if arrivals:
            targets.append(arrivals[0].arrival)
        dl = sched.next_deadline()
        if dl is not None:
            targets.append(dl)
        if not targets:  # pragma: no cover - loop invariant
            raise RuntimeError("service idle with unanswered queries")
        t = min(targets)
        if t > sim.now:
            sim.sleep_until(t)

    # -- shutdown + output ------------------------------------------------
    for w in sorted(alive):
        comm.isend(("done", None), dest=w, tag=TAG_SRV_CMD)
    with ctx.phase("output"):
        report_bytes = b"".join(
            [writer.preamble()]
            + [sections[qid] for qid in sorted(sections)]
        )
        ctx.fs.write(
            cfg.output_path, 0, report_bytes,
            charge_bytes=cost.wire_bytes(len(report_bytes)),
        )

    span = max(0.0, last_completion - first_arrival)
    summary = latency_summary(samples_by_lane, span)
    for key, value in flatten_latency(summary).items():
        metrics.set_gauge(None, f"service.{key}", value)
    metrics.set_gauge(None, "service.waves", float(wave_no))
    per_query.sort(key=lambda r: r["qid"])
    return {"latency": summary, "per_query": per_query, "waves": wave_no}


# ----------------------------------------------------------------------
# worker
# ----------------------------------------------------------------------
def _worker(
    ctx: ProcContext, cfg: ParallelConfig, scfg: ServiceConfig
) -> dict:
    comm, cost = ctx.comm, cfg.cost
    engine = BlastSearch(cfg.search)
    writer = None
    info = None
    indexes: dict[str, Any] = {}
    held: dict[int, list] = {}           # fid -> warm (piece, volume) list
    wave_cache: dict[int, tuple[int, list[bytes]]] = {}
    cur_wave: tuple[int, list] | None = None  # (wave_no, queries)
    stats = {"waves": 0, "searches": 0}

    def search_fid(fid: int, wave_no: int, queries: list) -> list:
        blocks, metas = search_loaded_pieces(
            ctx, cfg, engine, writer, queries, info, held[fid], fid
        )
        wave_cache[fid] = (wave_no, blocks)
        stats["searches"] += 1
        return metas

    while True:
        kind, data = comm.recv(source=0, tag=TAG_SRV_CMD)
        if kind == "done":
            stats["fids"] = sorted(held)
            return stats
        if kind == "setup":
            info, index_bytes, assign = data
            ctx.compute(cost.init_seconds())
            indexes = {
                base: parse_index(d) for base, d in index_bytes.items()
            }
            writer = writer_for(engine, info)
            with ctx.phase("input"):
                for fid in sorted(assign):
                    held[fid] = load_fragment_pieces(
                        ctx, cfg, assign[fid], indexes
                    )
            comm.isend(
                (ctx.rank, "loaded", tuple(sorted(assign))),
                dest=0, tag=TAG_SRV_MSG,
            )
        elif kind == "adopt":
            with ctx.phase("input"):
                for fid in sorted(data):
                    if fid not in held:
                        held[fid] = load_fragment_pieces(
                            ctx, cfg, data[fid], indexes
                        )
            comm.isend(
                (ctx.rank, "loaded", tuple(sorted(data))),
                dest=0, tag=TAG_SRV_MSG,
            )
        elif kind == "wave":
            wave_no, jobs_payload, fids = data
            queries = [rec for _qid, rec in jobs_payload]
            cur_wave = (wave_no, queries)
            by_fid = {}
            with ctx.phase("search"):
                for fid in fids:
                    if fid in held:
                        by_fid[fid] = search_fid(fid, wave_no, queries)
            stats["waves"] += 1
            comm.isend(
                (ctx.rank, "metas", (wave_no, by_fid)),
                dest=0, tag=TAG_SRV_MSG,
            )
        elif kind == "fetch":
            wave_no, reqs = data
            out = []
            for fid, lid in reqs:
                cached = wave_cache.get(fid)
                if cached is None or cached[0] != wave_no:
                    # Stale cache (e.g. redispatched fetch): re-search
                    # from the warm volumes — rendering is deterministic,
                    # so the regenerated blocks are byte-identical.
                    if (
                        cur_wave is None or cur_wave[0] != wave_no
                        or fid not in held
                    ):
                        continue
                    with ctx.phase("search"):
                        search_fid(fid, wave_no, cur_wave[1])
                    cached = wave_cache[fid]
                out.append((fid, lid, cached[1][lid]))
            comm.isend(
                (ctx.rank, "blocks", (wave_no, out)),
                dest=0, tag=TAG_SRV_MSG,
            )
        else:  # pragma: no cover - protocol error
            raise RuntimeError(f"unknown service command {kind!r}")


def _program(ctx: ProcContext) -> Any:
    cfg: ParallelConfig = ctx.args["config"]
    scfg: ServiceConfig = ctx.args["service"]
    if ctx.rank == 0:
        return _master(ctx, cfg, ctx.args["jobs"], scfg)
    return _worker(ctx, cfg, scfg)


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
@dataclass
class ServiceResult:
    """Outcome of one service run: the raw run plus per-query accounting."""

    result: RunResult
    output_path: str
    latency: dict
    per_query: list[dict]
    waves: int

    @property
    def report(self) -> bytes:
        """The concatenated per-query reports (oracle-comparable)."""
        return self.result.store.read_all(self.output_path)


def run_service(
    nprocs: int,
    store: FileStore,
    config: ParallelConfig,
    jobs: list[QueryJob],
    *,
    service: ServiceConfig | None = None,
    platform: PlatformSpec | None = None,
    faults: FaultPlan | None = None,
    tracer=None,
    on_cluster=None,
) -> ServiceResult:
    """Run the online query service on a simulated cluster.

    ``store`` holds the formatted database (the warm DB the resident
    workers load once); ``jobs`` is the arrival stream (see
    :mod:`repro.service.arrivals`).  Queries are answered in admission
    waves; the report written to ``config.output_path`` concatenates
    the per-query sections in ``qid`` order and is byte-identical to
    the serial oracle over the same records.  Latency lands in the
    metrics registry (``service.*``), in ``EV_QUERY`` spans when a
    tracer is passed, and in the returned summary.
    """
    if nprocs < 2:
        raise ValueError("the service needs a master and at least one worker")
    if not jobs:
        raise ValueError("the service needs at least one QueryJob")
    qids = [j.qid for j in jobs]
    if len(set(qids)) != len(qids):
        raise ValueError("duplicate qid in the job stream")
    cfg = config
    if cfg.ft == FTParams():
        # The service always runs death detection; untouched lab-sized
        # timeouts must be stretched to the cost model so healthy-but-
        # slow workers are not declared dead (cf. run_program_raw).
        cfg = replace(cfg, ft=FTParams.for_cost(cfg.cost))
    scfg = service if service is not None else ServiceConfig()
    ordered = tuple(sorted(jobs, key=lambda j: (j.arrival, j.qid)))
    result = run(
        nprocs,
        _program,
        platform,
        shared_store=store,
        args={"config": cfg, "jobs": ordered, "service": scfg},
        faults=faults,
        tracer=tracer,
        on_cluster=on_cluster,
    )
    master = result.rank_results[0]
    return ServiceResult(
        result=result,
        output_path=cfg.output_path,
        latency=master["latency"],
        per_query=master["per_query"],
        waves=master["waves"],
    )
