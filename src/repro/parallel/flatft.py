"""The flat drivers' fault-tolerant scheduler, written once.

pioBLAST and mpiBLAST hand out fragments the same way; they differ in
how results reach the one output file (PAPER.md §1).  So their
fault-tolerant variants (``config.fault_tolerance`` or a ``faults``
plan) share this module's scheduler and differ only in an
:class:`OutputPolicy`, which each driver module supplies:

- workers drive everything through idempotent, sequence-numbered RPCs
  on the driver's channel (``repro.parallel.pullrpc``: the master
  caches its last reply per worker, so dropped requests *or* replies
  are healed by resending);
- the master detects death by silence (per-worker timeouts), requeues
  a dead worker's fragment to the survivors, and puts completed
  fragments whose results died with their holder on a re-search list;
- output never uses a collective (a collective cannot complete with
  dead ranks): pioBLAST's workers write cached blocks at
  master-computed offsets and a dead writer's blocks are re-homed,
  while mpiBLAST keeps the baseline's serialized fetch/format/write
  pass and restarts it from byte 0 when an owner dies mid-fetch;
- if *every* worker dies, the master writes a report over the
  fragments it can still account for and records the rest in
  ``FaultReport.missing_fragments``.

Protocol (FAULTS.md §3).  Request kinds and reply bodies:

  Request                   Reply
  ("hello",  None)          ("setup", <the policy's set-up blob>)
  ("work",   None)          ("frag", fid) | ("wait", dt) | ("done", None)
                            | a policy reply (pio: ("select", ...))
  ("result", (fid, metas))  ("ok", None)
  a policy request          (pio: ("wrote", (round, fids)) -> ("ok", None))

Master failover (``repro.parallel.checkpoint``).  The master — rank 0
initially — heartbeats on the ping tag, also through its long output
passes, and checkpoints its scheduler state crash-consistently.
Workers route RPCs to the rank they believe is master; silence longer
than ``FTParams.failover_silence`` advances the candidate, and the
lowest surviving worker promotes itself: it announces itself, restores
the newest valid checkpoint, adopts the fragments it searched itself
(the policy serves their data from memory, so they are never
re-searched), re-runs the death sweep against reality, and serves the
same protocol.
"""

from __future__ import annotations

from bisect import insort
from typing import Any, Callable

from repro.parallel.assignment import GreedyAssigner
from repro.parallel.checkpoint import CheckpointStore, FailoverTracker
from repro.parallel.common import read_queries_bytes, reliable_read
from repro.parallel.config import ParallelConfig
from repro.parallel.pullrpc import (
    Heartbeat,
    LivenessTable,
    Orphaned,
    Promoted,
    PullClient,
    PullServer,
    Tags,
)
from repro.parallel.results import AlignmentMeta
from repro.simmpi import FileStore, PlatformSpec, ProcContext, RunResult
from repro.simmpi.faults import FaultPlan
from repro.simmpi.launcher import run

Metas = list[list[AlignmentMeta]]


class OutputPolicy:
    """How one flat driver gets results into the output file.

    One instance per rank.  As a worker it holds the rank's result data
    (blocks, alignments); on promotion the same instance serves the
    master, which is how a promoted master writes its own fragments
    without re-searching them.  The hooks below are all the scheduler
    asks of a driver; the defaults are what a driver with nothing to
    add does.
    """

    tags: Tags
    #: ``PullClient.extra`` of the workers: peer traffic they serve
    #: inside their receive loop
    extra: dict[int, Callable[[Any, int], int]] | None = None
    #: the output is complete: every poll is answered ``done`` and no
    #: more checkpoints are taken
    finished = False

    def __init__(self, ctx: ProcContext, cfg: ParallelConfig) -> None:
        self.ctx = ctx
        self.cfg = cfg
        self.m: FlatMaster

    # -- both sides ------------------------------------------------------
    def bind(self, setup: Any) -> None:
        """Unpack the set-up blob a ``hello`` answers with."""
        raise NotImplementedError

    # -- worker ----------------------------------------------------------
    def search(self, fid: int) -> Metas:
        """Search fragment ``fid``; keep its result data; return its
        metas per query."""
        raise NotImplementedError

    def reply(self, kind: str, data: Any) -> tuple[str, Any]:
        """Act on a policy reply to ``work``; the request to send next."""
        raise RuntimeError(f"unknown FT reply kind {kind!r}")

    # -- master ----------------------------------------------------------
    def read_setup(self, queries: list, nfrag: int) -> Any:
        """The set-up blob over ``nfrag`` fragments, read (with retries)
        by a master that has none."""
        raise NotImplementedError

    def attach(self, master: FlatMaster) -> None:
        """Start serving ``master``: set up the output-side state."""
        self.m = master

    def restore(self, snap: dict | None, held: dict[int, Metas]) -> dict:
        """A promoted master's completed fragments, ``fid -> metas``,
        from the newest checkpoint and from what this rank searched."""
        raise NotImplementedError

    def ckpt_state(self) -> dict:
        raise NotImplementedError

    def requests(self) -> dict[str, Callable[[int, Any], Any]]:
        """Request kinds beyond ``hello`` / ``work`` / ``result``."""
        return {}

    def assigned(self, w: int, fid: int) -> None:
        """``fid`` was just handed to ``w``."""

    def idle_reply(self, w: int) -> tuple[str, Any]:
        """What a ``work`` poll gets when there is no fragment to give."""
        return self.m.wait

    def reported(self, w: int, fid: int) -> None:
        """``w`` delivered ``fid``'s results (first or duplicate)."""

    def lost(self, w: int, fid: int | None) -> None:
        """``w`` was declared dead; ``fid`` is what it was searching."""

    def writers(self) -> set[int]:
        """Workers that owe a write (judged by ``write_timeout``)."""
        return set()

    def revived(self) -> None:
        """A worker declared dead spoke again."""

    def ticked(self, request: tuple | None) -> None:
        """Last step of every tick."""

    def settle(self, now: float) -> float | None:
        """Idle tick: the instant the linger is measured from once the
        role has nothing left to give; None while it has."""
        raise NotImplementedError


class FlatMaster:
    """The flat FT master: scheduling, liveness, checkpoints, promotion.

    Rank 0 enters with no set-up; a *promoted* worker passes the blob it
    got at ``hello`` (None if it never completed one) and the metas of
    the fragments it searched itself.
    """

    def __init__(
        self,
        ctx: ProcContext,
        cfg: ParallelConfig,
        policy: OutputPolicy,
        setup: Any = None,
        held: dict[int, Metas] | None = None,
    ) -> None:
        ft = self.ft = cfg.ft
        self.ctx, self.cfg, self.policy = ctx, cfg, policy
        self.sim = ctx.engine
        self.report = ctx.fault_report
        me = ctx.rank
        self.promoted = me != 0
        self.nfrag = cfg.fragments_for(ctx.size - 1)
        self.wait = ("wait", ft.poll_backoff)
        self.ckpt = CheckpointStore(
            ctx, cfg.checkpoint_dir,
            interval=cfg.checkpoint_interval, io_attempts=ft.io_attempts,
        )
        # Called through long output passes too: a silent master
        # mid-output must not trigger a spurious succession.
        self.ping = Heartbeat(ctx, ft, policy.tags.ping).beat
        if self.promoted:
            self.report.record(self.sim.now, "recover:promote-master", me)
            # Announce before doing anything slow (cold setup, checkpoint
            # restore): the announcement resets every survivor's silence
            # clock, heading off a second spurious succession.
            self.ping(force=True)
        if setup is None:
            ctx.compute(cfg.cost.init_seconds())
            setup = policy.read_setup(read_queries_bytes(reliable_read(
                ctx, ft, cfg.query_path,
                charge_bytes=cfg.cost.wire_bytes(ctx.fs.size(cfg.query_path)),
            )), self.nfrag)
            policy.bind(setup)
        self.setup = setup

        # A promoted master starts every other rank as presumed-alive
        # with a fresh liveness window: the death sweep then re-runs
        # against reality and re-detects the genuinely dead ones.
        self.live = LivenessTable(
            (r for r in range(1, ctx.size) if r != me), self.sim.now
        )
        self.assigned: dict[int, int] = {}      # worker -> fid in search
        self.assigner = GreedyAssigner(self.nfrag)  # first-search queue
        self.research: list[int] = []           # completed, search again
        self.results: dict[int, Metas] = {}     # fid -> metas per query
        policy.attach(self)
        if self.promoted:
            restored = policy.restore(self.ckpt.load_latest(), held or {})
            for fid, metas in restored.items():
                self.results[fid] = metas
                self.assigner.mark_completed(fid)
        self.handlers = {
            "hello": lambda _w, _data: ("setup", self.setup),
            "work": self.work,
            "result": self.result,
            **policy.requests(),
        }

    # -- request handlers ------------------------------------------------
    def handle(self, w: int, kind: str, data: Any) -> Any:
        handler = self.handlers.get(kind)
        if handler is None:
            raise RuntimeError(f"unknown FT request kind {kind!r}")
        return handler(w, data)

    def work(self, w: int, _data: Any = None) -> tuple[str, Any]:
        if w in self.live.dead:
            # A poll consumed after its sender was declared dead (an
            # output pass can judge between tick and request): a
            # fragment handed to it would never be reassigned.
            return self.wait
        if self.policy.finished:
            return ("done", None)
        if self.research:
            fid = self.research.pop(0)
        else:
            fid = self.assigner.assign(w)
        if fid is None:
            return self.policy.idle_reply(w)
        self.assigned[w] = fid
        self.policy.assigned(w, fid)
        return ("frag", fid)

    def result(self, w: int, data: tuple[int, Metas]) -> tuple[str, Any]:
        fid, metas = data
        if self.assigned.get(w) == fid:
            self.assigned.pop(w)
        if fid not in self.results:
            # First (or after-loss) report for this fragment.
            self.results[fid] = metas
            self.assigner.mark_completed(fid)
            if fid in self.research:
                self.research.remove(fid)
        else:
            self.report.record(self.sim.now, "recover:dup-result", fid, w)
        self.policy.reported(w, fid)
        return ("ok", None)

    # -- recovery --------------------------------------------------------
    def queue_research(self, fid: int) -> None:
        if fid not in self.research and fid not in self.assigned.values():
            insort(self.research, fid)
            self.report.record(self.sim.now, "recover:research", fid)

    def lost(self, w: int, why: str) -> None:
        """Recover from ``w``, which has just been declared dead."""
        self.report.record(self.sim.now, "detect:worker-dead", w, why)
        self.assigner.drop_worker(w)
        fid = self.assigned.pop(w, None)
        if (
            fid is not None and fid not in self.results
            and self.assigner.requeue(fid)
        ):
            self.report.record(self.sim.now, "recover:requeue", fid, w)
        self.policy.lost(w, fid)

    # -- output --------------------------------------------------------
    def merged(self, fids, nqueries: int) -> Metas:
        """The metas of fragments ``fids``, per query, in fid order."""
        per_query: Metas = [[] for _ in range(nqueries)]
        for fid in sorted(fids):
            for qi, metas in enumerate(self.results[fid]):
                per_query[qi].extend(metas)
        return per_query

    def degrade(self, covered) -> None:
        """Account for the fragments an output over ``covered`` lacks."""
        missing = sorted(set(range(self.nfrag)) - set(covered))
        if missing:
            self.report.degraded = True
            self.report.missing_fragments = missing
            self.report.record(self.sim.now, "detect:degraded", tuple(missing))

    # -- serve loop ------------------------------------------------------
    def tick(self, request: tuple | None, now: float) -> None:
        sim, ft, policy = self.sim, self.ft, self.policy
        if request is not None and self.live.heard(request[0], now):
            self.report.record(sim.now, "recover:revive", request[0])
            policy.revived()
        # Silence limit by whether the worker owes a write (then
        # write_timeout, if shorter).
        writing = policy.writers()
        limits = (ft.search_timeout, min(ft.write_timeout, ft.search_timeout))
        swept = self.live.sweep(sim.now, lambda w: limits[w in writing])
        for w, quiet in swept:
            why = "search-timeout" if w in self.assigned else "silent"
            if w in writing and quiet > ft.write_timeout:
                why = "write-timeout"
            self.lost(w, why)
        self.ping()
        if not policy.finished:
            self.ckpt.maybe_save(policy.ckpt_state)
        policy.ticked(request)

    def idle(self, now: float) -> bool:
        since = self.policy.settle(now)
        return since is not None and self.server.lingered(since)

    def serve(self) -> None:
        ctx = self.ctx
        if self.promoted:
            # Announce the new master immediately: surviving workers
            # adopt it on the first ping instead of waiting out
            # failover_silence.
            self.ping(force=True)
        self.server = PullServer(
            ctx, self.ft, self.policy.tags, range(ctx.size)
        )
        if self.server.serve(
            on_tick=self.tick, on_idle=self.idle, on_request=self.handle
        ) is not None:
            return  # abdicated: the successor rewrites the output
        # Final accounting: fragments the report never saw results for.
        report = self.report
        missing = sorted(set(range(self.nfrag)) - set(self.results))
        if missing and not report.missing_fragments:
            report.degraded = True
            report.missing_fragments = missing


def _worker(
    ctx: ProcContext, cfg: ParallelConfig, policy: OutputPolicy
) -> str:
    ft = cfg.ft
    rpc = PullClient(
        ctx, ft, FailoverTracker(ctx, ft), policy.tags,
        extra=policy.extra,
    ).call
    setup: Any = None
    held: dict[int, Metas] = {}  # the fragments this rank searched
    try:
        setup = rpc("hello")[1]
        ctx.compute(cfg.cost.init_seconds())
        policy.bind(setup)
        while True:
            kind, data = rpc("work")
            if kind == "wait":
                ctx.engine.sleep(data)
            elif kind == "done":
                return "done"
            elif kind == "frag":
                held[data] = policy.search(data)
                rpc("result", (data, held[data]))
            else:
                rpc(*policy.reply(kind, data))
    except Promoted:
        FlatMaster(ctx, cfg, policy, setup, held).serve()
        return "promoted-master"
    except Orphaned:
        return "orphaned"


def _program(ctx: ProcContext) -> Any:
    cfg: ParallelConfig = ctx.args["config"]
    if not ctx.args["ft"]:
        master, worker = ctx.args["plain"]
        (master if ctx.rank == 0 else worker)(ctx, cfg)
        return None
    policy = ctx.args["policy"](ctx, cfg)
    if ctx.rank == 0:
        FlatMaster(ctx, cfg, policy).serve()
        return None
    return _worker(ctx, cfg, policy)


def run_flat(
    nprocs: int,
    store: FileStore,
    config: ParallelConfig,
    platform: PlatformSpec | None,
    *,
    plain: tuple[Callable, Callable],
    policy: type[OutputPolicy],
    faults: FaultPlan | None,
    tracer=None,
    on_cluster=None,
) -> RunResult:
    """Run a flat driver: the ``plain`` ``(master, worker)`` pair, or
    under ``faults`` / ``config.fault_tolerance`` this module's
    scheduler with the driver's output ``policy``."""
    return run(
        nprocs,
        _program,
        platform,
        shared_store=store,
        args={
            "config": config,
            "ft": config.fault_tolerance or faults is not None,
            "plain": plain,
            "policy": policy,
        },
        faults=faults,
        tracer=tracer,
        on_cluster=on_cluster,
    )
