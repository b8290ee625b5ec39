"""Run configuration shared by every parallel driver."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.blast.alphabet import PROTEIN, Alphabet
from repro.blast.engine import SearchParams
from repro.blast.fasta import SeqRecord, write_fasta
from repro.blast.formatdb import formatdb
from repro.costmodel import CostModel
from repro.simmpi import FileStore


@dataclass(frozen=True)
class FTParams:
    """Tunables of the fault-tolerant scheduling protocol.

    All times are *virtual* seconds.  The defaults are sized for the
    simulated workloads in this repo: timeouts comfortably exceed any
    healthy operation's modelled duration, so a timeout firing really
    does mean the peer is gone (or catastrophically slow, which the
    revival path then repairs).
    """

    #: how long a worker waits for the master's RPC reply before resending
    req_timeout: float = 0.25
    #: RPC resend budget before a worker concludes it is orphaned
    req_max_attempts: int = 200
    #: idle-poll backoff the flat FT masters and the elastic coordinator
    #: hand to a client with nothing to do; a group sub-master also
    #: paces its own coordinator polls with it while busy (the group
    #: sub-master and the batch coordinator hold idle polls instead)
    poll_backoff: float = 0.1
    #: servers' receive granularity: death sweeps, checkpoints and the
    #: linger exit run at most this far apart (heartbeats do not: they
    #: go out every ``failover_silence / 4``)
    master_tick: float = 0.25
    #: silence threshold after which a searching worker is declared dead
    search_timeout: float = 5.0
    #: silence threshold for a worker that was told to write output
    write_timeout: float = 2.0
    #: how long the master keeps answering stray RPCs after releasing
    #: the last worker (covers retries of a lost "done" reply)
    linger: float = 1.0
    #: transient-I/O retry budget (see repro.simmpi.faults.retry_io)
    io_attempts: int = 6
    #: how long a worker tolerates total silence from the current master
    #: before advancing to the next failover candidate (master death
    #: detection; see repro.parallel.checkpoint.FailoverTracker).  Must
    #: exceed the master's longest healthy silent window — every server
    #: heartbeats once per ``failover_silence / 4``, during long output
    #: passes too, and a held client hears ``HOLD_EXPIRED`` once per
    #: ``req_timeout / 2``.
    failover_silence: float = 2.0

    def scaled(self, factor: float) -> "FTParams":
        """Stretch the protocol's patience for slower-modelled workloads.

        The silence thresholds must comfortably exceed any healthy
        operation's duration, and those durations scale with the cost
        model (``compute_scale`` / ``data_scale``): under the calibrated
        paper-regime costs a single fragment search takes tens of
        virtual seconds, which would blow the laboratory-sized defaults
        and get every healthy worker declared dead.  Patience knobs
        (``req_timeout``, ``search_timeout``, ``write_timeout``) scale
        linearly — a long receive timeout is free on the healthy path,
        since the receive returns as soon as the reply arrives.  Chatter
        knobs (``poll_backoff``, ``master_tick``, ``linger``) are capped
        at 10x, bounding the idle time the scaling adds to a fault-free
        run; the roles that still answer idle polls ``wait`` (the flat
        FT masters, the elastic coordinator) poll that much less during
        a genuinely dead peer's detection wait.  The group sub-master
        and the batch coordinator hold an idle poll instead
        (``PullServer.sweep``) for ``req_timeout / 2``, and every server
        heartbeats once per ``failover_silence / 4``: both scale with
        the full factor, so a hold stays inside the client's resend
        deadline and far inside every silence threshold, and a
        heartbeat comes four times per silence window, under every cost
        model.
        """
        if factor <= 1.0:
            return self
        small = min(factor, 10.0)
        return FTParams(
            req_timeout=self.req_timeout * factor,
            req_max_attempts=self.req_max_attempts,
            poll_backoff=self.poll_backoff * small,
            master_tick=self.master_tick * small,
            search_timeout=self.search_timeout * factor,
            write_timeout=self.write_timeout * factor,
            linger=self.linger * small,
            io_attempts=self.io_attempts,
            failover_silence=self.failover_silence * factor,
        )

    @classmethod
    def for_cost(cls, cost: CostModel) -> "FTParams":
        """Defaults stretched to a cost model's slowest dimension."""
        return cls().scaled(
            max(1.0, cost.compute_scale, cost.data_scale)
        )


@dataclass(frozen=True)
class ParallelConfig:
    """Inputs of one parallel search run.

    ``num_fragments = 0`` means *natural partitioning*: one fragment per
    worker (the paper's default for both programs).
    """

    db_name: str = "nr"
    query_path: str = "queries.fasta"
    output_path: str = "results.out"
    search: SearchParams = field(default_factory=SearchParams)
    cost: CostModel = field(default_factory=CostModel)
    num_fragments: int = 0  # 0 → natural partitioning (nworkers)
    # Ablation switches (pioBLAST techniques; all on = the paper's pio).
    parallel_input: bool = True
    collective_output: bool = True
    # §5 extensions.
    early_score_pruning: bool = False
    adaptive_granularity: bool = False
    # Fault tolerance: use the pull-RPC scheduling protocol that
    # survives worker crashes (and, with checkpointing, master crashes),
    # message drops and transient I/O errors.  Implied whenever a
    # FaultPlan is passed to a driver.
    fault_tolerance: bool = False
    ft: FTParams = field(default_factory=FTParams)
    # Master checkpoint/restart (see repro.parallel.checkpoint and
    # FAULTS.md §4): every checkpoint_interval virtual seconds the FT
    # master snapshots its scheduler state to checkpoint_dir on the
    # shared filesystem with a crash-consistent write.  0 disables
    # periodic saves; a promoted master always *looks* for checkpoints,
    # so the interval only controls how much work a master crash loses.
    checkpoint_interval: float = 0.0
    checkpoint_dir: str = "_ckpt"

    def fragments_for(self, nworkers: int) -> int:
        return self.num_fragments if self.num_fragments > 0 else nworkers


def stage_inputs(
    store: FileStore,
    db_records: list[SeqRecord],
    query_records: list[SeqRecord],
    *,
    config: ParallelConfig | None = None,
    alphabet: Alphabet = PROTEIN,
    title: str | None = None,
    max_letters_per_volume: int | None = None,
) -> ParallelConfig:
    """Stage a formatted database and a query file onto the shared store.

    This is the user-visible preprocessing step (``formatdb``), shared by
    every driver; mpiBLAST additionally needs :func:`mpiformatdb`
    fragmentation, which pioBLAST eliminates.
    """
    cfg = config if config is not None else ParallelConfig()
    formatdb(
        db_records,
        cfg.db_name,
        lambda p, d: store.write(p, 0, d),
        alphabet=alphabet,
        title=title or cfg.db_name,
        max_letters_per_volume=max_letters_per_volume,
    )
    store.write(
        cfg.query_path, 0, write_fasta(query_records).encode("utf-8")
    )
    return cfg
