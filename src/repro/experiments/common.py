"""Shared experiment machinery: workloads, runners, table formatting."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache

from repro.blast.engine import SearchParams
from repro.blast.fasta import SeqRecord
from repro.costmodel import CostModel
from repro.parallel import (
    FTParams,
    ParallelConfig,
    breakdown_from_run,
    mpiformatdb,
    stage_inputs,
)
from repro.parallel.phases import PhaseBreakdown
from repro.platforms import ORNL_ALTIX
from repro.simmpi import FaultPlan, FileStore, PlatformSpec
from repro.workloads import SynthSpec, sample_queries, synthesize_protein_records

#: Calibrated cost model for the paper-regime experiments (tuned so the
#: Table-1 32-process phase breakdown lands near the paper's — see
#: EXPERIMENTS.md for the calibration record).
PAPER_COSTS = CostModel(
    compute_scale=950.0,
    data_scale=250.0,
    db_scale=6000.0,
    per_output_byte_rendered=1.2e-6,
    per_alignment_merged=8e-5,
    per_fetch_request=1.4e-3,
    per_result_alignment_processed=1.67e-4,
    per_process_init=4e-3,
    copy_inefficiency=13.0,
    mmap_inefficiency=75.0,
)


@dataclass(frozen=True)
class ExperimentWorkload:
    """A reproducible workload: synthetic nr + sampled query set."""

    db_spec: SynthSpec = field(
        default_factory=lambda: SynthSpec(
            num_sequences=600,
            mean_length=250,
            family_fraction=0.7,
            family_size=6,
            seed=20050404,
        )
    )
    query_bytes: int = 22_000
    query_seed: int = 42
    search: SearchParams = field(
        default_factory=lambda: SearchParams(max_alignments=50)
    )
    cost: CostModel = field(default_factory=lambda: PAPER_COSTS)

    def with_query_bytes(self, nbytes: int) -> "ExperimentWorkload":
        return replace(self, query_bytes=nbytes)


@lru_cache(maxsize=8)
def _db_cache(spec: SynthSpec) -> tuple[SeqRecord, ...]:
    return tuple(synthesize_protein_records(spec))


def build_workload(
    wl: ExperimentWorkload,
) -> tuple[list[SeqRecord], list[SeqRecord]]:
    """Database and query records for a workload (database memoized)."""
    db = list(_db_cache(wl.db_spec))
    queries = sample_queries(db, wl.query_bytes, seed=wl.query_seed)
    return db, queries


def make_store(
    wl: ExperimentWorkload,
    *,
    nfragments: int | None = None,
) -> tuple[FileStore, ParallelConfig]:
    """A fresh shared store staged with the workload.

    ``nfragments`` additionally runs mpiformatdb pre-partitioning (the
    mpiBLAST requirement pioBLAST drops).
    """
    db, queries = build_workload(wl)
    store = FileStore()
    cfg = ParallelConfig(
        search=wl.search,
        cost=wl.cost,
        num_fragments=nfragments or 0,
    )
    cfg = stage_inputs(store, db, queries, config=cfg, title="synthetic nr")
    if nfragments is not None:
        mpiformatdb(store, cfg.db_name, nfragments)
    return store, cfg


def run_program(
    program: str,
    nprocs: int,
    wl: ExperimentWorkload,
    platform: PlatformSpec = ORNL_ALTIX,
    *,
    nfragments: int | None = None,
    config_overrides: dict | None = None,
    faults: FaultPlan | None = None,
) -> tuple[PhaseBreakdown, FileStore, ParallelConfig]:
    """Stage and execute one driver; returns its phase breakdown.

    A ``faults`` plan (see :class:`repro.simmpi.FaultPlan`) switches
    mpiBLAST/pioBLAST to their fault-tolerant drivers.  Callers that
    need the resulting :class:`repro.simmpi.FaultReport` should use
    :func:`run_program_raw`, which also returns the raw ``RunResult``.
    """
    b, _result, store, cfg = run_program_raw(
        program, nprocs, wl, platform,
        nfragments=nfragments,
        config_overrides=config_overrides,
        faults=faults,
    )
    return b, store, cfg


def run_program_raw(
    program: str,
    nprocs: int,
    wl: ExperimentWorkload,
    platform: PlatformSpec = ORNL_ALTIX,
    *,
    nfragments: int | None = None,
    config_overrides: dict | None = None,
    faults: FaultPlan | None = None,
    tracer=None,
):
    """Like :func:`run_program` but also returns the raw ``RunResult``
    (phase timings per rank, fault report, dead ranks).  ``tracer`` (a
    :class:`repro.obs.Tracer`) enables structured event tracing."""
    nworkers = nprocs - 1
    frag = nfragments if nfragments is not None else None
    needs_physical = program == "mpiblast"
    store, cfg = make_store(
        wl, nfragments=(frag or nworkers) if needs_physical else None
    )
    if frag is not None:
        cfg = replace(cfg, num_fragments=frag)
    if config_overrides:
        cfg = replace(cfg, **config_overrides)
    if (faults is not None or cfg.fault_tolerance) and cfg.ft == FTParams():
        # Untouched FT defaults are sized for laboratory cost models;
        # stretch them to the experiment workload's calibrated costs so
        # healthy-but-slow workers are not declared dead.
        cfg = replace(cfg, ft=FTParams.for_cost(cfg.cost))
    # Each driver is imported by the run that uses it, here on the
    # calling thread: a process pays to compile only its own drivers.
    if program == "mpiblast":
        from repro.parallel.mpiblast import run_mpiblast

        result = run_mpiblast(
            nprocs, store, cfg, platform, faults=faults, tracer=tracer
        )
    elif program == "pioblast":
        from repro.parallel.pioblast import run_pioblast

        result = run_pioblast(
            nprocs, store, cfg, platform, faults=faults, tracer=tracer
        )
    elif program == "queryseg":
        if faults is not None:
            raise ValueError(
                "queryseg has no fault-tolerant driver; "
                "use mpiblast or pioblast"
            )
        from repro.parallel.queryseg import run_queryseg

        result = run_queryseg(nprocs, store, cfg, platform, tracer=tracer)
    else:
        raise ValueError(f"unknown program {program!r}")
    return breakdown_from_run(program, result), result, store, cfg


def run_service_raw(
    nprocs: int,
    wl: ExperimentWorkload,
    platform: PlatformSpec = ORNL_ALTIX,
    *,
    rate: float = 0.1,
    arrival_seed: int = 0,
    trace_text: str | None = None,
    service=None,
    config_overrides: dict | None = None,
    faults: FaultPlan | None = None,
    tracer=None,
):
    """Stage a workload and run the online service over it.

    Queries arrive as a Poisson stream at ``rate`` queries per virtual
    second (or replay ``trace_text`` when given — see
    :func:`repro.service.trace_arrivals`).  Returns
    ``(service_result, store, cfg)``; the report written to
    ``cfg.output_path`` is byte-identical to the serial oracle over the
    same records.
    """
    from repro.service import (
        poisson_arrivals,
        run_service,
        trace_arrivals,
    )

    _db, queries = build_workload(wl)
    store, cfg = make_store(wl)
    if config_overrides:
        cfg = replace(cfg, **config_overrides)
    if trace_text is not None:
        jobs = trace_arrivals(trace_text, queries)
    else:
        jobs = poisson_arrivals(queries, rate=rate, seed=arrival_seed)
    sres = run_service(
        nprocs, store, cfg, jobs,
        service=service, platform=platform, faults=faults, tracer=tracer,
    )
    return sres, store, cfg


def run_hier_raw(
    nprocs: int,
    wl: ExperimentWorkload,
    platform: PlatformSpec = ORNL_ALTIX,
    *,
    ngroups: int = 2,
    mode: str = "replicate",
    batch_queries: int = 0,
    config_overrides: dict | None = None,
    faults: FaultPlan | None = None,
    tracer=None,
):
    """Stage a workload and run the hierarchical driver over it.

    Returns ``(hier_result, store, cfg)``; the report written to
    ``cfg.output_path`` is byte-identical to the serial oracle.  The
    hierarchy is timeout-driven even fault-free, so untouched FT
    defaults are always stretched to the workload's calibrated costs
    (``run_hier`` does this itself).
    """
    from repro.hier import HierConfig, run_hier

    store, cfg = make_store(wl)
    if config_overrides:
        cfg = replace(cfg, **config_overrides)
    hres = run_hier(
        nprocs, store, cfg,
        HierConfig(ngroups=ngroups, mode=mode, batch_queries=batch_queries),
        platform=platform, faults=faults, tracer=tracer,
    )
    return hres, store, cfg


def run_hier_service_raw(
    nprocs: int,
    wl: ExperimentWorkload,
    platform: PlatformSpec = ORNL_ALTIX,
    *,
    ngroups: int = 2,
    mode: str = "replicate",
    rate: float = 0.1,
    arrival_seed: int = 0,
    trace_text: str | None = None,
    service=None,
    elastic=None,
    config_overrides: dict | None = None,
    faults: FaultPlan | None = None,
    tracer=None,
):
    """Stage a workload and serve it through elastic replication groups.

    The online arrival stream (Poisson at ``rate``, or ``trace_text``)
    is admitted by the coordinator and routed to ``ngroups`` groups;
    ``elastic`` (an :class:`repro.hier.ElasticConfig`) schedules group
    joins/drains and bounds group-loss recovery.  Returns
    ``(hier_service_result, store, cfg)``.
    """
    from repro.hier import HierConfig, run_hier_service
    from repro.service import poisson_arrivals, trace_arrivals

    _db, queries = build_workload(wl)
    store, cfg = make_store(wl)
    if config_overrides:
        cfg = replace(cfg, **config_overrides)
    if trace_text is not None:
        jobs = trace_arrivals(trace_text, queries)
    else:
        jobs = poisson_arrivals(queries, rate=rate, seed=arrival_seed)
    sres = run_hier_service(
        nprocs, store, cfg, jobs,
        hier=HierConfig(ngroups=ngroups, mode=mode),
        service=service, elastic=elastic,
        platform=platform, faults=faults, tracer=tracer,
    )
    return sres, store, cfg


def format_table(
    title: str,
    headers: list[str],
    rows: list[list],
    *,
    note: str | None = None,
) -> str:
    """Fixed-width ascii table (the bench scripts' output format)."""
    srows = [
        [f"{c:.1f}" if isinstance(c, float) else str(c) for c in r]
        for r in rows
    ]
    widths = [
        max(len(h), *(len(r[i]) for r in srows)) if srows else len(h)
        for i, h in enumerate(headers)
    ]
    lines = [title, "-" * len(title)]
    lines.append("  ".join(h.rjust(widths[i]) for i, h in enumerate(headers)))
    for r in srows:
        lines.append("  ".join(c.rjust(widths[i]) for i, c in enumerate(r)))
    if note:
        lines.append(f"  note: {note}")
    return "\n".join(lines)
