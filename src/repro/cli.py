"""Command-line interface: ``python -m repro <command>``.

Commands mirror the tools the paper's users touch:

- ``formatdb``    — format a FASTA file into the binary database format
  (optionally multi-volume), on the real filesystem;
- ``search``      — serial blastp/blastn of a query FASTA against a
  formatted database, writing the NCBI-style report;
- ``simulate``    — run mpiBLAST / pioBLAST / queryseg on a simulated
  cluster over a synthetic workload and print the phase breakdown;
- ``service`` / ``hier`` / ``hier-service`` — the online service, the
  two-level hierarchy and the elastic hierarchical service on the same
  simulated cluster (one run path: ``_Run``);
- ``experiment``  — run one of the paper's table/figure harnesses and
  print the paper-vs-measured table;
- ``report``      — assemble the archived benchmark tables
  (``benchmarks/results/``) into one reproduction report.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time


def _cmd_formatdb(args: argparse.Namespace) -> int:
    from repro.blast.alphabet import DNA, PROTEIN
    from repro.blast.formatdb import formatdb

    fasta = pathlib.Path(args.fasta).read_text()
    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    def put(path: str, data: bytes) -> None:
        (outdir / path).write_bytes(data)

    names = formatdb(
        fasta,
        args.name,
        put,
        alphabet=DNA if args.dbtype == "nucl" else PROTEIN,
        title=args.title or args.name,
        max_letters_per_volume=args.volume_letters,
    )
    print(f"formatted {args.fasta} -> {outdir}/{args.name} "
          f"({len(names)} volume(s))")
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    from repro.blast.engine import SearchParams
    from repro.blast.fasta import parse_fasta
    from repro.blast.formatdb import FormattedDatabase
    from repro.parallel.serial import serial_report

    dbdir = pathlib.Path(args.dbdir)

    def get(path: str) -> bytes:
        return (dbdir / path).read_bytes()

    db = FormattedDatabase.open(args.db, get)
    queries = parse_fasta(pathlib.Path(args.queries).read_text())
    params = SearchParams(
        program=args.program,
        expect=args.evalue,
        max_alignments=args.max_alignments,
    )
    report, results = serial_report(db, queries, params)
    if args.out == "-":
        sys.stdout.write(report.decode())
    else:
        pathlib.Path(args.out).write_bytes(report)
        nhits = sum(len(r.alignments) for r in results)
        print(f"{len(queries)} queries, {nhits} alignments -> {args.out}")
    return 0


class _UsageError(Exception):
    """Arguments the parser accepted but the run cannot use: ``main``
    prints the message on one stderr line and exits 2."""


def _checked(what: str, fn, *args, **kwargs):
    """``fn(...)``; a ``ValueError`` is the callee rejecting the flags."""
    try:
        return fn(*args, **kwargs)
    except ValueError as e:
        raise _UsageError(f"{what}: {e}") from None


class _Run:
    """The path the four run commands share: flags -> faults, tracer,
    workload, platform (or exit 2); the timed driver call; the tail."""

    def __init__(self, args: argparse.Namespace):
        from repro.obs import Tracer
        from repro.platforms import PLATFORMS
        from repro.scenario import ExperimentWorkload
        from repro.simmpi import FaultPlan
        from repro.workloads import SynthSpec

        self.args = args
        if args.faults is not None:
            _checked("bad --faults spec", FaultPlan.parse, args.faults)
        # Fail fast on unwritable output paths: the simulation itself can
        # take minutes, so a typo'd directory must not cost a full run.
        for opt, path in (("--trace", args.trace),
                          ("--metrics-json", args.metrics_json)):
            if path is None:
                continue
            parent = pathlib.Path(path).resolve().parent
            if not parent.is_dir():
                raise _UsageError(
                    f"bad {opt} path: directory does not exist: {parent}"
                )
        self.tracer = Tracer() if args.trace is not None else None
        self.workload = ExperimentWorkload(
            db_spec=SynthSpec(
                num_sequences=args.db_sequences,
                mean_length=args.mean_length,
            ),
            query_bytes=args.query_bytes,
        )
        self.platform = PLATFORMS[args.platform]
        self.host_s = 0.0

    def drive(self, driver: str, **fields):
        """The :class:`repro.scenario.Run` of ``driver`` on these flags
        and ``fields``, timed into ``host_s``."""
        from repro.scenario import Scenario, run

        t0 = time.perf_counter()
        out = _checked("cannot run", lambda: run(Scenario(
            driver, self.args.nprocs, workload=self.workload,
            platform=self.platform, faults=self.args.faults, **fields,
        ), self.tracer))
        self.host_s = time.perf_counter() - t0
        return out

    def finish(self, r, *, program: str,
               report: bytes | None = None, oracle_name: str = "",
               degraded: bool = False, trace_note: str = "",
               bottleneck: bool = False) -> int:
        """Report size, fault summary, oracle, trace, metrics, host
        budget -> the exit code."""
        from repro.obs import write_chrome_trace, write_run_metrics
        from repro.parallel import (
            bottleneck_table,
            fault_summary,
            run_serial_reference,
        )

        args, result, store, cfg = self.args, r.result, r.store, r.config
        print(f"  report: {store.size(cfg.output_path):,} bytes at "
              f"'{cfg.output_path}' (virtual filesystem)")
        if args.faults is not None:
            print(fault_summary(result) or
                  "faults: none injected, none detected")
            if result.promotions:
                print(f"  master promotions: {list(result.promotions)}")
        if args.verify_oracle:
            oracle = run_serial_reference(
                store, cfg, output_path="_oracle.out"
            )
            if report == oracle:
                print(f"  oracle: {oracle_name} report is byte-identical "
                      "to the serial reference")
            elif degraded:
                print("  oracle: report degraded (expected: fragments lost "
                      "or queries shed)")
            else:
                print("  oracle: MISMATCH against the serial reference",
                      file=sys.stderr)
                return 1
        if self.tracer is not None:
            write_chrome_trace(args.trace, result.events, result.nprocs)
            print(f"  trace: {len(result.events)} events -> {args.trace}"
                  f"{trace_note}")
            if bottleneck:
                print(bottleneck_table(result))
        if args.metrics_json is not None:
            write_run_metrics(args.metrics_json, result, program=program)
            print(f"  metrics: -> {args.metrics_json}")
        if args.host_budget is not None and self.host_s > args.host_budget:
            print(f"host budget exceeded: {self.host_s:.1f} s > "
                  f"{args.host_budget:.1f} s", file=sys.stderr)
            return 3
        return 0


def _stream(args: argparse.Namespace, **extra) -> dict:
    """The arrival/admission flags as the service scenarios' fields."""
    from repro.service import ServiceConfig

    trace_text = None
    if args.arrivals is not None:
        try:
            trace_text = pathlib.Path(args.arrivals).read_text()
        except OSError as e:
            raise _UsageError(f"bad --arrivals file: {e}") from None
    scfg = _checked(
        "bad admission flags", ServiceConfig,
        max_wave=args.max_wave,
        admission_delay=args.admission_delay,
        priority=not args.no_priority,
        interactive_max_len=args.interactive_max_len,
        **extra,
    )
    return dict(rate=args.rate, arrival_seed=args.seed, trace=trace_text,
                service=scfg)


def _print_latency(lat: dict, makespan: float, host_s: float) -> None:
    rows = [("all", lat["all"])] + sorted(lat["lanes"].items())
    print(f"  {'lane':<12} {'n':>5} {'p50':>9} {'p95':>9} {'p99':>9} "
          f"{'mean':>9} {'max':>9}")
    for name, s in rows:
        print(f"  {name:<12} {s['count']:>5} {s['p50_s']:>9.3f} "
              f"{s['p95_s']:>9.3f} {s['p99_s']:>9.3f} "
              f"{s['mean_s']:>9.3f} {s['max_s']:>9.3f}")
    print(f"  span {lat['span_s']:.2f} s, throughput "
          f"{lat['throughput_qps']:.3f} q/s, makespan "
          f"{makespan:.2f} s (host {host_s:.1f} s)")


def _cmd_simulate(args: argparse.Namespace) -> int:
    run = _Run(args)
    options = {}
    if args.checkpoint_interval > 0:
        options["checkpoint_interval"] = args.checkpoint_interval
    if args.checkpoint_dir is not None:
        options["checkpoint_dir"] = args.checkpoint_dir
    r = run.drive(args.program, options=options)
    b = r.outcome
    print(
        f"{args.program} on {run.platform.name}, {args.nprocs} processes "
        f"({args.db_sequences} db seqs, {args.query_bytes} B queries)"
    )
    print(
        f"  copy/input {b.copy_input:10.2f} s\n"
        f"  search     {b.search:10.2f} s\n"
        f"  output     {b.output:10.2f} s\n"
        f"  other      {b.other:10.2f} s\n"
        f"  total      {b.total:10.2f} s   "
        f"(search share {100 * b.search_share:.1f}%)"
    )
    return run.finish(
        r, program=args.program, bottleneck=True,
        trace_note=" (load in chrome://tracing or ui.perfetto.dev)",
    )


def _cmd_service(args: argparse.Namespace) -> int:
    run = _Run(args)
    stream = _stream(args)
    r = run.drive("service", **stream)
    sres = r.outcome
    lat = sres.latency
    arrivals = ("trace" if stream["trace"] is not None
                else f"poisson rate={args.rate}/s")
    print(
        f"service on {run.platform.name}, {args.nprocs} processes "
        f"({lat['all']['count']} queries, {sres.waves} waves, {arrivals}"
        f", priority={'on' if stream['service'].priority else 'off'})"
    )
    _print_latency(lat, sres.result.makespan, run.host_s)
    return run.finish(
        r, program="service",
        report=sres.report, oracle_name="service",
    )


def _cmd_hier(args: argparse.Namespace) -> int:
    run = _Run(args)
    mode = "shard" if args.shard else "replicate"
    r = run.drive("hier", groups=args.groups, mode=mode,
                  batch_queries=args.batch_queries)
    hres, result = r.outcome, r.result
    topo = hres.topology
    gsizes = [len(g.members) for g in topo.groups]
    print(
        f"hier on {run.platform.name}, {args.nprocs} processes: "
        f"{topo.ngroups} {mode} groups of "
        f"{min(gsizes)}-{max(gsizes)} ranks, coordinator + "
        f"sub-masters {[g.submaster for g in topo.groups]}"
    )
    gauges = result.metrics.get("global", {}).get("gauges", {})
    makespan = max(result.makespan, 1e-12)
    coord_busy = gauges.get("hier.coordinator.busy_s", 0.0)
    print(f"  makespan   {result.makespan:10.2f} s   "
          f"(host {run.host_s:.1f} s)")
    print(f"  coordinator busy {coord_busy:8.2f} s "
          f"({100 * coord_busy / makespan:.1f}% of makespan)")
    waits = {
        g.gid: gauges.get(f"hier.group.g{g.gid}.coord_wait_s", 0.0)
        for g in topo.groups
    }
    worst = max(waits.values(), default=0.0)
    print(f"  group coordinator-wait max {worst:8.2f} s "
          f"({100 * worst / makespan:.1f}% of makespan; per group "
          f"{['%.1f' % waits[g] for g in sorted(waits)]})")
    return run.finish(
        r, program="hier",
        report=hres.report, oracle_name="hierarchical",
        trace_note=" (EV_GROUP spans show per-batch group activity)",
    )


def _cmd_hier_service(args: argparse.Namespace) -> int:
    from repro.hier import ElasticConfig

    def parse_pairs(what):
        out = []
        for tok in getattr(args, what) or ():
            try:
                a, b = tok.split("@", 1)
                out.append((int(a), float(b)))
            except ValueError:
                raise _UsageError(
                    f"bad --{what} spec {tok!r} (expected N@TIME)"
                ) from None
        return tuple(out)

    run = _Run(args)
    ecfg = _checked(
        "bad elasticity flags", ElasticConfig,
        joins=parse_pairs("join"), drains=parse_pairs("drain"),
        recovery_attempts=args.recovery_attempts,
        redispatch_timeout=args.redispatch_timeout,
    )
    mode = "shard" if args.shard else "replicate"
    r = run.drive(
        "hier-service", groups=args.groups, mode=mode, elastic=ecfg,
        **_stream(args, shed_threshold=args.shed_threshold),
    )
    sres = r.outcome
    topo = sres.topology
    lat = sres.latency
    gsizes = [len(g.members) for g in topo.groups]
    print(
        f"hier-service on {run.platform.name}, {args.nprocs} processes: "
        f"{len(topo.initial_groups)}+{len(topo.latent)} {mode} groups "
        f"of {min(gsizes)}-{max(gsizes)} ranks "
        f"({lat['all']['count']} queries, {sres.waves} waves, "
        f"{sres.regroups} regroup events)"
    )
    _print_latency(lat, sres.result.makespan, run.host_s)
    degraded = bool(sres.degraded_queries or sres.shed_queries)
    if degraded:
        print(f"  degraded {sres.degraded_queries} queries "
              f"(missing fragments), shed {sres.shed_queries} at "
              f"admission")
    return run.finish(
        r, program="hier-service",
        report=sres.report, oracle_name="service", degraded=degraded,
        trace_note=" (EV_REGROUP spans show elastic membership events)",
    )


_EXPERIMENTS = {
    "table1": ("repro.experiments.table1", "run_table1", "render_table1"),
    "table2": ("repro.experiments.table2", "run_table2", None),
    "fig1a": ("repro.experiments.fig1a", "run_fig1a", "render_fig1a"),
    "fig1b": ("repro.experiments.fig1b", "run_fig1b", "render_fig1b"),
    "fig3a": ("repro.experiments.fig3a", "run_fig3a", "render_fig3a"),
    "fig3b": ("repro.experiments.fig3b", "run_fig3b", "render_fig3b"),
    "fig4": ("repro.experiments.fig4", "run_fig4", "render_fig4"),
    "formatdb": (
        "repro.experiments.formatdb_cost",
        "run_formatdb_cost",
        "render_formatdb",
    ),
}


def _cmd_experiment(args: argparse.Namespace) -> int:
    import importlib

    modname, runner_name, renderer_name = _EXPERIMENTS[args.which]
    mod = importlib.import_module(modname)
    res = getattr(mod, runner_name)()
    if args.which == "table2":
        from repro.experiments.table2 import render_table2
        from repro.scenario import PAPER_COSTS

        print(render_table2(res, PAPER_COSTS.data_scale))
    else:
        print(getattr(mod, renderer_name)(res))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.report import assemble_report, missing_experiments

    print(assemble_report(args.results))
    missing = missing_experiments(args.results)
    if missing:
        print(f"missing experiments (not yet benchmarked): "
              f"{', '.join(missing)}", file=sys.stderr)
    return 0


#: The flag families the run commands share, as ``(flag, add_argument
#: kwargs)``.  A command's parent parser is :func:`_family` over the
#: families it has; help text that differs by command is passed there,
#: keyed by the flag's dest.
def _workload(nprocs: int) -> tuple:
    return (
        ("--nprocs", dict(type=int, default=nprocs)),
        ("--platform", dict(choices=["altix", "blade"], default="altix")),
        ("--db-sequences", dict(type=int, default=300)),
        ("--mean-length", dict(type=int, default=200)),
        ("--query-bytes", dict(type=int, default=6000)),
    )


_OBS = (
    ("--faults", dict(default=None, metavar="SPEC")),
    ("--trace", dict(default=None, metavar="FILE")),
    ("--metrics-json", dict(default=None, metavar="FILE")),
)
_GATE = (
    ("--verify-oracle", dict(action="store_true")),
    ("--host-budget", dict(
        type=float, default=None, metavar="SECONDS",
        help="exit 3 if the run needs more wall-clock than this "
        "(CI smoke guard)")),
)
_STREAM = (
    ("--rate", dict(
        type=float, default=0.1,
        help="Poisson arrival rate in queries per virtual second "
        "(default 0.1)")),
    ("--seed", dict(type=int, default=0,
                    help="arrival-stream seed (default 0)")),
    ("--arrivals", dict(default=None, metavar="FILE")),
    ("--max-wave", dict(type=int, default=8,
                        help="admission batch size (default 8)")),
    ("--admission-delay", dict(
        type=float, default=20.0,
        help="max virtual seconds a queued query waits before a wave "
        "departs anyway (default 20)")),
    ("--no-priority", dict(action="store_true")),
    ("--interactive-max-len", dict(
        type=int, default=120,
        help="sequences up to this length ride the interactive lane "
        "(default 120)")),
)
#: ``exclusive`` is not an argparse keyword: the flags naming the same
#: one go into one mutually exclusive group.
_TOPOLOGY = (
    ("--groups", dict(type=int, default=4)),
    ("--replicate", dict(action="store_true", exclusive="placement")),
    ("--shard", dict(action="store_true", exclusive="placement")),
)


def _family(flags, **help_by_dest: str) -> argparse.ArgumentParser:
    """A parent parser carrying ``flags`` (families concatenated)."""
    parent = argparse.ArgumentParser(add_help=False)
    groups: dict[str, argparse._MutuallyExclusiveGroup] = {}
    for flag, kwargs in flags:
        kwargs = dict(kwargs)
        dest = flag[2:].replace("-", "_")
        if dest in help_by_dest:
            kwargs["help"] = help_by_dest[dest]
        target = parent
        if "exclusive" in kwargs:
            name = kwargs.pop("exclusive")
            if name not in groups:
                groups[name] = parent.add_mutually_exclusive_group()
            target = groups[name]
        target.add_argument(flag, **kwargs)
    return parent


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Efficient Data Access for Parallel "
        "BLAST' (IPDPS 2005)",
    )
    sub = p.add_subparsers(dest="command", required=True)

    f = sub.add_parser("formatdb", help="format a FASTA database")
    f.add_argument("fasta")
    f.add_argument("--name", default="db")
    f.add_argument("--outdir", default=".")
    f.add_argument("--title", default=None)
    f.add_argument("--dbtype", choices=["prot", "nucl"], default="prot")
    f.add_argument("--volume-letters", type=int, default=None,
                   help="split into volumes of at most this many residues")
    f.set_defaults(func=_cmd_formatdb)

    s = sub.add_parser("search", help="serial BLAST search")
    s.add_argument("queries", help="query FASTA file")
    s.add_argument("--db", default="db", help="database name")
    s.add_argument("--dbdir", default=".", help="database directory")
    s.add_argument("--program", choices=["blastp", "blastn"],
                   default="blastp")
    s.add_argument("--evalue", type=float, default=10.0)
    s.add_argument("--max-alignments", type=int, default=100)
    s.add_argument("--out", default="-", help="report path or - for stdout")
    s.set_defaults(func=_cmd_search)

    m = sub.add_parser(
        "simulate", help="parallel run on a simulated cluster",
        parents=[_family(
            _workload(16) + _OBS,
            faults="fault-injection plan; ','-separated events, e.g. "
            "'seed=7,kill=2@0.05,slowdisk=4x1.0@0.2,ioerr=nr@0.1n2' "
            "(see FAULTS.md for the full mini-language); switches "
            "mpiblast/pioblast to their fault-tolerant drivers",
            trace="write a Chrome/Perfetto trace of the run to FILE and "
            "print the event-derived bottleneck table "
            "(see OBSERVABILITY.md)",
            metrics_json="write machine-readable run metrics (makespan, "
            "phase maxima, counters, critical-path attribution) to FILE",
        )],
    )
    m.add_argument("program", choices=["mpiblast", "pioblast", "queryseg"])
    m.add_argument(
        "--checkpoint-interval", type=float, default=0.0,
        metavar="SECONDS",
        help="FT master checkpoint period in virtual seconds (0 = "
        "disabled); with checkpointing on, even the master (rank 0) "
        "is killable — a surviving worker restores the latest valid "
        "checkpoint and resumes (see FAULTS.md)",
    )
    m.add_argument(
        "--checkpoint-dir", default=None, metavar="DIR",
        help="virtual-filesystem directory for checkpoint snapshots "
        "(default: _ckpt)",
    )
    # simulate has neither _GATE flag; _Run.finish reads both
    m.set_defaults(func=_cmd_simulate, verify_oracle=False, host_budget=None)

    v = sub.add_parser(
        "service",
        help="online query service on a simulated cluster "
        "(streaming arrivals, admission batching, latency SLOs)",
        parents=[_family(
            _workload(16) + _STREAM + _OBS + _GATE,
            arrivals="replay an arrival trace file instead of a "
            "Poisson stream ('<arrival> <query-index> [lane]' per line)",
            no_priority="disable the interactive priority lane (single "
            "FIFO admission)",
            faults="fault-injection plan (see FAULTS.md); the service "
            "adopts a dead worker's fragments and re-searches the "
            "in-flight wave",
            verify_oracle="also run the serial reference and fail unless "
            "the service report is byte-identical",
            trace="write a Chrome/Perfetto trace (EV_QUERY spans show "
            "per-query latency)",
            metrics_json="write machine-readable run metrics including "
            "the service latency section",
        )],
    )
    v.set_defaults(func=_cmd_service)

    h = sub.add_parser(
        "hier",
        help="two-level hierarchical run (replication groups under a "
        "coordinator) on a simulated cluster",
        parents=[_family(
            _workload(64) + _TOPOLOGY + _OBS + _GATE,
            groups="number of replication groups (default 4)",
            replicate="each group holds the whole database; query "
            "batches split across groups (default)",
            shard="one global partition; each group owns a fragment "
            "slice and searches every batch",
            faults="fault-injection plan (see FAULTS.md); role events "
            "'crash=coordinator@T' and 'crash=submaster:gN@T' resolve "
            "against the topology",
            verify_oracle="also run the serial reference and fail unless "
            "the report is byte-identical",
            trace="write a Chrome/Perfetto trace (EV_GROUP spans show "
            "per-batch group activity)",
            metrics_json="write machine-readable run metrics including "
            "the hier section (coordinator + per-group waits)",
        )],
    )
    h.add_argument("--batch-queries", type=int, default=0,
                   help="queries per coordinator batch (0 = ~2 batches "
                   "per group)")
    h.set_defaults(func=_cmd_hier)

    hs = sub.add_parser(
        "hier-service",
        help="online query service through elastic replication groups "
        "(group join/drain, group-loss recovery, degraded answers)",
        parents=[_family(
            _workload(32) + _TOPOLOGY + _STREAM + _OBS + _GATE,
            groups="number of initial replication groups (default 4)",
            replicate="each group holds the whole database (default)",
            shard="one global partition; groups own fragment slices",
            arrivals="replay an arrival trace file instead of a "
            "Poisson stream",
            no_priority="disable the interactive priority lane",
            faults="fault-injection plan (see FAULTS.md); role events "
            "'crash=coordinator@T', 'crash=submaster:gN@T' and "
            "'crash=group:gN@T' resolve against the topology",
            verify_oracle="also run the serial reference and fail unless "
            "the report is byte-identical (degraded/shed runs are "
            "reported, not failed)",
            trace="write a Chrome/Perfetto trace (EV_REGROUP spans "
            "show elastic membership events)",
            metrics_json="write machine-readable run metrics including "
            "the latency and hier sections",
        )],
    )
    hs.add_argument("--shed-threshold", type=int, default=0,
                    help="shed arrivals once this many queries are "
                    "queued (0 disables; default 0)")
    hs.add_argument("--join", action="append", metavar="N@TIME",
                    help="reserve an N-rank group that joins at virtual "
                    "TIME (repeatable)")
    hs.add_argument("--drain", action="append", metavar="GID@TIME",
                    help="drain group GID at virtual TIME (repeatable)")
    hs.add_argument("--recovery-attempts", type=int, default=3,
                    help="re-replication probes per lost fragment "
                    "before declaring it permanently lost (default 3)")
    hs.add_argument("--redispatch-timeout", type=float, default=None,
                    metavar="SECONDS",
                    help="steal a group's in-flight wave after this much "
                    "virtual-time silence instead of waiting out the "
                    "group-death budget (default: the death budget; "
                    "see FAULTS.md §5)")
    hs.set_defaults(func=_cmd_hier_service)

    e = sub.add_parser("experiment", help="run a paper table/figure harness")
    e.add_argument("which", choices=sorted(_EXPERIMENTS))
    e.set_defaults(func=_cmd_experiment)

    r = sub.add_parser("report", help="assemble archived benchmark results")
    r.add_argument("--results", default="benchmarks/results",
                   help="directory of archived tables")
    r.set_defaults(func=_cmd_report)
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _UsageError as e:
        print(e, file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
