"""One simulated run, described once: :class:`Scenario` and :func:`run`.

Text form: the driver, then ``key=value`` per field off its default, in
field order (``Scenario.parse(str(s)) == s``), e.g. ``mpiblast nprocs=6
workload=replay cost=lab faults=kill=2@0.1``.  ``workload`` /
``platform`` name an entry of :data:`WORKLOADS` / ``PLATFORMS``; a
dotted key sets a field inside one (``service.max_wave=4``); ``faults``
is ``--faults`` text; other keys are ``ParallelConfig`` options
(``num_fragments=12``).  Values are Python literals or bare words.
"""

from __future__ import annotations

import ast
import hashlib
import importlib
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from functools import lru_cache
from typing import Any

from repro.blast.engine import SearchParams
from repro.blast.fasta import SeqRecord
from repro.costmodel import CostModel
from repro.hier.topology import ElasticConfig, HierConfig
from repro.parallel.config import ParallelConfig, ft_for_cost, stage_inputs
from repro.parallel.fragments import mpiformatdb
from repro.parallel.phases import breakdown_from_run
from repro.parallel.serial import run_serial_reference
from repro.platforms import ORNL_ALTIX, PLATFORMS
from repro.service.scheduler import ServiceConfig
from repro.simmpi import FaultPlan, FileStore, PlatformSpec
from repro.workloads import SynthSpec, sample_queries, synthesize_protein_records

#: Calibrated cost model for the paper-regime experiments (tuned so the
#: Table-1 32-process phase breakdown lands near the paper's — see
#: EXPERIMENTS.md for the calibration record).
PAPER_COSTS = CostModel(
    compute_scale=950.0, data_scale=250.0, db_scale=6000.0,
    per_output_byte_rendered=1.2e-6, per_alignment_merged=8e-5,
    per_fetch_request=1.4e-3, per_result_alignment_processed=1.67e-4,
    per_process_init=4e-3, copy_inefficiency=13.0, mmap_inefficiency=75.0,
)


@dataclass(frozen=True)
class ExperimentWorkload:
    """A reproducible workload: synthetic nr + sampled query set."""

    db_spec: SynthSpec = field(default_factory=lambda: SynthSpec(
        num_sequences=600, mean_length=250, family_fraction=0.7,
        family_size=6, seed=20050404))
    query_bytes: int = 22_000
    query_seed: int = 42
    search: SearchParams = field(
        default_factory=lambda: SearchParams(max_alignments=50))
    cost: CostModel = field(default_factory=lambda: PAPER_COSTS)

    def with_query_bytes(self, nbytes: int) -> "ExperimentWorkload":
        return replace(self, query_bytes=nbytes)


@lru_cache(maxsize=8)
def _db_cache(spec: SynthSpec) -> tuple[SeqRecord, ...]:
    return tuple(synthesize_protein_records(spec))


def build_workload(wl: ExperimentWorkload):
    """Database and query records for a workload (database memoized)."""
    db = list(_db_cache(wl.db_spec))
    return db, sample_queries(db, wl.query_bytes, seed=wl.query_seed)


#: The paper's workload, and the 90-sequence one of the replay goldens.
WORKLOADS = {
    "paper": ExperimentWorkload(),
    "replay": ExperimentWorkload(db_spec=SynthSpec(
        num_sequences=90, mean_length=130, family_fraction=0.6,
        family_size=4, seed=2025), query_bytes=2_500),
}
DRIVERS = ("pioblast", "mpiblast", "queryseg", "service", "hier",
           "hier-service", "serial")
_NAMED = {"workload": WORKLOADS, "platform": PLATFORMS}


def _decode(text: str) -> Any:
    try:
        return ast.literal_eval(text)
    except (ValueError, SyntaxError):
        return text  # a bare word


def _encode(v: Any) -> str:
    if not isinstance(v, str):
        return "".join(repr(v).split())
    if v and _decode(v) == v and not any(c.isspace() for c in v):
        return v
    return repr(v).replace(" ", r"\x20")


def _diff(prefix: str, obj, base):
    """``(dotted key, value)`` of each field where ``obj`` differs."""
    for f in fields(obj):
        a, b = getattr(obj, f.name), getattr(base, f.name)
        if a != b and is_dataclass(a) and type(a) is type(b):
            yield from _diff(f"{prefix}.{f.name}", a, b)
        elif a != b:
            yield f"{prefix}.{f.name}", a


def _assign(obj, path: str, value):
    head, _, rest = path.partition(".")
    return replace(obj, **{head: _assign(getattr(obj, head), rest, value)
                           if rest else value})


@dataclass(frozen=True)
class Scenario:
    """One run of one driver.  ``cost`` is ``paper`` (the workload's
    calibrated costs) or ``lab`` (``CostModel()``); ``faults`` is the
    ``--faults`` text (a ``FaultPlan`` is accepted, but has no text);
    ``rate`` / ``arrival_seed`` (Poisson) or ``trace`` (arrival-trace
    text) are the online drivers' arrivals."""

    driver: str
    nprocs: int
    mode: str = "replicate"
    groups: int = 2
    workload: ExperimentWorkload = field(default_factory=ExperimentWorkload)
    cost: str = "paper"
    platform: PlatformSpec = ORNL_ALTIX
    faults: str | FaultPlan | None = None
    rate: float = 0.1
    arrival_seed: int = 0
    trace: str | None = None
    batch_queries: int = 0
    service: ServiceConfig = field(default_factory=ServiceConfig)
    elastic: ElasticConfig = field(default_factory=ElasticConfig)
    options: tuple = ()

    def __post_init__(self) -> None:
        if self.driver not in DRIVERS:
            raise ValueError(f"unknown driver {self.driver!r}")
        if self.cost not in ("paper", "lab"):
            raise ValueError(f"cost is paper or lab, not {self.cost!r}")
        opts = dict(self.options)
        unknown = sorted(set(opts) - {f.name for f in fields(ParallelConfig)})
        if unknown:
            raise ValueError(f"not ParallelConfig options: {unknown}")
        object.__setattr__(self, "options", tuple(sorted(opts.items())))
        if isinstance(self.faults, str):
            object.__setattr__(self, "faults", "".join(self.faults.split()))

    def __str__(self) -> str:
        toks = [self.driver, f"nprocs={self.nprocs}"]
        for f in fields(self)[2:]:
            v = getattr(self, f.name)
            base = f.default if f.default is not MISSING else f.default_factory()
            names = [n for n, x in _NAMED.get(f.name, {}).items() if x == v]
            if isinstance(v, FaultPlan):
                raise TypeError("a FaultPlan has no text; pass --faults text")
            if f.name == "options":
                toks += [f"{k}={_encode(x)}" for k, x in v]
            elif is_dataclass(v) and not names:
                toks += [f"{k}={_encode(x)}" for k, x in _diff(f.name, v, base)]
            elif v != base:
                toks.append(f"{f.name}={_encode(names[0] if names else v)}")
        return " ".join(toks)

    @classmethod
    def parse(cls, text: str) -> "Scenario":
        driver, *toks = text.split()
        kw: dict = {"options": {}}
        dotted = []
        for tok in toks:
            key, eq, raw = tok.partition("=")
            if not eq:
                raise ValueError(f"bad scenario token {tok!r} (key=value)")
            value = _decode(raw)
            if "." in key:
                dotted.append((key, value))
            elif key in _NAMED:
                kw[key] = _NAMED[key][value]
            elif key in {f.name for f in fields(cls)}:
                kw[key] = value
            else:
                kw["options"][key] = value
        s = cls(driver, **kw)
        for key, value in dotted:
            head, _, path = key.partition(".")
            s = replace(s, **{head: _assign(getattr(s, head), path, value)})
        return s


def _canon(x) -> str:
    """Canonical text of a fingerprint: floats exact, bytes by digest."""
    if isinstance(x, dict):
        return "{" + ",".join(
            f"{_canon(k)}:{_canon(v)}"
            for k, v in sorted(x.items(), key=lambda kv: repr(kv[0]))) + "}"
    if isinstance(x, (list, tuple)):
        return "[" + ",".join(_canon(v) for v in x) + "]"
    if isinstance(x, (bytes, bytearray)):
        return "b:" + hashlib.sha256(bytes(x)).hexdigest()
    return x.hex() if isinstance(x, float) else repr(x)


@dataclass
class Run:
    """``result``: the ``RunResult`` (None for ``serial``); ``outcome``: a
    flat program's breakdown, the hier / service result, or the report."""

    scenario: Scenario
    result: Any
    store: FileStore
    config: ParallelConfig
    outcome: Any

    @property
    def output(self) -> bytes:
        return self.store.read_all(self.config.output_path)

    def fingerprint(self) -> dict:
        """What a replay golden pins: times, traffic, files, faults."""
        r = self.result
        return {
            "makespan": r.makespan, "phase_times": r.phase_times,
            "messages_sent": r.messages_sent, "bytes_sent": r.bytes_sent,
            "fs_ops": (r.fs_read_ops, r.fs_write_ops),
            "dead_ranks": r.dead_ranks, "promotions": r.promotions,
            "files": {p: self.store.read_all(p) for p in self.store.listdir()},
            "fault_report": r.fault_report.as_tuple(),
        }

    def digest(self) -> str:
        return hashlib.sha256(_canon(self.fingerprint()).encode()).hexdigest()


def run(scenario: Scenario, tracer=None) -> Run:
    """Stage ``scenario``'s workload on a fresh store and run it."""
    s = scenario
    wl = replace(s.workload, cost=CostModel()) if s.cost == "lab" else s.workload
    db, queries = build_workload(wl)
    store = FileStore()
    cfg = stage_inputs(store, db, queries, title="synthetic nr",
                       config=ParallelConfig(search=wl.search, cost=wl.cost))
    cfg = replace(cfg, **dict(s.options))
    faults = FaultPlan.parse(s.faults) if isinstance(s.faults, str) else s.faults
    kw = dict(platform=s.platform, faults=faults, tracer=tracer)
    hier = HierConfig(ngroups=s.groups, mode=s.mode,
                      batch_queries=s.batch_queries)
    # Each driver is imported by the run that uses it, here on the
    # calling thread: a process pays to compile only its own drivers.
    if s.driver == "serial":
        return Run(s, None, store, cfg, run_serial_reference(store, cfg))
    if s.driver in ("pioblast", "mpiblast", "queryseg"):
        if s.driver == "mpiblast":  # as many physical fragments as it runs
            cfg = replace(cfg, num_fragments=cfg.fragments_for(s.nprocs - 1))
            mpiformatdb(store, cfg.db_name, cfg.num_fragments)
        if faults is not None or cfg.fault_tolerance:
            cfg = ft_for_cost(cfg)
        if s.driver == "queryseg":
            if kw.pop("faults") is not None:
                raise ValueError("queryseg has no fault-tolerant driver; "
                                 "use mpiblast or pioblast")
        mod = importlib.import_module(f"repro.parallel.{s.driver}")
        result = getattr(mod, f"run_{s.driver}")(s.nprocs, store, cfg, **kw)
        return Run(s, result, store, cfg, breakdown_from_run(s.driver, result))
    if s.driver == "hier":
        from repro.hier.batch import run_hier

        out = run_hier(s.nprocs, store, cfg, hier, **kw)
        return Run(s, out.result, store, cfg, out)
    from repro.service.arrivals import poisson_arrivals, trace_arrivals

    jobs = (trace_arrivals(s.trace, queries) if s.trace is not None else
            poisson_arrivals(queries, rate=s.rate, seed=s.arrival_seed))
    if s.driver == "service":
        from repro.service.service import run_service

        out = run_service(s.nprocs, store, cfg, jobs, service=s.service, **kw)
    else:
        from repro.hier.elastic import run_hier_service

        out = run_hier_service(s.nprocs, store, cfg, jobs, hier=hier,
                               service=s.service, elastic=s.elastic, **kw)
    return Run(s, out.result, store, cfg, out)
