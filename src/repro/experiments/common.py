"""What ``bench/workloads.py`` imports: the workload (defined in
:mod:`repro.scenario`) and three adapters over :func:`repro.scenario.run`
in its call shapes; nothing else may call them."""

from repro.hier.topology import ElasticConfig
from repro.platforms import ORNL_ALTIX
from repro.scenario import (  # noqa: F401  (re-exported)
    PAPER_COSTS,
    ExperimentWorkload,
    Scenario,
    build_workload,
    run,
)
from repro.service.scheduler import ServiceConfig


def run_program_raw(program, nprocs, wl, platform=ORNL_ALTIX, *,
                    nfragments=None, config_overrides=None, faults=None,
                    tracer=None):
    """``(breakdown, RunResult, store, config)`` of a flat program."""
    options = dict(config_overrides or {})
    if nfragments is not None:
        options["num_fragments"] = nfragments
    r = run(Scenario(program, nprocs, workload=wl, platform=platform,
                     faults=faults, options=options), tracer)
    return r.outcome, r.result, r.store, r.config


def run_hier_raw(nprocs, wl, platform=ORNL_ALTIX, *, ngroups=2,
                 mode="replicate", batch_queries=0, config_overrides=None,
                 faults=None, tracer=None):
    """``(HierResult, store, config)`` of the batch hierarchy."""
    r = run(Scenario("hier", nprocs, mode, ngroups, wl, platform=platform,
                     faults=faults, batch_queries=batch_queries,
                     options=config_overrides or ()), tracer)
    return r.outcome, r.store, r.config


def run_hier_service_raw(nprocs, wl, platform=ORNL_ALTIX, *, ngroups=2,
                         mode="replicate", rate=0.1, arrival_seed=0,
                         trace_text=None, service=None, elastic=None,
                         config_overrides=None, faults=None, tracer=None):
    """``(service result, store, config)`` of the elastic service."""
    r = run(Scenario(
        "hier-service", nprocs, mode, ngroups, wl, platform=platform,
        faults=faults, rate=rate, arrival_seed=arrival_seed,
        trace=trace_text, service=service or ServiceConfig(),
        elastic=elastic or ElasticConfig(), options=config_overrides or (),
    ), tracer)
    return r.outcome, r.store, r.config
