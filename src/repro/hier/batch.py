"""The batch hierarchy: one fixed query set through replication groups.

:func:`run_hier` launches the coordinator (rank 0) and every group's
sub-master and members (:mod:`repro.hier.coordinator`,
:mod:`repro.hier.groupmaster`) on the simulator; the elastic service
over the same roles is :mod:`repro.hier.elastic`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.parallel.config import FTParams, ParallelConfig
from repro.simmpi import FileStore, PlatformSpec, ProcContext, RunResult
from repro.simmpi.faults import FaultPlan
from repro.simmpi.launcher import run

from repro.hier.coordinator import run_coordinator
from repro.hier.groupmaster import run_group_master, run_group_member
from repro.hier.topology import HierConfig, HierTopology, build_topology


@dataclass(frozen=True)
class HierResult:
    """A hierarchical run plus its topology."""

    result: RunResult
    topology: HierTopology
    output_path: str

    @property
    def report(self) -> bytes:
        return self.result.store.read_all(self.output_path)


def _program(ctx: ProcContext):
    cfg: ParallelConfig = ctx.args["config"]
    hcfg: HierConfig = ctx.args["hier"]
    topo: HierTopology = ctx.args["topology"]
    if ctx.rank == 0:
        return run_coordinator(ctx, cfg, hcfg, topo)
    gid = topo.group_of(ctx.rank)
    group = topo.groups[gid]
    if ctx.rank == group.submaster:
        status = run_group_master(ctx, cfg, hcfg, topo, gid)
    else:
        status = run_group_member(ctx, cfg, hcfg, topo, gid)
        if status.startswith("promoted:"):
            status = status[len("promoted:"):]
    if status == "promote-coordinator":
        return run_coordinator(ctx, cfg, hcfg, topo, promoted=True)
    return status


def run_hier(
    nprocs: int,
    store: FileStore,
    config: ParallelConfig,
    hier: HierConfig | None = None,
    platform: PlatformSpec | None = None,
    *,
    faults: FaultPlan | None = None,
    tracer=None,
    on_cluster=None,
) -> HierResult:
    """Run hierarchical parallel BLAST on a simulated cluster.

    ``store`` needs the formatted global database and the query file.
    The report lands at ``config.output_path``, byte-identical to the
    serial reference — including under sub-master and coordinator
    kills (pass a :class:`~repro.simmpi.faults.FaultPlan`;
    role-targeted events like ``crash=submaster:g2@40`` are resolved
    against the topology here).
    """
    hier = hier if hier is not None else HierConfig()
    topo = build_topology(nprocs, hier.ngroups, hier.mode)
    # The hierarchy is timeout-driven even in fault-free runs; stretch
    # the default FT timeouts to the cost model exactly like the
    # service does, so modelled compute/IO never outruns a liveness
    # deadline.
    if config.ft == FTParams():
        config = replace(config, ft=FTParams.for_cost(config.cost))
    if faults is not None:
        faults = faults.resolve_roles(topo.role_rank)
    result = run(
        nprocs,
        _program,
        platform,
        shared_store=store,
        args={"config": config, "hier": hier, "topology": topo},
        faults=faults,
        tracer=tracer,
        on_cluster=on_cluster,
    )
    # Derived headline gauge: the worst group's share of the makespan
    # spent blocked on the coordinator.  This is the two-level analogue
    # of the flat master-wait share the bench compares against —
    # ``hier.coordinator.wait_share`` itself is ~1.0 by design (the
    # coordinator idles while groups search) and says nothing about
    # whether the groups are starved for work.  A poll the coordinator
    # held is a group with no work, not one blocked on the coordinator:
    # its ``held_s`` comes out of the group's ``coord_wait_s`` first.
    snap = (result.metrics or {}).get("global", {})
    gauges = snap.get("gauges")
    if gauges is not None and result.makespan > 0:
        counters = snap.get("counters", {})
        for g in topo.groups:
            prefix = f"hier.group.g{g.gid}."
            if prefix + "coord_wait_s" in gauges:
                gauges[prefix + "coord_wait_s"] = max(
                    0.0,
                    gauges[prefix + "coord_wait_s"]
                    - counters.get(prefix + "held_s", 0.0),
                )
        worst = max(
            (
                gauges.get(f"hier.group.g{g.gid}.coord_wait_s", 0.0)
                for g in topo.groups
            ),
            default=0.0,
        )
        gauges["hier.group_coord_wait_share_max"] = worst / result.makespan
    return HierResult(
        result=result, topology=topo, output_path=config.output_path
    )
