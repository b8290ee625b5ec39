"""Two-level replication groups: hierarchical masters for 1024 ranks.

The flat drivers (one master, N-1 workers) stop scaling near np=256:
every result meta, every output offset and every liveness decision
funnels through rank 0, and the bench files show worker wait share
climbing with np.  This package splits the cluster into K replication
groups (:mod:`repro.hier.topology`), each a self-contained
fault-tolerant pull-RPC cluster run by a **sub-master**
(:mod:`repro.hier.groupmaster`), under a top-level **coordinator**
(:mod:`repro.hier.coordinator`) that deals only in query batches and
group-level result metadata.  :mod:`repro.hier.batch` runs them over
one fixed query set; the shapes of a run (:class:`HierConfig`,
:class:`ElasticConfig`) sit with the topology, so naming them loads no
protocol code.

Failover is hierarchical too: groups succeed their own sub-master from
within (the coordinator never notices); the coordinator is succeeded by
the lowest surviving member rank — a *live* succession list, so ranks
promoted to sub-master mid-run are candidates too.  Output is
byte-identical to the serial oracle under any kill schedule that
leaves each fragment recoverable — the same determinism argument as
the flat FT drivers, applied per group.

:mod:`repro.hier.elastic` serves *live traffic* through the hierarchy:
the coordinator becomes an admission front-end routing service waves
to elastic groups (runtime join/drain, whole-group-loss recovery with
re-replication from the shared FS, SLO-preserving degradation when a
fragment slice is permanently lost).

Usage::

    from repro.hier import HierConfig, run_hier
    res = run_hier(nprocs, store, cfg, hier=HierConfig(ngroups=4))
    assert res.report == oracle_bytes

    from repro.hier import ElasticConfig, run_hier_service
    sres = run_hier_service(nprocs, store, cfg, jobs,
                            hier=HierConfig(ngroups=4),
                            elastic=ElasticConfig(joins=((4, 80.0),)))
"""

from repro._lazy import namespace

__all__, __getattr__, __dir__ = namespace(__name__, {
    "topology": (
        "ElasticConfig", "GroupSpec", "HierConfig", "HierTopology", "MODES",
        "build_topology",
    ),
    "batch": ("HierResult", "run_hier"),
    "elastic": ("HierServiceResult", "run_hier_service"),
})
