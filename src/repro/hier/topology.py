"""Two-level replication-group topology.

The flat drivers put every worker behind one master; past ~256 ranks
that master's request loop — and the single shared result stream — is
the scaling wall the bench files document.  The hierarchy splits the
rank space instead:

- rank 0 is the **coordinator**: it owns the query stream, hands out
  query *batches*, and assembles only group-level result *metadata*
  (section sizes, or per-shard pruned meta lists) — never per-fragment
  traffic.
- the remaining ranks are partitioned into ``ngroups`` contiguous
  **replication groups**.  Each group's lowest rank is its
  **sub-master**; it speaks the same pull-RPC protocol to its group
  workers that the flat FT drivers speak cluster-wide.

Two database placements (the paper's replica-vs-shard trade):

``replicate``
    every group partitions the *whole* database over its own workers
    (one fragment per worker, group-local fragment ids).  A query batch
    is answered entirely inside one group, so groups scale throughput.
``shard``
    one *global* partition with one fragment per worker cluster-wide;
    a group owns the contiguous fragment-id slice its workers hold.
    Every group searches every batch against its shard and the
    coordinator merges the pruned per-shard rankings.

Failover domains follow the topology: a dead sub-master is succeeded
from *within its group* (member-rank succession, coordinator not
involved); a dead coordinator is succeeded by the lowest surviving
member in group order — a *live* succession list, so a worker promoted
to sub-master mid-run is a coordinator candidate exactly like an
original sub-master (the list admits every rank that can ever hold the
role, and in-group succession order equals rank order).

Elastic runs add **join groups** (``build_topology(..., joins=...)``):
rank sets carved off the top of the rank space that enter the cluster
mid-run.  Under ``shard`` a join group owns no slice of the global
fragment partition at launch — the coordinator assigns it coverage at
join time — so the global fragment space is defined by the initial
groups alone.

The shapes a caller picks — :class:`HierConfig` for every hierarchical
run, :class:`ElasticConfig` for the elastic service — live here with
the topology they size, apart from the protocol modules.
"""

from __future__ import annotations

from dataclasses import dataclass, field

MODES = ("replicate", "shard")


@dataclass(frozen=True)
class HierConfig:
    """Shape of the hierarchy.

    ``batch_queries == 0`` sizes query batches to ~2 per group
    (coordinator keeps slack for balancing); ``mode`` picks the
    database placement — ``replicate`` (each group holds the whole
    database, batches split across groups) or ``shard`` (one global
    partition, groups own fragment slices, every group searches every
    batch).
    """

    ngroups: int = 2
    mode: str = "replicate"
    batch_queries: int = 0

    def __post_init__(self) -> None:
        if self.ngroups < 1:
            raise ValueError("ngroups must be >= 1")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.batch_queries < 0:
            raise ValueError("batch_queries must be >= 0")


@dataclass(frozen=True)
class ElasticConfig:
    """Membership schedule + recovery budget of an elastic run.

    ``joins`` lists groups that enter mid-run: one ``(nranks, time)``
    entry per join group, in gid order after the initial groups
    (``build_topology`` reserves the rank sets).  ``drains`` schedules
    ``(gid, time)`` departures.  ``recovery_attempts`` bounds how many
    re-replication probes a lost fragment gets before it is declared
    permanently lost; ``recovery_backoff`` is the multiplicative
    per-attempt backoff (virtual seconds).

    ``redispatch_timeout`` decouples *work redispatch* from *death
    detection*: it is how long an assigned wave part may sit
    unanswered before another pulling group steals it.  ``None``
    (default) uses the group-death silence budget — safe but slow
    under stretched FT timeouts; latency-SLO deployments set it a bit
    above the healthy per-wave service time, trading an occasional
    duplicated search (late results are absorbed deterministically)
    for p95-preserving recovery from a dead group.
    """

    joins: tuple[tuple[int, float], ...] = ()
    drains: tuple[tuple[int, float], ...] = ()
    recovery_attempts: int = 3
    recovery_backoff: float = 2.0
    redispatch_timeout: float | None = None

    def __post_init__(self) -> None:
        for n, t in self.joins:
            if n < 2:
                raise ValueError(
                    f"a join group needs a sub-master and a worker "
                    f"(size >= 2), got {n}"
                )
            if t < 0:
                raise ValueError(f"join time must be >= 0, got {t}")
        for gid, t in self.drains:
            if gid < 0:
                raise ValueError(f"drain gid must be >= 0, got {gid}")
            if t < 0:
                raise ValueError(f"drain time must be >= 0, got {t}")
        if self.recovery_attempts < 0:
            raise ValueError("recovery_attempts must be >= 0")
        if self.recovery_backoff <= 0:
            raise ValueError("recovery_backoff must be > 0")
        if self.redispatch_timeout is not None and self.redispatch_timeout <= 0:
            raise ValueError("redispatch_timeout must be > 0")


@dataclass(frozen=True)
class GroupSpec:
    """One replication group: ``members[0]`` is the initial sub-master."""

    gid: int
    members: tuple[int, ...]

    @property
    def submaster(self) -> int:
        return self.members[0]

    @property
    def workers(self) -> tuple[int, ...]:
        """Members that hold database fragments (everyone but the
        sub-master; a *promoted* worker keeps serving its fragments
        in-line, but the initial layout never assigns any to
        ``members[0]``)."""
        return self.members[1:]

    @property
    def nfrag(self) -> int:
        return len(self.workers)


@dataclass(frozen=True)
class HierTopology:
    nprocs: int
    mode: str
    groups: tuple[GroupSpec, ...] = field(repr=False)
    #: gids of join groups: carved out at build time but not part of the
    #: initial serving set (they enter the cluster mid-run; under
    #: ``shard`` they own no slice of the global fragment partition).
    latent: tuple[int, ...] = ()

    # ------------------------------------------------------------------
    @property
    def ngroups(self) -> int:
        return len(self.groups)

    @property
    def initial_groups(self) -> tuple[GroupSpec, ...]:
        """The groups serving from launch (latent join groups excluded)."""
        return tuple(g for g in self.groups if g.gid not in self.latent)

    def group_of(self, rank: int) -> int | None:
        """Group id of ``rank``; None for the coordinator (rank 0)."""
        if rank == 0:
            return None
        for g in self.groups:
            if g.members[0] <= rank <= g.members[-1]:
                return g.gid
        raise ValueError(f"rank {rank} outside topology of {self.nprocs}")

    def submasters(self) -> tuple[int, ...]:
        return tuple(g.submaster for g in self.groups)

    def coordinator_succession(self) -> tuple[int, ...]:
        """Coordinator candidates, in promotion order.

        Every member rank is a candidate, in group order — which is
        rank order, since groups partition the rank space contiguously.
        This makes the list *live*: a worker promoted to sub-master
        mid-run occupies the same position it would need to reach the
        coordinator role, so succession never dead-ends on a group
        whose original sub-master is gone.  The walk is silence-paced
        and bounded by the shared-FS done marker, so candidates that
        never serve the role cost at most one silence window each.
        """
        return (0, *(r for g in self.groups for r in g.members))

    # ---- fragment spaces ---------------------------------------------
    @property
    def total_fragments(self) -> int:
        """Cluster-wide fragment count in ``shard`` mode.

        Defined by the *initial* groups: a latent join group owns no
        slice until the coordinator assigns it coverage at join time.
        """
        return sum(g.nfrag for g in self.initial_groups)

    def frag_base(self, gid: int) -> int:
        """First fragment id of group ``gid`` (0 under ``replicate``,
        the slice start under ``shard``)."""
        if self.mode == "replicate":
            return 0
        return sum(
            g.nfrag
            for g in self.groups[:gid]
            if g.gid not in self.latent
        )

    def frag_ids(self, gid: int) -> tuple[int, ...]:
        """The fragment ids group ``gid`` is responsible for at launch
        (empty for a latent join group under ``shard``)."""
        if self.mode == "shard" and gid in self.latent:
            return ()
        base = self.frag_base(gid)
        return tuple(range(base, base + self.groups[gid].nfrag))

    def group_nfrag_total(self, gid: int) -> int:
        """Size of the fragment space a group's partition call uses:
        under ``replicate`` each group has its own whole-database
        partition; under ``shard`` every group slices the one global
        partition."""
        if self.mode == "replicate":
            return self.groups[gid].nfrag
        return self.total_fragments

    def owner_group(self, fid: int) -> int:
        """Group owning global fragment ``fid`` at launch (``shard``)."""
        if self.mode != "shard":
            raise ValueError("owner_group is only meaningful under shard")
        for g in self.initial_groups:
            base = self.frag_base(g.gid)
            if base <= fid < base + g.nfrag:
                return g.gid
        raise ValueError(f"no group owns fragment {fid}")

    # ---- fault-plan role resolution ----------------------------------
    def role_rank(self, role: str, group: int | None) -> int | tuple[int, ...]:
        """Concrete rank(s) for a role-targeted fault
        (:meth:`repro.simmpi.faults.FaultPlan.resolve_roles`).

        ``coordinator``/``submaster`` name one rank; ``group`` names
        every member of the group — a whole-group kill expands into one
        :class:`~repro.simmpi.faults.CrashFault` per member.
        """
        if role == "coordinator":
            return 0
        if role in ("submaster", "group"):
            if group is None or not (0 <= group < self.ngroups):
                raise ValueError(
                    f"no group {group!r} in a {self.ngroups}-group topology"
                )
            if role == "group":
                return tuple(self.groups[group].members)
            return self.groups[group].submaster
        raise ValueError(f"unknown role {role!r}")


def build_topology(
    nprocs: int,
    ngroups: int,
    mode: str,
    joins: tuple[int, ...] = (),
) -> HierTopology:
    """Partition ``nprocs`` ranks into coordinator + ``ngroups`` groups.

    Ranks 1..nprocs-1 are split contiguously; sizes differ by at most
    one (larger groups first).  Every group needs a sub-master plus at
    least one fragment-holding worker, hence ``nprocs >= 2*ngroups+1``.

    ``joins`` reserves rank sets at the *top* of the rank space for
    elastic join groups (one entry per group, each its member count,
    each >= 2): those ranks are excluded from the initial partition and
    appear as latent :class:`GroupSpec`\\ s with gids after the initial
    groups', in ``joins`` order.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if ngroups < 1:
        raise ValueError("ngroups must be >= 1")
    joins = tuple(joins)
    if any(j < 2 for j in joins):
        raise ValueError(
            f"every join group needs a sub-master and a worker "
            f"(size >= 2), got {joins}"
        )
    reserved = sum(joins)
    if nprocs - reserved < 2 * ngroups + 1:
        raise ValueError(
            f"{ngroups} groups need at least {2 * ngroups + 1} ranks "
            f"(coordinator + per-group sub-master and worker"
            + (f", plus {reserved} reserved for joins" if reserved else "")
            + f"), got {nprocs}"
        )
    nmembers = nprocs - 1 - reserved
    base, extra = divmod(nmembers, ngroups)
    groups = []
    start = 1
    for gid in range(ngroups):
        size = base + (1 if gid < extra else 0)
        groups.append(
            GroupSpec(gid=gid, members=tuple(range(start, start + size)))
        )
        start += size
    latent = []
    for size in joins:
        gid = len(groups)
        groups.append(
            GroupSpec(gid=gid, members=tuple(range(start, start + size)))
        )
        latent.append(gid)
        start += size
    return HierTopology(
        nprocs=nprocs, mode=mode, groups=tuple(groups),
        latent=tuple(latent),
    )
