"""Admission/batching: coalesce queued queries into search waves.

The scheduler is a pure, deterministic data structure — no clocks, no
communication — driven by the service master (:mod:`repro.service.service`):
``enqueue`` admits an arrived job, ``wave_ready``/``next_deadline`` say
when a wave should depart, ``next_wave`` composes it.

Batching rule: a wave departs when ``max_wave`` queries are queued
(amortize the per-wave fan-out) or when the oldest queued query has
waited ``admission_delay`` (bound the queueing latency a batch adds).

Priority rule (``priority=True``): queries are classified into an
``interactive`` lane (short sequences) and a ``scan`` lane (everything
else).  Interactive queries preempt scans at wave boundaries — they
fill the wave first even if scans queued earlier.  Starvation bound: a
scan bypassed by ``max_scan_defer`` departing waves becomes *forced*
and goes ahead of everything, so a scan's wave delay is at most
``max_scan_defer`` waves plus however many waves the forced backlog in
front of it needs (``ceil(older_forced / max_wave)``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.blast.fasta import SeqRecord

if TYPE_CHECKING:
    from repro.service.arrivals import QueryJob


@dataclass(frozen=True)
class ServiceConfig:
    """Admission/batching tunables of the online service."""

    #: wave departs as soon as this many queries are queued
    max_wave: int = 8
    #: ... or once the oldest queued query has waited this long (virtual s)
    admission_delay: float = 0.05
    #: interactive lane preempts scans at wave boundaries
    priority: bool = True
    #: sequences up to this length classify as interactive
    interactive_max_len: int = 120
    #: a scan bypassed this many times is forced into the next wave
    max_scan_defer: int = 4
    #: admission backpressure: arrivals beyond this many queued queries
    #: are shed (answered with a shed notice instead of searched);
    #: 0 disables shedding.  Only drivers that support shedding (the
    #: hierarchical service) honour it.
    shed_threshold: int = 0

    def __post_init__(self) -> None:
        if self.max_wave < 1:
            raise ValueError(f"max_wave must be >= 1, got {self.max_wave}")
        if self.admission_delay < 0:
            raise ValueError(
                f"admission_delay must be >= 0, got {self.admission_delay}"
            )
        if self.max_scan_defer < 1:
            raise ValueError(
                f"max_scan_defer must be >= 1, got {self.max_scan_defer}"
            )
        if self.shed_threshold < 0:
            raise ValueError(
                f"shed_threshold must be >= 0, got {self.shed_threshold}"
            )

    def lane_for(self, record: SeqRecord) -> str:
        return (
            "interactive"
            if len(record.sequence) <= self.interactive_max_len
            else "scan"
        )


class QueuedJob:
    """Scheduler-internal wrapper: a job plus its queueing state."""

    __slots__ = ("job", "lane", "enqueued_at", "deferred")

    def __init__(self, job: QueryJob, lane: str, enqueued_at: float) -> None:
        self.job = job
        self.lane = lane
        self.enqueued_at = enqueued_at
        self.deferred = 0  # departing waves that bypassed this scan


class AdmissionScheduler:
    """Deterministic wave composition over two FIFO lanes."""

    def __init__(self, cfg: ServiceConfig) -> None:
        self.cfg = cfg
        self._interactive: deque[QueuedJob] = deque()
        self._scan: deque[QueuedJob] = deque()
        #: highest defer count any scan reached (starvation-bound tests)
        self.max_deferred_seen = 0

    # -- admission --------------------------------------------------------
    def enqueue(self, job: QueryJob, now: float) -> str:
        """Admit an arrived job; returns the lane it joined.

        Callers admit jobs in ``(arrival, qid)`` order, so each lane's
        deque is FIFO by arrival.
        """
        lane = job.lane if job.lane is not None else self.cfg.lane_for(
            job.record
        )
        q = QueuedJob(job, lane, now)
        (self._interactive if lane == "interactive" else self._scan).append(q)
        return lane

    @property
    def pending(self) -> int:
        return len(self._interactive) + len(self._scan)

    # -- departure timing -------------------------------------------------
    def next_deadline(self) -> float | None:
        """When the oldest queued query's admission delay expires."""
        oldest = [
            q[0].enqueued_at for q in (self._interactive, self._scan) if q
        ]
        if not oldest:
            return None
        return min(oldest) + self.cfg.admission_delay

    def wave_ready(self, now: float) -> bool:
        if self.pending >= self.cfg.max_wave:
            return True
        deadline = self.next_deadline()
        return deadline is not None and now >= deadline - 1e-12

    # -- composition ------------------------------------------------------
    def next_wave(self, now: float) -> list[QueuedJob]:
        """Compose and remove the departing wave (up to ``max_wave``).

        Order inside the wave: forced scans (starvation bound), then
        interactive FIFO, then scans FIFO.  Without priority, a single
        FIFO over both lanes by ``(enqueued_at, qid)``.
        """
        if not self.wave_ready(now):
            return []
        cfg = self.cfg
        take: list[QueuedJob] = []
        if not cfg.priority:
            while len(take) < cfg.max_wave and (
                self._interactive or self._scan
            ):
                take.append(self._pop_fifo())
            return take
        while (
            len(take) < cfg.max_wave
            and self._scan
            and self._scan[0].deferred >= cfg.max_scan_defer
        ):
            take.append(self._scan.popleft())
        while len(take) < cfg.max_wave and self._interactive:
            take.append(self._interactive.popleft())
        while len(take) < cfg.max_wave and self._scan:
            take.append(self._scan.popleft())
        for q in self._scan:
            q.deferred += 1
            if q.deferred > self.max_deferred_seen:
                self.max_deferred_seen = q.deferred
        return take

    def _pop_fifo(self) -> QueuedJob:
        i, s = self._interactive, self._scan
        if not s:
            return i.popleft()
        if not i:
            return s.popleft()
        ikey = (i[0].enqueued_at, i[0].job.qid)
        skey = (s[0].enqueued_at, s[0].job.qid)
        return i.popleft() if ikey <= skey else s.popleft()
