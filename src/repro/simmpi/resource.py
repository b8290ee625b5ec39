"""Processor-sharing bandwidth resources.

A :class:`SharedBandwidth` models a contended pipe — a filesystem server,
a storage array, a NIC.  Concurrent transfers share the aggregate
capacity fairly, each additionally capped by a per-stream limit (a single
client cannot saturate a striped parallel filesystem on its own).  Rates
are recomputed whenever a transfer starts or finishes, which is the exact
fluid processor-sharing model used by network/storage simulators.

Transfers carry real byte counts; the completion times produced are the
only effect (no data moves here — data lives in the filesystem layer).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.obs.events import EV_STREAMS, SCHEDULER_RANK
from repro.simmpi.engine import Engine, Parker, SimError

if TYPE_CHECKING:  # pragma: no cover
    from repro.simmpi.engine import _Event

_EPS = 1e-9


@dataclass
class _Transfer:
    parker: Parker
    remaining: float  # bytes still to move
    rate: float = 0.0  # bytes/sec currently granted


class SharedBandwidth:
    """A fair-share pipe with aggregate and per-stream bandwidth caps.

    Parameters
    ----------
    engine:
        The owning simulation engine.
    capacity:
        Aggregate bytes/second across all concurrent transfers.
    per_stream:
        Bytes/second ceiling for any single transfer.  ``None`` means a
        single stream may use the full capacity.
    name:
        For error messages and traces.
    """

    def __init__(
        self,
        engine: Engine,
        capacity: float,
        per_stream: float | None = None,
        name: str = "pipe",
    ) -> None:
        if capacity <= 0:
            raise SimError(f"{name}: capacity must be positive")
        if per_stream is not None and per_stream <= 0:
            raise SimError(f"{name}: per_stream must be positive")
        self.engine = engine
        self.capacity = float(capacity)
        self.per_stream = float(per_stream) if per_stream else float(capacity)
        # Nominal (healthy) rates; fault injection degrades the live ones
        # via :meth:`set_speed_factor` and restores them afterwards.
        self._base_capacity = self.capacity
        self._base_per_stream = self.per_stream
        self.speed_factor = 1.0
        self.name = name
        self._active: list[_Transfer] = []
        self._last_update = 0.0
        self._completion_event: "_Event | None" = None
        # statistics
        self.total_bytes = 0.0
        self.total_transfers = 0
        #: optional :class:`repro.obs.Tracer` — stream-count changes are
        #: emitted as ``fs.streams`` instants; a count held above 1 is a
        #: contention window (rendered as a counter track in Perfetto).
        self.tracer: Any = None

    # ------------------------------------------------------------------
    def transfer(self, nbytes: float) -> None:
        """Move ``nbytes`` through the pipe; blocks for the modelled time."""
        if nbytes < 0:
            raise SimError(f"{self.name}: negative transfer")
        self.total_transfers += 1
        self.total_bytes += nbytes
        if nbytes == 0:
            return
        parker = self.engine.make_parker(("%s:transfer", self.name))
        tr = _Transfer(parker, float(nbytes))
        self._settle()
        self._active.append(tr)
        if self.tracer is not None:
            self.tracer.instant(
                EV_STREAMS, self.engine.current_rank(), self.engine.now,
                "streams", self.name, len(self._active),
            )
        self._reschedule()
        self.engine.park(parker)

    def set_speed_factor(self, factor: float) -> None:
        """Degrade (or restore) the pipe to ``factor`` × nominal speed.

        Callable from a scheduled action: in-flight transfers are settled
        at the old rates up to *now*, then continue at the new rates —
        the fluid-model semantics of a device that suddenly slows down
        (fault injection's transient slow-disk windows use this).
        """
        if factor <= 0:
            raise SimError(f"{self.name}: speed factor must be positive")
        self._settle()
        self.speed_factor = factor
        self.capacity = self._base_capacity * factor
        self.per_stream = self._base_per_stream * factor
        self._reschedule()

    def duration_alone(self, nbytes: float) -> float:
        """Time ``nbytes`` would take with no contention (for models)."""
        return nbytes / min(self.per_stream, self.capacity)

    @property
    def active_streams(self) -> int:
        return len(self._active)

    # ------------------------------------------------------------------
    def _settle(self) -> None:
        """Charge progress at current rates for the elapsed interval."""
        now = self.engine.now
        dt = now - self._last_update
        if dt > 0:
            for tr in self._active:
                tr.remaining -= tr.rate * dt
        self._last_update = now

    def _grant_rates(self) -> None:
        n = len(self._active)
        if n == 0:
            return
        fair = self.capacity / n
        rate = min(fair, self.per_stream)
        for tr in self._active:
            tr.rate = rate
        # Per-stream cap may leave spare aggregate capacity; with uniform
        # caps no redistribution is needed (all streams hit the same cap).

    def _reschedule(self) -> None:
        """Recompute rates and schedule the next completion."""
        if self._completion_event is not None:
            self.engine.cancel(self._completion_event)
            self._completion_event = None
        if not self._active:
            return
        self._grant_rates()
        soonest = min(tr.remaining / tr.rate for tr in self._active)
        t = self.engine.now + max(soonest, 0.0)
        # Inline-safe: _complete mutates only this pipe's transfer list
        # and the event queue (cancel/schedule/unpark_at), never blocks
        # or resumes anybody itself, and reads no thread identity (its
        # trace instant is stamped SCHEDULER_RANK whoever runs it).
        self._completion_event = self.engine.schedule_inline(
            t, self._complete
        )

    def _complete(self) -> None:
        """(inline-safe event) Finish every transfer that has drained."""
        self._completion_event = None
        self._settle()
        done = [tr for tr in self._active if tr.remaining <= _EPS * self.capacity]
        if not done:
            # Numerical slack; try again with fresh rates.
            self._reschedule()
            return
        self._active = [tr for tr in self._active if tr not in done]
        if self.tracer is not None:
            # An engine event, not a rank's operation: no owning rank.
            self.tracer.instant(
                EV_STREAMS, SCHEDULER_RANK, self.engine.now,
                "streams", self.name, len(self._active),
            )
        self._reschedule()
        for tr in done:
            self.engine.unpark_at(tr.parker, self.engine.now)
