"""Discrete-event engine with cooperative rank threads.

The engine owns a virtual clock and an event queue.  Simulated processes
(ranks) run on real Python threads, but *exactly one* thread is runnable
at any instant: whoever holds the execution **baton**.  A rank runs
until it blocks on a simulated operation (a timed wait, a message
receive, a bandwidth transfer, ...); whoever then holds the baton pops
the next event in ``(time, sequence)`` order and interprets it.  Because
that order is a deterministic function of the event queue, whole
simulations are bit-reproducible.

The baton is one raw lock per thread, created held: a thread gives the
baton away by releasing the *target's* lock and then blocks acquiring
its own.  Nothing else synchronises the engine — no shared lock, no
condition variables — so the hand-over invariants are checked, not
assumed (a rank resumed while not marked running, or the scheduler
resumed while a rank is active, raises :class:`SimError`).

Events come in three kinds:

*wake*
    set a parker's value and resume its owner if it is parked on it;
*inline-safe action*
    a callable that only mutates engine/communicator/resource state,
    never blocks, never hands the baton, and does not depend on which
    thread runs it (message delivery, receive timeouts, transfer
    completion) — see :meth:`Engine.schedule_inline`;
*scheduler-only action*
    anything else (rank start, kills, fault windows, user actions).

A parking rank *drains* the queue itself: it executes wakes and
inline-safe actions in place and passes the baton straight to the next
rank to resume.  The scheduler thread is needed only when the next event
is scheduler-only or the queue is empty.

The single blocking primitive is the *parker*:

``park(parker)``
    block the calling rank until the parker is woken; returns the value
    delivered by the waker.  If the parker was already woken (the wake
    event fired while the rank was busy elsewhere), ``park`` returns
    immediately — this is what lets upper layers pre-post receives.

``unpark_at(parker, t, value)``
    schedule the wake of a parker at virtual time ``t``.  Callable from
    any rank thread or from a scheduled action.

``sleep(dt)`` is simply a fresh parker with a self-scheduled wake, and is
how modelled compute time and fixed-latency hops are charged.
"""

from __future__ import annotations

import ctypes
import functools
import heapq
import threading
import traceback
from _thread import allocate_lock
from collections import deque
from typing import Any, Callable

from repro.obs.events import EV_KILL, EV_WAIT, SCHEDULER_RANK


class SimError(RuntimeError):
    """Raised for misuse of the simulator (deadlock, bad rank, ...)."""


class ProcessFailure(SimError):
    """A rank program raised; carries the original traceback text."""

    def __init__(self, rank: int, exc: BaseException, tb: str):
        super().__init__(f"rank {rank} failed: {exc!r}\n{tb}")
        self.rank = rank
        self.original = exc
        self.tb = tb


class RankKilled(SimError):
    """Injected crash: unwinds a killed rank's program at its next
    simulated operation.  Unlike :class:`ProcessFailure`, a killed rank
    does *not* abort the run — the engine records it in ``dead_ranks``
    and the simulation continues with the survivors (this is the hook
    the fault-injection layer uses; see :mod:`repro.simmpi.faults`)."""

    def __init__(self, rank: int):
        super().__init__(f"rank {rank} was killed by fault injection")
        self.rank = rank


def _held_lock() -> Any:
    lock = allocate_lock()
    lock.acquire()
    return lock


@functools.cache
def one_malloc_arena() -> None:
    """Cap glibc at one malloc arena, once per process (a no-op off
    glibc): only the baton holder runs, so an arena per rank thread buys
    no concurrency, only a high-water mark of its own."""
    try:
        ctypes.CDLL(None).mallopt(-8, 1)  # M_ARENA_MAX
    except (AttributeError, OSError, TypeError):
        pass


# event kinds / states (small ints: compared with ``is`` on the hot path)
_WAKE, _INLINE, _SCHED = 0, 1, 2
_PENDING, _FIRED, _CANCELLED = 0, 1, 2


class _Event:
    """What a queue entry ``(time, seq, event)`` carries.

    ``seq`` is unique, so entries compare in C and never reach the
    event.  A wake stores ``(parker, value)`` as ``target``/``payload``;
    an action stores ``(callable, args)`` — data, not a closure, for the
    per-message events.
    """

    __slots__ = ("kind", "target", "payload", "state")

    def __init__(self, kind: int, target: Any, payload: Any):
        self.kind = kind
        self.target = target
        self.payload = payload
        self.state = _PENDING


class _RankThread:
    """Bookkeeping for one simulated process."""

    __slots__ = ("rank", "thread", "baton", "state", "waiting_on", "killed")

    def __init__(self, rank: int):
        self.rank = rank
        self.thread: threading.Thread | None = None
        #: released by whoever resumes this rank; see the module docstring
        self.baton = _held_lock()
        # 'new' -> 'running' <-> 'blocked' -> 'done'
        self.state = "new"
        self.waiting_on: "Parker | None" = None
        self.killed = False


class Parker:
    """A one-shot parking slot owned by one rank thread.

    ``label`` is purely diagnostic: it names what the owner is waiting
    for (``recv(src=0, tag=12)``, ``sleep``, ``nfs:transfer`` ...) so
    that deadlock errors can say *what* every parked rank was blocked
    on — essential once fault injection can strand collectives.  It is
    a constant string or a ``(format, *args)`` tuple, rendered by
    :func:`render_label` only when somebody reads it.
    """

    __slots__ = ("owner", "woken", "value", "label")

    def __init__(self, owner: _RankThread, label: "str | tuple | None" = None):
        self.owner = owner
        self.woken = False
        self.value: Any = None
        self.label = label


def render_label(label: "str | tuple | None") -> "str | None":
    """The text of a parker label (``%``-formats the tuple form)."""
    return label[0] % label[1:] if type(label) is tuple else label


class Engine:
    """Virtual-clock scheduler for cooperative rank threads."""

    #: compact the queue once at least this many cancelled events are
    #: pending *and* they outnumber live ones (see :meth:`cancel`)
    CANCEL_COMPACT_MIN: int = 64

    def __init__(self) -> None:
        self.now: float = 0.0
        #: heap of ``(time, seq, event)`` plus a FIFO of the entries that
        #: were scheduled at the then-current time (no heap traffic)
        self._queue: list[tuple[float, int, _Event]] = []
        self._ready: deque[tuple[float, int, _Event]] = deque()
        self._cancelled_pending = 0
        #: the rank thread holding the baton; ``None`` while the
        #: scheduler thread (or nobody, outside ``run``) holds it
        self._active: _RankThread | None = None
        self._sched_baton = _held_lock()
        self._seq = 0
        self._ranks: list[_RankThread] = []
        self._started = False
        #: what aborts the run: rank failures and engine-level errors
        self._failures: list[BaseException] = []
        #: ranks removed by fault injection (see :meth:`kill_rank`)
        self.dead_ranks: set[int] = set()
        #: optional observer called as ``fn(rank, time)`` when a kill fires
        self.on_rank_killed: Callable[[int, float], None] | None = None
        #: optional :class:`repro.obs.Tracer` — wired by the launcher;
        #: when ``None`` (the default) the hooks are a single comparison
        self.tracer: Any = None
        #: optional :class:`repro.obs.MetricsRegistry` (per-rank wait time)
        self.metrics: Any = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def spawn(self, fn: Callable[[], None], rank: int) -> None:
        """Register ``fn`` as the program for ``rank`` (starts at t=0)."""
        if self._started:
            raise SimError("cannot spawn after run() started")
        rt = _RankThread(rank)

        def body() -> None:
            try:
                fn()
            except RankKilled:
                # Injected crash: the rank simply ceases to exist.  Not a
                # failure of the run — survivors carry on.
                pass
            except BaseException as exc:  # noqa: BLE001 - reported to caller
                self._failures.append(
                    ProcessFailure(rank, exc, traceback.format_exc())
                )
            finally:
                # A finishing rank always holds the baton; return it to
                # the scheduler.
                rt.state = "done"
                self._active = None
                self._sched_baton.release()

        rt.thread = threading.Thread(
            target=body, name=f"simrank-{rank}", daemon=True
        )
        self._ranks.append(rt)

    # ------------------------------------------------------------------
    # event queue
    # ------------------------------------------------------------------
    def schedule(
        self, t: float, action: Callable[..., None], *args: Any
    ) -> _Event:
        """Schedule ``action(*args)`` to run on the scheduler thread at
        time ``t``.  Actions must not block."""
        return self._push_event(t, _SCHED, action, args)

    def schedule_inline(
        self, t: float, action: Callable[..., None], *args: Any
    ) -> _Event:
        """Schedule an *inline-safe* ``action(*args)`` at time ``t``.

        Whichever thread holds the baton when the event comes due runs
        it — usually a rank draining the queue on its way to block.  The
        caller vouches for three things: the action mutates only
        engine/communicator/resource state, it never blocks or hands
        the baton (no ``park``, no ``kill_rank``), and it does not
        depend on which thread runs it (no ``current_rank``).
        """
        return self._push_event(t, _INLINE, action, args)

    def _push_event(
        self, t: float, kind: int, target: Any, payload: Any
    ) -> _Event:
        """Enqueue an event at ``t``; same-timestamp events go to the
        FIFO ready-queue, where seq order alone decides their place."""
        now = self.now
        ev = _Event(kind, target, payload)
        seq = self._seq
        self._seq = seq + 1
        if t > now:
            heapq.heappush(self._queue, (t, seq, ev))
        elif t < now - 1e-12:
            raise SimError(f"cannot schedule in the past ({t} < {now})")
        else:
            self._ready.append((now, seq, ev))
        return ev

    def cancel(self, ev: _Event) -> None:
        """Cancel a scheduled event (a no-op once it fired).

        Cancelled events are skipped when popped; they are *also*
        counted, and once :attr:`CANCEL_COMPACT_MIN` of them are
        pending and they outnumber the live events the queue is
        compacted in place — without this, workloads that schedule and
        cancel timeouts at a high rate (the FT drivers' heartbeats)
        grow the heap without bound.
        """
        if ev.state is not _PENDING:
            return
        ev.state = _CANCELLED
        self._cancelled_pending += 1
        if (
            self._cancelled_pending > self.CANCEL_COMPACT_MIN
            and self._cancelled_pending * 2
            > len(self._queue) + len(self._ready)
        ):
            # In place: a rank may be in the middle of _interpret (an
            # inline action cancels), and its loop holds these objects.
            q, rdy = self._queue, self._ready
            q[:] = [e for e in q if e[2].state is _PENDING]
            heapq.heapify(q)
            live = [e for e in rdy if e[2].state is _PENDING]
            rdy.clear()
            rdy.extend(live)
            self._cancelled_pending = 0

    def _interpret(self, parker: "Parker | None") -> "_RankThread | None":
        """Pop and interpret events, in order, until a rank must resume.

        This is the one place events are interpreted.  The scheduler
        thread calls it with ``parker=None``; a rank about to block on
        ``parker`` calls it to *drain* the queue on its own thread: it
        holds the baton and the next steps are fully determined, so
        nothing else can execute in between and the simulation is
        bit-identical to the scheduler thread doing it.

        The next event is the smaller of the two queue heads by
        ``(time, seq)`` — ready entries were scheduled at what was then
        the current time, so the merge reproduces the pure-heap order;
        popping it advances the clock to it.  Cancelled entries are
        skipped.  An action is called (inline-safe ones typically
        enqueue the very wake that ends a drain).  A wake addressed to
        a killed rank is dropped, a double wake is an error, and a wake
        whose owner is not parked on it is pre-posted: the owner picks
        the value up when it parks.  The loop stops when

        * a wake resumes a rank — returned as the hand-over target
          (``park`` passes the baton to it directly: one context
          switch, no scheduler thread);
        * the draining rank's own ``parker`` was woken — ``None``, and
          ``park`` returns without blocking (a ``sleep`` whose wake is
          globally next costs no OS context switch at all);
        * both queues are empty, or — for a draining rank — the head is
          scheduler-only, which is left in place: ``None``, the baton
          goes back to the scheduler thread.
        """
        q, rdy = self._queue, self._ready  # compacted in place (cancel)
        while True:
            from_ready = bool(rdy) and (not q or rdy[0] < q[0])
            if from_ready:
                t, _seq, ev = rdy[0]
            elif q:
                t, _seq, ev = q[0]
            else:
                return None
            live = ev.state is _PENDING
            kind = ev.kind
            if live and kind is _SCHED and parker is not None:
                return None
            if from_ready:
                rdy.popleft()
            else:
                heapq.heappop(q)
            if not live:
                self._cancelled_pending -= 1
                continue
            # Marked so that cancelling it later is a no-op (see cancel).
            ev.state = _FIRED
            if t > self.now:
                self.now = t
            if kind is not _WAKE:
                ev.target(*ev.payload)
                # Scheduler-only actions start and kill ranks; a rank
                # that failed meanwhile aborts the run here.
                if kind is _SCHED and self._failures:
                    raise self._failures[0]
                continue
            woken = ev.target
            owner = woken.owner
            if owner.killed:
                continue
            if woken.woken:
                raise SimError("parker woken twice")
            woken.woken = True
            woken.value = ev.payload
            if owner.waiting_on is woken:
                return owner
            if woken is parker:
                return None

    # ------------------------------------------------------------------
    # blocking primitives (called from rank threads)
    # ------------------------------------------------------------------
    def _me(self) -> _RankThread:
        # Exactly one thread runs, so the baton holder *is* the caller.
        rt = self._active
        if rt is None:
            raise SimError("blocking primitive called outside a rank thread")
        return rt

    def make_parker(self, label: "str | tuple | None" = None) -> Parker:
        """Create a parking slot owned by the calling rank thread."""
        return Parker(self._me(), label)

    def park(self, parker: Parker) -> Any:
        """Block on ``parker`` until it is woken; returns the wake value."""
        rt = self._active
        if rt is None:
            raise SimError("blocking primitive called outside a rank thread")
        if parker.owner is not rt:
            raise SimError("cannot park on another thread's parker")
        if rt.killed:
            raise RankKilled(rt.rank)
        if parker.woken:
            return parker.value
        # Wait spans start at park entry: the drain may advance the
        # clock, and the span must cover that virtual time just as it
        # would had the rank been blocked while it passed.
        t0 = self.now
        try:
            target = self._interpret(parker)
        except BaseException as exc:  # noqa: BLE001 - re-raised by run()
            # An event failed while this rank was interpreting it: that
            # aborts the run, exactly as on the scheduler thread — it is
            # not this rank's ProcessFailure.  Give the baton back and
            # stay parked.
            self._failures.append(exc)
            target = None
        if not parker.woken:
            rt.waiting_on = parker
            rt.state = "blocked"
            # Everything this thread writes must precede the release:
            # from there until acquire() returns, somebody else runs.
            self._active = target
            if target is not None:
                target.state = "running"
                target.baton.release()
            else:
                self._sched_baton.release()
            rt.baton.acquire()
            if rt.state != "running" or self._active is not rt:
                raise SimError(f"rank {rt.rank} resumed without the baton")
            rt.waiting_on = None
        # Virtual time only passes while ranks are parked, so these
        # spans tile a rank's lifetime — the totality the critical-path
        # attribution in repro.obs relies on.
        now = self.now
        if self.metrics is not None and now > t0:
            c = self.metrics.counters[rt.rank]
            c["wait_s"] = c.get("wait_s", 0.0) + (now - t0)
        if self.tracer is not None:
            self.tracer.span(
                EV_WAIT, rt.rank, t0, now,
                render_label(parker.label) or "unlabelled",
            )
        if rt.killed:
            raise RankKilled(rt.rank)
        if not parker.woken:
            raise SimError("spurious wakeup without unpark")
        return parker.value

    def sleep(self, dt: float) -> None:
        """Advance this rank's virtual time by ``dt`` seconds."""
        if dt < 0:
            raise SimError(f"negative sleep: {dt}")
        self.sleep_until(self.now + dt)

    def sleep_until(self, t: float) -> None:
        """Block until virtual time ``t``: a fresh parker and its own
        wake, built here (what ``make_parker`` + ``unpark_at`` would
        do, without the three calls — most parks are sleeps)."""
        rt = self._active
        if rt is None:
            raise SimError("blocking primitive called outside a rank thread")
        now = self.now
        if t < now - 1e-12:
            raise SimError(f"cannot schedule in the past ({t} < {now})")
        p = Parker(rt, "sleep")
        seq = self._seq
        self._seq = seq + 1
        if t > now:
            heapq.heappush(self._queue, (t, seq, _Event(_WAKE, p, None)))
        else:
            self._ready.append((now, seq, _Event(_WAKE, p, None)))
        self.park(p)

    def unpark_at(self, parker: Parker, t: float, value: Any = None) -> None:
        """Schedule the wake of ``parker`` at virtual time ``t``."""
        self._push_event(t, _WAKE, parker, value)

    # ------------------------------------------------------------------
    # fault injection
    # ------------------------------------------------------------------
    def kill_rank_at(self, rank: int, t: float) -> None:
        """Schedule an injected crash of ``rank`` at virtual time ``t``."""
        # Scheduler-only: a kill resumes the victim (hands the baton).
        self.schedule(t, self.kill_rank, rank)

    def kill_rank(self, rank: int) -> None:
        """(scheduler action) Crash ``rank`` now.

        The rank's thread unwinds with :class:`RankKilled` at its next
        (or current) blocking operation; any wake later addressed to one
        of its parkers is silently dropped.  Killing a finished or
        already-dead rank is a no-op.
        """
        rt = next((r for r in self._ranks if r.rank == rank), None)
        if rt is None:
            raise SimError(f"kill_rank: no such rank {rank}")
        if rt.state == "done" or rt.killed:
            return
        rt.killed = True
        self.dead_ranks.add(rank)
        if self.on_rank_killed is not None:
            self.on_rank_killed(rank, self.now)
        if self.tracer is not None:
            self.tracer.instant(
                EV_KILL, SCHEDULER_RANK, self.now, "kill", rank
            )
        if rt.state == "blocked":
            # Wake the thread so park() observes the kill and unwinds.
            self._run_thread(rt)
        # state 'new': the kill takes effect at the rank's first blocking
        # operation after activation; 'running' cannot happen here (kill
        # actions run on the scheduler thread).

    # ------------------------------------------------------------------
    # scheduler
    # ------------------------------------------------------------------
    def _run_thread(self, rt: _RankThread) -> None:
        """(scheduler thread) Hand the baton to ``rt`` and wait for it.

        Ranks relay the baton among themselves (see :meth:`park`), so by
        the time it comes back several other ranks may have run and
        blocked; what must hold is that no rank still has it.
        """
        if self._active is not None or rt.state in ("running", "done"):
            raise SimError(f"cannot resume rank {rt.rank} ({rt.state})")
        first = rt.state == "new"
        self._active = rt
        rt.state = "running"
        if first:
            rt.thread.start()
        else:
            rt.baton.release()
        self._sched_baton.acquire()
        if self._active is not None:
            raise SimError("scheduler resumed while a rank holds the baton")

    def run(self) -> float:
        """Run the simulation to completion; returns final virtual time."""
        if self._started:
            raise SimError("engine already ran")
        self._started = True
        one_malloc_arena()  # before the first rank thread starts
        for rt in self._ranks:
            # Scheduler-only: starting a rank hands it the baton.
            self.schedule(0.0, self._run_thread, rt)
        while True:
            target = self._interpret(None)
            if target is None:
                break
            self._run_thread(target)
            if self._failures:
                raise self._failures[0]
        blocked = [rt.rank for rt in self._ranks if rt.state == "blocked"]
        if blocked:
            raise SimError(self._deadlock_message(blocked))
        return self.now

    def _deadlock_message(self, blocked: list[int]) -> str:
        """Name every parked rank, what it is parked on, and the dead.

        When fault injection crashes a rank mid-collective, the other
        ranks block forever on receives that can never be satisfied; the
        error message must say who is stuck on what (and who died) or
        the hang is undebuggable.
        """
        lines = [
            f"deadlock: ranks {blocked} blocked with empty event queue"
        ]
        for rt in self._ranks:
            if rt.state != "blocked":
                continue
            p = rt.waiting_on
            what = (render_label(p.label) if p is not None else None)
            lines.append(
                f"  rank {rt.rank} parked on {what or '<unlabelled parker>'}"
            )
        if self.dead_ranks:
            lines.append(
                f"  dead ranks (killed by fault injection): "
                f"{sorted(self.dead_ranks)}"
            )
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def nranks(self) -> int:
        return len(self._ranks)

    def current_rank(self) -> int:
        return self._me().rank

