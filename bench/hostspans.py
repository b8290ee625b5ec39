"""Host-time span recorder for a cooperative-thread simulator.

The benchmark attributes *host* seconds to layers from outside the
program: it wraps public callables (:class:`Patches`) so that each call
opens a span, and keeps one global timeline so that every instant of
the traced region is charged to exactly one bucket.

Why one timeline: rank programs are threads of which exactly one is
runnable at a time.  A wrapped call that parks (a ``recv``, a
collective) stays open on its own thread while every other rank runs;
subtracting child spans per thread would charge it all of that.  So the
recorder follows the execution baton instead: at ``Engine.park`` entry
the elapsed interval goes to the calling thread's innermost open span
and the clock switches to the engine bucket; at the next park exit (on
whichever thread) it switches back to that thread's innermost span.

A span's *self* time is therefore the host time its own code ran while
holding the baton, under no deeper span.  Buckets tile the region:
``sum(self_s.values()) == wall_s`` up to float rounding.

Only the baton holder touches the recorder, so it needs no lock of its
own: the engine's hand-off is the synchronisation.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from typing import Any, Callable

ENGINE = "simmpi.engine"
#: main-thread time under no span: what the patch table does not name
OTHER = "other"


class _Frame:
    """An open span.  ``caller`` is the frame that was being charged
    when this one opened (its parent); ``below`` is the frame under it
    on the same thread's stack.  They differ only for a wrapped call
    made by the scheduler thread while the engine bucket is current."""

    __slots__ = ("bucket", "label", "rank", "start", "self_s", "sid",
                 "caller", "below")

    def __init__(self, bucket, label, rank, start, sid, caller, below):
        self.bucket = bucket
        self.label = label
        self.rank = rank
        self.start = start
        self.self_s = 0.0
        self.sid = sid
        self.caller = caller
        self.below = below


class Recorder:
    """One global host timeline, charged to span buckets.

    ``self_s[bucket]`` accumulates self seconds, ``calls[label]`` counts
    opened spans, ``incl_s[label]`` sums their wall durations (only
    meaningful for calls that never park), ``counters`` holds whatever
    the wrappers count besides.  Closed spans are kept as
    ``(sid, parent_sid, label, rank, start, end, self_s)`` tuples in
    ``spans``; times are seconds since :meth:`start`, ``rank`` is the
    id all spans of one rank program share (-1 on the main thread).
    Each engine interval — park entry to the next park exit — is a span
    too, child of the span that parked.
    """

    def __init__(self) -> None:
        self.clock = time.perf_counter
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.incl_s: dict[str, float] = {}
        self.counters: dict[str, float] = {}
        self.spans: list[tuple] = []
        self.wall_s = 0.0
        self._tls = threading.local()
        self._next_sid = 0
        self._t0 = 0.0
        self._last = 0.0
        self._cur: _Frame | None = None
        self._engine: _Frame | None = None
        self._root: _Frame | None = None
        # the open engine interval: who parked, when, engine self before
        self._parked: tuple[_Frame, float, float] | None = None
        # first rank start / last rank end of the current Engine.run
        self._rank_first: float | None = None
        self._rank_last = 0.0

    # -- lifecycle -----------------------------------------------------
    def start(self) -> None:
        """Open the region on the calling (main) thread."""
        now = self.clock()
        self._t0 = self._last = now
        self._root = self._frame(OTHER, OTHER, -1, now, None, None)
        self._engine = self._frame(ENGINE, ENGINE, -1, now, None, None)
        self._tls.top = self._root
        self._cur = self._root

    def stop(self) -> None:
        """Close the region; ``wall_s`` is its length."""
        now = self.clock()
        self._charge(now)
        self._emit(self._root, now)
        self.wall_s = now - self._t0
        self._cur = None

    # -- timeline primitives -------------------------------------------
    def _frame(self, bucket, label, rank, now, caller, below) -> _Frame:
        sid = self._next_sid
        self._next_sid = sid + 1
        return _Frame(bucket, label, rank, now, sid, caller, below)

    def _charge(self, now: float) -> None:
        cur = self._cur
        dt = now - self._last
        cur.self_s += dt
        self.self_s[cur.bucket] = self.self_s.get(cur.bucket, 0.0) + dt
        self._last = now

    def _emit(self, fr: _Frame, now: float) -> None:
        self.incl_s[fr.label] = (
            self.incl_s.get(fr.label, 0.0) + now - fr.start
        )
        parent = fr.caller.sid if fr.caller is not None else -1
        self.spans.append(
            (fr.sid, parent, fr.label, fr.rank,
             fr.start - self._t0, now - self._t0, fr.self_s)
        )

    def _to_engine(self, now: float) -> None:
        self._parked = (self._cur, now, self._engine.self_s)
        self._cur = self._engine

    def _from_engine(self, now: float) -> None:
        if self._parked is not None:
            by, since, before = self._parked
            sid = self._next_sid
            self._next_sid = sid + 1
            self.spans.append(
                (sid, by.sid, ENGINE, by.rank, since - self._t0,
                 now - self._t0, self._engine.self_s - before)
            )
        self._parked = None
        self._cur = self._tls.top

    def push(self, bucket: str, label: str) -> None:
        now = self.clock()
        self._charge(now)
        cur = self._cur
        fr = self._frame(bucket, label, cur.rank, now, cur, self._tls.top)
        self.calls[label] = self.calls.get(label, 0) + 1
        self._tls.top = fr
        self._cur = fr

    def pop(self) -> None:
        now = self.clock()
        self._charge(now)
        fr = self._tls.top
        self._emit(fr, now)
        self._tls.top = fr.below
        self._cur = fr.caller

    def park_enter(self) -> None:
        """The calling thread is about to give up the baton."""
        now = self.clock()
        self._charge(now)
        self._to_engine(now)

    def park_exit(self) -> None:
        """The calling thread holds the baton again."""
        now = self.clock()
        self._charge(now)
        self._from_engine(now)

    def rank_begin(self, bucket: str, rank: int) -> None:
        """First instruction of a rank thread: open its root span."""
        now = self.clock()
        self._charge(now)
        if self._rank_first is None:
            self._rank_first = now
        self.calls[bucket] = self.calls.get(bucket, 0) + 1
        self._tls.top = self._frame(
            bucket, bucket, rank, now, self._engine, None
        )
        self._from_engine(now)

    def rank_end(self) -> None:
        now = self.clock()
        self._charge(now)
        self._emit(self._tls.top, now)
        self._rank_last = now
        self._to_engine(now)
        self._tls.top = None

    def take_rank_window(self) -> float:
        """Seconds from the first rank start to the last rank end since
        the previous call (one ``Engine.run``)."""
        if self._rank_first is None:
            return 0.0
        window = self._rank_last - self._rank_first
        self._rank_first = None
        return window

    def count(self, name: str, n: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    # -- wrappers ------------------------------------------------------
    def span(self, bucket: str, label: str, fn: Callable, *,
             after: Callable[[Any], None] | None = None) -> Callable:
        """``fn`` wrapped so each call is a span of ``bucket``; ``after``
        sees each result once the span has closed (for counting)."""
        push, pop = self.push, self.pop

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            push(bucket, label)
            try:
                out = fn(*args, **kwargs)
            finally:
                pop()
            if after is not None:
                after(out)
            return out

        return wrapper

    def parking(self, label: str, fn: Callable) -> Callable:
        """``fn`` (``Engine.park`` / ``Engine.run``) wrapped so the time
        inside it is the engine's."""
        enter, leave, calls = self.park_enter, self.park_exit, self.calls

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            calls[label] = calls.get(label, 0) + 1
            enter()
            try:
                return fn(*args, **kwargs)
            finally:
                leave()

        return wrapper

    def rank_root(self, bucket: str, spawn: Callable) -> Callable:
        """``Engine.spawn`` wrapped so each rank body is a root span."""
        begin, end = self.rank_begin, self.rank_end

        @functools.wraps(spawn)
        def wrapper(engine: Any, fn: Callable, rank: int) -> Any:
            def body() -> None:
                begin(bucket, rank)
                try:
                    fn()
                finally:
                    end()

            return spawn(engine, body, rank)

        return wrapper


class Patches:
    """Install wrappers on public callables; ``restore`` undoes all."""

    def __init__(self) -> None:
        self._undo: list[tuple[Any, str, Any]] = []

    def method(self, cls: type, name: str,
               wrap: Callable[[Callable], Callable]) -> None:
        original = cls.__dict__[name]
        self._undo.append((cls, name, original))
        setattr(cls, name, wrap(original))

    def function(self, fn: Callable,
                 wrap: Callable[[Callable], Callable],
                 *, prefixes: tuple[str, ...]) -> None:
        """Re-bind every module-level name that is ``fn`` — a
        ``from m import fn`` copies the reference into the importing
        module, so patching ``m.fn`` alone would miss those callers."""
        wrapped = wrap(fn)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not modname.startswith(prefixes):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._undo.append((mod, attr, fn))
                    setattr(mod, attr, wrapped)

    def restore(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def __len__(self) -> int:
        return len(self._undo)
