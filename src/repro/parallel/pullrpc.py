"""The pull-RPC wire protocol, written once (see FAULTS.md §3).

Every fault-tolerant role in this repo — the flat FT masters and
workers, the group sub-master and its members, the hierarchy's batch
and elastic coordinators — holds the same conversation:

- a client sends ``(rank, seq, kind, data)`` on its role's request tag
  and waits, with an absolute resend deadline, for ``(seq, body)`` on
  the reply tag; requests are idempotent because
- the server caches its last reply per client and answers an
  already-answered ``seq`` from the cache, which heals drops in either
  direction; and
- whoever currently serves announces itself with a bare rank on the
  ping tag (heartbeat, new-master announcement, graceful hand-off).

This module is the only place that knows those three layouts, and
(:class:`LivenessTable`) the only place that decides a client is dead
by its silence.  The roles keep what is theirs: message kinds,
scheduler state, what a death or a revival sets off, and (via
:class:`~repro.parallel.checkpoint.FailoverTracker`) who they believe
the master is.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator, NamedTuple, Sequence

from repro.simmpi.comm import ANY_SOURCE, ANY_TAG, TIMEOUT, Status


# ----------------------------------------------------------------------
# tag table
# ----------------------------------------------------------------------
class Tags(NamedTuple):
    """One role's pull-RPC channel."""

    req: int
    reply: int
    ping: int


#: Every point-to-point tag in ``src/repro``, as ``owner.NAME`` (the
#: owning driver module re-exports it as ``TAG_<NAME>``).  The FT, hier,
#: group and service values are public: they appear in ``EV_SEND`` /
#: ``EV_RECV`` trace payloads and in ``--faults 'drop=S>D:TAG'`` strings.
TAG_TABLE: dict[str, int] = {
    # mpiBLAST baseline (collective-free control flow) + its FT channel
    "mpiblast.WORKREQ": 10,
    "mpiblast.ASSIGN": 11,
    "mpiblast.RESULT": 12,
    "mpiblast.FETCH": 13,
    "mpiblast.FETCHRESP": 14,
    "mpiblast.DONE": 15,
    "mpiblast.FT_REQ": 16,
    "mpiblast.FT_REPLY": 17,
    "mpiblast.FT_PING": 18,
    # pioBLAST + its FT channel
    "pioblast.SELECT": 30,
    "pioblast.FETCH": 31,
    "pioblast.FETCHRESP": 32,
    "pioblast.WQ_REQ": 33,
    "pioblast.WQ_ASSIGN": 34,
    "pioblast.FT_REQ": 40,
    "pioblast.FT_REPLY": 41,
    "pioblast.FT_PING": 42,
    # query segmentation
    "queryseg.SECTION": 50,
    # online service (push-style CMD/MSG, not pull-RPC)
    "service.SRV_CMD": 70,
    "service.SRV_MSG": 71,
    # hierarchy: sub-master <-> coordinator, member <-> sub-master
    "coordinator.HIER_REQ": 80,
    "coordinator.HIER_REPLY": 81,
    "coordinator.HIER_PING": 82,
    "groupmaster.GRP_REQ": 90,
    "groupmaster.GRP_REPLY": 91,
    "groupmaster.GRP_PING": 92,
}

for _name, _value in TAG_TABLE.items():
    _clash = [n for n, v in TAG_TABLE.items() if v == _value and n != _name]
    if _clash:
        raise ImportError(f"tag {_value} is both {_name} and {_clash[0]}")


def _channel(prefix: str) -> Tags:
    return Tags(
        TAG_TABLE[f"{prefix}_REQ"],
        TAG_TABLE[f"{prefix}_REPLY"],
        TAG_TABLE[f"{prefix}_PING"],
    )


MPI_FT = _channel("mpiblast.FT")
PIO_FT = _channel("pioblast.FT")
HIER = _channel("coordinator.HIER")
GROUP = _channel("groupmaster.GRP")


# ----------------------------------------------------------------------
# client
# ----------------------------------------------------------------------
class Promoted(Exception):
    """Master succession reached the calling rank: it must now serve."""


class Orphaned(Exception):
    """Every resend attempt was spent without an answer."""


class PullClient:
    """One rank's requests to the master it currently believes in.

    ``fo`` (a :class:`~repro.parallel.checkpoint.FailoverTracker`) owns
    that belief; the client routes to ``fo.master`` and feeds the
    tracker what it hears.  What differs between roles is data, fixed
    where the role builds its client: its ``tags``; ``extra``, a
    ``{tag: handler(payload, source) -> announcing rank}`` map for peer
    traffic served from inside the receive loop without consuming
    resend attempts (FT mpiBLAST's ``TAG_FETCH``: only a master
    fetches, so a fetch is an implicit announcement — its ping may
    still be queued); and ``done_marker``, a shared-filesystem
    tombstone checked whenever silence advances the succession — a
    finished run will never answer, so :meth:`call` returns
    ``("done", None)`` instead of walking the rest of the list one
    silence window at a time.

    Workers block in :meth:`call`.  A rank that must keep serving while
    its own request is in flight (the sub-master, towards the
    coordinator) feeds the non-blocking half — :meth:`send`,
    :meth:`resend`, :meth:`ping`, :meth:`match` — from its own loop.
    """

    def __init__(
        self,
        ctx,
        ft,
        fo,
        tags: Tags,
        *,
        extra: dict[int, Callable[[Any, int], int]] | None = None,
        done_marker: str | None = None,
    ) -> None:
        self.ctx = ctx
        self.ft = ft
        self.fo = fo
        self.tags = tags
        self.extra = extra if extra is not None else {}
        self.done_marker = done_marker
        self.seq = 0
        #: the unanswered ``(rank, seq, kind, data)``, else None
        self.request: tuple[int, int, str, Any] | None = None
        self.sent = 0.0
        self.attempts = 0

    def _new_request(self, kind: str, data: Any) -> tuple[int, int, str, Any]:
        self.seq += 1
        self.request = (self.ctx.rank, self.seq, kind, data)
        return self.request

    def match(self, reply: tuple[int, Any], source: int) -> Any:
        """The body, if ``reply`` answers the outstanding request; None
        for a stale duplicate of an earlier reply (drained by ``seq``).
        Only the believed master's replies count as hearing from it."""
        rseq, body = reply
        if source == self.fo.master:
            self.fo.heard()
        if self.request is None or rseq != self.request[1]:
            return None
        self.request = None
        return body

    # -- blocking ------------------------------------------------------
    def _silent(self) -> bool:
        """The resend deadline passed; True when the run is already over."""
        return (
            self.fo.tick()
            and self.done_marker is not None
            and self.ctx.fs.exists(self.done_marker)
        )

    def call(self, kind: str, data: Any = None) -> Any:
        """Idempotent RPC to the *believed* master; returns the reply body.

        Raises :class:`Promoted` when succession reached this rank (by
        silence, or because a departing master's ping named it) and
        :class:`Orphaned` when ``req_max_attempts`` sends went
        unanswered.
        """
        comm, engine, fo = self.ctx.comm, self.ctx.engine, self.fo
        me = self.ctx.rank
        req_timeout = self.ft.req_timeout
        req_tag, reply_tag, ping_tag = self.tags
        extra = self.extra
        recv = comm.recv_with_timeout
        st = Status()  # one envelope, refilled by every receive
        request = self._new_request(kind, data)
        for _attempt in range(self.ft.req_max_attempts):
            if fo.promoted:
                raise Promoted
            comm.isend(request, dest=fo.master, tag=req_tag)
            sent = engine.now
            while True:
                # Absolute resend deadline: heartbeats, in-line service
                # and peer traffic must not keep extending the receive,
                # or a request dropped by a not-yet-promoted successor
                # is never re-issued while its pings keep arriving (and
                # a successor swamped by peer retries never reaches its
                # own tick).
                remaining = req_timeout - (engine.now - sent)
                if remaining <= 0:
                    if self._silent():
                        return ("done", None)
                    break  # resend (possibly to a new candidate)
                msg = recv(
                    source=ANY_SOURCE, tag=ANY_TAG,
                    timeout=remaining, status=st,
                )
                if msg is TIMEOUT:
                    if self._silent():
                        return ("done", None)
                    break  # resend (possibly to a new candidate)
                tag = st.tag
                if tag == reply_tag:
                    body = self.match(msg, st.source)
                    if body is not None:
                        return body
                    continue
                if tag == ping_tag:
                    announcer = msg
                elif tag in extra:
                    announcer = extra[tag](msg, st.source)
                else:
                    # Another role's traffic, or a request from a peer
                    # whose succession already reached us: drop it — its
                    # idempotent retry will find us again once we have
                    # actually promoted.
                    continue
                if announcer == me:
                    # A departing master named us its successor: no
                    # silence window has to elapse first.
                    fo.force_promote()
                    raise Promoted
                if fo.announce(announcer):
                    break  # re-home this request to the new master
        raise Orphaned

    # -- non-blocking --------------------------------------------------
    def send(self, kind: str, data: Any) -> None:
        """Issue a new request; the caller's receive loop collects the
        answer with :meth:`match`."""
        request = self._new_request(kind, data)
        self.sent = self.ctx.engine.now
        self.attempts = 1
        self.ctx.comm.isend(request, dest=self.fo.master, tag=self.tags.req)

    def resend(self) -> bool:
        """Re-issue the outstanding request (to the current candidate);
        False once ``req_max_attempts`` are spent."""
        if self.request is None:
            return True
        self.attempts += 1
        if self.attempts > self.ft.req_max_attempts:
            return False
        self.sent = self.ctx.engine.now
        self.ctx.comm.isend(
            self.request, dest=self.fo.master, tag=self.tags.req
        )
        return True

    def overdue(self, now: float) -> bool:
        """A request is outstanding past ``req_timeout`` from its send."""
        return (
            self.request is not None
            and now - self.sent > self.ft.req_timeout
        )

    def cancel(self) -> None:
        """Stop waiting for the outstanding request's answer."""
        self.request = None

    def ping(self, announcer: int) -> None:
        """A ping arrived: adopt a legal successor and re-home to it."""
        if self.fo.announce(announcer):
            self.resend()


# ----------------------------------------------------------------------
# server
# ----------------------------------------------------------------------
class Heartbeat:
    """Rate-limited announcement fan-out on a role's ping tag.

    Keeps clients from starting failover during long silent passes and
    doubles, for a promoted server, as the new-master announcement.
    The period is a quarter of ``failover_silence``, the silence it
    protects: a client that hears nothing else still hears about four
    beats in any window that would make it give up on the server, under
    every cost model (``FTParams.scaled`` stretches both by one
    factor).  A faster beat buys nothing: replies — a held request's
    ``HOLD_EXPIRED`` included — refresh a client's view of its server
    as well.  The first beat goes out at once; ``force=True`` ignores
    the period.
    ``targets`` is the role's rule for whom to tell, evaluated only
    when a beat actually goes out.  The default is *every* other rank,
    not just presumed-alive ones: an isend to a dead rank is a buffered
    no-op, and a falsely-suspected ex-master that is still running must
    hear its successor to abdicate.
    """

    def __init__(
        self,
        ctx,
        ft,
        ping_tag: int,
        targets: Callable[[], Iterable[int]] | None = None,
    ) -> None:
        self.ctx = ctx
        self.engine = ctx.engine
        self.period = ft.failover_silence / 4
        self.ping_tag = ping_tag
        self.targets = targets or (lambda: range(ctx.size))
        self.last = ctx.engine.now - self.period

    def beat(self, force: bool = False) -> None:
        now = self.engine.now
        if not force and now - self.last < self.period:
            return
        self.last = now
        self.name(self.ctx.rank, self.targets())

    def name(self, master: int, targets: Iterable[int]) -> None:
        """Tell ``targets`` that ``master`` serves this role now — the
        sender itself (heartbeat) or, on a graceful departure, the
        successor it hands over to."""
        isend, me, tag = self.ctx.comm.isend, self.ctx.rank, self.ping_tag
        for r in targets:
            if r != me:
                isend(master, dest=r, tag=tag)


#: What a held request is answered when its hold expires: "ask again
#: now" — the client re-polls at once and is held afresh.
HOLD_EXPIRED = ("wait", 0)


class PullServer:
    """Reply dedupe plus the serve-loop skeleton of a pull-RPC master.

    ``succession`` orders the ranks that may hold this role; a ping
    from a rank *later* in it than this one means the fleet moved on,
    and :meth:`serve` steps down.

    A handler with nothing to give may return None instead of a body:
    the request is then *held* (long-polled) under its client — at most
    one per client, since a client has one outstanding request, and a
    newer ``seq`` from the same client replaces the hold, whose old
    ``seq`` is never answered — and :meth:`sweep` re-offers it until
    the handler has a body, or answers :data:`HOLD_EXPIRED` after
    ``req_timeout / 2``.  That expiry sits inside the client's resend
    deadline (``req_timeout``) and far inside any silence threshold the
    server applies to its clients (``search_timeout``, the group
    budget); ``FTParams.scaled`` stretches all of them by one factor,
    so it does under every cost model.  :meth:`serve` sweeps on its
    own, so any role serving through it may hold; a role with its own
    loop (the group sub-master) sweeps there (see FAULTS.md §3).
    """

    def __init__(self, ctx, ft, tags: Tags, succession: Sequence[int]) -> None:
        self.ctx = ctx
        self.ft = ft
        self.tags = tags
        self.succession = succession
        self._answered: dict[int, tuple[int, Any]] = {}
        #: client -> (its held request, virtual times the hold began and
        #: expires)
        self._held: dict[
            int, tuple[tuple[int, int, str, Any], float, float]
        ] = {}
        #: client -> virtual seconds its requests have spent held
        self.held_s: dict[int, float] = {}
        #: virtual seconds spent blocked in :meth:`serve`'s receive
        self.waited = 0.0
        #: the first idle tick of the current linger (see :meth:`lingered`)
        self._idle_since: float | None = None

    def serve_request(
        self,
        request: tuple[int, int, str, Any],
        handle: Callable[[int, str, Any], Any],
    ) -> None:
        """Answer ``request`` exactly once: an already-answered ``seq``
        gets the cached reply again (``handle`` is not re-invoked), so
        a dropped request *or* reply is healed by the client's resend.
        A request the handler answers None is held instead; a resend of
        a held ``seq`` keeps that one hold."""
        w, seq, kind, data = request
        answer = self._answered.get(w)
        if answer is not None and answer[0] == seq:
            self.ctx.comm.isend(answer, dest=w, tag=self.tags.reply)
            return
        held = self._held.get(w)
        if held is not None and held[0][1] == seq:
            return
        self._unhold(w, self.ctx.engine.now)  # a newer seq replaces it
        body = handle(w, kind, data)
        if body is None:
            now = self.ctx.engine.now
            self._held[w] = (request, now, now + self.ft.req_timeout / 2)
        else:
            self._release(w, seq, body)

    def _unhold(self, w: int, until: float) -> None:
        """End client ``w``'s hold, if any, as of ``until``; its length
        goes to :attr:`held_s`."""
        held = self._held.pop(w, None)
        if held is not None:
            self.held_s[w] = self.held_s.get(w, 0.0) + until - held[1]

    def _release(self, w: int, seq: int, body: Any) -> None:
        """Answer (and cache) ``seq`` of client ``w``."""
        answer = self._answered[w] = (seq, body)
        self.ctx.comm.isend(answer, dest=w, tag=self.tags.reply)

    def sweep(self, handle: Callable[[int, str, Any], Any]) -> None:
        """Re-offer every held request to ``handle``, in client rank
        order; answer each as soon as it has a body, or with
        :data:`HOLD_EXPIRED` once its hold ran out.  A hold answered
        here ends as of the sweep's start: time the handlers take to
        make the answer (a layout, say) is the server's work, not the
        client's idleness."""
        if not self._held:
            return
        now = self.ctx.engine.now
        for w in sorted(self._held):
            (_w, seq, kind, data), _since, expiry = self._held[w]
            body = handle(w, kind, data)
            if body is None:
                if now < expiry:
                    continue
                body = HOLD_EXPIRED
            self._release(w, seq, body)
            self._unhold(w, now)

    def next_expiry(self) -> float | None:
        """When the earliest hold runs out (None: nothing is held)."""
        if not self._held:
            return None
        return min(expiry for _req, _since, expiry in self._held.values())

    def drop(self, w: int) -> None:
        """Client ``w`` was declared dead: it gets no answer."""
        self._unhold(w, self.ctx.engine.now)

    def lingered(self, now: float) -> bool:
        """For a role with nothing left to give, asked on each idle
        tick of :meth:`serve`: True once ``ft.linger`` has passed since
        the first such tick with no request in between, so resends of a
        lost final answer are still served.  Idle ticks are
        ``master_tick`` apart and ``linger`` is a whole number of them
        (``FTParams.scaled`` stretches both alike); half a tick of slack
        keeps float rounding of that sum from deciding whether the
        server stays one tick longer."""
        if self._idle_since is None:
            self._idle_since = now
            return False
        ft = self.ft
        return now - self._idle_since > ft.linger - ft.master_tick / 2

    def outranked_by(self, announcer: int) -> bool:
        s, me = self.succession, self.ctx.rank
        return (
            announcer in s and me in s and s.index(announcer) > s.index(me)
        )

    def serve(
        self,
        *,
        on_tick: Callable[[tuple | None, float], None],
        on_idle: Callable[[float], bool],
        on_request: Callable[[int, str, Any], Any],
    ) -> int | None:
        """Serve until the role is finished (returns None) or succeeded
        (returns the successor; ``recover:abdicate`` is recorded and the
        caller must not touch shared output again).

        Each iteration receives for at most ``ft.master_tick``, or
        until the earliest hold expires.  A ping from a
        later-succession rank ends the loop.  Otherwise
        ``on_tick(request, now)`` runs — every iteration, because with
        healthy clients polling the receive may never time out —
        where ``request`` is the 4-tuple just received, or None on a
        timeout or on dropped traffic (stale pings, another role's
        messages).  The role refreshes the sender's liveness there
        *before* its death sweep, so a slow client is not declared dead
        by its own message; then heartbeat, checkpoint, and its own
        steps.  A request is answered through :meth:`serve_request`.
        The held requests are swept after every served request and on
        every timeout; after that timeout sweep ``on_idle(now)`` → True
        ends the loop (the role is done and :meth:`lingered`).  ``now``
        is when the receive returned (ticks may consume virtual time).
        """
        comm, engine = self.ctx.comm, self.ctx.engine
        tick = self.ft.master_tick
        req_tag, ping_tag = self.tags.req, self.tags.ping
        recv = comm.recv_with_timeout
        st = Status()  # one envelope, refilled by every receive
        while True:
            t0 = engine.now
            timeout = tick
            if self._held:
                timeout = max(0.0, min(tick, self.next_expiry() - t0))
            msg = recv(
                source=ANY_SOURCE, tag=ANY_TAG, timeout=timeout, status=st
            )
            now = engine.now
            self.waited += now - t0
            if msg is TIMEOUT:
                on_tick(None, now)
                self.sweep(on_request)
                if on_idle(now):
                    return None
                continue
            tag = st.tag
            if tag == ping_tag and self.outranked_by(msg):
                # A later candidate announced itself: the fleet decided
                # we were dead and moved on.  Step down.
                self.ctx.fault_report.record(
                    now, "recover:abdicate", self.ctx.rank, msg
                )
                return msg
            request = msg if tag == req_tag else None
            on_tick(request, now)
            if request is not None:
                self._idle_since = None
                self.serve_request(request, on_request)
                self.sweep(on_request)


# ----------------------------------------------------------------------
# liveness
# ----------------------------------------------------------------------
class LivenessTable:
    """Which of a server's clients are alive, judged by their silence.

    Keys are client ranks (the flat masters, the group sub-master) or
    group ids (both coordinators).  The table owns the last time each
    key was heard from, the ``alive`` and ``dead`` sets and the silence
    test; the role keeps what a verdict sets off (requeue, rehome,
    ``PullServer.drop``, report records), its thresholds, and when a
    dead key that speaks again is revived (see FAULTS.md §3).
    """

    def __init__(self, alive: Iterable, now: float, dead: Iterable = ()):
        self.alive = set(alive)
        self.dead = set(dead)
        self.last_seen: dict[Any, float] = dict.fromkeys(self.alive, now)

    def heard(self, key, now: float, revive: bool = True) -> bool:
        """Stamp ``key``; a dead key that speaks again was a straggler,
        not a corpse, and is revived unless the role says not to.
        Returns whether it was."""
        self.last_seen[key] = now
        if revive and key in self.dead:
            self.revive(key, now)
            return True
        return False

    def refresh(self, now: float) -> None:
        """Stamp every live key: the server itself was silent for long
        (a serialized output pass), not its clients."""
        for key in self.alive:
            self.last_seen[key] = now

    def declare_dead(self, key) -> bool:
        """Move ``key`` to the dead set; False if it was there already."""
        if key in self.dead:
            return False
        self.dead.add(key)
        self.alive.discard(key)
        return True

    def revive(self, key, now: float) -> None:
        """Count ``key`` alive again (or for the first time) from now."""
        self.dead.discard(key)
        self.alive.add(key)
        self.last_seen[key] = now

    def retire(self, key) -> None:
        """Stop watching ``key`` without declaring it dead (it left)."""
        self.alive.discard(key)

    def sweep(self, now: float, limit) -> Iterator[tuple[Any, float]]:
        """Declare dead, in key order, every live key silent for more
        than ``limit`` (seconds, or a per-key rule ``limit(key)``),
        yielding ``(key, quiet)`` right after each declaration: the
        role's recovery for one key runs before the next is judged."""
        per_key = callable(limit)
        for key in sorted(self.alive):
            quiet = now - self.last_seen[key]
            if quiet > (limit(key) if per_key else limit) and (
                self.declare_dead(key)
            ):
                yield key, quiet
