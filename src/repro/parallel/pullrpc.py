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

This module is the only place that knows those three layouts.  The
roles keep what is theirs: message kinds, scheduler state, liveness
rules, and (via :class:`~repro.parallel.checkpoint.FailoverTracker`)
who they believe the master is.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, NamedTuple, Sequence

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
        self.period = ft.master_tick
        self.ping_tag = ping_tag
        self.targets = targets or (lambda: range(ctx.size))
        self.last = ctx.engine.now - ft.master_tick

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


class PullServer:
    """Reply dedupe plus the serve-loop skeleton of a pull-RPC master.

    ``succession`` orders the ranks that may hold this role; a ping
    from a rank *later* in it than this one means the fleet moved on,
    and :meth:`serve` steps down.
    """

    def __init__(self, ctx, ft, tags: Tags, succession: Sequence[int]) -> None:
        self.ctx = ctx
        self.ft = ft
        self.tags = tags
        self.succession = succession
        self._answered: dict[int, tuple[int, Any]] = {}
        #: virtual seconds spent blocked in :meth:`serve`'s receive
        self.waited = 0.0

    def serve_request(
        self,
        request: tuple[int, int, str, Any],
        handle: Callable[[int, str, Any], Any],
    ) -> None:
        """Answer ``request`` exactly once: an already-answered ``seq``
        gets the cached reply again (``handle`` is not re-invoked), so
        a dropped request *or* reply is healed by the client's resend."""
        w, seq, kind, data = request
        answer = self._answered.get(w)
        if answer is None or answer[0] != seq:
            answer = self._answered[w] = (seq, handle(w, kind, data))
        self.ctx.comm.isend(answer, dest=w, tag=self.tags.reply)

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

        Each iteration receives for at most ``ft.master_tick``.  A ping
        from a later-succession rank ends the loop.  Otherwise
        ``on_tick(request, now)`` runs — every iteration, because with
        healthy clients polling the receive may never time out —
        where ``request`` is the 4-tuple just received, or None on a
        timeout or on dropped traffic (stale pings, another role's
        messages).  The role refreshes the sender's liveness there
        *before* its death sweep, so a slow client is not declared dead
        by its own message; then heartbeat, checkpoint, and its own
        steps.  On a timeout ``on_idle(now)`` → True ends the loop (the
        role's linger ran out); a request is answered through
        :meth:`serve_request`.  ``now`` is when the receive returned
        (ticks may consume virtual time).
        """
        comm, engine = self.ctx.comm, self.ctx.engine
        tick = self.ft.master_tick
        req_tag, ping_tag = self.tags.req, self.tags.ping
        recv = comm.recv_with_timeout
        st = Status()  # one envelope, refilled by every receive
        while True:
            t0 = engine.now
            msg = recv(
                source=ANY_SOURCE, tag=ANY_TAG, timeout=tick, status=st
            )
            now = engine.now
            self.waited += now - t0
            if msg is TIMEOUT:
                on_tick(None, now)
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
                self.serve_request(request, on_request)
