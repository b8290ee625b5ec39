"""mpi4py-flavoured communicator on top of the simulation engine.

Point-to-point semantics follow MPI: non-overtaking per (source, dest,
tag), wildcard ``ANY_SOURCE`` / ``ANY_TAG`` receives, eager vs rendezvous
sends per the network model.  Collectives (bcast, gather/gatherv,
scatter/scatterv, allgather, reduce, allreduce, barrier, alltoall) are
implemented *on top of* the point-to-point layer with binomial-tree
algorithms, so their timing emerges from the same message model the rest
of the system uses.

Payloads are passed by reference (all simulated ranks share one address
space).  Programs must treat received objects as immutable — exactly the
discipline real MPI enforces by copying.  ``bytes`` payloads, which is
what the BLAST layers ship, are immutable anyway.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from functools import reduce as _functools_reduce
from typing import Any, Callable

from repro.obs.events import EV_COLL, EV_RECV, EV_SEND
from repro.simmpi.engine import Engine, Parker, SimError
from repro.simmpi.network import NetworkModel, payload_nbytes

ANY_SOURCE = -1
ANY_TAG = -1

# Tags below this value are reserved for internal collective traffic.
_COLL_TAG_BASE = -1_000_000


class _Timeout:
    """Sentinel returned by :meth:`Communicator.recv_with_timeout`."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "TIMEOUT"


#: Returned by ``recv_with_timeout`` when no message arrived in time.
TIMEOUT = _Timeout()


@dataclass(slots=True)
class Status:
    """Filled in by ``recv``/``probe`` with message envelope details."""

    source: int = -1
    tag: int = -1
    nbytes: int = 0


@dataclass(slots=True, eq=False)
class _Message:
    source: int
    tag: int
    payload: Any
    nbytes: int
    sender_parker: Parker | None = None
    # Tracing envelope: unique message id + injection time.  ``mid``
    # links the receiver's ``comm.recv`` event back to the sender's
    # ``comm.send`` — the edge the critical-path walk follows.
    mid: int = 0
    sent_at: float = 0.0


@dataclass(slots=True, eq=False)
class _PendingRecv:
    source: int
    tag: int
    parker: Parker
    consume: bool  # False for probe


class Request:
    """Handle for a non-blocking operation; without a ``wait_fn`` it is
    complete from the start and ``wait()`` never writes to it."""

    def __init__(self, wait_fn: Callable[[], Any] | None = None):
        self._wait_fn = wait_fn
        self._done = wait_fn is None
        self._value: Any = None

    def wait(self) -> Any:
        if not self._done:
            self._value = self._wait_fn()
            self._done = True
        return self._value


#: what every ``isend`` returns: the model buffers the payload at once
_SENT = Request()


def _traced_coll(fn: Callable) -> Callable:
    """Wrap a collective so each call emits one ``comm.coll`` span.

    Composed collectives (``allgather`` = gather + bcast) nest their
    constituent spans inside the outer one; the attribution layer only
    sums ``wait`` spans, so nesting never double-counts time.
    """
    op = fn.__name__
    counter = f"coll.{op}"

    @functools.wraps(fn)
    def wrapper(self: "Communicator", *args: Any, **kwargs: Any) -> Any:
        if self.metrics is not None:
            self.metrics.inc(self.rank, counter)
        tr = self.tracer
        if tr is None:
            return fn(self, *args, **kwargs)
        rank = self.rank
        t0 = self.engine.now
        out = fn(self, *args, **kwargs)
        tr.span(EV_COLL, rank, t0, self.engine.now, op)
        return out

    return wrapper


class _Endpoint:
    """Per-rank message queues."""

    def __init__(self) -> None:
        self.queued: list[_Message] = []
        self.pending: list[_PendingRecv] = []


def _matches(msg: _Message, source: int, tag: int) -> bool:
    return (source in (ANY_SOURCE, msg.source)) and (tag in (ANY_TAG, msg.tag))


class Communicator:
    """An MPI communicator over ``size`` simulated ranks."""

    def __init__(self, engine: Engine, size: int, network: NetworkModel):
        self.engine = engine
        self.size = size
        self.network = network
        self._endpoints = [_Endpoint() for _ in range(size)]
        # MPI non-overtaking: per (source, dest) channel, messages are
        # matched in send order, so a later (smaller/faster) message must
        # never be delivered before an earlier one.
        self._last_arrival: dict[tuple[int, int], float] = {}
        # Per-rank counter assigning a unique internal tag to each
        # collective call site (all ranks must call collectives in the
        # same order, as in MPI).
        self._coll_seq = [0] * size
        # statistics
        self.messages_sent = 0
        self.bytes_sent = 0
        # observability (wired by the launcher; None costs one check)
        self.tracer: Any = None
        self.metrics: Any = None
        self._msg_uid = 0
        #: optional :class:`repro.simmpi.faults.ActiveFaults` hook — the
        #: launcher attaches it when a fault plan is in force.  Consulted
        #: on every send for drops, delays and congestion windows.
        self.faults: Any = None

    # ------------------------------------------------------------------
    # rank identity
    # ------------------------------------------------------------------
    @property
    def rank(self) -> int:
        return self.engine.current_rank()

    def _check_rank(self, r: int, what: str) -> None:
        if not (0 <= r < self.size):
            raise SimError(f"{what} rank {r} out of range (size={self.size})")

    # ------------------------------------------------------------------
    # point-to-point
    # ------------------------------------------------------------------
    def send(self, obj: Any, dest: int, tag: int = 0, nbytes: int | None = None) -> None:
        """Blocking send (eager below the threshold, rendezvous above)."""
        self._check_rank(dest, "dest")
        if tag < 0:
            raise SimError("user tags must be non-negative")
        self._send_internal(obj, dest, tag, nbytes)

    def _fault_check(
        self, rank: int, dest: int, tag: int, size: int
    ) -> tuple[bool, float]:
        """Consult the attached fault layer: ``(dropped,
        extra_arrival_delay)``.

        The extra delay folds in both per-message delay faults and the
        transient congestion multiplier on the wire time.
        """
        now = self.engine.now
        dropped, extra = self.faults.on_send(rank, dest, tag, size, now)
        slowdown = self.faults.net_factor(now)
        if slowdown > 1.0:
            extra += self.network.delivery_time(size, slowdown) - (
                self.network.delivery_time(size)
            )
        return dropped, extra

    def _record_recv(self, rank: int, msg: _Message) -> None:
        m = self.metrics
        if m is not None:
            c = m.counters[rank]
            c["msgs_recv"] = c.get("msgs_recv", 0.0) + 1.0
            c["bytes_recv"] = c.get("bytes_recv", 0.0) + msg.nbytes
        if self.tracer is not None:
            self.tracer.instant(
                EV_RECV, rank, self.engine.now, "recv",
                msg.source, msg.tag, msg.nbytes, msg.mid, msg.sent_at,
            )

    def _inject(
        self, obj: Any, dest: int, tag: int, nbytes: int | None
    ) -> tuple[int, float, _Message | None]:
        """What every send starts with: size the payload (once — an
        explicit ``nbytes`` wins), charge the sender's software
        overhead, consult the fault layer, count and trace the
        injection.  Returns the size, the arrival time and the message
        envelope — ``None`` when the fault layer dropped it on the wire."""
        size = payload_nbytes(obj) if nbytes is None else int(nbytes)
        net, eng = self.network, self.engine
        rank = eng.current_rank()
        self.messages_sent += 1
        self.bytes_sent += size
        eng.sleep(net.overhead)
        dropped, extra = False, 0.0
        if self.faults is not None:
            dropped, extra = self._fault_check(rank, dest, tag, size)
        # The message id and injection time ride in the envelope: they
        # link the receiver's ``comm.recv`` event back to this send.
        mid = self._msg_uid = self._msg_uid + 1
        now = eng.now
        m = self.metrics
        if m is not None:
            c = m.counters[rank]
            c["msgs_sent"] = c.get("msgs_sent", 0.0) + 1.0
            c["bytes_sent"] = c.get("bytes_sent", 0.0) + size
            m.observe(rank, "msg_nbytes", size)
            if dropped:
                c["msgs_dropped"] = c.get("msgs_dropped", 0.0) + 1.0
        if self.tracer is not None:
            self.tracer.instant(
                EV_SEND, rank, now, "send", dest, tag, size, mid, dropped,
            )
        arrival = now + net.delivery_time(size) + extra
        if dropped:
            return size, arrival, None
        return size, arrival, _Message(rank, tag, obj, size, None, mid, now)

    def _send_internal(
        self, obj: Any, dest: int, tag: int, nbytes: int | None = None
    ) -> None:
        size, arrival, msg = self._inject(obj, dest, tag, nbytes)
        eng = self.engine
        eager = self.network.is_eager(size)
        if msg is None:
            # The sender pays the usual injection cost but the payload
            # evaporates on the wire.  A rendezvous sender still blocks
            # for the drain time (the NIC does not know the packets are
            # being eaten downstream).
            if not eager:
                eng.sleep_until(arrival)
        elif eager:
            self._deliver_at(arrival, dest, msg)
        else:
            # Rendezvous: sender stays busy until the payload drains.
            msg.sender_parker = done = eng.make_parker(
                ("send(dest=%s, tag=%s, rendezvous)", dest, tag)
            )
            self._deliver_at(arrival, dest, msg)
            eng.park(done)

    def isend(self, obj: Any, dest: int, tag: int = 0, nbytes: int | None = None) -> Request:
        """Non-blocking send (always buffered/eager in this model)."""
        self._check_rank(dest, "dest")
        if tag < 0:
            raise SimError("user tags must be non-negative")
        _size, arrival, msg = self._inject(obj, dest, tag, nbytes)
        if msg is not None:
            self._deliver_at(arrival, dest, msg)
        return _SENT

    def _deliver_at(self, t: float, dest: int, msg: _Message) -> None:
        chan = (msg.source, dest)
        t = max(t, self._last_arrival.get(chan, 0.0))
        self._last_arrival[chan] = t
        # Inline-safe: _deliver touches only endpoint queues and the
        # event queue (unpark_at), never blocks or resumes anybody
        # itself, and reads no thread identity — the message is data on
        # the event, so whichever thread holds the baton may run it.
        self.engine.schedule_inline(t, self._deliver, dest, msg)

    def _deliver(self, dest: int, msg: _Message) -> None:
        """(inline-safe event) ``msg`` arrives at ``dest``."""
        ep = self._endpoints[dest]
        # Wake the earliest-posted matching pending receive, if any
        # (``_matches``, spelled out: this runs once per message).
        source, tag = msg.source, msg.tag
        for i, pr in enumerate(ep.pending):
            if (pr.source == source or pr.source == ANY_SOURCE) and (
                pr.tag == tag or pr.tag == ANY_TAG
            ):
                del ep.pending[i]
                if not pr.consume:
                    # probe: leave the message queued, wake the prober
                    ep.queued.append(msg)
                elif msg.sender_parker is not None:
                    self._complete_rendezvous(msg)
                self.engine.unpark_at(pr.parker, self.engine.now, msg)
                return
        ep.queued.append(msg)

    def _complete_rendezvous(self, msg: _Message) -> None:
        if msg.sender_parker is not None:
            self.engine.unpark_at(msg.sender_parker, self.engine.now)
            msg.sender_parker = None

    def recv(
        self,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        status: Status | None = None,
    ) -> Any:
        """Blocking receive; returns the payload."""
        msg = self._wait_message(source, tag, consume=True)
        # Receiver-side software overhead.
        self.engine.sleep(self.network.overhead)
        if status is not None:
            status.source, status.tag, status.nbytes = msg.source, msg.tag, msg.nbytes
        return msg.payload

    def recv_with_timeout(
        self,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        *,
        timeout: float,
        status: Status | None = None,
    ) -> Any:
        """Blocking receive that gives up after ``timeout`` virtual seconds.

        Returns the payload, or the :data:`TIMEOUT` sentinel if nothing
        matching arrived in time.  This is the primitive that lets a
        fault-tolerant master keep ticking while a worker is dead: a
        plain ``recv`` from a crashed rank would park forever and turn
        the whole run into a deadlock.
        """
        if timeout < 0:
            raise SimError(f"negative timeout: {timeout}")
        if source != ANY_SOURCE:
            self._check_rank(source, "source")
        eng = self.engine
        rank = eng.current_rank()
        ep = self._endpoints[rank]
        msg = (
            self._match_queued(ep, source, tag, consume=True)
            if ep.queued else None
        )
        if msg is None:
            parker = eng.make_parker(
                ("recv_timeout(src=%s, tag=%s)", source, tag)
            )
            pr = _PendingRecv(source, tag, parker, consume=True)
            ep.pending.append(pr)
            # Inline-safe for the same three reasons as _deliver.
            ev = eng.schedule_inline(
                eng.now + timeout, self._fire_timeout, ep, pr
            )
            got = eng.park(parker)
            if got is TIMEOUT:
                return TIMEOUT
            eng.cancel(ev)
            msg = got
        else:
            self._complete_rendezvous(msg)
        self._record_recv(rank, msg)
        # Receiver-side software overhead (charged only on success).
        eng.sleep(self.network.overhead)
        if status is not None:
            status.source, status.tag, status.nbytes = (
                msg.source, msg.tag, msg.nbytes,
            )
        return msg.payload

    def _fire_timeout(self, ep: _Endpoint, pr: _PendingRecv) -> None:
        """(inline-safe event) The timed receive ``pr`` gives up."""
        # A delivery scheduled for the same instant may have already
        # matched (and removed) the pending entry; the message wins the
        # race and the timeout is a no-op.
        try:
            ep.pending.remove(pr)
        except ValueError:
            return
        self.engine.unpark_at(pr.parker, self.engine.now, TIMEOUT)

    def irecv(
        self, source: int = ANY_SOURCE, tag: int = ANY_TAG
    ) -> Request:
        """Non-blocking receive; ``wait()`` returns the payload."""
        if source != ANY_SOURCE:
            self._check_rank(source, "source")
        rank = self.engine.current_rank()
        ep = self._endpoints[rank]
        msg = self._match_queued(ep, source, tag, consume=True)
        if msg is not None:
            self._complete_rendezvous(msg)
            self._record_recv(rank, msg)
            return Request(lambda: msg.payload)
        parker = self.engine.make_parker(
            ("irecv(src=%s, tag=%s)", source, tag)
        )
        ep.pending.append(_PendingRecv(source, tag, parker, consume=True))

        def waiter() -> Any:
            got: _Message = self.engine.park(parker)
            self._record_recv(rank, got)
            self.engine.sleep(self.network.overhead)
            return got.payload

        return Request(waiter)

    def probe(
        self,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        status: Status | None = None,
    ) -> Status:
        """Block until a matching message is available without consuming."""
        msg = self._wait_message(source, tag, consume=False)
        st = status if status is not None else Status()
        st.source, st.tag, st.nbytes = msg.source, msg.tag, msg.nbytes
        return st

    def _match_queued(
        self, ep: _Endpoint, source: int, tag: int, consume: bool
    ) -> _Message | None:
        for i, msg in enumerate(ep.queued):
            if _matches(msg, source, tag):
                if consume:
                    del ep.queued[i]
                return msg
        return None

    def _wait_message(self, source: int, tag: int, consume: bool) -> _Message:
        if source != ANY_SOURCE:
            self._check_rank(source, "source")
        rank = self.engine.current_rank()
        ep = self._endpoints[rank]
        msg = self._match_queued(ep, source, tag, consume)
        if msg is not None:
            if consume:
                self._complete_rendezvous(msg)
                self._record_recv(rank, msg)
            return msg
        parker = self.engine.make_parker(
            ("%s(src=%s, tag=%s)", "recv" if consume else "probe",
             source, tag)
        )
        ep.pending.append(_PendingRecv(source, tag, parker, consume))
        msg = self.engine.park(parker)
        if consume:
            self._record_recv(rank, msg)
        return msg

    # ------------------------------------------------------------------
    # collectives (binomial-tree over point-to-point)
    # ------------------------------------------------------------------
    def _coll_tag(self) -> int:
        r = self.rank
        tag = _COLL_TAG_BASE - self._coll_seq[r]
        self._coll_seq[r] += 1
        return tag

    # The tree collectives move one immutable payload over many edges,
    # so its wire size travels with it: whoever first sends it sizes it,
    # relays forward the ``nbytes`` they received (``None``: size here).
    def _sendc(
        self, obj: Any, dest: int, tag: int, nbytes: int | None = None
    ) -> None:
        self._send_internal(obj, dest, tag, nbytes)

    def _recvc(self, source: int, tag: int) -> _Message:
        msg = self._wait_message(source, tag, consume=True)
        self.engine.sleep(self.network.overhead)
        return msg

    @_traced_coll
    def bcast(self, obj: Any, root: int = 0) -> Any:
        """Binomial-tree broadcast; returns the object on every rank."""
        self._check_rank(root, "root")
        tag = self._coll_tag()
        size, me = self.size, self.rank
        rel = (me - root) % size
        # Standard binomial tree: climb mask until this rank's lowest set
        # bit, receiving from the parent there; then fan out to children
        # at every lower bit position.
        nbytes = None
        mask = 1
        while mask < size:
            if rel & mask:
                parent = (rel - mask + root) % size
                got = self._recvc(parent, tag)
                obj, nbytes = got.payload, got.nbytes
                break
            mask <<= 1
        mask >>= 1
        while mask > 0:
            if rel + mask < size:
                child = (rel + mask + root) % size
                if nbytes is None:
                    nbytes = payload_nbytes(obj)
                self._sendc(obj, child, tag, nbytes)
            mask >>= 1
        return obj

    @_traced_coll
    def gather(self, obj: Any, root: int = 0) -> list[Any] | None:
        """Gather one object per rank to ``root`` (list indexed by rank)."""
        self._check_rank(root, "root")
        tag = self._coll_tag()
        size, me = self.size, self.rank
        rel = (me - root) % size
        # Binomial-tree gather: collect from children, forward to parent.
        # The keys are disjoint ranks, so the merged dict's wire size is
        # this rank's own ``{me: obj}`` plus each child dict's beyond the
        # 16-byte container header they share.
        mine: dict[int, Any] = {me: obj}
        merged_nbytes = 0
        mask = 1
        while mask < size:
            if rel & mask:
                parent = (rel - mask + root) % size
                self._sendc(
                    mine, parent, tag,
                    payload_nbytes({me: obj}) + merged_nbytes,
                )
                break
            child_rel = rel + mask
            if child_rel < size:
                child = (child_rel + root) % size
                got = self._recvc(child, tag)
                mine.update(got.payload)
                merged_nbytes += got.nbytes - 16
            mask <<= 1
        if me == root:
            return [mine[r] for r in range(size)]
        return None

    @_traced_coll
    def gatherv(self, obj: Any, root: int = 0) -> list[Any] | None:
        """Flat gather (each rank sends directly to root).

        Matches MPI_Gatherv usage for large, uneven payloads where tree
        forwarding would double-transfer the data.
        """
        self._check_rank(root, "root")
        tag = self._coll_tag()
        if self.rank == root:
            out: list[Any] = [None] * self.size
            out[root] = obj
            for _ in range(self.size - 1):
                st = Status()
                payload = self.recv_internal(ANY_SOURCE, tag, st)
                out[st.source] = payload
            return out
        self._sendc(obj, root, tag)
        return None

    def recv_internal(self, source: int, tag: int, status: Status) -> Any:
        msg = self._wait_message(source, tag, consume=True)
        self.engine.sleep(self.network.overhead)
        status.source, status.tag, status.nbytes = msg.source, msg.tag, msg.nbytes
        return msg.payload

    @_traced_coll
    def scatter(self, objs: list[Any] | None, root: int = 0) -> Any:
        """Scatter a list of ``size`` items from root; returns this rank's."""
        self._check_rank(root, "root")
        tag = self._coll_tag()
        if self.rank == root:
            if objs is None or len(objs) != self.size:
                raise SimError("scatter needs one item per rank at root")
            for r in range(self.size):
                if r != root:
                    self._sendc(objs[r], r, tag)
            return objs[root]
        return self._recvc(root, tag).payload

    scatterv = scatter

    @_traced_coll
    def allgather(self, obj: Any) -> list[Any]:
        """Gather to rank 0 then broadcast (tree both ways)."""
        gathered = self.gather(obj, root=0)
        return self.bcast(gathered, root=0)

    @_traced_coll
    def reduce(
        self, obj: Any, op: Callable[[Any, Any], Any] = operator.add, root: int = 0
    ) -> Any | None:
        """Tree reduction with operator ``op``; result only at root."""
        gathered = self.gather(obj, root=root)
        if self.rank == root:
            return _functools_reduce(op, gathered)
        return None

    @_traced_coll
    def allreduce(self, obj: Any, op: Callable[[Any, Any], Any] = operator.add) -> Any:
        res = self.reduce(obj, op=op, root=0)
        return self.bcast(res, root=0)

    @_traced_coll
    def alltoall(self, objs: list[Any]) -> list[Any]:
        """Each rank sends ``objs[r]`` to rank r; returns received list."""
        if len(objs) != self.size:
            raise SimError("alltoall needs one item per rank")
        tag = self._coll_tag()
        me = self.rank
        out: list[Any] = [None] * self.size
        out[me] = objs[me]
        for r in range(self.size):
            if r != me:
                self._sendc(objs[r], r, tag)
        for _ in range(self.size - 1):
            st = Status()
            payload = self.recv_internal(ANY_SOURCE, tag, st)
            out[st.source] = payload
        return out

    @_traced_coll
    def barrier(self) -> None:
        """Tree gather + broadcast barrier."""
        self.gather(None, root=0)
        self.bcast(None, root=0)
