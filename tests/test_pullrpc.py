"""The pull-RPC wire protocol on its own: 3-4 rank simmpi programs, no
BLAST.  Until ``repro.parallel.pullrpc`` existed these behaviours were
reachable only through whole-driver chaos runs."""

from __future__ import annotations

import importlib
import re
from pathlib import Path

import pytest

from repro.parallel import pullrpc
from repro.parallel.checkpoint import FailoverTracker
from repro.parallel.config import FTParams
from repro.parallel.pullrpc import (
    TAG_TABLE,
    Heartbeat,
    Orphaned,
    Promoted,
    PullClient,
    PullServer,
    Tags,
)
from repro.simmpi import FileStore, NetworkModel, PlatformSpec, run
from repro.simmpi.comm import TIMEOUT, Status
from repro.simmpi.faults import FaultPlan, MessageDropFault

FAST = PlatformSpec(
    network=NetworkModel(latency=1e-6, bandwidth=1e9, overhead=1e-7)
)
FT = FTParams(
    req_timeout=1.0, req_max_attempts=5, master_tick=0.25, linger=1.0,
    failover_silence=3.0,
)
T = Tags(req=1, reply=2, ping=3)
EXTRA = 7


def launch(n, prog, *, drops=(), store=None):
    plan = FaultPlan(events=tuple(drops)) if drops else None
    return run(n, prog, FAST, faults=plan, shared_store=store)


def client(ctx, succession=None, ft=FT, **kw):
    fo = FailoverTracker(ctx, ft, succession=succession)
    return PullClient(ctx, ft, fo, T, **kw)


def serve(ctx, handle, *, until, succession=(0, 1, 2, 3)):
    """Rank-0-style echo server that lingers until virtual ``until``."""
    server = PullServer(ctx, FT, T, succession)
    return server.serve(
        on_tick=lambda request, now: None,
        on_idle=lambda now: now >= until,
        on_request=handle,
    )


# ----------------------------------------------------------------------
# tag table
# ----------------------------------------------------------------------
OWNERS = {
    "mpiblast": "repro.parallel.mpiblast",
    "pioblast": "repro.parallel.pioblast",
    "queryseg": "repro.parallel.queryseg",
    "service": "repro.service.service",
    "coordinator": "repro.hier.coordinator",
    "groupmaster": "repro.hier.groupmaster",
}


class TestTagTable:
    def test_every_tag_is_unique(self):
        assert len(set(TAG_TABLE.values())) == len(TAG_TABLE)

    def test_drivers_reexport_the_table(self):
        for key, value in TAG_TABLE.items():
            owner, name = key.split(".")
            module = importlib.import_module(OWNERS[owner])
            assert getattr(module, f"TAG_{name}") == value, key

    def test_table_is_the_only_place_tags_get_numbers(self):
        src = Path(pullrpc.__file__).parents[1]
        literal = re.compile(r"^\s*TAG_\w+\s*=\s*-?\d+", re.M)
        assert [
            str(p) for p in src.rglob("*.py") if literal.search(p.read_text())
        ] == []

    def test_duplicate_value_fails_the_import(self):
        source = Path(pullrpc.__file__).read_text()
        clash = source.replace(
            '"queryseg.SECTION": 50', '"queryseg.SECTION": 40'
        )
        assert clash != source
        with pytest.raises(
            ImportError, match="40 is both pioblast.FT_REQ and queryseg"
        ):
            exec(compile(clash, "pullrpc_clash", "exec"), {"__name__": "x"})


# ----------------------------------------------------------------------
# request / retry / dedupe
# ----------------------------------------------------------------------
class TestRetryAndDedupe:
    def _echo_run(self, drop):
        handled = []

        def prog(ctx):
            if ctx.rank == 0:
                def handle(w, kind, data):
                    handled.append((w, kind, data))
                    return ("ok", len(handled))
                serve(ctx, handle, until=4.0)
                return None
            body = client(ctx).call("work", 42)
            return body, ctx.engine.now

        res = launch(2, prog, drops=[drop])
        return handled, res.rank_results[1]

    def test_dropped_request_is_resent_and_handled_once(self):
        handled, (body, t) = self._echo_run(
            MessageDropFault(source=1, dest=0, tag=T.req, count=1)
        )
        assert handled == [(1, "work", 42)]
        assert body == ("ok", 1)
        assert t == pytest.approx(FT.req_timeout, abs=0.01)

    def test_dropped_reply_is_answered_from_the_cache(self):
        handled, (body, t) = self._echo_run(
            MessageDropFault(source=0, dest=1, tag=T.reply, count=1)
        )
        assert handled == [(1, "work", 42)]  # not re-invoked
        assert body == ("ok", 1)
        assert t == pytest.approx(FT.req_timeout, abs=0.01)

    def test_stale_duplicate_reply_is_drained_by_seq(self):
        def prog(ctx):
            comm = ctx.comm
            if ctx.rank == 0:
                _w, seq, _k, _d = comm.recv(source=1, tag=T.req)
                comm.isend((seq, "first"), dest=1, tag=T.reply)
                comm.isend((seq, "first"), dest=1, tag=T.reply)
                _w, seq, _k, _d = comm.recv(source=1, tag=T.req)
                comm.isend((seq, "second"), dest=1, tag=T.reply)
                return None
            c = client(ctx)
            return c.call("a"), c.call("b")

        assert launch(2, prog).rank_results[1] == ("first", "second")

    def test_attempts_exhausted_means_orphaned(self):
        def prog(ctx):
            if ctx.rank == 0:
                ctx.engine.sleep(10.0)  # alive, never answers
                return None
            quiet = FTParams(
                req_timeout=1.0, req_max_attempts=5, failover_silence=100.0
            )
            with pytest.raises(Orphaned):
                client(ctx, ft=quiet).call("work")
            return ctx.engine.now

        t = launch(2, prog).rank_results[1]
        assert t == pytest.approx(5 * 1.0, abs=0.01)

    def test_ping_flood_does_not_postpone_the_resend(self):
        """The resend deadline is absolute from the send: a master that
        heartbeats every master_tick but lost the request must see it
        again req_timeout after the first copy, not one quiet
        req_timeout after the last ping."""
        arrivals = []

        def prog(ctx):
            comm = ctx.comm
            if ctx.rank == 0:
                while len(arrivals) < 2:
                    msg = comm.recv_with_timeout(
                        source=1, tag=T.req, timeout=FT.master_tick
                    )
                    if msg is TIMEOUT:
                        comm.isend(0, dest=1, tag=T.ping)
                        continue
                    arrivals.append(ctx.engine.now)
                comm.isend((msg[1], "late"), dest=1, tag=T.reply)
                return None
            return client(ctx).call("work")

        assert launch(2, prog).rank_results[1] == "late"
        assert arrivals[1] - arrivals[0] == pytest.approx(
            FT.req_timeout, abs=0.01
        )

    def test_extra_handler_traffic_does_not_consume_attempts(self):
        served = []
        requests = []

        def prog(ctx):
            comm = ctx.comm
            if ctx.rank == 0:
                msg = comm.recv(source=1, tag=T.req)
                requests.append(msg)
                for i in range(8):  # > req_max_attempts, < req_timeout
                    comm.isend(i, dest=1, tag=EXTRA)
                    ctx.engine.sleep(0.1)
                comm.isend((msg[1], "done"), dest=1, tag=T.reply)
                while True:  # count any resends
                    msg = comm.recv_with_timeout(
                        source=1, tag=T.req, timeout=2.0
                    )
                    if msg is TIMEOUT:
                        return None
                    requests.append(msg)

            def handler(payload, source):
                served.append(payload)
                return source

            return client(ctx, extra={EXTRA: handler}).call("work")

        assert launch(2, prog).rank_results[1] == "done"
        assert served == list(range(8))
        assert len(requests) == 1


# ----------------------------------------------------------------------
# re-homing, hand-off, tombstone
# ----------------------------------------------------------------------
class TestSuccession:
    def test_only_a_legal_successor_rehomes_the_request(self):
        """Rank 3 believes in silent rank 0; rank 2 (not in the role's
        succession list) and then rank 1 (the legal successor) announce
        themselves.  The in-flight request moves to rank 1 at once —
        not a req_timeout later — and never to rank 2."""
        got = {}

        def prog(ctx):
            comm, sim = ctx.comm, ctx.engine
            if ctx.rank == 0:
                sim.sleep(5.0)
            elif ctx.rank == 2:
                sim.sleep(0.2)
                comm.isend(2, dest=3, tag=T.ping)
                got[2] = comm.recv_with_timeout(tag=T.req, timeout=4.0)
            elif ctx.rank == 1:
                sim.sleep(0.5)
                comm.isend(1, dest=3, tag=T.ping)
                w, seq, kind, _d = comm.recv(tag=T.req)
                got[1] = (w, kind, sim.now)
                comm.isend((seq, "from-1"), dest=w, tag=T.reply)
            else:
                return client(ctx, succession=[0, 1, 3]).call("work")

        assert launch(4, prog).rank_results[3] == "from-1"
        assert got[2] is TIMEOUT
        w, kind, t = got[1]
        assert (w, kind) == (3, "work")
        assert t == pytest.approx(0.5, abs=0.01) and t < FT.req_timeout

    def test_ping_naming_the_caller_promotes_without_silence(self):
        def prog(ctx):
            if ctx.rank == 0:
                ctx.comm.recv(source=1, tag=T.req)
                ctx.comm.isend(1, dest=1, tag=T.ping)  # "you are next"
                return None
            c = client(ctx, succession=[0, 1])
            with pytest.raises(Promoted):
                c.call("work")
            return ctx.engine.now, c.fo.promoted

        t, promoted = launch(2, prog).rank_results[1]
        assert promoted and t < 0.01 < FT.failover_silence

    def test_silence_reaching_the_caller_promotes(self):
        def prog(ctx):
            if ctx.rank == 0:
                ctx.engine.sleep(10.0)
                return None
            with pytest.raises(Promoted):
                client(ctx, succession=[0, 1]).call("work")
            return ctx.engine.now

        t = launch(2, prog).rank_results[1]
        assert FT.failover_silence < t <= FT.failover_silence + FT.req_timeout

    def test_done_marker_ends_the_walk(self):
        store = FileStore()
        store.write("ckpt/hier.done", 0, b"done")

        def prog(ctx):
            if ctx.rank != 2:
                ctx.engine.sleep(10.0)
                return None
            c = client(
                ctx, succession=[0, 1, 2], done_marker="ckpt/hier.done"
            )
            return c.call("work"), c.fo.master

        body, believed = launch(3, prog, store=store).rank_results[2]
        assert body == ("done", None)
        assert believed == 1  # stopped after one step, did not promote


# ----------------------------------------------------------------------
# the non-blocking half
# ----------------------------------------------------------------------
def test_nonblocking_send_resend_match():
    """A rank serving its own loop while a request is in flight: the
    first copy is dropped, ``overdue`` triggers ``resend``, a ping from
    the legal successor re-homes, ``match`` drains a stale reply."""
    seen = {0: [], 1: []}

    def prog(ctx):
        comm, sim = ctx.comm, ctx.engine
        if ctx.rank in (0, 1):
            if ctx.rank == 1:
                sim.sleep(1.5)
                comm.isend(1, dest=2, tag=T.ping)
            while True:
                msg = comm.recv_with_timeout(tag=T.req, timeout=3.0)
                if msg is TIMEOUT:
                    return None
                seen[ctx.rank].append((msg[1], round(sim.now, 2)))
                if ctx.rank == 1:
                    comm.isend((msg[1] - 1, "stale"), dest=2, tag=T.reply)
                    comm.isend((msg[1], "fresh"), dest=2, tag=T.reply)
        c = client(ctx, succession=[0, 1, 2])
        c.send("work", None)
        assert c.request == (2, 1, "work", None)
        while True:
            st = Status()
            msg = comm.recv_with_timeout(timeout=FT.master_tick, status=st)
            if c.overdue(sim.now):
                assert c.resend()
            if msg is TIMEOUT:
                continue
            if st.tag == T.ping:
                c.ping(msg)
            elif st.tag == T.reply:
                body = c.match(msg, st.source)
                if body is not None:
                    return body, c.request, c.attempts

    drop = MessageDropFault(source=2, dest=0, tag=T.req, count=1)
    res = launch(3, prog, drops=[drop])
    assert res.rank_results[2] == ("fresh", None, 3)
    # rank 0 saw only the overdue resend; the ping moved the third copy
    assert seen[0] == [(1, 1.0)]
    assert seen[1] == [(1, 1.5)]


# ----------------------------------------------------------------------
# server: abdication, heartbeat
# ----------------------------------------------------------------------
class TestServer:
    def test_later_ping_abdicates_earlier_ping_does_not(self):
        handled = []

        def prog(ctx):
            comm, sim = ctx.comm, ctx.engine
            if ctx.rank == 1:
                out = serve(
                    ctx, lambda w, k, d: handled.append(w) or ("ok", None),
                    until=10.0, succession=(0, 1, 2),
                )
                return out, sim.now
            if ctx.rank == 0:
                sim.sleep(0.1)
                comm.isend(0, dest=1, tag=T.ping)  # stale ex-master
                return None
            sim.sleep(0.3)
            body = client(ctx, succession=[1, 2]).call("work")
            sim.sleep(0.3)
            comm.isend(2, dest=1, tag=T.ping)  # successor announces
            return body

        res = launch(3, prog)
        assert res.rank_results[2] == ("ok", None)  # still serving at 0.3
        assert handled == [2]
        successor, t = res.rank_results[1]
        assert successor == 2 and t == pytest.approx(0.6, abs=0.01)
        assert [
            (e.kind, e.detail) for e in res.fault_report.events
        ] == [("recover:abdicate", (1, 2))]

    def test_serve_tracks_blocked_time_and_ticks_every_message(self):
        ticks = []

        def prog(ctx):
            if ctx.rank == 0:
                server = PullServer(ctx, FT, T, (0, 1))
                server.serve(
                    on_tick=lambda request, now: ticks.append(
                        (request and request[2], round(now, 2))
                    ),
                    on_idle=lambda now: now >= 1.0,
                    on_request=lambda w, k, d: ("ok", None),
                )
                return server.waited
            ctx.engine.sleep(0.1)
            ctx.comm.isend("noise", dest=0, tag=EXTRA)  # not a request
            ctx.engine.sleep(0.1)
            client(ctx).call("work")
            return None

        waited = launch(2, prog).rank_results[0]
        assert ticks[:2] == [(None, 0.1), ("work", 0.2)]
        assert ticks[-1] == (None, 1.2)
        assert waited == pytest.approx(1.2, abs=0.01)

    def test_heartbeat_is_rate_limited_and_skips_self(self):
        def prog(ctx):
            comm, sim = ctx.comm, ctx.engine
            if ctx.rank == 0:
                hb = Heartbeat(ctx, FT, T.ping)
                for _ in range(10):  # 1.0 s in 0.1 s steps
                    hb.beat()
                    sim.sleep(0.1)
                hb.beat(force=True)
                hb.name(2, [1])  # graceful hand-off names a successor
                return None
            got = []
            while True:
                msg = comm.recv_with_timeout(tag=T.ping, timeout=1.0)
                if msg is TIMEOUT:
                    return got
                got.append((msg, round(sim.now, 2)))

        res = launch(3, prog)
        beats = [(0, 0.0), (0, 0.3), (0, 0.6), (0, 0.9), (0, 1.0)]
        assert res.rank_results[1] == beats + [(2, 1.0)]
        assert res.rank_results[2] == beats
