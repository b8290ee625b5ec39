"""The pull-RPC wire protocol on its own: 3-4 rank simmpi programs, no
BLAST.  Until ``repro.parallel.pullrpc`` existed these behaviours were
reachable only through whole-driver chaos runs.  ``LivenessTable`` is
tested with plain floats for the clock, no simulator at all."""

from __future__ import annotations

import ast
import importlib
import re
from dataclasses import replace
from pathlib import Path

import pytest

from repro.experiments.common import PAPER_COSTS
from repro.parallel import pullrpc
from repro.parallel.checkpoint import FailoverTracker
from repro.parallel.config import FTParams
from repro.parallel.pullrpc import (
    HOLD_EXPIRED,
    TAG_TABLE,
    Heartbeat,
    LivenessTable,
    Orphaned,
    Promoted,
    PullClient,
    PullServer,
    Tags,
)
from repro.simmpi import FileStore, NetworkModel, PlatformSpec, run
from repro.simmpi.comm import TIMEOUT, Status
from repro.simmpi.faults import CrashFault, FaultPlan, MessageDropFault

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


def sweep_serve(ctx, handle, *, until, seen=None, tick=None):
    """A long-polling server loop shaped like the group sub-master's:
    sweep the held requests, then receive for at most ``master_tick``
    or until the earliest hold expires.  ``seen`` collects ``(client,
    seq, now)`` of every request that arrives; ``tick(server, now)``
    runs after every receive."""
    comm, sim = ctx.comm, ctx.engine
    server = PullServer(ctx, FT, T, (0,))
    st = Status()
    while sim.now < until:
        server.sweep(handle)
        timeout = FT.master_tick
        expiry = server.next_expiry()
        if expiry is not None:
            timeout = min(timeout, expiry - sim.now)
        msg = comm.recv_with_timeout(timeout=max(0.0, timeout), status=st)
        if tick is not None:
            tick(server, sim.now)
        if msg is TIMEOUT or st.tag != T.req:
            continue
        if seen is not None:
            seen.append((msg[0], msg[1], round(sim.now, 2)))
        server.serve_request(msg, handle)
    return server


def replies(ctx, window=2.0):
    """``(body, now)`` of every reply that arrives until ``window``
    virtual seconds pass without one."""
    got = []
    while True:
        msg = ctx.comm.recv_with_timeout(tag=T.reply, timeout=window)
        if msg is TIMEOUT:
            return got
        got.append((msg, round(ctx.engine.now, 2)))


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

    def test_guessed_candidate_announcing_gets_the_request_again(self):
        """Silence advances rank 2 to candidate 1 by guess while 1 has
        not promoted yet, so 1 drops the request.  When 1 announces
        itself, the request goes to it again at once — not at the
        resend deadline ``req_timeout`` after the dropped copy."""
        got = {}
        patient = replace(FT, req_max_attempts=10)

        def prog(ctx):
            comm, sim = ctx.comm, ctx.engine
            if ctx.rank == 0:
                sim.sleep(10.0)  # silent master
            elif ctx.rank == 1:
                dropped = comm.recv(tag=T.req)  # not serving yet
                got["dropped"] = (dropped[1], sim.now)
                sim.sleep(0.4)
                comm.isend(1, dest=2, tag=T.ping)  # promoted: announce
                w, seq, _kind, _d = comm.recv(tag=T.req)
                got["served"] = (seq, sim.now)
                comm.isend((seq, "from-1"), dest=w, tag=T.reply)
            else:
                c = client(ctx, succession=[0, 1, 2], ft=patient)
                return c.call("work")

        assert launch(3, prog).rank_results[2] == "from-1"
        seq, t_drop = got["dropped"]
        assert seq == 1 and t_drop > FT.failover_silence  # the guess
        assert got["served"][0] == 1
        assert got["served"][1] == pytest.approx(t_drop + 0.4, abs=0.01)
        assert got["served"][1] < t_drop + FT.req_timeout

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
# server: held requests (long poll)
# ----------------------------------------------------------------------
class TestHold:
    def test_answered_by_the_sweep_that_first_has_work(self):
        work, offered = [], []

        def prog(ctx):
            sim = ctx.engine
            if ctx.rank == 0:
                server = PullServer(ctx, FT, T, (0,))

                def handle(w, kind, data):
                    offered.append(round(sim.now, 2))
                    return ("search", work.pop()) if work else None

                server.serve_request(ctx.comm.recv(tag=T.req), handle)
                sim.sleep(0.1)
                server.sweep(handle)  # nothing yet: stays held
                sim.sleep(0.1)
                work.append(7)
                server.sweep(handle)
                return server.next_expiry()
            return client(ctx).call("work"), sim.now

        res = launch(2, prog)
        assert res.rank_results[0] is None  # nothing held any more
        body, t = res.rank_results[1]
        assert body == ("search", 7)
        assert t == pytest.approx(0.2, abs=0.01)
        assert offered == [0.0, 0.1, 0.2]

    def test_expired_hold_answers_wait_before_the_resend_deadline(self):
        seen = []

        def prog(ctx):
            if ctx.rank == 0:
                sweep_serve(ctx, lambda w, k, d: None, until=2.0, seen=seen)
                return None
            return client(ctx).call("work"), ctx.engine.now

        body, t = launch(2, prog).rank_results[1]
        assert body == HOLD_EXPIRED == ("wait", 0)
        assert t == pytest.approx(FT.req_timeout / 2, abs=0.01)
        assert t < FT.req_timeout
        assert seen == [(1, 1, 0.0)]  # never resent

    def test_resent_held_seq_gets_exactly_one_answer(self):
        """The resend keeps the one hold it found — expiry included: the
        answer comes when the first copy's hold runs out."""
        def prog(ctx):
            comm, sim = ctx.comm, ctx.engine
            if ctx.rank == 0:
                sweep_serve(ctx, lambda w, k, d: None, until=3.0)
                return None
            request = (1, 1, "work", None)
            comm.isend(request, dest=0, tag=T.req)
            sim.sleep(0.2)
            comm.isend(request, dest=0, tag=T.req)  # same seq again
            return replies(ctx)

        got = launch(2, prog).rank_results[1]
        assert got == [((1, HOLD_EXPIRED), FT.req_timeout / 2)]

    def test_dropped_held_answer_is_healed_from_the_cache(self):
        answers = []

        def prog(ctx):
            sim = ctx.engine
            if ctx.rank == 0:
                def handle(w, kind, data):
                    if sim.now < 0.2:
                        return None
                    answers.append(w)
                    return ("go", len(answers))

                sweep_serve(ctx, handle, until=3.0)
                return None
            return client(ctx).call("work"), sim.now

        drop = MessageDropFault(source=0, dest=1, tag=T.reply, count=1)
        body, t = launch(2, prog, drops=[drop]).rank_results[1]
        assert body == ("go", 1)  # the cached answer, not a second one
        assert answers == [1]
        assert t == pytest.approx(FT.req_timeout, abs=0.01)

    def test_dead_client_gets_no_work_and_is_declared_silent(self):
        """Rank 1 dies while held; rank 2 stays alive and re-polls.  The
        expired hold's answer to rank 1 goes nowhere, no work is ever
        offered to it, and only rank 1 goes silent: a held live client
        is heard from once per expiry, far inside the silence
        threshold (``failover_silence`` here, ``search_timeout`` in the
        group sub-master)."""
        silent = FT.failover_silence
        offered, declared, seen = [], [], []

        def prog(ctx):
            sim = ctx.engine
            if ctx.rank == 0:
                def handle(w, kind, data):
                    offered.append((w, round(sim.now, 2)))
                    return ("go", None) if sim.now >= 1.0 else None

                def tick(server, now):
                    last_seen = {w: t for w, _seq, t in seen}
                    for w, t in sorted(last_seen.items()):
                        if w not in dict(declared) and now - t > silent:
                            declared.append((w, round(now, 2)))
                            server.drop(w)

                # Rank 2 stops polling once served at 1.0: stop before
                # its own silence could be mistaken for a death.
                sweep_serve(ctx, handle, until=silent + FT.master_tick,
                            seen=seen, tick=tick)
                return None
            c = client(ctx)
            while True:
                kind, _data = c.call("work")
                if kind == "go":
                    return sim.now

        crash = CrashFault(rank=1, time=0.1)
        res = run(3, prog, FAST, faults=FaultPlan(events=(crash,)))
        assert [w for w, _t in declared] == [1]
        assert declared[0][1] == pytest.approx(silent, abs=FT.master_tick)
        assert max(t for w, t in offered if w == 1) <= FT.req_timeout / 2
        assert res.rank_results[2] == pytest.approx(1.0, abs=0.01)

    def test_dropped_client_is_not_answered_until_it_resends(self):
        """``drop`` forgets the hold; the client's resend is handled
        afresh (it is not in the reply cache)."""
        ready = []

        def prog(ctx):
            sim = ctx.engine
            if ctx.rank == 0:
                server = PullServer(ctx, FT, T, (0,))

                def handle(w, kind, data):
                    return ("go", None) if ready else None

                server.serve_request(ctx.comm.recv(tag=T.req), handle)
                server.drop(1)
                dropped = server.next_expiry()
                sim.sleep(0.1)
                ready.append(True)
                server.sweep(handle)  # would answer, but nothing is held
                server.serve_request(ctx.comm.recv(tag=T.req), handle)
                return dropped
            return client(ctx).call("work"), sim.now

        res = launch(2, prog)
        assert res.rank_results[0] is None
        body, t = res.rank_results[1]
        assert body == ("go", None)
        assert t == pytest.approx(FT.req_timeout, abs=0.01)

    def test_sweep_offers_held_requests_in_rank_order(self):
        offered, units = [], [1]

        def prog(ctx):
            sim = ctx.engine
            if ctx.rank == 0:
                server = PullServer(ctx, FT, T, (0,))

                def handle(w, kind, data):
                    offered.append(w)
                    if sim.now < 0.5 or not units:
                        return None
                    return ("unit", units.pop())

                for _ in range(3):
                    server.serve_request(ctx.comm.recv(tag=T.req), handle)
                sim.sleep(0.5 - sim.now)
                del offered[:]
                server.sweep(handle)
                order = offered[:]
                sim.sleep(FT.req_timeout / 2)
                server.sweep(handle)  # the other two expire
                return order
            sim.sleep(0.1 * (4 - ctx.rank))  # rank 3 asks first
            return client(ctx).call("work")

        res = launch(4, prog)
        assert res.rank_results[0] == [1, 2, 3]
        assert res.rank_results[1] == ("unit", 1)  # lowest rank wins
        assert res.rank_results[2] == res.rank_results[3] == HOLD_EXPIRED

    @pytest.mark.parametrize("newer", ["result", "work"])
    def test_newer_seq_replaces_the_hold(self, newer):
        """A client that supersedes its held poll (a sub-master with a
        result to deliver) gets an answer for the new ``seq`` only —
        at once for a result, at the new hold's own expiry for another
        poll — and none, ever, for the old one.  ``held_s`` counts both
        holds, the replaced one up to the newer request."""
        def prog(ctx):
            comm, sim = ctx.comm, ctx.engine
            if ctx.rank == 0:
                server = sweep_serve(
                    ctx, lambda w, k, d: ("ok", d) if k == "result" else None,
                    until=3.0,
                )
                return server.held_s
            comm.isend((1, 1, "work", None), dest=0, tag=T.req)
            sim.sleep(0.2)
            comm.isend((1, 2, newer, 5), dest=0, tag=T.req)
            return replies(ctx)

        res = launch(2, prog)
        (answer, t), = res.rank_results[1]
        held = res.rank_results[0][1]
        if newer == "result":
            assert (answer, t) == ((2, ("ok", 5)), 0.2)
            assert held == pytest.approx(0.2, abs=1e-4)
        else:
            assert answer == (2, HOLD_EXPIRED)
            assert t == pytest.approx(0.2 + FT.req_timeout / 2)
            assert held == pytest.approx(0.2 + FT.req_timeout / 2, abs=1e-4)

    def test_held_client_without_pings_keeps_its_master(self):
        """A server that never pings still keeps a held client's
        ``FailoverTracker`` fresh: every ``HOLD_EXPIRED`` answer comes
        from the believed master and ``match`` counts it as hearing
        from it, so three silence windows pass without a failover."""
        until = 3 * FT.failover_silence

        def prog(ctx):
            sim = ctx.engine
            if ctx.rank == 0:
                sweep_serve(ctx, lambda w, k, d: None, until=until + 1.0)
                return None
            c = client(ctx, succession=[0, 1])
            answers = 0
            while sim.now < until:
                assert c.call("work") == HOLD_EXPIRED
                answers += 1
            return answers, c.fo.master, c.fo.guessing

        res = launch(2, prog)
        answers, master, guessing = res.rank_results[1]
        assert answers == until / (FT.req_timeout / 2)
        assert (master, guessing) == (0, False)
        assert res.fault_report.events == []

    def test_done_releases_every_hold(self):
        done = []

        def prog(ctx):
            sim = ctx.engine
            if ctx.rank == 0:
                def handle(w, kind, data):
                    return ("done", None) if done else None

                def tick(server, now):
                    if now >= 0.3 and not done:
                        done.append(now)

                server = sweep_serve(ctx, handle, until=1.0, tick=tick)
                return server.next_expiry()
            sim.sleep(0.05 * ctx.rank)
            return client(ctx).call("work"), round(sim.now, 2)

        res = launch(4, prog)
        assert res.rank_results[0] is None
        times = set()
        for rank in (1, 2, 3):
            body, t = res.rank_results[rank]
            assert body == ("done", None)
            times.add(t)
        assert len(times) == 1 and times.pop() < FT.req_timeout / 2


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

    @pytest.mark.parametrize(
        "ft",
        [FTParams(), FTParams.for_cost(PAPER_COSTS)],
        ids=["lab", "paper"],
    )
    def test_heartbeat_period_is_a_quarter_of_the_silence(self, ft):
        """The first beat goes out at once, then one per
        ``failover_silence / 4`` however often ``beat`` is called;
        ``force`` ignores the period, ``name`` hands off, nobody pings
        itself.  Under paper costs that is 475 s, not the 2.5 s
        ``master_tick``."""
        period = ft.failover_silence / 4
        step = period / 8

        def prog(ctx):
            comm, sim = ctx.comm, ctx.engine
            if ctx.rank == 0:
                hb = Heartbeat(ctx, ft, T.ping)
                assert hb.period == period
                for _ in range(20):  # 2.5 periods in eighths
                    hb.beat()
                    sim.sleep(step)
                hb.beat(force=True)
                hb.name(2, [1])  # graceful hand-off names a successor
                return None
            got = []
            while True:
                msg = comm.recv_with_timeout(
                    tag=T.ping, timeout=1.5 * period
                )
                if msg is TIMEOUT:
                    return got
                got.append((msg, round(sim.now / period, 3)))

        res = launch(3, prog)
        beats = [(0, 0.0), (0, 1.0), (0, 2.0), (0, 2.5)]
        assert res.rank_results[1] == beats + [(2, 2.5)]
        assert res.rank_results[2] == beats
        assert ft.master_tick < period

    def test_serve_sweeps_after_a_request_and_at_the_expiry(self):
        """``serve`` long-polls on its own: rank 1's held poll is
        answered by the sweep that follows rank 2's request (which made
        the work), and rank 3's — with nothing for it — exactly when its
        hold expires, not at the next ``master_tick`` boundary."""
        work = []

        def prog(ctx):
            sim = ctx.engine
            if ctx.rank == 0:
                def handle(w, kind, data):
                    if kind == "put":
                        work.append(data)
                        return ("ok", None)
                    if w == 1 and work:
                        return ("unit", work.pop())
                    return None

                serve(ctx, handle, until=1.5)
                return None
            if ctx.rank == 2:
                sim.sleep(0.3)
                return client(ctx).call("put", 9)
            sim.sleep(0.01 * ctx.rank)
            return client(ctx).call("work"), round(sim.now, 4)

        res = launch(4, prog)
        assert res.rank_results[1] == (("unit", 9), 0.3)
        body, t = res.rank_results[3]
        assert body == HOLD_EXPIRED
        # held at 0.03: the ticks alone would wake at 0.55 (0.3 + tick)
        assert t == pytest.approx(0.03 + FT.req_timeout / 2, abs=1e-4)


# ----------------------------------------------------------------------
# liveness (no simulator: ``now`` is a plain float)
# ----------------------------------------------------------------------
def swept(table, now, limit):
    """``(key, quiet)`` of every key one sweep declares dead."""
    return list(table.sweep(now, limit))


class TestLivenessTable:
    def test_silence_must_exceed_the_limit(self):
        t = LivenessTable([1], 0.0)
        assert swept(t, 5.0, 5.0) == []
        assert t.alive == {1}
        assert swept(t, 5.25, 5.0) == [(1, 5.25)]
        assert (t.alive, t.dead) == (set(), {1})

    def test_sweep_visits_keys_in_sorted_order(self):
        t = LivenessTable([7, 2, 5], 0.0, dead=[3])
        t.heard(5, 1.0)
        assert swept(t, 9.0, 1.0) == [(2, 9.0), (5, 8.0), (7, 9.0)]

    def test_per_key_limit(self):
        t = LivenessTable([1, 2], 0.0)
        assert swept(t, 3.0, lambda k: 2.0 if k == 2 else 5.0) == [(2, 3.0)]

    def test_second_declare_dead_is_a_no_op(self):
        t = LivenessTable([1, 2], 0.0)
        assert t.declare_dead(1) is True
        assert t.declare_dead(1) is False
        assert (t.alive, t.dead) == ({2}, {1})
        assert swept(t, 10.0, 1.0) == [(2, 10.0)]  # 1 is not swept again

    def test_revive_restores_the_key_and_stamps_it(self):
        t = LivenessTable([1], 0.0)
        swept(t, 6.0, 5.0)
        t.revive(1, 7.0)
        assert (t.alive, t.dead) == ({1}, set())
        assert t.last_seen[1] == 7.0
        assert swept(t, 12.0, 5.0) == []
        assert swept(t, 12.5, 5.0) == [(1, 5.5)]

    def test_refresh_touches_live_keys_only(self):
        t = LivenessTable([1, 2], 0.0)
        t.declare_dead(2)
        t.refresh(4.0)
        assert t.last_seen == {1: 4.0, 2: 0.0}

    def test_retired_key_is_neither_swept_nor_dead(self):
        t = LivenessTable([1, 2], 0.0)
        t.retire(1)
        assert swept(t, 9.0, 1.0) == [(2, 9.0)]
        assert t.dead == {2}

    @pytest.mark.parametrize(
        "keys", [(4, 1, 3), (2, 0, 1)], ids=["ranks", "group-ids"]
    )
    def test_group_id_keys_behave_like_rank_keys(self, keys):
        t = LivenessTable(keys, 0.0)
        lo, mid, hi = sorted(keys)
        t.heard(mid, 3.0)
        assert swept(t, 4.5, 4.0) == [(lo, 4.5), (hi, 4.5)]
        t.revive(hi, 5.0)  # a dead key that speaks again
        assert t.alive == {mid, hi} and t.dead == {lo}
        assert swept(t, 8.5, 4.0) == [(mid, 5.5)]


#: The roles that sit on a ``PullServer`` and judge clients by silence.
ROLES = (
    "repro.parallel.flatft",
    "repro.parallel.pioblast",
    "repro.parallel.mpiblast",
    "repro.hier.groupmaster",
    "repro.hier.coordinator",
    "repro.hier.elastic",
)
LIVENESS_DICTS = {"last_seen", "group_last"}
LIVENESS_FUNCS = {"declare_dead", "revive", "check_deaths", "check_group_deaths"}


@pytest.mark.parametrize("module", ROLES)
def test_roles_keep_no_liveness_dialect_of_their_own(module):
    """Silence, declare-dead and revive live in ``LivenessTable``; a
    role keeps only what a verdict sets off, under another name."""
    path = importlib.import_module(module).__file__
    tree = ast.parse(Path(path).read_text())
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name in LIVENESS_FUNCS:
                found.append(f"def {node.name} (line {node.lineno})")
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                if isinstance(target, ast.Name) and target.id in LIVENESS_DICTS:
                    found.append(f"{target.id} = ... (line {node.lineno})")
    assert found == []


def test_flat_scheduler_never_names_its_driver():
    """``flatft`` serves both flat drivers through their output policies
    only: it imports neither driver module and holds no driver name, so
    no branch on which driver it serves can creep back in."""
    from repro.parallel import flatft

    tree = ast.parse(Path(flatft.__file__).read_text())
    drivers = ("pioblast", "mpiblast")
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [a.name for a in node.names]
        elif isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names = [node.value]
        else:
            continue
        found += [
            f"{n!r} (line {node.lineno})"
            for n in names if any(d in n for d in drivers)
        ]
    assert found == []
