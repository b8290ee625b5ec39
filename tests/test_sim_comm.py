"""Communicator: point-to-point semantics and collectives."""

import operator

import pytest

from repro.obs import Tracer, chrome_trace
from repro.obs.events import EV_SEND
from repro.simmpi import NetworkModel, PlatformSpec, run
from repro.simmpi.comm import ANY_SOURCE, ANY_TAG, TIMEOUT, Status
from repro.simmpi.engine import _CANCELLED, Engine, SimError

FAST = PlatformSpec(network=NetworkModel(latency=1e-6, bandwidth=1e9,
                                         overhead=1e-7))


def launch(n, fn):
    return run(n, fn, FAST)


class TestPointToPoint:
    def test_send_recv_payload(self):
        def prog(ctx):
            if ctx.rank == 0:
                ctx.comm.send({"x": 1}, dest=1, tag=5)
            elif ctx.rank == 1:
                st = Status()
                got = ctx.comm.recv(source=0, tag=5, status=st)
                assert got == {"x": 1}
                assert st.source == 0 and st.tag == 5

        launch(2, prog)

    def test_fifo_per_source_tag(self):
        def prog(ctx):
            if ctx.rank == 0:
                for i in range(5):
                    ctx.comm.send(i, dest=1, tag=1)
            else:
                got = [ctx.comm.recv(source=0, tag=1) for _ in range(5)]
                assert got == list(range(5))

        launch(2, prog)

    def test_tag_selectivity(self):
        def prog(ctx):
            if ctx.rank == 0:
                ctx.comm.send("a", dest=1, tag=1)
                ctx.comm.send("b", dest=1, tag=2)
            else:
                assert ctx.comm.recv(source=0, tag=2) == "b"
                assert ctx.comm.recv(source=0, tag=1) == "a"

        launch(2, prog)

    def test_any_source_any_tag(self):
        def prog(ctx):
            if ctx.rank in (1, 2):
                ctx.comm.send(ctx.rank, dest=0, tag=ctx.rank)
            elif ctx.rank == 0:
                seen = set()
                for _ in range(2):
                    st = Status()
                    v = ctx.comm.recv(source=ANY_SOURCE, tag=ANY_TAG,
                                      status=st)
                    assert v == st.source == st.tag
                    seen.add(v)
                assert seen == {1, 2}

        launch(3, prog)

    def test_recv_before_send(self):
        def prog(ctx):
            if ctx.rank == 0:
                got = ctx.comm.recv(source=1, tag=0)
                assert got == "late"
            else:
                ctx.engine.sleep(1.0)
                ctx.comm.send("late", dest=0, tag=0)

        launch(2, prog)

    def test_isend_irecv(self):
        def prog(ctx):
            if ctx.rank == 0:
                req = ctx.comm.isend("x", dest=1, tag=0)
                req.wait()
            else:
                req = ctx.comm.irecv(source=0, tag=0)
                assert req.wait() == "x"

        launch(2, prog)

    def test_isend_requests_are_one_completed_object(self):
        """Every isend is complete on return, so they share one
        ``Request``; waiting on it must leave it as it was."""
        def prog(ctx):
            if ctx.rank == 1:
                return [ctx.comm.recv(source=0, tag=0) for _ in range(2)]
            first = ctx.comm.isend("x", dest=1, tag=0)
            second = ctx.comm.isend("y", dest=1, tag=0)
            before = (first._wait_fn, first._done, first._value)
            t = ctx.engine.now
            assert first.wait() is None and second.wait() is None
            assert (first._wait_fn, first._done, first._value) == before
            return first is second, ctx.engine.now - t

        res = launch(2, prog)
        assert res.rank_results == [(True, 0.0), ["x", "y"]]

    def test_probe_leaves_message(self):
        def prog(ctx):
            if ctx.rank == 0:
                ctx.comm.send("peek", dest=1, tag=9)
            else:
                st = ctx.comm.probe(source=0, tag=9)
                assert st.tag == 9
                assert ctx.comm.recv(source=0, tag=9) == "peek"

        launch(2, prog)

    def test_large_message_takes_longer(self):
        times = {}

        def prog_for(size_key, nbytes):
            def prog(ctx):
                if ctx.rank == 0:
                    ctx.comm.send(b"x" * nbytes, dest=1, tag=0)
                else:
                    ctx.comm.recv(source=0, tag=0)
                    times[size_key] = ctx.now

            return prog

        launch(2, prog_for("small", 100))
        launch(2, prog_for("big", 10_000_000))
        assert times["big"] > times["small"]

    def test_rendezvous_blocks_sender(self):
        sender_done = {}

        def prog(ctx):
            if ctx.rank == 0:
                ctx.comm.send(b"x" * 1_000_000, dest=1, tag=0)  # > eager
                sender_done["t"] = ctx.now
            else:
                ctx.comm.recv(source=0, tag=0)

        launch(2, prog)
        net = FAST.network
        assert sender_done["t"] >= net.delivery_time(1_000_000)

    def test_negative_user_tag_rejected(self):
        def prog(ctx):
            if ctx.rank == 0:
                with pytest.raises(SimError):
                    ctx.comm.send("x", dest=1, tag=-3)
                ctx.comm.send("done", dest=1, tag=0)
            else:
                ctx.comm.recv(source=0, tag=0)

        launch(2, prog)

    def test_bad_dest_rejected(self):
        def prog(ctx):
            with pytest.raises(SimError):
                ctx.comm.send("x", dest=99, tag=0)

        launch(1, prog)


class TestCollectives:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13])
    def test_bcast_all_sizes(self, n):
        def prog(ctx):
            data = {"v": 42} if ctx.rank == 0 else None
            out = ctx.comm.bcast(data, root=0)
            assert out == {"v": 42}

        launch(n, prog)

    @pytest.mark.parametrize("root", [0, 1, 3])
    def test_bcast_nonzero_root(self, root):
        def prog(ctx):
            data = "payload" if ctx.rank == root else None
            assert ctx.comm.bcast(data, root=root) == "payload"

        launch(5, prog)

    @pytest.mark.parametrize("n", [1, 2, 4, 7])
    def test_gather(self, n):
        def prog(ctx):
            out = ctx.comm.gather(ctx.rank * 10, root=0)
            if ctx.rank == 0:
                assert out == [r * 10 for r in range(ctx.size)]
            else:
                assert out is None

        launch(n, prog)

    def test_gatherv(self):
        def prog(ctx):
            out = ctx.comm.gatherv([ctx.rank] * ctx.rank, root=0)
            if ctx.rank == 0:
                assert out == [[r] * r for r in range(ctx.size)]

        launch(5, prog)

    def test_scatter(self):
        def prog(ctx):
            objs = [f"item{r}" for r in range(ctx.size)] if ctx.rank == 0 else None
            assert ctx.comm.scatter(objs, root=0) == f"item{ctx.rank}"

        launch(6, prog)

    def test_allgather(self):
        def prog(ctx):
            out = ctx.comm.allgather(ctx.rank**2)
            assert out == [r**2 for r in range(ctx.size)]

        launch(5, prog)

    def test_reduce_and_allreduce(self):
        def prog(ctx):
            s = ctx.comm.reduce(ctx.rank + 1, op=operator.add, root=0)
            if ctx.rank == 0:
                assert s == sum(range(1, ctx.size + 1))
            total = ctx.comm.allreduce(ctx.rank + 1, op=operator.add)
            assert total == sum(range(1, ctx.size + 1))

        launch(6, prog)

    def test_alltoall(self):
        def prog(ctx):
            objs = [(ctx.rank, r) for r in range(ctx.size)]
            out = ctx.comm.alltoall(objs)
            assert out == [(r, ctx.rank) for r in range(ctx.size)]

        launch(4, prog)

    def test_barrier_synchronizes(self):
        def prog(ctx):
            ctx.engine.sleep(float(ctx.rank))
            ctx.comm.barrier()
            assert ctx.now >= ctx.size - 1

        launch(5, prog)

    def test_mixed_collectives_in_order(self):
        def prog(ctx):
            a = ctx.comm.bcast(ctx.rank if ctx.rank == 0 else None, root=0)
            b = ctx.comm.gather(a + ctx.rank, root=0)
            ctx.comm.barrier()
            c = ctx.comm.allgather(ctx.rank)
            assert c == list(range(ctx.size))
            if ctx.rank == 0:
                assert b == list(range(ctx.size))

        launch(7, prog)

    def test_collectives_deterministic_makespan(self):
        def prog(ctx):
            ctx.comm.bcast(b"x" * 10000 if ctx.rank == 0 else None, root=0)
            ctx.comm.barrier()

        r1 = launch(8, prog)
        r2 = launch(8, prog)
        assert r1.makespan == r2.makespan > 0


# Zero software overhead, a 0.5 s wire and no per-byte time: a message
# sent at virtual time t arrives at exactly t + 0.5, so a receive
# deadline can be made to coincide with an arrival to the last bit.
EXACT = PlatformSpec(network=NetworkModel(
    latency=0.5, bandwidth=float("inf"), overhead=0.0))


class TestCollectivesCarryTheirSize:
    """A tree collective sizes a payload where it first goes on the
    wire and hands ``nbytes`` down the tree.  The sizes are a fixed
    point: every edge must carry what ``payload_nbytes`` of the object
    on that edge says."""

    PAYLOAD = (7, [b"abcd", ("q1", 2.5)], {"k": None})
    OPS = {
        "bcast": lambda comm, root, x: comm.bcast(x, root=root),
        "gather": lambda comm, root, x: comm.gather(
            (comm.rank, x), root=root),
        "allgather": lambda comm, root, x: comm.allgather((comm.rank, x)),
        "reduce": lambda comm, root, x: comm.reduce(
            [comm.rank], op=operator.add, root=root),
        "barrier": lambda comm, root, x: comm.barrier(),
    }

    def _run(self, n, root, op):
        def prog(ctx):
            x = self.PAYLOAD if ctx.rank == root else None
            return self.OPS[op](ctx.comm, root, x)

        tracer = Tracer()
        return run(n, prog, FAST, tracer=tracer), tracer

    @pytest.mark.parametrize("op", sorted(OPS))
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 33])
    def test_every_edge_is_sized_as_what_it_carries(
        self, n, op, monkeypatch
    ):
        import repro.simmpi.comm as comm_module
        from repro.simmpi.network import payload_nbytes

        for root in {0, n - 1}:
            carried = {}
            sized = []
            sendc = comm_module.Communicator._sendc

            def recording(self, obj, dest, tag, nbytes=None):
                # dicts on gather edges are merged in place later on:
                # size them now, as the sender sees them
                carried[self.rank, dest, tag] = payload_nbytes(obj)
                return sendc(self, obj, dest, tag, nbytes)

            def counting(obj):
                sized.append(obj)
                return payload_nbytes(obj)

            with monkeypatch.context() as m:
                m.setattr(comm_module.Communicator, "_sendc", recording)
                m.setattr(comm_module, "payload_nbytes", counting)
                res, tracer = self._run(n, root, op)
            sends = {
                (e.rank, e.args[0], e.args[1]): e.args[2]
                for e in tracer.by_kind(EV_SEND)
            }
            assert sends == carried
            assert len(sends) == res.messages_sent
            # once where the payload first goes on the wire, never per edge
            gathers = op in ("gather", "allgather", "reduce", "barrier")
            bcasts = op in ("bcast", "allgather", "barrier")
            assert len(sized) == (n - 1) * gathers + (n > 1) * bcasts

            with monkeypatch.context() as m:
                m.setattr(
                    comm_module.Communicator, "_sendc",
                    lambda self, obj, dest, tag, nbytes=None:
                        self._send_internal(obj, dest, tag),
                )
                per_edge, _ = self._run(n, root, op)
            assert res.makespan == per_edge.makespan
            assert res.bytes_sent == per_edge.bytes_sent
            assert res.rank_results == per_edge.rank_results


class TestDeliveryAndTimeoutEvents:
    """Deliveries and receive timeouts are inline-safe engine events;
    two due at the same instant resolve in seq (= scheduling) order."""

    def test_same_instant_message_wins_when_scheduled_first(self):
        def prog(ctx):
            if ctx.rank == 1:
                ctx.comm.send(None, dest=0, tag=5)  # t=0, arrives 0.5
                return None
            ctx.engine.sleep(0.25)
            # deadline 0.5, scheduled after the delivery
            got = ctx.comm.recv_with_timeout(tag=5, timeout=0.25)
            return got, ctx.engine.now

        assert run(2, prog, EXACT).rank_results[0] == (None, 0.5)

    def test_same_instant_timeout_wins_when_scheduled_first(self):
        def prog(ctx):
            if ctx.rank == 1:
                ctx.comm.send("late", dest=0, tag=5)  # scheduled second
                return None
            # rank 0 runs first: deadline 0.5 is scheduled before the
            # delivery that is due at the same instant
            first = ctx.comm.recv_with_timeout(tag=5, timeout=0.5)
            t_first = ctx.engine.now
            # the message was queued at that same instant
            second = ctx.comm.recv_with_timeout(tag=5, timeout=1.0)
            return first, t_first, second, ctx.engine.now

        got = run(2, prog, EXACT).rank_results[0]
        assert got == (TIMEOUT, 0.5, "late", 0.5)

    def test_cancel_of_fired_timeout_does_not_drift(self):
        """The message wins the same-instant race, the timeout pops as
        a no-op, and only then does the receiver cancel it: that cancel
        must not count an event that is in no queue."""
        rounds = 300
        worst = []

        def queued_cancelled(eng):
            return sum(1 for _t, _seq, ev in [*eng._queue, *eng._ready]
                       if ev.state == _CANCELLED)

        def prog(ctx):
            eng = ctx.engine
            for k in range(rounds):
                if ctx.rank == 1:
                    eng.sleep_until(float(k))
                    ctx.comm.send(None, dest=0, tag=5)
                else:
                    eng.sleep_until(k + 0.25)
                    got = ctx.comm.recv_with_timeout(tag=5, timeout=0.25)
                    assert got is None and eng.now == k + 0.5
                    worst.append(
                        eng._cancelled_pending - queued_cancelled(eng)
                    )

        run(2, prog, EXACT)
        assert len(worst) == rounds and max(worst) <= 0

    def test_pingpong_needs_the_scheduler_thread_O_ranks_times(
        self, monkeypatch
    ):
        resumed = []
        original = Engine._run_thread

        def counting(self, rt):
            resumed.append(rt.rank)
            return original(self, rt)

        monkeypatch.setattr(Engine, "_run_thread", counting)
        n = 1000

        def prog(ctx):
            peer = 1 - ctx.rank
            for i in range(n):
                if ctx.rank == 0:
                    ctx.comm.send(i, dest=peer, tag=1)
                    assert ctx.comm.recv(source=peer, tag=2) == i
                else:
                    assert ctx.comm.recv(source=peer, tag=1) == i
                    ctx.comm.send(i, dest=peer, tag=2)

        res = launch(2, prog)
        assert res.messages_sent == 2 * n
        # one start per rank plus the tail after the first rank exits;
        # the parent commit resumed the scheduler once per message
        assert len(resumed) <= 4, resumed


class TestLabelsRenderLazily:
    """Parker labels are (format, *args) tuples until somebody reads
    them; what is read must be the text the f-strings used to build."""

    def test_deadlock_message_text(self):
        def prog(ctx):
            if ctx.rank == 1:
                ctx.comm.recv(source=0, tag=12)
            elif ctx.rank == 2:
                ctx.comm.probe(tag=3)

        with pytest.raises(SimError) as ei:
            launch(3, prog)
        lines = str(ei.value).splitlines()
        assert lines == [
            "deadlock: ranks [1, 2] blocked with empty event queue",
            "  rank 1 parked on recv(src=0, tag=12)",
            "  rank 2 parked on probe(src=-1, tag=3)",
        ]

    def test_exported_trace_wait_names(self):
        big = b"x" * (FAST.network.eager_threshold + 1)

        def prog(ctx):
            if ctx.rank == 0:
                got = ctx.comm.recv_with_timeout(tag=41, timeout=0.001)
                assert got is TIMEOUT
                assert ctx.comm.irecv(source=1, tag=7).wait() == big
                ctx.fs.write("f", 0, b"y" * 4096)
            else:
                ctx.engine.sleep(0.01)
                ctx.comm.send(big, dest=0, tag=7)

        plat = PlatformSpec(network=FAST.network, shared_fs_kind="nfs")
        tracer = Tracer()
        res = run(2, prog, plat, tracer=tracer)
        waits = {e.name for e in res.events if e.kind == "wait"}
        assert waits == {
            "sleep",
            "recv_timeout(src=-1, tag=41)",
            "irecv(src=1, tag=7)",
            "send(dest=0, tag=7, rendezvous)",
            "nfs:transfer",
        }
        exported = {
            ev["name"]
            for ev in chrome_trace(res.events, res.nprocs)["traceEvents"]
            if ev.get("cat") == "wait"
        }
        assert exported == waits
