"""Discrete-event engine: clock, parkers, determinism, failure modes."""

import sys
import threading

import pytest

from repro.simmpi.engine import Engine, ProcessFailure, RankKilled, SimError


def run_bounded(eng, seconds=20.0):
    """``eng.run()`` under a watchdog: a lost baton must fail the test,
    not wedge the suite (pytest-timeout is not a dependency)."""
    box = {}

    def target():
        try:
            box["value"] = eng.run()
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            box["exc"] = exc

    t = threading.Thread(target=target, daemon=True)
    t.start()
    t.join(seconds)
    if t.is_alive():
        pytest.fail(f"Engine.run() still running after {seconds} s")
    if "exc" in box:
        raise box["exc"]
    return box["value"]


class TestClock:
    def test_sleep_advances_virtual_time(self):
        eng = Engine()
        seen = {}

        def prog():
            eng.sleep(1.5)
            seen["t1"] = eng.now
            eng.sleep(0.5)
            seen["t2"] = eng.now

        eng.spawn(prog, 0)
        makespan = eng.run()
        assert seen == {"t1": 1.5, "t2": 2.0}
        assert makespan == 2.0

    def test_zero_sleep_allowed(self):
        eng = Engine()
        eng.spawn(lambda: eng.sleep(0.0), 0)
        assert eng.run() == 0.0

    def test_negative_sleep_rejected(self):
        eng = Engine()
        boom = {}

        def prog():
            try:
                eng.sleep(-1)
            except SimError:
                boom["ok"] = True

        eng.spawn(prog, 0)
        eng.run()
        assert boom["ok"]

    def test_parallel_sleeps_overlap(self):
        eng = Engine()

        def prog():
            eng.sleep(3.0)

        for r in range(5):
            eng.spawn(prog, r)
        assert eng.run() == 3.0

    def test_interleaving_order(self):
        eng = Engine()
        order = []

        def prog(rank, delay):
            def body():
                eng.sleep(delay)
                order.append(rank)

            return body

        eng.spawn(prog(0, 2.0), 0)
        eng.spawn(prog(1, 1.0), 1)
        eng.spawn(prog(2, 3.0), 2)
        eng.run()
        assert order == [1, 0, 2]


class TestParkers:
    def test_unpark_delivers_value(self):
        eng = Engine()
        got = {}

        def waiter():
            p = eng.make_parker()
            waiter.parker = p
            got["value"] = eng.park(p)
            got["t"] = eng.now

        def waker():
            eng.sleep(0.1)  # let waiter park first
            eng.unpark_at(waiter.parker, eng.now + 1.0, "hello")

        eng.spawn(waiter, 0)
        eng.spawn(waker, 1)
        eng.run()
        assert got == {"value": "hello", "t": 1.1}

    def test_pre_posted_parker_returns_immediately(self):
        """A parker woken before park() is called must not block (the
        pre-posted receive case)."""
        eng = Engine()
        got = {}

        def prog():
            p = eng.make_parker()
            eng.unpark_at(p, eng.now + 0.5, 42)
            eng.sleep(2.0)  # wake fires while we are busy elsewhere
            got["v"] = eng.park(p)
            got["t"] = eng.now

        eng.spawn(prog, 0)
        eng.run()
        assert got == {"v": 42, "t": 2.0}

    def test_cannot_park_on_foreign_parker(self):
        eng = Engine()
        holder = {}
        errs = {}

        def p0():
            holder["p"] = eng.make_parker()
            eng.sleep(1.0)

        def p1():
            eng.sleep(0.1)
            try:
                eng.park(holder["p"])
            except SimError:
                errs["ok"] = True

        eng.spawn(p0, 0)
        eng.spawn(p1, 1)
        eng.run()
        assert errs["ok"]


class TestDeterminism:
    def test_same_program_same_timings(self):
        def build():
            eng = Engine()
            trace = []

            def prog(rank):
                def body():
                    for i in range(3):
                        eng.sleep(0.1 * (rank + 1))
                        trace.append((round(eng.now, 6), rank))

                return body

            for r in range(4):
                eng.spawn(prog(r), r)
            eng.run()
            return trace

        assert build() == build()


class TestFailures:
    def test_exception_propagates_with_rank(self):
        eng = Engine()

        def bad():
            eng.sleep(1.0)
            raise ValueError("boom")

        eng.spawn(bad, 3)
        with pytest.raises(ProcessFailure) as ei:
            eng.run()
        assert ei.value.rank == 3
        assert isinstance(ei.value.original, ValueError)

    def test_deadlock_detected(self):
        eng = Engine()

        def stuck():
            eng.park(eng.make_parker())  # nobody will wake us

        eng.spawn(stuck, 0)
        with pytest.raises(SimError, match="deadlock"):
            eng.run()

    def test_cannot_run_twice(self):
        eng = Engine()
        eng.spawn(lambda: None, 0)
        eng.run()
        with pytest.raises(SimError):
            eng.run()

    def test_cannot_spawn_after_run(self):
        eng = Engine()
        eng.spawn(lambda: None, 0)
        eng.run()
        with pytest.raises(SimError):
            eng.spawn(lambda: None, 1)

    def test_blocking_outside_rank_thread_rejected(self):
        eng = Engine()
        with pytest.raises(SimError):
            eng.sleep(1.0)


class TestScheduledActions:
    def test_schedule_and_cancel(self):
        eng = Engine()
        fired = []

        def prog():
            ev = eng.schedule(5.0, lambda: fired.append("a"))
            eng.schedule(6.0, lambda: fired.append("b"))
            eng.cancel(ev)
            eng.sleep(10.0)

        eng.spawn(prog, 0)
        eng.run()
        assert fired == ["b"]

    def test_past_scheduling_rejected(self):
        eng = Engine()
        errs = {}

        def prog():
            eng.sleep(2.0)
            try:
                eng.schedule(1.0, lambda: None)
            except SimError:
                errs["ok"] = True

        eng.spawn(prog, 0)
        eng.run()
        assert errs["ok"]


class TestEventKinds:
    """Wakes and inline-safe actions run on whichever thread holds the
    baton; scheduler-only actions run on the thread that called run()."""

    def test_inline_action_runs_on_the_draining_rank(self):
        eng = Engine()
        ran_on = []

        def prog():
            eng.schedule_inline(
                1.0, lambda: ran_on.append(threading.current_thread().name)
            )
            eng.sleep(2.0)

        eng.spawn(prog, 0)
        assert run_bounded(eng) == 2.0
        assert ran_on == ["simrank-0"]

    def test_scheduled_action_runs_on_the_scheduler_thread(self):
        eng = Engine()
        ran_on = []

        def prog():
            eng.schedule(1.0, lambda: ran_on.append(threading.current_thread()))
            eng.sleep(2.0)

        eng.spawn(prog, 0)
        eng.run()
        assert ran_on == [threading.current_thread()]

    def test_kill_due_during_drain_runs_on_scheduler_thread(self):
        eng = Engine()
        killed_on = []
        after = []
        eng.on_rank_killed = lambda rank, t: killed_on.append(
            (rank, t, threading.current_thread())
        )

        def survivor():
            # Parks at t=0.5 with the kill (t=1.0) globally next: the
            # drain must leave it to the scheduler thread.
            eng.sleep(0.5)
            eng.sleep(1.0)
            after.append(eng.now)

        def victim():
            eng.sleep(5.0)
            after.append("victim survived")

        eng.spawn(survivor, 0)
        eng.spawn(victim, 1)
        eng.kill_rank_at(1, 1.0)
        eng.run()  # on this thread: it is the scheduler thread
        assert killed_on == [(1, 1.0, threading.current_thread())]
        assert after == [1.5]
        assert eng.dead_ranks == {1}

    def test_inline_action_exception_aborts_run(self):
        eng = Engine()
        after = []

        def boom():
            raise ValueError("inline boom")

        def prog():
            eng.schedule_inline(1.0, boom)
            eng.sleep(2.0)
            after.append("resumed")

        eng.spawn(prog, 0)
        eng.spawn(lambda: eng.sleep(3.0), 1)
        with pytest.raises(ValueError, match="inline boom") as ei:
            run_bounded(eng)
        # the action's own exception, not the draining rank's failure
        assert not isinstance(ei.value, SimError)
        assert after == []

    def test_action_args_are_data_on_the_event(self):
        eng = Engine()
        got = []

        def prog():
            eng.schedule(1.0, got.append, "sched")
            eng.schedule_inline(1.0, got.append, "inline")
            eng.sleep(2.0)

        eng.spawn(prog, 0)
        eng.run()
        assert got == ["sched", "inline"]

    def test_cancel_after_fire_is_noop(self):
        eng = Engine()

        def prog():
            ev = eng.schedule_inline(1.0, lambda: None)
            eng.sleep(2.0)
            eng.cancel(ev)
            assert eng._cancelled_pending == 0

        eng.spawn(prog, 0)
        eng.run()


class TestOneInterpretationLoop:
    """``Engine._interpret`` serves the scheduler thread and every
    draining rank; these are the places where a fused loop can differ
    from popping and firing one event per call."""

    @staticmethod
    def _compaction_run(schedule_canceller):
        """Rank 0 queues 200 no-op timeouts; an action at t=1 queues
        three same-instant events, then cancels enough of the timeouts
        for ``cancel`` to compact both queues; rank 1 is parked across
        t=1.  Returns (which thread cancelled, what fired when, clock)."""
        eng = Engine()
        fired, ran_on = [], []

        def canceller(doomed, ready_doomed):
            ran_on.append(threading.current_thread().name)
            now = [eng.schedule_inline(eng.now, fired.append, ("now", k))
                   for k in range(3)]
            eng.cancel(now[ready_doomed])
            for ev in doomed:
                eng.cancel(ev)
            assert eng._cancelled_pending < len(doomed)  # compacted

        def rank0():
            timeouts = [
                eng.schedule_inline(2.0 + (k * 7 % 200) / 100.0,
                                    fired.append, ("late", k))
                for k in range(200)
            ]
            schedule_canceller(eng)(1.0, canceller, timeouts[:150], 1)
            eng.sleep(5.0)
            fired.append(("rank0", eng.now))

        def rank1():
            eng.sleep(0.5)
            eng.sleep(3.0)  # drains t=1 .. t=3.5 on its way to block
            fired.append(("rank1", eng.now))
            eng.sleep(10.0)

        eng.spawn(rank0, 0)
        eng.spawn(rank1, 1)
        end = run_bounded(eng)
        return ran_on, fired, end

    def test_compaction_during_another_ranks_drain(self):
        """``cancel`` compacts the queues while a rank is inside the
        loop that pops them: the loop must see the compacted queues (a
        stale list would spin, or fire cancelled events), and order and
        clock must equal the scheduler thread doing the same thing."""
        inline = self._compaction_run(lambda eng: eng.schedule_inline)
        sched = self._compaction_run(lambda eng: eng.schedule)
        assert inline[0] == ["simrank-1"]
        assert sched[0][0] not in ("simrank-0", "simrank-1")
        assert inline[1:] == sched[1:]
        _ran_on, fired, end = inline
        assert end == 13.5
        assert [f for f in fired if f[0] == "now"] == [("now", 0), ("now", 2)]
        late = [k for what, k in fired if what == "late"]
        assert sorted(late) == list(range(150, 200))
        assert late == sorted(late, key=lambda k: (k * 7 % 200, k))

    def test_rank_killed_inside_sleep_until_unwinds(self):
        eng = Engine()
        unwound = []

        def victim():
            try:
                eng.sleep_until(5.0)
            except RankKilled as exc:
                unwound.append((exc.rank, eng.now))
                raise
            unwound.append("survived")

        eng.spawn(victim, 0)
        eng.spawn(lambda: eng.sleep_until(3.0), 1)
        eng.kill_rank_at(0, 1.0)
        assert run_bounded(eng) == 5.0  # the dropped wake still pops
        assert unwound == [(0, 1.0)]
        assert eng.dead_ranks == {0}

    def test_sleep_into_the_past_queues_nothing(self):
        eng = Engine()
        seen = {}

        def prog():
            eng.sleep(1.0)
            before = (len(eng._queue), len(eng._ready), eng._seq)
            with pytest.raises(SimError, match="cannot schedule in the past"):
                eng.sleep_until(0.5)
            seen["untouched"] = before == (
                len(eng._queue), len(eng._ready), eng._seq
            )
            eng.sleep_until(eng.now)  # the present is not the past
            seen["t"] = eng.now

        eng.spawn(prog, 0)
        run_bounded(eng)
        assert seen == {"untouched": True, "t": 1.0}

    def test_sleep_outside_a_rank_thread_rejected(self):
        with pytest.raises(SimError, match="outside a rank thread"):
            Engine().sleep_until(1.0)

    def test_wake_pre_posted_by_another_ranks_drain(self):
        """The owner is parked on a *different* parker when its wake
        fires in somebody else's drain: the value waits, and the later
        ``park`` returns it at once — no event queued, no time passed."""
        eng = Engine()
        got = {}
        fired_on = []

        def prog():
            p = eng.make_parker("mine")
            eng.unpark_at(p, 1.0, "posted")
            eng.sleep(2.0)
            seq = eng._seq
            got["v"], got["t"] = eng.park(p), eng.now
            got["queued"] = eng._seq - seq

        def other():
            eng.sleep(0.5)
            eng.schedule_inline(
                1.0, lambda: fired_on.append(threading.current_thread().name)
            )
            eng.sleep(1.0)  # drains t=1.0: rank 0's wake, then the action

        eng.spawn(prog, 0)
        eng.spawn(other, 1)
        run_bounded(eng)
        assert fired_on == ["simrank-1"]
        assert got == {"v": "posted", "t": 2.0, "queued": 0}


class TestBatonInvariants:
    def test_exactly_one_thread_runs_under_stress(self):
        """More rank threads than cores, interpreter switches forced
        every microsecond: if the lock baton ever let two ranks run at
        once, the unguarded occupancy counter would read 2."""
        eng = Engine()
        inside = [0]
        overlaps = []
        turns = [0]

        def prog(rank):
            def body():
                for i in range(150):
                    inside[0] += 1
                    if inside[0] != 1:
                        overlaps.append((rank, i))
                    turns[0] += sum(range(50))  # a few switch intervals
                    inside[0] -= 1
                    eng.sleep(0.001 * (1 + (rank + i) % 3))
            return body

        for r in range(24):
            eng.spawn(prog(r), r)
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            run_bounded(eng, 60.0)
        finally:
            sys.setswitchinterval(old)
        assert overlaps == []
        assert turns[0] == 24 * 150 * sum(range(50))

    def test_resuming_a_rank_not_marked_running(self):
        eng = Engine()
        ranks = {}

        def prog():
            ranks[0] = eng._active
            eng.sleep(10.0)

        def rogue_resume():
            # Release a blocked rank's baton without making it the
            # active, running rank; wait for it to give the baton back.
            ranks[0].baton.release()
            eng._sched_baton.acquire()

        eng.spawn(prog, 0)
        eng.schedule(1.0, rogue_resume)
        with pytest.raises(SimError, match="resumed without the baton"):
            run_bounded(eng)

    def test_scheduler_resumed_while_a_rank_is_active(self):
        eng = Engine()
        gate = threading.Event()

        def rogue():
            # Wake the scheduler without parking: two baton holders.
            eng._sched_baton.release()
            gate.wait(10.0)

        eng.spawn(rogue, 0)
        try:
            with pytest.raises(SimError, match="scheduler resumed while"):
                run_bounded(eng)
        finally:
            gate.set()

    def test_hand_over_from_an_inline_action_rejected(self):
        eng = Engine()

        def prog():
            # kill_rank resumes its victim, so it is scheduler-only;
            # smuggled in as inline-safe it trips the hand-over check.
            eng.schedule_inline(1.0, eng.kill_rank, 0)
            eng.sleep(2.0)

        eng.spawn(lambda: eng.sleep(5.0), 0)
        eng.spawn(prog, 1)
        with pytest.raises(SimError, match="cannot resume rank 0"):
            run_bounded(eng)

    def test_double_unpark_rejected(self):
        eng = Engine()

        def prog():
            p = eng.make_parker("twice")
            eng.unpark_at(p, 1.0)
            eng.unpark_at(p, 1.0)
            eng.park(p)
            eng.sleep(1.0)

        eng.spawn(prog, 0)
        with pytest.raises(SimError, match="parker woken twice"):
            run_bounded(eng)

    def test_blocking_in_scheduler_action_rejected(self):
        eng = Engine()
        eng.spawn(lambda: eng.sleep(2.0), 0)
        eng.schedule(1.0, eng.sleep, 1.0)
        with pytest.raises(SimError, match="outside a rank thread"):
            run_bounded(eng)

    def test_failing_rank_releases_the_baton(self):
        eng = Engine()

        def bad():
            eng.sleep(1.0)
            raise KeyError("lost")

        eng.spawn(bad, 0)
        eng.spawn(lambda: eng.sleep(5.0), 1)
        with pytest.raises(ProcessFailure) as ei:
            run_bounded(eng)
        assert ei.value.rank == 0
        assert isinstance(ei.value.original, KeyError)
        assert "KeyError" in ei.value.tb and "in bad" in ei.value.tb

    def test_killed_rank_unwinds_and_releases_the_baton(self):
        eng = Engine()
        unwound = []

        def victim():
            try:
                eng.sleep(5.0)
            except RankKilled:
                unwound.append(eng.now)
                raise

        eng.spawn(victim, 0)
        eng.spawn(lambda: eng.sleep(3.0), 1)
        eng.kill_rank_at(0, 1.0)
        run_bounded(eng)
        assert unwound == [1.0]
        assert eng.dead_ranks == {0}


class TestOneMallocArena:
    """Rank threads share one glibc arena: the helper calls ``mallopt``
    once per process and does nothing where libc has none."""

    @pytest.fixture
    def libc(self, monkeypatch):
        import repro.simmpi.engine as engine_mod

        calls = []

        class Libc:
            def mallopt(self, param, value):
                calls.append((param, value))
                return 1

        loaded = []

        def cdll(name):
            loaded.append(name)
            return Libc()

        monkeypatch.setattr(engine_mod.ctypes, "CDLL", cdll)
        engine_mod.one_malloc_arena.cache_clear()
        yield engine_mod, Libc, calls, loaded
        engine_mod.one_malloc_arena.cache_clear()

    def test_mallopt_once_per_process(self, libc):
        engine_mod, _libc, calls, loaded = libc
        for _ in range(3):
            eng = Engine()
            eng.spawn(lambda: eng.sleep(1.0), 0)
            assert run_bounded(eng) == 1.0
        engine_mod.one_malloc_arena()
        assert calls == [(-8, 1)]  # M_ARENA_MAX = 1
        assert loaded == [None]

    def test_no_mallopt_is_a_silent_no_op(self, libc, monkeypatch):
        engine_mod, Libc, calls, _loaded = libc
        monkeypatch.delattr(Libc, "mallopt")
        eng = Engine()
        eng.spawn(lambda: eng.sleep(1.0), 0)
        assert run_bounded(eng) == 1.0
        assert calls == []

    def test_no_libc_is_a_silent_no_op(self, libc, monkeypatch):
        engine_mod, _libc, calls, _loaded = libc

        def missing(name):
            raise OSError("no such library")

        monkeypatch.setattr(engine_mod.ctypes, "CDLL", missing)
        engine_mod.one_malloc_arena()
        assert calls == []
