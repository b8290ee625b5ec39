#!/usr/bin/env python3
"""What the simulator's message path does per message, on one workload.

    python3 tools/park_census.py --workload ft-hier-kill --seed 20050404

Runs the workload's timed region (``bench/workloads.py``, imported
read-only) in this process with counting wrappers on ``Engine.park``,
the baton locks, ``payload_nbytes`` and ``Communicator.isend`` and
prints: parks by parker label and how many of them gave the baton away
(the rest found their own wake next in the queue), messages by tag and
pull-RPC kind, ``payload_nbytes`` entries per message, and the floor
under the run's host seconds that thread switching alone sets —
baton hand-offs times the cost of one lock ping-pong between two
threads, measured here on the CPU the run is pinned to.

Parks, hand-offs and messages are pure functions of the seed, so
``--expect-parks`` / ``--expect-messages`` (exit 1 on any other value)
fail a change that alters the simulation, and
``--sizing-calls-at-most`` gates a host-time property — a sizer that
recurses per leaf, a collective that re-sizes per tree edge — on a
count instead of a timer.

    python3 tools/park_census.py --poll-bench

is the layer's micro-benchmark: one pull-RPC server and seven clients
polling it in lockstep (``work`` -> ``wait``, the conversation that
makes up four fifths of ``ft-hier-kill``'s messages) through
``simmpi.launcher.run``, no BLAST, no wrappers; prints host
microseconds per message, to be read next to the ping-pong cost, and
the function calls one message takes.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import statistics
import sys
import threading
import time
from _thread import allocate_lock
from dataclasses import dataclass, field

ROOT = pathlib.Path(__file__).resolve().parent.parent

POLL_CLIENTS = 7
POLLS_PER_CLIENT = 2400


def _import_path() -> None:
    for p in (ROOT / "src", ROOT / "bench"):
        if str(p) not in sys.path:
            sys.path.insert(0, str(p))


def pin_to_one_cpu() -> None:
    """As ``bench/run.py`` pins its repetitions."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


@dataclass
class Census:
    """What the wrappers counted over one timed region."""

    #: parker label (arguments stripped) -> parks / parks that blocked
    parks: dict[str, int] = field(default_factory=dict)
    handed: dict[str, int] = field(default_factory=dict)
    #: every baton release: rank -> rank, rank -> scheduler and back
    handoffs: int = 0
    #: ``RunResult.messages_sent`` summed over the workload's programs
    messages: int = 0
    #: (tag name, pull-RPC kind or "") -> messages injected by ``isend``
    by_kind: dict[tuple[str, str], int] = field(default_factory=dict)
    sizing_calls: int = 0
    host_s: float = 0.0

    @property
    def total_parks(self) -> int:
        return sum(self.parks.values())


class _CountingLock:
    """A baton whose releases are counted (one release = one hand-off)."""

    __slots__ = ("_lock", "_census")

    def __init__(self, census: Census) -> None:
        self._lock = allocate_lock()
        self._lock.acquire()
        self._census = census

    def acquire(self) -> bool:
        return self._lock.acquire()

    def release(self) -> None:
        self._census.handoffs += 1
        self._lock.release()


def _bump(d: dict, key) -> None:
    d[key] = d.get(key, 0) + 1


def census(workload: str, seed: int) -> Census:
    """Run ``workload``'s timed region once under the wrappers."""
    _import_path()
    import repro.simmpi.comm as comm
    import repro.simmpi.engine as engine
    import repro.simmpi.network as network
    from repro.parallel.pullrpc import GROUP, HIER, MPI_FT, PIO_FT, TAG_TABLE
    from workloads import WORKLOADS

    out = Census()
    tag_name = {v: k for k, v in TAG_TABLE.items()}
    req_tags = {c.req for c in (MPI_FT, PIO_FT, HIER, GROUP)}
    reply_tags = {c.reply for c in (MPI_FT, PIO_FT, HIER, GROUP)}
    park, isend = engine.Engine.park, comm.Communicator.isend
    sizer, held_lock = network.payload_nbytes, engine._held_lock

    def counted_park(eng, parker):
        label = engine.render_label(parker.label) or "unlabelled"
        label = label.split("(")[0]
        before = out.handoffs
        try:
            return park(eng, parker)
        finally:
            # Nobody else runs unless this park released a baton.
            _bump(out.parks, label)
            if out.handoffs != before:
                _bump(out.handed, label)

    def counted_isend(self, obj, dest, tag=0, nbytes=None):
        kind = ""
        if tag in req_tags:
            kind = obj[2]
        elif tag in reply_tags and type(obj[1]) is tuple:
            kind = obj[1][0]
        _bump(out.by_kind, (tag_name.get(tag, str(tag)), kind))
        return isend(self, obj, dest, tag, nbytes)

    def counted_sizer(obj):
        out.sizing_calls += 1
        return sizer(obj)

    wl = WORKLOADS[workload](seed)
    wl.setup()
    engine.Engine.park = counted_park
    engine._held_lock = lambda: _CountingLock(out)
    comm.Communicator.isend = counted_isend
    # A recursive sizer looks itself up in its own module: both names.
    network.payload_nbytes = comm.payload_nbytes = counted_sizer
    t0 = time.perf_counter()
    try:
        wl.run()
    finally:
        out.host_s = time.perf_counter() - t0
        engine.Engine.park = park
        engine._held_lock = held_lock
        comm.Communicator.isend = isend
        network.payload_nbytes = comm.payload_nbytes = sizer
    out.messages = sum(r.messages_sent for r in wl.run_results())
    return out


def lock_pingpong_us(rounds: int = 20_000) -> float:
    """Microseconds per hand-off between two threads that pass one
    baton back and forth the way the engine does (release the other's
    lock, acquire one's own)."""
    mine, theirs = allocate_lock(), allocate_lock()
    mine.acquire()
    theirs.acquire()

    def partner() -> None:
        for _ in range(rounds):
            theirs.acquire()
            mine.release()

    t = threading.Thread(target=partner, daemon=True)
    t.start()
    t0 = time.perf_counter()
    for _ in range(rounds):
        theirs.release()
        mine.acquire()
    dt = time.perf_counter() - t0
    t.join(timeout=10)
    return 1e6 * dt / (2 * rounds)


def report(c: Census, pingpong_us: float) -> str:
    """The census tables."""
    lines = [f"{'parker':<16} {'parks':>8} {'handed off':>11} {'stayed':>8}"]
    for label in sorted(c.parks, key=lambda k: (-c.parks[k], k)):
        n, h = c.parks[label], c.handed.get(label, 0)
        lines.append(f"{label:<16} {n:>8d} {h:>11d} {n - h:>8d}")
    handed = sum(c.handed.values())
    lines.append(
        f"{'total':<16} {c.total_parks:>8d} {handed:>11d} "
        f"{c.total_parks - handed:>8d}"
    )
    lines.append("")
    lines.append(f"{'tag':<24} {'kind':<10} {'messages':>9}")
    for (tag, kind), n in sorted(
        c.by_kind.items(), key=lambda kv: (-kv[1], kv[0])
    ):
        lines.append(f"{tag:<24} {kind or '-':<10} {n:>9d}")
    via_isend = sum(c.by_kind.values())
    lines.append(
        f"{'(send / collectives)':<24} {'-':<10} "
        f"{c.messages - via_isend:>9d}"
    )
    lines.append(f"{'total':<24} {'':<10} {c.messages:>9d}")
    lines.append("")
    per_msg = c.sizing_calls / c.messages if c.messages else 0.0
    lines.append(
        f"payload_nbytes entries: {c.sizing_calls} for {c.messages} "
        f"messages ({per_msg:.2f} per message)"
    )
    floor_s = c.handoffs * pingpong_us / 1e6
    lines.append(
        f"baton hand-offs: {c.handoffs} x {pingpong_us:.2f} us lock "
        f"ping-pong = {floor_s:.2f} s of {c.host_s:.2f} s host "
        f"(under the wrappers)"
    )
    return "\n".join(lines)


def poll_bench() -> tuple[int, float]:
    """One server, ``POLL_CLIENTS`` lockstep pollers: ``(messages,
    host seconds)`` of the ``launcher.run`` call."""
    _import_path()
    from repro.parallel.checkpoint import FailoverTracker
    from repro.parallel.config import FTParams
    from repro.parallel.pullrpc import GROUP, Heartbeat, PullClient, PullServer
    from repro.platforms import ORNL_ALTIX
    from repro.simmpi import run

    ft = FTParams()
    succession = (0,)

    def server(ctx) -> None:
        polls: dict[int, int] = {}
        beat = Heartbeat(ctx, ft, GROUP.ping)
        released = []

        def on_request(w: int, _kind: str, _data) -> tuple:
            polls[w] = polls.get(w, 0) + 1
            if polls[w] < POLLS_PER_CLIENT:
                return ("wait", ft.poll_backoff)
            released.append(w)
            return ("done", None)

        PullServer(ctx, ft, GROUP, succession).serve(
            on_tick=lambda _request, _now: beat.beat(),
            on_idle=lambda _now: len(released) == POLL_CLIENTS,
            on_request=on_request,
        )

    def program(ctx) -> None:
        if ctx.rank == 0:
            return server(ctx)
        client = PullClient(
            ctx, ft, FailoverTracker(ctx, ft, succession=succession), GROUP
        )
        while True:
            kind, data = client.call("work")
            if kind == "done":
                return None
            ctx.engine.sleep(data)

    t0 = time.perf_counter()
    res = run(1 + POLL_CLIENTS, program, ORNL_ALTIX)
    return res.messages_sent, time.perf_counter() - t0


def calls_per_message() -> float:
    """Function calls (Python and C) per message of one poll-bench run,
    counted on every thread with a profile hook."""
    calls = 0

    def hook(_frame, event, _arg) -> None:
        nonlocal calls
        if event in ("call", "c_call"):
            calls += 1

    threading.setprofile(hook)
    sys.setprofile(hook)
    try:
        messages, _host_s = poll_bench()
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    return calls / messages


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    ap.add_argument("--workload", default=None)
    ap.add_argument("--seed", type=int, default=20050404)
    ap.add_argument("--poll-bench", action="store_true",
                    help="run the lockstep poll loop instead of a workload")
    ap.add_argument("--reps", type=int, default=5,
                    help="--poll-bench repetitions (default: %(default)s)")
    ap.add_argument("--expect-parks", type=int, default=None)
    ap.add_argument("--expect-messages", type=int, default=None)
    ap.add_argument("--sizing-calls-at-most", type=int, default=None)
    args = ap.parse_args(argv)
    if args.poll_bench == (args.workload is not None):
        ap.error("give --workload W or --poll-bench")

    pin_to_one_cpu()
    pingpong_us = lock_pingpong_us()
    if args.poll_bench:
        per_msg = []
        for _ in range(args.reps):
            messages, host_s = poll_bench()
            per_msg.append(1e6 * host_s / messages)
            print(f"{messages} messages in {host_s:.3f} s: "
                  f"{per_msg[-1]:.1f} us / message")
        print(f"median {statistics.median(per_msg):.1f}, best "
              f"{min(per_msg):.1f} us / message over {args.reps} runs "
              f"(1 server + {POLL_CLIENTS} lockstep clients); lock "
              f"ping-pong {pingpong_us:.2f} us / hand-off")
        print(f"{calls_per_message():.1f} function calls / message "
              f"(one more run, under a counting profile hook)")
        return 0

    c = census(args.workload, args.seed)
    print(f"workload {args.workload}, seed {args.seed}")
    print(report(c, pingpong_us))
    failures = []
    if args.expect_parks not in (None, c.total_parks):
        failures.append(f"{c.total_parks} parks, expected {args.expect_parks}")
    if args.expect_messages not in (None, c.messages):
        failures.append(
            f"{c.messages} messages, expected {args.expect_messages}"
        )
    if (args.sizing_calls_at_most is not None
            and c.sizing_calls > args.sizing_calls_at_most):
        failures.append(f"{c.sizing_calls} payload_nbytes entries > "
                        f"{args.sizing_calls_at_most}")
    for line in failures:
        print(f"FAIL: {line}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
