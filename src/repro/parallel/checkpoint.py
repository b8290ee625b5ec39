"""Crash-consistent master checkpoint/restart + failover succession.

FAULTS.md §8 used to concede that the master was a single point of
failure: it holds the assignment state, the received result metadata and
the output layout, all in memory.  This module removes that gap with two
cooperating pieces, both driver-agnostic:

- :class:`CheckpointStore` — the master periodically pickles its
  scheduler state and writes it to the *simulated shared filesystem*
  with the crash-consistent primitive
  (:meth:`repro.simmpi.filesystem.FilesystemModel.write_atomic`:
  write-temp → checksum → atomic rename).  Snapshots are numbered and
  the last few are kept, so a reader can fall back past a snapshot that
  a torn-write or bit-flip fault corrupted — every restore validates the
  CRC-32 frame and records ``detect:checkpoint-corrupt`` for damaged
  replicas.

- :class:`FailoverTracker` — worker-side master-death detection and
  deterministic succession.  Workers track the rank they currently
  believe is master (initially 0).  Silence longer than
  ``FTParams.failover_silence`` advances the candidate to the next
  higher rank; a worker whose candidate reaches its *own* rank promotes
  itself (its :class:`~repro.parallel.pullrpc.PullClient` raises
  ``Promoted`` and the driver runs its master function).  A promoted
  master announces itself with pings, so the surviving workers converge
  on it quickly instead of each waiting out the full silence budget.
  Succession is monotone — candidates only move up — which keeps the
  protocol consensus-free and deterministic;
  the (documented) price is that an extreme straggler with a low rank
  can be succeeded and never reclaims mastership.

The recovered run's output is byte-identical to the fault-free run:
the promoted master restores the newest valid checkpoint, re-runs the
pull-RPC death sweep to rebuild liveness, re-searches only the
fragments the checkpoint had not captured, and rewrites the output file
from scratch (relayout-per-round already guarantees no stale bytes
survive).
"""

from __future__ import annotations

import pickle
from typing import Any, Callable

from repro.simmpi.faults import retry_io
from repro.simmpi.filesystem import CorruptFileError
from repro.simmpi.launcher import ProcContext

CKPT_SUFFIX = ".ckpt"

#: Fixed pickle protocol so the same run replays bit-for-bit regardless
#: of the host interpreter's default.
_PICKLE_PROTOCOL = 4


class CheckpointStore:
    """Numbered, checksummed scheduler-state snapshots on the shared fs.

    ``interval <= 0`` disables periodic saves (``maybe_save`` becomes a
    no-op) but :meth:`load_latest` still works — a promoted master always
    looks for checkpoints, it just finds none.
    """

    def __init__(
        self,
        ctx: ProcContext,
        directory: str,
        *,
        interval: float,
        io_attempts: int = 6,
        keep: int = 2,
    ) -> None:
        self.ctx = ctx
        self.fs = ctx.fs
        self.engine = ctx.engine
        self.report = ctx.fault_report
        self.tracer = ctx.cluster.tracer
        self.dir = directory.rstrip("/")
        self.interval = interval
        self.io_attempts = io_attempts
        self.keep = max(2, keep)
        self._last_save = ctx.engine.now
        existing = self._existing()
        self._next_id = (
            self._seq_of(existing[-1]) + 1 if existing else 0
        )

    # ------------------------------------------------------------------
    def _existing(self) -> list[str]:
        """Snapshot paths, oldest first (temp files excluded)."""
        return [
            p
            for p in self.fs.listdir(f"{self.dir}/")
            if p.endswith(CKPT_SUFFIX)
        ]

    @staticmethod
    def _seq_of(path: str) -> int:
        stem = path.rsplit("/", 1)[-1]
        return int(stem[len("ckpt-") : -len(CKPT_SUFFIX)])

    def _path(self, seq: int) -> str:
        return f"{self.dir}/ckpt-{seq:06d}{CKPT_SUFFIX}"

    @property
    def enabled(self) -> bool:
        return self.interval > 0

    # ------------------------------------------------------------------
    def maybe_save(self, make_state: Callable[[], Any]) -> bool:
        """Save iff the checkpoint interval has elapsed."""
        if not self.enabled:
            return False
        if self.engine.now - self._last_save < self.interval:
            return False
        self.save(make_state())
        return True

    def save(self, state: Any) -> str:
        """Crash-consistently persist one snapshot; returns its path."""
        t0 = self.engine.now
        path = self._path(self._next_id)
        payload = pickle.dumps(state, protocol=_PICKLE_PROTOCOL)
        retry_io(
            self.engine,
            lambda: self.fs.write_atomic(path, payload),
            attempts=self.io_attempts,
            report=self.report,
            what=f"write:{path}",
        )
        self._next_id += 1
        self._last_save = self.engine.now
        self.report.record(
            self.engine.now, "ckpt:save", path, len(payload)
        )
        if self.tracer is not None:
            from repro.obs.events import EV_CKPT

            self.tracer.span(
                EV_CKPT, self.ctx.rank, t0, self.engine.now,
                "save", path, len(payload),
            )
        for old in self._existing()[: -self.keep]:
            self.fs.delete(old)
        return path

    def load_latest(self) -> Any | None:
        """Newest snapshot that passes validation, or None.

        Corrupt snapshots (torn writes, bit flips — anything the CRC-32
        frame catches) are recorded as ``detect:checkpoint-corrupt`` and
        skipped in favour of the next-older replica.
        """
        for path in reversed(self._existing()):
            t0 = self.engine.now
            try:
                payload = retry_io(
                    self.engine,
                    lambda path=path: self.fs.read_atomic(path),
                    attempts=self.io_attempts,
                    report=self.report,
                    what=f"read:{path}",
                )
            except CorruptFileError:
                self.report.record(
                    self.engine.now, "detect:checkpoint-corrupt", path
                )
                continue
            state = pickle.loads(payload)
            self.report.record(
                self.engine.now, "recover:restore-checkpoint", path,
                len(payload),
            )
            if self.tracer is not None:
                from repro.obs.events import EV_CKPT

                self.tracer.span(
                    EV_CKPT, self.ctx.rank, t0, self.engine.now,
                    "restore", path, len(payload),
                )
            return state
        return None


class FailoverTracker:
    """One worker's view of who the master is (see module docstring).

    By default succession walks the whole rank space upward from 0 —
    the flat-driver rule.  The hierarchy passes an explicit
    ``succession`` list instead (a group's member ranks, or the
    coordinator candidates ``[0] + submaster ranks``): candidates then
    advance through that list in order, announcements from ranks
    outside the list are ignored, and a tracker that walks off the end
    sets :attr:`exhausted` so the caller can give up instead of
    guessing at ranks that can never serve the role.
    """

    def __init__(
        self,
        ctx: ProcContext,
        ft: Any,
        *,
        succession: list[int] | tuple[int, ...] | None = None,
    ) -> None:
        self.ctx = ctx
        self.ft = ft
        self.succession = list(succession) if succession is not None else None
        if self.succession is not None and not self.succession:
            raise ValueError("succession list must not be empty")
        self._pos = (
            {r: i for i, r in enumerate(self.succession)}
            if self.succession is not None
            else None
        )
        self._idx = 0
        self.master = (
            self.succession[0] if self.succession is not None else 0
        )
        #: True once an explicit succession list ran out of candidates.
        self.exhausted = False
        #: True while ``master`` is a silence-advanced *candidate* we
        #: have never actually heard from (vs a master that spoke).
        self.guessing = False
        self.last_heard = ctx.engine.now

    @property
    def promoted(self) -> bool:
        """True once succession has reached this worker's own rank."""
        return not self.exhausted and self.master == self.ctx.rank

    def heard(self) -> None:
        """The current master just spoke (reply, ping or fetch)."""
        self.guessing = False
        self.last_heard = self.ctx.engine.now

    def announce(self, sender: int) -> bool:
        """A ping arrived from ``sender`` claiming mastership.

        A real announcer always beats a silence-advanced *guess*: a
        worker whose candidate ticked past the eventual successor (it
        lost patience while the successor was busy searching) must fall
        back to the rank that actually promoted itself, or it would
        wait out dead intermediate ranks one silence window at a time.
        Between two *real* masters (transient split-brain) the higher
        rank wins, matching the abdication rule — so adoption cannot
        flap.  Returns True when the believed master changed (the
        caller must resend any in-flight request to the new master).
        """
        if sender == self.master:
            self.heard()
            return False
        if sender == self.ctx.rank:
            return False
        if self._pos is not None:
            if sender not in self._pos:
                return False  # not a legal successor for this role
            ahead = self._pos[sender] > self._pos.get(self.master, -1)
        else:
            ahead = sender > self.master
        if self.guessing or ahead:
            self.master = sender
            if self._pos is not None:
                self._idx = self._pos[sender]
                self.exhausted = False
            self.heard()
            return True
        return False

    def force_promote(self) -> None:
        """A graceful handoff named this rank as the next master.

        Unlike :meth:`announce` (which ignores a worker's own rank —
        pings normally carry the *sender's* claim of mastership), this
        is invoked when a departing master explicitly designates us as
        its successor, so no silence window has to elapse first.
        """
        if self._pos is not None:
            self._idx = self._pos.get(self.ctx.rank, self._idx)
        self.master = self.ctx.rank
        self.exhausted = False
        self.guessing = False
        self.last_heard = self.ctx.engine.now

    def tick(self) -> bool:
        """Call on every receive timeout; advances the candidate after
        ``failover_silence`` of total silence.  Returns True when the
        candidate changed (resend to the new one, or check
        :attr:`promoted`)."""
        now = self.ctx.engine.now
        if now - self.last_heard <= self.ft.failover_silence:
            return False
        if self.succession is not None and (
            self._idx + 1 >= len(self.succession)
        ):
            if not self.exhausted:
                self.exhausted = True
                self.ctx.fault_report.record(
                    now, "detect:succession-exhausted",
                    self.master, self.ctx.rank,
                )
            self.last_heard = now
            return False
        self.ctx.fault_report.record(
            now, "detect:master-dead", self.master, self.ctx.rank
        )
        if self.succession is None:
            self.master += 1
        else:
            self._idx += 1
            self.master = self.succession[self._idx]
        self.guessing = True
        self.last_heard = now
        return True
