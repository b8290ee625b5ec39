"""Per-rank metrics registry: counters, gauges, and histograms.

A :class:`MetricsRegistry` is created for every cluster (it is cheap —
plain dict arithmetic on the paths that already pay for a simulated
operation) and aggregated into ``RunResult.metrics`` as a nested-dict
snapshot, which is what the metrics exporter serializes for
``BENCH_*.json`` files and what :mod:`repro.obs.compare` diffs.

Rank ``None`` addresses the run-global bucket (used for events with no
owning rank, e.g. fault-report entries recorded from scheduler actions).

Histograms use geometric (power-of-two) buckets so that e.g. message
and I/O sizes summarize meaningfully without configuration; they also
track count/sum/min/max exactly.
"""

from __future__ import annotations

import math

#: Inclusive clamp for histogram bucket exponents (2**-20 s ≈ 1 µs
#: granularity at the bottom; 2**40 ≈ 1 TB at the top).
_EXP_LO = -20
_EXP_HI = 40


class Histogram:
    """Exact count/sum/min/max plus power-of-two bucket counts."""

    __slots__ = ("count", "total", "min", "max", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.buckets: dict[int, int] = {}

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if value <= 0:
            exp = _EXP_LO
        elif type(value) is int:
            # ceil(log2(v)) of a positive int, without floats (sizes)
            exp = (value - 1).bit_length()
            if exp > _EXP_HI:
                exp = _EXP_HI
        else:
            exp = min(max(math.ceil(math.log2(value)), _EXP_LO), _EXP_HI)
        self.buckets[exp] = self.buckets.get(exp, 0) + 1

    def snapshot(self) -> dict:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "buckets": {f"2^{e}": n for e, n in sorted(self.buckets.items())},
        }


class MetricsRegistry:
    """Counters/gauges/histograms for ``nranks`` ranks plus a global bucket."""

    __slots__ = ("nranks", "counters", "_gauges", "_hists")

    def __init__(self, nranks: int) -> None:
        self.nranks = nranks
        #: ``counters[rank]`` is that rank's counter dict (index
        #: ``nranks``: the global bucket).  Per-message code updates it
        #: in place — ``c[k] = c.get(k, 0.0) + v``, what :meth:`inc`
        #: does — instead of paying a call per counter.
        self.counters: list[dict[str, float]] = [
            {} for _ in range(nranks + 1)
        ]
        self._gauges: list[dict[str, float]] = [{} for _ in range(nranks + 1)]
        self._hists: list[dict[str, Histogram]] = [
            {} for _ in range(nranks + 1)
        ]

    def _slot(self, rank: int | None) -> int:
        return self.nranks if rank is None else rank

    # -- hot-path updates -------------------------------------------------
    def inc(self, rank: int | None, name: str, value: float = 1.0) -> None:
        c = self.counters[self._slot(rank)]
        c[name] = c.get(name, 0.0) + value

    def set_gauge(self, rank: int | None, name: str, value: float) -> None:
        self._gauges[self._slot(rank)][name] = value

    def observe(self, rank: int | None, name: str, value: float) -> None:
        h = self._hists[self._slot(rank)]
        hist = h.get(name)
        if hist is None:
            hist = h[name] = Histogram()
        hist.observe(value)

    # -- reads ------------------------------------------------------------
    def counter(self, rank: int | None, name: str) -> float:
        return self.counters[self._slot(rank)].get(name, 0.0)

    def counter_total(self, name: str) -> float:
        """Sum of a counter over all ranks (excluding the global bucket)."""
        return sum(c.get(name, 0.0) for c in self.counters[: self.nranks])

    def names(self) -> list[str]:
        seen: set[str] = set()
        for c in self.counters:
            seen.update(c)
        for g in self._gauges:
            seen.update(g)
        for h in self._hists:
            seen.update(h)
        return sorted(seen)

    def snapshot(self) -> dict:
        """Nested-dict snapshot: the shape stored on ``RunResult.metrics``.

        ``per_rank`` is a list indexed by rank; ``global`` holds the
        rank-less bucket; ``totals`` sums every counter over ranks for
        one-glance reads.
        """
        per_rank = []
        for r in range(self.nranks):
            per_rank.append(
                {
                    "counters": dict(sorted(self.counters[r].items())),
                    "gauges": dict(sorted(self._gauges[r].items())),
                    "histograms": {
                        k: h.snapshot()
                        for k, h in sorted(self._hists[r].items())
                    },
                }
            )
        totals: dict[str, float] = {}
        for c in self.counters[: self.nranks]:
            for k, v in c.items():
                totals[k] = totals.get(k, 0.0) + v
        return {
            "per_rank": per_rank,
            "global": {
                "counters": dict(
                    sorted(self.counters[self.nranks].items())
                ),
                "gauges": dict(sorted(self._gauges[self.nranks].items())),
                "histograms": {
                    k: h.snapshot()
                    for k, h in sorted(self._hists[self.nranks].items())
                },
            },
            "totals": dict(sorted(totals.items())),
        }
