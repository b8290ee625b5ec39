#!/usr/bin/env python3
"""Where the gapped cohort's rows are, on one benchmark workload.

    python3 tools/cohort_census.py --workload table1-np32 --seed 20050404

Runs the workload's timed region (``bench/workloads.py``, imported
read-only) in this process with a wrapper on
``repro.blast.extend._run_band_cohort`` and prints, per starting band,
how many cohort calls ran, the halves they carried, how many clipped
(widened in place / left for the retry pass), the lockstep rows and the
seconds they took, the median cohort size, and the quartiles of where in
a half the clip happened (clip row / query-half length).  Band 32 is the
first pass; every wider band is a retry pass.

Rows are a pure function of the seed, so ``--rows-at-most N`` (exit 1
when the total exceeds ``N``) gates a host-time property — a cohort that
restarts clipped halves from row 0 — on a count instead of a timer.
"""

from __future__ import annotations

import argparse
import pathlib
import statistics
import sys
import time
from typing import NamedTuple

ROOT = pathlib.Path(__file__).resolve().parent.parent


class CohortCall(NamedTuple):
    """One ``_run_band_cohort`` call as the wrapper saw it."""

    band: int  # the band the call started at
    halves: int
    widened: int  # halves that clipped and were widened where they stood
    retried: int  # halves that clipped and left for the retry pass
    rows: int
    seconds: float
    clip_at: tuple[float, ...]  # clip row / query-half length, per clip


def census(workload: str, seed: int) -> list[CohortCall]:
    """Run ``workload``'s timed region once; one record per cohort call."""
    for p in (ROOT / "src", ROOT / "bench"):
        if str(p) not in sys.path:
            sys.path.insert(0, str(p))
    import repro.blast.extend as extend
    from workloads import WORKLOADS

    calls: list[CohortCall] = []
    inner = extend._run_band_cohort

    def wrapper(probs, matrix, go, ge, x_drop, band, bstats):
        rows, widened = bstats.rows, bstats.widenings
        nclips = len(bstats.clips)
        t0 = time.perf_counter()
        out = inner(probs, matrix, go, ge, x_drop, band, bstats)
        calls.append(CohortCall(
            band, len(probs), bstats.widenings - widened,
            sum(r is None for r in out), bstats.rows - rows,
            time.perf_counter() - t0,
            tuple(r / n for r, n in bstats.clips[nclips:]),
        ))
        return out

    wl = WORKLOADS[workload](seed)
    wl.setup()
    extend._run_band_cohort = wrapper
    try:
        wl.run()
    finally:
        extend._run_band_cohort = inner
    return calls


def _quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return " / ".join(f"{v:.2f}" for v in values) or "-"
    return " / ".join(
        f"{q:.2f}"
        for q in statistics.quantiles(values, n=4, method="inclusive")
    )


def total_rows(calls: list[CohortCall]) -> int:
    return sum(c.rows for c in calls)


def report(calls: list[CohortCall]) -> str:
    """The per-band table and the totals line."""
    lines = [
        f"{'band':>5} {'calls':>6} {'halves':>7} {'widened':>8} "
        f"{'retried':>8} {'rows':>7} {'seconds':>8} {'cohort med':>11}  "
        f"clip at (quartiles of row / half)"
    ]
    for band in sorted({c.band for c in calls}):
        cs = [c for c in calls if c.band == band]
        clip_at = [f for c in cs for f in c.clip_at]
        lines.append(
            f"{band:>5d} {len(cs):>6d} {sum(c.halves for c in cs):>7d} "
            f"{sum(c.widened for c in cs):>8d} "
            f"{sum(c.retried for c in cs):>8d} "
            f"{sum(c.rows for c in cs):>7d} "
            f"{sum(c.seconds for c in cs):>8.3f} "
            f"{statistics.median(c.halves for c in cs):>11g}  "
            f"{_quartiles(clip_at)}"
        )
    first = min((c.band for c in calls), default=0)
    lines.append(
        f"total: {len(calls)} calls "
        f"({sum(c.band > first for c in calls)} retry passes), "
        f"{total_rows(calls)} rows, "
        f"{sum(c.seconds for c in calls):.3f} s"
    )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=20050404)
    ap.add_argument("--rows-at-most", type=int, default=None,
                    help="exit 1 when the total rows exceed this")
    args = ap.parse_args(argv)

    calls = census(args.workload, args.seed)
    print(f"workload {args.workload}, seed {args.seed}")
    print(report(calls))
    if args.rows_at_most is not None and total_rows(calls) > args.rows_at_most:
        print(f"FAIL: {total_rows(calls)} rows > {args.rows_at_most}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
