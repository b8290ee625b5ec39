#!/usr/bin/env python3
"""Alternating parent/change pairs of one ``BENCHMARK.json`` workload.

    python3 tools/bench_pairs.py --parent ../parent-checkout \\
        --workload kernel-bulk --seeds 101..110

For every seed it runs the benchmark's own command

    python3 bench/run.py --workload W --seed N --seconds 22 --trace 0

once in the parent checkout and once in this tree, alternating which
side goes first, and prints — for every end-to-end metric the runs
report — the per-pair values, each side's median and quartiles, how
many pairs each side won (ties count for neither), and the failed
operations.  A gain may be claimed when the change wins at least nine
tenths of the pairs and the medians differ by more than the distance
between the parent's quartiles; each metric's last line says whether
that holds.  It only *invokes* the benchmark: the numbers are whatever
``bench/run.py`` of each checkout prints.

A run's ``virt_*`` values are medians over however many whole jobs fit
``--seconds``, each job with inputs of its own, so the faster side's
median is over more inputs and the two differ by a fraction of a
percent without any change in behaviour.  Same-input identity is a
different check: ``bench/rep.py --workload W --seed N`` in both
checkouts must print equal ``output_sha256`` and ``virt``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    """``"101..110"`` (inclusive) or ``"501,502,507"``."""
    if ".." in text:
        first, last = text.split("..")
        return list(range(int(first), int(last) + 1))
    return [int(t) for t in text.split(",")]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``, linear interpolation between order
    statistics; a single value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def count_wins(
    parent: list[float], change: list[float], better: str
) -> tuple[int, int, int]:
    """Pairs won by ``(change, parent)`` and ties, for a metric where
    ``better`` is ``"lower"`` or ``"higher"``."""
    sign = -1 if better == "higher" else 1
    change_wins = sum(sign * c < sign * p for p, c in zip(parent, change))
    parent_wins = sum(sign * p < sign * c for p, c in zip(parent, change))
    return change_wins, parent_wins, len(parent) - change_wins - parent_wins


def gain(parent: list[float], change: list[float], better: str) -> bool:
    """The claim rule: the change wins >= 9/10 of all pairs run and its
    median beats the parent's by more than the parent's quartile
    distance."""
    change_wins, _parent_wins, _ties = count_wins(parent, change, better)
    q1, p_med, q3 = quartiles(parent)
    c_med = quartiles(change)[1]
    step = p_med - c_med if better == "lower" else c_med - p_med
    return 10 * change_wins >= 9 * len(parent) and step > q3 - q1


def run_once(checkout: pathlib.Path, workload: str, seed: int,
             seconds: float) -> dict:
    """The benchmark's command in ``checkout``; its result line."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=False,
    )
    if proc.returncode:
        raise SystemExit(
            f"bench/run.py failed in {checkout} (seed {seed}):\n"
            f"{proc.stderr[-2000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def report(metrics: list[tuple[str, str, str]], seeds: list[int],
           parent: list[dict], change: list[dict]) -> str:
    """The table for ``metrics`` = ``(name, unit, better)`` rows."""
    lines = []
    for name, unit, better in metrics:
        p = [r["metrics"][name]["value"] for r in parent]
        c = [r["metrics"][name]["value"] for r in change]
        lines.append(f"{name} [{unit}, {better} is better]")
        for seed, pv, cv in zip(seeds, p, c):
            lines.append(f"  seed {seed:<10d} parent {pv:<12.6g} "
                         f"change {cv:<12.6g}")
        for side, vals in (("parent", p), ("change", c)):
            q1, med, q3 = quartiles(vals)
            lines.append(f"  {side} median {med:.6g}  "
                         f"quartiles {q1:.6g} .. {q3:.6g}")
        cw, pw, ties = count_wins(p, c, better)
        p_med, c_med = quartiles(p)[1], quartiles(c)[1]
        delta = f"{100 * (c_med - p_med) / p_med:+.1f} %" if p_med else "n/a"
        lines.append(
            f"  change vs parent median {delta}; wins change {cw} / "
            f"parent {pw} / ties {ties} of {len(p)}; "
            f"gain by the pairs rule: {'yes' if gain(p, c, better) else 'no'}"
        )
    for side, runs in (("parent", parent), ("change", change)):
        lines.append(
            f"{side} failed {sum(r['failed'] for r in runs)} of "
            f"{sum(r['attempted'] for r in runs)} attempted; "
            f"correct in {sum(r['correct'] is True for r in runs)} of "
            f"{len(runs)} runs"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    ap.add_argument("--parent", type=pathlib.Path, required=True,
                    help="checkout of the parent commit (git clone or "
                         "git archive; not a worktree of this one)")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=parse_seeds, default="101..110",
                    help="A..B inclusive, or a comma list (default: "
                         "%(default)s); use seeds not used in development")
    ap.add_argument("--seconds", type=float, default=None,
                    help="default: run_seconds of BENCHMARK.json")
    args = ap.parse_args(argv)

    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or contract["run_seconds"]
    metrics = [(m["name"], m["unit"], m["better"])
               for m in contract["end_to_end"]]
    parent, change = [], []
    for i, seed in enumerate(args.seeds):
        sides = [(args.parent, parent), (ROOT, change)]
        for checkout, runs in sides if i % 2 == 0 else sides[::-1]:
            runs.append(run_once(checkout, args.workload, seed, seconds))
        print(f"seed {seed}: parent host_s "
              f"{parent[-1]['metrics']['host_s']['value']:.3f}, change "
              f"{change[-1]['metrics']['host_s']['value']:.3f}",
              file=sys.stderr, flush=True)
    print(f"workload {args.workload}, {len(args.seeds)} alternating pairs, "
          f"--seconds {seconds:g} --trace 0")
    print(report(metrics, args.seeds, parent, change))
    return 0


if __name__ == "__main__":
    sys.exit(main())
