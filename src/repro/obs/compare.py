"""Diff two bench JSON files and flag regressions.

``BENCH_*.json`` files (written by :mod:`repro.obs.bench`) map run names
to :func:`repro.obs.export.run_metrics` dicts.  :func:`compare_bench`
walks every shared numeric key and reports each one whose value moved by
more than ``threshold`` (relative); time-like quantities that *grew* are
regressions, ones that shrank are improvements.

CLI::

    python -m repro.obs.compare OLD.json NEW.json [--threshold 0.05]

exits 1 if any regression exceeds the threshold (CI-friendly).
"""

from __future__ import annotations

import argparse
import json
import pathlib
from dataclasses import dataclass

#: Scalar keys compared per run, all "lower is better".
COMPARED_KEYS = ("makespan",)
#: Nested dicts compared key-by-key, all "lower is better" (the
#: ``latency`` section's throughput columns are the exception — see
#: :func:`_higher_is_better`).  The ``hier`` section's wait/share keys
#: are plain lower-is-better: a coordinator or group waiting longer is
#: a regression.
COMPARED_SECTIONS = ("phases", "critical_path", "attribution_rank_max",
                     "latency", "hier")
#: Wall-clock keys, compared with the (looser) host threshold: host
#: times are real measurements on whatever machine ran the bench, so
#: they carry scheduling noise that virtual-time keys do not.
HOST_KEYS = ("host_s", "batch_host_s")


def _higher_is_better(key: str) -> bool:
    """Latency-section throughput grows when the system improves."""
    return key.endswith("throughput_qps")


@dataclass(frozen=True)
class Delta:
    run: str
    key: str
    old: float
    new: float

    @property
    def ratio(self) -> float:
        if self.old == 0:
            return float("inf") if self.new > 0 else 0.0
        return self.new / self.old - 1.0

    @property
    def regression(self) -> bool:
        if _higher_is_better(self.key):
            return self.new < self.old
        return self.new > self.old

    def render(self) -> str:
        arrow = "WORSE" if self.regression else "better"
        return (
            f"{self.run}: {self.key} {self.old:.4f} -> {self.new:.4f} "
            f"({self.ratio:+.1%}, {arrow})"
        )


def load_bench(path: str | pathlib.Path) -> dict:
    return json.loads(pathlib.Path(path).read_text())


def _runs(doc: dict) -> dict:
    return doc.get("runs", doc)


def compare_bench(
    old: dict,
    new: dict,
    *,
    threshold: float = 0.05,
    host_threshold: float = 0.5,
) -> list[Delta]:
    """All deltas beyond ``threshold`` between two bench documents.

    Wall-clock keys (:data:`HOST_KEYS`, including the ``kernel``
    section) are compared against ``host_threshold`` instead — they are
    noisy measurements, and a tight threshold would make the comparison
    flap.  Set ``host_threshold`` to ``float("inf")`` to ignore host
    time entirely (e.g. when diffing files from different machines).
    """
    deltas: list[Delta] = []

    def check(run: str, key: str, a, b, limit: float) -> None:
        if not isinstance(a, (int, float)) or not isinstance(b, (int, float)):
            return
        base = max(abs(a), 1e-12)
        if abs(b - a) / base > limit:
            deltas.append(Delta(run, key, float(a), float(b)))

    old_runs, new_runs = _runs(old), _runs(new)
    for run in sorted(set(old_runs) & set(new_runs)):
        o, n = old_runs[run], new_runs[run]
        for key in COMPARED_KEYS:
            if key in o and key in n:
                check(run, key, o[key], n[key], threshold)
        for key in HOST_KEYS:
            if key in o and key in n:
                check(run, key, o[key], n[key], host_threshold)
        for sec in COMPARED_SECTIONS:
            osec, nsec = o.get(sec, {}), n.get(sec, {})
            for key in sorted(set(osec) & set(nsec)):
                check(run, f"{sec}.{key}", osec[key], nsec[key], threshold)
    old_k, new_k = old.get("kernel", {}), new.get("kernel", {})
    for run in sorted(set(old_k) & set(new_k)):
        o, n = old_k[run], new_k[run]
        for key in HOST_KEYS:
            if key in o and key in n:
                check(f"kernel:{run}", key, o[key], n[key], host_threshold)
    return deltas


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m repro.obs.compare",
        description="Diff two bench JSON files; exit 1 on regression.",
    )
    ap.add_argument("old")
    ap.add_argument("new")
    ap.add_argument("--threshold", type=float, default=0.05,
                    help="relative change to flag (default 0.05)")
    ap.add_argument("--host-threshold", type=float, default=0.5,
                    help="relative change to flag on wall-clock keys "
                         "(default 0.5; use inf to ignore host time)")
    ns = ap.parse_args(argv)
    old, new = load_bench(ns.old), load_bench(ns.new)
    flavours = tuple(
        doc.get("meta", {}).get("quick") for doc in (old, new)
    )
    if None not in flavours and flavours[0] != flavours[1]:
        print(
            "cannot compare a --quick bench file with a full one "
            f"({ns.old}: quick={flavours[0]}, {ns.new}: quick={flavours[1]})"
        )
        return 2
    deltas = compare_bench(
        old, new,
        threshold=ns.threshold,
        host_threshold=ns.host_threshold,
    )
    if not deltas:
        print(f"no changes beyond {ns.threshold:.0%}")
        return 0
    regressions = 0
    for d in deltas:
        print(d.render())
        regressions += d.regression
    print(
        f"{len(deltas)} change(s) beyond {ns.threshold:.0%}, "
        f"{regressions} regression(s)"
    )
    return 1 if regressions else 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
