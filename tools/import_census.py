#!/usr/bin/env python3
"""Which ``repro`` modules a fresh benchmark process compiles, and where.

    python3 tools/import_census.py [--lines-at-most N] [--workload W]

In this fresh process, imports what ``bench/workloads.py`` imports (the
module itself, read-only, as every ``bench/rep.py`` job does before its
set-up) and prints each ``repro`` module that loaded with its source
line count, largest first, and the total.  Every job of every workload
pays to compile those lines before its timed region, and pays it again
in each fresh process: the bench runs with ``PYTHONDONTWRITEBYTECODE``
in some environments, so nothing is cached between jobs.

The lines are a pure function of the source, so ``--lines-at-most``
(exit 1 above it) gates what a job compiles on a count instead of a
timer, and the census exits 1 whenever a module of ``DEFERRED`` loaded:
those are the drivers, roles and analyses that only some jobs run, and
their package namespaces import them on first use.

``--workload W`` then runs W's set-up and one timed region (at the
benchmark's default seed) and prints the ``repro`` modules each of the
two loaded first — the compile cost a lazily imported driver moves into
the timed region of the jobs that run it.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Modules no job imports before its set-up: each loads on first use of
#: a name that needs it, in the run that uses it.
DEFERRED = (
    "repro.parallel.mpiblast",
    "repro.parallel.pioblast",
    "repro.parallel.queryseg",
    "repro.hier.batch",
    "repro.hier.coordinator",
    "repro.hier.groupmaster",
    "repro.hier.elastic",
    "repro.service.arrivals",
    "repro.service.service",
    "repro.experiments.table1",
    "repro.experiments.table2",
    "repro.experiments.fig1a",
    "repro.experiments.fig1b",
    "repro.experiments.fig3a",
    "repro.experiments.fig3b",
    "repro.experiments.fig4",
    "repro.experiments.formatdb_cost",
    "repro.experiments.ablations",
    "repro.obs.critical_path",
    "repro.obs.export",
    "repro.blast.translate",
)


def _import_path() -> None:
    for p in (ROOT / "src", ROOT / "bench"):
        if str(p) not in sys.path:
            sys.path.insert(0, str(p))


def loaded() -> dict[str, int]:
    """Source lines of every ``repro`` module in ``sys.modules``."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "repro" or name.startswith("repro."):
            with open(mod.__file__, "rb") as fh:
                out[name] = sum(1 for _ in fh)
    return out


def table(lines: dict[str, int]) -> str:
    rows = sorted(lines.items(), key=lambda kv: (-kv[1], kv[0]))
    out = [f"{n:>7}  {name}" for name, n in rows]
    out.append(f"{sum(lines.values()):>7}  lines in {len(lines)} modules")
    return "\n".join(out)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    ap.add_argument("--lines-at-most", type=int, default=None)
    ap.add_argument("--workload", default=None)
    args = ap.parse_args(argv)

    _import_path()
    from workloads import DEFAULT_SEED, WORKLOADS

    at_import = loaded()
    print("repro modules loaded by the benchmark's imports")
    print(table(at_import))
    total = sum(at_import.values())
    failures = [f"{name} loaded at import" for name in DEFERRED
                if name in at_import]
    if args.lines_at_most is not None and total > args.lines_at_most:
        failures.append(f"{total} lines > {args.lines_at_most}")

    if args.workload is not None:
        wl = WORKLOADS[args.workload](DEFAULT_SEED)
        wl.setup()
        at_setup = loaded()
        wl.run()
        at_run = loaded()
        for step, before, after in (("set-up", at_import, at_setup),
                                    ("timed region", at_setup, at_run)):
            print(f"\n{args.workload}: first loaded by its {step}")
            print(table({k: v for k, v in after.items() if k not in before}))

    for line in failures:
        print(f"FAIL: {line}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
