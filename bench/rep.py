"""One repetition of one workload, in this (fresh) process.

``run.py`` starts this file once per repetition so that every timed
region pays the cold cost a CLI user pays: the process-wide word-index
memo and the allocator start empty, and no repetition inherits state
from another workload.  Order of events: imports, set-up from the seed,
the timed region (``--traced`` wraps it in the host-span recorder and a
``repro.obs.Tracer``), peak RSS, then the oracle check with the clock
stopped.  The result is one JSON object on the last line of stdout.
"""

from __future__ import annotations

import time

_PROCESS_START = time.time()

import argparse  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

SPAN_FIELDS = ("sid", "parent", "name", "rank", "start_s", "end_s", "self_s")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned-at", type=float, default=_PROCESS_START,
                    help="time.time() of the parent just before it "
                         "started this process")
    ap.add_argument("--setup-only", action="store_true",
                    help="stop after set-up (extra setup_s samples)")
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--untraced-host-s", type=float, default=0.0,
                    help="median untraced host_s, for the overhead share")
    ap.add_argument("--expect-sha", default=None,
                    help="skip the oracle when the output digest equals "
                         "this one (an earlier, oracle-checked rep's)")
    ap.add_argument("--trace-out", type=pathlib.Path, default=None)
    args = ap.parse_args(argv)

    from workloads import WORKLOADS

    if args.traced:
        from layers import Probe

    setup = {"import": time.time() - args.spawned_at}
    wl = WORKLOADS[args.workload](args.seed)
    wl.setup()
    setup.update(wl.setup_s)
    out: dict = {
        "workload": wl.name, "seed": args.seed, "traced": args.traced,
        "setup": {f"{k}_s": v for k, v in setup.items()},
    }
    if args.setup_only:
        out["setup_s"] = time.time() - args.spawned_at
        print(json.dumps(out))
        return 0

    probe = None
    if args.traced:
        probe = Probe()
        probe.install()
        probe.rec.start()
    out["setup_s"] = time.time() - args.spawned_at
    t0 = time.perf_counter()
    try:
        wl.run(trace=args.traced)
    finally:
        host_s = time.perf_counter() - t0
        if probe is not None:
            probe.rec.stop()
            probe.remove()
    out["host_s"] = host_s
    out["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    out["virt"] = wl.virtual()
    out["output_sha256"] = wl.digest()
    if args.expect_sha == out["output_sha256"] and not args.traced:
        out["checked"] = "sha"
        out["attempted"] = out["failed"] = 0
    else:
        out["checked"] = "oracle"
        out["attempted"], out["failed"] = wl.check()
    if probe is not None:
        out["layers"] = probe.metrics(
            wl, untraced_host_s=args.untraced_host_s, setup_s=setup
        )
        out["spans"] = len(probe.rec.spans)
        if args.trace_out is not None:
            args.trace_out.parent.mkdir(parents=True, exist_ok=True)
            with args.trace_out.open("w") as fh:
                json.dump(
                    {"workload": wl.name, "seed": args.seed,
                     "host_s": probe.rec.wall_s,
                     "fields": SPAN_FIELDS, "spans": probe.rec.spans},
                    fh,
                )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
