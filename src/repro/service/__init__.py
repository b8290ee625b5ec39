"""repro.service — the online query service (streaming arrivals).

Every batch driver answers one fixed query set and exits; production
BLAST (NCBI-style) is a *service*: queries arrive continuously from
many users and want low latency, not just high aggregate throughput.
This package layers that service on the simulator:

- :mod:`repro.service.arrivals`  — timestamped :class:`QueryJob`
  streams: Poisson processes and trace files;
- :mod:`repro.service.scheduler` — the admission/batching scheduler
  that coalesces queued queries into search waves, with a priority
  lane so small interactive queries preempt large scans at wave
  boundaries (and a starvation bound so scans still finish);
- :mod:`repro.service.service`   — the resident cluster program:
  workers hold warm database fragments
  (:mod:`repro.parallel.warmdb`) and are invoked once per wave by a
  long-lived master that tracks per-query latency through
  :mod:`repro.obs` (``EV_QUERY`` spans, ``service.*`` metrics).

The concatenated per-query reports of any service run are byte-
identical to :func:`repro.parallel.run_serial_reference` over the same
queries — admission order, wave boundaries and worker deaths never
change the output, only the latency.
"""

from repro._lazy import namespace

__all__, __getattr__, __dir__ = namespace(__name__, {
    "arrivals": ("QueryJob", "poisson_arrivals", "trace_arrivals"),
    "scheduler": ("AdmissionScheduler", "ServiceConfig"),
    "service": ("ServiceResult", "run_service"),
})
