"""Interconnect timing model.

Message cost follows the classic postal/LogP-flavoured model used by MPI
performance analysis:

- the sender is busy for ``overhead`` seconds per message (software stack),
- the payload arrives ``latency + nbytes / bandwidth`` seconds after
  injection,
- messages larger than ``eager_threshold`` use a rendezvous protocol: the
  sender stays busy until the payload has fully drained (this is what MPI
  implementations do to avoid unbounded buffering, and it is what makes a
  master that serially pulls large results a genuine bottleneck).

Payload sizes are measured with :func:`payload_nbytes`, which understands
bytes, strings, NumPy arrays, containers, and any object exposing a
``payload_nbytes()`` method; an explicit size always wins.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass

import numpy as np


#: wire size of the exact types control traffic is made of; anything not
#: here (subclasses included) is sized by the general chain below
_LEAF_NBYTES = {type(None): 0, bool: 1, int: 8, float: 8}


def payload_nbytes(obj: object) -> int:
    """Best-effort wire size of ``obj`` in bytes (deterministic).

    One entry per payload: containers are walked from a work list, not
    by recursion, and the exact-``type()`` branches at the top give the
    integers the ``isinstance`` chain under them would (a bare ``int``,
    an ASCII ``str``, a plain ``tuple`` have no ``payload_nbytes``
    method and reach the same arm there).  A size is a sum over the
    leaves, so the order they are visited in does not matter.
    """
    total = 0
    todo = [obj]
    while todo:
        obj = todo.pop()
        t = type(obj)
        n = _LEAF_NBYTES.get(t)
        if n is not None:
            total += n
            continue
        if t is tuple or t is list:
            total += 16
            todo.extend(obj)
            continue
        if t is bytes or (t is str and obj.isascii()):
            total += len(obj)
            continue
        meth = getattr(obj, "payload_nbytes", None)
        if callable(meth):
            total += int(meth())
        elif isinstance(obj, (bytes, bytearray, memoryview)):
            total += len(obj)
        elif isinstance(obj, str):
            total += len(obj.encode("utf-8", "surrogateescape"))
        elif isinstance(obj, np.ndarray):
            total += int(obj.nbytes)
        elif isinstance(obj, (int, float)):  # subclasses: an IntEnum
            total += 8
        elif isinstance(obj, (tuple, list, set, frozenset)):
            total += 16
            todo.extend(obj)
        elif isinstance(obj, dict):
            total += 16
            todo.extend(obj)
            todo.extend(obj.values())
        elif (d := getattr(obj, "__dict__", None)) is not None:
            # dataclasses and similar plain records
            total += 16
            todo.extend(d.values())
        elif (slots := getattr(t, "__slots__", None)) is not None:
            total += 16
            todo.extend(getattr(obj, s) for s in slots)
        else:
            total += len(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))
    return total


@dataclass(frozen=True)
class NetworkModel:
    """Latency/bandwidth parameters for an interconnect.

    Attributes
    ----------
    latency:
        One-way wire latency in seconds.
    bandwidth:
        Point-to-point bandwidth in bytes/second.
    overhead:
        Per-message CPU time charged to the sender (and to the receiver
        on message pickup) in seconds.
    eager_threshold:
        Messages above this size use a rendezvous protocol.
    """

    latency: float = 5e-6
    bandwidth: float = 500e6
    overhead: float = 1e-6
    eager_threshold: int = 64 * 1024

    def delivery_time(self, nbytes: int, slowdown: float = 1.0) -> float:
        """Time from injection to full arrival of an ``nbytes`` message.

        ``slowdown`` models transient congestion (fault-injection
        windows): both the wire latency and the effective bandwidth are
        degraded by the factor, so a 2× slowdown doubles the delivery
        time of every message injected during the window.
        """
        if slowdown < 1.0:
            raise ValueError(f"network slowdown must be >= 1, got {slowdown}")
        return (self.latency + nbytes / self.bandwidth) * slowdown

    def is_eager(self, nbytes: int) -> bool:
        return nbytes <= self.eager_threshold
