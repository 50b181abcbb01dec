"""Host-speed probe: scales measured host seconds to a reference speed.

On a shared host, neighbours slow every instruction of this process by
up to 2x, in spells that last from seconds to minutes, so the same op
can take twice as long from one run to the next.  The probe times a
fixed piece of Python work (sort 2,000 floats, fold them into a dict)
in a ``SIGALRM`` handler every ``INTERVAL_S`` of wall time, on the
thread's CPU clock, while the measured code runs.  The probe's work
never changes, so its time tracks only how fast the host runs Python
right now; its code is the benchmark's own, so a change to the program
does not move it.

A measured interval of ``wall`` seconds is reported as ``wall * scale``,
where ``scale`` is the mean of ``REFERENCE_S / probe time`` over the
probes taken in that interval: the seconds it would have taken on a
host where the probe takes ``REFERENCE_S``.  The probes themselves cost
about 3% of the interval, and are part of it.

The handler runs between bytecodes of the main thread only; a blocking
call (a pool wait) is interrupted and retried, so the probe also ticks
while the process waits for its workers.  Interval timers are not
inherited across ``fork``, so worker processes never run the probe.
"""

from __future__ import annotations

import signal
import time
from array import array

__all__ = ["SpeedProbe"]


class SpeedProbe:
    INTERVAL_S = 0.02
    # The probe's CPU time on a quiet 2-vCPU Xeon (Sapphire Rapids) KVM
    # guest, as it runs between the program's bytecodes.
    REFERENCE_S = 3.5e-4
    # A scale is the mean over at least this many probes: an interval
    # shorter than that borrows the probes taken just before it.
    MIN_SAMPLES = 5

    def __init__(self) -> None:
        self.samples = array("d")
        self._data = [((i * 7919) % 2003) / 2003.0 for i in range(2000)]

    def _tick(self, signum, frame) -> None:
        t = time.thread_time()
        buckets = {}
        for i, x in enumerate(sorted(self._data)):
            buckets[i % 97] = buckets.get(i % 97, 0.0) + x
        self.samples.append(time.thread_time() - t)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S,
                         self.INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> int:
        """A position to pass to :meth:`scale` at the interval's end."""
        return len(self.samples)

    def scale(self, since: int) -> float:
        """Reference seconds per host second over the probes taken
        since ``mark`` returned ``since``."""
        start = max(0, min(since, len(self.samples) - self.MIN_SAMPLES))
        window = self.samples[start:]
        if not window:
            raise RuntimeError("no host-speed probe has run yet")
        return sum(self.REFERENCE_S / s for s in window) / len(window)
