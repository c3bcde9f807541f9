"""Host speed, sampled inside the measured process while it runs.

The hosts this benchmark runs on are shared VMs.  Other tenants slow
the measured process in two ways: they take its core away for a while,
and they make the core run slower while it has it (shared caches,
memory bandwidth, clock speed).  The first shows in wall time but not
in the process's CPU time: the guest kernel charges a task only for
the time it ran, and with paravirtual steal-time accounting the host's
preemptions are taken out as well.  The second shows in CPU time too,
by up to 2x within a second and by 10-20% over minutes.

So the benchmark times the program in CPU seconds and measures the
second effect with a probe.  A :class:`Sampler` interrupts its process
every :data:`INTERVAL_S` of wall time with ``SIGALRM`` and times
:func:`probe`, a fixed pure-Python loop, in CPU time too, so the probes
see the core exactly while the measured code runs on it.  (Not a CPU-time
interval: while a process CPU timer is armed, Linux reads the process's
CPU clock at tick granularity.  The probe reads the thread's CPU clock,
which stays exact.)

:meth:`Sampler.split` turns the probes into a speed: the mean over the
probes of the reference probe time over the probe's time, 1.0 on a host
that runs a probe in :data:`REFERENCE_PROBE_S` and 0.5 on one running at
half that speed.
CPU seconds, less the probes' own, multiplied by the speed are
reference seconds: the time the same work takes on the reference host
when nothing else runs.  The probe is part of the benchmark and never
changes with the program, so a change to the program shows in
reference seconds in full.
"""

from __future__ import annotations

import signal
import time

#: Wall seconds between two probes.
INTERVAL_S = 0.002
#: CPU seconds one :func:`probe` takes on the reference host (the quiet
#: 2-vCPU Xeon VM the benchmark was written on, Python 3.11).
REFERENCE_PROBE_S = 53e-6


class _Point:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def step(self, x):
        return (self.a * x + self.b) & 0xFFFF


def probe() -> int:
    """Method calls, attribute reads, dict updates and integer
    arithmetic: the operations the simulator's Python spends its time on."""
    point, counts, total = _Point(3, 7), {}, 0
    for i in range(300):
        value = point.step(i)
        counts[value & 63] = counts.get(value & 63, 0) + 1
        total += value
    return total + len(counts)


def timed_probe() -> float:
    """CPU seconds one :func:`probe` takes."""
    started = time.thread_time()
    probe()
    return time.thread_time() - started


class Sampler:
    """Times :func:`probe` every :data:`INTERVAL_S` from :meth:`start`
    to :meth:`stop`.  Only the main thread of a process can run one."""

    def __init__(self):
        self.samples: list = []
        #: CPU seconds all probes so far took.
        self.probe_s = 0.0
        self._split = 0

    def _tick(self, signum, frame):
        elapsed = timed_probe()
        self.samples.append(elapsed)
        self.probe_s += elapsed

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def clock(self) -> float:
        """The process's CPU seconds, less the probes'.

        The probes come every :data:`INTERVAL_S` of wall time, so a
        process that waits more gets more of them per CPU second; this
        clock leaves them out.
        """
        return time.process_time() - self.probe_s

    def split(self) -> float:
        """The host speed over the probes since the previous split, or
        since :meth:`start`; one probe now if there were none.

        The mean of each probe's speed, not the speed of the mean probe
        time: a probe that an interrupt or a page fault slowed tenfold
        then stands for the one interval it fell in, not for the whole
        window.
        """
        samples = self.samples[self._split:] or [timed_probe()]
        self._split = len(self.samples)
        return REFERENCE_PROBE_S * sum(1.0 / s for s in samples) / len(samples)
