"""Host-speed calibration of timed calls.

On a small shared virtual machine the same call can run 1.2 to 1.6 times
slower for seconds or minutes at a time, because other tenants load the
host's cores; the process's own CPU time grows with it, so neither wall nor
CPU time of a call is steady from run to run.  A fixed calibration loop,
the *probe*, slows down with the host.  Each timed call is therefore
bracketed by probes: one right before the call and one every
``INTERVAL_S`` while it runs, from a ``SIGALRM`` handler.  The call's time
without the in-call probes is rescaled to a reference host, on which one
probe takes ``REFERENCE_PROBE_S``::

    reference seconds = call seconds * REFERENCE_PROBE_S / mean probe seconds

The rescaled time follows the program's own work much more closely than the
measured time does (see ``benchmarks/README.md`` for the spreads).  The
probe uses the benchmark's own generator and small arrays and never touches
fstest's state.  Its time still depends on what the call left in the caches:
probes inside a call run about 5% slower than probes between calls on the
``test_calls`` workload and about 20% slower on ``power_mixture``.
"""

from __future__ import annotations

import signal
import time

import numpy as np

__all__ = ["REFERENCE_PROBE_S", "INTERVAL_S", "probe", "snapshot", "warm_up", "Calibrated"]

#: probe time that defines the reference host; a fixed constant, so only
#: ratios of reference times mean anything
REFERENCE_PROBE_S = 0.0007
#: probe period inside a call; a probe takes about a twentieth of it
INTERVAL_S = 0.015

_rng = np.random.default_rng(0)


def _probe_work() -> None:
    # small-array numpy and interpreter work, the mix fstest's calls run
    for _ in range(33):
        np.sort(_rng.standard_normal((100, 4)), axis=0).sum()
    x = 0
    for i in range(3_300):
        x += i * i


def probe() -> tuple[float, float]:
    """Run the probe once; return its start time and its duration."""
    start = time.perf_counter()
    _probe_work()
    return start, time.perf_counter() - start


def snapshot(times: int = 3) -> float:
    """Mean time of a few probes in a row: the host's speed right now."""
    return sum(probe()[1] for _ in range(times)) / times


def warm_up(times: int = 3) -> None:
    """Run the probe untimed, so the first timed call's probe is not cold."""
    for _ in range(times):
        _probe_work()


class Calibrated:
    """Times the body of a ``with`` block and samples the host's speed.

    After the block, ``seconds`` is the block's time without the probes run
    inside it, ``probe_s`` the mean probe time, and ``reference_seconds``
    the block's time rescaled to the reference host.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []
        self.seconds = self.probe_s = float("nan")

    def _on_alarm(self, signum, frame) -> None:
        self.samples.append(probe())

    def __enter__(self) -> "Calibrated":
        self.samples.append(probe())
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.siginterrupt(signal.SIGALRM, False)  # restart system calls the alarm interrupts
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        end = time.perf_counter()
        signal.signal(signal.SIGALRM, self._previous)
        inside = sum(d for s, d in self.samples[1:] if s < end)
        self.seconds = end - self._start - inside
        self.probe_s = sum(d for _, d in self.samples) / len(self.samples)

    @property
    def reference_seconds(self) -> float:
        return self.seconds * REFERENCE_PROBE_S / self.probe_s
