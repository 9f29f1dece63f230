"""Host speed, sampled while the benchmark's children are measured.

The shared host this benchmark was defined on runs each virtual CPU at
two speeds about 45% apart, switching within seconds, and the share of
time spent in the slow state drifts over minutes.  CPU time tracks wall
time, so the drift is host speed, not scheduling, and no number of
passes within one run averages it away.

`HostSpeed` times a fixed piece of pure-Python work, the *quantum*,
every `SAMPLE_PERIOD_S` on a thread of the measuring (parent) process
while the children run.  A time measured over an interval is scaled by
``REF_QUANTUM_S / q``, where ``q`` is the median quantum time sampled
within that interval: it reads as the time the same work would take on
a host where one quantum takes `REF_QUANTUM_S`.  The quantum does not
touch graded_leibniz, so a change to the library moves the scaled times
exactly as it moves the raw ones.

The virtual CPUs change speed independently, so a single-threaded child
and the sampling thread are both pinned to `measuring_cpu()`: the quanta
then time the CPU the child runs on.  They take about 2% of that CPU's
time, and the child's timed calls include it.  While a child whose
threads move between CPUs (the `verify-paper` pool) runs, it is left
unpinned, and so is the sampler, which then runs on whichever CPU the
child leaves idle; pinned to the child's CPUs in turn, it preempted the
thread holding the pool's interpreter lock and added about 1.5% to its
wall time.
"""

from __future__ import annotations

import os
import statistics
import threading
import time

#: time between two quanta
SAMPLE_PERIOD_S = 0.05
#: quantum time of the reference host the scaled times are given for
#: (1 ms; the host above took 0.9 ms in its fast state, 1.3 ms in its slow one)
REF_QUANTUM_S = 1e-3

_KEYS = [(a, b) for a in range(8) for b in range(8)]


def measuring_cpu() -> int:
    """The CPU that pinned children and their sampler share; a child
    inherits its parent's CPU set, so both sides compute the same one."""
    return max(os.sched_getaffinity(0))


def pin_to_measuring_cpu() -> None:
    """Pin the calling thread (on Linux, pid 0 names the caller) to it."""
    os.sched_setaffinity(0, {measuring_cpu()})


def quantum() -> int:
    """A fixed mix of dict updates and integer arithmetic, about 1 ms."""
    counts = dict.fromkeys(_KEYS, 0)
    acc = 0
    for i in range(5000):
        key = _KEYS[i & 63]
        counts[key] += i
        acc = (acc * 31 + i) % 1000003
    return acc


class HostSpeed:
    """Samples quantum times on a background thread while in its block.

    The thread starts pinned to `measuring_cpu()`; `pin` moves it.

    Times compare with ``time.perf_counter()`` of any process, which on
    Linux reads CLOCK_MONOTONIC.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (midpoint, quantum seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, name="hostspeed", daemon=True)

    def __enter__(self) -> "HostSpeed":
        self._thread.start()
        self.pin(measuring_cpu())
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def pin(self, cpu: int | None) -> None:
        """Pin the sampling thread to `cpu`, or to every CPU of this
        process if it is None."""
        os.sched_setaffinity(self._thread.native_id,
                             os.sched_getaffinity(0) if cpu is None else {cpu})

    def _sample(self) -> None:
        while not self._stop.wait(SAMPLE_PERIOD_S):
            t0 = time.perf_counter()
            quantum()
            t1 = time.perf_counter()
            self.samples.append(((t0 + t1) / 2, t1 - t0))

    def quantum_s(self, start: float, end: float) -> float:
        """Median quantum time sampled within [start, end].

        The interval is widened by one sampling period on each side, so
        an interval shorter than a period (a set-up) still gets samples;
        with none even then, the nearest sample is used.
        """
        inside = [q for t, q in self.samples
                  if start - SAMPLE_PERIOD_S <= t <= end + SAMPLE_PERIOD_S]
        if not inside:
            mid = (start + end) / 2
            inside = [min(self.samples, key=lambda s: abs(s[0] - mid))[1]]
        return statistics.median(inside)

    def scale(self, start: float, end: float) -> float:
        """Factor that turns a time measured over [start, end] into reference-host time."""
        return REF_QUANTUM_S / self.quantum_s(start, end)
