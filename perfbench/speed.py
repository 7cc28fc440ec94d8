"""Host-speed probe: puts the benchmark's times on one reference speed.

The benchmark shares a few vCPUs of a host with other machines, and the
host's speed drifts: the same pass can take 1.5 to 2 times longer for
seconds or minutes at a time, with nothing else running in the
machine.  A median over passes cannot remove a slowdown that lasts a
whole run.  So a worker samples the host's speed *while* it works: a
SIGALRM timer interrupts it every ``PERIOD_S`` seconds of wall time,
and the handler times one fixed piece of pure-Python work (the probe).
Probes and the program run on the same vCPU in the same moments, so
the mean probe time of an interval says how fast the host was during
it.

``clock()`` is ``time.perf_counter()`` stopped while a probe runs, so
an interval measured with it holds the program's time alone.  A net
interval ``t`` that saw mean probe time ``p`` is ``t * REF_PROBE_S / p``
seconds at the reference speed: the speed at which one probe takes
``REF_PROBE_S``.

The probe imports nothing, so it can run from the first line of a
worker, across the imports of set-up.  The program under test uses no
signals; Python retries a system call a signal interrupts.
"""

from __future__ import annotations

import signal
import time

#: seconds of wall time between two probes
PERIOD_S = 0.02
#: probe time that defines the reference speed
REF_PROBE_S = 150e-6

_spent = 0.0  # seconds spent in probes since import
_count = 0  # probes run since import


_TABLE = [0] * 128


def _probe() -> float:
    """Fixed interpreter work: list, integer and float traffic.  It
    allocates nothing but small objects, which come from Python's own
    pools: a larger buffer taken from the C heap in the middle of the
    program's work changed how much heap the ``train`` pass kept (a
    third peak-memory mode, 27 MB higher)."""
    t = _TABLE
    for i in range(1500):
        j = i & 127
        t[j] = (t[j] + i * 3 // 7) & 0xFFFFF
    x = 0.0
    for i in range(300):
        x += i * 0.5
    return x


def _on_alarm(signum, frame) -> None:
    global _spent, _count
    t0 = time.perf_counter()
    _probe()
    _spent += time.perf_counter() - t0
    _count += 1


def start() -> None:
    """Probe every ``PERIOD_S`` seconds from now on."""
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)


def stop() -> None:
    signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)


def clock() -> float:
    """``time.perf_counter()`` minus the time spent in probes."""
    while True:
        spent = _spent
        now = time.perf_counter()
        if spent == _spent:  # no probe ran in between
            return now - spent


def mark() -> tuple:
    """(probes run, seconds spent in them) so far."""
    return _count, _spent


def mean_probe_s(since: tuple) -> float:
    """Mean probe time since ``since = mark()``; ``REF_PROBE_S`` when no
    probe ran (the probe is off, or the interval was shorter than a
    period)."""
    n, spent = _count - since[0], _spent - since[1]
    return spent / n if n else REF_PROBE_S
