"""Host-speed probes: a fixed pure-Python loop run inside the program process.

The benchmark's host is a few vCPUs of a shared machine whose speed flips
by tens of percent within a second (neighbours contend for the physical
core).  A short fixed loop run in the program's own thread slows down with
the program: over 3-second windows the two correlate at about 0.99.

:class:`Prober` runs :func:`probe` every ``PERIOD_S`` seconds from a
``SIGALRM`` handler, so the probes interleave with the program on the same
thread.  :func:`scaled_span` then converts the program time of a span into
seconds at the reference speed: every gap between two probes counts
``NOMINAL_S / probe seconds`` (the mean of the probes at its two ends), and
the probes themselves count nothing.

The loop, ``ITERATIONS`` and ``NOMINAL_S`` define the reported times:
changing any of them changes every scaled figure.
"""

from __future__ import annotations

import bisect
import signal
import time

ITERATIONS = 20_000
#: Probe seconds that define the reference host speed.
NOMINAL_S = 0.004
PERIOD_S = 0.1


def probe() -> float:
    """Seconds the fixed loop takes now."""
    start = time.perf_counter()
    table: dict[int, float] = {}
    acc = 0.0
    for i in range(ITERATIONS):
        key = i % 1000
        table[key] = table.get(key, 0.0) + i * 0.5
        acc += (i % 7) * 1.0001
    return time.perf_counter() - start


class Prober:
    """Probes every ``PERIOD_S`` seconds of this process's main thread.

    ``records`` holds ``(start, seconds)`` per probe, ``start`` on the
    ``time.monotonic`` clock.  Interrupted system calls restart
    (``siginterrupt(False)``), so the program's I/O is not disturbed.
    """

    def __init__(self) -> None:
        self.records: list[tuple[float, float]] = []
        self.running = False
        self._busy = False

    def sample(self) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            start = time.monotonic()
            self.records.append((start, probe()))
        finally:
            self._busy = False

    def start(self) -> None:
        self.running = True
        self.sample()
        signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.siginterrupt(signal.SIGALRM, False)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()
        self.running = False


def scaled_span(begin: float, end: float, records: list[tuple[float, float]]) -> float:
    """Program seconds in ``[begin, end]`` at the reference speed.

    ``records`` are a :class:`Prober`'s, sorted by start.  A gap before
    the first probe or after the last one takes that probe's speed.
    """
    if not records:
        raise ValueError("no host-speed probes")
    starts = [start for start, _ in records]
    first = bisect.bisect_right(starts, begin)
    last = bisect.bisect_left(starts, end)
    previous = records[first - 1][1] if first > 0 else records[0][1]
    cursor = begin
    total = 0.0
    for start, seconds in records[first:last]:
        total += max(0.0, start - cursor) * 2 * NOMINAL_S / (previous + seconds)
        cursor = max(cursor, start + seconds)
        previous = seconds
    following = records[last][1] if last < len(records) else previous
    total += max(0.0, end - cursor) * 2 * NOMINAL_S / (previous + following)
    return total
