"""Host-speed reference for the benchmark's times.

The benchmark runs on shared virtual CPUs whose speed is not constant:
each vCPU switches between an uncontended and a contended speed (up to
about 2x apart) every 0.1-2 s, far more than any program change the
benchmark should detect. So each measured process also times a short,
fixed pure-Python kernel (the same work on every run and every commit,
none of it the program's) and every reported time is scaled to the
speed at which that kernel takes :data:`REFERENCE_MS`::

    reported = measured * REFERENCE_MS / median(nearby kernel samples)

A slower host stretches the program's times and the kernel's alike,
so the ratio stays put; a slower program stretches only its own.

Samples are taken between every two ops and, through a ``SIGALRM``
interval timer, every :data:`TIMER_S` inside long calls (the set-up's
``Database.open``, a read request). Each sample's own time is taken out
of whatever interval it fell in, and every stretch of program time is
scaled by the :data:`WINDOW` samples around it. The collector is held
off during a sample; a sample cut by a background thread of the program
(a compaction taking the interpreter lock) is an outlier the window's
median drops.
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import signal
import statistics
from time import perf_counter_ns

#: Kernel milliseconds at the reference speed: what one kernel sample
#: takes on a 2.0 GHz Xeon vCPU with CPython 3.11 while the vCPU runs
#: uncontended (contended, it takes up to about twice as long).
REFERENCE_MS = 0.22
#: Seconds between two timer samples.
TIMER_S = 0.05
#: Samples taken back to back right before and right after a set-up.
EDGE_SAMPLES = 20
#: Samples around a point of time whose median scales it: the two
#: taken before it and the two after.
WINDOW = 4

_KEYS = [(k % 61, k % 7, k) for k in range(160)]
_TABLE = {f"w{k:04d}": k for k in range(160)}
_WORDS = list(_TABLE)


def kernel() -> int:
    """Fixed work shaped like the store's hot paths: tuple hashing and
    comparison, dict and set probes, string building, sorting and
    big-int bit operations."""
    total = 0
    for turn in range(2):
        seen = set()
        bits = 0
        for key, word in zip(_KEYS, _WORDS):
            seen.add(key[turn:])
            total += _TABLE[word] + len(f"{word}:{key[2]}")
            bits |= 1 << key[2]
        total += len(sorted(seen, reverse=bool(turn)))
        total += (bits & (bits >> 3)).bit_count()
    return total


def scale_of(samples: list[int]) -> float:
    """Factor from measured to reference-speed times."""
    return REFERENCE_MS * 1e6 / statistics.median(samples)


class Speedometer:
    """Timestamped kernel samples of one process, and the program time
    and reference-speed time of any interval between them."""

    def __init__(self):
        #: start and end ns of each whole sample, in time order
        self.start: list[int] = []
        self.end: list[int] = []
        #: kernel ns of each sample
        self.ns: list[int] = []
        #: index of the first sample of the measured phase
        self.phase_from = 0
        self._busy = False

    def take(self, count: int = 1) -> None:
        """``count`` samples back to back, the collector held off (a
        collection of the program's heap must not land in one). A
        sample runs the kernel twice and times the second run, so the
        caches the program left cold do not count."""
        if self._busy:  # the timer fired during a sample
            return
        self._busy = True
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(count):
                self.start.append(perf_counter_ns())
                kernel()
                began = perf_counter_ns()
                kernel()
                done = perf_counter_ns()
                self.ns.append(done - began)
                self.end.append(done)
        finally:
            if enabled:
                gc.enable()
            self._busy = False

    def _on_alarm(self, signum, frame) -> None:
        self.take()

    @contextlib.contextmanager
    def timer(self):
        """Sample every :data:`TIMER_S` while the block runs."""
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, TIMER_S, TIMER_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def start_phase(self) -> None:
        self.phase_from = len(self.ns)

    def scale_at(self, t_ns: int) -> float:
        """Scale at ``t_ns``: the median of the :data:`WINDOW` samples
        nearest it, half before and half after."""
        at = bisect.bisect_right(self.start, t_ns)
        low = max(0, min(at - WINDOW // 2, len(self.ns) - WINDOW))
        return scale_of(self.ns[low:low + WINDOW])

    def interval(self, begin: int, finish: int) -> tuple[int, int]:
        """``(program ns, reference ns)`` of ``[begin, finish)``: the
        interval without the samples inside it, each stretch between
        them scaled by the samples around it."""
        program = 0
        reference = 0.0
        cursor = begin
        first = bisect.bisect_left(self.start, begin)
        last = bisect.bisect_left(self.start, finish)
        for at in range(first, last):
            stretch = self.start[at] - cursor
            program += stretch
            reference += stretch * self.scale_at(cursor)
            cursor = self.end[at]
        stretch = max(finish - cursor, 0)
        program += stretch
        reference += stretch * self.scale_at(cursor)
        return program, round(reference)

    def phase_scale(self) -> float:
        """The median scale of the samples taken during the phase."""
        return scale_of(self.ns[self.phase_from:] or self.ns)
