"""
How fast the machine runs from moment to moment, for scaling op times to a
machine of one fixed speed.

A shared host's speed drifts by tens of per cent over seconds to tens of
seconds (other tenants, clock frequency), and that drift alone spread the
raw times of ten runs of the same code by more than this benchmark's
bounds.  So while ops run, a timer
interrupts the process every SAMPLE_EVERY_S and runs `chunk()`, a fixed piece
of pure-Python work that touches no blobcat code.  Python runs signal
handlers between bytecodes, so the chunks also land inside long ops (an
`fc_forms` build, a `dim` at large n) and sample the moments the ops ran in.
Chunk time is taken out of the op that it interrupted.  `op_speeds` then
gives each op the machine's slowness around it, relative to
NOMINAL_CHUNK_S; op times divided by it read as on a machine of that speed.
A faster blobcat still shows in full, and the raw times are printed too.

The chunk mixes the kinds of work blobcat does: hashing and comparing small
tuples in dicts and sets, sorting short lists, and adding big integers.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import Iterable

# median chunk time on the 2-vCPU VM with Python 3.11 where the baseline in
# README.md was recorded; it only fixes the unit, never a comparison
NOMINAL_CHUNK_S = 0.0025
SAMPLE_EVERY_S = 0.04  # chunks take about 6 % of a run
SMOOTH = 2  # chunks on each side in the running median of chunk times


def chunk() -> int:
    seen: dict[tuple[int, ...], int] = {}
    members = set()
    acc = 0
    big = 1 << 200
    for i in range(1250):
        word = (i % 5, i % 7, (i * 3) % 11, i % 4)
        key = tuple(sorted(word))
        seen[key] = seen.get(key, 0) + 1
        members.add(word[::-1])
        big = big + (big >> 3) + i
        acc += len(seen) + (word in members)
    return acc + big % 997


def timed_chunk() -> float:
    t0 = time.perf_counter()
    chunk()
    return time.perf_counter() - t0


class Sampler:
    """Runs a timed chunk on SIGALRM every SAMPLE_EVERY_S between `start()`
    and `stop()`.  `times` holds the chunk durations in order and `paused`
    their sum, so a caller can take the chunks out of what it timed."""

    def __init__(self):
        self.times: list[float] = []
        self.paused = 0.0
        self._previous = None

    def _on_alarm(self, signum, frame):
        t = timed_chunk()
        self.times.append(t)
        self.paused += t

    def start(self) -> "Sampler":
        # the first runs of a function are slower while the interpreter
        # specialises its bytecode; their time still counts as paused
        for _ in range(3):
            self.paused += timed_chunk()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.times:  # a run shorter than one interval
            self.times.append(timed_chunk())


def op_speeds(times: list[float], spans: Iterable[tuple[int, int]]) -> list[float]:
    """The machine's slowness around each op, 1 at the nominal speed.

    The i-th span is (number of chunks before op i started, number when
    it ended).  The chunk times are smoothed by a running median over
    2 * SMOOTH + 1 chunks, which drops one-off stalls; an op's slowness is
    the mean of the smoothed values from SMOOTH chunks before it to SMOOTH
    chunks after it, so a long op gets the mean over its whole span."""
    n = len(times)
    smooth = [statistics.median(times[max(0, j - SMOOTH):j + SMOOTH + 1]) / NOMINAL_CHUNK_S for j in range(n)]
    prefix = [0.0]
    for s in smooth:
        prefix.append(prefix[-1] + s)
    speeds = []
    for first, last in spans:
        lo = min(max(0, first - SMOOTH), n - 1)
        hi = max(min(n, last + SMOOTH), lo + 1)
        speeds.append((prefix[hi] - prefix[lo]) / (hi - lo))
    return speeds
