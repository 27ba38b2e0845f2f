"""Timing in reference seconds: wall time corrected for the host's speed.

A shared host runs the same Python code up to twice as slowly for
seconds or minutes at a time, while other tenants load its cores, and
the speed changes within a single operation of a second or two.  Raw
wall time would measure that load.  So while an operation runs, a
timer signal samples the host's speed every ``TICK_INTERVAL`` seconds
by timing a short fixed loop (a tick), and a calibration of
``CALIBRATION_TICKS`` ticks follows every operation.  The operation's
wall time, less the ticks' own time, is scaled by the reference tick
time over the mean of the ticks taken during it and of the
calibrations on either side.

The loop does the kinds of work the program does (small objects,
attribute access, lists, dicts, sets and calls), so that it slows as
the program slows.  It belongs to the benchmark, so a change to the
program cannot change it.
"""

from __future__ import annotations

import signal
import statistics
import time

# One tick's time on an unloaded core of the reference machine
# (Intel Xeon, 2 vCPU, CPython 3.11.7).
REFERENCE_TICK_S = 0.35e-3
TICK_ROUNDS = 3
TICK_INTERVAL = 0.025
CALIBRATION_TICKS = 20
NODES = 200


class _Node:
    __slots__ = ("kids", "val")

    def __init__(self, val):
        self.kids = []
        self.val = val


def _round():
    nodes = [_Node(i) for i in range(NODES)]
    for i in range(1, NODES):
        nodes[(i - 1) // 2].kids.append(nodes[i])
    degree = {}
    stack = [nodes[0]]
    while stack:
        node = stack.pop()
        degree[node.val] = len(node.kids)
        stack.extend(node.kids)
    inner = frozenset(k for k, v in degree.items() if v)
    return len(inner) + sum(min(v, 1) for v in degree.values())


def tick():
    """Seconds one tick takes now."""
    t0 = time.perf_counter()
    for _ in range(TICK_ROUNDS):
        _round()
    return time.perf_counter() - t0


def calibrate():
    """Mean seconds of one tick, over a calibration."""
    return statistics.fmean(tick() for _ in range(CALIBRATION_TICKS))


class SpeedMeter:
    """Times calls in wall and in reference seconds."""

    def __init__(self):
        self.ticks = []
        self.last = calibrate()

    def _on_alarm(self, signum, frame):
        self.ticks.append(tick())

    def time(self, fn, *args, sample=True):
        """Call ``fn(*args)``: (its result, wall seconds, reference seconds).

        With ``sample=False`` no ticks run during the call, only the
        calibrations around it: for a call that waits on another
        process, where ticks would run beside the work, not within it.
        """
        self.ticks = []
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        try:
            if sample:
                signal.setitimer(signal.ITIMER_REAL, TICK_INTERVAL, TICK_INTERVAL)
            t0 = time.perf_counter()
            try:
                result = fn(*args)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            wall = time.perf_counter() - t0 - sum(self.ticks)
        finally:
            signal.signal(signal.SIGALRM, previous)
        after = calibrate()
        speed = statistics.fmean([self.last, after, *self.ticks])
        self.last = after
        return result, wall, wall * REFERENCE_TICK_S / speed
