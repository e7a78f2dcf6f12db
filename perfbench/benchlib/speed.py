"""Timings at reference speed, on a host whose speed drifts.

The benchmark runs on a few cores of a shared host.  How fast those
cores run the same code drifts by up to 2x, within seconds (other
tenants, not the program), so a raw wall-clock time measures the host as
much as the program.  The benchmark therefore runs a small fixed
*reference probe* interleaved with the program, on the same CPU, and
scales each timed operation to the host speed at which the probe takes
its reference time::

    time at reference speed = measured time x REFERENCE_MS / median time
                              of the probes nearest the operation

A program change moves the measured time and not the probe, so the
scaled time moves with the program; a slow host period slows both, and
cancels.  Scaling each operation by the probes taken around it, rather
than a whole run by all of its probes, is what follows drift within a
run.  The raw wall-clock figures are printed beside the scaled ones.

The probe is interpreter-bound work of the kind the program does: build,
sort and JSON round-trip a few hundred small dict rows.  It runs with the
garbage collector off, so the size of the program's heap never changes
its time, and the process is pinned to one CPU (:func:`pin_one_cpu`), so
it always runs where the program runs.
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import json
import os
import random
import statistics
import threading
import time
from typing import List, Optional

#: Median probe time (ms) at reference speed: about what the probe took
#: on an uncontended 2-vCPU Xeon host.  Only the scale of the reported
#: times depends on it; comparisons between runs do not.
REFERENCE_MS = 0.25

#: Probes an operation is scaled by, at least: those taken during it,
#: then the nearest ones on either side.
NEAREST = 9

#: Seconds between two samples of the background sampler.
SAMPLE_PERIOD_S = 0.05

_WORDS = ["w%05d" % random.Random(12345).randrange(100000) for _ in range(300)]


def pin_one_cpu() -> Optional[int]:
    """Pin this process (and the threads it starts later) to one CPU.

    With the interpreter lock only one thread runs Python at a time, so
    one CPU loses no parallelism; it spares every client/server hand-off
    a cross-CPU wake-up, whose cost on a shared host is mostly noise.
    Returns the CPU, or None where the system refuses the pinning.
    """
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


def _probe() -> None:
    rows = [{"w": w, "i": i, "r": w[::-1]} for i, w in enumerate(_WORDS)]
    rows.sort(key=lambda row: row["r"])
    json.loads(json.dumps(rows[:50]))


class SpeedMeter:
    """Probe samples of one phase, and the scale factors they give."""

    def __init__(self) -> None:
        #: Start time and duration (seconds) of each probe, in time order.
        self.starts: List[float] = []
        self.durations: List[float] = []
        #: Seconds the background sampler held the interpreter.
        self.busy_s = 0.0

    def reset(self) -> None:
        self.starts.clear()
        self.durations.clear()
        self.busy_s = 0.0

    def sample(self) -> float:
        """Run one probe now; returns and records its time in seconds."""
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            started = time.perf_counter()
            _probe()
            elapsed = time.perf_counter() - started
        finally:
            if was_enabled:
                gc.enable()
        self.starts.append(started)
        self.durations.append(elapsed)
        return elapsed

    def factor(self, start: float, end: float) -> float:
        """Time measured over [start, end] x factor = time at reference speed.

        From the median of the probes taken in the interval, widened to
        the :data:`NEAREST` probes nearest it when fewer ran inside.
        """
        count = len(self.starts)
        if count == 0:
            raise RuntimeError("no reference probe samples in this phase")
        low = bisect.bisect_left(self.starts, start)
        high = bisect.bisect_right(self.starts, end)
        while high - low < min(NEAREST, count):
            before = start - self.starts[low - 1] if low > 0 else None
            after = self.starts[high] - end if high < count else None
            if after is None or (before is not None and before <= after):
                low -= 1
            else:
                high += 1
        return REFERENCE_MS / (statistics.median(self.durations[low:high]) * 1e3)

    def scale(self, start: float, elapsed: float) -> float:
        """``elapsed`` seconds measured from ``start``, at reference speed."""
        return elapsed * self.factor(start, start + elapsed)

    @contextlib.contextmanager
    def sampling(self, period_s: float = SAMPLE_PERIOD_S):
        """Probe every ``period_s`` from a background thread.

        For operations too long to interleave probes between: the
        sampler's time is added to :attr:`busy_s`, which the caller
        subtracts from what it timed.
        """
        stop = threading.Event()

        def loop():
            while not stop.wait(period_s):
                started = time.perf_counter()
                self.sample()
                self.busy_s += time.perf_counter() - started

        thread = threading.Thread(target=loop, name="speed-sampler", daemon=True)
        self.sample()
        thread.start()
        try:
            yield self
        finally:
            stop.set()
            thread.join()
            self.sample()
