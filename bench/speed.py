"""Machine-speed probes, for reporting times at a nominal machine speed.

On a shared host the speed of this process's CPU moves by up to 2x within
seconds, and every absolute time with it.  A probe is a small fixed
computation of the same character as a workload (pure Python, small numpy
calls, or fresh copies of a million-entry vector) that never touches
paralens, so no change to paralens can move it.  Timing a probe next to an
op tells how slow the machine ran while the op ran, as ``probe time /
nominal probe time``; an op's time at nominal speed is its measured time
over the mean slowness of the probes that cover it.

Short ops are bracketed by a probe before and after.  A long op is also
sampled from inside: a ``SIGALRM`` interval timer runs the workload's inner
probe every ``PERIOD_S`` while the op runs (the handler runs between
bytecodes of the op), and the probe's own time is taken out of the op's.
The inner probe may differ from the bracketing one: an op that runs for
seconds works on a heap far larger than any cache, and follows a probe
with a large working set more closely than a cache-resident one.
"""

from __future__ import annotations

import gc
import signal
import time
from dataclasses import dataclass
from typing import Callable

PERIOD_S = 0.25


@dataclass(frozen=True)
class Probe:
    """A fixed computation, its time at nominal speed, and how many runs it
    takes the fastest of (a probe whose point is fresh memory runs once: a
    second run would find the first run's memory already mapped)."""

    fn: Callable[[], object]
    nominal_s: float
    repeats: int = 2

    def slowness(self) -> float:
        """Probe time over nominal, with the cyclic collector paused: a
        collection that starts inside a probe measures the heap the
        workload built, not the machine."""
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            best = float("inf")
            for _ in range(self.repeats):
                t0 = time.perf_counter()
                self.fn()
                best = min(best, time.perf_counter() - t0)
        finally:
            if was_enabled:
                gc.enable()
        return best / self.nominal_s


class Speedometer:
    """Probe samples around and inside ops.

    ``timed(fn, arg)`` returns ``(result, exception, seconds, slowness)``:
    the exception is ``None`` unless ``fn`` raised, ``seconds`` excludes
    probe time, and ``slowness`` is the mean over the samples that cover the
    op: the one before, any taken inside, the one after.
    """

    def __init__(self, bracket: Probe, inner: Probe, inside: bool = True) -> None:
        self.bracket = bracket
        self.inner = inner
        self.inside = inside
        self.samples: list[float] = []  # bracketing samples
        self._inner: list[tuple[float, float, float]] = []
        self._last = self.sample()

    def sample(self) -> float:
        self.samples.append(self.bracket.slowness())
        return self.samples[-1]

    def _on_alarm(self, signum, frame) -> None:
        t0 = time.perf_counter()
        s = self.inner.slowness()
        self._inner.append((t0, time.perf_counter(), s))

    def timed(self, fn: Callable, arg) -> tuple[object, BaseException | None, float, float]:
        self._inner = []
        if self.inside:
            previous = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        out, error = None, None
        t0 = time.perf_counter()
        try:
            out = fn(arg)
        except (Exception, SystemExit) as exc:  # the caller counts it as a failed op
            error = exc
        finally:
            t1 = time.perf_counter()
            if self.inside:
                signal.setitimer(signal.ITIMER_REAL, 0, 0)
                signal.signal(signal.SIGALRM, previous)
        spent = sum(e - s for s, e, _ in self._inner if s >= t0 and e <= t1)
        before = self._last
        self._last = self.sample()
        covering = [before] + [s for _, _, s in self._inner] + [self._last]
        return out, error, t1 - t0 - spent, sum(covering) / len(covering)
