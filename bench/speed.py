"""Machine-speed sampling, so that timings are reported at a fixed nominal speed.

The machines this benchmark runs on are shared: the same interpreter loop
runs up to 1.6 times slower for stretches of seconds to minutes while a
neighbour is busy, and CPU time slows as much as wall time.  A run
therefore samples the speed of its own CPU while it works: every
`PERIOD_S` a SIGALRM handler runs a fixed pure-Python kernel twice in the
main thread, between the program's own bytecodes, and times the second
pass.  An operation's time is then scaled by NOMINAL_S / (mean kernel time
during the operation), which gives the time the operation would have
taken at the nominal speed.  The slowest tenth of the samples is left out
of the mean, so that a sample stretched by an interruption does not count.

The kernel shares the core and the interpreter with the program, so the
program's own state could leak into the samples and cancel part of a
change.  Two things keep that small: the kernel allocates nothing (it
works on the interpreter's cached small ints), and only its second pass is
timed, after the first has brought its code and data back into cache.  A
first pass runs 5-15 % slower than the second depending on what the
program was doing, so timing it would compress such a change by as much.
The sampling costs under 1 % of the run, the same share on every commit.
"""

from __future__ import annotations

import signal
import time

PERIOD_S = 0.005
NOMINAL_S = 16e-6   # kernel time at the nominal speed: about its median on a 2.1 GHz Xeon
_MIN_SAMPLES = 5
_TRIM = 0.1  # share of the slowest samples left out


def _kernel() -> int:
    x = 0
    for k in range(256):  # ints up to 256 are cached: the loop allocates nothing
        x ^= k
    for k in range(144):
        x ^= k
    return x


class SpeedSampler:
    """Samples the kernel's duration on a wall-clock timer while active."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        _kernel()  # brings the kernel back into cache
        start = time.perf_counter()
        _kernel()
        self.starts.append(start)
        self.durations.append(time.perf_counter() - start)

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def nominal_seconds(self, start: float, end: float) -> float:
        """Wall seconds from start to end, scaled to the nominal speed.

        Uses the samples taken in [start, end], widened step by step when an
        operation is too short to hold `_MIN_SAMPLES` of them.
        """
        pad = 0.0
        while True:
            window = [d for s, d in zip(self.starts, self.durations)
                      if start - pad <= s <= end + pad]
            if len(window) >= _MIN_SAMPLES or pad > 60.0:
                break
            pad = max(2 * pad, PERIOD_S * _MIN_SAMPLES)
        if not window:
            return end - start
        kept = sorted(window)[: max(1, int(len(window) * (1 - _TRIM)))]
        return (end - start) * NOMINAL_S * len(kept) / sum(kept)
