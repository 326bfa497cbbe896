"""Machine-speed probe: rescale measured times to a fixed reference speed.

On a shared machine the speed of one core drifts by tens of percent within
seconds, and the drift swamps the effects a change to shiftkit has.  While a
``SpeedProbe`` runs, a SIGALRM interval timer interrupts the process every
``INTERVAL`` seconds and times one fixed ``reference_slice``: pure Python,
with the same kind of work as shiftkit's inner loops (exact modular
arithmetic on lists, modular powers, set lookups on bitmasks, small dicts,
subset enumeration, small function calls, JSON).  A time measured over a window is rescaled by
``REFERENCE_S / mean slice time`` in that window, so it reads as seconds on
a machine that runs the slice in ``REFERENCE_S``.  The mean, trimmed of its
top and bottom tenth, and not the median: slow bursts stretch the timed
code, and a median would ignore them.  The slice is part of the benchmark, not of shiftkit, so a
change to shiftkit moves the rescaled times as much as the raw ones.

``now`` is a clock that stops while a slice runs, so the slices' own time
is left out of every interval measured with it.  The garbage collector is
off during a slice, so a collection of shiftkit's objects is not charged to
the slice.  One process, one thread: the handler runs in the main thread
between bytecodes, where the timed code is.

Process CPU time is no substitute: on a shared 2-core host it drifts with
wall time, because a slow spell costs more CPU time for the same work, not
time spent waiting for a core.
"""

from __future__ import annotations

import bisect
import gc
import itertools
import json
import random
import signal
import statistics
from time import perf_counter

INTERVAL = 0.06
REFERENCE_S = 3.0e-3  # a fixed constant, near the slice time on an x86-64 host
MIN_SAMPLES = 5

_P = (1 << 61) - 1
_rng = random.Random(0)
_VEC = [_rng.randrange(_P) for _ in range(24)]
_ROWS = [[_rng.randrange(_P) for _ in range(24)] for _ in range(6)]
_MASKS = frozenset(m for m in range(200) if m & (m >> 1))


def reference_slice() -> int:
    # A slice of a few milliseconds tracks the timed code better than a
    # short one, which runs with cold caches after each interrupt.  The
    # modular powers stand for the prime checks, the combinations for the
    # subset scans, the small calls and JSON for the command line.
    acc = sum(_round() for _ in range(10))
    for i in range(60):
        acc ^= pow(3 + i, _P - 1 - i, _P)
    for c in itertools.combinations(range(12), 4):
        m = 0
        for b in c:
            m |= 1 << b
        acc += m & 3
    counts: dict = {}
    for i in range(300):
        key = f"k{i % 37}"
        counts[key] = counts.get(key, 0) + _inc(i)
    return acc + len(json.dumps(counts))


def _inc(i: int, step: int = 1) -> int:
    return i + step


def _round() -> int:
    v = _VEC
    for row in _ROWS:
        c = v[3]
        v = [(a - c * b) % _P for a, b in zip(v, row)]
    acc = 0
    for m in range(200):
        if (m ^ 5) in _MASKS:
            acc += m.bit_count()
    counts: dict = {}
    for m in _MASKS:
        counts[m & 15] = counts.get(m & 15, 0) + 1
    return acc + len(counts) + v[0] % 7


class SpeedProbe:
    def __init__(self):
        self.starts: list[float] = []  # slice start times on ``now``, ascending
        self.times: list[float] = []  # slice durations
        self.spent = 0.0

    def now(self) -> float:
        return perf_counter() - self.spent

    def _tick(self, signum, frame) -> None:
        collecting = gc.isenabled()
        gc.disable()
        t0 = perf_counter()
        reference_slice()
        dt = perf_counter() - t0
        if collecting:
            gc.enable()
        self.starts.append(t0 - self.spent)
        self.times.append(dt)
        self.spent += dt

    def __enter__(self) -> "SpeedProbe":
        for _ in range(MIN_SAMPLES):
            self._tick(None, None)
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def factor(self, t0: float, t1: float) -> float:
        """``REFERENCE_S`` over the trimmed mean slice time in ``[t0, t1]``
        (times on ``now``); a short window takes the ``MIN_SAMPLES`` slices
        around it."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.starts, t1)
        if hi - lo < MIN_SAMPLES:
            lo = max(0, min((lo + hi - MIN_SAMPLES) // 2, len(self.starts) - MIN_SAMPLES))
            hi = lo + MIN_SAMPLES
        inside = sorted(self.times[lo:hi])
        cut = len(inside) // 10
        return REFERENCE_S / statistics.fmean(inside[cut:len(inside) - cut])
