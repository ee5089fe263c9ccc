"""Machine-speed probe: job times expressed at a fixed reference speed.

On a shared host the speed of a plain CPU loop drifts by up to 2x within
minutes, so raw job times measure the neighbours as much as the program.
The probe is a fixed piece of pure-Python work shaped like the program's
inner loops (products of sparse polynomials stored as dicts from exponent
tuples to Fractions).  It never touches `initalg`, so a change to the
program cannot change its time; only the machine can.

`SpeedProbe` samples the machine while a job runs: every `INTERVAL_S` of
this process's CPU time a SIGVTALRM handler runs one chunk and records how
long it took.  After the job it runs chunks for `AFTER_SHARE` of the job's
latency (at least one), so short jobs get a sample too.  A job's latency
excludes the chunks run inside it, and

    reference seconds = latency * REFERENCE_CHUNK_S / mean chunk time

is the time the job would take on a machine where one chunk takes
`REFERENCE_CHUNK_S`.
"""

from __future__ import annotations

import signal
from fractions import Fraction
from time import perf_counter

INTERVAL_S = 0.01
AFTER_SHARE = 0.1
REFERENCE_CHUNK_S = 1e-3

_A = {(i, j, 3 - i - j): Fraction(i - 2 * j + 1, j + 2) for i in range(4) for j in range(4 - i)}
_B = {(i, 2 - i, 0): Fraction(3 * i - 1, i + 1) for i in range(3)}


def chunk() -> None:
    """About 1 ms of work on the reference machine."""
    for _ in range(6):
        out = {}
        for ea, ca in _A.items():
            for eb, cb in _B.items():
                e = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2])
                c = out.get(e, 0) + ca * cb
                if c:
                    out[e] = c
                else:
                    out.pop(e, None)
        sorted(out.items(), reverse=True)


def timed_chunks(budget: float) -> list[float]:
    """Chunk times, run until `budget` seconds have passed (at least one chunk)."""
    times = []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        chunk()
        t1 = perf_counter()
        times.append(t1 - t0)
        if t1 - start >= budget:
            return times


def reference_seconds(seconds: float, chunk_times: list[float]) -> float:
    return seconds * REFERENCE_CHUNK_S * len(chunk_times) / sum(chunk_times)


class SpeedProbe:
    def __init__(self):
        self.chunks: list[float] = []
        signal.signal(signal.SIGVTALRM, self._on_tick)

    def _on_tick(self, signum, frame):
        t0 = perf_counter()
        chunk()
        self.chunks.append(perf_counter() - t0)

    def start(self) -> None:
        self.chunks = []
        signal.setitimer(signal.ITIMER_VIRTUAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> float:
        """Stop sampling; returns the time spent in chunks inside the job."""
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        return sum(self.chunks)

    def finish(self, latency: float) -> list[float]:
        """All chunk times of the job, after sampling `AFTER_SHARE` of its latency."""
        return self.chunks + timed_chunks(AFTER_SHARE * latency)
