"""Host-speed gauge: samples how fast the host runs a fixed piece of work
while a timed section runs.

The benchmark's host is a shared virtual machine whose vCPUs each run at
one of two speeds, about 1.6x apart, and switch between them every few
seconds (NOTES.md). A timing taken there says as much about the host as
about the program. While a Gauge is active, a SIGALRM interval timer runs
`speed_sample` every INTERVAL_S in the main thread, between bytecodes of
whatever the section is doing, and records how long it took. The mean
sample time is the host's speed over the section, in the same process and
the same spells as the section itself; `scaled` turns a section's time into
seconds on a host where one sample takes REFERENCE_S.

This module imports only the standard library, so that a process can start
a gauge before it imports anything else.
"""

import gc
import json
import math
import signal
import time

INTERVAL_S = 0.025
# Samples taken right before and right after each section. A long call into
# C code (json.loads of a whole series file) defers the timer's signal until
# it returns, so a short section may get no sample of its own.
BRACKET = 4
# Scaled timings are seconds on a host where one speed sample takes this long.
REFERENCE_S = 0.0004
_FLOATS_JSON = json.dumps([i * 0.1234567 for i in range(1500)])


def speed_sample() -> float:
    """Seconds for a fixed piece of work that uses no bhdimer code: an
    interpreted float loop and the parse of a JSON list of floats.

    The slow host state slows allocation-heavy code more than arithmetic;
    this mix follows the workloads' call and read-back times more closely
    than either part alone (NOTES.md). It holds the GIL throughout, so in a
    threaded section it is timed without waiting for other threads, and it
    keeps the garbage collector out of the sample.
    """
    collecting = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(1, 1500):
        acc += math.sqrt(i) / i
    json.loads(_FLOATS_JSON)
    seconds = time.perf_counter() - t0
    if collecting:
        gc.enable()
    return seconds


class Gauge:
    """Samples the host's speed from start() to stop(), or while a `with`
    block runs.

    `summary()` gives the number of samples, `sampled_s` (the time the
    timer's samples took inside the block, which the block's own timing
    includes) and `mean_s` (the mean time of all samples, BRACKET before
    and after the block included).
    """

    def __init__(self):
        self.samples: list[float] = []
        self.ticks: list[float] = []

    def _tick(self, signum, frame) -> None:
        self.ticks.append(speed_sample())

    def start(self) -> "Gauge":
        self.samples += [speed_sample() for _ in range(BRACKET)]
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.samples += self.ticks + [speed_sample() for _ in range(BRACKET)]

    def __enter__(self) -> "Gauge":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def summary(self) -> dict:
        return {
            "samples": len(self.samples),
            "sampled_s": math.fsum(self.ticks),
            "mean_s": math.fsum(self.samples) / len(self.samples),
        }


def scaled(seconds: float, gauge: dict) -> float:
    """A section's time without its samples, at REFERENCE_S per sample."""
    return (seconds - gauge["sampled_s"]) * REFERENCE_S / gauge["mean_s"]
