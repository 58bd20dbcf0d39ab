"""Machine-speed normalization for the end-to-end timings.

The machines this benchmark runs on are shared: a fixed pure-Python loop
runs up to 40% slower for seconds at a time, so raw medians of two runs of
the same code differ by more than any bound worth setting.  The benchmark
therefore interleaves a short fixed probe with the work it times, and scales
each timed sample by ``REFERENCE_PROBE_MS`` over the probes taken around it:
a sample is reported in milliseconds of a machine on which the probe takes
``REFERENCE_PROBE_MS``.  A change to the library moves the work but not the
probe, so it moves the normalized figure by the same factor as the raw one.
A batch set-up, seconds long and probed by nothing inside it, is scaled by
the run's median probe instead, a server start by the probes just before and
after it, and compile samples by a yardstick of their own (``yardstick_ms``).
Raw figures stay in the run's record.
"""

from __future__ import annotations

import ast
import bisect
import statistics
import threading
import time

#: The probe's time on the reference machine state, frozen.
REFERENCE_PROBE_MS = 2.0
#: The probe runs in chunks with a GIL release between them, so a probe in
#: one thread delays another thread's response handling by at most a chunk.
CHUNKS = 8
CHUNK_ITERATIONS = 4000
#: Probes within this many seconds of a sample's interval describe it.
WINDOW_S = 0.5


#: The compile yardstick's time on the reference machine state, frozen.
REFERENCE_YARDSTICK_MS = 3.8
#: Fixed Python source for the yardstick.
YARDSTICK_SOURCE = "".join(
    f"def f{i}(a, b):\n    return [x * a + b for x in range({i}) if x % 3]\n\n"
    for i in range(40)
)


def yardstick_ms() -> float:
    """CPython parsing and compiling ``YARDSTICK_SOURCE``.  It builds and
    walks object trees as ``compile_program`` does, so it slows with the
    machine the way compilation does; the arithmetic probe follows
    compilation only part of the way."""
    start = time.perf_counter()
    compile(ast.parse(YARDSTICK_SOURCE), "<yardstick>", "exec")
    return (time.perf_counter() - start) * 1e3


def normalized_compile_ms(run) -> float:
    """``run()``, which returns raw milliseconds of compilation, between two
    yardstick timings; the result scaled to the reference machine state."""
    before = yardstick_ms()
    ms = run()
    return ms * REFERENCE_YARDSTICK_MS * 2 / (before + yardstick_ms())


class Speedometer:
    """Probe times, and the factor that normalizes a sample taken among them."""

    def __init__(self):
        self._times: list[float] = []
        self._probes: list[float] = []
        self._lock = threading.Lock()

    def probe(self) -> None:
        total = 0.0
        for _ in range(CHUNKS):
            start = time.perf_counter()
            acc = 0
            for i in range(CHUNK_ITERATIONS):
                acc += i * i
            total += time.perf_counter() - start
            time.sleep(0)
        with self._lock:
            at = time.perf_counter()
            index = bisect.bisect(self._times, at)
            self._times.insert(index, at)
            self._probes.insert(index, total * 1e3)

    def probe_for(self, seconds: float) -> None:
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            self.probe()

    def factor(self, start: float, end: float) -> float:
        """``REFERENCE_PROBE_MS`` over the median probe near ``[start, end]``."""
        with self._lock:
            lo = bisect.bisect_left(self._times, start - WINDOW_S)
            hi = bisect.bisect_right(self._times, end + WINDOW_S)
            near = self._probes[lo:hi]
            if not near:
                index = min(bisect.bisect_left(self._times, start), len(self._times) - 1)
                near = self._probes[index : index + 1]
        return REFERENCE_PROBE_MS / statistics.median(near)

    def run_factor(self) -> float:
        """``REFERENCE_PROBE_MS`` over the median of every probe so far: the
        factor for a long interval such as set-up, which probes at its edges
        describe worse than the run's speed as a whole does."""
        return REFERENCE_PROBE_MS / self.median_ms()

    def median_ms(self) -> float:
        with self._lock:
            return statistics.median(self._probes)

    def __len__(self) -> int:
        return len(self._probes)
