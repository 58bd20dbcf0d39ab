"""Shared pieces: run isolation, percentiles, environment fingerprint."""

from __future__ import annotations

import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: The ``*.tail`` percentile unless a metric fixes its own; a run keeps
#: measuring until it has enough samples for at least ten to lie beyond it.
TAIL_PERCENTILE = 90
MIN_TAIL_SAMPLES = 100


@contextmanager
def isolated_run():
    """A private scratch directory inside the checkout for one run.

    The kernel cache, forensics state and compiler temp files all go under
    it, so set-up always pays cold native builds and nothing is written to
    ``~/.cache`` or elsewhere in the repository.  Removed on exit.
    """
    base = ROOT / ".perfbench_tmp"
    base.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=base))
    saved = {k: os.environ.get(k) for k in ("REPRO_KERNEL_CACHE", "REPRO_STATE_DIR", "TMPDIR")}
    saved_tempdir = tempfile.tempdir
    (scratch / "tmp").mkdir()
    os.environ["REPRO_KERNEL_CACHE"] = str(scratch / "kernels")
    os.environ["REPRO_STATE_DIR"] = str(scratch / "state")
    os.environ["TMPDIR"] = str(scratch / "tmp")
    tempfile.tempdir = str(scratch / "tmp")
    try:
        yield scratch
    finally:
        tempfile.tempdir = saved_tempdir
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass  # another run still holds its own directory


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values)) if values else 0.0


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, int(-(-pct * len(ordered) // 100)))
    return float(ordered[min(rank, len(ordered)) - 1])


def tail(values, pct: float = TAIL_PERCENTILE) -> dict:
    """A tail percentile, its sample count and the samples beyond it."""
    n = len(values)
    return {
        "percentile": pct,
        "value": percentile(values, pct),
        "samples": n,
        "beyond": n - int(-(-pct * n // 100)),
    }


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _gxx_version() -> str:
    try:
        out = subprocess.run(
            ["g++", "--version"], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return out.stdout.splitlines()[0] if out.returncode == 0 and out.stdout else "unavailable"


def calibration_ms() -> float:
    """Median time of a fixed numpy loop: a machine-speed yardstick that a
    machine-normalized gate can divide by."""
    import numpy as np

    rng = np.random.default_rng(0)
    data = rng.random(200_000)
    matrix = rng.random((120, 120))
    times = []
    for _ in range(7):
        start = time.perf_counter()
        for _ in range(5):
            np.sort(data)
            matrix @ matrix
            np.cumsum(data)
        times.append((time.perf_counter() - start) * 1e3)
    return median(times)


def fingerprint() -> dict:
    import numpy
    import scipy

    from repro.backend.native import discover_toolchain

    toolchain = discover_toolchain()
    return {
        "cores": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "gxx": _gxx_version(),
        "openmp": bool(toolchain and toolchain.openmp),
        "calibration_ms": calibration_ms(),
    }
