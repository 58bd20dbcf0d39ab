"""The repository's benchmark: ordered graph queries on road and social graphs,
and the query service under an open-loop load with mutations.

    python3 perfbench/run.py --workload road --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics on the unmodified library;
``--trace 1`` wraps each layer's public functions with timing shims (see
``layers.py``) and reports the per-layer metrics instead.  Workloads:

``road``    road_grid(110, 140), the RD stand-in: hundreds of rounds with
            tiny frontiers, so per-round fixed costs dominate.
``social``  rmat(13, 24), the TW stand-in: a few rounds with large frontiers,
            so per-edge work dominates.
``serve``   ``repro serve`` on rmat scale 12 in its own process, driven open
            loop with Zipf sources and periodic ``/mutate`` batches.

Every workload reports every end-to-end metric, so each names a role that
all three have: ``query_ms`` is the slow path (the vectorized tier; for serve,
reads that ran a traversal), ``fast_query_ms`` the fast path (the native
tier; for serve, cache hits), ``throughput_qps`` the closed-loop rate of the
slow path (for serve, of a fixed hit/miss mix at saturation).  ``*.p50`` of a
workload is the geometric mean of each program's median; ``*.tail`` is the
90th percentile, and a run takes enough samples to leave ten beyond it.
``fast_query_ms.tail`` is in the record but is no end-to-end metric: a
cache hit takes about a millisecond, so its tail is mostly the time the
host's scheduler takes to run the server and the generator, which varies
between runs of the same code by more than any bound worth setting.
Timings are normalized by yardsticks the benchmark owns (``speed.py``); the
raw figures are in the record.

Every answer is checked against an independent reference (``refs.py``).  A
line holding the full record (environment fingerprint, tail percentiles and
sample counts, failing programs) precedes the last line, which is the result
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _spec() -> tuple[dict, dict]:
    """BENCHMARK.json, and the unit of each metric it names."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec, {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("road", "social", "serve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no library sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec, units = _spec()
    # A terminated run unwinds like a failed one, so the server is reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    from common import fingerprint, isolated_run

    with isolated_run() as scratch:
        if args.workload == "serve":
            import serve_load

            metrics, attempted, failed, details = serve_load.run(
                args.seed, args.seconds, scratch, traced=bool(args.trace)
            )
        else:
            import batch

            sizes = batch.SIZES[args.workload]
            if args.trace:
                import layers

                metrics, attempted, failed, details = batch.run_traced(
                    args.workload, args.seed, args.seconds, scratch, sizes, layers.SpanStore()
                )
            else:
                metrics, attempted, failed, details = batch.run_untraced(
                    args.workload, args.seed, args.seconds, scratch, sizes
                )
        env = fingerprint()

    metrics["fail_ratio"] = failed / attempted
    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
    else:
        names = [m["name"] for m in spec["end_to_end"]]
    # Per-layer rows a workload does not exercise read 0 (no work done there).
    chosen = {name: {"value": float(metrics.get(name, 0.0)), "unit": units[name]} for name in names}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": env,
        "all_metrics": metrics,
        **details,
    }
    print(json.dumps({"record": record}, default=float))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": chosen,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
