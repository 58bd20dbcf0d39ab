"""The ``road`` and ``social`` workloads: one analyst's closed loop of DSL queries.

Each query compiles nothing: the programs are compiled once in set-up (the
cost ``setup_s`` reports) and then run back to back through the public
``compile_program(...).run(...)`` API, on the vectorized tier (the whole mix)
and on the native tier (the programs it lowers).  Schedules are the library
defaults except for the paper's per-class choice (the ``graphit`` preset of
``repro.algorithms.frameworks``): eager with bucket fusion at the dataset's
hand-tuned Δ for the Δ-stepping family, lazy constant-sum for k-core, lazy
for set cover.  ``num_threads`` stays at its default.

Run as a script, this module is the child process of the ``obs.overhead_pct``
measurement: it times the vectorized mix with whatever telemetry settings
its environment carries.
"""

from __future__ import annotations

import gc
import itertools
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

import refs
from common import MIN_TAIL_SAMPLES, ROOT, geomean, median, peak_rss_mb, tail
from speed import Speedometer, normalized_compile_ms

#: Programs per workload, in the order one loop cycle issues them.
MIXES = {
    "road": ("sssp", "ppsp", "astar", "kcore", "setcover", "widest"),
    "social": ("sssp", "ppsp", "wbfs", "kcore", "setcover", "widest"),
}
#: Programs the native tier lowers today.
NATIVE_MIX = ("sssp", "ppsp", "kcore", "widest")
ALL_PROGRAMS = ("sssp", "ppsp", "astar", "wbfs", "kcore", "setcover", "widest")

#: Full-size inputs: the RD and TW stand-ins of ``repro.eval.datasets``.
SIZES = {
    "road": {"rows": 110, "cols": 140},
    "social": {"scale": 13, "edge_factor": 24},
}
NETWORKS = 8  # graphs per run
POOL = 2  # distinct sources and distinct pairs per graph
NATIVE_PASSES = 5  # native mixes per vectorized mix, for enough tail samples
SETUP_REPEATS = 2  # cold set-ups per run; each builds every kernel afresh
OBS_NETWORKS = 2  # graphs per child of the obs.overhead_pct measurement
TRACED_SAMPLES = 30  # per tier and half of a traced run, which reports no tails
OUTPUT_VECTOR = {
    "sssp": "dist", "wbfs": "dist", "ppsp": "dist", "astar": "dist",
    "widest": "width", "kcore": "D",
}


@dataclass
class Network:
    """One generated graph, its variants, and the query endpoints drawn on it."""

    graphs: dict  # "weighted", "symmetric", "log" -> CSRGraph
    sources: list
    pairs: list


@dataclass
class Inputs:
    """Everything a run's programs receive, generated from the seed."""

    networks: list
    delta: int


@dataclass
class Query:
    tier: str
    program: str
    source: int | None
    target: int | None
    ms: float
    answer: object
    fallback: bool
    network: int = 0
    stats: object = None
    start: float = 0.0  # perf_counter at the call
    norm_ms: float = 0.0  # ``ms`` normalized to the reference machine speed


@dataclass
class Setup:
    programs: dict = field(default_factory=dict)  # (tier, name) -> CompiledProgram
    externs: dict = field(default_factory=dict)


def graph_for(name: str) -> str:
    if name in ("kcore", "setcover"):
        return "symmetric"
    return "log" if name == "wbfs" else "weighted"


def make_graphs(workload: str, seed: int, sizes: dict) -> dict:
    from repro.graph.generators import assign_log_weights, rmat, road_grid

    if workload == "road":
        graph = road_grid(sizes["rows"], sizes["cols"], seed=seed)
        return {"weighted": graph, "symmetric": graph}
    graph = rmat(sizes["scale"], sizes["edge_factor"], seed=seed)
    return {
        "weighted": graph,
        "symmetric": graph.symmetrized(),
        "log": assign_log_weights(graph, seed=seed + 1),
    }


def banded_sources(graph, count: int, rng) -> list[int]:
    """``count`` sources, one from each of ``count`` equal bands of the
    vertices ranked by how far out they lie (the larger of their distances to
    two far-apart vertices, found by a double sweep).  A query from a road
    grid's corner costs twice one from its centre, so uniform draws would
    make every per-program median swing with the seed; one source per band
    gives every seed the same spread of difficulty."""
    from scipy.sparse.csgraph import dijkstra

    matrix = refs.to_scipy(graph.indptr, graph.indices, graph.weights)
    active = np.flatnonzero(np.diff(graph.indptr) > 0)
    start = int(rng.choice(active))
    rows = []
    for _ in range(2):
        row = dijkstra(matrix, directed=False, indices=start)
        start = int(np.argmax(np.where(np.isfinite(row), row, -1.0)))
        rows.append(dijkstra(matrix, directed=False, indices=start))
    outwardness = np.maximum(rows[0], rows[1])[active]
    ranked = active[np.isfinite(outwardness)]
    ranked = ranked[np.argsort(outwardness[np.isfinite(outwardness)], kind="stable")]
    bands = np.array_split(ranked, count)
    return rng.permutation([int(rng.choice(band)) for band in bands]).tolist()


def mid_distance_pairs(graphs: dict, sources: list, rng) -> list:
    """Pair each source with a target from the middle decile of its reachable
    vertices by distance.  A point-to-point query's cost grows with how much
    of the graph lies closer than its target, so random targets would make
    the ppsp and A* medians swing with the draw."""
    graph = graphs["weighted"]
    matrix = refs.to_scipy(graph.indptr, graph.indices, graph.weights)
    pairs = []
    for source, row in zip(sources, refs.distances(matrix, sources)):
        reached = np.flatnonzero(row < refs.INT_MAX)
        order = reached[np.argsort(row[reached], kind="stable")]
        band = order[int(0.45 * order.size) : int(0.55 * order.size) + 1]
        pairs.append((source, int(rng.choice(band))))
    return pairs


def make_inputs(workload: str, seed: int, sizes: dict, networks: int = NETWORKS) -> Inputs:
    """``networks`` graphs of the workload's class, each with ``POOL`` sources
    and ``POOL`` pairs.  One random graph makes whole-graph programs such as
    k-core cost 40% more or less from seed to seed, several average that out.
    The passes visit every (graph, slot) combination in turn instead of
    drawing them at random, for the same reason."""
    from repro.eval.datasets import BEST_DELTA

    rng = np.random.default_rng(seed)
    generated = []
    for index in range(networks):
        graphs = make_graphs(workload, seed * NETWORKS + index, sizes)
        sources = banded_sources(graphs["weighted"], POOL, rng)
        pair_sources = banded_sources(graphs["weighted"], POOL, rng)
        generated.append(Network(graphs, sources, mid_distance_pairs(graphs, pair_sources, rng)))
    delta = BEST_DELTA["RD" if workload == "road" else "TW"]
    return Inputs(generated, delta)


def plan_entry(inputs: Inputs, number: int) -> dict:
    """Pass ``number`` of a tier: the graphs in turn, then the next slot of
    each graph's source and pair pools."""
    count = len(inputs.networks)
    index = number % count
    network = inputs.networks[index]
    slot = (number // count) % POOL
    entry = {"network": index}
    for name in ALL_PROGRAMS:
        if name in ("ppsp", "astar"):
            entry[name] = network.pairs[slot]
        elif name in ("kcore", "setcover"):
            entry[name] = (None, None)
        else:
            entry[name] = (network.sources[slot], None)
    return entry


def schedules(delta: int) -> dict:
    from repro.midend.schedule import Schedule

    fused = Schedule(priority_update="eager_with_fusion", delta=delta)
    return {
        "sssp": fused,
        "ppsp": fused,
        "astar": fused,
        "widest": fused,
        "wbfs": fused.with_(delta=1),
        "kcore": Schedule(priority_update="lazy_constant_sum"),
        "setcover": Schedule(priority_update="lazy"),
    }


def argv(name: str, source, target) -> list[str]:
    args = [name, "-"]
    if source is not None:
        args.append(str(source))
    if target is not None:
        args.append(str(target))
    return args


def set_up(workload: str, seed: int, sizes: dict, native: bool = True, networks: int = NETWORKS):
    """Generate the inputs, compile every program, build every native kernel.

    The first native run of each program is what builds its kernel, so set-up
    ends with one warm-up run per native program: after it, the first timed
    query can be answered.
    """
    from repro import compile_program
    from repro.backend.extern_library import astar_externs, setcover_externs
    from repro.lang.programs import ALL_PROGRAMS as SOURCES

    inputs = make_inputs(workload, seed, sizes, networks)
    plan = schedules(inputs.delta)
    setup = Setup(externs={"astar": astar_externs(), "setcover": setcover_externs(seed=seed)})
    for name in MIXES[workload]:
        setup.programs[("vectorized", name)] = compile_program(SOURCES[name], plan[name])
    if native:
        first = plan_entry(inputs, 0)
        graphs = inputs.networks[first["network"]].graphs
        for name in NATIVE_MIX:
            program = compile_program(SOURCES[name], plan[name].with_(execution="native"))
            setup.programs[("native", name)] = program
            program.run(argv(name, *first[name]), graph=graphs[graph_for(name)])
    return inputs, setup


def run_query(setup: Setup, inputs: Inputs, tier: str, name: str, entry: dict) -> Query:
    from repro.backend.extern_library import collect_setcover_result

    program = setup.programs[(tier, name)]
    program.native_fallback_reason = None
    graph = inputs.networks[entry["network"]].graphs[graph_for(name)]
    source, target = entry[name]
    start = time.perf_counter()
    result = program.run(
        argv(name, source, target), graph=graph, extern_functions=setup.externs.get(name)
    )
    ms = (time.perf_counter() - start) * 1e3
    if name == "setcover":
        answer = collect_setcover_result(result)[0]
    else:
        vector = result.globals[OUTPUT_VECTOR[name]]
        answer = int(vector[target]) if target is not None else vector
    return Query(
        tier, name, source, target, ms, answer,
        fallback=program.native_fallback_reason is not None,
        network=entry["network"],
        stats=result.stats if tier == "vectorized" else None,
        start=start,
    )


def query_loop(workload, inputs, setup, seconds, speed, on_query=None, min_samples=None,
               compile_ms=None, native=True):
    """The closed loop: whole cycles until ``seconds`` have passed and each tier
    has ``min_samples`` queries.  A cycle runs the vectorized mix, then
    ``NATIVE_PASSES`` native mixes, each pass on its tier's next plan entry; with a
    ``compile_ms`` list it also compiles the whole mix once, so compile
    samples spread over the run like the query samples do.  A speed probe
    precedes every timed query and the compile yardstick brackets every
    compile; samples come back normalized."""
    min_samples = MIN_TAIL_SAMPLES if min_samples is None else min_samples
    queries: list[Query] = []
    passes = [("vectorized", MIXES[workload])]
    if native:
        passes += [("native", NATIVE_MIX)] * NATIVE_PASSES
    counts = {tier: 0 for tier, _ in passes}
    numbers = {tier: itertools.count() for tier, _ in passes}
    start = time.perf_counter()
    limit = 2 * seconds + 40  # a slow machine ends the loop short of samples
    while True:
        for tier, mix in passes:
            entry = plan_entry(inputs, next(numbers[tier]))
            for name in mix:
                qid = len(queries)
                speed.probe()
                if on_query is not None:
                    on_query(qid, True)
                query = run_query(setup, inputs, tier, name, entry)
                if on_query is not None:
                    on_query(qid, False)
                else:
                    query.stats = None  # only the traced half reads them
                queries.append(query)
                counts[tier] += 1
        if compile_ms is not None:
            compile_ms.append(normalized_compile_ms(lambda: compile_mix(workload, inputs.delta)))
        elapsed = time.perf_counter() - start
        if (elapsed >= seconds and min(counts.values()) >= min_samples) or elapsed >= limit:
            break
    speed.probe()
    for query in queries:
        query.norm_ms = query.ms * speed.factor(query.start, query.start + query.ms / 1e3)
    return queries


def check(inputs: Inputs, queries: list[Query]) -> list[bool]:
    """Compare every answer with the independent reference; one verdict per
    query (a native fallback is a failure too)."""
    rows: dict = {}
    widths: dict = {}
    cores: dict = {}

    def csr(network, key):
        graph = inputs.networks[network].graphs[key]
        return graph.indptr, graph.indices, graph.weights

    def distance_row(network, key, source):
        if (network, key) not in rows:
            net = inputs.networks[network]
            pool = sorted(set(net.sources) | {s for s, _ in net.pairs})
            table = refs.distances(refs.to_scipy(*csr(network, key)), pool)
            rows[(network, key)] = dict(zip(pool, table))
        return rows[(network, key)][source]

    verdicts = []
    for query in queries:
        name, net = query.program, query.network
        key = graph_for(name)
        if name in ("sssp", "wbfs"):
            ok = refs.same(query.answer, distance_row(net, key, query.source))
        elif name in ("ppsp", "astar"):
            ok = query.answer == int(distance_row(net, key, query.source)[query.target])
        elif name == "widest":
            if (net, query.source) not in widths:
                widths[(net, query.source)] = refs.widest(*csr(net, key), query.source)
            ok = refs.same(query.answer, widths[(net, query.source)])
        elif name == "kcore":
            if net not in cores:
                cores[net] = refs.coreness(*csr(net, key)[:2])
            ok = refs.same(query.answer, cores[net])
        else:
            ok = refs.is_cover(*csr(net, key)[:2], query.answer)
        verdicts.append(ok and not query.fallback)
    return verdicts


def compile_mix(workload: str, delta: int) -> float:
    """Milliseconds to ``compile_program`` the workload's whole mix (a
    per-program sample would put the median between two programs).  As in
    ``timeit``, garbage the queries left behind is collected first, so a
    sample does not pay for a collection of someone else's objects."""
    from repro import compile_program
    from repro.lang.programs import ALL_PROGRAMS as SOURCES

    plan = schedules(delta)
    gc.collect()
    start = time.perf_counter()
    for name in MIXES[workload]:
        compile_program(SOURCES[name], plan[name])
    return (time.perf_counter() - start) * 1e3


def timed_setup(workload, seed, sizes, scratch, tag):
    """One cold set-up in its own kernel cache, as a fresh process would see
    it: seconds, inputs and compiled programs."""
    from repro.backend.native import reset_toolchain_cache

    os.environ["REPRO_KERNEL_CACHE"] = str(scratch / f"kernels-{tag}")
    reset_toolchain_cache()
    start = time.perf_counter()
    inputs, setup = set_up(workload, seed, sizes)
    return time.perf_counter() - start, inputs, setup


def per_program_medians(queries: list[Query], tier: str, raw: bool = False) -> dict:
    samples: dict[str, list[float]] = {}
    for q in queries:
        if q.tier == tier:
            samples.setdefault(q.program, []).append(q.ms if raw else q.norm_ms)
    return {name: median(values) for name, values in sorted(samples.items())}


def latency_metrics(queries: list[Query]) -> tuple[dict, dict]:
    """``*.p50``: geometric mean over the mix of each program's median, so the
    figure never straddles two programs' modes.  ``*.tail``: the tail
    percentile over all queries of the tier.  ``raw.*``: the same before
    normalization."""
    metrics, shapes = {}, {}
    for tier, prefix in (("vectorized", "query_ms"), ("native", "fast_query_ms")):
        for raw, name in ((False, prefix), (True, f"raw.{prefix}")):
            metrics[f"{name}.p50"] = geomean(per_program_medians(queries, tier, raw).values())
            shapes[f"{name}.tail"] = tail(
                [q.ms if raw else q.norm_ms for q in queries if q.tier == tier]
            )
            metrics[f"{name}.tail"] = shapes[f"{name}.tail"]["value"]
    vectorized = [q.norm_ms for q in queries if q.tier == "vectorized"]
    metrics["throughput_qps"] = 1e3 * len(vectorized) / sum(vectorized)
    return metrics, shapes


def run_untraced(workload, seed, seconds, scratch, sizes):
    # Only the last set-up stays alive, so ``peak_rss_mb`` holds one copy of
    # the inputs and programs, as a user's process would.
    setup_s = []
    for repeat in range(SETUP_REPEATS):
        if setup_s:
            del inputs, setup
            gc.collect()
        seconds_taken, inputs, setup = timed_setup(workload, seed, sizes, scratch, repeat)
        setup_s.append(seconds_taken)
    speed = Speedometer()
    compile_ms: list[float] = []
    queries = query_loop(workload, inputs, setup, seconds, speed, compile_ms=compile_ms)
    rss = peak_rss_mb()  # before the references add the benchmark's own memory
    verdicts = check(inputs, queries)
    metrics, shapes = latency_metrics(queries)
    failed = verdicts.count(False)
    metrics.update(
        {
            "setup_s": median(setup_s) * speed.run_factor(),
            "compile_ms.p50": median(compile_ms),
            "peak_rss_mb": rss,
        }
    )
    details = {
        "tails": shapes,
        "raw_setup_s_samples": setup_s,
        "queries": {
            tier: sum(1 for q in queries if q.tier == tier) for tier in ("vectorized", "native")
        },
        "programs": program_rows(queries),
        "compile_ms_samples": len(compile_ms),
        "probe_ms": {"median": speed.median_ms(), "count": len(speed)},
        "failed_programs": sorted({q.tier + ":" + q.program for q, ok in zip(queries, verdicts) if not ok}),
    }
    return metrics, len(queries), failed, details


def run_traced(workload, seed, seconds, scratch, sizes, store):
    """Per-layer metrics: an untraced half, then the shims and a traced half."""
    import layers

    speed = Speedometer()
    _, inputs, setup = timed_setup(workload, seed, sizes, scratch, "plain")
    plain = query_loop(
        workload, inputs, setup, seconds / 2, speed, min_samples=TRACED_SAMPLES
    )

    layers.install(store)
    _, inputs, setup = timed_setup(workload, seed, sizes, scratch, "traced")
    setup_spans = len(store.spans)
    setup_counts = dict(store.counters)
    open_spans = {}

    def on_query(qid, starting):
        if starting:
            layers.current_query.set(qid)
            open_spans[qid] = store.open("bench.query", query=qid)
        else:
            store.close(open_spans.pop(qid))
            layers.current_query.set(None)

    traced = query_loop(
        workload, inputs, setup, seconds / 2, speed, on_query=on_query,
        min_samples=TRACED_SAMPLES, compile_ms=[],
    )
    verdicts = check(inputs, plain + traced)
    metrics = layer_metrics(store, traced, setup_spans, setup_counts)
    metrics.update(program_rows(plain))
    metrics["trace.overhead_ms"] = median(
        q.norm_ms for q in traced if q.tier == "vectorized"
    ) - median(q.norm_ms for q in plain if q.tier == "vectorized")
    metrics["obs.overhead_pct"] = obs_overhead(workload, seed, sizes)
    queries = plain + traced
    return metrics, len(queries), verdicts.count(False), {}


def program_rows(queries: list[Query]) -> dict:
    return {
        f"program.{name}.{suffix}": value
        for tier, suffix in (("vectorized", "ms"), ("native", "native_ms"))
        for name, value in per_program_medians(queries, tier).items()
    }


def layer_metrics(store, traced: list[Query], setup_spans: int, setup_counts: dict) -> dict:
    vec = {i for i, q in enumerate(traced) if q.tier == "vectorized"}
    nat = {i for i, q in enumerate(traced) if q.tier == "native"}
    n_vec, n_nat = max(1, len(vec)), max(1, len(nat))
    own_vec = store.layer_self_ms(vec)
    own_nat = store.layer_self_ms(nat)
    all_own = store.layer_self_ms()
    compiles = max(1, store.count("lang.parse"))
    cold_builds = [
        (s[2] - s[1]) * 1e3 for s in store.spans[:setup_spans] if s[0] == "native.build"
    ]
    vec_stats = [q.stats for q in traced if q.tier == "vectorized"]
    relaxations = sum(s.relaxations for s in vec_stats)
    query_wall = sum(store.durations_ms("bench.query"))
    hits = store.counters["native.cache_hits"] - setup_counts.get("native.cache_hits", 0)
    lookups = store.counters["native.builds"] - setup_counts.get("native.builds", 0)
    return {
        "lang.parse_ms": all_own.get("lang.parse", 0.0) / compiles,
        "midend.plan_ms": all_own.get("midend.plan", 0.0) / compiles,
        "backend.codegen_ms": all_own.get("backend.codegen", 0.0) / compiles,
        "native.codegen_ms": own_nat.get("native.codegen", 0.0) / n_nat,
        "native.codegen_calls_per_query": store.count("native.codegen", nat) / n_nat,
        "native.build_ms": median(cold_builds),
        "native.cache_hit_ratio": hits / lookups if lookups else 0.0,
        "native.dispatch_ms": (
            own_nat.get("native.dispatch", 0.0) + own_nat.get("runtime.interp", 0.0)
        ) / n_nat,
        "native.kernel_ms": own_nat.get("native.kernel", 0.0) / n_nat,
        "native.fallbacks": sum(1 for q in traced if q.fallback),
        "runtime.apply_ms": own_vec.get("runtime.apply", 0.0) / n_vec,
        "runtime.eager_ms": own_vec.get("runtime.eager", 0.0) / n_vec,
        "runtime.interp_ms": own_vec.get("runtime.interp", 0.0) / n_vec,
        "runtime.extern_ms": own_vec.get("runtime.extern", 0.0) / n_vec,
        "runtime.rounds": sum(s.rounds for s in vec_stats) / n_vec,
        "runtime.fused_rounds": sum(s.fused_rounds for s in vec_stats) / n_vec,
        "runtime.global_syncs": sum(s.global_syncs for s in vec_stats) / n_vec,
        "runtime.relaxations": relaxations / n_vec,
        "runtime.update_efficiency": (
            sum(s.priority_updates for s in vec_stats) / relaxations if relaxations else 0.0
        ),
        "buckets.dequeue_ms": own_vec.get("buckets.dequeue", 0.0) / n_vec,
        "buckets.dequeue_calls": store.count("buckets.dequeue", vec) / n_vec,
        "buckets.insert_ms": own_vec.get("buckets.insert", 0.0) / n_vec,
        "buckets.insert_calls": store.count("buckets.insert", vec) / n_vec,
        "unattributed_pct": (
            100.0 * all_own.get("bench.query", 0.0) / query_wall if query_wall else 0.0
        ),
    }


def obs_overhead(workload, seed, sizes, pairs: int = 2) -> float:
    """Always-on telemetry cost: the vectorized mix in child processes with
    telemetry on and with ``REPRO_METRICS=0 REPRO_FLIGHT=0``, alternating.
    The children generate ``OBS_NETWORKS`` graphs only: graph generation is
    most of a child's life and both sides of a pair share the inputs."""
    on, off = [], []
    for _ in range(pairs):
        for env_extra, sink in (({}, on), ({"REPRO_METRICS": "0", "REPRO_FLIGHT": "0"}, off)):
            env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **env_extra)
            out = subprocess.run(
                [sys.executable, __file__, workload, str(seed), json.dumps(sizes)],
                capture_output=True, text=True, env=env, timeout=170, cwd=ROOT,
            )
            if out.returncode != 0:
                raise RuntimeError(f"obs child failed: {out.stderr[-2000:]}")
            sink.extend(json.loads(out.stdout.strip().splitlines()[-1]))
    return 100.0 * (median(on) - median(off)) / median(off)


def _child(workload: str, seed: int, sizes: dict, cycles: int = 3) -> None:
    inputs, setup = set_up(workload, seed, sizes, native=False, networks=OBS_NETWORKS)
    mix = len(MIXES[workload])
    queries = query_loop(
        workload, inputs, setup, 0, Speedometer(), min_samples=cycles * mix, native=False
    )
    normalized = [q.norm_ms for q in queries]
    print(json.dumps([sum(normalized[i : i + mix]) for i in range(0, len(normalized), mix)]))


if __name__ == "__main__":
    _child(sys.argv[1], int(sys.argv[2]), json.loads(sys.argv[3]))
