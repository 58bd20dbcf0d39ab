"""The ``serve`` workload: ``repro serve`` in its own process under an open loop.

One generator process sends requests on a fixed schedule (open loop: a slow
server does not slow the schedule) over at most two keep-alive connections.
The traffic follows the repository's own serve and incremental benchmarks
where they fix a parameter: sources are Zipf(``ZIPF_S``) ranks over the
``HOT_POOL`` highest-out-degree vertices, as in ``repro.serve.bench``, and a
``/mutate`` batch has ``repro bench-incremental``'s size and kind mix.  Reads
are ``sssp`` and ``widest`` (answered from warm incremental sessions) and
``ppsp`` (the compiled path) in equal shares.  A ``/mutate`` batch is due
every ``MUTATE_INTERVAL_S``.  Latency is timed from each request's due time,
so a stall also counts against the requests queued behind it.

The latency metrics come from the base rung of a fixed ladder of offered
rates: ``query_ms`` over reads that ran a traversal (``.p50`` is the
geometric mean of each program's median, as in the batch workloads, and each
program also has its own ``program.<name>.ms`` row), ``fast_query_ms`` over
cache hits, and ``request_ms`` over all reads.  The ladder climbs while a
rung's tail meets ``LATENCY_LIMIT_MS`` with no read failing and no growing
backlog; the highest such rung is ``serve_max_qps``.  A write phase follows,
with a batch due every ``MUTATE_PHASE_INTERVAL_S``, for ``mutate_ms.p50``.
``throughput_qps`` is a closed-loop saturation phase over the same
connections: chunks of ``SATURATION_READS`` reads sent back to back, a fixed
share of them traversals and the rest cache hits.  The rung values are
discrete, so the end-to-end throughput is the saturation figure, and
``serve_max_qps`` is a per-layer row.
"""

from __future__ import annotations

import gc
import http.client
import itertools
import json
import math
import os
import select
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import numpy as np

import refs
from common import MIN_TAIL_SAMPLES, ROOT, geomean, median, tail
from speed import WINDOW_S, Speedometer, normalized_compile_ms

SCALE, EDGE_FACTOR = 12, 16
WEIGHTS = (1, 4)  # the served graph's weight range, upper bound exclusive
#: ``repro.serve.bench`` defaults: Zipf exponent and hot-pool size.
HOT_POOL = 24
ZIPF_S = 1.2
#: The three read programs in equal shares; ppsp targets are drawn like sources.
READ_MIX = (("sssp", 1 / 3), ("widest", 1 / 3), ("ppsp", 1 / 3))
#: Offered read rates (requests/s), frozen; the first is the base rung.
LADDER = (40, 80, 160, 320, 640, 1280, 2560)
#: Tail latency limit: the p95 floor of ``repro.serve.bench.FLOORS``.
LATENCY_LIMIT_MS = 100.0
#: A rung has a growing backlog when its last third is sent this late.
BACKLOG_MS = 10.0
#: Only the base rung is longer than this, so only it mutates; a shorter
#: interval queued enough reads behind ``/mutate`` to move the p90 by seed.
MUTATE_INTERVAL_S = 5.0
#: ``repro bench-incremental`` defaults: 8 mutations per batch, 40% adds,
#: 30% removals, 30% weight updates; here as fixed counts per batch, with one
#: update raising a weight and one lowering it.
BATCH_KINDS = {"add": 3, "remove": 3, "raise": 1, "lower": 1}
#: A removal or update is drawn only from existing edges whose invalidation
#: cone on the unmutated graph, summed over the hot pool's sessions, lies in
#: these bands (vertices): the worsening path runs in every batch, at a cost
#: that does not swing with the draw.  A widest cone is either a few vertices
#: or nearly the whole graph (weights take three values, so most edges are
#: tight), and the whole-graph case is left out.
SSSP_CONE_BAND = (8, 64)
WIDEST_CONE_MAX = 2 * HOT_POOL
#: ``mutate_ms.p50`` comes from a phase of its own after the ladder: reads at
#: the base rate with a batch due every ``MUTATE_PHASE_INTERVAL_S``.
MUTATE_PHASE_S = 3.0
MUTATE_PHASE_INTERVAL_S = 0.25
WARMUP_S = 1.0
UPPER_RUNG_S = 1.0
#: ``compile_ms`` samples taken after the ladder and after each saturation chunk.
COMPILES_PER_PAUSE = 3
SETUP_REPEATS = 9
SATURATION_READS = 800  # per chunk; the median chunk is reported
SATURATION_CHUNKS = 6
SATURATION_MISS_EVERY = 20
CONNECTIONS = max(1, min(2, os.cpu_count() or 1))
#: Idle connections probe machine speed at most this often, and only when no
#: request is in flight and none is due sooner than the probe takes: a probe
#: beside a request in the server would measure the server's own CPU use.
PROBE_EVERY_S = 0.05
PROBE_SLACK_S = 0.006
#: Each set-up is normalized by probes taken just before and after it.
SETUP_PROBE_S = 0.1
#: A server gets this long to start, and this long to exit after SIGINT
#: before it is killed: a run starts ten servers and must end in 180 s.
START_TIMEOUT_S = 30.0
STOP_GRACE_S = 5.0


@dataclass
class Request:
    due: float  # seconds after the rung starts
    kind: str  # "read" or "mutate"
    params: dict
    sent: float = 0.0
    done: float = 0.0
    status: int = 0
    body: dict | None = None
    rid: str = ""
    origin: float = 0.0  # perf_counter of the schedule's start
    scale: float = 1.0  # machine-speed normalization factor for its latency


class Graph:
    """The served graph as the generator knows it: edges by epoch."""

    def __init__(self, seed: int):
        from repro.graph.generators import rmat

        graph = rmat(SCALE, EDGE_FACTOR, seed=seed, weights=WEIGHTS)
        self.n = graph.num_vertices
        tails = np.repeat(np.arange(self.n), np.diff(graph.indptr))
        self.edges = dict(
            zip(zip(tails.tolist(), graph.indices.tolist()), graph.weights.tolist())
        )
        # The hot pool of ``repro.serve.bench``: highest out-degree first.
        degrees = np.diff(graph.indptr)
        self.pool = np.argsort(-degrees, kind="stable")[:HOT_POOL].tolist()
        self.scripts: dict[int, list] = {}  # epoch -> mutations that made it

    def csr(self, epoch: int):
        edges = dict(self.edges)
        for number in range(1, epoch + 1):
            for kind, u, v, w in self.scripts[number]:
                if kind == "remove":
                    del edges[(u, v)]
                else:
                    edges[(u, v)] = w
        keys = sorted(edges)
        tails = np.asarray([k[0] for k in keys], dtype=np.int64)
        heads = np.asarray([k[1] for k in keys], dtype=np.int64)
        weights = np.asarray([edges[k] for k in keys], dtype=np.int64)
        indptr = np.zeros(self.n + 1, dtype=np.int64)
        np.add.at(indptr, tails + 1, 1)
        return np.cumsum(indptr), heads, weights


class Plan:
    """Seeded request generator: Zipf reads and commuting mutation batches."""

    def __init__(self, graph: Graph, seed: int):
        self.rng = np.random.default_rng(seed + 11)
        self.sources = graph.pool
        weights = 1.0 / np.arange(1, HOT_POOL + 1) ** ZIPF_S
        self.cdf = np.cumsum(weights / weights.sum())
        self.graph = graph
        csr = graph.csr(0)
        dist = refs.distances(refs.to_scipy(*csr), self.sources)
        width = refs.widest_many(*csr, self.sources)
        # Saturation misses target the middle decile of each source's
        # reachable vertices by distance: a point-to-point query's cost grows
        # with how much of the graph lies closer than its target, so random
        # targets would make each chunk's cost swing with the draw.
        self.bands = {}
        for source, row in zip(self.sources, dist):
            reached = np.flatnonzero(row < refs.INT_MAX)
            order = reached[np.argsort(row[reached], kind="stable")]
            self.bands[source] = order[int(0.45 * order.size) : int(0.55 * order.size) + 1]
        # Every mutation touches its own edge, so batches commute and the
        # reference can replay them in whatever order the server applied them.
        self._touched: set = set()
        self._worsening = self._banded_edges(csr, dist, width)
        self._asked: set = set()  # ppsp pairs requested so far
        self._requests = itertools.count()

    def _banded_edges(self, csr, dist, width):
        """Existing edges, in seeded random order, whose invalidation cones
        lie in ``SSSP_CONE_BAND`` and under ``WIDEST_CONE_MAX``.

        An edge is tight for a session when it supports its head's value; its
        cone is what the head reaches over tight edges, which is what the
        incremental engine invalidates when the edge worsens."""
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import breadth_first_order

        indptr, heads, weights = csr
        n = self.graph.n
        tails = np.repeat(np.arange(n), np.diff(indptr))
        tight = {"sssp": [], "widest": []}
        for kind, rows, unreached in (("sssp", dist, refs.INT_MAX), ("widest", width, 0)):
            for source, row in zip(self.sources, rows):
                live = (row[tails] != unreached) & (heads != source)
                offered = row[tails] + weights if kind == "sssp" else np.minimum(row[tails], weights)
                mask = live & (offered == row[heads])
                matrix = csr_matrix(
                    (np.ones(int(mask.sum())), (tails[mask], heads[mask])), shape=(n, n)
                )
                tight[kind].append((mask, matrix))

        def cone(kind: str, slot: int) -> int:
            return sum(
                breadth_first_order(matrix, int(heads[slot]), return_predecessors=False).size
                for mask, matrix in tight[kind]
                if mask[slot]
            )

        for slot in self.rng.permutation(heads.size).tolist():
            sssp = cone("sssp", slot)
            if SSSP_CONE_BAND[0] <= sssp <= SSSP_CONE_BAND[1] and cone("widest", slot) <= WIDEST_CONE_MAX:
                yield int(tails[slot]), int(heads[slot]), int(weights[slot])

    def _zipf(self) -> int:
        return self.sources[int(np.searchsorted(self.cdf, self.rng.random(), side="right"))]

    def read(self) -> dict:
        names = [name for name, _ in READ_MIX]
        name = names[int(self.rng.choice(len(names), p=[p for _, p in READ_MIX]))]
        params = {"program": name, "source": self._zipf()}
        if name == "ppsp":
            target = self._zipf()
            while target == params["source"]:
                target = self._zipf()
            params["target"] = target
        else:
            params["vertex"] = int(self.rng.integers(self.graph.n))
        return params

    def mutation_batch(self) -> list:
        """``BATCH_KINDS`` mutations, each on an edge no other one touches:
        adds between uniform random vertices, as ``repro bench-incremental``
        draws them, and removals and weight changes on banded edges."""
        batch = []
        low, high = WEIGHTS[0], WEIGHTS[1] - 1
        while len(batch) < BATCH_KINDS["add"]:
            u, v = (int(x) for x in self.rng.integers(self.graph.n, size=2))
            if u != v and (u, v) not in self.graph.edges and (u, v) not in self._touched:
                self._touched.add((u, v))
                batch.append(("add", u, v, int(self.rng.integers(low, high + 1))))
        wanted = {kind: count for kind, count in BATCH_KINDS.items() if kind != "add"}
        while any(wanted.values()):
            u, v, w = next(self._worsening, (None, None, None))
            if u is None:
                raise RuntimeError("no edge left within the invalidation-cone bands")
            if (u, v) in self._touched:
                continue
            if wanted["remove"]:
                kind, new = "remove", None
            elif wanted["raise"] and w < high:
                kind, new = "raise", int(self.rng.integers(w + 1, high + 1))
            elif wanted["lower"] and w > low:
                kind, new = "lower", int(self.rng.integers(low, w))
            else:
                continue
            wanted[kind] -= 1
            self._touched.add((u, v))
            batch.append(("remove", u, v, None) if new is None else ("update", u, v, new))
        return batch

    def rung(self, rate: float, seconds: float, every: float = MUTATE_INTERVAL_S) -> list[Request]:
        """Reads due at ``rate`` for ``seconds``, plus a mutation batch every
        ``every`` seconds."""
        requests = [Request(i / rate, "read", self.read()) for i in range(int(rate * seconds))]
        for k in range(1, int(round(seconds / every)) + 1):
            requests.append(Request(k * every - 0.5 / rate, "mutate",
                                    {"batch": self.mutation_batch()}))
        return self._numbered(requests)

    def warm(self) -> list[Request]:
        """Every hot sssp and widest key once, so saturation reads hit."""
        return self._numbered([
            Request(0.0, "read", {"program": name, "source": source,
                                  "vertex": int(self.rng.integers(self.graph.n))})
            for source in self.sources for name in ("sssp", "widest")
        ])

    def saturation_chunk(self) -> list[Request]:
        """Reads all due at once: cached sssp/widest reads with one ppsp on a
        never-asked mid-distance pair every ``SATURATION_MISS_EVERY`` reads,
        so every chunk has the same number of traversals whatever the draw."""
        requests = []
        for i in range(SATURATION_READS):
            params = self.read()
            while params["program"] == "ppsp":
                params = self.read()
            if i % SATURATION_MISS_EVERY == 0:
                source = params["source"]
                fresh = self._unasked(source, self.bands[source].tolist())
                if not fresh:  # the band is used up
                    fresh = self._unasked(source, range(self.graph.n))
                target = int(self.rng.choice(fresh))
                self._asked.add((source, target))
                params = {"program": "ppsp", "source": source, "target": target}
            requests.append(Request(0.0, "read", params))
        return self._numbered(requests)

    def _unasked(self, source: int, targets) -> list[int]:
        return [t for t in targets if t != source and (source, t) not in self._asked]

    def _numbered(self, requests: list[Request]) -> list[Request]:
        requests.sort(key=lambda r: r.due)
        for request in requests:
            request.rid = str(next(self._requests))
            if request.params.get("program") == "ppsp":
                self._asked.add((request.params["source"], request.params["target"]))
        return requests


class Server:
    """One ``repro serve`` process on an ephemeral port; always reaped."""

    def __init__(self, seed: int, scratch, traced: bool):
        command = [sys.executable]
        if traced:
            self.spans_path = scratch / f"spans-{time.monotonic_ns()}.json"
            command += [str(ROOT / "perfbench" / "traced_server.py"), str(self.spans_path)]
        else:
            self.spans_path = None
            command += ["-m", "repro"]
        command += [
            "serve",
            "--graph", f"rmat:scale={SCALE},edge_factor={EDGE_FACTOR},seed={seed}",
            "--port", "0",
        ]
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.started = time.perf_counter()
        self.process = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            env=env, cwd=ROOT,
        )
        self.port = None

    def wait_ready(self, timeout: float = START_TIMEOUT_S) -> float:
        """Seconds from process start until ``/healthz`` first answers."""
        if not select.select([self.process.stdout], [], [], timeout)[0]:
            raise RuntimeError("server printed nothing")
        line = self.process.stdout.readline()
        if " on http://" not in line:
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(line.rsplit(":", 1)[1])
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline:
            try:
                connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=5)
                connection.request("GET", "/healthz")
                if connection.getresponse().status == 200:
                    connection.close()
                    return time.perf_counter() - self.started
                connection.close()
            except OSError:
                pass
            time.sleep(0.005)
        raise RuntimeError("server never became healthy")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=STOP_GRACE_S)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


def drive(port: int, requests: list[Request], speed) -> float:
    """Send ``requests`` on schedule over ``CONNECTIONS`` keep-alive connections.

    A connection waiting for its next due time spends part of the wait on a
    speed probe (at most one probe per ``PROBE_EVERY_S`` overall), but only
    while no request is in flight and none is due within ``PROBE_SLACK_S``."""
    order = iter(requests)
    lock = threading.Lock()
    start = time.perf_counter() + 0.05
    errors: list[BaseException] = []
    last_probe = [0.0]
    in_flight = [0]
    waiting: dict[int, float] = {}  # connection -> due time of its next request

    def probe_due() -> bool:
        with lock:
            now = time.perf_counter()
            if in_flight[0] or now - last_probe[0] < PROBE_EVERY_S:
                return False
            if start + min(waiting.values()) - now <= PROBE_SLACK_S:
                return False
            last_probe[0] = now
            return True

    def worker(slot: int):
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        try:
            while True:
                with lock:
                    request = None if errors else next(order, None)
                    if request is None:
                        return
                    waiting[slot] = request.due
                if probe_due():
                    speed.probe()
                delay = start + request.due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                with lock:
                    del waiting[slot]
                    in_flight[0] += 1
                request.sent = time.perf_counter() - start
                headers = {"X-Request-Id": request.rid}
                if request.kind == "read":
                    path = "/query?" + "&".join(f"{k}={v}" for k, v in request.params.items())
                    connection.request("GET", path, headers=headers)
                else:
                    script = "\n".join(
                        " ".join(str(x) for x in mutation if x is not None)
                        for mutation in request.params["batch"]
                    )
                    connection.request("POST", "/mutate", body=script, headers=headers)
                response = connection.getresponse()
                payload = response.read()
                request.done = time.perf_counter() - start
                with lock:
                    in_flight[0] -= 1
                request.status = response.status
                if response.status == 200:
                    request.body = json.loads(payload)
        except BaseException as error:  # noqa: BLE001 — reported by the caller
            errors.append(error)
        finally:
            connection.close()

    threads = [threading.Thread(target=worker, args=(slot,)) for slot in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    elapsed = time.perf_counter() - start
    for request in requests:
        request.origin = start
    return elapsed


def normalize(requests: list[Request], speed) -> None:
    for r in requests:
        r.scale = speed.factor(r.origin + r.due, r.origin + r.done)


def latency_ms(request: Request) -> float:
    """Due-time latency, normalized to the reference machine speed."""
    return (request.done - request.due) * 1e3 * request.scale


def rung_verdict(reads: list[Request]) -> dict:
    """Whether a rung meets the limit, judged on raw latency: the limit is
    what a client waits, whatever the machine's speed."""
    samples = [(r.done - r.due) * 1e3 for r in reads]
    last = reads[2 * len(reads) // 3 :]
    backlog = median((r.sent - r.due) * 1e3 for r in last)
    shape = tail(samples)
    ok = (
        all(r.status == 200 for r in reads)
        and shape["value"] <= LATENCY_LIMIT_MS
        and backlog <= BACKLOG_MS
    )
    return {"tail": shape, "backlog_ms": backlog, "meets_limit": ok}


def check(graph: Graph, requests: list[Request]) -> list[bool]:
    """Verdict per request.  A read concurrent with a mutation may see the
    graph before or after it, so a read is correct if it matches the epoch it
    reports or the one before."""
    for request in requests:
        if request.kind == "mutate" and request.status == 200:
            graph.scripts[request.body["epoch"]] = request.params["batch"]
    epochs_ok = set(range(len(graph.scripts) + 1)) == set(graph.scripts) | {0}
    reads = [r for r in requests if r.kind == "read" and r.status == 200]
    wanted: dict[int, dict[str, set]] = {}
    for r in reads:
        for epoch in (r.body["epoch"] - 1, r.body["epoch"]):
            if epoch >= 0:
                kind = "widest" if r.params["program"] == "widest" else "dist"
                wanted.setdefault(epoch, {"dist": set(), "widest": set()})[kind].add(
                    r.params["source"]
                )
    answers: dict = {}
    if epochs_ok:
        for epoch, need in wanted.items():
            csr = graph.csr(epoch)
            if need["dist"]:
                rows = refs.distances(refs.to_scipy(*csr), sorted(need["dist"]))
                for source, row in zip(sorted(need["dist"]), rows):
                    answers[(epoch, "dist", source)] = row
            if need["widest"]:
                rows = refs.widest_many(*csr, sorted(need["widest"]))
                for source, row in zip(sorted(need["widest"]), rows):
                    answers[(epoch, "widest", source)] = row

    def read_ok(r: Request) -> bool:
        if r.status != 200 or not epochs_ok:
            return False
        kind = "widest" if r.params["program"] == "widest" else "dist"
        vertex = r.body["vertex"]
        return any(
            (e, kind, r.params["source"]) in answers
            and int(answers[(e, kind, r.params["source"])][vertex]) == r.body["value"]
            for e in (r.body["epoch"], r.body["epoch"] - 1)
        )

    return [read_ok(r) if r.kind == "read" else r.status == 200 for r in requests]


def compile_sample() -> float:
    """Milliseconds to ``compile_program`` the served programs (default
    schedule), normalized; garbage is collected first, as in ``timeit``."""
    from repro import compile_program
    from repro.lang.programs import ALL_PROGRAMS

    def run() -> float:
        start = time.perf_counter()
        for name, _ in READ_MIX:
            compile_program(ALL_PROGRAMS[name])
        return (time.perf_counter() - start) * 1e3

    gc.collect()
    return normalized_compile_ms(run)


def served_ms(reads: list[Request], how: str, program: str | None = None) -> list[float]:
    return [
        latency_ms(r) for r in reads
        if r.body and r.body.get("served") == how
        and program in (None, r.params["program"])
    ]


def traversal_medians(reads: list[Request]) -> dict:
    """Median latency of the reads that ran a traversal, per read program."""
    return {name: median(served_ms(reads, "computed", name)) for name, _ in READ_MIX}


def plain_query_ms(seed, scratch, plan, seconds, speed) -> tuple[float, list[Request]]:
    """Median computed-read latency of a base rung (without mutations) on an
    untraced server: the traced run's baseline for its tracing overhead."""
    server = Server(seed, scratch, traced=False)
    try:
        server.wait_ready()
        requests = plan.rung(LADDER[0], seconds, every=math.inf)
        drive(server.port, requests, speed)
        normalize(requests, speed)
    finally:
        server.stop()
    return geomean(traversal_medians(requests).values()), requests


def run(seed: int, seconds: float, scratch, traced: bool):
    graph = Graph(seed)
    plan = Plan(graph, seed)
    speed = Speedometer()
    base_seconds = max(seconds, 4 * MIN_TAIL_SAMPLES / LADDER[0])
    plain_ms, requests = None, []
    if traced:
        plain_ms, requests = plain_query_ms(seed, scratch, plan, base_seconds / 2, speed)
    setups, setup_factors = [], []
    server = None
    try:
        # The setups are probed locally: a start takes well under a second,
        # so the probes just around it describe the machine it ran on.
        for _ in range(SETUP_REPEATS):
            if server is not None:
                server.stop()
            speed.probe_for(SETUP_PROBE_S)
            before = time.perf_counter()
            server = Server(seed, scratch, traced)
            setups.append(server.wait_ready())
            after = time.perf_counter()
            speed.probe_for(SETUP_PROBE_S)
            setup_factors.append(speed.factor(before, after))
        warmup = plan.rung(LADDER[0], WARMUP_S)
        drive(server.port, warmup, speed)
        requests += warmup
        rungs = []
        for index, rate in enumerate(LADDER):
            length = base_seconds if index == 0 else max(UPPER_RUNG_S, MIN_TAIL_SAMPLES / rate)
            batch = plan.rung(rate, length)
            drive(server.port, batch, speed)
            normalize(batch, speed)
            requests += batch
            reads = [r for r in batch if r.kind == "read"]
            rungs.append({"rate": rate, "reads": reads, "batch": batch, **rung_verdict(reads)})
            if not rungs[-1]["meets_limit"]:
                break
        writes = plan.rung(LADDER[0], MUTATE_PHASE_S, every=MUTATE_PHASE_INTERVAL_S)
        drive(server.port, writes, speed)
        normalize(writes, speed)
        requests += writes
        # Compile samples go between load phases, never beside one: the first
        # compiles in a process pay one-off costs, so one is discarded.
        compile_sample()
        compile_ms = [compile_sample() for _ in range(COMPILES_PER_PAUSE)]
        warm = plan.warm()
        drive(server.port, warm, speed)
        requests += warm
        # Saturation leaves no idle time to probe in: probe between chunks.
        saturation, chunk_qps = [], []
        speed.probe_for(WINDOW_S / 2)
        for _ in range(SATURATION_CHUNKS):
            chunk = plan.saturation_chunk()
            elapsed = drive(server.port, chunk, speed)
            speed.probe_for(WINDOW_S / 2)
            origin = chunk[0].origin
            chunk_qps.append(len(chunk) / (elapsed * speed.factor(origin, origin + elapsed)))
            saturation += chunk
            compile_ms += [compile_sample() for _ in range(COMPILES_PER_PAUSE)]
        requests += saturation
        rss = server.peak_rss_mb()
    finally:
        if server is not None:
            server.stop()

    verdicts = check(graph, requests)
    failed = verdicts.count(False)
    base_reads = rungs[0]["reads"]
    computed, hits = served_ms(base_reads, "computed"), served_ms(base_reads, "cache")
    programs = traversal_medians(base_reads)
    mutates = [latency_ms(r) for r in writes if r.kind == "mutate"]
    passing = [r["rate"] for r in rungs if r["meets_limit"]]
    everything = [latency_ms(r) for r in base_reads]
    metrics = {
        "setup_s": median(t * f for t, f in zip(setups, setup_factors)),
        "query_ms.p50": geomean(programs.values()),
        "query_ms.tail": tail(computed)["value"],
        "fast_query_ms.p50": median(hits),
        "fast_query_ms.tail": tail(hits)["value"],
        "compile_ms.p50": median(compile_ms),
        "throughput_qps": median(chunk_qps),
        "peak_rss_mb": rss,
        "mutate_ms.p50": median(mutates),
        "serve_max_qps": float(max(passing, default=0)),
        "request_ms.p50": median(everything),
        "request_ms.tail": tail(everything)["value"],
        **{f"program.{name}.ms": ms for name, ms in programs.items()},
    }
    details = {
        "tails": {
            "query_ms.tail": tail(computed),
            "fast_query_ms.tail": tail(hits),
            "request_ms.tail": tail(everything),
        },
        "raw_setup_s_samples": setups,
        "raw_ms": {
            how: median((r.done - r.due) * 1e3 for r in base_reads
                        if r.body and r.body.get("served") == how)
            for how in ("computed", "cache")
        },
        "traversals": {
            name: len(served_ms(base_reads, "computed", name)) for name, _ in READ_MIX
        },
        "mutate_samples": len(mutates),
        "saturation_qps": chunk_qps,
        "probe_ms": {"median": speed.median_ms(), "count": len(speed)},
        "ladder": [
            {"rate": r["rate"], "tail": r["tail"], "backlog_ms": r["backlog_ms"],
             "meets_limit": r["meets_limit"]}
            for r in rungs
        ],
    }
    if traced:
        metrics.update(layer_metrics(server.spans_path, requests, base_reads))
        metrics["trace.overhead_ms"] = metrics["query_ms.p50"] - plain_ms
    return metrics, len(requests), failed, details


def layer_metrics(spans_path, requests: list[Request], base_reads: list[Request]) -> dict:
    """Per-layer rows from the traced server's spans, joined to the client's
    timings by request id."""
    from layers import SpanStore

    with open(spans_path, encoding="utf-8") as handle:
        dumped = json.load(handle)
    store = SpanStore()
    store.spans = dumped["spans"]
    outcomes = dumped["outcomes"]
    counters = dumped["counters"]
    own = store.self_times()
    by_request: dict[tuple, float] = {}
    for span in store.spans:
        if span[0] in ("serve.query", "serve.execute") and span[4] is not None:
            by_request[(span[0], span[4])] = (span[2] - span[1]) * 1e3
    reads = [r for r in requests if r.kind == "read"]
    n_reads = max(1, len(reads))
    mutate_spans = {i for i, s in enumerate(store.spans) if s[0] == "serve.mutate"}
    n_mutates = max(1, len(mutate_spans))
    totals = store.layer_self_ms()

    def mean(values):
        values = list(values)
        return sum(values) / len(values) if values else 0.0

    http = [
        (r.done - r.sent) * 1e3 - by_request[("serve.query", r.rid)]
        for r in base_reads
        if ("serve.query", r.rid) in by_request
    ]
    computed = [r.rid for r in reads if outcomes.get(r.rid) == "computed"]
    execute = [by_request[("serve.execute", rid)] for rid in computed if ("serve.execute", rid) in by_request]
    wait = [
        by_request[("serve.query", rid)] - by_request[("serve.execute", rid)]
        for rid in computed
        if ("serve.query", rid) in by_request and ("serve.execute", rid) in by_request
    ]
    resume = sum(
        (s[2] - s[1]) * 1e3 for s in store.spans if s[0] == "incremental.apply" and s[3] in mutate_spans
    )
    graph_mutate = sum(
        own[i] * 1e3 for i, s in enumerate(store.spans) if s[0] == "graph.mutate" and s[3] in mutate_spans
    )
    execute_total = sum(store.durations_ms("serve.execute"))
    execute_self = sum(own[i] * 1e3 for i, s in enumerate(store.spans) if s[0] == "serve.execute")
    compiles = max(1, store.count("lang.parse"))
    applies = store.count("incremental.apply")
    return {
        "lang.parse_ms": totals.get("lang.parse", 0.0) / compiles,
        "midend.plan_ms": totals.get("midend.plan", 0.0) / compiles,
        "backend.codegen_ms": totals.get("backend.codegen", 0.0) / compiles,
        "runtime.apply_ms": totals.get("runtime.apply", 0.0) / n_reads,
        "runtime.eager_ms": totals.get("runtime.eager", 0.0) / n_reads,
        "runtime.interp_ms": totals.get("runtime.interp", 0.0) / n_reads,
        "buckets.dequeue_ms": totals.get("buckets.dequeue", 0.0) / n_reads,
        "buckets.dequeue_calls": store.count("buckets.dequeue") / n_reads,
        "buckets.insert_ms": totals.get("buckets.insert", 0.0) / n_reads,
        "buckets.insert_calls": store.count("buckets.insert") / n_reads,
        "incremental.run_ms": mean(store.durations_ms("incremental.run")),
        "incremental.apply_ms": mean(store.durations_ms("incremental.apply")),
        "incremental.vertices_touched": (
            counters.get("incremental.vertices_touched", 0) / applies if applies else 0.0
        ),
        "graph.mutate_ms": graph_mutate / n_mutates,
        "serve.http_ms": mean(http),
        "serve.wait_ms": mean(wait),
        "serve.execute_ms": mean(execute),
        "serve.cache_hit_ratio": sum(1 for r in reads if outcomes.get(r.rid) == "cache") / n_reads,
        "serve.coalesced_ratio": sum(1 for r in reads if outcomes.get(r.rid) == "coalesced") / n_reads,
        "serve.rejected": sum(1 for r in reads if outcomes.get(r.rid) == "rejected"),
        "serve.resume_ms": resume / n_mutates,
        "serve.gen_late_ms": median((r.sent - r.due) * 1e3 for r in base_reads),
        "unattributed_pct": 100.0 * execute_self / execute_total if execute_total else 0.0,
    }
