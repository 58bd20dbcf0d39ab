"""Timing shims around each layer's public entry points, plus an in-memory span store.

Nothing here edits the library: :func:`install` replaces attributes on the
imported modules and classes with wrappers that record a span (layer name,
start, end, parent span, query id) and call the original.  Spans stay in a
list until the run ends; :meth:`SpanStore.layer_self_ms` then turns them into
per-layer self times (a span's duration minus the union of its children).

The shims are installed only for the traced run, so the end-to-end metrics
are measured on the unmodified library.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import threading
import time
from collections import defaultdict

_now = time.perf_counter

#: Query or request id the current span belongs to.
current_query: contextvars.ContextVar = contextvars.ContextVar("query", default=None)


class SpanStore:
    """Append-only span list; ``spans[i] = [layer, start, end, parent, query]``."""

    def __init__(self):
        self.spans: list[list] = []
        self._local = threading.local()
        #: Serve only: how each request was answered, keyed by request id.
        self.outcomes: dict = {}
        self.counters: dict = defaultdict(int)
        self._own: list[float] | None = None

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, layer: str, query=None, nest: bool = True) -> int:
        """Start a span.  ``nest=False`` is for coroutines: tasks interleave
        on one thread, so their spans neither take nor give a parent."""
        stack = self._stack()
        index = len(self.spans)
        parent = stack[-1] if stack and nest else -1
        if query is None:
            query = current_query.get()
        self.spans.append([layer, _now(), 0.0, parent, query])
        self._own = None
        if nest:
            stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = _now()
        stack = self._stack()
        if stack and stack[-1] == index:
            stack.pop()

    def wrap(self, owner, attr: str, layer: str) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper."""
        func = getattr(owner, attr)
        store = self

        if inspect.iscoroutinefunction(func):

            @functools.wraps(func)
            async def wrapper(*args, **kwargs):
                index = store.open(layer, nest=False)
                try:
                    return await func(*args, **kwargs)
                finally:
                    store.close(index)

        else:

            @functools.wraps(func)
            def wrapper(*args, **kwargs):
                index = store.open(layer)
                try:
                    return func(*args, **kwargs)
                finally:
                    store.close(index)

        setattr(owner, attr, wrapper)

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def self_times(self) -> list[float]:
        """Self time (seconds) of every span: duration minus the union of
        its direct children's intervals."""
        if self._own is not None:
            return self._own
        children: dict[int, list[int]] = defaultdict(list)
        for index, span in enumerate(self.spans):
            if span[3] >= 0:
                children[span[3]].append(index)
        result = []
        for index, (_, start, end, _, _) in enumerate(self.spans):
            covered = 0.0
            cursor = start
            for child in sorted(children.get(index, ()), key=lambda i: self.spans[i][1]):
                child_start = max(self.spans[child][1], cursor)
                child_end = min(self.spans[child][2], end)
                if child_end > child_start:
                    covered += child_end - child_start
                    cursor = child_end
            result.append(max(0.0, end - start - covered))
        self._own = result
        return result

    def layer_self_ms(self, queries=None) -> dict[str, float]:
        """Total self time per layer (ms), optionally only for ``queries``."""
        totals: dict[str, float] = defaultdict(float)
        for span, own in zip(self.spans, self.self_times()):
            if queries is None or span[4] in queries:
                totals[span[0]] += own * 1e3
        return dict(totals)

    def durations_ms(self, layer: str) -> list[float]:
        return [(s[2] - s[1]) * 1e3 for s in self.spans if s[0] == layer]

    def count(self, layer: str, queries=None) -> int:
        return sum(
            1 for s in self.spans if s[0] == layer and (queries is None or s[4] in queries)
        )

    def dump(self) -> list[list]:
        return [list(span) for span in self.spans]


class _TimedLibrary:
    """Proxy over a loaded kernel library that times the kernel entry point."""

    def __init__(self, library, store: SpanStore):
        self._library = library
        self._store = store

    def __getattr__(self, name):
        attr = getattr(self._library, name)
        if name != "repro_native_run":
            return attr
        store = self._store

        def run(*args):
            index = store.open("native.kernel")
            try:
                return attr(*args)
            finally:
                store.close(index)

        return run


def install(store: SpanStore, serve: bool = False) -> None:
    """Wrap the public entry points of every layer with timing shims.

    Layer names (the span names) follow the library's modules:
    ``lang.parse``, ``midend.plan``, ``backend.codegen``, ``native.*``,
    ``runtime.*``, ``buckets.*``, and with ``serve=True`` also
    ``incremental.*``, ``graph.*`` and ``serve.*``.
    """
    from repro.backend import program as program_mod
    from repro.backend import runtime_support
    from repro.backend import native as native_pkg
    from repro.backend.native import runner
    from repro.buckets.eager import EagerBucketQueue
    from repro.buckets.lazy import LazyBucketQueue

    # Compiler: compile_program calls these through its module namespace.
    store.wrap(program_mod, "parse", "lang.parse")
    store.wrap(program_mod, "plan_program", "midend.plan")
    store.wrap(program_mod, "generate_python", "backend.codegen")

    # Program entry (self time = generated-code interpretation overhead).
    store.wrap(program_mod.CompiledProgram, "run", "runtime.interp")

    # Native tier: CompiledProgram.run imports execute_native from the package
    # on every call, so wrapping the package attribute reaches it.
    store.wrap(native_pkg, "execute_native", "native.dispatch")
    store.wrap(runner, "generate_for_plan", "native.codegen")
    original_build = runner.build_kernel

    def build_kernel(source_text, toolchain):
        key = native_pkg.kernel_key(source_text, toolchain)
        cached = (native_pkg.kernel_cache_dir() / f"{key}.so").exists()
        store.counters["native.builds"] += 1
        store.counters["native.cache_hits"] += int(cached)
        index = store.open("native.build")
        try:
            return original_build(source_text, toolchain)
        finally:
            store.close(index)

    runner.build_kernel = build_kernel
    original_load = runner._load_library

    def load_library(path):
        return _TimedLibrary(original_load(path), store)

    runner._load_library = load_library

    # Generated-code runtime.
    Context = runtime_support.Context
    for attr in (
        "apply_update_priority",
        "apply_update_priority_histogram",
        "apply_edges",
        "_dispatch_stream",
    ):
        store.wrap(Context, attr, "runtime.apply")
    store.wrap(runtime_support, "gather_out_edges", "runtime.apply")
    store.wrap(Context, "ordered_process_eager", "runtime.eager")
    store.wrap(Context, "call_extern", "runtime.extern")

    # Bucket structures.
    store.wrap(LazyBucketQueue, "dequeue_ready_set", "buckets.dequeue")
    store.wrap(EagerBucketQueue, "dequeue_ready_set", "buckets.dequeue")
    store.wrap(EagerBucketQueue, "pop_local_bucket", "buckets.dequeue")
    for attr in (
        "buffer_changed_batch",
        "buffer_attempts_batch",
        "apply_histogram_updates",
        "requeue_batch",
    ):
        store.wrap(LazyBucketQueue, attr, "buckets.insert")
    store.wrap(EagerBucketQueue, "insert_changed_batch", "buckets.insert")

    if serve:
        _install_serve(store)


def _install_serve(store: SpanStore) -> None:
    from repro.graph.csr import CSRGraph
    from repro.incremental import IncrementalSession
    from repro.serve import engine as engine_mod
    from repro.serve import server as server_mod

    store.wrap(IncrementalSession, "run", "incremental.run")
    original_apply = IncrementalSession.apply

    def apply(self, mutations):
        index = store.open("incremental.apply")
        try:
            result = original_apply(self, mutations)
        finally:
            store.close(index)
        store.counters["incremental.vertices_touched"] += int(result.vertices_touched)
        return result

    IncrementalSession.apply = apply
    store.wrap(engine_mod, "apply_mutations", "graph.mutate")
    original_compact = CSRGraph._compact

    def compact(self):
        # Only a real fold is graph work; the no-op check runs on every
        # property read and is left untimed.
        if not self.has_pending_mutations:
            return original_compact(self)
        index = store.open("graph.mutate")
        try:
            return original_compact(self)
        finally:
            store.close(index)

    CSRGraph._compact = compact

    Engine = engine_mod.ServeEngine
    store.wrap(Engine, "_mutate_locked", "serve.mutate")
    # The executor hop loses the request context, so the query wrapper
    # hands the request id to the worker through the spec object.
    spec_ids: dict[int, object] = {}
    original_query = Engine.query
    original_compute = Engine._compute

    async def query(self, spec):
        request = current_query.get()
        spec_ids[id(spec)] = request
        index = store.open("serve.query", nest=False)
        try:
            entry, how = await original_query(self, spec)
            store.outcomes[request] = how
            return entry, how
        except engine_mod.Backpressure:
            store.outcomes[request] = "rejected"
            raise
        finally:
            store.close(index)
            spec_ids.pop(id(spec), None)

    def compute(self, spec):
        index = store.open("serve.execute", query=spec_ids.get(id(spec)))
        try:
            return original_compute(self, spec)
        finally:
            store.close(index)

    Engine.query = query
    Engine._compute = compute

    original_dispatch = server_mod.QueryServer._dispatch

    async def dispatch(self, request):
        current_query.set(request.headers.get("x-request-id"))
        return await original_dispatch(self, request)

    server_mod.QueryServer._dispatch = dispatch
