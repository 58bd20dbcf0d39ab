"""Tests for the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py

The correctness check must flag an answer with one wrong entry, and a
smoke-sized run of every workload must emit every metric BENCHMARK.json names.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import batch  # noqa: E402
import refs  # noqa: E402
import run  # noqa: E402
import serve_load  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = {"road": {"rows": 12, "cols": 14}, "social": {"scale": 7, "edge_factor": 8}}


def _reference_queries(inputs):
    """One correct answer per program on the first graph, from the references."""
    network = inputs.networks[0]
    graph = network.graphs["weighted"]
    sym = network.graphs["symmetric"]
    csr = (graph.indptr, graph.indices, graph.weights)
    source = network.sources[0]
    s, t = network.pairs[0]
    dist = refs.distances(refs.to_scipy(*csr), [source, s])
    cover = np.arange(sym.num_vertices)
    return [
        batch.Query("vectorized", "sssp", source, None, 1.0, dist[0].copy(), False),
        batch.Query("vectorized", "ppsp", s, t, 1.0, int(dist[1][t]), False),
        batch.Query("vectorized", "widest", source, None, 1.0, refs.widest(*csr, source), False),
        batch.Query("vectorized", "kcore", None, None, 1.0,
                    refs.coreness(sym.indptr, sym.indices), False),
        batch.Query("vectorized", "setcover", None, None, 1.0, cover, False),
    ]


def test_check_accepts_reference_answers_and_flags_one_perturbed_entry():
    inputs = batch.make_inputs("road", 3, TINY["road"])
    queries = _reference_queries(inputs)
    assert batch.check(inputs, queries) == [True] * len(queries)
    for index, query in enumerate(queries):
        broken = list(queries)
        answer = query.answer
        if query.program == "ppsp":
            answer = answer + 1
        elif query.program == "setcover":
            sym = inputs.networks[0].graphs["symmetric"]
            closed = [0] + sym.indices[sym.indptr[0] : sym.indptr[1]].tolist()
            answer = np.setdiff1d(answer, closed)  # leaves vertex 0 uncovered
        else:
            answer = answer.copy()
            answer[len(answer) // 2] += 1
        broken[index] = batch.Query(
            query.tier, query.program, query.source, query.target, 1.0, answer, False
        )
        verdicts = batch.check(inputs, broken)
        assert verdicts[index] is False, query.program
        assert verdicts.count(False) == 1


def test_native_fallback_counts_as_failure():
    inputs = batch.make_inputs("road", 3, TINY["road"])
    query = _reference_queries(inputs)[0]
    query.fallback = True
    assert batch.check(inputs, [query]) == [False]


def test_serve_check_flags_one_wrong_read(monkeypatch):
    monkeypatch.setattr(serve_load, "SCALE", 7)
    graph = serve_load.Graph(4)
    source = int(graph.pool[0])
    csr = graph.csr(0)
    dist = refs.distances(refs.to_scipy(*csr), [source])[0]
    width = refs.widest(*csr, source)
    reached = np.flatnonzero(dist < refs.INT_MAX)
    vertex = int(reached[reached != source][0])

    def read(program, value):
        return serve_load.Request(
            0.0, "read", {"program": program, "source": source, "vertex": vertex},
            status=200, body={"epoch": 0, "vertex": vertex, "value": int(value)},
        )

    good = [read("sssp", dist[vertex]), read("widest", width[vertex])]
    assert serve_load.check(graph, good) == [True, True]
    bad = [read("sssp", dist[vertex] + 1), read("widest", width[vertex])]
    assert serve_load.check(graph, bad) == [False, True]


def test_serve_mutation_batches_mix_kinds_and_replay(monkeypatch):
    monkeypatch.setattr(serve_load, "SCALE", 8)
    graph = serve_load.Graph(3)
    plan = serve_load.Plan(graph, 3)
    batch_ = plan.mutation_batch()
    kinds = [m[0] for m in batch_]
    assert (kinds.count("add"), kinds.count("remove"), kinds.count("update")) == (3, 3, 2)
    assert len({(u, v) for _, u, v, _ in batch_}) == len(batch_)
    graph.scripts[1] = batch_
    indptr, heads, weights = graph.csr(1)
    tails = np.repeat(np.arange(graph.n), np.diff(indptr))
    after = dict(zip(zip(tails.tolist(), heads.tolist()), weights.tolist()))
    for kind, u, v, w in batch_:
        if kind == "remove":
            assert (u, v) in graph.edges and (u, v) not in after
        else:
            assert after[(u, v)] == w != graph.edges.get((u, v))


def test_widest_references_agree():
    inputs = batch.make_inputs("social", 5, TINY["social"])
    network = inputs.networks[0]
    graph = network.graphs["weighted"]
    csr = (graph.indptr, graph.indices, graph.weights)
    many = refs.widest_many(*csr, network.sources)
    for row, source in zip(many, network.sources):
        assert refs.same(row, refs.widest(*csr, source))


def _result(argv, capsys):
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-1])


@pytest.fixture
def smoke(monkeypatch):
    monkeypatch.setattr(batch, "SIZES", TINY)
    monkeypatch.setattr(batch, "MIN_TAIL_SAMPLES", 12)
    monkeypatch.setattr(batch, "SETUP_REPEATS", 1)
    monkeypatch.setattr(serve_load, "SCALE", 8)
    monkeypatch.setattr(serve_load, "LADDER", (40, 80))
    monkeypatch.setattr(serve_load, "MIN_TAIL_SAMPLES", 10)
    monkeypatch.setattr(serve_load, "SETUP_REPEATS", 1)
    monkeypatch.setattr(serve_load, "UPPER_RUNG_S", 0.5)
    monkeypatch.setattr(serve_load, "WARMUP_S", 0.25)
    monkeypatch.setattr(serve_load, "MUTATE_INTERVAL_S", 0.5)
    monkeypatch.setattr(serve_load, "MUTATE_PHASE_S", 0.5)
    monkeypatch.setattr(serve_load, "SATURATION_READS", 50)


@pytest.mark.parametrize("workload", ["road", "social", "serve"])
def test_smoke_run_emits_every_metric(workload, smoke, capsys):
    args = ["--workload", workload, "--seed", "2", "--seconds", "1"]
    plain = _result(args + ["--trace", "0"], capsys)
    assert plain["correct"] and plain["failed"] == 0 and plain["attempted"] > 0
    assert list(plain["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(v["value"] > 0 for v in plain["metrics"].values())

    traced = _result(args + ["--trace", "1"], capsys)
    assert traced["correct"]
    assert list(traced["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    if workload != "serve":
        assert traced["metrics"]["unattributed_pct"]["value"] <= 5.0
        assert traced["metrics"]["native.kernel_ms"]["value"] > 0
    else:
        assert traced["metrics"]["serve.execute_ms"]["value"] > 0
        assert traced["metrics"]["incremental.run_ms"]["value"] > 0


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "road", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert out.stdout.strip() == ""
