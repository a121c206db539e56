"""Tests of the benchmark itself: its references, and that each check
fails on a wrong answer.

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Toy sizes large enough in replicates that a 10% error is several
# standard errors away (the tiny graphs have CV <= 1, the toy grids ~0.25).
TOY = {
    "grid-sweep": {"sizes": (16, 36, 64), "replicates": 400, "ref_replicates": 1600},
    "ring-dominance": {"n": 32, "replicates": 100, "agents": 4},
    "tiny-replicates": {"sizes": (2, 3, 4), "replicates": 3000},
    "rgg-fpp": {"n": 128, "graphs": 3, "target": 256, "fpp_replicates": 5},
}


def toy_run(name, seed=3):
    wl = workloads.WORKLOADS[name](TOY[name])
    inputs = wl.setup(seed)
    out = wl.work(inputs, run.Meter())
    return wl, inputs, out


@pytest.fixture(scope="module")
def toy():
    return {name: toy_run(name) for name in workloads.WORKLOADS}


# ---------------------------------------------------------------------------
# References
# ---------------------------------------------------------------------------


def test_connected_graph_counts():
    counts = [len(workloads.connected_graphs(n)) for n in (2, 3, 4, 5)]
    assert counts == [1, 2, 6, 21]  # OEIS A001349


def test_exact_mean_closed_forms():
    path = [(0, 1), (1, 2), (2, 3), (3, 4)]
    assert reference.exact_finish_mean(5, path, [0.0] * 5) == pytest.approx(4.0)
    for m in (2, 4):
        star = [(0, i) for i in range(1, m + 1)]
        want = sum(1.0 / i for i in range(1, m + 1))
        assert reference.exact_finish_mean(m + 1, star, [0.0] * (m + 1)) == pytest.approx(want)
    # K2 with external rate 1/2 on the healthy node: Exp(1.5).
    assert reference.exact_finish_mean(2, [(0, 1)], [0.5, 0.5]) == pytest.approx(1 / 1.5)


def test_grid_fpp_sampler_matches_exact_mean():
    # The 2x2 grid is the 4-cycle, small enough for the exact expectation.
    cycle = [(0, 1), (0, 2), (1, 3), (2, 3)]
    want = reference.exact_finish_mean(4, cycle, [0.25] * 4)
    times = reference.grid_fpp_times(2, 1.0, 1.0, 20000, (7,))
    m, s = reference.mean_std(times)
    assert abs(m - want) <= 5 * s / math.sqrt(len(times))


def test_piece_diameter_and_pairs():
    path = ((1,), (0, 2), (1, 3), (2,))
    assert reference.piece_diameter(path, (0, 1, 2, 3)) == 3
    assert reference.piece_diameter(path, (0, 1, 3)) is None
    pts = ((0.0, 0.0), (0.3, 0.0), (0.0, 0.5))
    assert reference.rgg_pairs(pts, 0.4) == {(0, 1)}


# ---------------------------------------------------------------------------
# Each workload at a toy size: every check holds on today's code
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_toy_workload_checks_hold_and_rerun_is_identical(toy, name):
    wl, inputs, out = toy[name]
    checks = wl.checks(inputs, out, 3)
    assert checks and all(ok for _, ok, _ in checks), [c for c in checks if not c[1]]
    assert wl.digest(wl.work(inputs, run.Meter())) == wl.digest(out)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_round_reproduces_and_reports_every_layer(toy, name):
    wl, inputs, out = toy[name]
    meter = run.Meter()
    traced, _, prof, tally = tracing.traced_round(lambda wrap: wl.work(inputs, meter, wrap))
    assert wl.digest(traced) == wl.digest(out)
    layers = run.timed_layers(meter)
    layers.update(tracing.layer_counts(prof, tally, meter.counts.get("engine.infections", 0)))
    layers.update({"package.import_s": 1.0, "trace.overhead": 1.0})
    assert {m["name"] for m in SPEC["per_layer"]} == set(layers)
    if name != "rgg-fpp":
        assert layers["policies.hook_calls"] > 0 and layers["engine.heap_pops"] > 0


# ---------------------------------------------------------------------------
# Each check fails on a wrong answer
# ---------------------------------------------------------------------------


def failing(checks):
    return [name for name, ok, _ in checks if not ok]


def test_grid_reference_mean_shifted_by_ten_percent_fails(toy, monkeypatch):
    wl, inputs, out = toy["grid-sweep"]
    sampler = reference.grid_fpp_times
    monkeypatch.setattr(
        reference, "grid_fpp_times", lambda *a: [1.1 * t for t in sampler(*a)]
    )
    bad = failing(wl.checks(inputs, out, 3))
    assert bad == [f"grid n={n} mean vs FPP sampler" for n in inputs.sizes]


def test_tiny_exact_mean_shifted_by_ten_percent_fails(toy, monkeypatch):
    wl, inputs, out = toy["tiny-replicates"]
    exact = reference.exact_finish_mean
    monkeypatch.setattr(reference, "exact_finish_mean", lambda *a, **k: 1.1 * exact(*a, **k))
    assert failing(wl.checks(inputs, out, 3))


def test_rgg_edge_dropped_fails(toy):
    _, _, out = toy["rgg-fpp"]
    g = out.graphs[0]
    u = next(v for v in range(g.n) if g.adjacency[v])
    w = g.adjacency[u][0]
    adj = list(g.adjacency)
    adj[u] = tuple(x for x in adj[u] if x != w)
    adj[w] = tuple(x for x in adj[w] if x != u)
    assert workloads.edge_check(g)[1]
    assert not workloads.edge_check(dataclasses.replace(g, adjacency=tuple(adj)))[1]


def test_piece_diameter_off_by_one_fails(toy):
    _, _, out = toy["rgg-fpp"]
    g, p = out.graphs[0], out.partitions[0]
    assert workloads.partition_check(g, p)[1]
    diams = (p.piece_diameters[0] + 1,) + p.piece_diameters[1:]
    assert not workloads.partition_check(g, dataclasses.replace(p, piece_diameters=diams))[1]


def test_partition_not_a_cover_fails(toy):
    _, _, out = toy["rgg-fpp"]
    g, p = out.graphs[0], out.partitions[0]
    pieces = (p.pieces[0][1:],) + p.pieces[1:]
    sizes = tuple(len(x) for x in pieces)
    bad = dataclasses.replace(p, pieces=pieces, piece_sizes=sizes)
    assert not workloads.partition_check(g, bad)[1]


def test_fpp_trace_one_event_short_fails(toy):
    wl, inputs, out = toy["rgg-fpp"]
    t = out.traces[0]
    target = inputs.fpp.target_count
    assert workloads.fpp_trace_check(0, t, target)[1]
    short = dataclasses.replace(t, events=t.events - 1)
    assert not workloads.fpp_trace_check(0, short, target)[1]


def test_ring_unfinished_run_and_violation_fail(toy):
    wl, inputs, out = toy["ring-dominance"]
    cut = dataclasses.replace(out.adversary[0], finish_time=None)
    bad = dataclasses.replace(out, adversary=[cut] + out.adversary[1:])
    assert failing(wl.checks(inputs, bad, 3)) == [f"ring adversary runs infect all {inputs.graph.n}"]
    violated = dataclasses.replace(out.agents_verdict, violations=(50,))
    bad = dataclasses.replace(out, agents_verdict=violated)
    assert failing(wl.checks(inputs, bad, 3)) == ["line_clusters <=st agents"]


# ---------------------------------------------------------------------------
# The command
# ---------------------------------------------------------------------------


def test_command_prints_declared_metrics():
    res = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "tiny-replicates",
         "--seed", "5", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    assert res.returncode == 0, res.stderr
    result = json.loads(res.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
    )
    assert res.returncode != 0
    assert '"metrics"' not in res.stdout
