"""End-to-end CLI behaviour: artifacts, determinism, exit codes."""

import functools
import inspect
import json
import math
import os
from pathlib import Path

import pytest

from agentspread import analytics, cli, dominators, engine, graphs, policies, rng
from agentspread.cli import main


def _write(path, text):
    path.write_text(text)
    return str(path)


RING_SWEEP = """
[graph]
family = ring

[policy]
kind = random_homogeneous
L = 1.0

[sweep]
sizes = 8, 16, 32
replicates = 30
log_correction = none
process = simulate
"""

# `sim simulate` builds one graph of [graph] n nodes; `sim sweep` refuses n
SIMULATE_N = "\n[graph]\nn = 64\n"


def test_gen_ring_file(tmp_path, capsys):
    out = tmp_path / "g.txt"
    assert main(["gen", "--family", "ring", "--n", "16", "--out", str(out)]) == 0
    g = graphs.read_graph(str(out))
    assert g.n == 16 and g.edge_count == 16
    assert "edges=16" in capsys.readouterr().out


def test_gen_rgg_roundtrip(tmp_path):
    out = tmp_path / "r.txt"
    code = main(
        ["gen", "--family", "rgg", "--n", "40", "--r", "0.4", "--seed", "3", "--out", str(out)]
    )
    assert code == 0
    g = graphs.read_graph(str(out))
    assert g.n == 40 and g.family == "rgg" and g.coords is not None


def test_gen_rgg_defaults_to_critical_radius(tmp_path):
    out = tmp_path / "r.txt"
    assert main(["gen", "--family", "rgg", "--n", "40", "--seed", "3", "--out", str(out)]) == 0
    g = graphs.read_graph(str(out))
    assert g.n == 40 and g.radius == math.sqrt(5.0 * math.log(40) / 40)


def test_simulate_non_finite_rate_exit_2(tmp_path):
    cfg = _write(tmp_path / "c.cfg", RING_SWEEP + SIMULATE_N)
    out = str(tmp_path / "o")
    assert main(["simulate", "--config", cfg, "--set", "policy.L=nan", "--out", out]) == 2


def test_simulate_wrong_type_exit_2(tmp_path, capsys):
    cfg = _write(tmp_path / "c.cfg", RING_SWEEP + SIMULATE_N)
    out = str(tmp_path / "o")
    assert main(["simulate", "--config", cfg, "--set", "policy.L=abc", "--out", out]) == 2
    assert "[policy] L" in capsys.readouterr().err


RGG_SIMULATE = """
[graph]
family = rgg
n = 40
r = {r}

[policy]
kind = random_homogeneous
L = 1.0
"""


def test_simulate_empty_radius_is_critical(tmp_path):
    traces = []
    for name, r in (("empty", ""), ("critical", "critical")):
        cfg = _write(tmp_path / f"{name}.cfg", RGG_SIMULATE.format(r=r))
        out = tmp_path / name
        assert main(["simulate", "--config", cfg, "--seed", "3", "--out", str(out)]) == 0
        traces.append((out / "trace.csv").read_bytes())
    assert traces[0] == traces[1]


def test_sweep_uses_radius_and_initial_infected(tmp_path):
    cfg = _write(
        tmp_path / "c.cfg",
        RGG_SIMULATE.format(r="0.9").replace("n = 40\n", "")
        + "\n[engine]\ninitial_infected = 5\n\n[sweep]\nsizes = 16, 24, 32\nreplicates = 5\n",
    )
    out = tmp_path / "o"
    assert main(["sweep", "--config", cfg, "--seed", "1", "--out", str(out)]) == 0
    plan = json.loads((out / "report.json").read_text())["plan"]
    assert plan["rgg_radius"] == 0.9
    assert plan["initial_infected"] == 5


def test_sweep_byte_identical(tmp_path):
    cfg = _write(tmp_path / "c.cfg", RING_SWEEP)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["sweep", "--config", cfg, "--seed", "42", "--out", str(out1)]) == 0
    assert main(["sweep", "--config", cfg, "--seed", "42", "--out", str(out2)]) == 0
    assert (out1 / "report.csv").read_bytes() == (out2 / "report.csv").read_bytes()
    assert (out1 / "loglog.dat").read_bytes() == (out2 / "loglog.dat").read_bytes()
    assert (out1 / "resolved.cfg").exists()
    report = json.loads((out1 / "report.json").read_text())
    assert report["master_seed"] == 42


def test_sweep_rerun_from_resolved_cfg_is_byte_identical(tmp_path):
    # resolved.cfg echoes the file's keys, the overrides and [meta]; fed
    # back with the same seed it reproduces the sweep.
    cfg = _write(tmp_path / "c.cfg", RING_SWEEP)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    argv = ["sweep", "--config", cfg, "--seed", "42", "--out", str(out1)]
    assert main(argv + ["--set", "sweep.log_correction=divide_by_log_n"]) == 0
    resolved = str(out1 / "resolved.cfg")
    assert main(["sweep", "--config", resolved, "--seed", "42", "--out", str(out2)]) == 0
    for name in ("report.csv", "loglog.dat", "resolved.cfg"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


@pytest.mark.parametrize("process", ["line_clusters", "fpp_clusters", "diagonal_grid_clusters"])
def test_sweep_sets_each_cluster_process(tmp_path, process):
    cfg = _write(tmp_path / "c.cfg", RING_SWEEP)
    out = tmp_path / "o"
    argv = ["sweep", "--config", cfg, "--seed", "1", "--out", str(out)]
    assert main(argv + ["--set", f"sweep.process={process}"]) == 0
    assert json.loads((out / "report.json").read_text())["plan"]["process"] == process


CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.cfg"))

# the section a shipped config is built around -> its subcommand and a
# replicate count small enough for a test
SHIPPED_RUNS = {"sweep": ("sweep", 5), "dominate": ("dominate", 100), "clusters": ("fpp", 5)}


def test_configs_are_shipped():
    assert len(CONFIGS) >= 3


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
def test_shipped_config_runs(tmp_path, path):
    sections = cli.parse_config(path.read_text())
    (section,) = [name for name in SHIPPED_RUNS if name in sections]
    subcommand, replicates = SHIPPED_RUNS[section]
    argv = [subcommand, "--config", str(path), "--seed", "1", "--out", str(tmp_path / "o")]
    assert main(argv + ["--set", f"{section}.replicates={replicates}"]) == 0


@pytest.mark.parametrize(
    "extra,named",
    [
        ("[engine]\nreplicates = 50\n", "[engine] replicates"),
        ("[grpah]\nn = 64\n", "[grpah]"),
        ("replicates = 50\n", "[sweep] replicates given twice"),
        ("[graph]\nfamily = line\n", "[graph] family given twice"),
    ],
    ids=["key", "section", "repeated-key", "repeated-key-across-headers"],
)
def test_unknown_config_key_exits_2(tmp_path, capsys, extra, named):
    cfg = _write(tmp_path / "c.cfg", RING_SWEEP + extra)
    out = tmp_path / "o"
    assert main(["sweep", "--config", cfg, "--seed", "1", "--out", str(out)]) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


INT_KEYS = RING_SWEEP + "occupancy = 1\n\n[simulate]\nreplicates = 1\n"


@pytest.mark.parametrize(
    "subcommand,override,named",
    [
        ("simulate", "graph.n=64.7", "[graph] n"),
        ("simulate", "graph.n=inf", "[graph] n"),
        ("simulate", "simulate.replicates=3.9", "[simulate] replicates"),
        ("sweep", "sweep.sizes=64,128.5,256", "[sweep] sizes"),
        ("sweep", "sweep.occupancy=2.5", "[sweep] occupancy"),
    ],
)
def test_integer_key_refuses_non_integral_value(tmp_path, capsys, subcommand, override, named):
    cfg = _write(tmp_path / "c.cfg", INT_KEYS + (SIMULATE_N if subcommand == "simulate" else ""))
    argv = [subcommand, "--config", cfg, "--out", str(tmp_path / "o"), "--set", override]
    assert main(argv) == 2
    assert named in capsys.readouterr().err


def test_sweep_override(tmp_path):
    cfg = _write(tmp_path / "c.cfg", RING_SWEEP)
    out = tmp_path / "o"
    code = main(
        ["sweep", "--config", cfg, "--seed", "1", "--out", str(out),
         "--set", "sweep.replicates=10"]
    )
    assert code == 0
    assert "replicates = 10" in (out / "resolved.cfg").read_text()


def test_override_unknown_key_is_config_error(tmp_path):
    cfg = _write(tmp_path / "c.cfg", RING_SWEEP)
    code = main(
        ["sweep", "--config", cfg, "--out", str(tmp_path / "o"),
         "--set", "sweep.bogus=1"]
    )
    assert code == 2


def test_sweep_repeated_realized_sizes_exit_2(tmp_path, capsys):
    text = RING_SWEEP.replace("family = ring", "family = grid")
    cfg = _write(tmp_path / "c.cfg", text.replace("8, 16, 32", "100, 110, 120"))
    assert main(["sweep", "--config", cfg, "--seed", "1", "--out", str(tmp_path / "o")]) == 2
    assert "110 realizes 100" in capsys.readouterr().err


def test_repeated_section_header_merges(tmp_path):
    cfg = _write(tmp_path / "c.cfg", RING_SWEEP + "\n[graph]\nd = 1\n")
    out = tmp_path / "o"
    assert main(["sweep", "--config", cfg, "--seed", "1", "--out", str(out)]) == 0
    assert cli.parse_config((out / "resolved.cfg").read_text())["graph"] == {
        "family": "ring", "d": 1
    }


def test_sweep_size_below_two_nodes_exits_2(tmp_path, capsys):
    cfg = _write(tmp_path / "c.cfg", RING_SWEEP.replace("8, 16, 32", "1, 2, 4"))
    argv = ["sweep", "--config", cfg, "--seed", "1", "--out", str(tmp_path / "o")]
    assert main(argv + ["--set", "sweep.process=line_clusters"]) == 2
    assert "size 1 realizes 1 node" in capsys.readouterr().err


def test_sweep_zero_replicates_exits_2(tmp_path, capsys):
    cfg = _write(tmp_path / "c.cfg", RING_SWEEP)
    argv = ["sweep", "--config", cfg, "--seed", "1", "--out", str(tmp_path / "o")]
    assert main(argv + ["--set", "sweep.replicates=0"]) == 2
    assert "replicates must be >= 1, got 0" in capsys.readouterr().err


def test_sweep_budget_exhausted_exit_3(tmp_path):
    cfg = _write(tmp_path / "c.cfg", RING_SWEEP + "event_budget = 50\n")
    assert main(["sweep", "--config", cfg, "--seed", "1", "--out", str(tmp_path / "o")]) == 3


def test_simulate_artifacts(tmp_path):
    cfg = _write(
        tmp_path / "s.cfg",
        """
[graph]
family = ring
n = 32

[policy]
kind = gsi
L = 1.0

[simulate]
replicates = 5
""",
    )
    out = tmp_path / "o"
    assert main(["simulate", "--config", cfg, "--seed", "7", "--out", str(out)]) == 0
    batch = (out / "batch.csv").read_text().splitlines()
    assert batch[0] == "replicate,finish_time,events,seed_stream"
    assert len(batch) == 6
    assert (out / "trace.csv").exists()
    assert (out / "resolved.cfg").exists()


def test_simulate_batch_csv_is_the_same_forked_or_in_process(tmp_path, monkeypatch):
    cfg = _write(
        tmp_path / "s.cfg",
        """
[graph]
family = ring
n = 256

[policy]
kind = mobile_agents
agents = 3
rate_per_agent = 0.5

[simulate]
replicates = 193
""",
    )
    assert 193 * 256 >= 3 * rng._FORK_RANGE_WORK
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    files = []
    for cpus in (3, 1):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: set(range(cpus)))
        out = tmp_path / f"cpus{cpus}"
        assert main(["simulate", "--config", cfg, "--seed", "7", "--out", str(out)]) == 0
        files.append((out / "batch.csv").read_bytes())
    assert len(forks) == 2  # three processes, then none
    assert files[0] == files[1]
    assert files[0].count(b"\n") == 194


@pytest.mark.parametrize("cpus", [1, 3])
def test_simulate_trace_is_replicate_0_run_once(tmp_path, monkeypatch, cpus):
    # trace.csv comes from the batch's own replicate 0, forked or not: the
    # command runs each replicate once, and the trace is engine.simulate's.
    cfg = _write(
        tmp_path / "s.cfg",
        "[graph]\nfamily = ring\nn = 256\n\n[policy]\nkind = gsi\nL = 1.0\n\n"
        "[simulate]\nreplicates = 5\n",
    )
    monkeypatch.setattr(rng, "_FORK_RANGE_WORK", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    runs = []
    samplers = engine.samplers
    monkeypatch.setattr(engine, "samplers", lambda stream: runs.append(1) or samplers(stream))
    out = tmp_path / "o"
    assert main(["simulate", "--config", cfg, "--seed", "7", "--out", str(out)]) == 0
    assert len(runs) == (5 if cpus == 1 else 1)  # forked, the parent's range is replicate 0
    g = graphs.gen_ring(256)
    handle = policies.build_policy(policies.PolicySpec(kind="gsi", L=1.0, seed=7), g)
    trace = engine.simulate(g, handle, engine.EngineConfig(seed=7))
    engine.write_trace_csv(trace, str(tmp_path / "want.csv"))
    assert (out / "trace.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
    batch = (out / "batch.csv").read_text().splitlines()
    assert batch[1].split(",")[1] == f"{trace.finish_time:.17g}"


def test_dominate_verdict(tmp_path):
    cfg = _write(
        tmp_path / "d.cfg",
        """
[graph]
family = ring
n = 64

[policy]
L = 1.0

[dominate]
mode = homogeneous
replicates = 150
""",
    )
    out = tmp_path / "o"
    assert main(["dominate", "--config", cfg, "--seed", "3", "--out", str(out)]) == 0
    verdict = json.loads((out / "verdict.json").read_text())
    assert verdict["verdict"] == "consistent-with-dominance"
    assert len(verdict["deciles_a"]) == 9


DOMINATE = """
[graph]
family = ring
n = 48

[policy]
L = 1.0

[dominate]
mode = homogeneous
replicates = 120
"""


@pytest.mark.parametrize("mode", ["homogeneous", "sequential", "line_vs_adversary"])
def test_dominate_matches_library_call(tmp_path, mode):
    cfg = _write(tmp_path / "d.cfg", DOMINATE)
    out = tmp_path / "o"
    argv = ["dominate", "--config", cfg, "--seed", "5", "--out", str(out)]
    assert main(argv + ["--set", f"dominate.mode={mode}"]) == 0
    written = json.loads((out / "verdict.json").read_text())
    label, verdict = analytics.dominance_check(graphs.gen_ring(48), mode, 1.0, 120, seed=5)
    assert written["comparison"] == label
    assert written["verdict"] == verdict.verdict
    assert written["deciles_a"] == list(verdict.deciles_a)
    assert written["deciles_b"] == list(verdict.deciles_b)


def test_dominate_unknown_mode_exits_2(tmp_path):
    cfg = _write(tmp_path / "d.cfg", DOMINATE)
    argv = ["dominate", "--config", cfg, "--out", str(tmp_path / "o")]
    assert main(argv + ["--set", "dominate.mode=parallel"]) == 2


@pytest.mark.parametrize(
    "subcommand,text,key",
    [
        ("sweep", RING_SWEEP, "max_time = 5"),
        ("dominate", DOMINATE, "initial_infected = 2"),
        ("dominate", DOMINATE, "max_time = 5"),
    ],
    ids=["sweep-max_time", "dominate-initial_infected", "dominate-max_time"],
)
def test_engine_key_the_subcommand_ignores_exits_2(tmp_path, capsys, subcommand, text, key):
    # A sweep or dominance run goes to the end: a cutoff would censor its
    # means, so the key is refused rather than silently dropped.
    cfg = _write(tmp_path / "c.cfg", text + "\n[engine]\n" + key + "\n")
    argv = [subcommand, "--config", cfg, "--seed", "1", "--out", str(tmp_path / "o")]
    assert main(argv) == 2
    name = key.split(" =")[0]
    assert f"sim {subcommand} does not read [engine] {name}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("key", ["n = 64", "path = g.txt"])
def test_sweep_refuses_graph_size_and_path(tmp_path, capsys, key):
    # A sweep takes its sizes from [sweep] sizes and builds each graph from
    # the family, so a size or a graph file would be silently dropped.
    cfg = _write(tmp_path / "c.cfg", RING_SWEEP + "\n[graph]\n" + key + "\n")
    out = tmp_path / "o"
    assert main(["sweep", "--config", cfg, "--seed", "1", "--out", str(out)]) == 2
    assert f"sim sweep does not read [graph] {key.split(' =')[0]}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key", ["kind = mobile_agents", "agents = 4", "seed = 7"])
def test_dominate_refuses_policy_keys_other_than_L(tmp_path, capsys, key):
    # The mode picks the policy and [policy] gives only its L, so any other
    # policy key would be silently dropped.
    cfg = _write(tmp_path / "d.cfg", DOMINATE.replace("L = 1.0", "L = 1.0\n" + key))
    out = tmp_path / "o"
    assert main(["dominate", "--config", cfg, "--seed", "1", "--out", str(out)]) == 2
    assert f"sim dominate does not read [policy] {key.split(' =')[0]}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("family", ["grid", "rgg"])
def test_dominate_line_vs_adversary_refuses_a_graph_that_is_not_1d(
    tmp_path, capsys, monkeypatch, family
):
    # Line clusters bound spreading from below on rings and lines only: on a
    # 256-node grid the adversary finished well before them (300 runs at
    # seed 3, median 6.75 against 15.18), so the pairing would be no bound.
    monkeypatch.setattr(analytics, "simulate_batch", None)  # refused before any run
    text = DOMINATE.replace("ring\nn = 48", f"{family}\nn = 256")
    cfg = _write(tmp_path / "d.cfg", text.replace("homogeneous", "line_vs_adversary"))
    out = tmp_path / "o"
    assert main(["dominate", "--config", cfg, "--seed", "3", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"line_vs_adversary bounds spreading on ring and line graphs only, not {family}" in err
    assert not out.exists()


@pytest.mark.parametrize("seed", ["-1", str(2**64), str(2**65 - 1), "1.5"])
def test_seed_outside_64_bits_exits_2(tmp_path, seed):
    # A seed is keyed by its low 64 bits: -1, 2^64 - 1 and 2^65 - 1 would
    # run the same streams.
    cfg = _write(tmp_path / "c.cfg", RING_SWEEP + SIMULATE_N)
    out = tmp_path / "o"
    assert main(["simulate", "--config", cfg, "--seed", seed, "--out", str(out)]) == 2
    gen = tmp_path / "g.txt"
    assert main(["gen", "--family", "ring", "--n", "8", "--seed", seed, "--out", str(gen)]) == 2
    assert not gen.exists()
    policy_seed = ["--set", f"policy.seed={seed}"]
    text = RING_SWEEP.replace("L = 1.0", "L = 1.0\nseed = 0") + SIMULATE_N
    cfg = _write(tmp_path / "p.cfg", text)
    assert main(["simulate", "--config", cfg, "--out", str(out)] + policy_seed) == 2
    assert not out.exists()
    for section, key in (("policy", "seed"), ("meta", "master_seed")):
        with pytest.raises(ValueError, match=r"seed must be in \[0, 2\^64\)|integer"):
            cli._KEYS[section][key](float(seed) if seed == "1.5" else int(seed))


def test_largest_seed_is_accepted(tmp_path):
    top = str(2**64 - 1)
    text = RING_SWEEP.replace("L = 1.0", f"L = 1.0\nseed = {top}") + SIMULATE_N
    cfg = _write(tmp_path / "c.cfg", text)
    out = tmp_path / "o"
    assert main(["simulate", "--config", cfg, "--seed", top, "--out", str(out)]) == 0
    assert f"master_seed = {top}" in (out / "resolved.cfg").read_text()


def test_dominate_disconnected_piece_exits_2(tmp_path, capsys):
    # A genuine disk graph at radius 0.3 whose 4 nodes form one chunk: the
    # pairs near (0.1, 0.1) and (0.9, 0.9) are joined inside but not to
    # each other, so the piece is disconnected.
    points = [(0.1, 0.1), (0.15, 0.1), (0.9, 0.9), (0.95, 0.9)]
    coords = "".join(f"coord {v} {x} {y}\n" for v, (x, y) in enumerate(points))
    path = _write(tmp_path / "g.txt", "4 rgg 0.3\n0 1\n2 3\n" + coords)
    cfg = _write(
        tmp_path / "d.cfg",
        f"[graph]\nfamily = file\npath = {path}\n\n[policy]\nL = 1.0\n\n"
        "[dominate]\nmode = homogeneous\nreplicates = 50\n",
    )
    assert main(["dominate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "disconnected" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text",
    [
        "four ring\n0 1\n",
        "3 ring\n0 1\n2\n",
        "2 rgg 0.5\n0 1\ncoord 0 0.1 0.2\n",
        "-2 custom\n",
        "3 ring\n0 1 7\n1 2\n0 2\n",
        "4 grid 2\n0 1\n0 2\n1 3\n2 3\n"
        + "".join(f"coord {v} 0.{v} 0.5\n" for v in range(4)),
        "2 rgg 0.5\n0 1\ncoord 0 0.1 0.2\ncoord 1 0.3 0.2\ncoord 2 0.9 0.9\n",
        "2 rgg 0.5\n0 1\ncoord 0 0.1 0.2\ncoord 1 0.3 0.2\ncoord 0 0.2 0.2\n",
    ],
    ids=[
        "header-n",
        "one-token-edge",
        "missing-coord",
        "negative-nodes",
        "three-token-edge",
        "coord-in-grid",
        "coord-past-n",
        "coord-twice",
    ],
)
def test_simulate_malformed_graph_file_exit_2(tmp_path, capsys, text):
    path = _write(tmp_path / "g.txt", text)
    cfg = _write(
        tmp_path / "s.cfg",
        f"[graph]\nfamily = file\npath = {path}\n\n[policy]\nkind = null\n",
    )
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert path in capsys.readouterr().err


def test_conductance_mislabelled_ring_file_exits_2(tmp_path, capsys):
    # A 30-node path labelled ring would get the ring's conductance 2/15.
    edges = "".join(f"{i} {i + 1}\n" for i in range(29))
    path = _write(tmp_path / "g.txt", "30 ring\n" + edges)
    cfg = _write(tmp_path / "c.cfg", f"[graph]\nfamily = file\npath = {path}\n")
    assert main(["conductance", "--config", cfg]) == 2
    err = capsys.readouterr()
    assert path in err.err and "conductance[" not in err.out


@pytest.mark.parametrize("r", ["nan", "inf", "-0.1"])
def test_gen_rgg_bad_radius_exits_2(tmp_path, capsys, r):
    out = tmp_path / "r.txt"
    argv = ["gen", "--family", "rgg", "--n", "40", "--r", r, "--out", str(out)]
    assert main(argv) == 2
    assert "radius" in capsys.readouterr().err
    assert not out.exists()


def test_conductance_direct(tmp_path, capsys):
    out = tmp_path / "o"
    code = main(["conductance", "--family", "ring", "--n", "8", "--out", str(out)])
    assert code == 0
    assert "0.5" in capsys.readouterr().out
    payload = json.loads((out / "conductance.json").read_text())
    assert payload["mode"] == "exact" and payload["value"] == 0.5


def test_conductance_analytic_above_limit(capsys):
    assert main(["conductance", "--family", "ring", "--n", "100"]) == 0
    assert "analytic" in capsys.readouterr().out


def test_fpp_artifacts(tmp_path):
    cfg = _write(
        tmp_path / "f.cfg",
        """
[clusters]
growth = fpp
target = 100
dim = 2
replicates = 5
""",
    )
    out = tmp_path / "o"
    assert main(["fpp", "--config", cfg, "--seed", "9", "--out", str(out)]) == 0
    lines = (out / "hitting.csv").read_text().splitlines()
    assert lines[0] == "replicate,hitting_time,events"
    assert len(lines) == 6
    assert (out / "path0.csv").read_text().startswith("t,N")


def test_fpp_writes_a_cut_run_with_an_empty_hitting_time(tmp_path, monkeypatch):
    # No config key sets a cutoff, but a run it cuts off is written with an
    # empty hitting time; the batch forks, path0.csv is run 0's whole path.
    monkeypatch.setattr(
        dominators,
        "ClusterProcessConfig",
        functools.partial(dominators.ClusterProcessConfig, max_time=16.5),
    )
    monkeypatch.setattr(rng, "_FORK_RANGE_WORK", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    cfg = _write(tmp_path / "f.cfg", "[clusters]\ngrowth = line\ntarget = 200\nreplicates = 30\n")
    out = tmp_path / "o"
    assert main(["fpp", "--config", cfg, "--seed", "45", "--out", str(out)]) == 0
    assert len(forks) == 2
    traces = list(
        dominators.run_cluster_process(dominators.ClusterProcessConfig("line", 200, seed=45), 30)
    )
    assert [k for k, tr in enumerate(traces) if tr.hitting_time is None] == [14, 15, 18, 27]
    rows = ["replicate,hitting_time,events"] + [
        f"{k},{'' if tr.hitting_time is None else format(tr.hitting_time, '.17g')},{tr.events}"
        for k, tr in enumerate(traces)
    ]
    assert (out / "hitting.csv").read_text().splitlines() == rows
    dominators.write_cluster_csv(traces[0], str(tmp_path / "path0.csv"))
    assert (out / "path0.csv").read_text() == (tmp_path / "path0.csv").read_text()


@pytest.mark.parametrize("cpus", [1, 3])
def test_fpp_path0_is_replicate_0_run_once(tmp_path, monkeypatch, cpus):
    # path0.csv comes from the batch's own run 0, forked or not: the
    # command runs each replicate once, and the path is run_cluster_process's.
    cfg = _write(tmp_path / "f.cfg", "[clusters]\ngrowth = fpp\ntarget = 300\nreplicates = 5\n")
    monkeypatch.setattr(rng, "_FORK_RANGE_WORK", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    runs = []
    samplers = dominators.samplers
    monkeypatch.setattr(dominators, "samplers", lambda stream: runs.append(1) or samplers(stream))
    out = tmp_path / "o"
    assert main(["fpp", "--config", cfg, "--seed", "8", "--out", str(out)]) == 0
    assert len(runs) == (5 if cpus == 1 else 1)  # forked, the parent's range is run 0
    monkeypatch.setattr(dominators, "samplers", samplers)
    (trace,) = dominators.run_cluster_process(
        dominators.ClusterProcessConfig("fpp", 300, seed=8), 1
    )
    dominators.write_cluster_csv(trace, str(tmp_path / "want.csv"))
    assert (out / "path0.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
    hits = (out / "hitting.csv").read_text().splitlines()
    assert hits[1] == f"0,{trace.hitting_time:.17g},{trace.events}"
    traces = []  # sample_hits keeps run 0's trace alone
    dominators.sample_hits(dominators.ClusterProcessConfig("fpp", 300, seed=8), 5, traces)
    assert len(traces) == 1 and traces[0].path_times == trace.path_times


@pytest.mark.parametrize("replicates", [0, -3])
def test_fpp_nonpositive_replicates_exit_2(tmp_path, capsys, replicates):
    cfg = _write(
        tmp_path / "f.cfg",
        f"[clusters]\ngrowth = fpp\ntarget = 100\nreplicates = {replicates}\n",
    )
    out = tmp_path / "o"
    assert main(["fpp", "--config", cfg, "--out", str(out)]) == 2
    assert "[clusters] replicates" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("section,key", [("engine", "max_time = 5"), ("graph", "n = 64")])
def test_fpp_refuses_keys_outside_clusters(tmp_path, capsys, section, key):
    # A cluster run reads [clusters] only: a cutoff or a graph size would be
    # silently dropped.
    text = f"[clusters]\ngrowth = fpp\ntarget = 100\n[{section}]\n{key}\n"
    cfg = _write(tmp_path / "f.cfg", text)
    out = tmp_path / "o"
    assert main(["fpp", "--config", cfg, "--out", str(out)]) == 2
    assert f"sim fpp does not read [{section}] {key.split(' =')[0]}" in capsys.readouterr().err
    assert not out.exists()


def test_fpp_reads_its_resolved_config(tmp_path):
    # resolved.cfg adds [meta], and an empty key elsewhere reads as absent.
    text = "[clusters]\ngrowth = fpp\ntarget = 50\nreplicates = 2\n[engine]\nmax_time =\n"
    cfg = _write(tmp_path / "f.cfg", text)
    first, again = tmp_path / "a", tmp_path / "b"
    assert main(["fpp", "--config", cfg, "--seed", "4", "--out", str(first)]) == 0
    resolved = str(first / "resolved.cfg")
    assert main(["fpp", "--config", resolved, "--seed", "4", "--out", str(again)]) == 0
    assert (again / "hitting.csv").read_text() == (first / "hitting.csv").read_text()


def test_sweep_gsi_on_rgg_with_empty_tiles(tmp_path):
    # Seed 9 meets an RGG with an empty partition tile; its chunks are
    # connected, so the sweep runs through.
    cfg = _write(
        tmp_path / "s.cfg",
        "[graph]\nfamily = rgg\n\n[policy]\nkind = gsi\nL = 1.0\n\n"
        "[sweep]\nsizes = 64, 128, 256\nreplicates = 10\n",
    )
    out = tmp_path / "o"
    assert main(["sweep", "--config", cfg, "--seed", "9", "--out", str(out)]) == 0
    rows = (out / "report.csv").read_text().splitlines()[1:]
    assert [int(row.split(",")[0]) for row in rows] == [64, 128, 256]


def test_grammar_lists_every_config_key():
    # The key table parse_config checks against and reads through is the
    # grammar of the module docstring (its indented block), both ways.
    shown: dict[str, set[str]] = {}
    section = None
    for line in (cli.__doc__ or "").splitlines():
        if not line.startswith("    "):
            continue
        line = line.split("#", 1)[0].strip()
        if line.startswith("[") and line.endswith("]"):
            section = shown.setdefault(line[1:-1], set())
        elif section is not None and "=" in line:
            section.add(line.split("=", 1)[0].strip())
    table = {(sec, key) for sec, keys in cli._KEYS.items() for key in keys}
    assert table == {(sec, key) for sec, keys in shown.items() for key in keys}


# Every key but [meta]'s -> (callee, parameter, value): the call it must
# reach, at a value that neither a library constructor nor the CLI
# defaults to.
EVERY_KEY = {
    ("graph", "family"): ("make_graph", "family", "grid"),
    ("graph", "n"): ("make_graph", "n", 30),
    ("graph", "d"): ("make_graph", "d", 3),
    ("graph", "r"): ("make_graph", "r", 0.7),
    ("graph", "path"): ("read_graph", "path", "ring12.txt"),
    ("policy", "kind"): ("PolicySpec", "kind", "dynamic_links"),
    ("policy", "L"): ("PolicySpec", "L", 2.5),
    ("policy", "links"): ("PolicySpec", "links", ((0, 5), (2, 9))),
    ("policy", "beta_link"): ("PolicySpec", "beta_link", 1.5),
    ("policy", "count"): ("PolicySpec", "count", 3),
    ("policy", "rewire_rate"): ("PolicySpec", "rewire_rate", 0.25),
    ("policy", "agents"): ("PolicySpec", "agents", 2),
    ("policy", "rate_per_agent"): ("PolicySpec", "rate_per_agent", 0.75),
    ("policy", "seed"): ("PolicySpec", "seed", 11),
    ("engine", "beta"): ("EngineConfig", "beta", 1.25),
    ("engine", "initial_infected"): ("EngineConfig", "initial_infected", 3),
    ("engine", "max_time"): ("EngineConfig", "max_time", 50.0),
    ("simulate", "replicates"): ("simulate_batch", "replicates", 4),
    ("sweep", "sizes"): ("ExperimentPlan", "sizes", (16, 32, 64)),
    ("sweep", "replicates"): ("ExperimentPlan", "replicates", 3),
    ("sweep", "log_correction"): ("ExperimentPlan", "log_correction", "divide_by_log_n"),
    ("sweep", "process"): ("ExperimentPlan", "process", "line_clusters"),
    ("sweep", "seeding_rate"): ("ExperimentPlan", "seeding_rate", 2.0),
    ("sweep", "mu_eff"): ("ExperimentPlan", "mu_eff", 2.5),
    ("sweep", "occupancy"): ("ExperimentPlan", "occupancy", 2),
    ("sweep", "event_budget"): ("ExperimentPlan", "event_budget", 100000),
    ("dominate", "mode"): ("dominance_check", "mode", "sequential"),
    ("dominate", "replicates"): ("dominance_check", "replicates", 100),
    ("clusters", "growth"): ("ClusterProcessConfig", "growth", "diagonal"),
    ("clusters", "target"): ("ClusterProcessConfig", "target_count", 40),
    ("clusters", "seeding_rate"): ("ClusterProcessConfig", "seeding_rate", 0.5),
    ("clusters", "beta"): ("ClusterProcessConfig", "beta", 2.0),
    ("clusters", "dim"): ("ClusterProcessConfig", "dim", 3),
    ("clusters", "mu_eff"): ("ClusterProcessConfig", "mu_eff", 3.5),
    ("clusters", "occupancy"): ("ClusterProcessConfig", "occupancy", 2),
    ("clusters", "replicates"): ("hitting.csv", "rows", 3),
}

# the keys a constructor takes from another section than its own
CROSS_SECTION = [
    ("ExperimentPlan", "family", "grid"),
    ("ExperimentPlan", "dim", 3),
    ("ExperimentPlan", "rgg_radius", 0.7),
    ("ExperimentPlan", "beta", 1.25),
    ("ExperimentPlan", "initial_infected", 3),
    ("dominance_check", "L", 2.5),
    ("dominance_check", "beta", 1.25),
]


def test_every_config_key_reaches_its_object(tmp_path, monkeypatch):
    assert set(EVERY_KEY) == {
        (sec, key) for sec, keys in cli._KEYS.items() if sec != "meta" for key in keys
    }
    seen = {}

    def record(module, name):
        real = getattr(module, name)
        sig = inspect.signature(real)

        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            seen.setdefault(name, []).append(bound.arguments)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)
        return sig

    sigs = {
        "make_graph": record(graphs, "make_graph"),
        "read_graph": record(graphs, "read_graph"),
        "PolicySpec": record(policies, "PolicySpec"),
        "EngineConfig": record(engine, "EngineConfig"),
        "simulate_batch": record(engine, "simulate_batch"),
        "ExperimentPlan": record(analytics, "ExperimentPlan"),
        "dominance_check": record(analytics, "dominance_check"),
        "ClusterProcessConfig": record(dominators, "ClusterProcessConfig"),
    }
    graphs.write_graph(graphs.gen_ring(12), str(tmp_path / "ring12.txt"))
    text = ""
    for (sec, key), (_, _, value) in EVERY_KEY.items():
        if f"[{sec}]" not in text:
            text += f"\n[{sec}]\n"
        if key == "links":
            value = ", ".join(f"{u}-{v}" for u, v in value)
        elif key == "sizes":
            value = ", ".join(map(str, value))
        text += f"{key} = {value}\n"
    cfg = _write(tmp_path / "every.cfg", text)
    monkeypatch.chdir(tmp_path)
    assert main(["conductance", "--config", cfg, "--set", "graph.family=file"]) == 0
    del seen["make_graph"]  # read_graph checks a ring file against make_graph's ring
    # sweep refuses [graph] n and path, sweep and dominate the [engine]
    # keys they cannot honour, dominate every [policy] key but L, and fpp
    # every key outside [clusters]
    blank_for_fpp = [
        arg for sec, key in EVERY_KEY if sec != "clusters" for arg in ("--set", f"{sec}.{key}=")
    ]
    blank_for_dominate = ["--set", "engine.max_time=", "--set", "engine.initial_infected="] + [
        arg for key in cli._KEYS["policy"] if key != "L" for arg in ("--set", f"policy.{key}=")
    ]
    for argv in (
        ["simulate"],
        ["sweep", "--set", "engine.max_time=", "--set", "graph.n=", "--set", "graph.path="],
        ["dominate", *blank_for_dominate],
        ["fpp", *blank_for_fpp],
    ):
        assert main(argv + ["--config", cfg, "--seed", "5", "--out", argv[0]]) == 0
        if argv[0] == "dominate":
            # its one spec carries [policy] L alone, checked at dominance_check
            seen["PolicySpec"].pop()
    rows = (tmp_path / "fpp" / "hitting.csv").read_text().splitlines()[1:]
    seen["hitting.csv"] = [{"rows": len(rows)}]
    for callee, param, value in list(EVERY_KEY.values()) + CROSS_SECTION:
        for call in seen[callee]:
            assert call[param] == value, (callee, param)
        default = sigs[callee].parameters[param].default if callee in sigs else None
        assert default != value, f"{callee} {param} defaults to the test value"


def test_missing_config_is_error(tmp_path):
    assert main(["sweep", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path / "o")]) == 2


def test_unknown_subcommand_exit_2():
    assert main(["frobnicate"]) == 2


def test_unknown_flag_exit_2():
    assert main(["gen", "--family", "ring", "--n", "8", "--frob", "x"]) == 2


def test_help_exits_zero():
    assert main(["--help"]) == 0
