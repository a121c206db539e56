"""End-to-end CLI behaviour: artifacts, determinism, exit codes."""

import json
import math

from agentspread import graphs
from agentspread.cli import main


def _write(path, text):
    path.write_text(text)
    return str(path)


RING_SWEEP = """
[graph]
family = ring
n = 64

[policy]
kind = random_homogeneous
L = 1.0

[sweep]
sizes = 8, 16, 32
replicates = 30
log_correction = none
process = simulate
"""


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
    cfg = _write(tmp_path / "c.cfg", RING_SWEEP)
    out = str(tmp_path / "o")
    assert main(["simulate", "--config", cfg, "--set", "policy.L=nan", "--out", out]) == 2


def test_simulate_wrong_type_exit_2(tmp_path, capsys):
    cfg = _write(tmp_path / "c.cfg", RING_SWEEP)
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
        RGG_SIMULATE.format(r="0.9")
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


def test_missing_config_is_error(tmp_path):
    assert main(["sweep", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path / "o")]) == 2


def test_unknown_subcommand_exit_2():
    assert main(["frobnicate"]) == 2


def test_unknown_flag_exit_2():
    assert main(["gen", "--family", "ring", "--n", "8", "--frob", "x"]) == 2


def test_help_exits_zero():
    assert main(["--help"]) == 0
