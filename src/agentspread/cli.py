"""Command-line front end.

Flag grammar::

    sim <subcommand> [--config PATH] [--seed U64] [--out DIR] [--set KEY=VALUE]...

Subcommands: gen, simulate, sweep, dominate, conductance, fpp. The
``gen`` and ``conductance`` subcommands also accept direct flags
(--family, --n, ...); everything else is driven by a config file.
``sim gen --family rgg`` without ``--r`` uses the critical radius, the
default of config files (``r = critical``) and sweep plans.

Config files are whitespace-insensitive key-value text with sections::

    # comment
    [graph]
    family = ring        # ring | line | grid | rgg | file
    n = 1024
    d = 2                # grid dimension
    r = critical         # rgg radius, or a real; critical = sqrt(5 ln n / n)
    path = g.txt         # family = file

    [policy]
    kind = random_homogeneous   # null | random_homogeneous | gsi | static_links
                                # | dynamic_links | mobile_agents
                                # | greedy_frontier_adversary
    L = 1.0
    links = 0-5, 2-9     # static_links
    beta_link = 1.0
    count = 4            # dynamic_links
    rewire_rate = 0.5
    agents = 1           # mobile_agents
    rate_per_agent = 1.0
    seed = 7             # policy-internal randomness

    [engine]
    beta = 1.0
    initial_infected = 0
    max_time =           # empty = no cutoff

    [simulate]
    replicates = 1

    [sweep]
    sizes = 64, 256, 1024
    replicates = 200
    log_correction = divide_by_log_n   # none | divide_by_log_n
    process = simulate   # simulate | line_clusters | fpp_clusters
                         # | diagonal_grid_clusters
    seeding_rate = 1.0   # cluster processes: arrival rate of new clusters
    mu_eff = 1.0         # diagonal edge rate, a real or log2n = (ln n)^2
    occupancy = 1        # diagonal points per site, an int or logn = ceil(ln n)
    event_budget =       # optional event ceiling

    [dominate]
    mode = homogeneous   # homogeneous | sequential | line_vs_adversary
    replicates = 1000

    [clusters]
    growth = fpp         # line | fpp | diagonal
    target = 1000
    seeding_rate = 1.0
    beta = 1.0           # line and fpp edge rate
    dim = 2
    mu_eff = 1.0
    occupancy = 1
    replicates = 100

    [meta]
    master_seed = 0      # resolved.cfg writes [meta]; no subcommand reads it
    subcommand = sweep

Values are integers, reals, comma lists, or bare strings. An empty
value reads as an absent key, and a value of the wrong type is a
configuration error naming its ``[section] key``; an integer key
refuses a value with a fractional part. A section or key outside this
grammar is a configuration error too. ``--set section.key=value``
overrides keys already present in the file. Every output directory
receives a ``resolved.cfg`` that echoes the keys the file and ``--set``
gave, plus ``[meta]`` with the master seed; it does not echo defaults.
Running the same subcommand on it with ``--seed`` set to ``master_seed``
reproduces the run.

Exit codes: 0 success, 2 configuration/usage error or bad input (such as
a malformed graph file, a ring/line/grid file whose edges are not that
family's, an RGG file whose edges are not the disk graph of its
coordinates, an RGG radius that is NaN, infinite or negative, a
disconnected partition piece, or a cluster run count below 1), 3 runtime
guard (nontermination or exhausted event budget).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from . import analytics, dominators, engine, graphs, policies
from .errors import (
    ConnectivityError,
    InvalidFamilyError,
    InvalidParameterError,
    NonTerminationError,
    PolicyContractError,
    SizeLimitError,
    integral,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


class ConfigError(Exception):
    pass


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------


def _parse_value(raw: str):
    raw = raw.strip()
    if raw == "":
        return None
    if "," in raw:
        return [_parse_value(part) for part in raw.split(",")]
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        pass
    return raw


# section -> its keys: the grammar of the module docstring, [meta] included
_KEYS = {
    "graph": "family n d r path".split(),
    "policy": "kind L links beta_link count rewire_rate agents rate_per_agent seed".split(),
    "engine": "beta initial_infected max_time".split(),
    "simulate": ["replicates"],
    "sweep": (
        "sizes replicates log_correction process seeding_rate mu_eff occupancy event_budget"
    ).split(),
    "dominate": ["mode", "replicates"],
    "clusters": "growth target seeding_rate beta dim mu_eff occupancy replicates".split(),
    "meta": ["master_seed", "subcommand"],
}


def parse_config(text: str) -> dict[str, dict[str, object]]:
    sections: dict[str, dict[str, object]] = {}
    section = None
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.split("#", 1)[0].strip()  # full-line and trailing comments
        if not stripped:
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            section = stripped[1:-1].strip()
            if section not in _KEYS:
                raise ConfigError(f"line {lineno}: unknown section [{section}]")
            sections.setdefault(section, {})
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {stripped!r}")
        if section is None:
            raise ConfigError(f"line {lineno}: key outside any [section]")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in _KEYS[section]:
            raise ConfigError(f"line {lineno}: unknown key [{section}] {key}")
        sections[section][key] = _parse_value(raw)
    return sections


def apply_overrides(cfg: dict, pairs: list[str]) -> None:
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"--set expects KEY=VALUE, got {pair!r}")
        key, _, raw = pair.partition("=")
        if "." not in key:
            raise ConfigError(f"--set key must be section.key, got {key!r}")
        section, _, name = key.partition(".")
        if section not in cfg or name not in cfg[section]:
            raise ConfigError(f"override {key!r} does not reference an existing key")
        cfg[section][name] = _parse_value(raw)


def _dump_config(cfg: dict, path: str) -> None:
    def fmt(v) -> str:
        if isinstance(v, list):
            return ", ".join(fmt(x) for x in v)
        return "" if v is None else str(v)

    with open(path, "w") as fh:
        for section in sorted(cfg):
            fh.write(f"[{section}]\n")
            for key in sorted(cfg[section]):
                fh.write(f"{key} = {fmt(cfg[section][key])}\n")
            fh.write("\n")


def _load(path: str | None, overrides: list[str]) -> dict:
    if path is None:
        raise ConfigError("this subcommand needs --config")
    try:
        with open(path) as fh:
            cfg = parse_config(fh.read())
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    apply_overrides(cfg, overrides)
    return cfg


_REQUIRED = object()


def _get(cfg: dict, section: str, key: str, kind, default=_REQUIRED):
    """Read ``[section] key`` converted by ``kind``; an empty value counts
    as absent, and an absent key without a default is an error."""
    value = cfg.get(section, {}).get(key)
    if value is None:
        if default is _REQUIRED:
            raise ConfigError(f"missing [{section}] {key}")
        return default
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError) as e:
        raise ConfigError(f"[{section}] {key}: cannot read {value!r} ({e})") from e


def _int(value) -> int:
    """``int`` that refuses to truncate: 64.7 is an error, 64.0 reads as 64."""
    return integral("value", value)


def _int_list(value) -> tuple[int, ...]:
    return tuple(_int(x) for x in (value if isinstance(value, list) else [value]))


def _or_name(kind, name: str):
    """Converter that keeps the word ``name`` and converts other values by ``kind``."""
    return lambda value: value if value == name else kind(value)


# ---------------------------------------------------------------------------
# Object construction from config
# ---------------------------------------------------------------------------


def _radius(cfg: dict) -> float | None:
    """``[graph] r``: None (critical radius) when absent, empty or "critical"."""
    r = _get(cfg, "graph", "r", _or_name(float, "critical"), "critical")
    return None if r == "critical" else r


def _build_graph(cfg: dict, seed: int) -> graphs.Graph:
    family = _get(cfg, "graph", "family", str)
    if family == "file":
        return graphs.read_graph(_get(cfg, "graph", "path", str))
    return graphs.make_graph(
        family,
        _get(cfg, "graph", "n", _int),
        _get(cfg, "graph", "d", _int, 2),
        _radius(cfg),
        seed,
    )


def _parse_links(raw) -> tuple[tuple[int, int], ...]:
    links = []
    for item in raw if isinstance(raw, list) else [raw]:
        text = str(item).strip()
        if "-" not in text:
            raise ConfigError(f"link must look like 'u-v', got {text!r}")
        u, _, v = text.partition("-")
        links.append((int(u), int(v)))
    return tuple(links)


def _policy_spec(cfg: dict, master_seed: int) -> policies.PolicySpec:
    return policies.PolicySpec(
        kind=_get(cfg, "policy", "kind", str, "null"),
        L=_get(cfg, "policy", "L", float, 1.0),
        links=_get(cfg, "policy", "links", _parse_links, ()),
        beta_link=_get(cfg, "policy", "beta_link", float, 1.0),
        count=_get(cfg, "policy", "count", _int, 1),
        rewire_rate=_get(cfg, "policy", "rewire_rate", float, 0.0),
        agents=_get(cfg, "policy", "agents", _int, 1),
        rate_per_agent=_get(cfg, "policy", "rate_per_agent", float, 1.0),
        seed=_get(cfg, "policy", "seed", _int, master_seed),
    )


def _engine_config(cfg: dict, seed: int) -> engine.EngineConfig:
    return engine.EngineConfig(
        beta=_get(cfg, "engine", "beta", float, 1.0),
        initial_infected=_get(cfg, "engine", "initial_infected", _int, 0),
        max_time=_get(cfg, "engine", "max_time", float, None),
        seed=seed,
    )


def _ensure_outdir(out: str | None) -> str:
    if out is None:
        raise ConfigError("this subcommand needs --out DIR")
    os.makedirs(out, exist_ok=True)
    return out


def _echo(cfg: dict, args, outdir: str) -> None:
    resolved = {k: dict(v) for k, v in cfg.items()}
    resolved["meta"] = {"master_seed": args.seed, "subcommand": args.subcommand}
    _dump_config(resolved, os.path.join(outdir, "resolved.cfg"))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_gen(args) -> int:
    g = graphs.make_graph(args.family, args.n, args.d, args.r, args.seed)
    graphs.write_graph(g, args.out)
    print(f"wrote {g.family} graph: n={g.n} edges={g.edge_count} -> {args.out}")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    cfg = _load(args.config, args.set or [])
    outdir = _ensure_outdir(args.out)
    g = _build_graph(cfg, args.seed)
    spec = _policy_spec(cfg, args.seed)
    handle = policies.build_policy(spec, g)
    ecfg = _engine_config(cfg, args.seed)
    replicates = _get(cfg, "simulate", "replicates", _int, 1)
    summaries = engine.simulate_batch(g, handle, ecfg, replicates)
    engine.write_batch_csv(summaries, os.path.join(outdir, "batch.csv"))
    trace = engine.simulate(g, handle, ecfg)
    engine.write_trace_csv(trace, os.path.join(outdir, "trace.csv"))
    _echo(cfg, args, outdir)
    finished = engine.finish_times(summaries)
    if finished:
        print(f"replicates={replicates} mean_T={sum(finished) / len(finished):.6g}")
    else:
        print(f"replicates={replicates} (no run finished before the cutoff)")
    return EXIT_OK


def _plan_from_config(cfg: dict, args, outdir: str | None = None) -> analytics.ExperimentPlan:
    return analytics.ExperimentPlan(
        sizes=_get(cfg, "sweep", "sizes", _int_list),
        family=_get(cfg, "graph", "family", str, "ring"),
        policy=_policy_spec(cfg, args.seed),
        replicates=_get(cfg, "sweep", "replicates", _int, 200),
        beta=_get(cfg, "engine", "beta", float, 1.0),
        seed=args.seed,
        log_correction=_get(cfg, "sweep", "log_correction", str, "none"),
        process=_get(cfg, "sweep", "process", str, "simulate"),
        dim=_get(cfg, "graph", "d", _int, 2),
        rgg_radius=_radius(cfg),
        seeding_rate=_get(cfg, "sweep", "seeding_rate", float, 1.0),
        mu_eff=_get(cfg, "sweep", "mu_eff", _or_name(float, "log2n"), 1.0),
        occupancy=_get(cfg, "sweep", "occupancy", _or_name(_int, "logn"), 1),
        initial_infected=_get(cfg, "engine", "initial_infected", _int, 0),
        event_budget=_get(cfg, "sweep", "event_budget", _int, None),
        output_dir=outdir,
    )


def _cmd_sweep(args) -> int:
    cfg = _load(args.config, args.set or [])
    outdir = _ensure_outdir(args.out)
    plan = _plan_from_config(cfg, args, outdir)
    report = analytics.run_plan(plan)  # writes report.csv/json + loglog.dat
    _echo(cfg, args, outdir)
    if report.fit is not None:
        lo, hi = report.exponent_ci
        print(f"exponent={report.exponent:.4f} ci=[{lo:.4f},{hi:.4f}]")
    if report.incomplete:
        print("sweep incomplete: event budget exhausted", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def _cmd_dominate(args) -> int:
    cfg = _load(args.config, args.set or [])
    outdir = _ensure_outdir(args.out)
    replicates = _get(cfg, "dominate", "replicates", _int, 1000)
    label, verdict = analytics.dominance_check(
        _build_graph(cfg, args.seed),
        _get(cfg, "dominate", "mode", str, "homogeneous"),
        _get(cfg, "policy", "L", float, 1.0),
        replicates,
        args.seed,
        beta=_get(cfg, "engine", "beta", float, 1.0),
    )
    payload = {
        "comparison": label,
        "verdict": verdict.verdict,
        **dataclasses.asdict(verdict),  # deciles_a, deciles_b, diffs, upper95, violations
        "replicates": replicates,
        "master_seed": args.seed,
    }
    with open(os.path.join(outdir, "verdict.json"), "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _echo(cfg, args, outdir)
    print(f"{label}: {verdict.verdict}")
    return EXIT_OK


def _cmd_conductance(args) -> int:
    if args.config is not None:
        g = _build_graph(_load(args.config, args.set or []), args.seed)
    elif args.family is not None and args.n is not None:
        g = graphs.make_graph(args.family, args.n, args.d, seed=args.seed)
    else:
        raise ConfigError("conductance needs --config or --family/--n")
    if g.n <= graphs.CONDUCTANCE_EXACT_LIMIT:
        res = graphs.conductance_exact(g)
    else:
        res = graphs.conductance_analytic(g)
    payload = {
        "n": g.n,
        "family": g.family,
        "mode": res.mode,
        "value": res.value,
        "witness_set": None if res.witness_set is None else list(res.witness_set),
        "cut_edges": res.cut_edges,
        "set_size": res.set_size,
    }
    if args.out is not None:
        outdir = _ensure_outdir(args.out)
        with open(os.path.join(outdir, "conductance.json"), "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    print(f"conductance[{res.mode}] = {res.value:.6g}")
    return EXIT_OK


def _cmd_fpp(args) -> int:
    cfg = _load(args.config, args.set or [])
    growth = _get(cfg, "clusters", "growth", str)
    ccfg = dominators.ClusterProcessConfig(
        growth=growth,
        target_count=_get(cfg, "clusters", "target", _int),
        seeding_rate=_get(cfg, "clusters", "seeding_rate", float, 1.0),
        beta=_get(cfg, "clusters", "beta", float, 1.0),
        dim=_get(cfg, "clusters", "dim", _int, 2),
        mu_eff=_get(cfg, "clusters", "mu_eff", float, 1.0),
        occupancy=_get(cfg, "clusters", "occupancy", _int, 1),
        seed=args.seed,
    )
    replicates = _get(cfg, "clusters", "replicates", _int, 100)
    if replicates < 1:
        raise ConfigError(f"[clusters] replicates must be >= 1, got {replicates}")
    outdir = _ensure_outdir(args.out)
    with open(os.path.join(outdir, "hitting.csv"), "w") as fh:
        fh.write("replicate,hitting_time,events\n")
        for k in range(replicates):
            trace = dominators.run_cluster_process(ccfg, k)
            ht = "" if trace.hitting_time is None else f"{trace.hitting_time:.17g}"
            fh.write(f"{k},{ht},{trace.events}\n")
            if k == 0:
                dominators.write_cluster_csv(trace, os.path.join(outdir, "path0.csv"))
    _echo(cfg, args, outdir)
    print(f"{growth} clusters: {replicates} runs -> {outdir}/hitting.csv")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sim",
        description="SI spreading with external infection agents: "
        "generators, simulator, dominating processes, scaling sweeps.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--config", help="config file path")
        p.add_argument("--seed", type=int, default=0, help="master seed (64-bit)")
        p.add_argument("--out", help="output directory")
        p.add_argument(
            "--set",
            action="append",
            metavar="KEY=VALUE",
            help="override a config key (section.key=value)",
        )

    p = sub.add_parser("gen", help="generate a graph file")
    p.add_argument("--family", required=True, choices=["ring", "line", "grid", "rgg"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, default=2, help="grid dimension")
    p.add_argument("--r", type=float, help="rgg coverage radius (default: critical)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output graph file")

    p = sub.add_parser("simulate", help="run engine replicates from a config")
    common(p)

    p = sub.add_parser("sweep", help="scaling sweep with exponent fit")
    common(p)

    p = sub.add_parser("dominate", help="stochastic-dominance verdict")
    common(p)

    p = sub.add_parser("conductance", help="graph conductance (exact or analytic)")
    common(p)
    p.add_argument("--family", choices=["ring", "line", "grid", "rgg"])
    p.add_argument("--n", type=int)
    p.add_argument("--d", type=int, default=2)

    p = sub.add_parser("fpp", help="cluster-growth process runs")
    common(p)
    return parser


_DISPATCH = {
    "gen": _cmd_gen,
    "simulate": _cmd_simulate,
    "sweep": _cmd_sweep,
    "dominate": _cmd_dominate,
    "conductance": _cmd_conductance,
    "fpp": _cmd_fpp,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_CONFIG if e.code not in (0, None) else EXIT_OK
    try:
        return _DISPATCH[args.subcommand](args)
    except (
        ConfigError,
        ConnectivityError,
        InvalidParameterError,
        InvalidFamilyError,
        SizeLimitError,
        OSError,
    ) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (NonTerminationError, PolicyContractError) as e:
        print(f"runtime guard: {e}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
