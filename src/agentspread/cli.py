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
    n = 1024             # simulate, dominate, conductance; sweep takes sizes
    d = 2                # grid dimension
    r = critical         # rgg radius, or a real; critical = sqrt(5 ln n / n)
    path = g.txt         # family = file; simulate, dominate, conductance

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
    seed = 7             # policy-internal randomness, in [0, 2^64)

    [engine]
    beta = 1.0           # simulate, sweep, dominate
    initial_infected = 0 # simulate, sweep
    max_time =           # simulate only; empty = no cutoff

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
    mode = homogeneous   # homogeneous | sequential | line_vs_adversary (ring, line)
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
grammar, or a key given twice in one section, is a configuration error
too; a repeated section header merges into the first. So is a value
for a key the subcommand cannot honour: ``sim sweep`` builds its graphs
from ``[sweep] sizes`` and refuses ``[graph] n`` and ``path``; ``sim
sweep`` and ``sim dominate`` run every replicate to the end (a censored
mean would bias the fit), so both refuse ``[engine] max_time``, and
``sim dominate`` refuses ``initial_infected``, as its processes start
with no node infected, and every ``[policy]`` key but ``L``, as its mode
picks the policy. ``sim fpp`` reads only ``[clusters]`` and refuses
every key of any other section but ``[meta]``.

An absent key takes the default of the library constructor its section
feeds, under the key's name: ``[graph]`` feeds ``graphs.make_graph``
(``r = critical`` passes None, the critical radius) or, for ``family =
file``, ``graphs.read_graph``; ``[policy]`` ``policies.PolicySpec``;
``[engine]`` ``engine.EngineConfig``; ``[sweep]``
``analytics.ExperimentPlan``, with ``[graph] family``, ``d`` as ``dim``
and ``r`` as ``rgg_radius`` and ``[engine] beta`` and
``initial_infected``; ``[dominate]`` ``analytics.dominance_check``, with
``[policy] L`` read through ``PolicySpec`` and ``[engine] beta``;
``[clusters]`` ``dominators.ClusterProcessConfig``, with ``target`` as
``target_count``. Only the defaults no constructor has are set here:
``[policy] kind = null`` and ``seed`` = the master seed, ``[simulate]
replicates = 1``, ``[dominate] mode = homogeneous`` and ``replicates =
1000``, and ``[clusters] replicates = 100``. ``--set section.key=value``
overrides keys already present in the file. Every output directory
receives a ``resolved.cfg`` that echoes the keys the file and ``--set``
gave, plus ``[meta]`` with the master seed; it does not echo defaults.
Running the same subcommand on it with ``--seed`` set to ``master_seed``
reproduces the run.

Exit codes: 0 success, 2 configuration/usage error or bad input (such as
a malformed graph file, a ring/line/grid file whose edges are not that
family's, an RGG file whose edges are not the disk graph of its
coordinates, an RGG radius that is NaN, infinite or negative, a
disconnected partition piece, a cluster or sweep run count below 1, a sweep
size that realizes fewer than 2 nodes, a seed outside [0, 2^64), a
``line_vs_adversary`` dominance check on a graph other than a ring or a
line), 3 runtime guard (nontermination or exhausted event budget).
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


def _int(value) -> int:
    """``int`` that refuses to truncate: 64.7 is an error, 64.0 reads as 64."""
    return integral("value", value)


def _seed(value) -> int:
    """A config value or ``--seed`` string as a seed in [0, 2^64): streams
    take the seed's low 64 bits, so one outside would alias another."""
    seed = _int(int(value) if isinstance(value, str) else value)
    if not 0 <= seed < 1 << 64:
        raise InvalidParameterError(f"seed must be in [0, 2^64), got {seed}")
    return seed


def _int_list(value) -> tuple[int, ...]:
    return tuple(_int(x) for x in (value if isinstance(value, list) else [value]))


def _or_name(kind, name: str):
    """Converter that keeps the word ``name`` and converts other values by ``kind``."""
    return lambda value: value if value == name else kind(value)


def _radius(value) -> float | None:
    """``[graph] r``: a real, or ``critical`` for make_graph's critical radius (None)."""
    return None if value == "critical" else float(value)


def _parse_links(raw) -> tuple[tuple[int, int], ...]:
    links = []
    for item in raw if isinstance(raw, list) else [raw]:
        text = str(item).strip()
        if "-" not in text:
            raise ConfigError(f"link must look like 'u-v', got {text!r}")
        u, _, v = text.partition("-")
        links.append((int(u), int(v)))
    return tuple(links)


# section -> {key: converter}: the grammar of the module docstring, [meta]
# included, and the one place each key's type is decided
_KEYS = {
    "graph": {"family": str, "n": _int, "d": _int, "r": _radius, "path": str},
    "policy": {
        "kind": str, "L": float, "links": _parse_links, "beta_link": float, "count": _int,
        "rewire_rate": float, "agents": _int, "rate_per_agent": float, "seed": _seed,
    },
    "engine": {"beta": float, "initial_infected": _int, "max_time": float},
    "simulate": {"replicates": _int},
    "sweep": {
        "sizes": _int_list, "replicates": _int, "log_correction": str, "process": str,
        "seeding_rate": float, "mu_eff": _or_name(float, "log2n"),
        "occupancy": _or_name(_int, "logn"), "event_budget": _int,
    },
    "dominate": {"mode": str, "replicates": _int},
    "clusters": {
        "growth": str, "target": _int, "seeding_rate": float, "beta": float, "dim": _int,
        "mu_eff": float, "occupancy": _int, "replicates": _int,
    },
    "meta": {"master_seed": _seed, "subcommand": str},
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
            sections.setdefault(section, {})  # a repeated header merges
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {stripped!r}")
        if section is None:
            raise ConfigError(f"line {lineno}: key outside any [section]")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in _KEYS[section]:
            raise ConfigError(f"line {lineno}: unknown key [{section}] {key}")
        if key in sections[section]:
            raise ConfigError(f"line {lineno}: [{section}] {key} given twice")
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


def _refuse(cfg: dict, subcommand: str, section: str, *keys: str) -> None:
    """Config error for each of ``keys`` that ``[section]`` gives a value
    and ``sim subcommand`` would ignore."""
    for key in keys:
        if cfg.get(section, {}).get(key) is not None:
            raise ConfigError(f"sim {subcommand} does not read [{section}] {key}")


def _read(cfg: dict, section: str, *keys: str, required=(), rename=None) -> dict:
    """Keyword arguments from ``[section]``: each of ``keys`` (by default
    every key of the section) that is present and not empty, converted by
    its ``_KEYS`` converter and named by ``rename`` or else by itself. An
    absent key is left out, so the callee's default applies; an absent
    ``required`` key is an error."""
    given = cfg.get(section, {})
    out = {}
    for key in keys or _KEYS[section]:
        value = given.get(key)
        if value is None:
            if key in required:
                raise ConfigError(f"missing [{section}] {key}")
            continue
        try:
            out[(rename or {}).get(key, key)] = _KEYS[section][key](value)
        except (TypeError, ValueError, OverflowError) as e:
            raise ConfigError(f"[{section}] {key}: cannot read {value!r} ({e})") from e
    return out


# ---------------------------------------------------------------------------
# Object construction from config
# ---------------------------------------------------------------------------


def _build_graph(cfg: dict, seed: int) -> graphs.Graph:
    family = _read(cfg, "graph", "family", required=["family"])["family"]
    if family == "file":
        return graphs.read_graph(**_read(cfg, "graph", "path", required=["path"]))
    shape = _read(cfg, "graph", "n", "d", "r", required=["n"])
    return graphs.make_graph(family, seed=seed, **shape)


def _policy_spec(cfg: dict, master_seed: int) -> policies.PolicySpec:
    return policies.PolicySpec(**{"kind": "null", "seed": master_seed, **_read(cfg, "policy")})


def _engine_config(cfg: dict, seed: int) -> engine.EngineConfig:
    return engine.EngineConfig(seed=seed, **_read(cfg, "engine"))


def _out_path(out: str | None) -> str:
    """``--out``, which the subcommand needs. It is made only once every
    check has passed, so a refused run leaves no directory behind."""
    if out is None:
        raise ConfigError("this subcommand needs --out DIR")
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
    outdir = _out_path(args.out)
    g = _build_graph(cfg, args.seed)
    spec = _policy_spec(cfg, args.seed)
    handle = policies.build_policy(spec, g)
    ecfg = _engine_config(cfg, args.seed)
    replicates = _read(cfg, "simulate").get("replicates", 1)
    events: list[tuple[float, int, str]] = []  # replicate 0's, the run engine.simulate gives
    batch = engine.simulate_batch(g, handle, ecfg, replicates, events)
    os.makedirs(outdir, exist_ok=True)
    engine.write_batch_csv(batch, os.path.join(outdir, "batch.csv"))
    trace = engine.Trace(n=g.n, events=events, finish_time=batch[0].finish_time)
    engine.write_trace_csv(trace, os.path.join(outdir, "trace.csv"))
    _echo(cfg, args, outdir)
    finished = engine.finish_times(batch)
    if finished:
        print(f"replicates={replicates} mean_T={sum(finished) / len(finished):.6g}")
    else:
        print(f"replicates={replicates} (no run finished before the cutoff)")
    return EXIT_OK


def _plan_from_config(cfg: dict, args, outdir: str | None = None) -> analytics.ExperimentPlan:
    return analytics.ExperimentPlan(
        **_read(cfg, "sweep", required=["sizes"]),
        **_read(cfg, "graph", "family", "d", "r", rename={"d": "dim", "r": "rgg_radius"}),
        policy=_policy_spec(cfg, args.seed),
        **_read(cfg, "engine", "beta", "initial_infected"),
        seed=args.seed,
        output_dir=outdir,
    )


def _cmd_sweep(args) -> int:
    cfg = _load(args.config, args.set or [])
    _refuse(cfg, "sweep", "graph", "n", "path")
    _refuse(cfg, "sweep", "engine", "max_time")
    outdir = _out_path(args.out)
    plan = _plan_from_config(cfg, args, outdir)
    report = analytics.run_plan(plan)  # makes outdir, writes report.csv/json + loglog.dat
    _echo(cfg, args, outdir)
    f = report.fit
    if f is not None:
        print(f"exponent={f.slope:.4f} ci=[{f.ci_low:.4f},{f.ci_high:.4f}]")
    if report.incomplete:
        print("sweep incomplete: event budget exhausted", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def _cmd_dominate(args) -> int:
    cfg = _load(args.config, args.set or [])
    _refuse(cfg, "dominate", "engine", "initial_infected", "max_time")
    _refuse(cfg, "dominate", "policy", *(key for key in _KEYS["policy"] if key != "L"))
    outdir = _out_path(args.out)
    run = {"mode": "homogeneous", "replicates": 1000, **_read(cfg, "dominate")}
    label, verdict = analytics.dominance_check(
        _build_graph(cfg, args.seed),
        L=_policy_spec(cfg, args.seed).L,  # the mode picks the policy; [policy] gives its L
        seed=args.seed,
        **run,
        **_read(cfg, "engine", "beta"),
    )
    payload = {
        "comparison": label,
        "verdict": verdict.verdict,
        **dataclasses.asdict(verdict),  # deciles_a, deciles_b, diffs, upper95, violations
        "replicates": run["replicates"],
        "master_seed": args.seed,
    }
    os.makedirs(outdir, exist_ok=True)
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
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "conductance.json"), "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    print(f"conductance[{res.mode}] = {res.value:.6g}")
    return EXIT_OK


def _cmd_fpp(args) -> int:
    cfg = _load(args.config, args.set or [])
    for section in sorted(cfg.keys() - {"clusters", "meta"}):
        _refuse(cfg, "fpp", section, *cfg[section])
    kw = _read(cfg, "clusters", required=["growth", "target"], rename={"target": "target_count"})
    replicates = kw.pop("replicates", 100)
    ccfg = dominators.ClusterProcessConfig(seed=args.seed, **kw)
    outdir = _out_path(args.out)
    traces: list[dominators.ClusterTrace] = []  # replicate 0's, for path0.csv
    try:
        times, events = dominators.sample_hits(ccfg, replicates, traces)
    except InvalidParameterError as e:
        raise ConfigError(f"[clusters] {e}") from e
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, "hitting.csv"), "w") as fh:
        fh.write("replicate,hitting_time,events\n")
        for k, (ht, ev) in enumerate(zip(times, events)):
            fh.write(f"{k},{'' if ht is None else f'{ht:.17g}'},{ev}\n")
    dominators.write_cluster_csv(traces[0], os.path.join(outdir, "path0.csv"))
    _echo(cfg, args, outdir)
    print(f"{ccfg.growth} clusters: {replicates} runs -> {outdir}/hitting.csv")
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
        p.add_argument("--seed", type=_seed, default=0, help="master seed, in [0, 2^64)")
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
    p.add_argument("--seed", type=_seed, default=0)
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
