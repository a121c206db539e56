"""The four benchmark workloads: fixed inputs, one round of work, checks.

Each workload is a class; its main methods are:

- ``setup(seed)`` builds the fixed inputs from the workload seed alone;
- ``work(inputs, meter)`` runs one round of the program's public calls
  and returns the outputs; ``meter`` times each call by layer name;
- ``checks(inputs, out)`` returns ``(name, ok, detail)`` tuples, each
  against a computation made apart from the program (``reference``) or
  a property the method must have.

``digest(out)`` reduces one round's outputs to a comparable value, so a
run can check that every round (and the traced round) reproduces the
first bit for bit. ``ops(inputs)`` counts one round's operations:
replicates and graphs, one each.

Each class takes a ``scale`` dict of sizes; ``FULL`` is what the
benchmark runs, and the benchmark's own tests pass toy sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, permutations

from agentspread import analytics, dominators, engine, graphs, policies, rng
from agentspread.errors import PartitionDegenerateError

import reference


def _mix(seed: int, tag: int) -> int:
    """64-bit sub-seed of the workload seed for one purpose tag."""
    x = (seed * 0x9E3779B97F4A7C15 + tag * 0xBF58476D1CE4E5B9 + 1) & ((1 << 64) - 1)
    x ^= x >> 31
    return (x * 0x94D049BB133111EB) & ((1 << 63) - 1)


# ---------------------------------------------------------------------------
# grid-sweep: run_plan of random_homogeneous over 2-d grids (as C6-grid)
# ---------------------------------------------------------------------------


class GridSweep:
    name = "grid-sweep"
    FULL = {"sizes": (256, 1024, 4096, 16384), "replicates": 40, "ref_replicates": 160}

    def __init__(self, scale=None):
        self.scale = scale or self.FULL

    def setup(self, seed):
        return analytics.ExperimentPlan(
            sizes=self.scale["sizes"],
            family="grid",
            dim=2,
            policy=policies.PolicySpec(kind="random_homogeneous", L=1.0),
            replicates=self.scale["replicates"],
            beta=1.0,
            seed=_mix(seed, 1),
            log_correction="divide_by_log_n",
        )

    def ops(self, plan):
        return len(plan.sizes) * plan.replicates

    def work(self, plan, meter, wrap=None):
        build = analytics.build_policy
        if wrap is not None:  # run_plan builds its handles itself
            analytics.build_policy = lambda spec, g=None: wrap(build(spec, g))
        try:
            with meter("analytics.run_plan_s"):
                rep = analytics.run_plan(plan)
        finally:
            analytics.build_policy = build
        meter.count("engine.infections", sum(r.events for r in rep.rows))
        meter.count("engine.replicates", sum(r.replicates for r in rep.rows))
        return rep

    def digest(self, rep):
        return tuple((r.n, r.mean, r.std, r.replicates, r.events) for r in rep.rows)

    def checks(self, plan, rep, ref_seed):
        out = []
        for r in rep.rows:
            out.append(
                (
                    f"grid n={r.n} all infected",
                    r.replicates == plan.replicates and r.events == r.n * plan.replicates,
                    f"{r.replicates} finished runs, {r.events} infections",
                )
            )
        for r in rep.rows:
            side = math.isqrt(r.n)
            ref = reference.grid_fpp_times(
                side, 1.0, 1.0, self.scale["ref_replicates"], (ref_seed, r.n)
            )
            out.append(mean_check(f"grid n={r.n} mean vs FPP sampler", r, ref))
        return out


def mean_check(name, row, ref, z_max=5.0):
    """Program mean within ``z_max`` combined standard errors of a sample."""
    m, s = reference.mean_std(ref)
    se = math.sqrt(row.std**2 / row.replicates + s**2 / len(ref))
    z = (row.mean - m) / se
    return (name, abs(z) <= z_max, f"mean {row.mean:.4f} vs {m:.4f}, z={z:+.2f}")


# ---------------------------------------------------------------------------
# ring-dominance: the shipped ring_adversary.cfg job, plus mobile agents
# ---------------------------------------------------------------------------


@dataclass
class RingInputs:
    graph: graphs.Graph
    clusters: dominators.ClusterProcessConfig
    engine: engine.EngineConfig
    replicates: int
    agents: int
    seed: int


@dataclass
class RingOutputs:
    fast: list
    adversary: list
    agents: list
    adversary_verdict: object
    agents_verdict: object


class RingDominance:
    name = "ring-dominance"
    FULL = {"n": 256, "replicates": 1000, "agents": 8}

    def __init__(self, scale=None):
        self.scale = scale or self.FULL

    def setup(self, seed):
        n = self.scale["n"]
        s = _mix(seed, 2)
        return RingInputs(
            graph=graphs.gen_ring(n),
            clusters=dominators.ClusterProcessConfig(
                growth="line", target_count=n, seeding_rate=1.0, beta=1.0, seed=s
            ),
            engine=engine.EngineConfig(beta=1.0, seed=s),
            replicates=self.scale["replicates"],
            agents=self.scale["agents"],
            seed=s,
        )

    def ops(self, inp):
        return 3 * inp.replicates

    def work(self, inp, meter, wrap=None):
        wrap = wrap or (lambda h: h)
        k = inp.replicates
        with meter("dominators.line_clusters_s"):
            fast = dominators.sample_hitting_times(inp.clusters, k)
        adversary_handle = wrap(
            policies.build_policy(policies.PolicySpec(kind="greedy_frontier_adversary", L=1.0))
        )
        with meter("engine.adversary_batch_s"):
            adv = engine.simulate_batch(inp.graph, adversary_handle, inp.engine, k)
        with meter("analytics.dominance_report_s"):
            v_adv = analytics.dominance_report(fast, engine.finish_times(adv), seed=inp.seed)
        agents_handle = wrap(
            policies.build_policy(
                policies.PolicySpec(
                    kind="mobile_agents",
                    agents=inp.agents,
                    rate_per_agent=1.0 / inp.agents,
                    seed=inp.seed,
                )
            )
        )
        with meter("engine.agents_batch_s"):
            agt = engine.simulate_batch(inp.graph, agents_handle, inp.engine, k)
        with meter("analytics.dominance_report_s"):
            v_agt = analytics.dominance_report(fast, engine.finish_times(agt), seed=inp.seed)
        meter.count("engine.infections", sum(s.events for s in adv) + sum(s.events for s in agt))
        meter.count("engine.replicates", 2 * k)
        return RingOutputs(fast, adv, agt, v_adv, v_agt)

    def digest(self, out):
        return (
            tuple(out.fast),
            tuple(s.finish_time for s in out.adversary),
            tuple(s.finish_time for s in out.agents),
            out.adversary_verdict.verdict,
            out.agents_verdict.verdict,
        )

    def checks(self, inp, out, ref_seed):
        n = inp.graph.n
        res = []
        for label, batch in (("adversary", out.adversary), ("agents", out.agents)):
            done = sum(1 for s in batch if s.finish_time is not None and s.events == n)
            res.append(
                (f"ring {label} runs infect all {n}", done == len(batch), f"{done}/{len(batch)}")
            )
        for label, v in (("adversary", out.adversary_verdict), ("agents", out.agents_verdict)):
            res.append(
                (
                    f"line_clusters <=st {label}",
                    v.verdict == "consistent-with-dominance",
                    f"{v.verdict}, min upper95 {min(v.upper95):.3f}",
                )
            )
        return res


# ---------------------------------------------------------------------------
# tiny-replicates: null and random_homogeneous on every connected graph,
# 2 <= n <= 5, up to isomorphism (as C1)
# ---------------------------------------------------------------------------


def connected_graphs(n):
    """Edge lists of the connected graphs on n nodes, one per isomorphism
    class, each in its lexicographically least labelling."""
    pairs = list(combinations(range(n), 2))
    perms = list(permutations(range(n)))
    seen = set()
    out = []
    for mask in range(1, 1 << len(pairs)):
        edges = [p for i, p in enumerate(pairs) if mask >> i & 1]
        reach = {0}
        grew = True
        while grew:
            grew = False
            for u, v in edges:
                if (u in reach) != (v in reach):
                    reach |= {u, v}
                    grew = True
        if len(reach) != n:
            continue
        canon = min(
            tuple(sorted(tuple(sorted((p[u], p[v]))) for u, v in edges)) for p in perms
        )
        if canon not in seen:
            seen.add(canon)
            out.append(list(canon))
    return sorted(out, key=lambda e: (len(e), e))


@dataclass
class TinyInputs:
    graphs: list  # (n, edges)
    replicates: int
    seed: int


class TinyReplicates:
    name = "tiny-replicates"
    FULL = {"sizes": (2, 3, 4, 5), "replicates": 1000}
    POLICIES = ("null", "random_homogeneous")

    def __init__(self, scale=None):
        self.scale = scale or self.FULL

    def setup(self, seed):
        return TinyInputs(
            graphs=[(n, e) for n in self.scale["sizes"] for e in connected_graphs(n)],
            replicates=self.scale["replicates"],
            seed=_mix(seed, 3),
        )

    def ops(self, inp):
        return len(inp.graphs) * (1 + len(self.POLICIES) * inp.replicates)

    def work(self, inp, meter, wrap=None):
        wrap = wrap or (lambda h: h)
        k = inp.replicates
        rows = []
        with meter("engine.tiny_batches_s"):
            for i, (n, edges) in enumerate(inp.graphs):
                g = graphs.gen_custom(n, edges)
                for j, kind in enumerate(self.POLICIES):
                    handle = policies.build_policy(policies.PolicySpec(kind=kind, L=1.0))
                    cfg = engine.EngineConfig(beta=1.0, seed=inp.seed + 2 * i + j)
                    rows.append(engine.simulate_batch(g, wrap(handle), cfg, k))
        meter.count("engine.infections", sum(s.events for b in rows for s in b))
        meter.count("engine.replicates", len(rows) * k)
        return rows

    def digest(self, rows):
        return tuple(tuple(s.finish_time for s in b) for b in rows)

    def checks(self, inp, rows, ref_seed):
        res = []
        pairs = [(n, e, kind) for n, e in inp.graphs for kind in self.POLICIES]
        complete = all(
            s.finish_time is not None and s.events == n
            for (n, _, _), batch in zip(pairs, rows)
            for s in batch
        )
        res.append(("tiny runs infect every node", complete, f"{len(rows)} batches"))
        for (n, edges, kind), batch in zip(pairs, rows):
            ext = [0.0] * n if kind == "null" else [1.0 / n] * n
            want = reference.exact_finish_mean(n, edges, ext, beta=1.0)
            times = [s.finish_time for s in batch]
            res.append(exact_check(f"tiny n={n} {edges} {kind}", times, want))
        return res


def exact_check(name, times, want, z_max=5.0):
    """Sample mean within ``z_max`` standard errors of an exact mean."""
    m, s = reference.mean_std(times)
    z = (m - want) * math.sqrt(len(times)) / s
    return (name, abs(z) <= z_max, f"mean {m:.4f} vs exact {want:.4f}, z={z:+.2f}")


# ---------------------------------------------------------------------------
# rgg-fpp: RGGs at the critical radius, their tile-chunk partitions, and
# fpp_clusters with the shipped grid_fpp.cfg parameters
# ---------------------------------------------------------------------------


@dataclass
class RggInputs:
    n: int
    radius: float
    graph_seeds: list
    fpp: dominators.ClusterProcessConfig
    fpp_replicates: int


@dataclass
class RggOutputs:
    graphs: list
    partitions: list
    traces: list


def has_empty_tile(n, radius, seed):
    """True when the RGG of (n, radius, seed) leaves a partition tile empty.

    Mirrors the two documented rules that decide it: ``gen_rgg`` draws its
    points from the stream ``substream(seed, 0, CH_GRAPH)``, and
    ``partition_rgg`` cuts the square into tiles of side at most r/sqrt(5).
    Such a graph makes ``partition_rgg`` raise, so the workload skips it.
    """
    pts = rng.substream(seed, 0, rng.CH_GRAPH).random((n, 2))
    tiles = int(math.ceil(math.sqrt(5.0) / radius - 1e-12))
    t = (pts * tiles).astype(int).clip(max=tiles - 1)
    return len(set(zip(t[:, 0].tolist(), t[:, 1].tolist()))) < tiles * tiles


class RggFpp:
    name = "rgg-fpp"
    FULL = {"n": 256, "graphs": 40, "target": 4096, "fpp_replicates": 80}

    def __init__(self, scale=None):
        self.scale = scale or self.FULL

    def setup(self, seed):
        n = self.scale["n"]
        radius = math.sqrt(5.0 * math.log(n) / n)
        seeds = []
        candidate = 0
        while len(seeds) < self.scale["graphs"]:
            s = _mix(seed, (candidate << 3) | 4)
            candidate += 1
            if not has_empty_tile(n, radius, s):
                seeds.append(s)
        return RggInputs(
            n=n,
            radius=radius,
            graph_seeds=seeds,
            fpp=dominators.ClusterProcessConfig(
                growth="fpp",
                target_count=self.scale["target"],
                seeding_rate=1.0,
                beta=1.0,
                dim=2,
                seed=_mix(seed, 5),
            ),
            fpp_replicates=self.scale["fpp_replicates"],
        )

    def ops(self, inp):
        return len(inp.graph_seeds) + inp.fpp_replicates

    def work(self, inp, meter, wrap=None):
        gs, parts = [], []
        for s in inp.graph_seeds:
            with meter("graphs.gen_rgg_s"):
                g = graphs.gen_rgg(inp.n, inp.radius, s)
            try:
                with meter("graphs.partition_rgg_s"):
                    parts.append(graphs.partition_rgg(g))
            except PartitionDegenerateError as exc:
                raise RuntimeError(
                    "partition_rgg found an empty tile that the seed screen missed; "
                    "has gen_rgg's point stream changed?"
                ) from exc
            gs.append(g)
        with meter("dominators.fpp_clusters_s"):
            traces = [dominators.fpp_clusters(inp.fpp, k) for k in range(inp.fpp_replicates)]
        meter.count("graphs.rgg_edges", sum(g.edge_count for g in gs))
        meter.count("dominators.fpp_sites", inp.fpp.target_count * len(traces))
        return RggOutputs(gs, parts, traces)

    def digest(self, out):
        return (
            tuple(g.adjacency for g in out.graphs),
            tuple((p.pieces, p.piece_diameters) for p in out.partitions),
            tuple((t.hitting_time, t.events, tuple(t.cluster_birth_times)) for t in out.traces),
        )

    def checks(self, inp, out, ref_seed):
        res = []
        for g in out.graphs:
            res.append(edge_check(g))
        for g, p in zip(out.graphs, out.partitions):
            res.append(partition_check(g, p))
        for k, t in enumerate(out.traces):
            res.append(fpp_trace_check(k, t, inp.fpp.target_count))
        return res


def edge_check(g):
    """The graph's edge set equals the k-d tree's pairs within the radius."""
    want = reference.rgg_pairs(g.coords, g.radius)
    got = set(g.edges())
    return (
        f"rgg edges n={g.n}",
        got == want,
        f"{len(got)} edges, {len(got - want)} extra, {len(want - got)} missing",
    )


def partition_check(g, p):
    """Disjoint cover, connected pieces, recorded diameters exact."""
    nodes = [v for piece in p.pieces for v in piece]
    if len(nodes) != g.n or set(nodes) != set(range(g.n)):
        return ("rgg partition", False, "pieces are not a disjoint cover")
    if tuple(len(piece) for piece in p.pieces) != p.piece_sizes:
        return ("rgg partition", False, "piece_sizes disagree with the pieces")
    for i, piece in enumerate(p.pieces):
        d = reference.piece_diameter(g.adjacency, piece)
        if d is None:
            return ("rgg partition", False, f"piece {i} is disconnected")
        if d != p.piece_diameters[i]:
            return (
                "rgg partition",
                False,
                f"piece {i} diameter {p.piece_diameters[i]} != shortest_path {d}",
            )
    return ("rgg partition", True, f"{p.g} pieces, diameters {p.piece_diameters}")


def fpp_trace_check(k, t, target):
    """One site per event up to the target, and births in time order."""
    births = t.cluster_birth_times
    ok = (
        t.hitting_time is not None
        and t.events == target - 1
        and all(a <= b for a, b in zip(births, births[1:]))
        and births[-1] <= t.hitting_time
    )
    return (
        f"fpp replicate {k}",
        ok,
        f"{t.events} events for target {target}, {len(births)} clusters",
    )


WORKLOADS = {w.name: w for w in (GridSweep, RingDominance, TinyReplicates, RggFpp)}
