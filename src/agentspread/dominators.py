"""Bounding processes that sandwich the real spreading dynamics.

Upper side: the two-phase process, run only through
``two_phase_process`` (seed every partition piece by external contact
only, then spread along each piece's BFS tree from ``graphs.bfs_tree``
only), which is stochastically slower than the policies it models, and
the per-piece birth chain driven by conductance. Lower side: one
cluster-growth process in which new clusters arrive as a Poisson stream
and grow without ever interfering, which is stochastically faster than
any policy with the same budget. ``run_cluster_process`` is its one
arrival loop and its one way in: ``ClusterProcessConfig.growth`` picks
from one table of growths, which gives each its edge rate, its lattice
and the points a site is worth: a frontier pair on the line, SI growth
on an exclusive infinite lattice, and a diagonal-grid tile process. The
processes run without the engine or the policies;
``analytics.dominance_check`` pairs each with the policy it bounds.

Each process takes a replicate count R and runs replicates 0..R-1 on
the ``CH_PROCESS`` streams of ``rng.replicate_streams``, read through the
sampler pair of ``rng.samplers``. The cluster process yields its traces
one at a time: a batch of long runs would not fit in memory.

A lattice cluster keeps its sites in a hash set and its boundary edges
in a swap-remove list, so there is no truncation boundary and a growth
step costs O(degree). Cluster sites are packed into integers (21 bits
per axis, offset binary), which keeps neighbour arithmetic cheap.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterator, NamedTuple

from .errors import InvalidParameterError, integral, positive
from .graphs import Graph, Partition, bfs_tree
from .rng import CH_PROCESS, BufferedSampler, replicate_streams, samplers, substream

_PATH_POINTS = 4096  # count-path export cap per run


# ---------------------------------------------------------------------------
# Two-phase upper process
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TwoPhaseTrace:
    """Finish time of one two-phase run, split into its phases."""

    phase1: float
    phase2: float
    piece_seeds: tuple[int, ...]

    @property
    def finish_time(self) -> float:
        return self.phase1 + self.phase2


def two_phase_process(
    g: Graph,
    partition: Partition,
    L: float,
    mode: str,
    seed: int,
    replicates: int = 1,
    beta: float = 1.0,
) -> list[TwoPhaseTrace]:
    """Sample the two-phase dominating process ``replicates`` times.

    Phase 1 infects one designated first node per piece: in
    ``homogeneous`` mode piece i is seeded at rate L*size_i/n
    independently and the phase ends at the max (seed node uniform in the
    piece); in ``sequential`` mode pieces are seeded one after another at
    rate L each, the phase lasting the sum (seed node = lowest id, the
    greedy policy's tie-break). Phase 2 spreads intrinsically along each
    piece's ``graphs.bfs_tree`` from its seed, one Exp(beta) per tree edge
    drawn in discovery order, never across pieces, and ends when the
    slowest piece fills; a piece its seed cannot reach whole raises
    ConnectivityError. Sequential seeds do not vary, so that mode builds
    its trees once per batch.
    """
    if mode not in ("homogeneous", "sequential"):
        raise InvalidParameterError(f"unknown two-phase mode {mode!r}")
    positive("L", L)
    positive("beta", beta)
    n = g.n
    pieces = partition.pieces
    streams = replicate_streams(seed, CH_PROCESS, replicates)
    fixed_trees = None
    if mode == "sequential":  # every piece is rooted at piece[0] in every run
        fixed_trees = [bfs_tree(g, piece, piece[0]).parent for piece in pieces]
    out = []
    for rng in streams:
        exp, uni = samplers(rng)
        seeds = []
        t1 = 0.0
        if mode == "homogeneous":
            for piece in pieces:
                rate = L * len(piece) / n
                t1 = max(t1, exp.draw() / rate)
                seeds.append(piece[int(uni.draw() * len(piece))])
        else:
            for piece in pieces:
                t1 += exp.draw() / L
                seeds.append(piece[0])

        t2 = 0.0
        trees = fixed_trees or (bfs_tree(g, p, root).parent for p, root in zip(pieces, seeds))
        for root, parent in zip(seeds, trees):
            arrival = {root: 0.0}
            for v, u in parent.items():  # discovery order
                arrival[v] = arrival[u] + exp.draw() / beta
            t2 = max(t2, max(arrival.values()))
        out.append(TwoPhaseTrace(phase1=t1, phase2=t2, piece_seeds=tuple(seeds)))
    return out


# ---------------------------------------------------------------------------
# Conductance birth chain
# ---------------------------------------------------------------------------


def _chain_rates(piece_size: int, psi: float) -> list[float]:
    """Rates of the chain's steps: j -> j+1 at rate j*psi while j <=
    size/2, then (size-j)*psi."""
    size = integral("piece_size", piece_size)
    if size < 2:
        raise InvalidParameterError(f"piece_size must be >= 2, got {size}")
    positive("psi", psi)
    return [(j if 2 * j <= size else size - j) * psi for j in range(1, size)]


def conductance_chain(piece_size: int, psi: float, seed: int, replicates: int = 1) -> list[float]:
    """Absorption times of the conductance-driven birth chain from 1 to
    size, one per replicate: one Exp(1) per step, drawn in step order."""
    rates = _chain_rates(piece_size, psi)
    return [
        sum(e / rate for e, rate in zip(rng.standard_exponential(len(rates)).tolist(), rates))
        for rng in replicate_streams(seed, CH_PROCESS, replicates)
    ]


def chain_sojourn_mean(piece_size: int, psi: float) -> float:
    """Exact expected absorption time: the sum of sojourn means."""
    return sum(1.0 / rate for rate in _chain_rates(piece_size, psi))


# ---------------------------------------------------------------------------
# Cluster-growth lower processes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClusterProcessConfig:
    """Parameters of a cluster-growth run.

    ``growth`` selects the cluster dynamics: "line" (each cluster adds
    points at rate 2*beta and its seed is not counted, so at unit seeding
    rate the mean count is beta*t^2 + 2*beta*t), "fpp" (SI growth on an
    exclusive infinite dim-dimensional lattice at rate beta per edge), or
    "diagonal" (8-neighbour lattice at rate mu_eff per edge, each site
    worth ``occupancy`` points).
    """

    growth: str
    target_count: int
    seeding_rate: float = 1.0
    beta: float = 1.0
    dim: int = 2
    mu_eff: float = 1.0
    occupancy: int = 1
    max_time: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.growth not in _GROWTH:
            raise InvalidParameterError(f"unknown growth kind {self.growth!r}")
        positive("seeding_rate", self.seeding_rate)
        positive("beta", self.beta)
        for name in ("target_count", "dim", "occupancy"):
            object.__setattr__(self, name, integral(name, getattr(self, name)))
        if self.target_count < 1:
            raise InvalidParameterError("target_count must be >= 1")
        if self.growth == "fpp" and self.dim not in (1, 2, 3):
            raise InvalidParameterError(f"fpp dim must be 1, 2 or 3, got {self.dim}")
        if self.growth == "diagonal":
            positive("mu_eff", self.mu_eff)
        if self.occupancy < 1:
            raise InvalidParameterError("occupancy must be >= 1")
        if self.max_time is not None and not self.max_time >= 0:
            raise InvalidParameterError(f"max_time must be nonnegative, got {self.max_time}")


@dataclass
class ClusterTrace:
    """Outcome of one cluster-process run."""

    cluster_birth_times: list[float]
    total_count_path: list[tuple[float, int]]
    hitting_time: float | None
    events: int = 0

    def count_at(self, t: float) -> int:
        """Step-function lookup of the total count at time t."""
        i = bisect_right(self.total_count_path, t, key=itemgetter(0))
        return self.total_count_path[i - 1][1] if i else 0


def _downsample(path: list[tuple[float, int]]) -> list[tuple[float, int]]:
    if len(path) <= _PATH_POINTS:
        return path
    stride = (len(path) - 1) / (_PATH_POINTS - 1)
    out = [path[int(round(i * stride))] for i in range(_PATH_POINTS - 1)]
    out.append(path[-1])
    return out


# Site packing: 21 bits per axis, offset-binary so coordinates may be negative.
_BITS = 21
_HALF = 1 << 20


def _deltas(dim: int) -> list[int]:
    """Offsets of a packed site's 2*dim axis neighbours."""
    return [s << (_BITS * a) for a in range(dim) for s in (1, -1)]


# Offsets of a packed planar site's 8 axis and diagonal neighbours.
_DIAGONAL = [dx + (dy << _BITS) for dx in (-1, 0, 1) for dy in (-1, 0, 1) if dx or dy]


def _origin(dim: int) -> int:
    return sum(_HALF << (_BITS * a) for a in range(dim))


class _LatticeCluster:
    """One growing cluster: infected-site set plus a swap-remove list of
    boundary edges for uniform edge sampling."""

    __slots__ = ("infected", "edges", "pos", "deltas")

    def __init__(self, deltas: list[int], origin: int):
        self.deltas = deltas
        self.infected = {origin}
        self.edges: list[tuple[int, int]] = [(origin, origin + d) for d in deltas]
        self.pos = {e: i for i, e in enumerate(self.edges)}

    def _remove(self, e: tuple[int, int]) -> None:
        i = self.pos.pop(e)
        last = self.edges.pop()
        if i < len(self.edges):
            self.edges[i] = last
            self.pos[last] = i

    def grow(self, uni: BufferedSampler) -> int:
        """Fire one uniformly chosen boundary edge; return the new number
        of boundary edges."""
        edges = self.edges
        _, dst = edges[int(uni.draw() * len(edges))]
        infected = self.infected
        infected.add(dst)
        for d in self.deltas:
            w = dst + d
            if w in infected:
                self._remove((w, dst))
            else:
                e = (dst, w)
                self.pos[e] = len(edges)
                edges.append(e)
        return len(edges)


class _Growth(NamedTuple):
    lattice: tuple[list[int], int] | None  # neighbour offsets and origin site; None: the line
    edge_rate: float  # firing rate of each boundary edge
    points: int  # points per occupied site


# growth -> its parameters, read off a ClusterProcessConfig. A line cluster
# is a frontier pair: two boundary edges whose firings add a point each and
# leave the pair as it was; its seed is not counted.
_GROWTH = {
    "line": lambda cfg: _Growth(None, cfg.beta, 1),
    "fpp": lambda cfg: _Growth((_deltas(cfg.dim), _origin(cfg.dim)), cfg.beta, 1),
    "diagonal": lambda cfg: _Growth((_DIAGONAL, _origin(2)), cfg.mu_eff, cfg.occupancy),
}


def run_cluster_process(cfg: ClusterProcessConfig, replicates: int = 1) -> Iterator[ClusterTrace]:
    """Runs 0..R-1 of the growth ``cfg`` names, each trace yielded as its
    run ends: clusters arrive at the seeding rate and every boundary edge
    fires at the edge rate, until the total count reaches the target or
    time reaches ``max_time``.

    Each event draws one exponential (its time) and one uniform (arrival,
    or which cluster's edge fired); a lattice growth draws its edge with a
    second uniform. The count path gets a point whenever the count changes.
    """
    return (_cluster_run(cfg, rng) for rng in replicate_streams(cfg.seed, CH_PROCESS, replicates))


def _cluster_run(cfg: ClusterProcessConfig, rng) -> ClusterTrace:
    """One run of ``run_cluster_process`` on the stream ``rng``."""
    lattice, edge_rate, points = _GROWTH[cfg.growth](cfg)
    if lattice is None:
        frontier, seed_points, clusters = 2, 0, None
    else:
        deltas, origin = lattice
        frontier, seed_points, clusters = len(deltas), points, [_LatticeCluster(deltas, origin)]
    exp, uni = samplers(rng)
    lam = cfg.seeding_rate
    target = cfg.target_count
    max_time = math.inf if cfg.max_time is None else cfg.max_time

    bounds = [frontier]  # boundary edges per cluster
    total = frontier
    count = seed_points
    t = 0.0
    births = [0.0]
    path = [(0.0, count)]
    events = 0
    while count < target:
        rate = lam + edge_rate * total
        t += exp.draw() / rate
        if t > max_time:
            t = max_time
            break
        events += 1
        x = uni.draw() * rate
        if x < lam:
            births.append(t)
            bounds.append(frontier)
            total += frontier
            if clusters is not None:
                clusters.append(_LatticeCluster(deltas, origin))
            added = seed_points
        else:
            if clusters is not None:
                # the cluster owning the fired edge, by boundary edge counts
                x = (x - lam) / edge_rate
                acc = 0
                for i, b in enumerate(bounds):
                    acc += b
                    if acc > x:
                        break
                grown = clusters[i].grow(uni)
                total += grown - bounds[i]
                bounds[i] = grown
            added = points
        if added:
            count += added
            path.append((t, count))
    hitting = t if count >= target else None
    return ClusterTrace(
        cluster_birth_times=births,
        total_count_path=_downsample(path),
        hitting_time=hitting,
        events=events,
    )


def fpp_clusters(cfg: ClusterProcessConfig, replicate: int = 0) -> ClusterTrace:
    """Replicate ``replicate`` of ``run_cluster_process`` for an "fpp"
    growth, on its own stream. It stays only while
    ``perfbench/workloads.py`` calls it one index at a time; everything
    else calls ``run_cluster_process``."""
    if cfg.growth != "fpp":
        raise InvalidParameterError("cfg.growth must be 'fpp'")
    return _cluster_run(cfg, substream(cfg.seed, replicate, CH_PROCESS))


def sample_hitting_times(cfg: ClusterProcessConfig, replicates: int) -> list[float]:
    """Hitting times of runs 0..R-1 of ``run_cluster_process``; a run that
    ``max_time`` cut off is refused."""
    out = []
    for trace in run_cluster_process(cfg, replicates):
        if trace.hitting_time is None:
            raise InvalidParameterError(
                "cluster run hit max_time before the target count"
            )
        out.append(trace.hitting_time)
    return out


def write_cluster_csv(trace: ClusterTrace, path: str) -> None:
    with open(path, "w") as fh:
        fh.write("t,N\n")
        for t, n in trace.total_count_path:
            fh.write(f"{t:.17g},{n}\n")
