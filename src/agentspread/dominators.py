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

Each process takes a replicate count R and runs replicates 0..R-1 on the
``CH_PROCESS`` streams of ``rng.replicate_streams``, read through the
sampler pair of ``rng.samplers``. ``run_cluster_process`` yields whole
traces one at a time and in-process: a batch of long runs would not fit
in memory. A trace keeps its count path as two columns, the times of the
count's changes in an ``array('d')`` (8 bytes a point) and a ``range``
of counts, since every change adds the same number of points. Every
other batch runs its replicates through ``rng.run_batch``, with the same
values on any number of CPUs, and keeps columns in ``rng``'s format:
``sample_hits`` a ``RunBatch`` of hitting times (NaN for a cut run) and
event counts, ``two_phase_process`` a ``TwoPhaseBatch`` that adds each
run's phases and piece seeds, ``conductance_chain`` an ``array('d')``.

A lattice cluster is a plain triple that the arrival loop grows inline:
its sites in a hash set, its boundary edges in a swap-remove list and
each edge's position in that list, so there is no truncation boundary
and a growth step costs O(degree). A site is packed into one integer,
offset binary, with as many bits per axis as the target needs: a cluster
never holds more than ceil(target / points) sites, so no coordinate
field can carry into the next, and at target 4096 a planar site fits in
one 30-bit digit of a Python int. Which edge fires depends only on the
list's order, never on the site values, so the width cannot change a
run.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Iterator, NamedTuple

from .errors import InvalidParameterError, integral, positive
from .graphs import Graph, Partition, bfs_tree
from .rng import CH_PROCESS, RunBatch, replicate_streams, run_batch, samplers, substream

# Most points a trace keeps of its count path: a longer path is cut down to
# this many, evenly spread, and its counts become a list.
_PATH_POINTS = 4096


# ---------------------------------------------------------------------------
# Two-phase upper process
# ---------------------------------------------------------------------------


class TwoPhaseBatch(RunBatch):
    """Two-phase runs: a ``RunBatch`` whose ``times`` are ``phase1 +
    phase2`` and whose ``events`` are n (every node is infected once), with
    the phases as two more ``array('d')`` columns and ``seeds``, an
    ``array('i')`` of the g piece seeds of each run in turn: run k's are
    ``seeds[k*g:(k+1)*g]``."""

    __slots__ = ("phase1", "phase2", "seeds")
    _COLUMNS = {**RunBatch._COLUMNS, "phase1": "d", "phase2": "d", "seeds": "i"}


def two_phase_process(
    g: Graph,
    partition: Partition,
    L: float,
    mode: str,
    seed: int,
    replicates: int = 1,
    beta: float = 1.0,
) -> TwoPhaseBatch:
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
    ConnectivityError. The pieces must cover the graph's nodes, each once
    (``Partition.piece_of``). Sequential seeds do not vary, so that mode
    builds its trees once per batch.
    """
    if mode not in ("homogeneous", "sequential"):
        raise InvalidParameterError(f"unknown two-phase mode {mode!r}")
    positive("L", L)
    positive("beta", beta)
    n = g.n
    partition.piece_of(n)
    pieces = partition.pieces
    fixed_trees = None
    if mode == "sequential":  # every piece is rooted at piece[0] in every run
        fixed_trees = [bfs_tree(g, piece, piece[0]).parent for piece in pieces]

    def run(streams, first: int) -> TwoPhaseBatch:
        out = TwoPhaseBatch()
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
            out.phase1.append(t1)
            out.phase2.append(t2)
            out.seeds.extend(seeds)
            out.times.append(t1 + t2)
            out.events.append(n)
        return out

    return run_batch(run, seed, CH_PROCESS, replicates, n)


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


def conductance_chain(piece_size: int, psi: float, seed: int, replicates: int = 1) -> array:
    """Absorption times of the conductance-driven birth chain from 1 to
    size, one per replicate: one Exp(1) per step, drawn in step order."""
    rates = _chain_rates(piece_size, psi)

    def run(streams, first: int) -> array:
        out = array("d")
        for rng in streams:
            steps = rng.standard_exponential(len(rates)).tolist()
            out.append(sum(e / rate for e, rate in zip(steps, rates)))
        return out

    # Cost 16 + steps / 8, measured on 2 CPUs: forking paid off at 2048
    # replicates of 3 steps (13.5 ms in-process, 12.5 forked), 1024 of 64
    # (13.7, 12.1) and 256 of 1024 (31.9, 22.4), not at 128 of 1024 (15.4, 21.6).
    return run_batch(run, seed, CH_PROCESS, replicates, 16 + len(rates) // 8)


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
    """Outcome of one cluster-process run. Its count path is two columns:
    the total count became ``path_counts[i]`` at time ``path_times[i]``.
    ``path_times`` is an ``array('d')``. Every point of a path adds the
    same number of points to the count, so ``path_counts`` is a ``range``,
    or the list of the counts kept when the path was cut down to
    ``_PATH_POINTS`` points."""

    cluster_birth_times: list[float]
    path_times: array
    path_counts: range | list[int]
    hitting_time: float | None
    events: int = 0


def _count_path(times: array, first: int, step: int) -> tuple[array, range | list[int]]:
    """The two columns of a count path whose count is ``first`` at
    ``times[0]`` and rises by ``step`` at each later time; a path of more
    than ``_PATH_POINTS`` points keeps that many, evenly spread, its first
    and last among them."""
    m = len(times)
    if m <= _PATH_POINTS:
        return times, range(first, first + m * step, step)
    stride = (m - 1) / (_PATH_POINTS - 1)
    kept = [int(round(i * stride)) for i in range(_PATH_POINTS - 1)]
    kept.append(m - 1)
    return array("d", map(times.__getitem__, kept)), [first + i * step for i in kept]


def _axis_bits(sites: int) -> int:
    """Bits per axis of a packed site for clusters of at most ``sites``
    sites. Such a cluster keeps its sites and their neighbours within
    ``sites`` of the origin on every axis, and the origin's field is 2^b,
    b the bit length of sites + 1, so 2^b > sites + 1: every field stays
    inside (0, 2^(b+1)) and never carries into the next axis's."""
    return (sites + 1).bit_length() + 1


def _lattice(steps: list[tuple[int, ...]], sites: int) -> tuple[list[int], int]:
    """Packed neighbour offsets, one per coordinate step in ``steps``, and
    the packed origin of a lattice holding clusters of at most ``sites``
    sites, each axis in a field of ``_axis_bits(sites)`` bits."""
    bits = _axis_bits(sites)
    deltas = [sum(x << (bits * a) for a, x in enumerate(step)) for step in steps]
    origin = sum(1 << (bits * a + bits - 1) for a in range(len(steps[0])))
    return deltas, origin


def _axis_steps(dim: int) -> list[tuple[int, ...]]:
    """The 2*dim unit steps of Z^dim, each axis's + step before its - step."""
    return [tuple(s * (a == b) for b in range(dim)) for a in range(dim) for s in (1, -1)]


# The 8 axis and diagonal steps of the plane.
_DIAGONAL_STEPS = [(dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1) if dx or dy]


class _Growth(NamedTuple):
    lattice: tuple[list[int], int] | None  # neighbour offsets and origin site; None: the line
    edge_rate: float  # firing rate of each boundary edge
    points: int  # points per occupied site


# growth -> its parameters, read off a ClusterProcessConfig. A line cluster
# is a frontier pair: two boundary edges whose firings add a point each and
# leave the pair as it was; its seed is not counted. A lattice cluster
# never holds more sites than the target needs, ceil(target / points).
_GROWTH = {
    "line": lambda cfg: _Growth(None, cfg.beta, 1),
    "fpp": lambda cfg: _Growth(_lattice(_axis_steps(cfg.dim), cfg.target_count), cfg.beta, 1),
    "diagonal": lambda cfg: _Growth(
        _lattice(_DIAGONAL_STEPS, -(-cfg.target_count // cfg.occupancy)),
        cfg.mu_eff,
        cfg.occupancy,
    ),
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
        # A lattice cluster is its infected sites, its boundary edges (site,
        # neighbour) in a swap-remove list, and each edge's list position.
        deltas, origin = lattice
        seed_edges = [(origin, origin + d) for d in deltas]
        seed_pos = {e: i for i, e in enumerate(seed_edges)}
        frontier, seed_points = len(deltas), points
        clusters = [({origin}, seed_edges.copy(), seed_pos.copy())]
    exp, uni = samplers(rng)
    draw, uniform = exp.draw, uni.draw
    lam = cfg.seeding_rate
    max_time = math.inf if cfg.max_time is None else cfg.max_time

    bounds = [frontier]  # boundary edges per cluster
    total = frontier
    t = 0.0
    births = [0.0]
    # Each point of the count path after the first adds ``points``: a
    # lattice birth adds its seed site, worth ``seed_points == points``, and
    # a line birth adds nothing and makes no point. So the path is its
    # times alone, and the run needs ``left`` more points to hit the target.
    times = array("d", [0.0])
    left = max(0, (cfg.target_count - seed_points + points - 1) // points)
    events = 0
    while left:
        rate = lam + edge_rate * total
        t += draw() / rate
        if t > max_time:
            t = max_time
            break
        events += 1
        x = uniform() * rate
        if x < lam:
            births.append(t)
            bounds.append(frontier)
            total += frontier
            if clusters is None:
                continue
            clusters.append(({origin}, seed_edges.copy(), seed_pos.copy()))
        elif clusters is not None:
            # the cluster owning the fired edge, by boundary edge counts
            x = (x - lam) / edge_rate
            acc = 0
            for i, b in enumerate(bounds):
                acc += b
                if acc > x:
                    break
            # fire one of its boundary edges, uniformly chosen
            infected, edges, pos = clusters[i]
            _, dst = edges[int(uniform() * len(edges))]
            infected.add(dst)
            for d in deltas:
                w = dst + d
                if w in infected:
                    j = pos.pop((w, dst))
                    last = edges.pop()
                    if j < len(edges):
                        edges[j] = last
                        pos[last] = j
                else:
                    e = (dst, w)
                    pos[e] = len(edges)
                    edges.append(e)
            total += len(edges) - b
            bounds[i] = len(edges)
        times.append(t)
        left -= 1
    path_times, path_counts = _count_path(times, seed_points, points)
    return ClusterTrace(
        cluster_birth_times=births,
        path_times=path_times,
        path_counts=path_counts,
        hitting_time=None if left else t,
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


def sample_hits(
    cfg: ClusterProcessConfig, replicates: int, traces: list | None = None
) -> RunBatch:
    """The ``RunBatch`` of runs 0..R-1 of ``run_cluster_process``: hitting
    times (NaN for a run ``max_time`` cut off) and event counts, run as
    contiguous ranges on every CPU by ``rng.run_batch``. ``traces``, if
    given, receives run 0's ``ClusterTrace``: run 0 always runs in this
    process, in the first range."""

    def run(streams, first: int) -> RunBatch:
        out = RunBatch()
        for k, rng in enumerate(streams, first):
            tr = _cluster_run(cfg, rng)
            if traces is not None and k == 0:
                traces.append(tr)
            out.times.append(math.nan if tr.hitting_time is None else tr.hitting_time)
            out.events.append(tr.events)
        return out

    return run_batch(run, cfg.seed, CH_PROCESS, replicates, cfg.target_count)


def sample_hitting_times(cfg: ClusterProcessConfig, replicates: int) -> list[float]:
    """The hitting times of ``sample_hits``; a run that ``max_time`` cut
    off is refused, the earliest one named."""
    times = sample_hits(cfg, replicates).times
    for k, t in enumerate(times):
        if t != t:
            raise InvalidParameterError(f"cluster run {k} hit max_time before the target count")
    return times.tolist()


def write_cluster_csv(trace: ClusterTrace, path: str) -> None:
    with open(path, "w") as fh:
        fh.write("t,N\n")
        for t, n in zip(trace.path_times, trace.path_counts):
            fh.write(f"{t:.17g},{n}\n")
