"""Graph families, partitions, and structural metrics.

Provides the node-level substrate for the simulator: ring/line graphs,
d-dimensional grids, random geometric graphs (RGG) and explicit edge
lists, together with the partition constructions used by the spreading
bounds (consecutive segments on rings, axis-aligned sub-grids, tile
chunks on RGGs), BFS spanning trees, exact diameters, and graph
conductance (exact by subset enumeration on small graphs, closed-form on
structured families).

The RGG and diameter layers run in numpy: an RGG's sorted adjacency is
read off the nonzero columns of blocked distance masks, and a piece's
diameter comes from one bit-parallel BFS over all of its sources (each
source a row of ``uint64`` words, one ``bitwise_or.reduceat`` per hop).

Grid node indexing is row-major over ``{1..side}^d`` with the last axis
varying fastest, the order of ``itertools.product``: grids, read-back grid
files and sub-grid pieces all take it from there, and coordinates
round-trip through ``grid_node_id``/``coords``. A BFS spanning tree lists
its nodes in discovery order, the order in which the two-phase process
spreads along it.
Graphs are immutable after construction and safe to share across
concurrent workers.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    ConnectivityError,
    InvalidFamilyError,
    InvalidParameterError,
    SizeLimitError,
    positive,
)
from .rng import CH_GRAPH, substream

CONDUCTANCE_EXACT_LIMIT = 24


# ---------------------------------------------------------------------------
# Core types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Graph:
    """Immutable undirected graph with optional node coordinates.

    ``adjacency`` holds per-node sorted neighbour tuples (symmetric, no
    self-loops, no duplicates). ``coords`` carries integer lattice points
    for grids (1-based per axis) and unit-square points for RGGs.
    """

    n: int
    adjacency: tuple[tuple[int, ...], ...]
    family: str = "custom"
    dim: int | None = None
    radius: float | None = None
    coords: tuple[tuple[float, ...], ...] | None = None

    @property
    def edge_count(self) -> int:
        return sum(len(a) for a in self.adjacency) // 2

    def edges(self):
        """Yield each undirected edge once as (u, v) with u < v."""
        for u, nbrs in enumerate(self.adjacency):
            for v in nbrs:
                if u < v:
                    yield u, v

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])


@dataclass(frozen=True)
class Partition:
    """Decomposition into connected pieces with exact hop diameters."""

    pieces: tuple[tuple[int, ...], ...]
    piece_sizes: tuple[int, ...]
    piece_diameters: tuple[int, ...]

    @property
    def g(self) -> int:
        return len(self.pieces)

    def piece_of(self, n: int) -> list[int]:
        """Node-to-piece index lookup table of nodes 0..n-1; raises
        InvalidParameterError unless the pieces cover each of them once."""
        out = [-1] * n
        for i, piece in enumerate(self.pieces):
            for v in piece:
                if not 0 <= v < n:
                    raise InvalidParameterError(f"piece {i} holds node {v}, outside 0..{n - 1}")
                if out[v] >= 0:
                    raise InvalidParameterError(f"node {v} is in pieces {out[v]} and {i}")
                out[v] = i
        if -1 in out:
            raise InvalidParameterError(f"node {out.index(-1)} is in no piece")
        return out


@dataclass(frozen=True)
class SpanningTree:
    """BFS shortest-path tree of one partition piece."""

    root: int
    parent: dict[int, int]
    depth: dict[int, int]


@dataclass(frozen=True)
class ConductanceResult:
    value: float
    witness_set: tuple[int, ...] | None
    mode: str  # "exact" | "analytic"
    cut_edges: int | None = None
    set_size: int | None = None


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


def _build_adjacency(n: int, edges: Iterable[tuple[int, int]]) -> tuple[tuple[int, ...], ...]:
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise InvalidParameterError(f"edge ({u},{v}) out of bounds for n={n}")
        if u == v:
            raise InvalidParameterError(f"self-loop at node {u}")
        adj[u].add(v)
        adj[v].add(u)
    return tuple(tuple(sorted(a)) for a in adj)


def gen_ring(n: int) -> Graph:
    """Cycle on n contiguous nodes; node i adjacent to (i±1) mod n."""
    if n < 3:
        raise InvalidParameterError(f"ring needs n >= 3, got {n}")
    edges = [(i, (i + 1) % n) for i in range(n)]
    return Graph(n=n, adjacency=_build_adjacency(n, edges), family="ring")


def gen_line(n: int) -> Graph:
    """Path on n nodes (the ring with one edge removed)."""
    if n < 2:
        raise InvalidParameterError(f"line needs n >= 2, got {n}")
    edges = [(i, i + 1) for i in range(n - 1)]
    return Graph(n=n, adjacency=_build_adjacency(n, edges), family="line")


def _floor_root(n: float, k: int) -> int:
    """floor(n^(1/k)) with protection against float drift at exact powers."""
    r = int(round(n ** (1.0 / k)))
    while r > 1 and r**k > n + 1e-9:
        r -= 1
    while (r + 1) ** k <= n + 1e-9:
        r += 1
    return max(r, 1)


def grid_node_id(coord: Sequence[int], side: int) -> int:
    """Row-major id of a 1-based lattice point, last axis fastest."""
    idx = 0
    for x in coord:
        idx = idx * side + (x - 1)
    return idx


def _grid_coords(side: int, d: int) -> tuple[tuple[int, ...], ...]:
    """The lattice points of {1..side}^d in node-id order (row-major, last
    axis fastest)."""
    return tuple(itertools.product(range(1, side + 1), repeat=d))


def gen_grid(n: int, d: int) -> Graph:
    """d-dimensional grid on {1..side}^d with the L1-distance-1 edges.

    The side is floor(n^(1/d)), so when n is not a perfect d-th power the
    realized node count is side**d < n. Each node's neighbours are listed
    in ascending id order without an edge list: idx - stride for each axis
    whose coordinate is above 1, largest stride first, then idx + stride
    for each axis whose coordinate is below the side, smallest first.
    """
    if n < 1 or d < 1:
        raise InvalidParameterError("grid needs n >= 1 and d >= 1")
    side = _floor_root(n, d)
    coords = _grid_coords(side, d)
    down = [(axis, side ** (d - 1 - axis)) for axis in range(d)]
    up = down[::-1]
    ids = list(range(side**d))  # one int object per node, shared by its neighbours' tuples
    adjacency = tuple(
        tuple(
            [ids[idx - s] for a, s in down if c[a] > 1]
            + [ids[idx + s] for a, s in up if c[a] < side]
        )
        for idx, c in enumerate(coords)
    )
    return Graph(n=side**d, adjacency=adjacency, family="grid", dim=d, coords=coords)


def _disk_adjacency(pts: np.ndarray, r: float) -> tuple[tuple[int, ...], ...]:
    """Sorted adjacency of the r-disk graph on the rows of ``pts`` (n x 2):
    an edge iff ||x-y|| <= r, the one RGG edge rule.

    The distance test runs on blocks of rows, and each row's neighbours
    are the nonzero columns of its mask (diagonal cleared), already in
    ascending id order. The mask is symmetric, since x_u - x_v is exactly
    -(x_v - x_u) in floating point. A radius that is not finite and
    nonnegative raises InvalidParameterError.
    """
    if not 0 <= r < math.inf:
        raise InvalidParameterError(f"rgg radius must be finite and nonnegative, got {r}")
    n = len(pts)
    r2 = r * r
    adjacency: list[tuple[int, ...]] = []
    chunk = max(1, 4_000_000 // max(n, 1))
    xs, ys = pts[:, 0], pts[:, 1]
    for i0 in range(0, n, chunk):
        block = pts[i0 : i0 + chunk]
        dx = block[:, 0:1] - xs[None, :]
        dy = block[:, 1:2] - ys[None, :]
        close = dx * dx + dy * dy <= r2
        rows = np.arange(len(block))
        close[rows, rows + i0] = False
        bi, j = np.nonzero(close)
        cols = j.tolist()
        cuts = np.searchsorted(bi, np.arange(len(block) + 1)).tolist()
        adjacency.extend(tuple(cols[a:b]) for a, b in zip(cuts, cuts[1:]))
    return tuple(adjacency)


def gen_rgg(n: int, r: float, seed: int) -> Graph:
    """RGG: n points i.i.d. uniform on the unit square, edge iff ||x-y|| <= r.

    Deterministic for fixed (n, r, seed): the point set comes from the
    counter-based stream addressed by the seed, and ``_disk_adjacency``
    decides the edges.
    """
    if n < 1:
        raise InvalidParameterError(f"rgg needs n >= 1, got {n}")
    pts = substream(seed, 0, CH_GRAPH).random((n, 2))
    return Graph(
        n=n,
        adjacency=_disk_adjacency(pts, r),
        family="rgg",
        radius=r,
        coords=tuple(map(tuple, pts.tolist())),
    )


def gen_custom(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Graph from an explicit edge list (deduplicated, symmetric)."""
    if n < 1:
        raise InvalidParameterError(f"need n >= 1, got {n}")
    return Graph(n=n, adjacency=_build_adjacency(n, edges), family="custom")


def make_graph(family: str, n: int, d: int = 2, r: float | None = None, seed: int = 0) -> Graph:
    """Build a graph of a named family: ring, line, grid (dimension d) or
    rgg (radius r, points drawn from seed).

    An RGG without a radius gets the critical radius sqrt(5 ln n / n).
    A grid realizes side**d <= n nodes, so read the size off ``.n``.
    """
    if family == "ring":
        return gen_ring(n)
    if family == "line":
        return gen_line(n)
    if family == "grid":
        return gen_grid(n, d)
    if family == "rgg":
        return gen_rgg(n, math.sqrt(5.0 * math.log(n) / n) if r is None else r, seed)
    raise InvalidParameterError(f"unknown graph family {family!r}")


def canonical_partition(graph: Graph, l_min: float = 1.0) -> Partition:
    """The family's standard partition: sqrt(n) segments on rings/lines,
    (n/l_min)^(1/(d+1))-sided sub-grids, tile chunks on RGGs."""
    if graph.family in ("ring", "line"):
        return partition_ring(graph)
    if graph.family == "grid":
        return partition_grid(graph, l_min=l_min)
    if graph.family == "rgg":
        return partition_rgg(graph, l_min=l_min)
    raise InvalidParameterError(f"no canonical partition for family {graph.family}")


# ---------------------------------------------------------------------------
# BFS and diameter
# ---------------------------------------------------------------------------


def bfs_tree(g: Graph, piece: Iterable[int], root: int) -> SpanningTree:
    """Shortest-path spanning tree of a connected piece, rooted at root.

    ``parent`` holds the non-root nodes in BFS discovery order (neighbours
    of each dequeued node in ascending id), so a walk over
    ``parent.items()`` meets every node after its parent. A piece that
    root cannot reach whole raises ConnectivityError.
    """
    members = set(piece)
    if root not in members:
        raise InvalidParameterError(f"root {root} not in piece")
    parent: dict[int, int] = {}
    depth = {root: 0}
    q = deque([root])
    adj = g.adjacency
    while q:
        u = q.popleft()
        du = depth[u]
        for v in adj[u]:
            if v in members and v not in depth:
                depth[v] = du + 1
                parent[v] = u
                q.append(v)
    if len(depth) != len(members):
        missing = next(iter(members - depth.keys()))
        raise ConnectivityError(
            f"piece is disconnected: node {missing} unreachable from {root}",
            unreachable=missing,
        )
    return SpanningTree(root=root, parent=parent, depth=depth)


def diameter(g: Graph, piece: Iterable[int] | None = None) -> int:
    """Exact hop diameter of a connected piece, by bit-parallel BFS from
    all of its nodes at once.

    Row i of ``reach`` is the bitset (``uint64`` words, bit j = local node
    j) of the nodes within t hops of local node i. Each round ORs every
    row with its neighbours' rows, one ``reduceat`` over the piece's
    induced adjacency with self-loops; the number of rounds until every
    row is full is the diameter. A round that changes nothing means the
    piece is disconnected: ConnectivityError names a node the lowest-id
    member cannot reach. A round gathers one row per arc, so it holds about
    k^2 * (mean degree) / 8 bytes for a k-node piece.
    """
    members = list(range(g.n)) if piece is None else sorted(set(piece))
    k = len(members)
    ids = np.arange(k)
    # Closed neighbourhoods (each node first, then its neighbours) as local
    # CSR arrays: the self-loop keeps every row's reduceat segment nonempty.
    closed = [(v, *g.adjacency[v]) for v in members]
    local = np.full(g.n, -1)
    local[members] = ids
    cols = local[np.fromiter(itertools.chain.from_iterable(closed), dtype=np.int64)]
    rows = np.repeat(ids, [len(c) for c in closed])
    inside = cols >= 0
    cols, starts = cols[inside], np.searchsorted(rows[inside], ids)
    reach = np.zeros((k, (k + 63) // 64), dtype=np.uint64)
    reach[ids, ids // 64] = np.uint64(1) << (ids % 64).astype(np.uint64)
    full = np.bitwise_or.reduce(reach, axis=0)
    rounds = 0
    while not (reach == full).all():
        nxt = np.bitwise_or.reduceat(reach[cols], starts, axis=0)
        if np.array_equal(nxt, reach):
            row = reach[0].tolist()
            reached = [v for j, v in enumerate(members) if row[j // 64] >> (j % 64) & 1]
            # difference() copies the set, as set - dict.keys() does, so the
            # first node left is the one a per-source BFS has always named.
            missing = next(iter(set(members).difference(reached)))
            raise ConnectivityError(
                f"piece is disconnected: node {missing} unreachable from {members[0]}",
                unreachable=missing,
            )
        reach = nxt
        rounds += 1
    return rounds


# ---------------------------------------------------------------------------
# Partitions
# ---------------------------------------------------------------------------


def partition_ring(g: Graph) -> Partition:
    """Split a ring/line into ~sqrt(n) consecutive segments of ~sqrt(n) nodes.

    The segment length is floor(sqrt(n)); the last segment absorbs the
    remainder, staying below twice that length.
    """
    if g.family not in ("ring", "line"):
        raise InvalidFamilyError(f"segment partition needs ring/line, got {g.family}")
    n = g.n
    s = _floor_root(n, 2)
    count = max(1, n // s)
    pieces = tuple(
        tuple(range(i * s, (i + 1) * s if i < count - 1 else n)) for i in range(count)
    )
    sizes = tuple(len(p) for p in pieces)
    if count == 1:
        diams: tuple[int, ...] = (n // 2 if g.family == "ring" else n - 1,)
    else:
        diams = tuple(sz - 1 for sz in sizes)
    return Partition(pieces=pieces, piece_sizes=sizes, piece_diameters=diams)


def partition_grid(g: Graph, l_min: float = 1.0) -> Partition:
    """Tile a d-grid into contiguous sub-grids of side ~ (n/l_min)^(1/(d+1)).

    Each piece is an axis-aligned box, listed in ascending node ids; the
    trailing block on each axis absorbs the remainder (below twice the
    nominal side). Boxes come in row-major block order.
    """
    if g.family != "grid":
        raise InvalidFamilyError(f"sub-grid partition needs grid, got {g.family}")
    positive("l_min", l_min)
    d = g.dim
    assert d is not None
    side = _floor_root(g.n, d)
    b = max(1, min(side, int((g.n / l_min) ** (1.0 / (d + 1)) + 1e-9)))
    k = side // b
    # Block i of an axis covers 1-based coordinates [i*b + 1, (i+1)*b + 1).
    blocks = [range(i * b + 1, (i + 1) * b + 1 if i < k - 1 else side + 1) for i in range(k)]
    pieces = []
    diams = []
    for box in itertools.product(blocks, repeat=d):
        pieces.append(tuple(grid_node_id(c, side) for c in itertools.product(*box)))
        diams.append(sum(len(r) - 1 for r in box))
    return Partition(
        pieces=tuple(pieces),
        piece_sizes=tuple(len(p) for p in pieces),
        piece_diameters=tuple(diams),
    )


def partition_rgg(g: Graph, l_min: float = 1.0) -> Partition:
    """Group RGG nodes into square chunks, each a whole block of tiles.

    The unit square is cut into tiles of side at most r/sqrt(5) (points in
    the same or in horizontally/vertically adjacent tiles are always within
    range r of one another), and tiles are grouped into ~(n/l_min)^(1/3)
    chunk blocks. A tile may be empty; what matters is that each chunk is
    connected, and ``diameter`` raises ConnectivityError naming an
    unreachable node for a chunk that is not. A radius that is not finite
    and positive raises InvalidParameterError.
    """
    if g.family != "rgg":
        raise InvalidFamilyError(f"chunk partition needs rgg, got {g.family}")
    positive("l_min", l_min)
    r = positive("rgg radius", g.radius)
    assert g.coords is not None
    n = g.n
    if r >= math.sqrt(2):
        tiles = 1  # the whole square already has diameter <= r
    else:
        tiles = int(math.ceil(math.sqrt(5.0) / r - 1e-12))
    chunks = max(1, min(tiles, int((n / l_min) ** (1.0 / 6.0) + 1e-9)))
    piece_nodes: dict[tuple[int, int], list[int]] = {}
    for v, (x, y) in enumerate(g.coords):
        tx = min(int(x * tiles), tiles - 1)
        ty = min(int(y * tiles), tiles - 1)
        piece_nodes.setdefault((tx * chunks // tiles, ty * chunks // tiles), []).append(v)
    keys = sorted(piece_nodes)
    pieces = tuple(tuple(sorted(piece_nodes[k])) for k in keys)
    diams = tuple(diameter(g, p) for p in pieces)
    return Partition(
        pieces=pieces,
        piece_sizes=tuple(len(p) for p in pieces),
        piece_diameters=diams,
    )


def validate_partition(g: Graph, p: Partition) -> None:
    """Raise ValueError unless p is a disjoint connected cover of g with
    exact piece diameters (recomputed by ``diameter``, which raises
    ConnectivityError for a disconnected piece)."""
    p.piece_of(g.n)  # InvalidParameterError, a ValueError, unless a cover
    if p.piece_sizes != tuple(len(piece) for piece in p.pieces):
        raise ValueError("piece_sizes disagree with pieces")
    for i, piece in enumerate(p.pieces):
        d = diameter(g, piece)  # raises ConnectivityError if disconnected
        if d != p.piece_diameters[i]:
            raise ValueError(
                f"piece {i} diameter {p.piece_diameters[i]} != recomputed {d}"
            )


# ---------------------------------------------------------------------------
# Conductance
# ---------------------------------------------------------------------------


def _popcount_u32(x: np.ndarray) -> np.ndarray:
    x = x - ((x >> np.uint32(1)) & np.uint32(0x55555555))
    x = (x & np.uint32(0x33333333)) + ((x >> np.uint32(2)) & np.uint32(0x33333333))
    x = (x + (x >> np.uint32(4))) & np.uint32(0x0F0F0F0F)
    return (x * np.uint32(0x01010101)) >> np.uint32(24)


def conductance_exact(g: Graph) -> ConductanceResult:
    """Minimum of cut(S)/|S| over all subsets with 1 <= |S| <= n/2.

    Enumerates every subset (vectorized in chunks), so it is limited to
    n <= 24; larger graphs get a size-limit error pointing to the
    analytic mode.
    """
    n = g.n
    if n > CONDUCTANCE_EXACT_LIMIT:
        raise SizeLimitError(
            f"exact conductance enumerates 2^n subsets and is limited to "
            f"n <= {CONDUCTANCE_EXACT_LIMIT} (got n={n}); use conductance_analytic"
        )
    if n < 2:
        raise InvalidParameterError("conductance needs n >= 2")
    edge_list = list(g.edges())
    half = n // 2
    best_ratio = math.inf
    best_mask = 0
    best_cut = 0
    best_size = 1
    chunk = 1 << 20
    one = np.uint32(1)
    for lo in range(1, 1 << n, chunk):
        hi = min(lo + chunk, 1 << n)
        masks = np.arange(lo, hi, dtype=np.uint32)
        sizes = _popcount_u32(masks)
        cut = np.zeros(masks.shape, dtype=np.uint32)
        for u, v in edge_list:
            cut += ((masks >> np.uint32(u)) ^ (masks >> np.uint32(v))) & one
        ratio = cut / sizes
        ratio[sizes > half] = np.inf
        i = int(np.argmin(ratio))
        if ratio[i] < best_ratio:
            best_ratio = float(ratio[i])
            best_mask = int(masks[i])
            best_cut = int(cut[i])
            best_size = int(sizes[i])
    witness = tuple(v for v in range(n) if (best_mask >> v) & 1)
    return ConductanceResult(
        value=best_ratio,
        witness_set=witness,
        mode="exact",
        cut_edges=best_cut,
        set_size=best_size,
    )


def conductance_analytic(g: Graph) -> ConductanceResult:
    """Closed-form conductance of structured families (contiguous half cut)."""
    n = g.n
    if g.family == "ring":
        return ConductanceResult(value=2 / (n // 2), witness_set=None, mode="analytic")
    if g.family == "line":
        return ConductanceResult(value=1 / (n // 2), witness_set=None, mode="analytic")
    if g.family == "grid":
        d = g.dim
        assert d is not None
        side = _floor_root(n, d)
        return ConductanceResult(
            value=side ** (d - 1) / (n // 2), witness_set=None, mode="analytic"
        )
    raise InvalidFamilyError(f"no analytic conductance for family {g.family}")


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def write_graph(g: Graph, path: str) -> None:
    """Line-oriented text format: header `n family params`, one `u v` line
    per edge, and for RGGs `coord u x y` lines with round-trip-exact reals."""
    with open(path, "w") as fh:
        if g.family == "grid":
            fh.write(f"{g.n} grid {g.dim}\n")
        elif g.family == "rgg":
            fh.write(f"{g.n} rgg {g.radius:.17g}\n")
        else:
            fh.write(f"{g.n} {g.family}\n")
        for u, v in g.edges():
            fh.write(f"{u} {v}\n")
        if g.family == "rgg" and g.coords is not None:
            for u, (x, y) in enumerate(g.coords):
                fh.write(f"coord {u} {x:.17g} {y:.17g}\n")


def read_graph(path: str) -> Graph:
    """Read a graph in the format of ``write_graph``. A malformed file
    raises InvalidParameterError naming the path and the line, and so does
    a header whose node count is below 1, a ``ring``, ``line`` or ``grid``
    file whose edges differ from that family's graph on n nodes, or an
    ``rgg`` file whose edges differ from the disk graph of its coordinates
    and radius."""
    edges = []
    coords: dict[int, tuple[float, float]] = {}
    with open(path) as fh:
        lineno, line = 1, fh.readline()
        try:
            header = line.split()
            n, family = int(header[0]), header[1]
            dim = int(header[2]) if family == "grid" else None
            radius = float(header[2]) if family == "rgg" else None
            for lineno, line in enumerate(fh, 2):
                parts = line.split()
                if not parts:
                    continue
                if parts[0] == "coord":
                    coords[int(parts[1])] = (float(parts[2]), float(parts[3]))
                else:
                    edges.append((int(parts[0]), int(parts[1])))
        except (ValueError, IndexError):
            raise InvalidParameterError(
                f"{path}, line {lineno}: malformed graph line {line.strip()!r}"
            ) from None
    if n < 1:
        raise InvalidParameterError(f"{path}: node count must be >= 1, got {n}")
    coord_tuple = None
    if coords or family == "rgg":
        try:
            coord_tuple = tuple(coords[v] for v in range(n))
        except KeyError as e:
            raise InvalidParameterError(f"{path}: no coord line for node {e.args[0]}") from None
    elif family == "grid":
        # Lattice coordinates are implied by the row-major indexing.
        if dim < 1 or _floor_root(n, dim) ** dim != n:
            raise InvalidParameterError(f"{path}: {n} nodes do not fill a {dim}-d grid")
        coord_tuple = _grid_coords(_floor_root(n, dim), dim)
    adjacency = _build_adjacency(n, edges)
    if family in ("ring", "line", "grid", "rgg"):
        # Partitions and analytic conductance trust the label, so the edges
        # must be exactly the family's.
        try:
            if family == "rgg":
                want = _disk_adjacency(np.array(coord_tuple, dtype=float).reshape(-1, 2), radius)
            else:
                want = make_graph(family, n, dim if family == "grid" else 2).adjacency
        except InvalidParameterError:
            want = None
        if adjacency != want:
            of = f" of radius {radius} on its coords" if family == "rgg" else ""
            raise InvalidParameterError(f"{path}: edges are not those of a {n}-node {family}{of}")
    return Graph(
        n=n,
        adjacency=adjacency,
        family=family,
        dim=dim,
        radius=radius,
        coords=coord_tuple,
    )
