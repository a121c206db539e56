"""Graph families, partitions, BFS metrics, conductance, serialization."""

import hashlib
import math

import numpy as np
import pytest

from agentspread import graphs
from agentspread.errors import (
    ConnectivityError,
    InvalidFamilyError,
    InvalidParameterError,
    SizeLimitError,
)

from agentspread.rng import CH_GRAPH, substream

from oracles import conductance_brute, validate_partition


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


def test_ring_smallest_cycle():
    g = graphs.gen_ring(3)
    assert g.edge_count == 3
    assert graphs.diameter(g) == 1


def test_ring_diameter_is_half():
    assert graphs.diameter(graphs.gen_ring(8)) == 4


def test_ring_rejects_small_n():
    with pytest.raises(InvalidParameterError):
        graphs.gen_ring(2)


@pytest.mark.parametrize("n", [3, 8, 17])
def test_ring_degrees_and_edges(n):
    g = graphs.gen_ring(n)
    assert g.edge_count == n
    assert all(g.degree(v) == 2 for v in range(n))


def test_line_path():
    g = graphs.gen_line(5)
    assert g.edge_count == 4
    assert graphs.diameter(g) == 4


def test_grid_3x3():
    g = graphs.gen_grid(9, 2)
    assert g.edge_count == 12
    assert graphs.diameter(g) == 4


def test_grid_cube():
    g = graphs.gen_grid(8, 3)
    assert g.edge_count == 12
    assert graphs.diameter(g) == 3


def test_grid_degree_bounds():
    g = graphs.gen_grid(16, 2)
    degs = [g.degree(v) for v in range(g.n)]
    assert min(degs) >= 2 and max(degs) <= 4


def test_grid_lenient_floors_side():
    g = graphs.gen_grid(10, 2)
    assert g.n == 9


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [1, 2, 3, 8, 16, 17, 81, 100, 1000, 4096])
def test_grid_adjacency_equals_the_edge_list_build(d, n):
    # gen_grid lists each node's neighbours directly; they are the sorted
    # neighbour sets of its edge list, one edge to the next node on each
    # axis whose coordinate is below the side.
    g = graphs.gen_grid(n, d)
    side = graphs._floor_root(n, d)
    edges = [
        (idx, idx + side ** (d - 1 - axis))
        for idx, c in enumerate(g.coords)
        for axis in range(d)
        if c[axis] < side
    ]
    assert g.n == side**d
    assert g.adjacency == graphs._build_adjacency(g.n, edges)


def test_grid_coords_round_trip():
    g = graphs.gen_grid(27, 3)
    side = 3
    for v, c in enumerate(g.coords):
        assert graphs.grid_node_id(c, side) == v


@pytest.mark.parametrize(
    "make",
    [
        lambda: graphs.gen_ring(12),
        lambda: graphs.gen_line(9),
        lambda: graphs.gen_grid(16, 2),
        lambda: graphs.gen_rgg(60, 0.35, seed=5),
    ],
    ids=["ring", "line", "grid", "rgg"],
)
def test_adjacency_symmetric_no_loops(make):
    g = make()
    for u in range(g.n):
        nbrs = g.adjacency[u]
        assert list(nbrs) == sorted(set(nbrs))
        assert u not in nbrs
        for v in nbrs:
            assert u in g.adjacency[v]


def test_rgg_full_radius_connects_two_nodes():
    g = graphs.gen_rgg(2, math.sqrt(2), seed=1)
    assert g.edge_count == 1


def test_rgg_zero_radius_has_no_edges():
    g = graphs.gen_rgg(100, 0.0, seed=1)
    assert g.edge_count == 0


def test_rgg_deterministic():
    a = graphs.gen_rgg(80, 0.3, seed=42)
    b = graphs.gen_rgg(80, 0.3, seed=42)
    assert a.adjacency == b.adjacency
    assert a.coords == b.coords
    c = graphs.gen_rgg(80, 0.3, seed=43)
    assert c.adjacency != a.adjacency


def test_rgg_edge_rule_matches_coords():
    g = graphs.gen_rgg(40, 0.4, seed=9)
    pts = np.array(g.coords)
    for u in range(g.n):
        for v in range(u + 1, g.n):
            d = float(np.hypot(*(pts[u] - pts[v])))
            assert (v in g.adjacency[u]) == (d <= 0.4)


def _pair_adjacency(g):
    """Reference: every pair u < v with the documented distance test."""
    xs = np.array([c[0] for c in g.coords])
    ys = np.array([c[1] for c in g.coords])
    r2 = g.radius * g.radius
    edges = []
    for u in range(g.n):
        dx = xs[u] - xs[u + 1 :]
        dy = ys[u] - ys[u + 1 :]
        edges.extend((u, u + 1 + int(k)) for k in np.flatnonzero(dx * dx + dy * dy <= r2))
    return graphs._build_adjacency(g.n, edges)


# n = 3000 runs the distance test in three row blocks. A complete graph on
# 3000 nodes would hold 9M Python ints, so r >= sqrt(2) stops at n = 300.
@pytest.mark.parametrize(
    "n,r",
    [(n, r) for n in (1, 2, 300, 3000) for r in (0.0, "critical")]
    + [(n, r) for n in (1, 2, 300) for r in (math.sqrt(2), 1.5)],
)
def test_rgg_adjacency_matches_pair_enumeration(n, r):
    if r == "critical":
        r = math.sqrt(5 * math.log(n) / n)
    g = graphs.gen_rgg(n, r, seed=n + 17)
    assert g.adjacency == _pair_adjacency(g)
    assert g.coords == tuple(map(tuple, substream(n + 17, 0, CH_GRAPH).random((n, 2)).tolist()))


@pytest.mark.parametrize("r", [math.nan, math.inf, -0.1])
def test_rgg_rejects_bad_radius(r):
    with pytest.raises(InvalidParameterError, match="radius"):
        graphs.gen_rgg(40, r, seed=3)


def test_custom_rejects_self_loop():
    with pytest.raises(InvalidParameterError):
        graphs.gen_custom(3, [(0, 0)])


# ---------------------------------------------------------------------------
# Partitions
# ---------------------------------------------------------------------------


def test_partition_ring_16():
    g = graphs.gen_ring(16)
    p = graphs.partition_ring(g)
    assert p.g == 4
    assert p.piece_sizes == (4, 4, 4, 4)
    assert p.piece_diameters == (3, 3, 3, 3)
    validate_partition(g, p)


def test_partition_ring_4():
    p = graphs.partition_ring(graphs.gen_ring(4))
    assert p.piece_sizes == (2, 2)


def test_partition_ring_100():
    p = graphs.partition_ring(graphs.gen_ring(100))
    assert p.g == 10
    assert all(s == 10 for s in p.piece_sizes)


def test_partition_ring_ragged_tail():
    g = graphs.gen_ring(19)  # sqrt -> 4, last piece absorbs remainder
    p = graphs.partition_ring(g)
    assert sum(p.piece_sizes) == 19
    assert max(p.piece_sizes) < 2 * 4
    validate_partition(g, p)


def test_partition_ring_wrong_family():
    with pytest.raises(InvalidFamilyError):
        graphs.partition_ring(graphs.gen_grid(9, 2))


def test_partition_grid_4096():
    g = graphs.gen_grid(4096, 2)
    p = graphs.partition_grid(g, l_min=1.0)
    assert p.g == 16
    assert all(s == 256 for s in p.piece_sizes)
    assert all(d == 30 for d in p.piece_diameters)


def test_partition_grid_4096_budget_8():
    g = graphs.gen_grid(4096, 2)
    p = graphs.partition_grid(g, l_min=8.0)
    assert p.g == 64
    assert all(s == 64 for s in p.piece_sizes)


def test_partition_grid_1d():
    g = graphs.gen_grid(16, 1)
    p = graphs.partition_grid(g, l_min=1.0)
    assert p.g == 4
    assert all(s == 4 for s in p.piece_sizes)


def test_partition_grid_validates():
    g = graphs.gen_grid(81, 2)
    p = graphs.partition_grid(g, l_min=1.0)
    validate_partition(g, p)


@pytest.mark.parametrize("l_min", [1, 3, 8])
@pytest.mark.parametrize("n,d", [(n, d) for d in (1, 2, 3) for n in (30, 100, 1000)])
def test_partition_grid_matches_box_membership(n, d, l_min):
    # Independent reference from the coordinates: the block of a node on
    # each axis is (x - 1) // b, the trailing block taking the remainder;
    # boxes in row-major block order, nodes ascending inside a box.
    g = graphs.gen_grid(n, d)
    side = round(g.n ** (1 / d))
    b = max(1, min(side, math.floor((g.n / l_min) ** (1 / (d + 1)) + 1e-9)))
    k = side // b
    boxes = {}
    for v, c in enumerate(g.coords):
        boxes.setdefault(tuple(min((x - 1) // b, k - 1) for x in c), []).append(v)
    want = [tuple(boxes[key]) for key in sorted(boxes)]
    p = graphs.partition_grid(g, l_min=l_min)
    assert p.pieces == tuple(want)
    assert p.piece_sizes == tuple(len(piece) for piece in want)
    extents = [[{g.coords[v][a] for v in piece} for a in range(d)] for piece in want]
    assert p.piece_diameters == tuple(sum(max(xs) - min(xs) for xs in e) for e in extents)


def test_partition_grid_wrong_family():
    with pytest.raises(InvalidFamilyError):
        graphs.partition_grid(graphs.gen_ring(16))


def test_partition_rgg_single_node():
    g = graphs.gen_rgg(1, math.sqrt(2), seed=3)
    p = graphs.partition_rgg(g)
    assert p.g == 1
    assert p.pieces == ((0,),)


def test_partition_rgg_exact_power_chunk_count():
    # 729^(1/6) = 3 exactly, so the chunk grid is 3x3 = ceil(n^(1/3)) chunks.
    g = graphs.gen_rgg(729, 0.28, seed=11)
    p = graphs.partition_rgg(g)
    assert p.g == 9 == math.ceil(729 ** (1 / 3))
    validate_partition(g, p)


# Recorded before the bit-parallel diameter: sizes, diameters and a digest
# of the pieces of make_graph("rgg", n, seed=seed) at the critical radius.
# (729, 2) leaves tile (0, 0) of 11x11 empty; its chunks are connected.
PINNED_RGG_PARTITIONS = {
    (256, 1): ((84, 56, 60, 56), (3, 3, 2, 2), "d114f115059a8199"),
    (256, 2): ((93, 62, 51, 50), (3, 2, 2, 2), "e0680f6992eb5593"),
    (256, 3): ((88, 63, 56, 49), (3, 2, 2, 2), "310160ea730b24c8"),
    (256, 4): ((99, 62, 63, 32), (3, 3, 3, 2), "1d7d601f8926ede1"),
    (729, 1): (
        (83, 108, 60, 97, 97, 71, 54, 86, 73),
        (3, 3, 3, 3, 3, 3, 2, 3, 2),
        "64a548090f1faf86",
    ),
    (729, 2): (
        (114, 99, 75, 102, 98, 64, 63, 64, 50),
        (3, 3, 3, 3, 3, 2, 2, 3, 2),
        "794f988e8848656c",
    ),
    (729, 3): (
        (106, 82, 65, 94, 95, 86, 68, 72, 61),
        (3, 3, 2, 3, 3, 2, 2, 2, 2),
        "0f57078fa5d92b60",
    ),
    (729, 4): (
        (101, 96, 80, 110, 94, 75, 67, 60, 46),
        (3, 3, 2, 3, 3, 2, 3, 2, 2),
        "3005fd89fedc182b",
    ),
}


@pytest.mark.parametrize("n,seed", PINNED_RGG_PARTITIONS)
def test_partition_rgg_pinned(n, seed):
    g = graphs.make_graph("rgg", n, seed=seed)
    p = graphs.partition_rgg(g)
    sizes, diams, digest = PINNED_RGG_PARTITIONS[n, seed]
    assert p.piece_sizes == sizes
    assert p.piece_diameters == diams
    assert hashlib.sha256(repr(p.pieces).encode()).hexdigest()[:16] == digest


@pytest.mark.parametrize("r", [0.0, math.nan])
def test_partition_rgg_rejects_degenerate_radius(r):
    g = graphs.Graph(n=1, adjacency=((),), family="rgg", radius=r, coords=((0.5, 0.5),))
    with pytest.raises(InvalidParameterError, match="radius"):
        graphs.partition_rgg(g)


def test_partition_rgg_empty_tiles_still_partition():
    # At the critical radius a tile holds about ln n points, so some are
    # empty; the chunks are connected all the same.
    empty = 0
    for seed in range(12):
        g = graphs.make_graph("rgg", 128, seed=seed)
        tiles = math.ceil(math.sqrt(5) / g.radius)
        empty += len({(int(x * tiles), int(y * tiles)) for x, y in g.coords}) < tiles * tiles
        validate_partition(g, graphs.partition_rgg(g))
    assert empty == 8  # seeds 0, 3-7, 10 and 11


def test_partition_rgg_disconnected_chunk_raises():
    g = graphs.gen_rgg(5, 0.3, seed=2)
    with pytest.raises(ConnectivityError, match="node 2 unreachable from 0") as err:
        graphs.partition_rgg(g)
    assert err.value.unreachable == 2


# ---------------------------------------------------------------------------
# BFS / diameter
# ---------------------------------------------------------------------------


def test_bfs_tree_path_depths():
    g = graphs.gen_line(3)
    tree = graphs.bfs_tree(g, [0, 1, 2], 0)
    assert tree.depth == {0: 0, 1: 1, 2: 2}
    assert tree.parent == {1: 0, 2: 1}


def test_bfs_tree_ring_depth():
    g = graphs.gen_ring(6)
    tree = graphs.bfs_tree(g, range(6), 2)
    assert max(tree.depth.values()) == 3


def test_bfs_tree_grid_corner():
    g = graphs.gen_grid(9, 2)
    tree = graphs.bfs_tree(g, range(9), 0)
    assert max(tree.depth.values()) == 4


def test_bfs_tree_disconnected_piece():
    g = graphs.gen_line(3)
    with pytest.raises(ConnectivityError) as err:
        graphs.bfs_tree(g, [0, 2], 0)
    assert err.value.unreachable == 2


def test_diameter_single_node():
    g = graphs.gen_ring(5)
    assert graphs.diameter(g, [2]) == 0


def test_bfs_depth_matches_recomputation():
    # Independent check: dict-based BFS reimplemented inline.
    rng = np.random.default_rng(4)
    g = graphs.gen_rgg(50, 0.35, seed=7)
    piece = set(range(g.n))
    for _ in range(25):
        root = int(rng.integers(g.n))
        tree = graphs.bfs_tree(g, piece, root)
        dist = {root: 0}
        frontier = [root]
        while frontier:
            nxt = []
            for u in frontier:
                for v in g.adjacency[u]:
                    if v not in dist:
                        dist[v] = dist[u] + 1
                        nxt.append(v)
            frontier = nxt
        assert tree.depth == dist


def _all_sources_diameter(g, piece):
    """Reference: one dict BFS per source in ascending id order; the first
    source that misses a node gives (missing, source)."""
    members = sorted(set(piece))
    member_set = set(members)
    best = 0
    for u in members:
        dist = {u: 0}
        frontier = [u]
        while frontier:
            nxt = []
            for x in frontier:
                for v in g.adjacency[x]:
                    if v in member_set and v not in dist:
                        dist[v] = dist[x] + 1
                        nxt.append(v)
            frontier = nxt
        if len(dist) != len(members):
            return next(iter(member_set - dist.keys())), u
        best = max(best, max(dist.values()))
    return best


DIAMETER_GRAPHS = {
    "rgg": lambda: graphs.gen_rgg(1000, 0.08, seed=6),
    "ring": lambda: graphs.gen_ring(400),
    "line": lambda: graphs.gen_line(400),
    "grid2": lambda: graphs.gen_grid(400, 2),
    "grid3": lambda: graphs.gen_grid(512, 3),
}


@pytest.mark.parametrize("size", [1, 2, 63, 64, 65, 128, 300])
@pytest.mark.parametrize("family", DIAMETER_GRAPHS)
def test_diameter_matches_all_sources_bfs(family, size):
    # Pieces of 1, 2, 63-65, 128 and 300 nodes span one to five bitset
    # words. A BFS-order prefix is connected; a random subset mostly not.
    g = DIAMETER_GRAPHS[family]()
    rng = np.random.default_rng(size)
    root = int(rng.integers(g.n))
    prefix = list(graphs.bfs_tree(g, range(g.n), root).parent)[: size - 1] + [root]
    subset = rng.choice(g.n, size=size, replace=False).tolist()
    for piece in (prefix, subset):
        want = _all_sources_diameter(g, piece)
        if isinstance(want, int):
            assert graphs.diameter(g, piece) == want
        else:
            missing, source = want
            with pytest.raises(ConnectivityError) as err:
                graphs.diameter(g, piece)
            assert err.value.unreachable == missing
            assert str(err.value) == (
                f"piece is disconnected: node {missing} unreachable from {source}"
            )


def test_diameter_whole_graph_and_empty_piece():
    g = graphs.gen_grid(100, 2)
    assert graphs.diameter(g) == 18
    assert graphs.diameter(g, []) == 0
    assert graphs.diameter(graphs.gen_rgg(1, 0.5, seed=1)) == 0


def test_diameter_disconnected_piece_names_node():
    g = graphs.gen_line(10)
    with pytest.raises(ConnectivityError, match="node 5 unreachable from 0") as err:
        graphs.diameter(g, [6, 0, 2, 1, 5])
    assert err.value.unreachable == 5
    g = graphs.gen_custom(3, [(0, 1)])  # node 2 isolated in the whole graph
    with pytest.raises(ConnectivityError) as err:
        graphs.diameter(g)
    assert err.value.unreachable == 2


# ---------------------------------------------------------------------------
# Conductance
# ---------------------------------------------------------------------------


def test_conductance_ring6():
    res = graphs.conductance_exact(graphs.gen_ring(6))
    assert res.value == pytest.approx(2 / 3)
    assert res.set_size == 3 and res.cut_edges == 2


def test_conductance_k4():
    g = graphs.gen_custom(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    res = graphs.conductance_exact(g)
    assert res.value == pytest.approx(2.0)


def test_conductance_two_triangles_bridge():
    g = graphs.gen_custom(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])
    res = graphs.conductance_exact(g)
    assert res.value == pytest.approx(1 / 3)
    assert sorted(res.witness_set) in ([0, 1, 2], [3, 4, 5])


@pytest.mark.parametrize("n", [4, 6, 8, 10, 12])
def test_conductance_even_ring_closed_form(n):
    res = graphs.conductance_exact(graphs.gen_ring(n))
    assert res.value == 2 / (n // 2)
    assert graphs.conductance_analytic(graphs.gen_ring(n)).value == res.value


@pytest.mark.parametrize(
    "family, n, d",
    [("ring", n, 1) for n in range(3, 17)]
    + [("line", n, 1) for n in range(2, 17)]
    + [
        ("grid", side**d, d)
        for d, sides in ((1, range(2, 17)), (2, range(2, 5)), (3, [2]), (4, [2]))
        for side in sides
    ],
)
def test_conductance_analytic_is_exact(family, n, d):
    # Odd sides included: the 3x3 grid's best cut is one layer, 3 edges
    # over 3 nodes; no 4-node set is cut by only 3 edges.
    g = graphs.make_graph(family, n, d)
    assert graphs.conductance_analytic(g).value == graphs.conductance_exact(g).value


def test_conductance_matches_brute_force():
    rng = np.random.default_rng(12)
    for trial in range(4):
        n = 7
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.45]
        if not edges:
            continue
        g = graphs.gen_custom(n, edges)
        expected, _ = conductance_brute([list(a) for a in g.adjacency])
        assert graphs.conductance_exact(g).value == pytest.approx(expected)


def test_conductance_witness_attains_value():
    g = graphs.gen_rgg(10, 0.5, seed=8)
    res = graphs.conductance_exact(g)
    inside = set(res.witness_set)
    cut = sum(1 for u, v in g.edges() if (u in inside) != (v in inside))
    assert cut / len(inside) == pytest.approx(res.value)


@pytest.mark.parametrize("conductance", [graphs.conductance_exact, graphs.conductance_analytic])
@pytest.mark.parametrize("n, d", [(1, 1), (3, 2), (7, 3)], ids=["d1", "d2", "d3"])
def test_conductance_refuses_a_one_node_grid(n, d, conductance):
    # A grid of side 1 has no cut; the analytic slab would divide by
    # floor(1/2) = 0.
    g = graphs.gen_grid(n, d)
    assert g.n == 1
    with pytest.raises(InvalidParameterError, match="conductance needs n >= 2"):
        conductance(g)


def test_conductance_size_limit():
    with pytest.raises(SizeLimitError):
        graphs.conductance_exact(graphs.gen_ring(25))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def test_graph_file_round_trip_ring(tmp_path):
    g = graphs.gen_ring(16)
    path = str(tmp_path / "ring.txt")
    graphs.write_graph(g, path)
    h = graphs.read_graph(path)
    assert h.n == g.n and h.family == "ring"
    assert h.adjacency == g.adjacency


@pytest.mark.parametrize("d,n", [(1, 16), (2, 16), (3, 27)])
def test_graph_file_round_trip_grid(tmp_path, d, n):
    g = graphs.gen_grid(n, d)
    path = str(tmp_path / "grid.txt")
    graphs.write_graph(g, path)
    h = graphs.read_graph(path)
    assert h.adjacency == g.adjacency
    assert h.dim == d
    assert h.coords == g.coords


def test_graph_file_round_trip_rgg_exact(tmp_path):
    g = graphs.gen_rgg(30, 0.4, seed=21)
    path = str(tmp_path / "rgg.txt")
    graphs.write_graph(g, path)
    h = graphs.read_graph(path)
    assert h.adjacency == g.adjacency
    assert h.radius == g.radius
    assert h.coords == g.coords  # 17 significant digits round-trip exactly


@pytest.mark.parametrize(
    "text",
    [
        "30 ring\n" + "".join(f"{i} {i + 1}\n" for i in range(29)),  # a path
        "4 line\n0 1\n1 2\n2 3\n3 0\n",  # a cycle
        "4 grid 2\n0 1\n1 3\n3 2\n",  # a 2x2 grid without the edge 0-2
        "2 ring\n0 1\n",  # no 2-node ring exists
    ],
    ids=["path-as-ring", "cycle-as-line", "grid-missing-edge", "tiny-ring"],
)
def test_read_graph_rejects_mislabelled_family(tmp_path, text):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(InvalidParameterError, match="edges are not those of") as err:
        graphs.read_graph(str(path))
    assert str(path) in str(err.value)


MALFORMED_GRAPH_FILES = {
    "header-n": ("four ring\n0 1\n", "line 1"),
    "one-token-edge": ("3 ring\n0 1\n2\n", "line 3"),
    "missing-coord": ("2 rgg 0.5\n0 1\ncoord 0 0.1 0.2\n", "node 1"),
    "grid-not-filled": ("10 grid 2\n0 1\n", "10 nodes"),
    # all four points lie within 0.6 of each other, so radius 1.5 joins every pair
    "rgg-not-disk-graph": (
        "4 rgg 1.5\n0 1\n2 3\n" + "".join(f"coord {v} {0.2 + 0.2 * v} 0.5\n" for v in range(4)),
        "rgg of radius 1.5",
    ),
    "rgg-nan-radius": ("2 rgg nan\n0 1\ncoord 0 0.1 0.2\ncoord 1 0.1 0.3\n", "radius nan"),
    "zero-nodes": ("0 custom\n", "node count must be >= 1, got 0"),
    "negative-nodes": ("-2 custom\n", "node count must be >= 1, got -2"),
    "negative-nodes-rgg": ("-2 rgg 0.5\n", "node count must be >= 1, got -2"),
}


@pytest.mark.parametrize("text,where", MALFORMED_GRAPH_FILES.values(), ids=MALFORMED_GRAPH_FILES)
def test_read_graph_rejects_malformed_file(tmp_path, text, where):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(InvalidParameterError, match=where) as err:
        graphs.read_graph(str(path))
    assert str(path) in str(err.value)
