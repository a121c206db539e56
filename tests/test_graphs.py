"""Graph families, partitions, BFS metrics, conductance, serialization."""

import math

import numpy as np
import pytest

from agentspread import graphs
from agentspread.errors import (
    ConnectivityError,
    InvalidFamilyError,
    InvalidParameterError,
    PartitionDegenerateError,
    SizeLimitError,
)

from oracles import conductance_brute


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
    graphs.validate_partition(g, p)


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
    graphs.validate_partition(g, p)


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
    graphs.validate_partition(g, p)


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
    graphs.validate_partition(g, p)


def test_partition_rgg_empty_tile_error():
    g = graphs.gen_rgg(5, 0.3, seed=2)
    with pytest.raises(PartitionDegenerateError) as err:
        graphs.partition_rgg(g)
    assert err.value.tile_index is not None


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


MALFORMED_GRAPH_FILES = {
    "header-n": ("four ring\n0 1\n", "line 1"),
    "one-token-edge": ("3 ring\n0 1\n2\n", "line 3"),
    "missing-coord": ("2 rgg 0.5\n0 1\ncoord 0 0.1 0.2\n", "node 1"),
    "grid-not-filled": ("10 grid 2\n0 1\n", "10 nodes"),
}


@pytest.mark.parametrize("text,where", MALFORMED_GRAPH_FILES.values(), ids=MALFORMED_GRAPH_FILES)
def test_read_graph_rejects_malformed_file(tmp_path, text, where):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(InvalidParameterError, match=where) as err:
        graphs.read_graph(str(path))
    assert str(path) in str(err.value)
