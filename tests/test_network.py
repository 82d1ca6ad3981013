from dataclasses import fields

import pytest

from conftest import floyd_warshall
from repairnet.network import (
    LayoutError,
    NetworkLayout,
    build_complete_layout,
    build_lattice_layout,
    build_star_layout,
    shortest_next_hop,
)

FIG3_MACHINES = [(1, 3), (2, 5), (3, 1)]


def test_lattice_fig3_machine_distances():
    layout = build_lattice_layout(5, FIG3_MACHINES)
    assert layout.dist(1, 3) == 4
    assert layout.dist(1, 2) == 3
    assert layout.dist(2, 3) == 5


def test_lattice_two_machines_manhattan():
    layout = build_lattice_layout(5, [(1, 3), (2, 5)])
    assert layout.dist(1, 2) == abs(1 - 2) + abs(3 - 5) == 3


def test_lattice_single_node():
    layout = build_lattice_layout(1, [(1, 1)])
    assert layout.node_count == 1
    assert layout.dist(1, 1) == 0


def test_lattice_machine_renumbering():
    # Machines sorted by a then b regardless of the given order.
    layout = build_lattice_layout(5, [(3, 1), (1, 3), (2, 5)])
    assert layout.coordinates[0] == (1, 3)
    assert layout.coordinates[1] == (2, 5)
    assert layout.coordinates[2] == (3, 1)
    assert layout.machines == (1, 2, 3)
    assert layout.node_count == 25


def test_lattice_manhattan_between_all_machines():
    layout = build_lattice_layout(5, [(1, 1), (2, 4), (5, 5), (4, 2)])
    for i in layout.machines:
        ai, bi = layout.coordinates[i - 1]
        for j in layout.machines:
            aj, bj = layout.coordinates[j - 1]
            assert layout.dist(i, j) == abs(ai - aj) + abs(bi - bj)


def test_lattice_rejects_duplicates_and_out_of_range():
    with pytest.raises(LayoutError):
        build_lattice_layout(5, [(1, 1), (1, 1)])
    with pytest.raises(LayoutError):
        build_lattice_layout(5, [(0, 3)])
    with pytest.raises(LayoutError):
        build_lattice_layout(5, [(2, 6)])


def test_star_distances():
    layout = build_star_layout(6, 3)
    center = 7
    for i in range(1, 7):
        assert layout.dist(i, center) == 3
        for j in range(1, 7):
            if i != j:
                assert layout.dist(i, j) == 6


def test_star_small_cases():
    layout = build_star_layout(3, 1)
    assert layout.node_count == 4
    assert layout.dist(1, 2) == 2
    two = build_star_layout(2, 1)
    assert two.node_count == 3
    assert two.adjacency[2] == (1, 2)  # center joins both machines


def test_star_rejects_bad_arguments():
    with pytest.raises(LayoutError):
        build_star_layout(1, 2)
    with pytest.raises(LayoutError):
        build_star_layout(3, 0)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: build_lattice_layout(5, [(1.5, 2)]), r"machine_coords\[0\]: 1\.5 is not an integer"),
        (lambda: build_lattice_layout(3, [(1, 1), (2, True)]), r"machine_coords\[1\]: True is not an integer"),
        (lambda: build_lattice_layout(3, [(1, 1, 1)]), r"machine_coords\[0\]: \(1, 1, 1\) is not a pair \(a, b\)"),
        (lambda: build_lattice_layout(True, [(1, 1)]), r"grid_side: True is not an integer"),
        (lambda: build_lattice_layout(2.0, [(1, 1)]), r"grid_side: 2\.0 is not an integer"),
        (lambda: build_star_layout(2.5, 1), r"m: 2\.5 is not an integer"),
        (lambda: build_star_layout(3, True), r"radius: True is not an integer"),
        (lambda: build_star_layout(3, 1.0), r"radius: 1\.0 is not an integer"),
        (lambda: build_complete_layout(3.0), r"m: 3\.0 is not an integer"),
    ],
    ids=[
        "float-coordinate", "bool-coordinate", "triple-coordinate", "bool-side",
        "float-side", "float-star-m", "bool-radius", "float-radius", "float-complete-m",
    ],
)
def test_layout_builders_refuse_arguments_that_are_not_integers(build, message):
    # Before, a float coordinate blamed connectivity, a True side built a
    # one-node lattice, and a float count died with a bare TypeError.
    with pytest.raises(LayoutError, match=f"^{message}$"):
        build()


def test_complete_layouts():
    layout = build_complete_layout(4)
    edges = sum(len(nbrs) for nbrs in layout.adjacency) // 2
    assert edges == 6
    for i in range(1, 5):
        assert layout.dist(i, i) == 0
        for j in range(1, 5):
            if i != j:
                assert layout.dist(i, j) == 1
    assert build_complete_layout(2).node_count == 2
    with pytest.raises(LayoutError):
        build_complete_layout(1)


def test_next_hop_adjacent_and_error():
    layout = build_complete_layout(3)
    assert shortest_next_hop(layout, 1, 2) == 2
    with pytest.raises(LayoutError):
        shortest_next_hop(layout, 2, 2)


def test_next_hop_star_unique_path():
    layout = build_star_layout(3, 2)
    hop = shortest_next_hop(layout, 1, 2)
    # One step inward along the unique path toward the center.
    assert layout.dist(hop, 2) == layout.dist(1, 2) - 1
    assert hop in layout.neighbors(1)


def _bfs_smallest_id_path(layout, source, target):
    """Oracle: greedily walk to the smallest-id neighbor closer to target."""
    path = [source]
    node = source
    while node != target:
        best = min(
            u for u in layout.neighbors(node) if layout.dist(u, target) == layout.dist(node, target) - 1
        )
        path.append(best)
        node = best
    return path


def test_next_hop_smallest_id_tie_break_fig3():
    layout = build_lattice_layout(5, FIG3_MACHINES)
    path = _bfs_smallest_id_path(layout, 1, 2)
    assert shortest_next_hop(layout, 1, 2) == path[1]
    assert len(path) - 1 == layout.dist(1, 2)


@pytest.mark.parametrize(
    "layout",
    [
        build_lattice_layout(5, FIG3_MACHINES),
        build_star_layout(4, 2),
        build_complete_layout(5),
        build_lattice_layout(3, [(1, 1), (3, 3)]),
    ],
)
def test_next_hop_walk_reaches_target_in_dist_steps(layout):
    for i in range(1, layout.node_count + 1):
        for j in range(1, layout.node_count + 1):
            if i == j:
                continue
            node, steps = i, 0
            while node != j:
                node = shortest_next_hop(layout, node, j)
                steps += 1
                assert steps <= layout.node_count
            assert steps == layout.dist(i, j)


@pytest.mark.parametrize(
    "layout",
    [
        build_lattice_layout(5, FIG3_MACHINES),
        build_star_layout(5, 3),
        build_complete_layout(6),
    ],
)
def test_bfs_matches_floyd_warshall(layout):
    oracle = floyd_warshall(layout.adjacency)
    for i in range(layout.node_count):
        for j in range(layout.node_count):
            assert layout.dist_table[i][j] == oracle[i][j]


def test_dist_symmetry_and_triangle():
    layout = build_lattice_layout(4, [(1, 1), (4, 4), (2, 3)])
    n = layout.node_count
    for i in range(1, n + 1):
        assert layout.dist(i, i) == 0
        for j in range(1, n + 1):
            assert layout.dist(i, j) == layout.dist(j, i)
            for k in range(1, n + 1):
                assert layout.dist(i, j) <= layout.dist(i, k) + layout.dist(k, j)


# A path 1 - 2 - 3 with machines 1 and 2; each probe breaks one graph rule.
PATH3 = ((2,), (1, 3), (2,))


@pytest.mark.parametrize(
    "adjacency, machine_count, coordinates, message",
    [
        (((1, 2), (1,)), 2, None, r"adjacency\[0\]: self-loop on node 1"),
        (((2, 2), (1,)), 2, None, r"adjacency\[0\]: duplicate neighbour"),
        (((2,), (1, 3), (2, 4)), 2, None, r"adjacency\[2\]: node id 4 out of range 1\.\.3"),
        (((2,), (1, 0), (2,)), 2, None, r"adjacency\[1\]: node id 0 out of range 1\.\.3"),
        (((2,), (1, True), (2,)), 2, None, r"adjacency\[1\]: True is not an integer node id"),
        (((2, 3), (1, 3), (2,)), 2, None, r"adjacency\[0\]: edge to 3 is not symmetric"),
        (((2,), (3, 1), (2,)), 2, None, r"adjacency\[1\]: neighbours not in ascending order"),
        (((2,), (1,), (4,), (3,)), 2, None, r"adjacency: graph is not connected"),
        (PATH3, 0, None, r"machine_count: 0 is not a machine count in 1\.\.3"),
        (PATH3, 4, None, r"machine_count: 4 is not a machine count in 1\.\.3"),
        (PATH3, True, None, r"machine_count: True is not a machine count in 1\.\.3"),
        (PATH3, 2, ((1, 1), (1, 2)), r"coordinates: 2 entries for 3 nodes"),
    ],
    ids=[
        "self-loop", "duplicate", "above-range", "zero-id", "bool-id", "asymmetric",
        "unsorted", "disconnected", "no-machines", "too-many-machines",
        "bool-machines", "short-coordinates",
    ],
)
def test_layout_refuses_each_broken_graph_rule(adjacency, machine_count, coordinates, message):
    with pytest.raises(LayoutError, match=f"^{message}$"):
        NetworkLayout(adjacency, machine_count, coordinates)


def test_layout_is_its_inputs():
    # The tables are derived, so two equal adjacencies give equal layouts
    # with equal hashes, and the tables match the graph's own distances.
    built = build_star_layout(3, 2)
    again = NetworkLayout(tuple(tuple(nbrs) for nbrs in built.adjacency), 3)
    assert again == built and hash(again) == hash(built)
    assert again.dist_table == built.dist_table
    assert again.next_hop_table == built.next_hop_table
    assert again.machines == (1, 2, 3) and again.node_count == 7
    assert NetworkLayout(PATH3, 1) != NetworkLayout(PATH3, 2)
    # Only the inputs can be passed in, and only they enter == and hash.
    inputs = ["adjacency", "machine_count", "coordinates"]
    assert [f.name for f in fields(NetworkLayout) if f.init] == inputs
    assert [f.name for f in fields(NetworkLayout) if f.compare] == inputs
    lattice = build_lattice_layout(2, [(1, 1)])
    assert NetworkLayout(lattice.adjacency, 1) != lattice  # coordinates differ
    assert NetworkLayout(lattice.adjacency, 1, lattice.coordinates) == lattice


@pytest.mark.parametrize("node", [0, -1, 8])
def test_next_hop_refuses_nodes_outside_the_layout(node):
    # A negative id used to index from the end: (0, 2) gave node 7's hop.
    layout = build_star_layout(3, 2)
    with pytest.raises(LayoutError, match=rf"^source: {node} is not a node id in 1\.\.7$"):
        shortest_next_hop(layout, node, 2)
    with pytest.raises(LayoutError, match=rf"^target: {node} is not a node id in 1\.\.7$"):
        shortest_next_hop(layout, 2, node)
