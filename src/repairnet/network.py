"""Graph model of machines and intermediate stages.

Nodes are labeled with 1-based ids: machines 1..m, intermediate stages
m+1..m+n.  A layout is its adjacency list: ``NetworkLayout`` checks every
graph rule on it and derives the distances and next hops, which cannot
disagree with the edges.  All movement follows shortest paths; ties
between shortest paths are broken by always stepping to the smallest-id
adjacent node, which makes every routing decision in the package
deterministic.
"""

from __future__ import annotations

import numbers
from collections import deque
from dataclasses import dataclass, field

NodeId = int


@dataclass(frozen=True)
class NetworkLayout:
    """Immutable connected graph with precomputed shortest-path structure.

    The three inputs are the layout, and equality and hashing read only
    them; the constructor derives the rest.  It raises LayoutError, naming
    the field, unless every neighbour is an int node id in 1..n, none is
    the node's own or repeated, each edge is listed at both ends, each
    node's neighbours ascend, the graph is connected, ``machine_count``
    is in 1..n and ``coordinates``, when given, has one entry per node.

    Attributes:
        adjacency: per-node sorted tuple of adjacent node ids (1-based,
            indexed by ``node - 1``).
        machine_count: m; the machines are nodes 1..m.
        coordinates: optional per-node lattice coordinates ``(a, b)``;
            ``None`` for non-lattice layouts.
        machines: derived, always ``(1, ..., m)``.
        dist_table: derived all-pairs shortest-path edge counts.
        next_hop_table: derived first node on the canonical (smallest-id)
            shortest path for each ordered pair; ``0`` on the diagonal.
    """

    adjacency: tuple[tuple[NodeId, ...], ...]
    machine_count: int
    coordinates: tuple[tuple[int, int], ...] | None = None
    machines: tuple[NodeId, ...] = field(init=False, compare=False, repr=False)
    dist_table: tuple[tuple[int, ...], ...] = field(init=False, compare=False, repr=False)
    next_hop_table: tuple[tuple[NodeId, ...], ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        adjacency = self.adjacency
        n = len(adjacency)
        for i, nbrs in enumerate(adjacency):
            for v in nbrs:
                if type(v) is not int:
                    raise LayoutError(f"adjacency[{i}]: {v!r} is not an integer node id")
                if not 1 <= v <= n:
                    raise LayoutError(f"adjacency[{i}]: node id {v} out of range 1..{n}")
                if v == i + 1:
                    raise LayoutError(f"adjacency[{i}]: self-loop on node {v}")
                if i + 1 not in adjacency[v - 1]:
                    raise LayoutError(f"adjacency[{i}]: edge to {v} is not symmetric")
            if len(set(nbrs)) != len(nbrs):
                raise LayoutError(f"adjacency[{i}]: duplicate neighbour")
            # Next hops take the first qualifying neighbour as the smallest id.
            if list(nbrs) != sorted(nbrs):
                raise LayoutError(f"adjacency[{i}]: neighbours not in ascending order")
        m = self.machine_count
        if not isinstance(m, numbers.Integral) or isinstance(m, bool) or not 1 <= m <= n:
            raise LayoutError(f"machine_count: {m!r} is not a machine count in 1..{n}")
        if self.coordinates is not None and len(self.coordinates) != n:
            raise LayoutError(f"coordinates: {len(self.coordinates)} entries for {n} nodes")

        dist_table = tuple(tuple(_bfs_distances(adjacency, src)) for src in range(1, n + 1))
        if -1 in dist_table[0]:
            raise LayoutError("adjacency: graph is not connected")

        # Canonical next hop: the smallest-id neighbor that reduces the
        # distance to the target by exactly one.  Adjacency is sorted, so the
        # first qualifying neighbor is the smallest.
        hop_rows = []
        for src in range(1, n + 1):
            row = []
            for dst in range(1, n + 1):
                if src == dst:
                    row.append(0)
                    continue
                target_d = dist_table[src - 1][dst - 1] - 1
                hop = next(u for u in adjacency[src - 1] if dist_table[u - 1][dst - 1] == target_d)
                row.append(hop)
            hop_rows.append(tuple(row))

        object.__setattr__(self, "machines", tuple(range(1, m + 1)))
        object.__setattr__(self, "dist_table", dist_table)
        object.__setattr__(self, "next_hop_table", tuple(hop_rows))

    @property
    def node_count(self) -> int:
        return len(self.adjacency)

    def neighbors(self, node: NodeId) -> tuple[NodeId, ...]:
        return self.adjacency[node - 1]

    def dist(self, source: NodeId, target: NodeId) -> int:
        return self.dist_table[source - 1][target - 1]

    def is_machine(self, node: NodeId) -> bool:
        return 1 <= node <= self.machine_count


class LayoutError(ValueError):
    """Raised for invalid layout construction arguments."""


def _check_integer(name: str, value) -> None:
    """Raise LayoutError, naming ``name``, unless ``value`` is an integer,
    not a bool: ``True`` would build a one-node lattice, and a float would
    fail later with a bare TypeError or blame the graph."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise LayoutError(f"{name}: {value!r} is not an integer")


def _bfs_distances(adjacency: tuple[tuple[NodeId, ...], ...], source: NodeId) -> list[int]:
    n = len(adjacency)
    dist = [-1] * n
    dist[source - 1] = 0
    queue = deque([source])
    while queue:
        node = queue.popleft()
        for nbr in adjacency[node - 1]:
            if dist[nbr - 1] < 0:
                dist[nbr - 1] = dist[node - 1] + 1
                queue.append(nbr)
    return dist


def build_lattice_layout(
    grid_side: int, machine_coords: list[tuple[int, int]]
) -> NetworkLayout:
    """Full grid graph on ``grid_side x grid_side`` lattice points.

    The listed coordinates become machines, renumbered by a-coordinate
    then b-coordinate; every remaining lattice point is kept as an
    intermediate stage, numbered in the same row-major order after the
    machines.  Machine-to-machine distances equal Manhattan distances.
    """
    _check_integer("grid_side", grid_side)
    if grid_side < 1:
        raise LayoutError(f"grid_side must be >= 1, got {grid_side}")
    coords = list(machine_coords)
    if not coords:
        raise LayoutError("at least one machine coordinate required")
    for k, coord in enumerate(coords):
        if not isinstance(coord, tuple) or len(coord) != 2:
            raise LayoutError(f"machine_coords[{k}]: {coord!r} is not a pair (a, b)")
        for value in coord:
            _check_integer(f"machine_coords[{k}]", value)
    taken = set(coords)
    if len(taken) != len(coords):
        raise LayoutError(f"duplicate machine coordinates: {sorted(coords)}")
    for a, b in coords:
        if not (1 <= a <= grid_side and 1 <= b <= grid_side):
            raise LayoutError(f"coordinate ({a}, {b}) outside 1..{grid_side}")

    machine_order = sorted(coords)
    stage_order = [
        (a, b)
        for a in range(1, grid_side + 1)
        for b in range(1, grid_side + 1)
        if (a, b) not in taken
    ]
    all_coords = machine_order + stage_order
    id_of = {coord: i + 1 for i, coord in enumerate(all_coords)}

    adjacency = []
    for a, b in all_coords:
        nbrs = []
        for da, db in ((-1, 0), (1, 0), (0, -1), (0, 1)):
            nb = (a + da, b + db)
            if nb in id_of:
                nbrs.append(id_of[nb])
        adjacency.append(tuple(sorted(nbrs)))

    return NetworkLayout(tuple(adjacency), len(machine_order), tuple(all_coords))


def build_star_layout(m: int, radius: int) -> NetworkLayout:
    """Star network: one center stage, ``m`` spokes of length ``radius``.

    Machines sit at the spoke ends; every pair of machines is at distance
    ``2 * radius`` via the center.  Stage ids: the center is ``m + 1``,
    then each spoke's intermediate nodes are numbered from the machine
    inward, spoke by spoke.
    """
    _check_integer("m", m)
    _check_integer("radius", radius)
    if m < 2:
        raise LayoutError(f"star layout needs m >= 2 machines, got {m}")
    if radius < 1:
        raise LayoutError(f"star layout needs radius >= 1, got {radius}")

    center = m + 1
    n_total = m + 1 + m * (radius - 1)
    adjacency: list[list[NodeId]] = [[] for _ in range(n_total)]

    def connect(u: NodeId, v: NodeId) -> None:
        adjacency[u - 1].append(v)
        adjacency[v - 1].append(u)

    next_id = m + 2
    for machine in range(1, m + 1):
        prev = machine
        for _ in range(radius - 1):
            connect(prev, next_id)
            prev = next_id
            next_id += 1
        connect(prev, center)

    return NetworkLayout(tuple(tuple(sorted(nbrs)) for nbrs in adjacency), m)


def build_complete_layout(m: int) -> NetworkLayout:
    """Complete graph on ``m`` machines, no intermediate stages."""
    _check_integer("m", m)
    if m < 2:
        raise LayoutError(f"complete layout needs m >= 2 machines, got {m}")
    adjacency = tuple(
        tuple(j for j in range(1, m + 1) if j != i) for i in range(1, m + 1)
    )
    return NetworkLayout(adjacency, m)


def shortest_next_hop(layout: NetworkLayout, source: NodeId, target: NodeId) -> NodeId:
    """First node on the canonical shortest path from ``source`` to ``target``.

    Raises LayoutError, naming the id, for a node outside 1..node_count
    (a negative id would index from the end) or for ``source == target``.
    """
    n = len(layout.adjacency)
    if not (1 <= source <= n and 1 <= target <= n):
        name, node = ("source", source) if not 1 <= source <= n else ("target", target)
        raise LayoutError(f"{name}: {node!r} is not a node id in 1..{n}")
    if source == target:
        raise LayoutError(f"no next hop from node {source} to itself")
    return layout.next_hop_table[source - 1][target - 1]
