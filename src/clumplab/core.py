"""Weighted clump graphs: layered, colored, weighted vertex sets with
adjacency implied by saturation, plus blow-up to plain graphs and BFS
metrics.

A clump is identified by its (layer, color) pair; at most one clump per
pair may exist.  Two clumps are adjacent iff they sit in the same or
consecutive layers and carry different colors.  Adjacency is always
derived from this rule, never stored.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Iterator, Mapping, Sequence


class ClumpGraphError(ValueError):
    """Raised when a layered clump description violates the structural rules."""


@dataclass(frozen=True)
class Clump:
    layer: int
    color: int
    weight: int


@dataclass(frozen=True)
class LayerProfile:
    """Per-layer totals of a clump graph.

    ell[i] is the total weight of layer i (the order of the layer after
    blow-up), clump_counts[i] the number of clumps, colors[i] the color
    set.  Out-of-range layers count as empty.
    """

    ell: tuple[int, ...]
    clump_counts: tuple[int, ...]
    colors: tuple[frozenset[int], ...]
    n: int
    diameter_index: int

    @property
    def singles(self) -> frozenset[int]:
        return frozenset(i for i, c in enumerate(self.clump_counts) if c == 1)


class WeightedClumpGraph:
    """A k-colored, layered, weighted clump graph with derived adjacency.

    layers[i] holds the (color, weight) pairs of layer i in any order,
    the shape of the JSON wire format; each becomes a Clump of layer i.
    Every graph is rooted: layer 0 is one weight-1 clump, and every later
    clump has a differently colored clump one layer up.
    """

    def __init__(self, k: int, layers: Iterable[Iterable[tuple[int, int]]]):
        self.k = k
        self.layers = tuple(
            tuple(Clump(i, c, w) for c, w in sorted(layer, key=itemgetter(0)))
            for i, layer in enumerate(layers)
        )
        self._validate()

    # -- validation ------------------------------------------------------

    def _validate(self) -> None:
        if self.k < 2:
            raise ClumpGraphError(f"color count k={self.k} must be at least 2")
        if not self.layers:
            raise ClumpGraphError("graph must have at least one layer")
        for i, layer in enumerate(self.layers):
            if not layer:
                raise ClumpGraphError(f"layer {i} is empty")
            seen: set[int] = set()
            for c in layer:
                if not 0 <= c.color < self.k:
                    raise ClumpGraphError(
                        f"layer {i}: color {c.color} outside [0, {self.k})"
                    )
                if c.color in seen:
                    raise ClumpGraphError(f"layer {i}: duplicate color {c.color}")
                if c.weight < 1:
                    raise ClumpGraphError(f"layer {i}: weight {c.weight} < 1")
                seen.add(c.color)
        root_layer = self.layers[0]
        if len(root_layer) != 1 or root_layer[0].weight != 1:
            raise ClumpGraphError(
                "rooted graph needs a single weight-1 clump in layer 0"
            )
        # every clump must be reachable from the previous layer
        for i in range(1, len(self.layers)):
            prev_colors = {c.color for c in self.layers[i - 1]}
            for c in self.layers[i]:
                if prev_colors <= {c.color}:
                    raise ClumpGraphError(
                        f"layer {i}: clump of color {c.color} has no "
                        f"differently-colored clump in layer {i - 1}"
                    )

    # -- basic queries ---------------------------------------------------

    @property
    def diameter_index(self) -> int:
        """Index D of the last layer (layers run L_0 .. L_D)."""
        return len(self.layers) - 1

    @property
    def total_weight(self) -> int:
        return sum(c.weight for layer in self.layers for c in layer)

    def clumps(self) -> Iterator[Clump]:
        for layer in self.layers:
            yield from layer

    def neighbors(self, layer: int, color: int) -> Iterator[Clump]:
        """Clumps adjacent to (layer, color) under the saturation rule;
        KeyError when the graph has no such clump."""
        if not 0 <= layer <= self.diameter_index or all(
            c.color != color for c in self.layers[layer]
        ):
            raise KeyError((layer, color))
        for row in self.layers[max(layer - 1, 0):layer + 2]:
            for c in row:
                if c.color != color:
                    yield c

    def colors_of_layer(self, i: int) -> frozenset[int]:
        if 0 <= i <= self.diameter_index:
            return frozenset(c.color for c in self.layers[i])
        return frozenset()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WeightedClumpGraph):
            return NotImplemented
        return (self.k, self.layers) == (other.k, other.layers)

    def __hash__(self) -> int:
        return hash((self.k, self.layers))

    def __repr__(self) -> str:
        shape = [len(layer) for layer in self.layers]
        return f"WeightedClumpGraph(k={self.k}, layers={shape}, n={self.total_weight})"


def weighted_degree(graph: WeightedClumpGraph, layer: int, color: int) -> int:
    """Sum of the weights of the neighbors of clump (layer, color).

    Equals the plain-graph degree of every blown-up copy of the clump.
    """
    return sum(c.weight for c in graph.neighbors(layer, color))


def neighbor_sums(rows: Sequence[Mapping[int, int]]) -> list[dict[int, int]]:
    """Each clump's neighbor sum of per-clump integers: rows[i] maps the
    colors of layer i to their values, and out[i][c] is the total value
    of the neighbors of clump (i, c).

    The sum is the total of layers i-1, i and i+1, less the entries of
    color c in those three layers.  Exact under the saturation rule:
    the neighbors of (i, c) are the clumps of layers i-1..i+1 (those
    outside 0..D are empty) whose color differs from c.  A layer holds
    at most one clump per color, so the excluded clumps are exactly the
    color-c entries of the three rows, (i, c) itself among them, and
    subtracting them from the three-layer total leaves the neighbors'.
    weighted_degree, which walks neighbors(), is the oracle for it.
    """
    padded: list[Mapping[int, int]] = [{}, *rows, {}]
    totals = [sum(row.values()) for row in padded]
    out: list[dict[int, int]] = []
    for i in range(1, len(padded) - 1):
        above, row, below = padded[i - 1], padded[i], padded[i + 1]
        window = totals[i - 1] + totals[i] + totals[i + 1]
        out.append(
            {c: window - v - above.get(c, 0) - below.get(c, 0) for c, v in row.items()}
        )
    return out


def weight_rows(graph: WeightedClumpGraph) -> list[dict[int, int]]:
    """One fresh dict color -> weight per layer, the rows neighbor_sums reads."""
    return [{c.color: c.weight for c in layer} for layer in graph.layers]


def min_weighted_degree(graph: WeightedClumpGraph) -> int:
    return min(min(row.values()) for row in neighbor_sums(weight_rows(graph)))


def layer_profile(graph: WeightedClumpGraph) -> LayerProfile:
    ell = tuple(sum(c.weight for c in layer) for layer in graph.layers)
    counts = tuple(len(layer) for layer in graph.layers)
    colors = tuple(frozenset(c.color for c in layer) for layer in graph.layers)
    return LayerProfile(
        ell=ell,
        clump_counts=counts,
        colors=colors,
        n=sum(ell),
        diameter_index=graph.diameter_index,
    )


# -- simple graphs and blow-up ------------------------------------------


class SimpleGraph:
    """Plain undirected graph as sorted adjacency lists, no loops or
    parallel edges."""

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        self.n = n
        adjacency: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) outside vertex range")
            adjacency[u].add(v)
            adjacency[v].add(u)
        self.adjacency = [sorted(s) for s in adjacency]

    @property
    def m(self) -> int:
        return sum(len(a) for a in self.adjacency) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        for u, nbrs in enumerate(self.adjacency):
            for v in nbrs:
                if u < v:
                    yield (u, v)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])


# blow_up peaks near 200 bytes of Python objects per edge (the edge
# tuple, two adjacency-set entries and two sorted-list slots), so this
# keeps one blow-up near 200 MB of memory
MAX_BLOW_UP_EDGES = 1_000_000


def blow_up_edge_count(graph: WeightedClumpGraph) -> int:
    """Edge count of blow_up(graph) without building it: w_u * w_v summed
    over adjacent clump pairs, each pair seen from both ends."""
    rows = weight_rows(graph)
    return sum(
        w * degrees[c] for row, degrees in zip(rows, neighbor_sums(rows)) for c, w in row.items()
    ) // 2


def blow_up(graph: WeightedClumpGraph) -> SimpleGraph:
    """Expand every clump into `weight` independent copies.

    Vertex order is layer-major, then color, then copy index, so exports
    are byte-for-byte reproducible.  ValueError, before any edge is built,
    when the blow-up would have more than MAX_BLOW_UP_EDGES edges.
    """
    m = blow_up_edge_count(graph)
    if m > MAX_BLOW_UP_EDGES:
        raise ValueError(
            f"blow-up has {m} edges, above the limit of {MAX_BLOW_UP_EDGES}"
        )
    index: dict[tuple[int, int], range] = {}
    next_id = 0
    for layer in graph.layers:
        for c in layer:
            index[(c.layer, c.color)] = range(next_id, next_id + c.weight)
            next_id += c.weight
    edges: list[tuple[int, int]] = []
    for layer in graph.layers:
        for c in layer:
            for nbr in graph.neighbors(c.layer, c.color):
                if (nbr.layer, nbr.color) <= (c.layer, c.color):
                    continue  # emit each clump pair once
                for u in index[(c.layer, c.color)]:
                    for v in index[(nbr.layer, nbr.color)]:
                        edges.append((u, v))
    return SimpleGraph(next_id, edges)


def bfs_distances(graph: SimpleGraph, source: int) -> list[int]:
    dist = [-1] * graph.n
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in graph.adjacency[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def diameter(graph: SimpleGraph) -> int:
    """Exact diameter by BFS from every vertex; errors on disconnected input."""
    if graph.n == 0:
        raise ValueError("empty graph has no diameter")
    best = 0
    for source in range(graph.n):
        dist = bfs_distances(graph, source)
        ecc = max(dist)
        if min(dist) < 0:
            raise ValueError("graph is disconnected")
        best = max(best, ecc)
    return best


def blow_up_diameter(graph: WeightedClumpGraph) -> int:
    """Diameter of blow_up(graph), in closed form: max(D, 2) when some
    clump weighs at least 2, else D.

    - The root's eccentricity is exactly D.  Every clump of layer
      j >= 1 has a neighbor in layer j - 1, and no edge spans more than
      one layer, so a clump of layer j is exactly j from the root.
    - Two clumps in layers 1 <= i <= j are at most j - i + 1 <= D apart:
      walk back from the layer-j clump to layer i in j - i steps; any
      other clump of layer i carries another color and is one step on.
    - Copies of one clump share their neighborhood, so copies of
      distinct clumps are as far apart as the clumps, and two copies of
      a heavy clump (weight >= 2, never the root) are 2 apart.

    Validation makes every graph connected, so the blow-up always has a
    diameter.  Cross-checked against diameter(blow_up(...)) in the tests.
    """
    heavy = any(c.weight >= 2 for c in graph.clumps())
    return max(graph.diameter_index, 2 if heavy else 0)


def export_edge_list(graph: SimpleGraph) -> str:
    """Text edge list: header "n m", then one "u v" line per edge."""
    lines = [f"{graph.n} {graph.m}"]
    lines.extend(f"{u} {v}" for u, v in graph.edges())
    return "\n".join(lines) + "\n"
