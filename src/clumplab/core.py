"""Weighted clump graphs: layered, colored, weighted vertex sets with
adjacency implied by saturation, plus blow-up to plain graphs and BFS
metrics.

A clump is identified by its (layer, color) pair; at most one clump per
pair may exist.  Two clumps are adjacent iff they sit in the same or
consecutive layers and carry different colors.  Adjacency is always
derived from this rule, never stored.

A graph is immutable.  It stores one table, `rows`: per layer the
{color: weight} dict its checks built.  When it is built it also
computes two facts of the rows: the layer profile, whose n is
total_weight, and the minimum weighted degree.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Iterator, Mapping, Sequence


class ClumpGraphError(ValueError):
    """Raised when a layered clump description violates the structural rules."""


@dataclass(frozen=True)
class LayerProfile:
    """Per-layer totals of a clump graph.

    ell[i] is the total weight of layer i (the order of the layer after
    blow-up), clump_counts[i] the number of clumps, colors[i] the color
    set, and singles the layers of one clump.  Out-of-range layers count
    as empty.
    """

    ell: tuple[int, ...]
    clump_counts: tuple[int, ...]
    colors: tuple[frozenset[int], ...]
    n: int
    diameter_index: int
    singles: frozenset[int]


def _validated_rows(
    k: int, layers: Sequence[Iterable[tuple[int, int]]]
) -> tuple[dict[int, int], ...]:
    """One {color: weight} dict per layer, in ascending color order;
    ClumpGraphError when the layers break a structural rule."""
    if k < 2:
        raise ClumpGraphError(f"color count k={k} must be at least 2")
    if not layers:
        raise ClumpGraphError("graph must have at least one layer")
    rows = _layer_rows(k, layers)
    _check_rooted(rows, range(len(rows)))
    return tuple(rows)


def _layer_rows(
    k: int, layers: Iterable[Iterable[tuple[int, int]]], start: int = 0
) -> list[dict[int, int]]:
    """The per-layer rules of layers start, start+1, ..., given as their
    (color, weight) pairs: one {color: weight} dict per layer, in
    ascending color order.  ClumpGraphError at the first layer, and in
    it the first color, that breaks a rule."""
    rows: list[dict[int, int]] = []
    for i, layer in enumerate(layers, start):
        pairs = sorted(layer, key=itemgetter(0))
        if not pairs:
            raise ClumpGraphError(f"layer {i} is empty")
        row: dict[int, int] = {}
        for color, weight in pairs:
            if not 0 <= color < k:
                raise ClumpGraphError(f"layer {i}: color {color} outside [0, {k})")
            if color in row:
                raise ClumpGraphError(f"layer {i}: duplicate color {color}")
            if weight < 1:
                raise ClumpGraphError(f"layer {i}: weight {weight} < 1")
            row[color] = weight
        rows.append(row)
    return rows


def _check_rooted(rows: Sequence[Mapping[int, int]], at: range) -> None:
    """The rooting rules of the layers in `at`: layer 0 is one weight-1
    clump, and every clump of a later layer i has a differently colored
    clump in layer i-1, which it lacks when layer i-1 is one clump of its
    own color.  ClumpGraphError at the first layer that breaks one.  The
    rule of layer i reads only layers i-1 and i."""
    if 0 in at and (len(rows[0]) != 1 or next(iter(rows[0].values())) != 1):
        raise ClumpGraphError("rooted graph needs a single weight-1 clump in layer 0")
    for i in range(max(at.start, 1), at.stop):
        prev = rows[i - 1]
        if len(prev) == 1:
            for color in rows[i]:
                if color in prev:
                    raise ClumpGraphError(
                        f"layer {i}: clump of color {color} has no "
                        f"differently-colored clump in layer {i - 1}"
                    )


class WeightedClumpGraph:
    """A k-colored, layered, weighted clump graph with derived adjacency.

    The layers come in as (color, weight) pairs per layer, in any order,
    the shape of the JSON wire format.  Every graph is rooted: layer 0 is
    one weight-1 clump, and every later clump has a differently colored
    clump one layer up.

    The graph is immutable and stores one table, `rows`: per layer the
    {color: weight} dict that validation built, in ascending color
    order.  The rows define ==, hash and the pickled form.  They are
    shared by every reader, so read them and never change them;
    weight_rows gives fresh copies to change.  The layer profile and
    the minimum weighted degree are computed from the rows when the
    graph is built; layer_profile and min_weighted_degree read them.
    """

    __slots__ = ("k", "rows", "_profile", "_min_degree")

    k: int
    rows: tuple[dict[int, int], ...]

    def __init__(self, k: int, layers: Iterable[Iterable[tuple[int, int]]]):
        rows = _validated_rows(k, list(layers))
        init = object.__setattr__
        init(self, "k", k)
        init(self, "rows", rows)
        init(self, "_profile", _layer_profile(rows))
        init(self, "_min_degree", neighbor_sum_range(rows)[0])

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"WeightedClumpGraph is immutable: cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"WeightedClumpGraph is immutable: cannot delete {name!r}")

    def __reduce__(self) -> tuple:
        # copies and pickles rebuild, and so revalidate, from the rows'
        # (color, weight) pairs: dict_items cannot be pickled
        return (type(self), (self.k, [list(row.items()) for row in self.rows]))

    # -- basic queries ---------------------------------------------------

    @property
    def diameter_index(self) -> int:
        """Index D of the last layer (layers run L_0 .. L_D)."""
        return len(self.rows) - 1

    @property
    def total_weight(self) -> int:
        return self._profile.n

    def colors_of_layer(self, i: int) -> frozenset[int]:
        if 0 <= i <= self.diameter_index:
            return self._profile.colors[i]
        return frozenset()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WeightedClumpGraph):
            return NotImplemented
        return (self.k, self.rows) == (other.k, other.rows)

    def __hash__(self) -> int:
        return hash((self.k, tuple(tuple(row.items()) for row in self.rows)))

    def __repr__(self) -> str:
        shape = [len(row) for row in self.rows]
        return f"WeightedClumpGraph(k={self.k}, layers={shape}, n={self.total_weight})"


def weighted_degree(graph: WeightedClumpGraph, layer: int, color: int) -> int:
    """Sum of the weights of the neighbors of clump (layer, color): the
    clumps of layers layer-1..layer+1 whose color differs.  KeyError
    when the graph has no such clump.

    Equals the plain-graph degree of every blown-up copy of the clump.
    """
    rows = graph.rows
    if not 0 <= layer < len(rows) or color not in rows[layer]:
        raise KeyError((layer, color))
    return sum(
        w for row in rows[max(layer - 1, 0):layer + 2] for c, w in row.items() if c != color
    )


def neighbor_sum_range(
    rows: Sequence[Mapping[int, int]], first: int = 0, stop: int | None = None
) -> tuple[int, int]:
    """(least, largest) neighbor sum of per-clump integers over the
    clumps of layers first..stop-1 (to the last layer by default):
    rows[i] maps the colors of layer i to their values, and the neighbor
    sum of clump (i, c) is the total value of its neighbors.  Reads
    layers first-1..stop and no others.

    The sum is the total of layers i-1, i and i+1, less the entries of
    color c in those three layers.  Exact under the saturation rule:
    the neighbors of (i, c) are the clumps of layers i-1..i+1 (those
    outside 0..D are empty) whose color differs from c.  A layer holds
    at most one clump per color, so the excluded clumps are exactly the
    color-c entries of the three rows, (i, c) itself among them, and
    subtracting them from the three-layer total leaves the neighbors'.
    weighted_degree, which walks the three rows, is the oracle for it.
    """
    stop = len(rows) if stop is None else stop
    # layers first-1..stop, those outside the graph empty
    read = [rows[j] if 0 <= j < len(rows) else {} for j in range(first - 1, stop + 1)]
    totals = [sum(row.values()) for row in read]
    sums: list[int] = []
    for j in range(1, len(read) - 1):
        above, row, below = read[j - 1], read[j], read[j + 1]
        window = totals[j - 1] + totals[j] + totals[j + 1]
        for c, v in row.items():
            sums.append(window - v - above.get(c, 0) - below.get(c, 0))
    return min(sums), max(sums)


def weight_rows(graph: WeightedClumpGraph) -> list[dict[int, int]]:
    """A fresh copy of graph.rows, one dict color -> weight per layer, for
    the caller to change."""
    return [dict(row) for row in graph.rows]


def min_weighted_degree(graph: WeightedClumpGraph) -> int:
    return graph._min_degree


def _layer_profile(rows: Sequence[Mapping[int, int]]) -> LayerProfile:
    ell = tuple(sum(row.values()) for row in rows)
    counts = tuple(map(len, rows))
    return LayerProfile(
        ell=ell,
        clump_counts=counts,
        colors=tuple(map(frozenset, rows)),
        n=sum(ell),
        diameter_index=len(rows) - 1,
        singles=frozenset(i for i, c in enumerate(counts) if c == 1),
    )


def layer_profile(graph: WeightedClumpGraph) -> LayerProfile:
    return graph._profile


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


# blow_up peaks near 200 bytes of Python objects per edge (the edge
# tuple, two adjacency-set entries and two sorted-list slots), so this
# keeps one blow-up near 200 MB of memory
MAX_BLOW_UP_EDGES = 1_000_000


def blow_up_edge_count(graph: WeightedClumpGraph) -> int:
    """Edge count of blow_up(graph) without building it: w_u * w_v summed
    over adjacent clump pairs.  With T_i the total of layer i and w_ic
    its color-c weight, layer i adds

        (T_i^2 - sum_c w_ic^2)/2 + T_i T_{i+1} - sum_c w_ic w_{i+1,c}.

    Exact under the saturation rule, which joins the clumps of one layer
    or of consecutive layers whose colors differ: T_i^2 counts each
    ordered pair in layer i, and as a layer holds one clump per color,
    its equal-color pairs are the clumps with themselves; T_i T_{i+1}
    counts each pair across, and its equal-color pairs are matched by c.
    """
    rows, ell = graph.rows, layer_profile(graph).ell
    m = sum(t * t - sum(w * w for w in row.values()) for t, row in zip(ell, rows)) // 2
    for i in range(len(rows) - 1):
        m += ell[i] * ell[i + 1] - sum(w * rows[i + 1].get(c, 0) for c, w in rows[i].items())
    return m


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
    # the copies of each clump, as ranges of consecutive vertex ids
    copies: list[dict[int, range]] = []
    next_id = 0
    for row in graph.rows:
        ids: dict[int, range] = {}
        for c, w in row.items():
            ids[c] = range(next_id, next_id + w)
            next_id += w
        copies.append(ids)
    edges: list[tuple[int, int]] = []
    for i, ids in enumerate(copies):
        below = copies[i + 1] if i + 1 < len(copies) else {}
        for c, us in ids.items():
            # each clump pair once: a larger color in this layer, or any
            # other color in the next
            nbrs = [vs for d, vs in ids.items() if d > c]
            nbrs += [vs for d, vs in below.items() if d != c]
            edges.extend((u, v) for vs in nbrs for u in us for v in vs)
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
    heavy = any(w >= 2 for row in graph.rows for w in row.values())
    return max(graph.diameter_index, 2 if heavy else 0)


def export_edge_list(graph: SimpleGraph) -> str:
    """Text edge list: header "n m", then one "u v" line per edge."""
    lines = [f"{graph.n} {graph.m}"]
    lines.extend(f"{u} {v}" for u, v in graph.edges())
    return "\n".join(lines) + "\n"
