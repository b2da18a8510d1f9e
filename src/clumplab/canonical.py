"""Canonical form for layered colored clump graphs.

A rooted k-colored clump graph is canonical when
  (i)   a single layer is never followed by a full-palette layer,
  (ii)  consecutive layers use min(k, c(i)+c(i+1)) colors together,
  (iii) a full-palette layer sits at index >= 2 and is followed by
        at least two clumps,
  (iv)  a layer holding a clump of weight > 1 has
        c(i) + max(c(i-1), c(i+1)) >= k.

Every graph is rooted, so "index >= 2" in (iii) always holds: layer 0 is
one clump, and layer 1 avoids the root's color.

canonicalize() repairs violations by color switches, clump moves and
weight redistributions, none of which change the order, the layer count
or the minimum weighted degree.  Every rewrite is logged and re-audited.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import AbstractSet

from .core import (
    SimpleGraph,
    WeightedClumpGraph,
    bfs_distances,
    min_weighted_degree,
)

# internal working form: one dict color -> weight per layer
Layers = list[dict[int, int]]


class CanonicalizationError(Exception):
    """A rewrite failed, broke an invariant, or hit the iteration cap."""


@dataclass
class RewriteEntry:
    rule: str
    layer: int


@dataclass
class TransformLog:
    entries: list[RewriteEntry] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.entries)

    def rules(self) -> list[str]:
        return [e.rule for e in self.entries]


@dataclass
class CanonicalReport:
    violations: list[tuple[int, str]]

    @property
    def passes(self) -> bool:
        return not self.violations


def _to_layers(graph: WeightedClumpGraph) -> Layers:
    return [{c.color: c.weight for c in layer} for layer in graph.layers]


def _to_graph(k: int, layers: Layers) -> WeightedClumpGraph:
    return WeightedClumpGraph(k, [layer.items() for layer in layers])


# -- property checks -----------------------------------------------------


def pair_violations(k: int, a: AbstractSet[int], b: AbstractSet[int]) -> list[str]:
    """The properties among (i), (ii) and the pair part of (iii) that
    consecutive layer color sets a, b break.  For k = 3 the pairs that
    break none are exactly the seven shapes (c(i), c(i+1), shared):
    (1,1,0), (1,2,0), (2,1,0), (2,2,1), (2,3,2), (3,2,2), (3,3,3)."""
    ca, cb = len(a), len(b)
    out: list[str] = []
    if ca == 1 and cb > k - 1:
        out.append("i")
    if len(a | b) != min(k, ca + cb):
        out.append("ii")
    if ca == k and cb < 2:
        out.append("iii")
    return out


def is_canonical_pair(k: int, a: AbstractSet[int], b: AbstractSet[int]) -> bool:
    """Whether consecutive layer color sets a, b may appear in a canonical graph."""
    return not pair_violations(k, a, b)


def _violations(k: int, layers: Layers) -> list[tuple[int, str]]:
    """The (layer, property) violations of a rooted graph's layers; the
    root weighs 1, so (iv) starts at layer 1."""
    D = len(layers) - 1
    out: list[tuple[int, str]] = []
    for i in range(D):
        for prop in pair_violations(k, layers[i].keys(), layers[i + 1].keys()):
            out.append((i, prop))
    for i in range(1, D + 1):
        if any(w > 1 for w in layers[i].values()):
            nxt = len(layers[i + 1]) if i < D else 0
            if len(layers[i]) + max(len(layers[i - 1]), nxt) < k:
                out.append((i, "iv"))
    return out


def check_canonical(graph: WeightedClumpGraph) -> CanonicalReport:
    """Evaluate canonical properties (i)-(iv).  Every consecutive layer
    pair is held to pair_violations, so for k = 3 this also confines the
    pairs to the seven admissible color-set shapes."""
    return CanonicalReport(violations=_violations(graph.k, _to_layers(graph)))


# -- rewrites ------------------------------------------------------------


def _switch_colors(layers: Layers, x: int, y: int, start: int, stop: int | None = None) -> None:
    """Exchange colors x and y in layers start..stop (inclusive)."""
    if stop is None:
        stop = len(layers) - 1
    for j in range(start, stop + 1):
        layer = layers[j]
        wx, wy = layer.pop(x, None), layer.pop(y, None)
        if wx is not None:
            layer[y] = wx
        if wy is not None:
            layer[x] = wy


def _fix_shared_color(k: int, layers: Layers, i: int) -> str:
    """Property (ii) repair: push a color shared by L_i and L_{i+1} out of
    the tail of the graph, making the pair use one more color."""
    a, b = set(layers[i]), set(layers[i + 1])
    shared = sorted(a & b)
    missing = sorted(c for c in range(k) if c not in a | b)
    if not shared or not missing:
        raise CanonicalizationError(
            f"layer pair ({i}, {i + 1}) miscounts colors but offers no switch"
        )
    _switch_colors(layers, shared[0], missing[0], i + 1)
    return f"color-switch({shared[0]},{missing[0]})@{i + 1}.."


def _resolve_k1(k: int, layers: Layers, i: int) -> str:
    """Property (iii) repair at layer i: c(i) = k followed by a single."""
    D = len(layers) - 1
    if not (len(layers[i]) == k and i + 1 <= D and len(layers[i + 1]) == 1):
        raise CanonicalizationError(f"layer {i} is not a (k, 1) violation")
    (x,) = layers[i + 1].keys()

    if set(layers[i - 2]) != {x}:
        # move the clump of the follower's color back one layer
        w = layers[i].pop(x)
        layers[i - 1][x] = layers[i - 1].get(x, 0) + w
        return f"move-clump({x})@{i}"

    if len(layers[i - 1]) <= k - 2:
        # free a color below, then the move above becomes available
        used = set(layers[i - 2]) | set(layers[i - 1])
        y = min(c for c in range(k) if c not in used)
        _switch_colors(layers, x, y, 0, i - 2)
        w = layers[i].pop(x)
        layers[i - 1][x] = layers[i - 1].get(x, 0) + w
        return f"switch-below({x},{y})+move-clump({x})@{i}"

    if k != 3:
        raise CanonicalizationError(
            f"full-palette layer {i} followed by a single needs the "
            f"three-color weight redistribution, but k={k}"
        )

    # remaining shape: X | YZ | XYZ | X with all six clumps nonempty
    y, z = sorted(c for c in range(k) if c != x)
    y2, z2 = layers[i - 1][y], layers[i - 1][z]
    x3, y3, z3 = layers[i][x], layers[i][y], layers[i][z]
    if x3 >= z3 and not x3 >= y3:
        y, z = z, y  # mirror case 1
        y2, z2, y3, z3 = z2, y2, z3, y3
    elif x3 < min(y3, z3) and (x3 >= y2 or x3 >= z2) and not x3 >= y2:
        y, z = z, y  # mirror case 2
        y2, z2, y3, z3 = z2, y2, z3, y3

    if x3 >= y3:
        layers[i - 1] = {y: y2 + y3, z: z2}
        layers[i] = {x: x3, z: z3}
        rule = "redistribute-case-1"
    elif x3 >= y2:
        layers[i - 1] = {y: x3, z: z2}
        layers[i] = {x: y3 + y2, z: z3}
        rule = "redistribute-case-2"
    elif z2 >= y3:
        layers[i - 1] = {y: y2 + x3, z: z2}
        layers[i] = {x: y3 + z3}
        rule = "redistribute-case-3"
    else:
        layers[i - 1] = {y: y2 + z2}
        layers[i] = {x: y3 + x3, z: z3}
        rule = "redistribute-case-4"
    layers[i + 1] = {y: layers[i + 1][x]}
    _switch_colors(layers, x, y, i + 2)
    return f"{rule}@{i}"


def _fix_duplicate_weight(k: int, layers: Layers, i: int) -> str:
    """Property (iv) repair: carve a unit off a heavy clump of L_i into a
    clump of a color missing from all three surrounding layers."""
    D = len(layers) - 1
    left = set(layers[i - 1]) | set(layers[i])
    after = set(layers[i + 1]) if i < D else set()
    note = ""
    if len(left | after) == k:
        x = min(c for c in range(k) if c not in left)
        y = min(c for c in range(k) if c not in set(layers[i]) | after)
        if x != y:
            _switch_colors(layers, x, y, i + 1)
            note = f"switch({x},{y})@{i + 1}..+"
            after = set(layers[i + 1]) if i < D else set()
    free = min(c for c in range(k) if c not in left | after)
    color = min(c for c, w in sorted(layers[i].items()) if w > 1)
    layers[i][color] -= 1
    layers[i][free] = 1
    return f"{note}recolor-duplicate({color}->{free})@{i}"


def _audit(before: WeightedClumpGraph, after: WeightedClumpGraph, delta: int) -> None:
    if after.total_weight != before.total_weight:
        raise CanonicalizationError("rewrite changed the total weight")
    if after.diameter_index != before.diameter_index:
        raise CanonicalizationError("rewrite changed the layer count")
    if min_weighted_degree(after) < delta:
        raise CanonicalizationError("rewrite dropped the minimum weighted degree")


def canonicalize(
    graph: WeightedClumpGraph, delta: int | None = None
) -> tuple[WeightedClumpGraph, TransformLog]:
    """Rewrite a rooted clump graph into canonical form.

    delta defaults to the graph's minimum weighted degree.  Rewrites are
    applied in property order (ii), (iii), (iv), restarting after each
    one; every step is audited to preserve n, D and min degree >= delta.
    """
    if delta is None:
        delta = min_weighted_degree(graph)
    if min_weighted_degree(graph) < delta:
        raise CanonicalizationError(f"input min weighted degree below delta={delta}")
    k = graph.k
    layers = _to_layers(graph)
    log = TransformLog()
    cap = 4 * len(layers) * k
    result = graph
    while True:
        todo = _violations(k, layers)
        if not todo:
            break
        if len(log) >= cap:
            raise CanonicalizationError(
                f"iteration cap {cap} exceeded; applied {log.rules()}"
            )
        # repair in property order, smallest layer first
        todo.sort(key=lambda v: ({"ii": 0, "iii": 1, "iv": 2, "i": 3}[v[1]], v[0]))
        i, prop = todo[0]
        if prop == "ii":
            rule = _fix_shared_color(k, layers, i)
        elif prop == "iii":
            rule = _resolve_k1(k, layers, i)
        elif prop == "iv":
            rule = _fix_duplicate_weight(k, layers, i)
        else:  # property (i) cannot fail on a valid layering
            raise CanonicalizationError(
                f"layer {i}: single followed by a full-palette layer"
            )
        # building the graph revalidates its structure after every rewrite
        result = _to_graph(k, layers)
        _audit(graph, result, delta)
        log.entries.append(RewriteEntry(rule=rule, layer=i))
    return result, log


# -- relayering a plain graph -------------------------------------------


def bfs_relayer(
    graph: SimpleGraph, coloring: list[int], k: int | None = None
) -> WeightedClumpGraph:
    """Layer a colored graph by BFS from a vertex of maximum eccentricity
    and collapse each (layer, color) class into one clump."""
    if len(coloring) != graph.n:
        raise ValueError("coloring length does not match vertex count")
    for u in range(graph.n):
        for v in graph.adjacency[u]:
            if coloring[u] == coloring[v]:
                raise ValueError(f"edge ({u}, {v}) joins same-colored vertices")
    if k is None:
        k = max(coloring) + 1
    best_root, best_ecc = 0, -1
    all_dist: list[int] = []
    for u in range(graph.n):
        dist = bfs_distances(graph, u)
        if min(dist) < 0:
            raise ValueError("graph is disconnected")
        ecc = max(dist)
        if ecc > best_ecc:
            best_root, best_ecc, all_dist = u, ecc, dist
    weights: dict[tuple[int, int], int] = {}
    for v in range(graph.n):
        key = (all_dist[v], coloring[v])
        weights[key] = weights.get(key, 0) + 1
    layers: Layers = [{} for _ in range(best_ecc + 1)]
    for (layer, color), w in weights.items():
        layers[layer][color] = w
    return _to_graph(k, layers)
