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
or the minimum weighted degree.  Every rewrite is logged and checked at
its own step on the layers it changed: validated by core's structural
rules, audited for weight and degree, and re-checked for violations.
That is exact by locality: a layer's structural rules read only it and
the layer above, and a clump's weighted degree at layer i, the pair
verdicts of layers i, i+1 and the (iv) verdict at i read only layers
i-1..i+1, so a rewrite that changed layers lo..hi moves a rule's verdict
only at layers lo..hi+1, and a degree or a violation only at layers
lo-1..hi+1.

Most repairs exchange two colors x, y through a run of layers a..b.  A
swap is a bijection on colors, so applied to both layers of a pair it
keeps each layer's validity and total weight, the rooting rule, the
pair's shape (|A|, |B|, |A & B|) and so its verdict, every (iv) verdict
(which reads clump counts and weights only) and the neighbor sum of
every clump whose three layers it all covers.  Inside a run nothing
moves; only the pairs (a-1, a), (b, b+1) and the degrees of layers
a-1, a, b, b+1 can.  Each rule reports its runs, and a guard checks
that every layer of a run is exactly the swap image of its validated
row; then the checks read only the edited layers and the run ends, and
when it fails they read the whole changed span.  The result is built
into a graph once, which validates it whole, audited once and checked
canonical once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from itertools import compress
from operator import ne
from typing import AbstractSet, Iterable, Mapping, Sequence

from .core import (
    SimpleGraph,
    WeightedClumpGraph,
    _check_rooted,
    _layer_rows,
    bfs_distances,
    min_weighted_degree,
    neighbor_sum_range,
    weight_rows,
)

# internal working form: one dict color -> weight per layer (core.weight_rows)
Layers = list[dict[int, int]]
# colors x and y exchanged in layers a..b, as (a, b, x, y); a > b is no layer
Run = tuple[int, int, int, int]
# what a rule returns: its log entry and the runs it swapped
Step = tuple[str, tuple[Run, ...]]


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


@cache
def _pair_verdict(k: int, ca: int, cb: int, shared: int) -> tuple[str, ...]:
    """pair_violations(k, a, b) for the color sets a, b of ca and cb
    colors with `shared` in common: it reads only |a|, |b| and
    |a | b| = ca + cb - shared.  Filled on demand, one entry per shape
    met, so a huge palette costs nothing."""
    return tuple(pair_violations(k, set(range(ca)), set(range(ca - shared, ca - shared + cb))))


def is_canonical_pair(k: int, a: AbstractSet[int], b: AbstractSet[int]) -> bool:
    """Whether consecutive layer color sets a, b may appear in a canonical
    graph: the cached verdict of their shape, which is pair_violations'."""
    return not _pair_verdict(k, len(a), len(b), len(a & b))


def _violations(
    k: int, layers: Sequence[Mapping[int, int]], at: range | None = None
) -> list[tuple[int, str]]:
    """The (layer, property) violations of a rooted graph's layers, at
    the layers in `at` (all by default), the pair properties before (iv).
    The verdicts at layer i read only layers i-1..i+1.  The root weighs
    1, so (iv) starts at layer 1."""
    D = len(layers) - 1
    lo, stop = (0, D + 1) if at is None else (at.start, min(at.stop, D + 1))
    out: list[tuple[int, str]] = []
    for i in range(lo, min(stop, D)):
        a, b = layers[i].keys(), layers[i + 1].keys()
        for prop in _pair_verdict(k, len(a), len(b), len(a & b)):
            out.append((i, prop))
    for i in range(max(lo, 1), stop):
        nxt = len(layers[i + 1]) if i < D else 0
        if len(layers[i]) + max(len(layers[i - 1]), nxt) < k and max(layers[i].values()) > 1:
            out.append((i, "iv"))
    return out


def _graph_violations(graph: WeightedClumpGraph) -> tuple[tuple[int, str], ...]:
    return tuple(_violations(graph.k, graph.rows))


def check_canonical(graph: WeightedClumpGraph) -> CanonicalReport:
    """Evaluate canonical properties (i)-(iv).  Every consecutive layer
    pair is held to pair_violations, so for k = 3 this also confines the
    pairs to the seven admissible color-set shapes.  The scan runs once
    per graph (WeightedClumpGraph._derive); each report gets its own list."""
    return CanonicalReport(violations=list(graph._derive(_graph_violations)))


# -- rewrites ------------------------------------------------------------


def _switch_colors(layers: Layers, x: int, y: int, start: int, stop: int | None = None) -> Run:
    """Exchange colors x and y in layers start..stop (inclusive, the last
    layer by default); returns the run swapped."""
    if stop is None:
        stop = len(layers) - 1
    for j in range(start, stop + 1):
        layer = layers[j]
        wx, wy = layer.pop(x, None), layer.pop(y, None)
        if wx is not None:
            layer[y] = wx
        if wy is not None:
            layer[x] = wy
    return start, stop, x, y


def _free_color(k: int, used: AbstractSet[int]) -> int:
    """The smallest color of range(k) outside used.  The scan stops at
    the first free color, so it takes len(used) + 1 steps whatever k is."""
    for c in range(k):
        if c not in used:
            return c
    raise CanonicalizationError(f"no free color: all {k} colors are in use")


def _fix_shared_color(k: int, layers: Layers, i: int) -> Step:
    """Property (ii) repair: push a color shared by L_i and L_{i+1} out of
    the tail of the graph, making the pair use one more color."""
    a, b = set(layers[i]), set(layers[i + 1])
    # (ii) fails only when the pair shares a color: disjoint sets of at
    # most k colors in all already use c(i) + c(i+1) colors
    x = min(a & b)
    y = _free_color(k, a | b)
    run = _switch_colors(layers, x, y, i + 1)
    return f"color-switch({x},{y})@{i + 1}..", (run,)


def _resolve_k1(k: int, layers: Layers, i: int) -> Step:
    """Property (iii) repair at layer i: c(i) = k followed by a single."""
    D = len(layers) - 1
    if not (len(layers[i]) == k and i + 1 <= D and len(layers[i + 1]) == 1):
        raise CanonicalizationError(f"layer {i} is not a (k, 1) violation")
    (x,) = layers[i + 1].keys()
    below = set(layers[i - 2])

    if below != {x} or len(layers[i - 1]) <= k - 2:
        # move the clump of the follower's color back one layer; when
        # L_{i-2} is that color alone, first free a color below for it
        rule = f"move-clump({x})@{i}"
        runs: tuple[Run, ...] = ()
        if below == {x}:
            y = _free_color(k, below | set(layers[i - 1]))
            runs = (_switch_colors(layers, x, y, 0, i - 2),)
            rule = f"switch-below({x},{y})+{rule}"
        w = layers[i].pop(x)
        layers[i - 1][x] = layers[i - 1].get(x, 0) + w
        return rule, runs

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
    run = _switch_colors(layers, x, y, i + 2)
    return f"{rule}@{i}", (run,)


def _fix_duplicate_weight(k: int, layers: Layers, i: int) -> Step:
    """Property (iv) repair: carve a unit off a heavy clump of L_i into a
    clump of a color missing from all three surrounding layers."""
    D = len(layers) - 1
    left = set(layers[i - 1]) | set(layers[i])
    after = set(layers[i + 1]) if i < D else set()
    note = ""
    runs: tuple[Run, ...] = ()
    if len(left | after) == k:
        x = _free_color(k, left)
        y = _free_color(k, set(layers[i]) | after)
        if x != y:
            runs = (_switch_colors(layers, x, y, i + 1),)
            note = f"switch({x},{y})@{i + 1}..+"
            after = set(layers[i + 1]) if i < D else set()
    free = _free_color(k, left | after)
    color = min(c for c, w in sorted(layers[i].items()) if w > 1)
    layers[i][color] -= 1
    layers[i][free] = 1
    return f"{note}recolor-duplicate({color}->{free})@{i}", runs


def _audit(before: WeightedClumpGraph, after: WeightedClumpGraph, delta: int) -> None:
    if after.total_weight != before.total_weight:
        raise CanonicalizationError("rewrite changed the total weight")
    if after.diameter_index != before.diameter_index:
        raise CanonicalizationError("rewrite changed the layer count")
    if min_weighted_degree(after) < delta:
        raise CanonicalizationError("rewrite dropped the minimum weighted degree")


def _spans(at: Iterable[int], before: int, after: int, last: int) -> list[range]:
    """Layers j-before..j+after of each j of the ascending `at`, within
    0..last, as ascending disjoint ranges."""
    spans: list[range] = []
    for j in at:
        lo, stop = max(j - before, 0), min(j + after, last) + 1
        if spans and lo <= spans[-1].stop:
            spans[-1] = range(spans[-1].start, max(stop, spans[-1].stop))
        else:
            spans.append(range(lo, stop))
    return spans


def _swapped_rows(
    k: int, rows: list[dict[int, int]], layers: Layers, runs: Sequence[Run]
) -> tuple[dict[int, dict[int, int]], list[int]] | None:
    """The guard of a step whose rule reported `runs`: the new validated
    rows of the layers of the runs, by layer, and the ends of the runs;
    None when a run leaves the graph or the palette, or some layer of a
    run is not the swap image of its validated row.  The image of a
    validated row under a swap of two colors of range(k) keeps its
    weights and its clump count, so it is a validated row too, put in
    ascending color order; a row without either color is its own image."""
    images: dict[int, dict[int, int]] = {}
    ends: list[int] = []
    for a, b, x, y in runs:
        if a > b:
            continue
        if not (0 <= a and b < len(rows) and 0 <= x < k and 0 <= y < k):
            return None
        swap = {x: y, y: x}
        for j in range(a, b + 1):
            row = rows[j]
            if x in row or y in row:
                row = dict(sorted((swap.get(c, c), w) for c, w in row.items()))
            if layers[j] != row:
                return None
            images[j] = row
        ends += (a, b)
    return images, ends


def _check_span(
    k: int,
    rows: list[dict[int, int]],
    layers: Layers,
    edited: Sequence[int],
    ends: Sequence[int],
    delta: int,
) -> list[range]:
    """Check the rewrite that took `rows`, the validated rows of the step
    before it, to `layers`.  The ascending layers `edited` are validated
    and their rows put into `rows`.  Every other layer that changed is a
    swap image whose row the guard (_swapped_rows) has put there already,
    and `ends` holds the ends of those runs; a step whose guard fails
    passes its whole changed span lo..stop-1 as `edited` and no ends.
    Raises what WeightedClumpGraph(k, layers) would, then what _audit
    would, in that order, and returns the spans of layers whose
    violations may have moved.

    By locality a layer's structural rules read it and the layer above,
    and a degree or a violation at layer i reads layers i-1..i+1.  A swap
    applied to both layers i-1, i (or to i-1..i+1) keeps every one of
    these verdicts, and the total weight of each layer.  So only an
    edited layer can change its weight or break a per-layer rule, only an
    edited layer or an end j can move the rooting rule of layers j, j+1,
    and only those can move the degrees and violations of layers
    j-1..j+1; the checks read those layers alone."""
    last = len(rows) - 1
    weight = sum(sum(rows[j].values()) for j in edited)
    for span in _spans(edited, 0, 0, last):
        rows[span.start:span.stop] = _layer_rows(k, (layers[j].items() for j in span), span.start)
    dirty = sorted({*edited, *ends})
    for span in _spans(dirty, 0, 1, last):
        _check_rooted(rows, span)
    if sum(sum(rows[j].values()) for j in edited) != weight:
        raise CanonicalizationError("rewrite changed the total weight")
    near = _spans(dirty, 1, 1, last)
    if min(neighbor_sum_range(rows, span.start, span.stop)[0] for span in near) < delta:
        raise CanonicalizationError("rewrite dropped the minimum weighted degree")
    return near


def canonicalize(graph: WeightedClumpGraph, delta: int) -> tuple[WeightedClumpGraph, TransformLog]:
    """Rewrite a rooted clump graph into canonical form.

    Rewrites are applied in property order (ii), (iii), (iv), smallest
    layer first, restarting after each one.  The violations are scanned
    in full once, from check_canonical; a graph with none is returned as
    it is, with an empty log.  Each step is diffed against the validated
    rows of the step before it, which catches a rule that changes a layer
    it does not report.  Each rule reports the runs of layers a..b in
    which it swapped two colors.  The guard (_swapped_rows) checks, with
    one dict ==, that every layer of a run is the swap image of its
    validated row; then that image is its new row, and every check inside
    the run stands, as a swap keeps each layer's validity and weight, the
    rooting rule, every pair shape, every (iv) verdict and every degree.
    The edited layers, the changed layers outside the runs, are validated
    (with the rooting rule of the layer after each) and must keep their
    total weight; the edited layers and the run ends are the dirty ones,
    the degrees of the layers beside them must stay >= delta, and only
    the verdicts beside them are checked again (_check_span).  When the
    guard fails, the whole changed span lo..hi is checked that way, as
    edited layers.  A step that changes the layer count is built into a
    graph and fails _audit.  The result is built once, which validates
    it whole, gets one full _audit and must pass check_canonical.
    """
    if min_weighted_degree(graph) < delta:
        raise CanonicalizationError(f"input min weighted degree below delta={delta}")
    violations = check_canonical(graph).violations
    if not violations:
        return graph, TransformLog()
    k = graph.k
    layers = weight_rows(graph)
    rows = list(graph.rows)  # its dicts never change: a step replaces the ones it checks
    log = TransformLog()
    cap = 4 * len(layers) * k
    # the violated layers of each property, in repair order; no graph
    # breaks (i), as WeightedClumpGraph rejects a single followed by a
    # layer holding its color
    todo: dict[str, set[int]] = {"ii": set(), "iii": set(), "iv": set()}
    for i, prop in violations:
        todo[prop].add(i)
    while prop := next((p for p, at in todo.items() if at), None):
        if len(log) >= cap:
            raise CanonicalizationError(
                f"iteration cap {cap} exceeded; applied {log.rules()}"
            )
        i = min(todo[prop])
        if prop == "ii":
            rule, runs = _fix_shared_color(k, layers, i)
        elif prop == "iii":
            rule, runs = _resolve_k1(k, layers, i)
        else:
            rule, runs = _fix_duplicate_weight(k, layers, i)
        if len(layers) != len(rows):
            _audit(graph, _to_graph(k, layers), delta)  # raises, as the layer count changed
        changed = list(map(ne, rows, layers))
        if True in changed:
            swapped = _swapped_rows(k, rows, layers, runs)
            if swapped is None:
                lo, stop = changed.index(True), len(changed) - changed[::-1].index(True)
                near = _check_span(k, rows, layers, range(lo, stop), (), delta)
            else:
                images, ends = swapped
                for j, image in images.items():
                    rows[j] = image
                edited = [j for j in compress(range(len(rows)), changed) if j not in images]
                near = _check_span(k, rows, layers, edited, ends, delta)
            for span in near:
                for at in todo.values():
                    at.difference_update(span)
                for j, found in _violations(k, rows, span):
                    todo[found].add(j)
        log.entries.append(RewriteEntry(rule=rule, layer=i))
    result = _to_graph(k, layers)
    _audit(graph, result, delta)
    report = check_canonical(result)
    if not report.passes:
        raise CanonicalizationError(f"result is not canonical: {report.violations}")
    return result, log


# -- relayering a plain graph -------------------------------------------


def bfs_relayer(graph: SimpleGraph, coloring: list[int], k: int) -> WeightedClumpGraph:
    """Layer a graph colored from a palette of k colors by BFS from a
    vertex of maximum eccentricity and collapse each (layer, color) class
    into one clump."""
    if len(coloring) != graph.n:
        raise ValueError("coloring length does not match vertex count")
    for u in range(graph.n):
        for v in graph.adjacency[u]:
            if coloring[u] == coloring[v]:
                raise ValueError(f"edge ({u}, {v}) joins same-colored vertices")
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
