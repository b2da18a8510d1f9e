import copy
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clumplab import core
from clumplab.canonical import check_canonical
from clumplab.constructions import counterexample_block, counterexample_graph
from clumplab.core import (
    ClumpGraphError,
    SimpleGraph,
    WeightedClumpGraph,
    blow_up,
    blow_up_diameter,
    blow_up_edge_count,
    diameter,
    export_edge_list,
    layer_profile,
    min_weighted_degree,
    neighbor_sum_range,
    weight_rows,
    weighted_degree,
)

from conftest import clumps, neighbors, random_layered_graph, random_layers


def test_single_root_is_valid():
    g = WeightedClumpGraph(3, [[(0, 1)]])
    assert g.diameter_index == 0
    assert g.total_weight == 1


def test_unreachable_clump_rejected():
    with pytest.raises(ClumpGraphError):
        WeightedClumpGraph(3, [[(0, 1)], [(0, 2)]])


def test_duplicate_color_rejected():
    with pytest.raises(ClumpGraphError):
        WeightedClumpGraph(3, [[(0, 1)], [(1, 2), (1, 1)]])


def test_color_out_of_range_rejected():
    with pytest.raises(ClumpGraphError):
        WeightedClumpGraph(3, [[(3, 1)]])


def test_rooted_needs_unit_root():
    with pytest.raises(ClumpGraphError):
        WeightedClumpGraph(3, [[(0, 2)]])
    with pytest.raises(ClumpGraphError):
        WeightedClumpGraph(3, [[(0, 1), (1, 1)], [(2, 1)]])


@pytest.mark.parametrize("k, layers, message", [
    (1, [[(0, 1)]], "color count k=1 must be at least 2"),
    (3, [], "graph must have at least one layer"),
    (3, [[(0, 1)], [(1, 0)]], "layer 1: weight 0 < 1"),
])
def test_palette_and_layer_count_rejected(k, layers, message):
    with pytest.raises(ClumpGraphError, match=message):
        WeightedClumpGraph(k, layers)


@pytest.mark.parametrize("k, layers, message", [
    (3, [[(0, True)], [(1, 2), (2, True)]], "layer 0: weight True is not an integer"),
    (3, [[(0, 1)], [(1, 2), (2, 2.0)]], "layer 1: weight 2.0 is not an integer"),
    (3, [[(0, 1)], [(True, 2), (2, 1)]], "layer 1: color True is not an integer"),
    (3, [[(False, 1)]], "layer 0: color False is not an integer"),
    # colors that do not compare, so the layer cannot be sorted first
    (3, [[(0, 1)], [(1, 1), ("2", 1)]], "layer 1: color '2' is not an integer"),
    (3.0, [[(0, 1)]], "color count k=3.0 is not an integer"),
])
def test_non_integer_palette_color_or_weight_rejected(k, layers, message):
    # a bool or a float would be written as JSON true or 2.0, which
    # parse_clump_json refuses, so the graph could not round-trip
    with pytest.raises(ClumpGraphError, match=message):
        WeightedClumpGraph(k, layers)


@pytest.mark.parametrize("edge, message", [
    ((1, 1), "self-loop at vertex 1"),
    ((0, 2), r"edge \(0, 2\) outside vertex range"),
])
def test_simple_graph_rejects_bad_edges(edge, message):
    with pytest.raises(ValueError, match=message):
        SimpleGraph(2, [edge])


def test_empty_graph_has_no_diameter():
    with pytest.raises(ValueError, match="empty graph has no diameter"):
        diameter(SimpleGraph(0, []))


@pytest.mark.parametrize("layer, color", [(1, 0), (2, 1), (-1, 0)])
def test_weighted_degree_of_a_missing_clump(layer, color):
    g = WeightedClumpGraph(3, [[(0, 1)], [(1, 2), (2, 1)]])
    with pytest.raises(KeyError) as exc:
        weighted_degree(g, layer, color)
    assert exc.value.args == ((layer, color),)


def test_layers_take_pairs_in_any_order():
    rows = [[(0, 1)], [(2, 3), (1, 2)], [(2, 2), (0, 1)]]
    graph = WeightedClumpGraph(3, [sorted(row) for row in rows])
    assert WeightedClumpGraph(3, rows).rows == graph.rows
    items = [dict(row).items() for row in rows]
    assert WeightedClumpGraph(3, items).rows == graph.rows
    assert clumps(graph) == [(0, 0, 1), (1, 1, 2), (1, 2, 3), (2, 0, 1), (2, 2, 2)]


def test_weighted_degree_isolated_root():
    g = WeightedClumpGraph(3, [[(0, 1)]])
    assert weighted_degree(g, 0, 0) == 0


def test_weighted_degree_block_root():
    # standalone 7-layer block with minimum degree 5: the root sees the
    # two second-layer clumps of weight 2 each
    g = counterexample_block(1, 5)
    (root,) = g.rows[0]
    assert weighted_degree(g, 0, root) == 4


def test_blow_up_unit_weights_matches_clump_adjacency():
    g = WeightedClumpGraph(3, [[(0, 1)], [(1, 1), (2, 1)], [(0, 1)]])
    s = blow_up(g)
    assert s.n == 4
    degrees = [len(s.adjacency[v]) for v in range(s.n)]
    expected = [weighted_degree(g, i, c) for i, c, _ in clumps(g)]
    assert degrees == expected


def test_blow_up_order_of_family():
    g = counterexample_graph(1, 4, 1)
    assert blow_up(g).n == 15


def test_blow_up_degrees_equal_weighted_degrees():
    g = counterexample_block(1, 4)
    s = blow_up(g)
    degrees = [weighted_degree(g, i, c) for i, c, w in clumps(g) for _ in range(w)]
    assert [len(s.adjacency[v]) for v in range(s.n)] == degrees


def test_blow_up_numbers_vertices_layer_major_then_color():
    # vertex 0 is the root, 1 and 2 copy clump (1, 1), 3 is (1, 2), 4 is (2, 0)
    g = WeightedClumpGraph(3, [[(0, 1)], [(2, 1), (1, 2)], [(0, 1)]])
    assert export_edge_list(blow_up(g)) == (
        "5 8\n0 1\n0 2\n0 3\n1 3\n1 4\n2 3\n2 4\n3 4\n"
    )


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_blow_up_adjacency_is_the_clump_adjacency(k):
    # every copy of a clump is adjacent to exactly the copies of the
    # differently colored clumps of the layers next to and at its own
    rng = random.Random(4100 + k)
    for _ in range(40):
        g = random_layered_graph(rng, k=k, max_depth=7, max_weight=3)
        s = blow_up(g)
        copies: dict[tuple[int, int], range] = {}
        for i, c, w in clumps(g):
            start = sum(map(len, copies.values()))
            copies[(i, c)] = range(start, start + w)
        assert s.n == sum(map(len, copies.values()))
        for (i, c), vs in copies.items():
            want = sorted(v for j, d, _ in neighbors(g, i, c) for v in copies[(j, d)])
            assert all(s.adjacency[v] == want for v in vs)


def test_diameter_path_and_clique():
    path = SimpleGraph(3, [(0, 1), (1, 2)])
    assert diameter(path) == 2
    k4 = SimpleGraph(4, [(a, b) for a in range(4) for b in range(a + 1, 4)])
    assert diameter(k4) == 1


def test_diameter_disconnected_rejected():
    with pytest.raises(ValueError):
        diameter(SimpleGraph(3, [(0, 1)]))


def test_blow_up_diameter_of_family():
    g = counterexample_graph(1, 4, 2)
    assert diameter(blow_up(g)) == 13
    assert blow_up_diameter(g) == 13


def test_layer_profile_of_block():
    prof = layer_profile(counterexample_block(1, 4))
    assert prof.ell == (1, 3, 2, 1, 2, 3, 1)
    assert prof.n == 13


def test_layer_profile_counts_large_block():
    prof = layer_profile(counterexample_block(5, 11))
    head = (1, 10, 1, 1, 9, 2, 1, 8, 3, 1, 7, 4, 1, 6, 5, 1)
    assert prof.clump_counts[: len(head)] == head
    assert prof.clump_counts == prof.clump_counts[::-1]


def test_layer_profile_singles_are_built_once():
    # the layers of one clump, a field of the profile: every read gives
    # the one frozenset built with it
    prof = layer_profile(counterexample_block(5, 11))
    assert isinstance(prof.singles, frozenset)
    assert prof.singles == {i for i, c in enumerate(prof.clump_counts) if c == 1}
    assert prof.singles is prof.singles


def test_adjacency_symmetric_irreflexive():
    g = counterexample_block(2, 5)
    for i, c, _ in clumps(g):
        walk = neighbors(g, i, c)
        assert weighted_degree(g, i, c) == sum(w for _, _, w in walk)
        nbrs = {(j, d) for j, d, _ in walk}
        assert (i, c) not in nbrs
        for key in nbrs:
            assert (i, c) in {(j, d) for j, d, _ in neighbors(g, *key)}


def test_export_edge_list_header():
    text = export_edge_list(SimpleGraph(3, [(0, 1), (1, 2)]))
    lines = text.strip().split("\n")
    assert lines[0] == "3 2"
    assert lines[1:] == ["0 1", "1 2"]


@pytest.mark.parametrize("k", [2, 3, 4, 5], ids="{}-rooted".format)
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_random_graph_invariants(k, seed):
    g = random_layered_graph(random.Random(seed), k=k, max_depth=6, max_weight=4)
    prof = layer_profile(g)
    s = blow_up(g)
    assert sum(prof.ell) == prof.n == s.n
    assert blow_up_edge_count(g) == s.m
    degrees = [weighted_degree(g, i, c) for i, c, w in clumps(g) for _ in range(w)]
    assert [len(s.adjacency[v]) for v in range(s.n)] == degrees
    assert blow_up_diameter(g) == diameter(s)


def test_blow_up_over_the_edge_limit_raises(monkeypatch):
    g = counterexample_graph(1, 4, 1)
    m = blow_up(g).m
    monkeypatch.setattr(core, "MAX_BLOW_UP_EDGES", m)
    assert blow_up(g).m == m
    monkeypatch.setattr(core, "MAX_BLOW_UP_EDGES", m - 1)
    with pytest.raises(ValueError, match=f"blow-up has {m} edges"):
        blow_up(g)


def test_min_weighted_degree_matches_scan():
    g = counterexample_graph(1, 5, 2)
    assert min_weighted_degree(g) == min(weighted_degree(g, i, c) for i, c, _ in clumps(g))


@settings(max_examples=300, deadline=None)
@given(
    k=st.sampled_from([3, 4, 5, 7]),
    max_depth=st.integers(0, 8),
    seed=st.integers(0, 10**9),
    data=st.data(),
)
def test_neighbor_sum_range_matches_neighbor_walk(k, max_depth, seed, data):
    # max_depth 0 makes single-layer graphs, whose one clump has no neighbor
    rng = random.Random(seed)
    g = random_layered_graph(rng, k=k, max_depth=max_depth, max_weight=5)
    first = data.draw(st.integers(0, g.diameter_index), label="first")
    stop = data.draw(st.integers(first + 1, g.diameter_index + 1), label="stop")
    inside = [(i, c) for i, c, _ in clumps(g) if first <= i < stop]
    degrees = [weighted_degree(g, i, c) for i, c in inside]
    assert neighbor_sum_range(g.rows, first, stop) == (min(degrees), max(degrees))
    everywhere = [weighted_degree(g, i, c) for i, c, _ in clumps(g)]
    assert neighbor_sum_range(g.rows) == (min(everywhere), max(everywhere))
    assert min_weighted_degree(g) == min(everywhere)
    assert blow_up_edge_count(g) == blow_up(g).m
    # any integers, zero and negative ones included, not only weights
    rows = [{c: rng.randint(-5, 9) for c in row} for row in g.rows]
    sums = [sum(rows[j][d] for j, d, _ in neighbors(g, i, c)) for i, c in inside]
    assert neighbor_sum_range(rows, first, stop) == (min(sums), max(sums))


@pytest.mark.parametrize("k", [3, 4, 5])
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_neighbor_sums_match_neighbor_walk(k, seed):
    # every single layer, root through layer D, against the neighbor walk
    rng = random.Random(seed)
    g = random_layered_graph(rng, k=k, max_depth=8, max_weight=5)
    rows = [{c: rng.randint(-5, 9) for c in row} for row in g.rows]
    for i, row in enumerate(g.rows):
        degrees = [weighted_degree(g, i, c) for c in row]
        assert neighbor_sum_range(g.rows, i, i + 1) == (min(degrees), max(degrees))
        sums = [sum(rows[j][d] for j, d, _ in neighbors(g, i, c)) for c in row]
        assert neighbor_sum_range(rows, i, i + 1) == (min(sums), max(sums))


def test_neighbor_sum_range_root_and_last_layer():
    g = WeightedClumpGraph(3, [[(0, 1)], [(1, 2), (2, 3)], [(0, 4), (1, 5)]])
    # the root sees layer 1; the last layer sees layer 1 and itself
    assert neighbor_sum_range(g.rows, 0, 1) == (5, 5)
    assert neighbor_sum_range(g.rows, 1, 2) == (3 + 1 + 4, 1 + 2 + 4 + 5)
    assert neighbor_sum_range(g.rows, 2) == (3 + 4, 2 + 3 + 5)
    assert neighbor_sum_range(g.rows) == (5, 1 + 2 + 4 + 5)
    assert neighbor_sum_range([{2: 1}]) == (0, 0)
    assert min_weighted_degree(WeightedClumpGraph(3, [[(2, 1)]])) == 0


# -- the derived facts against a walk over the clumps ------------------------


def _walk_violations(graph: WeightedClumpGraph) -> list[tuple[int, str]]:
    """Canonical properties (i)-(iv) read off the rows, in the order
    check_canonical reports them: each layer pair's (i), (ii), (iii),
    then (iv) layer by layer."""
    k, layers = graph.k, graph.rows
    colors = [set(row) for row in layers]
    out = []
    for i in range(len(layers) - 1):
        a, b = colors[i], colors[i + 1]
        if len(a) == 1 and len(b) == k:
            out.append((i, "i"))
        if len(a | b) != min(k, len(a) + len(b)):
            out.append((i, "ii"))
        if len(a) == k and len(b) < 2:
            out.append((i, "iii"))
    for i in range(1, len(layers)):
        if any(w > 1 for w in layers[i].values()):
            nxt = len(layers[i + 1]) if i + 1 < len(layers) else 0
            if len(layers[i]) + max(len(layers[i - 1]), nxt) < k:
                out.append((i, "iv"))
    return out


def _walk_facts(graph: WeightedClumpGraph) -> dict:
    """Every derived fact of graph, each from a fresh walk over its clumps."""
    walk = clumps(graph)
    degrees = [weighted_degree(graph, i, c) for i, c, _ in walk]
    return {
        "min_weighted_degree": min(degrees),
        "blow_up_edge_count": sum(w * d for (_, _, w), d in zip(walk, degrees)) // 2,
        "ell": tuple(sum(row.values()) for row in graph.rows),
        "clump_counts": tuple(len(row) for row in graph.rows),
        "colors": tuple(frozenset(row) for row in graph.rows),
        "n": sum(w for _, _, w in walk),
        "total_weight": sum(w for _, _, w in walk),
        "diameter_index": len(graph.rows) - 1,
        "violations": _walk_violations(graph),
    }


def _facts(graph: WeightedClumpGraph) -> dict:
    """The same facts as the library derives them."""
    profile = layer_profile(graph)
    return {
        "min_weighted_degree": min_weighted_degree(graph),
        "blow_up_edge_count": blow_up_edge_count(graph),
        "ell": profile.ell,
        "clump_counts": profile.clump_counts,
        "colors": profile.colors,
        "n": profile.n,
        "total_weight": graph.total_weight,
        "diameter_index": profile.diameter_index,
        "violations": check_canonical(graph).violations,
    }


@pytest.mark.parametrize("k", [2, 3, 4, 5])
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_derived_facts_match_the_clump_walk(k, seed):
    rng = random.Random(seed)
    layers = random_layers(rng, k=k, max_depth=10, max_weight=4)
    for layer in layers:
        rng.shuffle(layer)
    g = WeightedClumpGraph(k, layers)
    assert [list(row.items()) for row in g.rows] == [sorted(layer) for layer in layers]
    twin = WeightedClumpGraph(k, [list(row.items()) for row in g.rows])
    assert twin == g and hash(twin) == hash(g) and twin is not g
    heavier = [list(row.items()) for row in g.rows]
    i = rng.randrange(1, len(heavier)) if len(heavier) > 1 else 0
    if i:  # the root keeps weight 1
        heavier[i][0] = (heavier[i][0][0], heavier[i][0][1] + 1)
        assert WeightedClumpGraph(k, heavier) != g
    assert WeightedClumpGraph(k + 1, layers) != g
    want = _walk_facts(g)
    assert _facts(g) == want
    assert layer_profile(g) is layer_profile(g)
    # what the library hands out is the caller's own: changing it leaves
    # every fact of g as it was
    rows = weight_rows(g)
    for row in rows:
        for color in list(row):
            row[color] += 7
        row[k] = 1
    rows.append({0: 1})
    check_canonical(g).violations.append((0, "iv"))
    check_canonical(g).violations.clear()
    assert _facts(g) == want
    assert weight_rows(g) == list(g.rows) == list(twin.rows)


def test_graph_attributes_cannot_be_assigned_or_deleted():
    g = counterexample_graph(1, 5, 1)
    for name in ("k", "rows", "_profile", "_min_degree", "new_attribute"):
        with pytest.raises(AttributeError):
            setattr(g, name, None)
    for name in ("k", "rows", "_profile", "_min_degree"):
        with pytest.raises(AttributeError):
            delattr(g, name)
    assert g == counterexample_graph(1, 5, 1)


def test_rows_are_color_sorted_and_copies_revalidate():
    g = WeightedClumpGraph(3, [[[0, 1]], [[2, 3], [1, 2]]])
    assert WeightedClumpGraph.__slots__ == ("k", "rows", "_profile", "_min_degree")
    assert [list(row.items()) for row in g.rows] == [[(0, 1)], [(1, 2), (2, 3)]]
    assert hash(g) == hash((3, (((0, 1),), ((1, 2), (2, 3)))))
    assert copy.copy(g) == pickle.loads(pickle.dumps(g)) == g
    assert hash(copy.deepcopy(g)) == hash(g)
    # a copy is rebuilt through the constructor, and so checked again
    assert copy.copy(g).rows is not g.rows


def test_graph_facts_are_computed_once_when_built(monkeypatch):
    # the profile and the minimum degree are computed by the constructor
    # and only read afterwards; a copy or a pickle is rebuilt through the
    # constructor, and so computes them once more
    calls: list[str] = []

    def spy(name, fact):
        def counted(*args):
            calls.append(name)
            return fact(*args)
        return counted

    monkeypatch.setattr(core, "neighbor_sum_range", spy("sums", core.neighbor_sum_range))
    monkeypatch.setattr(core, "_layer_profile", spy("profile", core._layer_profile))
    g = counterexample_graph(1, 5, 2)
    assert sorted(calls) == ["profile", "sums"]
    calls.clear()
    for _ in range(3):
        min_weighted_degree(g)
        layer_profile(g)
        g.total_weight
        for i in range(-1, g.diameter_index + 2):
            g.colors_of_layer(i)
    assert calls == []
    for rebuild in (copy.copy, lambda graph: pickle.loads(pickle.dumps(graph))):
        assert rebuild(g) == g
        assert sorted(calls) == ["profile", "sums"]
        calls.clear()
