import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clumplab import core
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
    weighted_degree,
)

from conftest import random_layered_graph


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


def test_layers_take_pairs_in_any_order():
    rows = [[(0, 1)], [(2, 3), (1, 2)], [(2, 2), (0, 1)]]
    graph = WeightedClumpGraph(3, [sorted(row) for row in rows])
    assert WeightedClumpGraph(3, rows).layers == graph.layers
    items = [dict(row).items() for row in rows]
    assert WeightedClumpGraph(3, items).layers == graph.layers
    clumps = [[(c.layer, c.color, c.weight) for c in layer] for layer in graph.layers]
    assert clumps == [[(0, 0, 1)], [(1, 1, 2), (1, 2, 3)], [(2, 0, 1), (2, 2, 2)]]


def test_weighted_degree_isolated_root():
    g = WeightedClumpGraph(3, [[(0, 1)]])
    assert weighted_degree(g, 0, 0) == 0


def test_weighted_degree_block_root():
    # standalone 7-layer block with minimum degree 5: the root sees the
    # two second-layer clumps of weight 2 each
    g = counterexample_block(1, 5)
    root = g.layers[0][0]
    assert weighted_degree(g, 0, root.color) == 4


def test_blow_up_unit_weights_matches_clump_adjacency():
    g = WeightedClumpGraph(3, [[(0, 1)], [(1, 1), (2, 1)], [(0, 1)]])
    s = blow_up(g)
    assert s.n == 4
    degrees = [s.degree(v) for v in range(s.n)]
    expected = [weighted_degree(g, c.layer, c.color) for c in g.clumps()]
    assert degrees == expected


def test_blow_up_order_of_family():
    g = counterexample_graph(1, 4, 1)
    assert blow_up(g).n == 15


def test_blow_up_degrees_equal_weighted_degrees():
    g = counterexample_block(1, 4)
    s = blow_up(g)
    v = 0
    for c in g.clumps():
        for _ in range(c.weight):
            assert s.degree(v) == weighted_degree(g, c.layer, c.color)
            v += 1


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
    assert prof.ell_at(-1) == 0 and prof.ell_at(7) == 0


def test_layer_profile_counts_large_block():
    prof = layer_profile(counterexample_block(5, 11))
    head = (1, 10, 1, 1, 9, 2, 1, 8, 3, 1, 7, 4, 1, 6, 5, 1)
    assert prof.clump_counts[: len(head)] == head
    assert prof.clump_counts == prof.clump_counts[::-1]


def test_adjacency_symmetric_irreflexive():
    g = counterexample_block(2, 5)
    for c in g.clumps():
        nbrs = {(x.layer, x.color) for x in g.neighbors(c.layer, c.color)}
        assert (c.layer, c.color) not in nbrs
        for key in nbrs:
            back = {(x.layer, x.color) for x in g.neighbors(*key)}
            assert (c.layer, c.color) in back


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
    v = 0
    for c in g.clumps():
        for _ in range(c.weight):
            assert s.degree(v) == weighted_degree(g, c.layer, c.color)
            v += 1
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
    assert min_weighted_degree(g) == min(
        weighted_degree(g, c.layer, c.color) for c in g.clumps()
    )
