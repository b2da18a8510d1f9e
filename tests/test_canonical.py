import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clumplab import canonical
from clumplab.canonical import (
    CanonicalizationError,
    bfs_relayer,
    canonicalize,
    check_canonical,
    is_canonical_pair,
)
from clumplab.constructions import counterexample_graph, eppt_odd
from clumplab.core import (
    ClumpGraphError,
    SimpleGraph,
    WeightedClumpGraph,
    blow_up,
    layer_profile,
    min_weighted_degree,
    weighted_degree,
)

from conftest import random_layered_graph


def resolve_k1_violation(graph: WeightedClumpGraph, i: int, delta: int) -> WeightedClumpGraph:
    """One property (iii) repair at layer i, audited like a canonicalize step."""
    layers = canonical._to_layers(graph)
    canonical._resolve_k1(graph.k, layers, i)
    out = canonical._to_graph(graph.k, layers)
    canonical._audit(graph, out, delta)
    return out


def test_family_is_canonical():
    report = check_canonical(counterexample_graph(1, 4, 1))
    assert report.passes


def test_heavy_clump_between_singles_fails_iv():
    g = WeightedClumpGraph(3, [[(0, 1)], [(1, 2)], [(2, 2)], [(0, 2)]])
    report = check_canonical(g)
    assert any(prop == "iv" for _, prop in report.violations)


def test_full_palette_too_early_fails_iii():
    # (iii) puts a full palette at index >= 2; layer 1 must avoid the
    # root's color, so a full palette there is not a graph at all
    with pytest.raises(ClumpGraphError):
        WeightedClumpGraph(3, [[(0, 1)], [(0, 1), (1, 1), (2, 1)], [(1, 2), (2, 2)]])


def _empty_last_layer(layers):
    layers[-1].clear()


def _add_a_unit(layers):
    layers[-1][min(layers[-1])] += 1


def _starve_last_layer(layers):
    layers[-2][min(layers[-2])] -= 1
    layers[1][min(layers[1])] += 1


@pytest.mark.parametrize("corrupt, error, match", [
    (_empty_last_layer, ClumpGraphError, "layer 3 is empty"),
    (_add_a_unit, CanonicalizationError, "rewrite changed the total weight"),
    (_starve_last_layer, CanonicalizationError,
     "rewrite dropped the minimum weighted degree"),
])
def test_every_rewrite_is_validated_and_audited(monkeypatch, corrupt, error, match):
    # (iv) fires first here; a faulty rewrite must be caught at its own step
    g = WeightedClumpGraph(3, [[(0, 1)], [(1, 2)], [(2, 2)], [(0, 2)]])
    rewrite = canonical._fix_duplicate_weight
    steps = []

    def faulty(k, layers, i):
        steps.append(i)
        rule = rewrite(k, layers, i)
        corrupt(layers)
        return rule

    monkeypatch.setattr(canonical, "_fix_duplicate_weight", faulty)
    with pytest.raises(error, match=match):
        canonicalize(g, 2)
    assert steps == [1]


def test_k3_pair_grammar_is_the_seven_shapes():
    subsets = [
        frozenset(s) for r in (1, 2, 3) for s in itertools.combinations(range(3), r)
    ]
    accepted = {
        (len(a), len(b), len(a & b))
        for a in subsets
        for b in subsets
        if is_canonical_pair(3, a, b)
    }
    assert accepted == {
        (1, 1, 0), (1, 2, 0), (2, 1, 0), (2, 2, 1), (2, 3, 2), (3, 2, 2), (3, 3, 3)
    }


def test_canonicalize_fixpoint_on_canonical_input():
    g = counterexample_graph(1, 4, 2)
    out, log = canonicalize(g, 4)
    assert len(log) == 0
    assert out == g


def test_move_clump_resolution():
    # full palette at i = 3 followed by a single whose color also sits in
    # L_3; L_1 is multicolored, so the clump moves back without recoloring
    g = WeightedClumpGraph(
        3,
        [
            [(0, 1)],
            [(1, 3), (2, 3)],
            [(0, 3), (1, 3)],
            [(0, 2), (1, 2), (2, 2)],
            [(2, 3)],
            [(0, 3), (1, 3)],
        ],
    )
    delta = min_weighted_degree(g)
    assert (3, "iii") in check_canonical(g).violations
    out = resolve_k1_violation(g, 3, delta)
    assert len(out.layers[3]) == 2
    assert out.total_weight == g.total_weight
    assert min_weighted_degree(out) >= delta


def _redistribution_instance(weights):
    # shape X | YZ | XYZ | X with X = 0, Y = 1, Z = 2
    x1, y2, z2, x3, y3, z3, x4 = weights
    return WeightedClumpGraph(
        3,
        [
            [(0, x1)],
            [(1, y2), (2, z2)],
            [(0, x3), (1, y3), (2, z3)],
            [(0, x4)],
        ],
    )


@pytest.mark.parametrize(
    "weights",
    [
        (1, 2, 2, 3, 2, 2, 3),  # x3 >= y3
        (1, 1, 4, 2, 3, 4, 3),  # x3 < min(y3, z3), x3 >= y2
        (1, 3, 4, 2, 4, 5, 4),  # x3 below everything, z2 >= y3
        (1, 4, 3, 2, 5, 4, 4),  # x3 below everything, z2 < y3
    ],
)
def test_weight_redistribution_cases(weights):
    g = _redistribution_instance(weights)
    delta = min_weighted_degree(g)
    out = resolve_k1_violation(g, 2, delta)
    assert out.total_weight == g.total_weight
    assert out.diameter_index == g.diameter_index
    assert min_weighted_degree(out) >= delta
    assert len(out.layers[2]) < 3 or len(out.layers[3]) >= 2


def test_redistribution_case_1_shape():
    # x3 >= y3: L_1 absorbs the Y-weight, L_2 keeps X and Z
    g = _redistribution_instance((1, 2, 2, 3, 2, 2, 3))
    out = resolve_k1_violation(g, 2, min_weighted_degree(g))
    by_color = {c.color: c.weight for c in out.layers[1]}
    assert by_color == {1: 4, 2: 2}
    assert {c.color: c.weight for c in out.layers[2]} == {0: 3, 2: 2}


def test_canonicalize_random_instances_small():
    rng = random.Random(99)
    for _ in range(120):
        g = random_layered_graph(rng)
        delta = min_weighted_degree(g)
        out, log = canonicalize(g, delta)
        assert out.total_weight == g.total_weight
        assert out.diameter_index == g.diameter_index
        assert min_weighted_degree(out) >= delta
        assert check_canonical(out).passes
        again, log2 = canonicalize(out, delta)
        assert len(log2) == 0 and again == out


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_canonicalize_preserves_blow_up_size(seed):
    """canonicalize at the default delta, the minimum degree, keeps n, D
    and delta, yields a canonical graph, and is idempotent."""
    g = random_layered_graph(random.Random(seed), max_depth=8)
    delta = min_weighted_degree(g)
    out, _ = canonicalize(g)
    assert blow_up(out).n == blow_up(g).n
    assert out.diameter_index == g.diameter_index
    assert min_weighted_degree(out) >= delta
    assert check_canonical(out).passes
    again, log = canonicalize(out)
    assert len(log) == 0 and again == out


def test_canonicalize_rejects_degree_misdeclaration():
    g = WeightedClumpGraph(3, [[(0, 1)], [(1, 1)]])
    with pytest.raises(CanonicalizationError):
        canonicalize(g, delta=5)


def test_bfs_relayer_cycle():
    c6 = SimpleGraph(6, [(i, (i + 1) % 6) for i in range(6)])
    g = bfs_relayer(c6, [0, 1, 0, 1, 0, 2], k=3)
    assert g.diameter_index == 3
    assert layer_profile(g).ell == (1, 2, 2, 1)


def test_bfs_relayer_star():
    star = SimpleGraph(4, [(0, 1), (0, 2), (0, 3)])
    g = bfs_relayer(star, [1, 0, 0, 0], k=3)
    # roots at a leaf (maximum eccentricity), giving three layers
    assert layer_profile(g).ell == (1, 1, 2)


def test_bfs_relayer_round_trip():
    original = eppt_odd(2, 5, 6)
    s = blow_up(original)
    coloring = []
    for c in original.clumps():
        coloring.extend([c.color] * c.weight)
    g = bfs_relayer(s, coloring, k=4)
    assert layer_profile(g).ell == layer_profile(original).ell


def test_bfs_relayer_rejects_improper_coloring():
    with pytest.raises(ValueError):
        bfs_relayer(SimpleGraph(2, [(0, 1)]), [0, 0], k=3)


def test_degree_audit_per_role():
    # in the x3 >= y3 case every clump's degree must not drop
    g = _redistribution_instance((1, 2, 2, 3, 2, 2, 3))
    delta = min_weighted_degree(g)
    before = {
        (c.layer, c.color): weighted_degree(g, c.layer, c.color) for c in g.clumps()
    }
    out = resolve_k1_violation(g, 2, delta)
    assert min(
        weighted_degree(out, c.layer, c.color) for c in out.clumps()
    ) >= min(before.values())
