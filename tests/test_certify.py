from fractions import Fraction

import pytest

from clumplab.certify import (
    bound_from_certificate,
    dual_certificate,
    verify_packing,
)
from clumplab.constructions import counterexample_graph
from clumplab.core import (
    WeightedClumpGraph,
    blow_up_diameter,
    min_weighted_degree,
    weighted_degree,
)


def test_thin_layer_weights():
    g = counterexample_graph(1, 4, 1)
    cert = dual_certificate(g)
    # a two-clump layer shares 2/5 evenly
    assert cert.u[(1, 1)] == Fraction(1, 5)
    assert cert.layer_totals[1] == Fraction(2, 5)
    assert cert.u_tilde == Fraction(2, 5)


def test_full_layer_split_weights():
    # L_2 = {0, 1, 2} between singles misses one color on each side; the
    # dominating clump gets 1/5 and the other two get 1/10
    g = WeightedClumpGraph(
        3,
        [
            [(0, 1)],
            [(1, 2), (2, 2)],
            [(0, 2), (1, 1), (2, 1)],
            [(1, 2), (2, 2)],
            [(0, 2)],
        ],
    )
    cert = dual_certificate(g)
    assert cert.u[(2, 0)] == Fraction(1, 5)
    assert cert.u[(2, 1)] == cert.u[(2, 2)] == Fraction(1, 10)
    assert cert.layer_totals[2] == Fraction(2, 5)
    assert cert.feasible


def test_k4_layer_weights(corpus_by_k):
    graph, _ = corpus_by_k[4][0]
    cert = dual_certificate(graph)
    # three-of-four-color layers would get 1/8 each; here layers hold two
    # clumps, each worth 3/16
    assert cert.u_tilde == Fraction(3, 8)
    assert all(t == Fraction(3, 8) for t in cert.layer_totals)


def test_certificates_feasible_on_corpus(corpus_by_k):
    for k, pairs in corpus_by_k.items():
        for graph, _ in pairs:
            cert = dual_certificate(graph)
            assert cert.feasible
            expected = Fraction(k - 1, 3 * k - 4)
            assert all(t == expected for t in cert.layer_totals)


def test_noncanonical_input_rejected():
    g = WeightedClumpGraph(3, [[(0, 1)], [(1, 2)], [(2, 2)], [(0, 2)]])
    with pytest.raises(ValueError):
        dual_certificate(g)


def test_verify_packing_trivial_cases():
    g = counterexample_graph(1, 4, 1)
    zero = {(c.layer, c.color): Fraction(0) for c in g.clumps()}
    report = verify_packing(g, zero)
    assert report.feasible and report.objective == 0
    ones = {(c.layer, c.color): Fraction(1) for c in g.clumps()}
    assert not verify_packing(g, ones).feasible


def test_verify_packing_rejects_bad_weights():
    g = counterexample_graph(1, 4, 1)
    with pytest.raises(ValueError):
        verify_packing(g, {})
    bad = {(c.layer, c.color): Fraction(0) for c in g.clumps()}
    bad[(0, 0)] = Fraction(-1)
    with pytest.raises(ValueError):
        verify_packing(g, bad)


def test_weak_duality():
    # delta * (total dual weight) never exceeds the total primal weight
    g = counterexample_graph(1, 4, 1)
    delta = min_weighted_degree(g)
    cert = dual_certificate(g)
    assert all(
        weighted_degree(g, c.layer, c.color) >= delta for c in g.clumps()
    )
    assert delta * cert.objective <= g.total_weight


def test_diameter_below_bound_on_corpus(corpus_by_k):
    for pairs in corpus_by_k.values():
        for graph, delta in pairs:
            cert = dual_certificate(graph)
            bound = bound_from_certificate(cert, graph.total_weight, delta)
            assert blow_up_diameter(graph) <= bound


def test_bound_requires_feasibility():
    g = counterexample_graph(1, 4, 1)
    cert = dual_certificate(g)
    broken = type(cert)(
        u=cert.u,
        layer_totals=cert.layer_totals,
        u_tilde=cert.u_tilde,
        feasible=False,
    )
    with pytest.raises(ValueError):
        bound_from_certificate(broken, 15, 4)
