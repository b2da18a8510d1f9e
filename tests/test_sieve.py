from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clumplab.canonical import check_canonical, is_canonical_pair
from clumplab.constructions import counterexample_block, counterexample_graph
from clumplab.core import (
    WeightedClumpGraph,
    blow_up,
    blow_up_diameter,
    diameter,
    layer_profile,
    min_weighted_degree,
)
from clumplab.sieve import (
    GlobalStats,
    check_aggregates,
    global_stats,
    singular_triplet_count,
    window_inequalities,
)


def _family_profile(p, delta=4):
    return layer_profile(counterexample_graph(1, delta, p))


def test_interior_single_window_is_tight():
    prof = _family_profile(1)
    report = window_inequalities(prof, 4)
    window = next(
        w for w in report.windows if w.kind == "one-layer" and w.index == 3
    )
    assert window.case == "single"
    assert window.lhs == window.rhs == 10


def test_two_layer_window_hand_value():
    # junction of a single and a double layer inside the first block:
    # 1 + 2 + (3/2)*3 + 1 = 17/2 against 2*delta = 8
    prof = _family_profile(2)
    report = window_inequalities(prof, 4)
    window = next(
        w for w in report.windows if w.kind == "two-layer" and w.index == 4
    )
    assert window.case == "first-single"
    assert window.lhs == Fraction(17, 2)
    assert window.rhs == 8


def test_three_layer_window_cases_present():
    prof = _family_profile(2)
    report = window_inequalities(prof, 4)
    cases = {w.case for w in report.windows if w.kind == "three-layer"}
    assert "sss" in cases and "ssm" in cases and "mss" in cases


def test_all_windows_pass_on_family():
    for delta in (2, 3, 4, 6):
        for p in (1, 2, 3):
            prof = _family_profile(p, delta)
            report = window_inequalities(prof, delta)
            assert report.passes, report


def test_all_windows_pass_on_corpus(corpus_k3):
    for graph, delta in corpus_k3:
        report = window_inequalities(layer_profile(graph), delta)
        assert report.passes, report


def test_aggregates_pass_with_default_slack(corpus_k3):
    for graph, delta in corpus_k3:
        stats = global_stats(layer_profile(graph), delta)
        assert all(check_aggregates(stats).values())


def test_noncanonical_profile_rejected():
    g = WeightedClumpGraph(3, [[(0, 1)], [(1, 1), (2, 1)], [(1, 1), (2, 1)]])
    # the (2, 2) pair shares both colors, which no canonical graph produces
    with pytest.raises(ValueError):
        window_inequalities(layer_profile(g), 2)


def test_global_stats_exact_family_values():
    # per block: singles weigh 7 of 13, the two 2-clump layers flanked by
    # singles weigh 6 (plus the two +1 adjustments overall), and each
    # block contributes two singular triplets
    for p in (1, 2, 3, 5, 8):
        stats = global_stats(_family_profile(p), 4)
        n = 13 * p + 2
        assert stats.mu == Fraction(7 * p, n)
        assert stats.alpha1 == Fraction(6 * p + 2, n)
        assert stats.alpha2 == 0
        assert stats.psi == Fraction(8 * p, n)
        assert stats.phi == Fraction(4 * (7 * p - 1), n)


def test_global_stats_convergence():
    limits = (
        Fraction(7, 13),
        Fraction(6, 13),
        Fraction(0),
        Fraction(8, 13),
        Fraction(28, 13),
    )
    for p in (1, 2, 4, 8):
        stats = global_stats(_family_profile(p), 4)
        values = (stats.mu, stats.alpha1, stats.alpha2, stats.psi, stats.phi)
        assert all(abs(v - lim) <= Fraction(1, p) for v, lim in zip(values, limits))


def test_singular_triplet_count_small():
    prof = layer_profile(counterexample_block(1, 4))
    # the two interior non-single layers (1 and 5) both touch a single
    assert singular_triplet_count(prof) == 2


def test_global_stats_rejects_nonpositive_delta(psi_graph):
    with pytest.raises(ValueError, match="delta=0 must be positive"):
        global_stats(layer_profile(psi_graph), 0)


def test_aggregate_slack_matters(psi_graph):
    # at zero slack the psi row genuinely fails: 3 * psi = 9/4 > 2
    stats = global_stats(layer_profile(psi_graph), 3)
    assert stats.psi == Fraction(3, 4)
    assert check_aggregates(stats, slack_c=0)["psi"] is False
    assert all(check_aggregates(stats, slack_c=12).values())


def test_global_optimum_meets_every_row():
    # the optimum lp epsz reports; at slack 0, n and delta do not matter
    stats = GlobalStats(
        mu=Fraction(0),
        alpha1=Fraction(17, 23),
        alpha2=Fraction(6, 23),
        phi=Fraction(57, 23),
        psi=Fraction(13, 23),
        n=23,
        delta=1,
    )
    assert all(check_aggregates(stats, 0).values())
    raised = replace(stats, phi=stats.phi + Fraction(1, 1000))
    assert not all(check_aggregates(raised, 0).values())


def _periodic_graph(p):
    """Canonical at minimum degree 4, with D = 4p + 6 and n = 7p + 15, so
    phi tends to 16/7 < 57/23; 3 psi tends to 24/7 > 2 and the triple
    row's lhs to 52/7 > 7."""
    head = [[(0, 1)], [(1, 1), (2, 3)], [(0, 2)]]
    period = [[(1, 1)], [(0, 1), (2, 1)], [(1, 2)], [(0, 1), (2, 1)]]
    tail = [[(1, 1)], [(0, 2)], [(1, 1), (2, 3)], [(0, 1)]]
    return WeightedClumpGraph(3, head + period * p + tail)


def test_periodic_graph_is_canonical_and_meets_every_window():
    graph = _periodic_graph(50)
    prof = layer_profile(graph)
    assert check_canonical(graph).passes
    assert min_weighted_degree(graph) == 4
    assert (prof.n, blow_up_diameter(graph)) == (365, 206)
    assert all(w.passes for w in window_inequalities(prof, 4).windows)
    small = _periodic_graph(5)
    assert diameter(blow_up(small)) == blow_up_diameter(small)


@pytest.mark.xfail(strict=True, reason="the psi and triple rows reject this canonical graph")
def test_sieve_accepts_periodic_graph():
    assert window_inequalities(layer_profile(_periodic_graph(50)), 4).passes


_COLOR_SETS = [frozenset(s) for s in ({0}, {1}, {2}, {0, 1}, {0, 2}, {1, 2}, {0, 1, 2})]


@st.composite
def _pair_canonical_graphs(draw):
    """Rooted 3-colored graphs whose consecutive color sets pass the pair
    rule, with weights above 1 only where property (iv) allows them."""
    sets = [frozenset({draw(st.integers(0, 2))})]
    for _ in range(draw(st.integers(1, 30))):
        sets.append(draw(st.sampled_from(
            [s for s in _COLOR_SETS if is_canonical_pair(3, sets[-1], s)]
        )))
    layers = []
    for i, colors in enumerate(sets):
        around = max(len(sets[j]) for j in (i - 1, i + 1) if 0 <= j < len(sets))
        heavy = i > 0 and len(colors) + around >= 3
        layers.append([(c, draw(st.integers(1, 8)) if heavy else 1) for c in sorted(colors)])
    return WeightedClumpGraph(3, layers)


@settings(max_examples=100, deadline=None)
@given(graph=_pair_canonical_graphs())
def test_canonical_graphs_meet_every_window(graph):
    assert check_canonical(graph).passes
    delta = min_weighted_degree(graph)
    assert delta >= 1
    report = window_inequalities(layer_profile(graph), delta)
    assert all(w.passes for w in report.windows)
    assert report.passes == all(report.rows.values())
