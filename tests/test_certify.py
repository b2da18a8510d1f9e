import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import combinations
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from clumplab.canonical import CanonicalizationError, canonicalize, check_canonical
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

from conftest import canonical_pair, clumps, neighbors, random_layered_graph, random_layers


def test_thin_layer_weights():
    g = counterexample_graph(1, 4, 1)
    cert = dual_certificate(g)
    # a two-clump layer shares 2/5 evenly
    assert cert.u[(1, 1)] == Fraction(1, 5)
    assert Fraction(cert.totals[1], cert.scale) == Fraction(2, 5)
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
    assert Fraction(cert.totals[2], cert.scale) == Fraction(2, 5)
    assert cert.feasible


def test_k4_layer_weights(corpus_by_k):
    graph, _ = corpus_by_k[4][0]
    cert = dual_certificate(graph)
    # three-of-four-color layers would get 1/8 each; here layers hold two
    # clumps, each worth 3/16
    assert cert.u_tilde == Fraction(3, 8)
    assert all(Fraction(t, cert.scale) == Fraction(3, 8) for t in cert.totals)


def test_certificates_feasible_on_corpus(corpus_by_k):
    for k, pairs in corpus_by_k.items():
        for graph, _ in pairs:
            cert = dual_certificate(graph)
            assert cert.feasible
            expected = Fraction(k - 1, 3 * k - 4)
            assert all(Fraction(t, cert.scale) == expected for t in cert.totals)


def test_noncanonical_input_certified():
    # singles of weight 2 break (iv) at every layer; the certificate
    # needs no canonical form
    g = WeightedClumpGraph(3, [[(0, 1)], [(1, 2)], [(2, 2)], [(0, 2)]])
    assert not check_canonical(g).passes
    cert = dual_certificate(g)
    assert cert.feasible and cert.objective == 4 * cert.u_tilde == Fraction(8, 5)
    assert bound_from_certificate(cert, g.total_weight, 2) == Fraction(5, 2) * Fraction(7, 2) + 1


def _rooted_color_sets(k, max_depth):
    """Every rooted sequence of layer color sets of depth 0..max_depth:
    the root {0}, then nonempty subsets of range(k), a single's color
    absent from the layer after it."""
    palette = [set(c) for r in range(1, k + 1) for c in combinations(range(k), r)]
    todo = [[{0}]]
    while todo:
        seq = todo.pop()
        yield seq
        if len(seq) <= max_depth:
            todo += [seq + [b] for b in palette if len(seq[-1]) > 1 or not seq[-1] <= b]


def test_uniform_certificate_holds_on_every_small_rooted_graph():
    # the certificate reads only the color sets, so weight 1 stands for
    # every weighting; bound_from_certificate raises on an infeasible
    # certificate or a layer total short of u_tilde.  No weight is 0: a
    # full layer follows two clumps or more, so |X| <= k-2.  At k = 2
    # the graphs are the alternating paths, every layer a single
    counts = Counter()
    for k, max_depth in ((2, 6), (3, 5), (4, 3)):
        u_tilde = Fraction(k - 1, 3 * k - 4)
        for seq in _rooted_color_sets(k, max_depth):
            g = WeightedClumpGraph(k, [[(c, 1) for c in layer] for layer in seq])
            cert = dual_certificate(g)
            n = g.total_weight
            assert bound_from_certificate(cert, n, 1) == n / u_tilde + 1
            assert cert.objective == len(seq) * u_tilde
            assert all(w > 0 for row in cert.rows for w in row.values())
            counts[k, check_canonical(g).passes] += 1
    assert counts == {
        (2, True): 7, (3, True): 635, (3, False): 1321, (4, True): 397, (4, False): 707
    }


@settings(max_examples=100, deadline=None)
@given(
    k=st.integers(2, 8), seed=st.integers(0, 10**9),
    n=st.integers(1, 10**6), delta=st.integers(1, 10**4),
)
def test_uniform_certificate_holds_on_random_rooted_graphs(k, seed, n, delta):
    # bound_from_certificate builds (q n + p delta) / (p delta) for
    # u_tilde = p/q as one Fraction; the bound's formula is its oracle,
    # at any n and delta, as the certificate does not know the graph
    g = WeightedClumpGraph(k, random_layers(random.Random(seed), k=k, max_depth=60))
    cert = dual_certificate(g)
    assert cert.feasible
    assert all(total * (3 * k - 4) == (k - 1) * cert.scale for total in cert.totals)
    assert bound_from_certificate(cert, n, delta) == 1 / cert.u_tilde * Fraction(n, delta) + 1


def test_certificate_on_a_graph_canonicalize_refuses():
    # L_0 = {x}, L_1 = every color but x, L_2 full and L_3 = {x}: the
    # (iii) repair needs k = 3, but the certificate holds at any k
    g = WeightedClumpGraph(
        4, [[(0, 1)], [(1, 1), (2, 1), (3, 1)], [(c, 1) for c in range(4)], [(0, 1)]]
    )
    with pytest.raises(
        CanonicalizationError,
        match="^full-palette layer 2 followed by a single needs the three-color "
        "weight redistribution, but k=4$",
    ):
        canonicalize(g, min_weighted_degree(g))
    cert = dual_certificate(g)
    assert cert.feasible and cert.u_tilde == Fraction(3, 8)
    assert [cert.u[(2, c)] for c in range(4)] == [Fraction(3, 32)] * 4  # X is empty
    assert bound_from_certificate(cert, g.total_weight, 3) == 9


def test_full_layers_have_at_most_k_minus_2_dominating_clumps():
    # dual_certificate's weight 1/(3k-4) - 1/((3k-4)(k-|X|)) needs only
    # |X| < k, and every rooted graph has |X| <= k-2 (the layer above a
    # full one holds two clumps or more); here it is pinned on canonical
    # graphs, a fact no code rests on
    rng = random.Random(20261020)
    reached, last = Counter(), Counter()
    for k in range(3, 7):
        for _ in range(200):
            graph, _ = canonical_pair(random_layered_graph(rng, k=k, max_depth=12))
            for i, row in enumerate(graph.rows):
                if len(row) < k:
                    continue
                nearby = graph.colors_of_layer(i - 1) | graph.colors_of_layer(i + 1)
                x = len(set(row) - nearby)
                assert x <= k - 2, (graph, i)
                reached[k] += x == k - 2
                last[k] += i == len(graph.rows) - 1
    # the bound is met at every k, and full last layers occur
    assert all(reached[k] and last[k] for k in range(3, 7))


def test_verify_packing_trivial_cases():
    g = counterexample_graph(1, 4, 1)
    zero = {(i, c): Fraction(0) for i, c, _ in clumps(g)}
    report = verify_packing(g, zero)
    assert report.feasible and report.objective == 0
    ones = {(i, c): Fraction(1) for i, c, _ in clumps(g)}
    assert not verify_packing(g, ones).feasible


def test_verify_packing_rejects_bad_weights():
    g = counterexample_graph(1, 4, 1)
    with pytest.raises(ValueError):
        verify_packing(g, {})
    bad = {(i, c): Fraction(0) for i, c, _ in clumps(g)}
    bad[(0, 0)] = Fraction(-1)
    with pytest.raises(ValueError):
        verify_packing(g, bad)


def test_weak_duality():
    # delta * (total dual weight) never exceeds the total primal weight
    g = counterexample_graph(1, 4, 1)
    delta = min_weighted_degree(g)
    cert = dual_certificate(g)
    assert all(weighted_degree(g, i, c) >= delta for i, c, _ in clumps(g))
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
    broken = replace(cert, feasible=False)
    with pytest.raises(ValueError):
        bound_from_certificate(broken, 15, 4)


def _over_one_scale(cert, *totals):
    """cert with the given Fraction layer totals, as integers over the
    least scale that is a multiple of cert's and holds all of them."""
    scale = lcm(cert.scale, *(t.denominator for t in totals))
    return replace(cert, scale=scale, totals=[int(t * scale) for t in totals])


@pytest.mark.parametrize("k", [3, 4, 7])
def test_bound_requires_every_layer_total_at_u_tilde(k):
    # the totals are compared with u_tilde by cross-multiplying; equal
    # totals over any scale pass, and one a hair short fails
    cert = dual_certificate(WeightedClumpGraph(k, [[(0, 1)], [(1, 1)]]))
    u = Fraction(k - 1, 3 * k - 4)
    assert cert.u_tilde == u
    scaled = replace(cert, scale=6 * cert.scale, totals=[6 * t for t in cert.totals])
    for ok in (cert, scaled, _over_one_scale(cert, u, u, u + 1)):
        assert bound_from_certificate(ok, 10, 2) == 1 / u * 5 + 1
    for short in (u - Fraction(1, 10**12), Fraction(u.numerator - 1, u.denominator), Fraction(0)):
        broken = _over_one_scale(cert, u, short, u)
        with pytest.raises(ValueError, match="^some layer total falls short of u_tilde$"):
            bound_from_certificate(broken, 10, 2)


def _fraction_verify_packing(graph, u):
    """verify_packing as a Fraction sum over each clump's neighbors:
    (feasible, objective, worst slack)."""
    keys = [(i, c) for i, c, _ in clumps(graph)]
    for key in keys:
        if key not in u:
            raise ValueError(f"no dual weight for clump {key}")
    unknown = u.keys() - set(keys)
    if unknown:
        raise ValueError(f"dual weight for clump {min(unknown)}, which is not in the graph")
    for key, value in u.items():
        if value < 0:
            raise ValueError(f"negative dual weight at {key}")
    slack = [1 - sum(u[(j, d)] for j, d, _ in neighbors(graph, i, c)) for i, c in keys]
    return min(slack) >= 0, sum(u.values(), Fraction(0)), min(slack)


def _report(graph, u):
    report = verify_packing(graph, u)
    return report.feasible, report.objective, report.worst_slack


def test_verify_packing_matches_fraction_oracle():
    rng = random.Random(20261018)
    tight = over = 0
    for trial in range(300):
        k = 3 + trial % 3
        graph = random_layered_graph(rng, k=k, max_depth=10, max_weight=4)
        u = {
            (i, c): Fraction(rng.choice([0, 0, 1, 2, 3, 5, 7]), rng.choice([1, 2, 3, 4, 6, 9, 10, 12]))
            for i, c, _ in clumps(graph)
        }
        assert _report(graph, u) == _fraction_verify_packing(graph, u)
        top = 1 - _fraction_verify_packing(graph, u)[2]
        if top == 0:
            continue
        # rescaled so the largest neighbor sum is exactly 1: worst slack 0
        u = {key: value / top for key, value in u.items()}
        assert _report(graph, u) == _fraction_verify_packing(graph, u)
        assert _report(graph, u)[0] and _report(graph, u)[2] == 0
        tight += 1
        # one more 1/lcm on a neighbor of a clump at sum 1: worst slack -1/lcm
        scale = lcm(*(value.denominator for value in u.values()))
        for i, c, _ in clumps(graph):
            nbrs = [(j, d) for j, d, _ in neighbors(graph, i, c)]
            if nbrs and sum(u[key] for key in nbrs) == 1:
                u[nbrs[0]] += Fraction(1, scale)
                break
        assert _report(graph, u) == _fraction_verify_packing(graph, u)
        if lcm(*(value.denominator for value in u.values())) == scale:
            assert _report(graph, u) == (False, sum(u.values()), Fraction(-1, scale))
            over += 1
    assert tight >= 200 and over >= 200


@pytest.mark.parametrize("edit, message", [
    ({(0, 0): None, (1, 1): Fraction(-1)}, r"no dual weight for clump \(0, 0\)"),
    ({(99, 0): Fraction(1), (1, 1): Fraction(-1)},
     r"dual weight for clump \(99, 0\), which is not in the graph"),
    ({(1, 2): Fraction(-1, 3), (1, 1): Fraction(-1)}, r"negative dual weight at \(1, 1\)"),
])
def test_verify_packing_bad_weight_messages(edit, message):
    g = counterexample_graph(1, 4, 1)
    u = {(i, c): Fraction(1, 7) for i, c, _ in clumps(g)}
    for key, value in edit.items():
        if value is None:
            del u[key]
        else:
            u[key] = value
    for check in (verify_packing, _fraction_verify_packing):
        with pytest.raises(ValueError, match=f"^{message}$"):
            check(g, u)


def _fraction_dual_certificate(graph):
    """dual_certificate's weights built in Fractions, clump by clump:
    (u, layer_totals, u_tilde, feasible)."""
    k = graph.k
    u = {}
    totals = []
    for i, row in enumerate(graph.rows):
        if len(row) < k:
            w = Fraction(k - 1, (3 * k - 4) * len(row))
            for c in row:
                u[(i, c)] = w
        else:
            nearby = graph.colors_of_layer(i - 1) | graph.colors_of_layer(i + 1)
            x_colors = {c for c in row if c not in nearby}
            heavy = Fraction(1, 3 * k - 4)
            light = heavy - Fraction(1, (3 * k - 4) * (k - len(x_colors)))
            for c in row:
                u[(i, c)] = heavy if c in x_colors else light
        totals.append(sum(u[(i, c)] for c in row))
    feasible = _fraction_verify_packing(graph, u)[0]
    return u, totals, Fraction(k - 1, 3 * k - 4), feasible


def test_dual_certificate_matches_fraction_oracle():
    rng = random.Random(20261019)
    full_layers = Counter()
    for trial in range(360):
        k = 3 + trial % 3
        graph, delta = canonical_pair(random_layered_graph(rng, k=k, max_depth=16))
        cert = dual_certificate(graph)
        u, totals, u_tilde, feasible = _fraction_dual_certificate(graph)
        # the Fraction views, read twice, and the integers behind them
        assert list(cert.u.items()) == list(u.items()) == list(cert.u.items())
        assert [Fraction(t, cert.scale) for t in cert.totals] == totals
        assert [sum(row.values()) for row in cert.rows] == cert.totals
        assert (cert.u_tilde, cert.feasible) == (u_tilde, feasible)
        assert cert.feasible == verify_packing(graph, cert.u).feasible
        assert cert.objective == sum(u.values()) == verify_packing(graph, cert.u).objective
        assert min(totals) >= u_tilde
        if delta == 0:  # a lone root
            with pytest.raises(ValueError, match="^delta=0 must be positive$"):
                bound_from_certificate(cert, graph.total_weight, delta)
        else:
            bound = 1 / u_tilde * Fraction(graph.total_weight, delta) + 1
            assert bound_from_certificate(cert, graph.total_weight, delta) == bound
        for i, row in enumerate(graph.rows):
            if len(row) == k:
                heavy = max(u[(i, c)] for c in row)
                full_layers[(k, heavy == Fraction(1, 3 * k - 4))] += 1
    # full layers with and without a dominating clump, at every k
    assert all(full_layers[(k, x)] >= 5 for k in (3, 4, 5) for x in (False, True))
