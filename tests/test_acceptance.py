"""End-to-end acceptance checks: constructions, canonicalization,
certificates, the sieve, the exact LP, and the brute-force search oracle,
each at its stated tolerance."""

import itertools
import random
import time
from fractions import Fraction

import networkx as nx

from clumplab.canonical import canonicalize, check_canonical
from clumplab.certify import bound_from_certificate, dual_certificate
from clumplab.constructions import (
    coefficient_gap,
    coefficient_threshold,
    counterexample_graph,
    counterexample_order,
    eppt_odd,
)
from clumplab.core import (
    WeightedClumpGraph,
    blow_up_diameter,
    layer_profile,
    min_weighted_degree,
    weighted_degree,
)
from clumplab.lp import build_epsz_lp, extremal_search, simplex_solve
from clumplab.sieve import check_aggregates, global_stats, window_inequalities

from conftest import clumps, coefficient_gap_direct, random_layered_graph, tight_rows


def test_1_counterexample_family():
    start = time.monotonic()
    for s in range(1, 6):
        for delta in range(2 * s, 2 * s + 9):
            for p in range(1, 5):
                g = counterexample_graph(s, delta, p)
                degrees = [weighted_degree(g, i, c) for i, c, _ in clumps(g)]
                assert min(degrees) >= delta
                assert g.total_weight == counterexample_order(s, delta, p)
                assert blow_up_diameter(g) == p * (6 * s + 1) - 1
    assert time.monotonic() - start < 10


def test_2_coefficient_threshold():
    start = time.monotonic()
    for r in range(2, 7):
        threshold = 2 * (r - 1) * (3 * r + 2) * (2 * r - 3)
        assert threshold == coefficient_threshold(r)
        for delta in range(1, 501):
            gap = coefficient_gap(r, delta)
            assert gap == coefficient_gap_direct(r, delta)
            assert (gap > 0) == (delta > threshold)
    assert time.monotonic() - start < 1


def test_3_eppt_odd_tightness_and_limit():
    # the boundary layers carry weight delta, so the finite ratio Dd/n sits
    # a constant/D short of (3r-1)/r; the coefficient is reproduced exactly
    # as the limit: each added layer trades delta diameter units for
    # r*delta/(3r-1) vertices
    for r, delta in ((1, 2), (2, 5), (3, 8)):
        target = Fraction(3 * r - 1, r)
        previous_gap = None
        orders = {}
        for diam in range(6, 61):
            g = eppt_odd(r, delta, diam)
            assert min_weighted_degree(g) == delta
            n = g.total_weight
            orders[diam] = n
            phi = Fraction(diam * delta, n)
            gap = target - phi
            assert 0 < gap
            if previous_gap is not None:
                assert gap < previous_gap  # monotone convergence
            previous_gap = gap
        for diam in range(6, 60):
            quotient = Fraction(delta, orders[diam + 1] - orders[diam])
            assert quotient == target
        # (3r-1) n - r D delta is a fixed boundary overhead, so the gap
        # target - phi = overhead / (r n) vanishes as D grows
        overheads = {
            (3 * r - 1) * orders[diam] - r * diam * delta for diam in orders
        }
        assert len(overheads) == 1
        assert previous_gap == Fraction(overheads.pop(), r * orders[60])


def test_4_canonicalization_randomized():
    rng = random.Random(20240818)
    for _ in range(500):
        g = random_layered_graph(rng)
        delta = min_weighted_degree(g)
        out, log = canonicalize(g, delta)
        assert out.total_weight == g.total_weight
        assert out.diameter_index == g.diameter_index
        assert min_weighted_degree(out) >= delta
        report = check_canonical(out)
        assert report.passes, report.violations


def test_5_duality_certificates(corpus_by_k):
    for k in (3, 4, 5):
        expected_total = Fraction(k - 1, 3 * k - 4)
        for graph, delta in corpus_by_k[k]:
            cert = dual_certificate(graph)
            assert cert.feasible
            assert all(Fraction(t, cert.scale) == expected_total for t in cert.totals)
            bound = bound_from_certificate(cert, graph.total_weight, delta)
            assert blow_up_diameter(graph) <= bound
            coefficient = Fraction(1) / cert.u_tilde
            assert coefficient == 3 - Fraction(1, k - 1)
            if k == 3:
                assert coefficient == Fraction(5, 2)


def test_6_global_lp():
    start = time.monotonic()
    lp = build_epsz_lp()
    sol = simplex_solve(lp)
    assert sol is not None
    assert sol.value == Fraction(57, 23)
    assert sum(a * b for a, b in zip(sol.y, (1, 2, 28, 7, 3))) == Fraction(57, 23)
    assert sol.x == [
        Fraction(57, 23),
        Fraction(0),
        Fraction(13, 23),
        Fraction(17, 23),
        Fraction(6, 23),
    ]
    for coeffs, rhs in lp.rows:
        assert sum(a * v for a, v in zip(coeffs, sol.x)) <= rhs
    assert tight_rows(lp, sol.x) == [0, 2, 3, 4]
    assert time.monotonic() - start < 0.1


def test_7_sieve_suite(corpus_k3):
    for delta in (2, 3, 4, 5, 6):
        for p in (1, 2, 3):
            prof = layer_profile(counterexample_graph(1, delta, p))
            report = window_inequalities(prof, delta, slack_c=12)
            assert report.passes, report
            assert all(check_aggregates(global_stats(prof, delta), 12).values())
    for graph, delta in corpus_k3:
        prof = layer_profile(graph)
        report = window_inequalities(prof, delta, slack_c=12)
        assert report.passes, report
        assert all(check_aggregates(global_stats(prof, delta), 12).values())
    limits = (
        Fraction(7, 13),
        Fraction(6, 13),
        Fraction(0),
        Fraction(8, 13),
        Fraction(28, 13),
    )
    for p in (1, 2, 4, 8, 16):
        stats = global_stats(layer_profile(counterexample_graph(1, 4, p)), 4)
        values = (stats.mu, stats.alpha1, stats.alpha2, stats.psi, stats.phi)
        for value, limit in zip(values, limits):
            assert abs(value - limit) <= Fraction(1, p)


def _no_single_chain(depth: int, w: int) -> "WeightedClumpGraph":
    """A canonical 3-colored graph whose interior layers are all doubles:
    consecutive layers share exactly one color."""
    pairs = [(1, 2), (2, 0), (0, 1)]
    layers = [[(0, 1)]]
    for i in range(1, depth + 1):
        a, b = pairs[(i - 1) % 3]
        weight = 4 * w if i in (1, depth) else w
        layers.append([(a, weight), (b, weight)])
    return WeightedClumpGraph(3, layers)


def test_8_no_interior_singles_bound(corpus_k3):
    candidates = [
        (g, d) for g, d in corpus_k3
        if all(len(row) > 1 for row in g.rows[1:-1])
    ]
    for depth in (10, 25, 40):
        g = _no_single_chain(depth, 2)
        delta = min_weighted_degree(g)
        assert check_canonical(g).passes
        candidates.append((g, delta))
    assert len(candidates) >= 3
    for g, delta in candidates:
        n = g.total_weight
        d_index = g.diameter_index
        assert Fraction(d_index * delta, n) <= Fraction(7, 3) + Fraction(12 * delta, n)


def _is_three_colorable(graph: nx.Graph) -> bool:
    nodes = list(graph.nodes)
    colors: dict = {}

    def assign(idx: int) -> bool:
        if idx == len(nodes):
            return True
        v = nodes[idx]
        for c in range(3):
            if all(colors.get(u) != c for u in graph.neighbors(v)):
                colors[v] = c
                if assign(idx + 1):
                    return True
                del colors[v]
        return False

    return assign(0)


def test_9_search_matches_brute_force_oracle():
    start = time.monotonic()
    # exhaustive oracle over all graphs on at most 7 vertices; every
    # optimum below is at most 6, so nothing larger can improve on it
    best: dict[int, int] = {}
    for graph in nx.graph_atlas_g():
        n = graph.number_of_nodes()
        if n < 2 or not nx.is_connected(graph):
            continue
        if min(dict(graph.degree).values()) < 2:
            continue
        if not _is_three_colorable(graph):
            continue
        diam = nx.diameter(graph)
        if diam in (1, 2, 3) and (diam not in best or n < best[diam]):
            best[diam] = n
    result = extremal_search(delta=2, d_max=3, n_budget=20)
    assert result.frontier == best == {1: 3, 2: 4, 3: 6}
    assert time.monotonic() - start < 120
