import random
import re
from fractions import Fraction

import pytest

from clumplab.constructions import (
    _greedy_colors,
    coefficient_gap,
    coefficient_threshold,
    counterexample_block,
    counterexample_graph,
    counterexample_order,
    eppt_even,
    eppt_odd,
)
from clumplab.core import (
    blow_up,
    blow_up_diameter,
    layer_profile,
    min_weighted_degree,
    weighted_degree,
)

from conftest import clumps, coefficient_gap_direct, conjectured_coefficient


def test_block_small_even_remainder():
    prof = layer_profile(counterexample_block(1, 4))
    assert prof.ell == (1, 3, 2, 1, 2, 3, 1)
    assert prof.n == 13  # (2s+1)*delta + 2s - 1


def test_block_small_odd_remainder():
    g = counterexample_block(1, 5)
    prof = layer_profile(g)
    assert sorted(g.rows[1].values()) == [2, 2]
    assert prof.n == 16


def test_block_weight_total_sweep():
    for s in (1, 2, 3):
        for delta in range(2 * s, 2 * s + 7):
            prof = layer_profile(counterexample_block(s, delta))
            assert prof.n == (2 * s + 1) * delta + 2 * s - 1


def test_block_second_layer_weights():
    # s=2, delta=7: remainder 3, so min(4, 2) = 2 clumps get the heavier
    # weight 2 and the remaining two get 1
    g = counterexample_block(2, 7)
    assert sorted(g.rows[1].values()) == [1, 1, 2, 2]
    graph = counterexample_graph(2, 7, 1)
    assert layer_profile(graph).ell[1] == 7


def test_block_mirror_symmetry_even_remainder():
    # for odd remainders the two layers flanking the middle spine vertex
    # split the heavy weights unevenly, so only even remainders mirror
    for s, delta in ((1, 4), (2, 6), (3, 8)):
        prof = layer_profile(counterexample_block(s, delta))
        assert prof.ell == prof.ell[::-1]


def test_block_mirror_copies_tail_layers():
    g = counterexample_block(2, 5)
    prof = layer_profile(g)
    for m in range(3 * 2 + 2, 6 * 2 + 1):
        assert prof.ell[m] == prof.ell[12 - m]


def test_graph_order_and_diameter():
    g = counterexample_graph(1, 4, 2)
    prof = layer_profile(g)
    assert prof.n == 28 == counterexample_order(1, 4, 2)
    assert prof.diameter_index == 13
    assert blow_up_diameter(g) == 13


def test_graph_minimum_degree_exact():
    for s, delta, p in ((1, 4, 1), (1, 5, 2), (2, 5, 1), (2, 7, 2)):
        g = counterexample_graph(s, delta, p)
        degrees = [weighted_degree(g, i, c) for i, c, _ in clumps(g)]
        assert min(degrees) == delta


def test_graph_proper_coloring():
    g = counterexample_graph(2, 6, 2)
    # the clump colors, copied to the blow-up, color it properly
    colors = [c for _, c, w in clumps(g) for _ in range(w)]
    assert all(colors[u] != colors[v] for u, v in blow_up(g).edges())


def test_greedy_colors_take_the_smallest_free_colors_at_k_11():
    assert _greedy_colors([1, 5, 5, 1, 10], 11) == [
        (0,), (1, 2, 3, 4, 5), (0, 6, 7, 8, 9), (1,), (0, 2, 3, 4, 5, 6, 7, 8, 9, 10),
    ]
    # s = 5: every layer of the 11-colored family holds the smallest colors
    # its predecessor leaves free
    g = counterexample_graph(5, 18, 2)
    assert g.k == 11
    prev: set[int] = set()
    for row in g.rows:
        assert list(row) == [c for c in range(11) if c not in prev][:len(row)]
        prev = set(row)
    with pytest.raises(ValueError, match=re.escape(
        "cannot color 10 clumps with 11 colors next to a layer using [1, 2]"
    )):
        _greedy_colors([1, 2, 10], 11)


def _greedy_scan(clump_counts, k):
    """Oracle: each layer takes the smallest colors its predecessor leaves
    free, scanned afresh per layer."""
    out, prev = [], set()
    for count in clump_counts:
        free = [c for c in range(k) if c not in prev]
        if count > len(free):
            raise ValueError(
                f"cannot color {count} clumps with {k} colors next to a layer using {sorted(prev)}"
            )
        out.append(tuple(free[:count]))
        prev = set(free[:count])
    return out


def test_greedy_colors_match_a_per_layer_scan():
    # a random block of counts repeated, as the periodic family repeats its
    # blocks, sometimes ending in a count no free colors can take
    rng = random.Random(34)
    raised = 0
    for k in range(3, 12):
        for _ in range(40):
            block = [rng.randint(1, k // 2) for _ in range(rng.randint(1, 8))]
            counts = [1] + block * rng.randint(1, 4)
            if rng.random() < 0.3:
                counts.append(rng.randint(k // 2 + 1, k))
            try:
                expected = _greedy_scan(counts, k)
            except ValueError as exc:
                with pytest.raises(ValueError, match=re.escape(str(exc))):
                    _greedy_colors(counts, k)
                raised += 1
                continue
            assert _greedy_colors(counts, k) == expected
    assert raised > 20


def test_degenerate_delta_drops_reduced_clump():
    # at delta = 2s the second-layer reduction would leave a weight-0
    # clump; it is dropped and the degree guarantee still holds
    g = counterexample_graph(5, 10, 1)
    assert len(g.rows[1]) == 9
    assert min_weighted_degree(g) >= 10


def test_eppt_odd_path_like():
    g = eppt_odd(1, 2, 5)
    assert [list(row.values()) for row in g.rows] == [
        [1], [2], [1], [1], [2], [2],
    ]
    assert min_weighted_degree(g) == 2


def test_eppt_odd_two_clumps():
    g = eppt_odd(2, 5, 6)
    assert min_weighted_degree(g) == 5
    interior = list(g.rows[3].values())
    assert interior == [1, 1]


def test_eppt_odd_divisibility_enforced():
    with pytest.raises(ValueError):
        eppt_odd(2, 4, 6)


def test_eppt_odd_ratio_increment():
    # consecutive diameters add exactly r * delta / (3r - 1) vertices, so
    # the ratio of diameter growth to order growth is (3r - 1) / r
    for r, delta in ((1, 2), (2, 5), (3, 8)):
        n1 = eppt_odd(r, delta, 20).total_weight
        n2 = eppt_odd(r, delta, 21).total_weight
        assert Fraction(delta, n2 - n1) == Fraction(3 * r - 1, r)


def test_eppt_even_literal_weights():
    # interior weights (r+1)delta/((r-1)(3r+2)) on even layers and
    # r*delta/((r-1)(3r+2)) on odd ones make the family degree-tight
    g = eppt_even(2, 8, 6)
    assert list(g.rows[2].values()) == [3]
    assert list(g.rows[3].values()) == [2, 2]
    assert min_weighted_degree(g) == 8
    g = eppt_even(3, 22, 40)
    assert list(g.rows[2].values()) == [4, 4]
    assert list(g.rows[3].values()) == [3, 3, 3]
    assert min_weighted_degree(g) == 22
    for r, delta, diam in ((2, 16, 7), (4, 42, 41)):
        assert min_weighted_degree(eppt_even(r, delta, diam)) == delta


def test_eppt_even_divisibility_enforced():
    # (r-1)(3r+2) = 22 divides (r+1)delta = 44 but not delta = 11
    with pytest.raises(ValueError, match="multiple of"):
        eppt_even(3, 11, 4)


def test_eppt_even_ratio_increment():
    # two more layers add (2r^2-1)delta/((r-1)(3r+2)) vertices, so the
    # diameter grows by the conjectured coefficient per n/delta
    for r, delta in ((2, 8), (3, 22), (4, 42)):
        n1 = eppt_even(r, delta, 20).total_weight
        n2 = eppt_even(r, delta, 22).total_weight
        assert Fraction(2 * delta, n2 - n1) == conjectured_coefficient(r)


def test_coefficient_gap_values():
    assert coefficient_gap(2, 16) == 0
    assert coefficient_gap(2, 17) == Fraction(1, 364)
    assert coefficient_gap(2, 8) < 0


def test_coefficient_gap_matches_direct_form():
    for r in range(2, 7):
        for delta in range(1, 80):
            assert coefficient_gap(r, delta) == coefficient_gap_direct(r, delta)


def test_coefficient_threshold_factored_form():
    for r in range(2, 10):
        assert coefficient_threshold(r) == 12 * r**3 - 22 * r**2 - 2 * r + 12


def test_parameter_validation():
    with pytest.raises(ValueError):
        counterexample_block(1, 1)
    with pytest.raises(ValueError):
        counterexample_graph(1, 4, 0)
    with pytest.raises(ValueError):
        coefficient_gap(1, 5)
    for build, args, message in (
        (eppt_odd, (0, 5, 4), "r=0 must be at least 1"),
        (eppt_odd, (2, 5, 1), "diam=1 must be at least 2"),
        (eppt_even, (1, 5, 4), "r=1 must be at least 2"),
        (eppt_even, (2, 8, 1), "diam=1 must be at least 2"),
        (coefficient_gap, (2, 0), "delta=0 must be positive"),
        # three clumps after a layer of color 0 leave two colors of three
        (_greedy_colors, ([1, 3], 3),
         "cannot color 3 clumps with 3 colors next to a layer using [0]"),
    ):
        with pytest.raises(ValueError, match=re.escape(message)):
            build(*args)
