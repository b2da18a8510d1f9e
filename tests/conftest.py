import random
from fractions import Fraction

import pytest

from clumplab.canonical import canonicalize
from clumplab.constructions import counterexample_graph, eppt_odd
from clumplab.core import WeightedClumpGraph, min_weighted_degree
from clumplab.lp import RationalLP


def random_layers(rng: random.Random, k: int = 3, max_depth: int = 12,
                  max_weight: int = 6) -> list[list[tuple[int, int]]]:
    """The (color, weight) pairs of each layer of a random k-colorable
    layered weighted graph (not canonical), grown from a weight-1 root."""

    def next_layer(prev: set[int]) -> list[tuple[int, int]]:
        while True:
            cols = [c for c in range(k) if rng.random() < 0.55]
            if len(prev) == 1:
                cols = [c for c in cols if c not in prev]
            if cols:
                return [(c, rng.randint(1, max_weight)) for c in cols]

    depth = rng.randint(0, max_depth)
    layers = [[(rng.randrange(k), 1)]]
    for _ in range(depth):
        layers.append(next_layer({c for c, _ in layers[-1]}))
    return layers


def clumps(graph: WeightedClumpGraph) -> list[tuple[int, int, int]]:
    """(layer, color, weight) of every clump, layer-major, then by color."""
    return [(i, c, w) for i, row in enumerate(graph.rows) for c, w in row.items()]


def neighbors(graph: WeightedClumpGraph, layer: int, color: int) -> list[tuple[int, int, int]]:
    """(layer, color, weight) of each clump adjacent to clump (layer, color)
    under the saturation rule: every clump of layers layer-1..layer+1
    with another color.  A reference walk over graph.rows, independent
    of the library's neighbor sums."""
    rows = graph.rows
    return [
        (j, c, w)
        for j in range(max(layer - 1, 0), min(layer + 2, len(rows)))
        for c, w in rows[j].items()
        if c != color
    ]


def random_layered_graph(rng: random.Random, k: int = 3, max_depth: int = 12,
                         max_weight: int = 6) -> WeightedClumpGraph:
    """The graph of random_layers(rng, k, max_depth, max_weight)."""
    return WeightedClumpGraph(k, random_layers(rng, k, max_depth, max_weight))


def conjectured_coefficient(r: int) -> Fraction:
    """EPPT's conjectured diameter coefficient 2(r-1)(3r+2)/(2r^2-1) for
    K_{2r}-free graphs."""
    return Fraction(2 * (r - 1) * (3 * r + 2), 2 * r * r - 1)


def coefficient_gap_direct(r: int, delta: int) -> Fraction:
    """constructions.coefficient_gap as the literal difference of the
    achieved and the conjectured coefficient."""
    achieved = Fraction((6 * r - 5) * delta, (2 * r - 1) * delta + 2 * r - 3)
    return achieved - conjectured_coefficient(r)


def tight_rows(lp: RationalLP, x: list[Fraction]) -> list[int]:
    """Indices of the rows of lp that x meets with equality."""
    return [
        i
        for i, (coeffs, rhs) in enumerate(lp.rows)
        if sum(a * v for a, v in zip(coeffs, x)) == rhs
    ]


def module_state(module) -> dict:
    """module's names, each with the len of a dict, list, set or tuple
    value and None for any other value."""
    sized = (dict, list, set, tuple)
    return {name: len(v) if isinstance(v, sized) else None for name, v in vars(module).items()}


def canonical_pair(graph: WeightedClumpGraph) -> tuple[WeightedClumpGraph, int]:
    delta = min_weighted_degree(graph)
    result, _ = canonicalize(graph, delta)
    return result, delta


@pytest.fixture(scope="session")
def psi_graph() -> WeightedClumpGraph:
    """n = 8 with two singular triplets: at delta = 3, psi = 3/4 and the
    psi row 3 * psi <= 2 needs slack."""
    return WeightedClumpGraph(3, [[(0, 1)], [(1, 2), (2, 1)], [(0, 1), (1, 2)], [(2, 1)]])


@pytest.fixture(scope="session")
def corpus_k3() -> list[tuple[WeightedClumpGraph, int]]:
    """Canonical 3-colored graphs with their minimum degrees, all >= 1:
    the sieve is stated for delta >= 1 and rejects less, so a random
    draw of a lone clump (minimum degree 0) is left out."""
    out = []
    for delta in (2, 4, 5):
        for p in (1, 2):
            out.append(canonical_pair(counterexample_graph(1, delta, p)))
    rng = random.Random(20240817)
    for _ in range(40):
        out.append(canonical_pair(random_layered_graph(rng)))
    return [(graph, delta) for graph, delta in out if delta >= 1]


@pytest.fixture(scope="session")
def corpus_by_k() -> dict[int, list[tuple[WeightedClumpGraph, int]]]:
    """Canonical graphs keyed by color count, for the certificate checks."""
    k3 = [canonical_pair(counterexample_graph(1, d, p)) for d in (4, 5) for p in (1, 2)]
    k4 = [(eppt_odd(2, 5, d), 5) for d in (4, 6, 9)]
    k5 = [canonical_pair(counterexample_graph(2, d, p)) for d in (4, 7) for p in (1, 2)]
    return {3: k3, 4: k4, 5: k5}
