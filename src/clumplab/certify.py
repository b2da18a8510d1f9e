"""Packing certificates: nonnegative dual weights on clumps whose
neighborhood sums stay at most 1.  Scaled by the degree bound, their
total lower-bounds the order of any blow-up, which converts a per-layer
weight guarantee into a diameter upper bound.

A clump's neighborhood sum needs no walk over its neighbors:

    sum over neighbors of (i, c) = T(i-1) + T(i) + T(i+1)
                                   - u(i-1, c) - u(i, c) - u(i+1, c),

with T(j) the total of layer j and absent clumps and layers counting 0
(core.neighbor_sums proves it from the saturation rule).
verify_packing scales u to integers over the lcm of its denominators
and evaluates this for every clump at once with that kernel, the one
that also gives core's weighted degrees.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .canonical import check_canonical
from .core import WeightedClumpGraph, neighbor_sums

ClumpKey = tuple[int, int]  # (layer, color)


@dataclass
class PackingReport:
    feasible: bool
    objective: Fraction
    worst_slack: Fraction  # 1 - the largest neighbor sum


@dataclass
class DualCertificate:
    u: dict[ClumpKey, Fraction]
    layer_totals: list[Fraction]
    u_tilde: Fraction
    feasible: bool

    @property
    def objective(self) -> Fraction:
        return sum(self.u.values(), Fraction(0))


def dual_certificate(graph: WeightedClumpGraph) -> DualCertificate:
    """The uniform-by-layer dual weights for a canonical graph.

    Layers of fewer than k clumps share (k-1)/(3k-4) evenly.  A layer of
    k clumps splits: clumps whose color misses both neighbor layers (so
    they see everything next door) get 1/(3k-4) and the rest get
    correspondingly less, keeping the layer total at (k-1)/(3k-4).
    """
    k = graph.k
    if k < 3:
        raise ValueError(f"k={k} must be at least 3")
    report = check_canonical(graph)
    if not report.passes:
        raise ValueError(f"graph is not canonical: {report.violations}")
    layer_total = Fraction(k - 1, 3 * k - 4)
    u: dict[ClumpKey, Fraction] = {}
    totals: list[Fraction] = []
    for i, layer in enumerate(graph.layers):
        if len(layer) < k:
            w = Fraction(k - 1, (3 * k - 4) * len(layer))
            for c in layer:
                u[(i, c.color)] = w
        else:
            nearby = graph.colors_of_layer(i - 1) | graph.colors_of_layer(i + 1)
            x_set = [c for c in layer if c.color not in nearby]
            if len(x_set) > k - 2:
                raise ValueError(
                    f"layer {i}: {len(x_set)} clumps dominate both neighbor "
                    f"layers; canonical graphs allow at most {k - 2}"
                )
            heavy = Fraction(1, 3 * k - 4)
            light = heavy - Fraction(1, (3 * k - 4) * (k - len(x_set)))
            x_colors = {c.color for c in x_set}
            for c in layer:
                u[(i, c.color)] = heavy if c.color in x_colors else light
        totals.append(sum(u[(i, c.color)] for c in layer))
    feasible = verify_packing(graph, u).feasible
    return DualCertificate(u=u, layer_totals=totals, u_tilde=layer_total, feasible=feasible)


def verify_packing(graph: WeightedClumpGraph, u: dict[ClumpKey, Fraction]) -> PackingReport:
    """Check the packing constraint: each clump's neighbor weights sum to
    at most 1.  Exact: the weights are scaled to integers over the lcm
    of their denominators and summed by core.neighbor_sums."""
    for c in graph.clumps():
        if (c.layer, c.color) not in u:
            raise ValueError(f"no dual weight for clump {(c.layer, c.color)}")
    unknown = u.keys() - {(c.layer, c.color) for c in graph.clumps()}
    if unknown:
        raise ValueError(f"dual weight for clump {min(unknown)}, which is not in the graph")
    scale = lcm(*{value.denominator for value in u.values()})
    scaled = {key: value.numerator * (scale // value.denominator) for key, value in u.items()}
    for key, value in scaled.items():  # scale > 0 keeps each sign
        if value < 0:
            raise ValueError(f"negative dual weight at {key}")
    rows = [{c.color: scaled[(c.layer, c.color)] for c in layer} for layer in graph.layers]
    worst = max(max(row.values()) for row in neighbor_sums(rows))
    return PackingReport(
        feasible=worst <= scale,
        objective=Fraction(sum(scaled.values()), scale),
        worst_slack=Fraction(scale - worst, scale),
    )


def bound_from_certificate(cert: DualCertificate, n: int, delta: int) -> Fraction:
    """Diameter bound (1/u_tilde)(n/delta) + 1 implied by a feasible
    certificate whose every layer total reaches u_tilde."""
    if delta < 1:
        raise ValueError(f"delta={delta} must be positive")
    if not cert.feasible:
        raise ValueError("certificate is infeasible")
    if any(t < cert.u_tilde for t in cert.layer_totals):
        raise ValueError("some layer total falls short of u_tilde")
    return Fraction(1, 1) / cert.u_tilde * Fraction(n, delta) + 1
