"""Packing certificates: nonnegative dual weights on clumps whose
neighborhood sums stay at most 1.  Scaled by the degree bound, their
total lower-bounds the order of any blow-up, which converts a per-layer
weight guarantee into a diameter upper bound.

A clump's neighborhood sum needs no walk over its neighbors:

    sum over neighbors of (i, c) = T(i-1) + T(i) + T(i+1)
                                   - u(i-1, c) - u(i, c) - u(i+1, c),

with T(j) the total of layer j and absent clumps and layers counting 0
(core.neighbor_sum_range proves it from the saturation rule).

Both functions work in integers over one scale S and take the largest
neighbor sum with that kernel, the one that also gives core's weighted
degrees: the weights are feasible when it does not exceed S.
verify_packing takes S as the lcm of the given denominators;
dual_certificate builds and keeps its weights as integers over S.
Fraction appears only in the weights going in and the results coming
out, which a certificate builds when they are read.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .canonical import check_canonical
from .core import WeightedClumpGraph, neighbor_sum_range

ClumpKey = tuple[int, int]  # (layer, color)


@dataclass
class PackingReport:
    feasible: bool
    objective: Fraction
    worst_slack: Fraction  # 1 - the largest neighbor sum


@dataclass
class DualCertificate:
    scale: int
    rows: list[dict[int, int]]  # per layer, color -> weight times scale
    totals: list[int]  # the total of each row
    u_tilde: Fraction
    feasible: bool

    @property
    def u(self) -> dict[ClumpKey, Fraction]:
        """Each clump's weight, built on read: one Fraction per distinct value."""
        values = set().union(*map(dict.values, self.rows))
        as_fraction = {w: Fraction(w, self.scale) for w in values}
        return {(i, c): as_fraction[w] for i, row in enumerate(self.rows) for c, w in row.items()}

    @property
    def objective(self) -> Fraction:
        """The total of u."""
        return Fraction(sum(self.totals), self.scale)


def _packing_verdict(rows: list[dict[int, int]], scale: int) -> tuple[bool, int]:
    """(feasible, largest neighbor sum) for weights given as integers
    over scale: rows[i] maps the colors of layer i to their scaled
    weights.  Feasible when no clump's neighbor sum exceeds scale."""
    worst = neighbor_sum_range(rows)[1]
    return worst <= scale, worst


def dual_certificate(graph: WeightedClumpGraph) -> DualCertificate:
    """The uniform-by-layer dual weights for a canonical graph.

    Layers of fewer than k clumps share (k-1)/(3k-4) evenly.  A layer of
    k clumps splits: clumps whose color misses both neighbor layers (the
    set X; they see everything next door) get 1/(3k-4) and the rest get
    1/(3k-4) - 1/((3k-4)(k-|X|)), keeping the layer total at
    (k-1)/(3k-4).

    Exact in integers: every weight is a multiple of 1/S for
    S = (3k-4) L, with L the lcm of the denominators that occur (the
    clump count of each short layer and k-|X| of each full one), so the
    scale stays small however large k is.
    """
    k = graph.k
    if k < 3:
        raise ValueError(f"k={k} must be at least 3")
    report = check_canonical(graph)
    if not report.passes:
        n = len(report.violations)
        i, prop = report.violations[0]
        where = f"layer {i}" if prop == "iv" else f"layer pair ({i}, {i + 1})"
        raise ValueError(
            f"graph is not canonical: {n} violation{'s' * (n > 1)}, the first "
            f"of property ({prop}) at {where}"
        )
    # per layer: the denominator its weights need, and X for a full layer
    shapes: list[tuple[int, frozenset[int] | None]] = []
    for i, row in enumerate(graph.rows):
        if len(row) < k:
            shapes.append((len(row), None))
            continue
        # |X| <= k-2: a full layer is never layer 0, and (iii) puts two
        # clumps after it or, when it is last, (i) puts two before it
        nearby = graph.colors_of_layer(i - 1) | graph.colors_of_layer(i + 1)
        x_colors = graph.colors_of_layer(i) - nearby
        shapes.append((k - len(x_colors), x_colors))
    unit = lcm(*{d for d, _ in shapes})  # the weight 1/(3k-4), scaled
    scale = (3 * k - 4) * unit
    rows: list[dict[int, int]] = []
    for row, (d, x_colors) in zip(graph.rows, shapes):
        if x_colors is None:
            rows.append(dict.fromkeys(row, (k - 1) * (unit // d)))
        else:
            light = unit - unit // d
            rows.append({c: unit if c in x_colors else light for c in row})
    feasible, _ = _packing_verdict(rows, scale)
    return DualCertificate(
        scale=scale,
        rows=rows,
        totals=[sum(row.values()) for row in rows],
        u_tilde=Fraction(k - 1, 3 * k - 4),
        feasible=feasible,
    )


def verify_packing(graph: WeightedClumpGraph, u: dict[ClumpKey, Fraction]) -> PackingReport:
    """Check the packing constraint: each clump's neighbor weights sum to
    at most 1.  Exact: the weights are scaled to integers over the lcm
    of their denominators and summed by core.neighbor_sum_range."""
    keys = [(i, c) for i, row in enumerate(graph.rows) for c in row]
    for key in keys:
        if key not in u:
            raise ValueError(f"no dual weight for clump {key}")
    unknown = u.keys() - set(keys)
    if unknown:
        raise ValueError(f"dual weight for clump {min(unknown)}, which is not in the graph")
    scale = lcm(*{value.denominator for value in u.values()})
    scaled = {key: value.numerator * (scale // value.denominator) for key, value in u.items()}
    for key, value in scaled.items():  # scale > 0 keeps each sign
        if value < 0:
            raise ValueError(f"negative dual weight at {key}")
    rows = [{c: scaled[(i, c)] for c in row} for i, row in enumerate(graph.rows)]
    feasible, worst = _packing_verdict(rows, scale)
    return PackingReport(
        feasible=feasible,
        objective=Fraction(sum(scaled.values()), scale),
        worst_slack=Fraction(scale - worst, scale),
    )


def bound_from_certificate(cert: DualCertificate, n: int, delta: int) -> Fraction:
    """Diameter bound (1/u_tilde)(n/delta) + 1 implied by a feasible
    certificate whose every layer total reaches u_tilde.  The least
    total is compared with u_tilde in integers, cross-multiplied over
    the certificate's scale and u_tilde's denominator, both positive.

    The bound holds only when delta is at most the minimum weighted
    degree of the certified graph of order n: the certificate is read
    against a blow-up in which every vertex has degree >= delta.  The
    certificate does not know the graph, so the caller checks this."""
    if delta < 1:
        raise ValueError(f"delta={delta} must be positive")
    if not cert.feasible:
        raise ValueError("certificate is infeasible")
    p, q = cert.u_tilde.numerator, cert.u_tilde.denominator
    if q * min(cert.totals) < p * cert.scale:
        raise ValueError("some layer total falls short of u_tilde")
    return Fraction(1, 1) / cert.u_tilde * Fraction(n, delta) + 1
