"""Packing certificates: nonnegative dual weights on clumps whose
neighborhood sums stay at most 1.  Scaled by the degree bound, their
total lower-bounds the order of any blow-up, which converts a per-layer
weight guarantee into a diameter upper bound.  dual_certificate's
uniform weights are feasible on every rooted clump graph, canonical or
not (its docstring has the proof), so this module reads only core.

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
    """The uniform-by-layer dual weights of a rooted graph, any k >= 2.

    Layers of fewer than k clumps share (k-1)/(3k-4) evenly.  A layer of
    k clumps splits: clumps whose color misses both neighbor layers (the
    set X; they see everything next door) get 1/(3k-4) and the rest get
    1/(3k-4) - 1/((3k-4)(k-|X|)), keeping the layer total at
    (k-1)/(3k-4) = u_tilde.

    These weights are feasible on every rooted graph; canonical form is
    not needed.  Count in units of 1/(3k-4).  A short layer of m < k
    clumps gives each (k-1)/m >= 1.  A full layer is never layer 0, and
    the layer above it holds two clumps or more, as a single's color is
    absent from the layer after it; their colors are not in X, so
    |X| <= k-2, and the layer gives 1 to each clump of X and
    1 - 1/(k-|X|) > 0 to the others.  Every layer totals k-1 units and
    an absent layer 0, so a clump (i, c) has neighbor sum at most 3k-3
    units less the weights of color c in layers i-1, i and i+1, and that
    is at most 3k-4 units, that is 1, when those weights reach one unit:
      - its own weight is >= 1 unless layer i is full and c is not in X;
      - then c also sits in a neighbor layer, whose clump of color c
        weighs >= 1 if that layer is short;
      - if it is full too, X is empty in both layers, and the two
        clumps weigh 2 - 2/k >= 1.
    The claim reads only the color sets, so it holds for every weighting.
    At k = 2 every layer is a single (the root is one, and a single's
    color is absent from the layer after it), so each clump weighs one
    unit, 1/2, and every neighbor sum is at most 1: u_tilde = 1/2 and
    the bound reads D <= 2n/delta + 1.
    dual_certificate still takes the largest neighbor sum, and
    bound_from_certificate checks it and every layer total exactly.

    Exact in integers: every weight is a multiple of 1/S for
    S = (3k-4) L, with L the lcm of the denominators that occur (the
    clump count of each short layer and k-|X| of each full one), so the
    scale stays small however large k is.
    """
    k = graph.k
    # per layer: the denominator its weights need, and X for a full layer
    layers = graph.rows
    shapes: list[tuple[int, set[int] | None]] = []
    for i, row in enumerate(layers):
        if len(row) < k:
            shapes.append((len(row), None))
            continue
        # |X| <= k-2, so d >= 2 and the light weight is positive: a full
        # layer is never layer 0, and the layer above it holds two clumps
        # or more, as a single's color is absent from the layer after it
        x_colors = row.keys() - layers[i - 1].keys()
        if i + 1 < len(layers):
            x_colors -= layers[i + 1].keys()
        shapes.append((k - len(x_colors), x_colors))
    unit = lcm(*{d for d, _ in shapes})  # the weight 1/(3k-4), scaled
    scale = (3 * k - 4) * unit
    rows: list[dict[int, int]] = []
    for row, (d, x_colors) in zip(layers, shapes):
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
