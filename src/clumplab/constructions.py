"""Generators for the lower-bound constructions: the classic tight
families for K_{2r}- and K_{2r+1}-free graphs, the periodic
counterexample family, and the coefficient-gap rational identity."""

from __future__ import annotations

from fractions import Fraction
from math import ceil

from .core import WeightedClumpGraph


def _greedy_colors(clump_counts: list[int], k: int) -> list[tuple[int, ...]]:
    """Assign the smallest available colors layer by layer, avoiding all
    colors used in the previous layer; each layer's scan stops at its
    count-th free color.  The choice depends only on the previous
    layer's colors and the count, so each such state is scanned once per
    call: a periodic construction's later blocks reuse the first one's."""
    out: list[tuple[int, ...]] = []
    chosen_for: dict[tuple[tuple[int, ...], int], tuple[int, ...]] = {}
    prev: tuple[int, ...] = ()
    for count in clump_counts:
        chosen = chosen_for.get((prev, count))
        if chosen is None:
            taken = set(prev)
            scan: list[int] = []
            for c in range(k):
                if c not in taken:
                    scan.append(c)
                    if len(scan) == count:
                        break
            if len(scan) < count:
                raise ValueError(
                    f"cannot color {count} clumps with {k} colors "
                    f"next to a layer using {sorted(prev)}"
                )
            chosen = chosen_for[prev, count] = tuple(scan)
        out.append(chosen)
        prev = chosen
    return out


def _assemble(k: int, weight_lists: list[list[int]]) -> WeightedClumpGraph:
    colors = _greedy_colors([len(w) for w in weight_lists], k)
    return WeightedClumpGraph(k, [zip(c, w) for c, w in zip(colors, weight_lists)])


# -- periodic counterexample family -------------------------------------


def _block_weight_lists(s: int, delta: int) -> list[list[int]]:
    """Weight multisets of the 6s+1 layers of one block, heavy clumps first."""
    if s < 1:
        raise ValueError(f"s={s} must be at least 1")
    if delta < 2 * s:
        raise ValueError(f"delta={delta} must be at least 2s={2 * s}")
    d = delta % (2 * s)
    lo = delta // (2 * s)
    hi = lo + 1

    def mixed(count: int, heavy: int) -> list[int]:
        return [hi] * heavy + [lo] * (count - heavy)

    layers: list[list[int]] = [[] for _ in range(3 * s + 2)]
    for i in range(0, s + 1):
        layers[3 * i] = [1]
    for i in range(0, s):  # rule for layers 1, 4, ..., 3s-2
        count = 2 * s - i
        if d == 0:
            weights = [lo] * count
            if i == 0:
                weights[-1] = lo - 1  # the per-block reduction in L_1
                if weights[-1] == 0:
                    weights.pop()  # delta = 2s: the reduced clump vanishes
        else:
            weights = mixed(count, min(count, d - 1))
        layers[3 * i + 1] = weights
    for i in range(0, s - 1):  # layers 2, 5, ..., 3s-4
        count = i + 1
        heavy = 0 if d == 0 else d - min(2 * s - i - 1, d - 1)
        layers[3 * i + 2] = mixed(count, heavy)
    layers[3 * s - 1] = mixed(s, d // 2)
    layers[3 * s + 1] = mixed(s, ceil(d / 2))
    # mirror the right half of the block
    full = layers + [list(layers[6 * s - m]) for m in range(3 * s + 2, 6 * s + 1)]
    return full


def counterexample_block(s: int, delta: int) -> WeightedClumpGraph:
    """One symmetric block of the counterexample family: 6s+1 layers,
    (2s+1)-colored greedily, weights near delta/(2s) off the spine."""
    return _assemble(2 * s + 1, _block_weight_lists(s, delta))


def counterexample_graph(s: int, delta: int, p: int) -> WeightedClumpGraph:
    """Juxtaposition of p blocks, plus one extra unit of weight on the
    first clump of the second layer and of the next-to-last layer."""
    if p < 1:
        raise ValueError(f"p={p} must be at least 1")
    block = _block_weight_lists(s, delta)
    weight_lists = [list(layer) for _ in range(p) for layer in block]
    weight_lists[1][0] += 1
    weight_lists[-2][0] += 1
    return _assemble(2 * s + 1, weight_lists)


def counterexample_order(s: int, delta: int, p: int) -> int:
    """Closed-form order p((2s+1)delta + 2s - 1) + 2 of the family."""
    return p * ((2 * s + 1) * delta + 2 * s - 1) + 2


# -- tight families for K_{2r+1}- and K_{2r}-free graphs ----------------


def eppt_odd(r: int, delta: int, diam: int) -> WeightedClumpGraph:
    """The 2r-colorable tight family: r clumps per layer, interior weight
    delta/(3r-1), boundary layers of weight delta per clump.

    For r = 1 the next-to-last layer also gets weight delta; without that
    boundary fix the last layer's degree would fall below delta.
    """
    if delta < 1:
        raise ValueError(f"delta={delta} must be positive")
    if r < 1:
        raise ValueError(f"r={r} must be at least 1")
    if delta % (3 * r - 1) != 0:
        raise ValueError(f"delta={delta} must be a multiple of 3r-1={3 * r - 1}")
    if diam < 2:
        raise ValueError(f"diam={diam} must be at least 2")
    interior = delta // (3 * r - 1)
    weight_lists = [[1]]
    for i in range(1, diam + 1):
        if i in (1, diam) or (r == 1 and i == diam - 1):
            weight_lists.append([delta] * r)
        else:
            weight_lists.append([interior] * r)
    # alternate two disjoint color groups of size r
    layers = []
    for i, weights in enumerate(weight_lists):
        base = 0 if i % 2 == 0 else r
        layers.append([(base + j, w) for j, w in enumerate(weights)])
    return WeightedClumpGraph(2 * r, layers)


def eppt_even(r: int, delta: int, diam: int) -> WeightedClumpGraph:
    """The (2r-1)-colorable family (Erdos-Pach-Pollack-Tuza): r clumps in
    odd layers, r-1 in even ones.  Interior clumps weigh
    (r+1)delta/((r-1)(3r+2)) in even layers and r*delta/((r-1)(3r+2)) in
    odd ones, the two weights that give every interior clump weighted
    degree exactly delta.  Two more layers add (2r^2-1)delta/((r-1)(3r+2))
    vertices, so the diameter grows by the conjectured coefficient
    2(r-1)(3r+2)/(2r^2-1) per n/delta.
    """
    if delta < 1:
        raise ValueError(f"delta={delta} must be positive")
    if r < 2:
        raise ValueError(f"r={r} must be at least 2")
    divisor = (r - 1) * (3 * r + 2)
    if delta % divisor != 0:
        raise ValueError(f"delta={delta} must be a multiple of (r-1)(3r+2)={divisor}")
    if diam < 2:
        raise ValueError(f"diam={diam} must be at least 2")
    unit = delta // divisor
    layers = [[(r, 1)]]
    for i in range(1, diam + 1):
        count, weight = (r, r * unit) if i % 2 == 1 else (r - 1, (r + 1) * unit)
        # both last layers carry weight delta; the thin final layer alone
        # cannot give its neighbors enough degree
        if i in (1, diam - 1, diam):
            weight = delta
        base = 0 if i % 2 == 1 else r
        layers.append([(base + j, weight) for j in range(count)])
    return WeightedClumpGraph(2 * r - 1, layers)


# -- the coefficient-gap identity ---------------------------------------


def coefficient_threshold(r: int) -> int:
    """12r^3 - 22r^2 - 2r + 12, i.e. 2(r-1)(3r+2)(2r-3)."""
    return 2 * (r - 1) * (3 * r + 2) * (2 * r - 3)


def coefficient_gap(r: int, delta: int) -> Fraction:
    """Difference between the family's achieved diameter coefficient and
    the conjectured one; positive exactly when the conjecture fails.

    Computed in the factored form (delta - T) / (((2r-1)delta + 2r-3) *
    (2r^2 - 1)) with T the threshold; the tests confirm it equals the
    difference of the two raw fractions.
    """
    if r < 2:
        raise ValueError(f"r={r} must be at least 2")
    if delta < 1:
        raise ValueError(f"delta={delta} must be positive")
    return Fraction(
        delta - coefficient_threshold(r),
        ((2 * r - 1) * delta + 2 * r - 3) * (2 * r * r - 1),
    )

