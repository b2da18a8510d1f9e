"""Inclusion-exclusion ("sieve") inequalities on 3-colorable canonical
layer profiles, and the normalized global statistics they feed.

The one gate is the pair grammar: every consecutive pair of layer color
sets must have one of the seven shapes of a canonical 3-colored profile
(is_canonical_pair at k = 3), or ValueError names the pair and its
shape.  A profile of any palette that passes it has an isomorphic
3-coloring, so no palette check is needed: color the layers in order,
let a clump whose color the layer above shares keep its partner's new
color, and give every other clump a color the layer above lacks.  A
passing pair spans at most three colors, so enough are free, and the
map is one-to-one on each layer.  Adjacency reads only which colors of
a layer and its neighbor layers coincide, so the weights, the degrees,
the windows, the statistics and the verdict are those of the 3-colored
profile.

Each window inequality bounds a short run of consecutive layer weights
from below by a multiple of the minimum degree; which bound applies
depends on where the single-clump layers sit.  The per-window forms are
exact: the sides are integers over WINDOW_SCALE = 6 (the coefficients
3/2 and 4/3 need no finer unit), kept as two int columns on the report,
and each global statistic is one integer sum over n.  The verdict and
the passing count read the columns; a Window, which names a window and
shows its sides as Fractions, is built only when report.windows is
read.  Fraction appears only at the interface, in Window.lhs/rhs and
GlobalStats.

GLOBAL_PROGRAM holds the five normalized constraints on the global
statistics (phi, mu, psi, alpha1, alpha2); check_aggregates evaluates
them, each row allowed slack_c * delta / n for the boundary terms, and
`lp` maximizes phi over them.  window_inequalities returns the one
verdict: a profile passes when every window and every row passes.

Summing the windows over the whole profile gives two profile-wide
bounds, and neither needs a check of its own:

- pair-sum, 4n + slack_c * delta + (for each non-single layer i, ell(i)/3
  per non-single neighbor and ell(i)/2 per single neighbor) >= 2 D delta,
  follows from the two-layer windows when slack_c >= 0.  Their D rhs add
  up to 2 D delta.  Over those windows a layer is an outer term at most
  twice, with coefficient 1, and an inner term at most twice: a single
  with coefficient 1, so 4 in all, its pair-sum coefficient; a non-single
  with 3/2 next to a single and 4/3 otherwise, so at most
  2 + (4/3 or 3/2) + (4/3 or 3/2), never more than its pair-sum
  coefficient 4 + (1/3 or 1/2) + (1/3 or 1/2).  So pair-sum fails only
  when some two-layer window fails.
- triple-sum, 7n + slack_c * delta + E >= 3 D delta + s delta, where s is
  singular_triplet_count and E sums ell(i) over the non-single layers
  0 <= i <= D next to a single, follows from the `triple` row.  That row
  times n reads 3 D delta + s delta <= 7n + slack_c * delta
  + n (alpha1 + alpha2), and n (alpha1 + alpha2) sums ell(i) over the
  2-clump layers 1 <= i <= D-1 next to a single.  Property (i) and the
  (iii) pair rule keep every 3-clump layer away from the singles, so E is
  that sum plus the nonnegative terms of layers 0 and D.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import ge

from .canonical import is_canonical_pair
from .core import LayerProfile

DEFAULT_SLACK = 12

# The global program over (phi, mu, psi, alpha1, alpha2): each row is
# (name, coefficients, rhs) for coefficients . stats <= rhs.
GLOBAL_PROGRAM: tuple[tuple[str, tuple[int, ...], int], ...] = (
    ("mass", (0, 1, 0, 1, 1), 1),
    ("psi", (0, 0, 3, 0, 0), 2),
    ("pair", (12, 4, 0, -2, -1), 28),
    ("triple", (3, 0, 1, -1, -1), 7),
    ("partition", (1, 0, -3, 3, 0), 3),
)


WINDOW_SCALE = 6  # every window side is a multiple of 1/6: coefficients 3/2 and 4/3

# two-layer windows over layers i, i+1, by which of the two is single:
# the case and the coefficients of their weights in the lhs, in sixths
_TWO_LAYER = {
    (True, True): ("both-single", 6, 6),
    (True, False): ("first-single", 6, 9),
    (False, True): ("second-single", 9, 6),
    (False, False): ("no-single", 8, 8),
}
# three-layer windows at layer i, by which of layers i-1, i, i+1 are
# single: the rhs in sixths is d * delta - b * ell(i-1) - h * ell(i)
# - a * ell(i+1), as (d, b, h, a)
_THREE_LAYER_RHS = {
    (True, False, True): (48, 12, 24, 12),
    (True, False, False): (48, 12, 24, 12),
    (False, False, True): (48, 12, 24, 12),
    (True, True, True): (36, 0, 12, 0),
    (True, True, False): (36, 0, 12, 6),
    (False, True, True): (36, 6, 12, 0),
    # a middle single flanked by non-singles, or no singles at all
    (False, True, False): (36, 6, 12, 6),
    (False, False, False): (36, 6, 12, 6),
}


@dataclass(slots=True)
class Window:
    kind: str  # "one-layer", "two-layer", "three-layer"
    index: int
    case: str
    lhs_scaled: int  # WINDOW_SCALE * lhs
    rhs_scaled: int  # WINDOW_SCALE * rhs

    @property
    def lhs(self) -> Fraction:
        return Fraction(self.lhs_scaled, WINDOW_SCALE)

    @property
    def rhs(self) -> Fraction:
        return Fraction(self.rhs_scaled, WINDOW_SCALE)

    @property
    def passes(self) -> bool:
        return self.lhs_scaled >= self.rhs_scaled


@dataclass(frozen=True)
class GlobalStats:
    mu: Fraction
    alpha1: Fraction
    alpha2: Fraction
    phi: Fraction
    psi: Fraction
    n: int
    delta: int


def _layout(profile: LayerProfile) -> tuple[tuple[bool, ...], list[int]]:
    """(single, one-layer indices): single[i + 1] tells whether layer i
    holds one clump, padded with False for the empty layers -1 and D + 1;
    the one-layer windows sit at the layers of one or two clumps."""
    counts = profile.clump_counts
    single = (False, *(c == 1 for c in counts), False)
    return single, [i for i, c in enumerate(counts) if c <= 2]


@dataclass
class SieveReport:
    """The sieve verdict on one profile: the sides of its windows as two
    int columns in sixths (WINDOW_SCALE), one-layer windows first, then
    two-layer, then three-layer, each by ascending index; its global
    statistics; and the GLOBAL_PROGRAM rows they meet (check_aggregates)."""

    lhs_scaled: list[int]
    rhs_scaled: list[int]
    profile: LayerProfile  # names the windows
    stats: GlobalStats
    rows: dict[str, bool]

    @property
    def windows_passing(self) -> int:
        """The number of windows whose lhs reaches their rhs."""
        return sum(map(ge, self.lhs_scaled, self.rhs_scaled))

    @property
    def passes(self) -> bool:
        return all(map(ge, self.lhs_scaled, self.rhs_scaled)) and all(self.rows.values())

    @property
    def windows(self) -> list[Window]:
        """Each window, built on read: named from the profile, its sides
        taken from the columns."""
        D = self.profile.diameter_index
        single, one_layer = _layout(self.profile)
        names = [("one-layer", i, "single" if single[i + 1] else "double") for i in one_layer]
        names += [("two-layer", i, _TWO_LAYER[single[i + 1:i + 3]][0]) for i in range(D)]
        names += [
            ("three-layer", i, "".join("s" if flag else "m" for flag in single[i:i + 3]))
            for i in range(1, D)
        ]
        sides = zip(self.lhs_scaled, self.rhs_scaled, strict=True)
        return [Window(*name, *side) for name, side in zip(names, sides, strict=True)]


def _require_canonical_patterns(profile: LayerProfile) -> None:
    for i in range(profile.diameter_index):
        a, b = profile.colors[i], profile.colors[i + 1]
        if not is_canonical_pair(3, a, b):
            shape = (len(a), len(b), len(a & b))
            raise ValueError(
                f"layer pair ({i}, {i + 1}) has color shape {shape}, which no "
                f"canonical 3-colored profile produces"
            )


def singular_triplet_count(profile: LayerProfile) -> int:
    """Number of interior layers i that are not single but touch a single."""
    singles = profile.singles
    return sum(
        1
        for i in range(1, profile.diameter_index)
        if i not in singles and (i - 1 in singles or i + 1 in singles)
    )


def window_inequalities(
    profile: LayerProfile, delta: int, slack_c: int = DEFAULT_SLACK
) -> SieveReport:
    """Instantiate every applicable window inequality on the profile, and
    check the GLOBAL_PROGRAM rows on its global statistics.

    One-layer windows run over 0 <= i <= D, two-layer over 0 <= i < D,
    three-layer over 1 <= i <= D-1; out-of-range layers weigh 0.  The
    one-layer bound applies to layers of one or two clumps only.
    """
    if delta < 1:
        raise ValueError(f"delta={delta} must be positive")
    if slack_c < 0:
        raise ValueError(f"slack_c={slack_c} must be nonnegative")
    _require_canonical_patterns(profile)
    D = profile.diameter_index
    single, one_layer = _layout(profile)
    # e[i + 1] is the weight of layer i, the padding the empty layers
    # -1 and D + 1; every side is in sixths (WINDOW_SCALE)
    e = (0, *profile.ell, 0)
    lhs = [12 * (e[i] + e[i + 1] + e[i + 2]) for i in one_layer]
    rhs = [12 * delta + (12 if single[i + 1] else 6) * e[i + 1] for i in one_layer]

    two = [_TWO_LAYER[single[i + 1:i + 3]] for i in range(D)]
    lhs += [6 * (e[i] + e[i + 3]) + a * e[i + 1] + b * e[i + 2] for i, (_, a, b) in enumerate(two)]
    rhs += [12 * delta] * D

    three = [_THREE_LAYER_RHS[single[i:i + 3]] for i in range(1, D)]
    lhs += [12 * (e[i - 1] + e[i] + e[i + 1] + e[i + 2] + e[i + 3]) for i in range(1, D)]
    rhs += [
        d * delta - b * e[i] - h * e[i + 1] - a * e[i + 2]
        for i, (d, b, h, a) in enumerate(three, 1)
    ]

    stats = global_stats(profile, delta)
    return SieveReport(lhs, rhs, profile, stats, check_aggregates(stats, slack_c))


def global_stats(profile: LayerProfile, delta: int) -> GlobalStats:
    if delta < 1:
        raise ValueError(f"delta={delta} must be positive")
    D = profile.diameter_index
    n = profile.n
    singles = profile.singles
    # weights of the 2-clump layers 1 <= i <= D-1 by how many singles flank them
    flanked = [0, 0, 0]
    for i in range(1, D):
        if profile.clump_counts[i] == 2:
            flanked[(i - 1 in singles) + (i + 1 in singles)] += profile.ell[i]
    return GlobalStats(
        mu=Fraction(sum(profile.ell[i] for i in singles), n),
        alpha1=Fraction(flanked[2], n),
        alpha2=Fraction(flanked[1], n),
        phi=Fraction(D * delta, n),
        psi=Fraction(delta * singular_triplet_count(profile), n),
        n=n,
        delta=delta,
    )


def check_aggregates(
    stats: GlobalStats, slack_c: int = DEFAULT_SLACK
) -> dict[str, bool]:
    """The rows of GLOBAL_PROGRAM, each allowed slack_c * delta / n.  A
    negative slack_c is refused: the pair-sum bound follows from the
    two-layer windows only for slack_c >= 0 (module docstring)."""
    if slack_c < 0:
        raise ValueError(f"slack_c={slack_c} must be nonnegative")
    eps = Fraction(slack_c * stats.delta, stats.n)
    x = (stats.phi, stats.mu, stats.psi, stats.alpha1, stats.alpha2)
    return {
        name: sum(a * v for a, v in zip(coeffs, x)) <= rhs + eps
        for name, coeffs, rhs in GLOBAL_PROGRAM
    }
