"""Inclusion-exclusion ("sieve") inequalities on 3-colorable canonical
layer profiles, and the normalized global statistics they feed.

Each window inequality bounds a short run of consecutive layer weights
from below by a multiple of the minimum degree; which bound applies
depends on where the single-clump layers sit.  The per-window forms are
exact.  Summing them over the whole profile yields two aggregate bounds
that carry boundary terms, absorbed here into a configurable additive
slack of slack_c * delta.  GLOBAL_PROGRAM holds the five normalized
constraints on the global statistics; check_aggregates evaluates them,
and `lp` maximizes phi over them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

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


@dataclass(frozen=True)
class Window:
    kind: str  # "one-layer", "two-layer", "three-layer"
    index: int
    case: str
    lhs: Fraction
    rhs: Fraction

    @property
    def passes(self) -> bool:
        return self.lhs >= self.rhs


@dataclass(frozen=True)
class AggregateResult:
    name: str
    lhs: Fraction  # includes the slack term
    rhs: Fraction

    @property
    def passes(self) -> bool:
        return self.lhs >= self.rhs


@dataclass
class SieveReport:
    windows: list[Window]
    aggregates: list[AggregateResult]

    @property
    def passes(self) -> bool:
        return all(w.passes for w in self.windows) and all(
            a.passes for a in self.aggregates
        )

    def failures(self) -> list[Window | AggregateResult]:
        return [w for w in self.windows if not w.passes] + [
            a for a in self.aggregates if not a.passes
        ]


@dataclass(frozen=True)
class GlobalStats:
    mu: Fraction
    alpha1: Fraction
    alpha2: Fraction
    phi: Fraction
    psi: Fraction
    n: int
    delta: int


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
    """Instantiate every applicable window inequality on the profile.

    One-layer windows run over 0 <= i <= D, two-layer over 0 <= i < D,
    three-layer over 1 <= i <= D-1; out-of-range layers weigh 0.  The
    one-layer bound applies to layers of one or two clumps only.
    """
    if delta < 1:
        raise ValueError(f"delta={delta} must be positive")
    _require_canonical_patterns(profile)
    D = profile.diameter_index
    singles = profile.singles
    ell = profile.ell_at
    windows: list[Window] = []

    for i in range(D + 1):
        c = profile.count_at(i)
        if c > 2:
            continue
        lhs = Fraction(2 * (ell(i - 1) + ell(i) + ell(i + 1)))
        rhs = Fraction(2 * delta + (2 if c == 1 else 1) * ell(i))
        windows.append(Window("one-layer", i, "single" if c == 1 else "double", lhs, rhs))

    for i in range(D):
        a, b = i in singles, i + 1 in singles
        outer = ell(i - 1) + ell(i + 2)
        if a and b:
            lhs = Fraction(outer + ell(i) + ell(i + 1))
            case = "both-single"
        elif a:
            lhs = outer + ell(i) + Fraction(3, 2) * ell(i + 1)
            case = "first-single"
        elif b:
            lhs = outer + Fraction(3, 2) * ell(i) + ell(i + 1)
            case = "second-single"
        else:
            lhs = outer + Fraction(4, 3) * (ell(i) + ell(i + 1))
            case = "no-single"
        windows.append(Window("two-layer", i, case, lhs, Fraction(2 * delta)))

    for i in range(1, D):
        pattern = tuple(j in singles for j in (i - 1, i, i + 1))
        lhs = Fraction(2 * sum(ell(i + d) for d in range(-2, 3)))
        if pattern in {(True, False, True), (True, False, False), (False, False, True)}:
            rhs = Fraction(8 * delta - 4 * ell(i) - 2 * ell(i - 1) - 2 * ell(i + 1))
        elif pattern == (True, True, True):
            rhs = Fraction(6 * delta - 2 * ell(i))
        elif pattern == (True, True, False):
            rhs = Fraction(6 * delta - 2 * ell(i) - ell(i + 1))
        elif pattern == (False, True, True):
            rhs = Fraction(6 * delta - 2 * ell(i) - ell(i - 1))
        else:  # middle single flanked by non-singles, or no singles at all
            rhs = Fraction(6 * delta - 2 * ell(i) - ell(i - 1) - ell(i + 1))
        case = "".join("s" if flag else "m" for flag in pattern)
        windows.append(Window("three-layer", i, case, lhs, rhs))

    aggregates = _aggregates(profile, delta, slack_c)
    return SieveReport(windows=windows, aggregates=aggregates)


def _aggregates(profile: LayerProfile, delta: int, slack_c: int) -> list[AggregateResult]:
    """The two profile-wide bounds obtained by summing the windows."""
    D = profile.diameter_index
    n = profile.n
    singles = profile.singles
    ell = profile.ell_at
    slack = Fraction(slack_c * delta)

    pair_lhs = Fraction(4 * n) + slack
    for i in range(D + 1):
        if i in singles:
            continue
        for j in (i - 1, i + 1):
            if 0 <= j <= D and j not in singles:
                pair_lhs += Fraction(ell(i), 3)
        if i + 1 in singles:
            pair_lhs += Fraction(ell(i), 2)
        if i - 1 in singles:
            pair_lhs += Fraction(ell(i), 2)
    pair = AggregateResult("pair-sum", pair_lhs, Fraction(2 * D * delta))

    s = singular_triplet_count(profile)
    triple_lhs = Fraction(7 * n) + slack
    for i in range(D + 1):
        if i not in singles and (i - 1 in singles or i + 1 in singles):
            triple_lhs += Fraction(ell(i))
    triple = AggregateResult("triple-sum", triple_lhs, Fraction(3 * delta * D + s * delta))

    return [pair, triple]


def global_stats(profile: LayerProfile, delta: int) -> GlobalStats:
    if delta < 1:
        raise ValueError(f"delta={delta} must be positive")
    D = profile.diameter_index
    n = profile.n
    singles = profile.singles
    mu = Fraction(sum(profile.ell[i] for i in singles), n)
    alpha1 = alpha2 = Fraction(0)
    for i in range(1, D):
        if profile.count_at(i) != 2:
            continue
        flanking = (i - 1 in singles) + (i + 1 in singles)
        if flanking == 2:
            alpha1 += Fraction(profile.ell[i], n)
        elif flanking == 1:
            alpha2 += Fraction(profile.ell[i], n)
    return GlobalStats(
        mu=mu,
        alpha1=alpha1,
        alpha2=alpha2,
        phi=Fraction(D * delta, n),
        psi=Fraction(delta * singular_triplet_count(profile), n),
        n=n,
        delta=delta,
    )


def check_aggregates(
    stats: GlobalStats, slack_c: int = DEFAULT_SLACK
) -> dict[str, bool]:
    """The rows of GLOBAL_PROGRAM, each allowed slack_c * delta / n."""
    eps = Fraction(slack_c * stats.delta, stats.n)
    x = (stats.phi, stats.mu, stats.psi, stats.alpha1, stats.alpha2)
    return {
        name: sum(a * v for a, v in zip(coeffs, x)) <= rhs + eps
        for name, coeffs, rhs in GLOBAL_PROGRAM
    }


def def_partition(
    profile: LayerProfile,
) -> tuple[frozenset[int], frozenset[int], frozenset[int]]:
    """Split the layer indices three ways: two-clump layers flanked by
    singles on both sides, the layers adjacent to those, and the rest."""
    D = profile.diameter_index
    singles = profile.singles
    flanked = frozenset(
        i
        for i in range(1, D)
        if profile.count_at(i) == 2 and i - 1 in singles and i + 1 in singles
    )
    adjacent = frozenset(
        itertools.chain.from_iterable((i - 1, i + 1) for i in flanked)
    ) - flanked
    rest = frozenset(range(D + 1)) - flanked - adjacent
    return flanked, adjacent, rest


def clamp_profile(profile: LayerProfile, delta: int) -> LayerProfile:
    """Cap every layer weight at 3 * delta, the reduction that loses no
    generality for the diameter bound."""
    ell = tuple(min(w, 3 * delta) for w in profile.ell)
    return LayerProfile(
        ell=ell,
        clump_counts=profile.clump_counts,
        colors=profile.colors,
        n=sum(ell),
        diameter_index=profile.diameter_index,
    )
