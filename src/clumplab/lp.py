"""Exact rational linear programming for the small dense programs that
arise here: a two-phase simplex with Bland's rule, the five-variable
global program and the vertices of its dual polytope, the per-topology
minimum-order program with a branch-and-bound integer refinement, and a
pattern-sequence search for extremal layer profiles.

Programs go in as ints and Fractions, stored as given; solutions come
out as fractions.Fraction.  Inside, the simplex tableau and the
elimination behind the dual polytope are Python ints over one positive
common denominator, updated by fraction-free (Bareiss) pivots.  There
is no floating point.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil, floor, lcm

from .canonical import is_canonical_pair
from .core import WeightedClumpGraph, blow_up_diameter
from .sieve import GLOBAL_PROGRAM

Rational = int | Fraction
Row = tuple[list[Rational], str, Rational]  # coefficients, sense, rhs


@dataclass
class RationalLP:
    """maximize (or minimize) c.x subject to the rows, x >= 0."""

    maximize: bool
    c: list[Rational]
    rows: list[Row] = field(default_factory=list)

    def add_row(self, coeffs: list[Rational], sense: str, rhs: Rational) -> None:
        if sense not in ("<=", ">=", "=="):
            raise ValueError(f"unknown sense {sense!r}")
        if len(coeffs) != len(self.c):
            raise ValueError("coefficient count does not match variable count")
        self.rows.append((list(coeffs), sense, rhs))


@dataclass
class LPSolution:
    status: str  # "optimal" | "infeasible" | "unbounded"
    value: Fraction | None
    x: list[Fraction] | None
    y: list[Fraction] | None  # dual values per original row


def _integer_row(values: list[Rational]) -> tuple[list[int], int]:
    """values times the lcm of their denominators, and that lcm."""
    scale = 1
    for v in values:
        if v.denominator != 1:
            scale = lcm(scale, v.denominator)
    if scale == 1:
        return [v.numerator for v in values], 1
    return [v.numerator * (scale // v.denominator) for v in values], scale


def _pivot(rows: list[list[int]], r: int, c: int, d: int) -> int:
    """One fraction-free (Bareiss) pivot on rows[r][c]; returns the new
    common denominator.

    The true matrix is rows / d before and rows / p after, p the pivot:
    row i becomes (row_i * p - row_i[c] * row_r) / d, which Sylvester's
    identity makes an exact division, and row r stays.  A negative p
    negates every row (folded into the pivot row here), so the
    denominator stays positive.
    """
    pivot_row = rows[r]
    p = pivot_row[c]
    if p < 0:
        rows[r] = pivot_row = [-a for a in pivot_row]
        p = -p
    for i, row in enumerate(rows):
        if i == r:
            continue
        f = row[c]
        if f:
            rows[i] = [(a * p - f * b) // d for a, b in zip(row, pivot_row)]
        elif p != d:
            rows[i] = [a * p // d for a in row]
    return p


_SLACK = {"<=": 1, ">=": -1, "==": 0}  # slack coefficient per sense


def simplex_solve(lp: RationalLP) -> LPSolution:
    """Dense two-phase simplex, Bland's rule throughout.

    The tableau holds Python ints.  Each row is scaled by the lcm of its
    own denominators, with its slack and artificial entries left at +-1,
    so the starting basis is the identity; from then on the true tableau
    is tab / d for one common denominator d > 0 (see _pivot).  Bland's
    choices are those of the rational tableau, because scaling a row or a
    column by a positive factor keeps every ratio order and every
    reduced-cost sign.  Fractions appear only in the input and the result.

    The last row holds the reduced costs c_j - c_B B^-1 A_j of the
    current phase, scaled likewise and kept up to date by every pivot;
    the duals are read off it.  At optimality the returned dual vector
    satisfies y . b = value exactly (checked); infeasible and unbounded
    programs are reported as statuses, not exceptions.
    """
    n = len(lp.c)
    m = len(lp.rows)

    # rows with a negative rhs are negated, which swaps <= and >=; then
    # every inequality gets a slack column (+1 or -1) and every row
    # without a +1 slack an artificial one, all slacks first
    row_sign = [-1 if b < 0 else 1 for _, _, b in lp.rows]
    slack = [s * _SLACK[sense] for s, (_, sense, _) in zip(row_sign, lp.rows)]
    slack_col = [-1] * m
    art_col = [-1] * m
    ncols = n
    for i in range(m):
        if slack[i]:
            slack_col[i] = ncols
            ncols += 1
    for i in range(m):
        if slack[i] != 1:
            art_col[i] = ncols
            ncols += 1
    tab: list[list[int]] = []
    row_scale = []
    for i, (coeffs, _, b) in enumerate(lp.rows):
        ints, scale = _integer_row([*coeffs, b])
        if row_sign[i] < 0:
            ints = [-a for a in ints]
        row = ints[:n] + [0] * (ncols - n) + ints[n:]
        if slack[i]:
            row[slack_col[i]] = slack[i]
        if art_col[i] >= 0:
            row[art_col[i]] = 1
        tab.append(row)
        row_scale.append(scale)
    tab.append([0] * (ncols + 1))  # reduced costs
    d = 1
    # the column that started as +e_i: the artificial when the row has one
    unit_col = [a if a >= 0 else s for a, s in zip(art_col, slack_col)]
    basis = list(unit_col)
    artificials = {c for c in art_col if c >= 0}

    def price(costs: list[int]) -> None:
        z = [d * cost for cost in costs] + [0]
        for i, b in enumerate(basis):
            f = costs[b]
            if f:
                z = [a - f * t for a, t in zip(z, tab[i])]
        tab[m] = z

    def optimize(banned: set[int]) -> str:
        nonlocal d
        while True:
            # Bland: the first improving column; basic columns price at 0
            z = tab[m]
            entering = next((j for j in range(ncols) if z[j] > 0 and j not in banned), -1)
            if entering < 0:
                return "optimal"
            # the least ratio rhs / entry over positive entries, compared
            # by cross-multiplication; ties go to the smallest basic column
            leaving, best_rhs, best_entry = -1, 0, 1
            for i in range(m):
                entry = tab[i][entering]
                if entry <= 0:
                    continue
                rhs = tab[i][ncols]
                if leaving >= 0:
                    lhs, other = rhs * best_entry, best_rhs * entry
                    if lhs > other or (lhs == other and basis[i] > basis[leaving]):
                        continue
                leaving, best_rhs, best_entry = i, rhs, entry
            if leaving < 0:
                return "unbounded"
            d = _pivot(tab, leaving, entering, d)
            basis[leaving] = entering

    if artificials:
        # phase 1 minimizes the sum of the rational tableau's artificials;
        # column i's artificial carries 1 / row_scale[i] of one, so its
        # cost is scaled to an integer by the lcm of those scales
        unit = lcm(*[row_scale[i] for i in range(m) if art_col[i] >= 0])
        costs = [0] * ncols
        for i in range(m):
            if art_col[i] >= 0:
                costs[art_col[i]] = -(unit // row_scale[i])
        price(costs)
        optimize(set())
        # the phase-1 row's rhs is the total left on basic artificials
        if tab[m][ncols] != 0:
            return LPSolution("infeasible", None, None, None)
        # drive lingering zero-level artificials out of the basis
        for i in range(m):
            if basis[i] in artificials:
                for j in range(ncols):
                    if j not in artificials and tab[i][j] != 0:
                        d = _pivot(tab, i, j, d)
                        basis[i] = j
                        break

    obj_sign = 1 if lp.maximize else -1
    costs, obj_scale = _integer_row(lp.c)
    price([obj_sign * cost for cost in costs] + [0] * (ncols - n))
    if optimize(artificials) == "unbounded":
        return LPSolution("unbounded", None, None, None)

    x = [Fraction(0)] * n
    for i, b in enumerate(basis):
        if b < n:
            x[b] = Fraction(tab[i][ncols], d)
    # the cost row's rhs is -c_B x_B times obj_scale * d
    reported = Fraction(-obj_sign * tab[m][ncols], obj_scale * d)

    # unit columns cost 0, so their reduced cost is -(c_B B^-1)_i, and
    # column i's is row_scale[i] times smaller than the rational tableau's
    y = [
        Fraction(-obj_sign * s * scale * tab[m][col], obj_scale * d)
        for s, scale, col in zip(row_sign, row_scale, unit_col)
    ]

    dual_value = sum(yi * row[2] for yi, row in zip(y, lp.rows))
    if dual_value != reported:
        raise ArithmeticError("strong duality violated")
    return LPSolution("optimal", reported, x, y)


# -- the five-variable global program ------------------------------------


def build_epsz_lp() -> RationalLP:
    """Maximize phi over (phi, mu, psi, alpha1, alpha2) subject to the
    rows of sieve.GLOBAL_PROGRAM."""
    lp = RationalLP(maximize=True, c=[1, 0, 0, 0, 0])
    for _, coeffs, rhs in GLOBAL_PROGRAM:
        lp.add_row(list(coeffs), "<=", rhs)
    return lp


def _solve_square(matrix: list[list[Rational]], rhs: list[Rational]) -> list[Fraction] | None:
    """Fraction-free Gauss-Jordan elimination; None when singular."""
    d = len(rhs)
    aug = [_integer_row([*row, rhs[i]])[0] for i, row in enumerate(matrix)]
    den = 1
    for col in range(d):
        piv = next((r for r in range(col, d) if aug[r][col] != 0), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        den = _pivot(aug, col, col, den)
    return [Fraction(aug[r][d], den) for r in range(d)]


def dual_polytope_vertices() -> list[tuple[Fraction, ...]]:
    """Vertices of {y >= 0 : y A >= c}, the dual of build_epsz_lp()."""
    program = build_epsz_lp()
    matrix = [coeffs for coeffs, _, _ in program.rows]
    d = len(matrix)
    # constraints as coeffs . y >= b
    cons = [([row[j] for row in matrix], cj) for j, cj in enumerate(program.c)]
    for i in range(d):
        e = [0] * d
        e[i] = 1
        cons.append((e, 0))
    vertices: set[tuple[Fraction, ...]] = set()
    for combo in itertools.combinations(range(len(cons)), d):
        mat = [cons[i][0] for i in combo]
        rhs = [cons[i][1] for i in combo]
        y = _solve_square(mat, rhs)
        if y is None:
            continue
        if all(v >= 0 for v in y) and all(
            sum(a * v for a, v in zip(coeffs, y)) >= b for coeffs, b in cons
        ):
            vertices.add(tuple(y))
    return sorted(vertices)


# -- minimum order of a clump topology -----------------------------------


@dataclass
class MinOrderResult:
    lp_value: Fraction
    int_value: int | None
    weights: dict[tuple[int, int], int] | None  # optimal integer weights


ILP_CLUMP_LIMIT = 40


def min_order_lp(topology: WeightedClumpGraph, delta: int) -> MinOrderResult:
    """Minimum total weight putting every clump's weighted degree at or
    above delta, with all weights >= 1 and the root pinned to 1.

    Substituting weight = 1 + v reduces to v >= 0 with unit-coefficient
    covering rows.  The integer optimum comes from depth-first branch
    and bound on the most fractional variable; rounding the LP vertex
    up stays feasible, which seeds the incumbent.
    """
    _, root = _relax(topology, delta)
    return _refine(topology, delta, root)


def _min_order_program(
    topology: WeightedClumpGraph, delta: int
) -> tuple[list[tuple[int, int]], list[tuple[int, int]], RationalLP]:
    """Every clump, the clumps whose weight is free, and the covering
    program over the free weights; ValueError when no weighting can
    reach the degree bound."""
    if delta < 1:
        raise ValueError(f"delta={delta} must be positive")
    keys = [(c.layer, c.color) for c in topology.clumps()]
    variables = keys[1:]  # keys[0] is the root, pinned to weight 1
    index = {key: j for j, key in enumerate(variables)}

    lp = RationalLP(maximize=False, c=[1] * len(variables))
    feasible_rows = True
    for key in keys:
        nbrs = [(c.layer, c.color) for c in topology.neighbors(*key)]
        coeffs = [0] * len(variables)
        for nb in nbrs:
            if nb in index:
                coeffs[index[nb]] += 1
        need = delta - len(nbrs)
        if need > 0 and not any(coeffs):
            feasible_rows = False
        lp.add_row(coeffs, ">=", need)
    if not feasible_rows:
        raise ValueError("topology cannot reach the degree bound")
    return keys, variables, lp


def _relax(topology: WeightedClumpGraph, delta: int) -> tuple[Fraction, LPSolution]:
    """The minimum order over fractional weights, with the optimal
    solution of the program that _refine starts from."""
    keys, _, lp = _min_order_program(topology, delta)
    sol = simplex_solve(lp)
    if sol.status != "optimal":
        raise ValueError(f"minimum-order program is {sol.status}")
    assert sol.value is not None
    return len(keys) + sol.value, sol


def _refine(topology: WeightedClumpGraph, delta: int, root: LPSolution) -> MinOrderResult:
    """Integer optimum by branch and bound from the relaxation's optimal
    solution root, so the root program is never solved again."""
    keys, variables, lp = _min_order_program(topology, delta)
    assert root.value is not None and root.x is not None
    lp_value = len(keys) + root.value
    if len(keys) > ILP_CLUMP_LIMIT:
        return MinOrderResult(lp_value=lp_value, int_value=None, weights=None)

    incumbent = sum(ceil(v) for v in root.x)
    best_x = [Fraction(ceil(v)) for v in root.x]
    extra: list[Row] = []

    def branch(s: LPSolution) -> None:
        nonlocal incumbent, best_x
        if s.status != "optimal":
            return
        assert s.value is not None and s.x is not None
        if ceil(s.value) >= incumbent:
            return
        frac = [(abs(v - floor(v) - Fraction(1, 2)), j) for j, v in enumerate(s.x) if v != floor(v)]
        if not frac:
            total = sum(s.x, Fraction(0))
            if total < incumbent:
                incumbent = int(total)
                best_x = list(s.x)
            return
        _, j = min(frac)
        unit = [1 if jj == j else 0 for jj in range(len(variables))]
        for sense, bound in (("<=", floor(s.x[j])), (">=", floor(s.x[j]) + 1)):
            extra.append((unit, sense, bound))
            probe = RationalLP(maximize=False, c=list(lp.c))
            probe.rows = list(lp.rows) + list(extra)
            branch(simplex_solve(probe))
            extra.pop()

    branch(root)
    weights = {key: 1 for key in keys}
    for key, v in zip(variables, best_x):
        weights[key] = 1 + int(v)
    return MinOrderResult(lp_value=lp_value, int_value=len(keys) + incumbent, weights=weights)


# -- extremal search over canonical pattern sequences --------------------


@dataclass
class SearchResult:
    frontier: dict[int, int]  # diameter -> minimum order found
    best_phi: Fraction
    complete: bool


_SUBSETS = [frozenset(s) for r in (1, 2, 3) for s in itertools.combinations(range(3), r)]


def _pattern_sequences(depth: int) -> "list[list[frozenset[int]]]":
    """All canonical color-set sequences of depth+1 layers starting from
    a single root layer (root color fixed by symmetry)."""
    out: list[list[frozenset[int]]] = []

    def extend(seq: list[frozenset[int]]) -> None:
        if len(seq) == depth + 1:
            out.append(list(seq))
            return
        for nxt in _SUBSETS:
            if is_canonical_pair(3, seq[-1], nxt):
                extend(seq + [nxt])

    extend([frozenset({0})])
    return out


def _unit_topology(seq: list[frozenset[int]]) -> WeightedClumpGraph:
    return WeightedClumpGraph(3, [[(c, 1) for c in cols] for cols in seq])


def extremal_search(delta: int, d_max: int, n_budget: int) -> SearchResult:
    """Smallest blow-up order per diameter over canonical 3-colored layer
    topologies, via the minimum-order program on every pattern sequence.

    Each depth runs in two stages.  Stage 1 solves every sequence's
    minimum-order relaxation once: a sequence that cannot reach the
    degree bound is skipped, and one whose LP value exceeds n_budget is
    dropped and marks the result incomplete.  Stage 2 walks the
    survivors in ascending LP value and refines each from its stage-1
    solution by branch and bound, so no LP is solved twice.  Topologies
    of depth 1 whose optimal weighting has a weight >= 2 are skipped:
    their blow-up diameter is 2, not the depth.  The walk stops at the
    first topology whose rounded-up LP value reaches the order already
    found at this depth, and the result is still exact:

    - any integer order is at least ceil(lp_value), so no topology from
      there on can lower the depth's order;
    - the frontier keeps the minimum order per depth;
    - best_phi at each depth comes from that depth's minimum order.
    """
    if delta < 1:
        raise ValueError(f"delta={delta} must be positive")
    if d_max < 1:
        raise ValueError(f"d_max={d_max} must be positive")
    frontier: dict[int, int] = {}
    best_phi = Fraction(0)
    complete = True
    for depth in range(1, d_max + 1):
        # a survivor keeps only its root solution: _refine rebuilds the
        # program without a pivot, and holding every program costs memory
        survivors: list[tuple[Fraction, list[frozenset[int]], LPSolution]] = []
        for seq in _pattern_sequences(depth):
            try:
                lp_value, root = _relax(_unit_topology(seq), delta)
            except ValueError:
                continue
            if lp_value > n_budget:
                complete = False
                continue
            survivors.append((lp_value, seq, root))
        survivors.sort(key=lambda item: item[0])
        for lp_value, seq, root in survivors:
            if depth in frontier and ceil(lp_value) >= frontier[depth]:
                break
            result = _refine(_unit_topology(seq), delta, root)
            assert result.int_value is not None and result.weights is not None
            weights = result.weights
            graph = WeightedClumpGraph(
                3, [[(c, weights[(i, c)]) for c in cols] for i, cols in enumerate(seq)]
            )
            if blow_up_diameter(graph) != depth:
                continue
            order = result.int_value
            if depth not in frontier or order < frontier[depth]:
                frontier[depth] = order
            phi = Fraction(depth * delta, order)
            best_phi = max(best_phi, phi)
    return SearchResult(frontier=frontier, best_phi=best_phi, complete=complete)
