"""Exact rational linear programming for the small dense programs that
arise here: a two-phase simplex with Bland's rule, the five-variable
global program and its dual-polytope sensitivity bound, the per-topology
minimum-order program with a branch-and-bound integer refinement, and a
pattern-sequence search for extremal layer profiles.

Everything is fractions.Fraction; no floating point.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil, floor

from .canonical import is_canonical_pair
from .core import WeightedClumpGraph, blow_up_diameter
from .sieve import GLOBAL_PROGRAM

Row = tuple[list[Fraction], str, Fraction]  # coefficients, sense, rhs


@dataclass
class RationalLP:
    """maximize (or minimize) c.x subject to the rows, x >= 0."""

    maximize: bool
    c: list[Fraction]
    rows: list[Row] = field(default_factory=list)

    def add_row(self, coeffs: list[int | Fraction], sense: str, rhs: int | Fraction) -> None:
        if sense not in ("<=", ">=", "=="):
            raise ValueError(f"unknown sense {sense!r}")
        if len(coeffs) != len(self.c):
            raise ValueError("coefficient count does not match variable count")
        self.rows.append(([Fraction(a) for a in coeffs], sense, Fraction(rhs)))


@dataclass
class LPSolution:
    status: str  # "optimal" | "infeasible" | "unbounded"
    value: Fraction | None
    x: list[Fraction] | None
    y: list[Fraction] | None  # dual values per original row

    def tight_rows(self, lp: RationalLP) -> list[int]:
        assert self.x is not None
        out = []
        for i, (coeffs, _, rhs) in enumerate(lp.rows):
            if sum(a * v for a, v in zip(coeffs, self.x)) == rhs:
                out.append(i)
        return out


def _pivot(rows: list[list[Fraction]], r: int, c: int) -> None:
    """Scale row r to a 1 in column c and clear column c from every other row."""
    inv = Fraction(1) / rows[r][c]
    rows[r] = pivot_row = [v * inv for v in rows[r]]
    for i, row in enumerate(rows):
        if i != r and row[c]:
            f = row[c]
            rows[i] = [a - f * b for a, b in zip(row, pivot_row)]


_SLACK = {"<=": 1, ">=": -1, "==": 0}  # slack coefficient per sense


def simplex_solve(lp: RationalLP) -> LPSolution:
    """Dense two-phase simplex, Bland's rule throughout.

    The tableau's last row holds the reduced costs c_j - c_B B^-1 A_j of
    the current phase, kept up to date by every pivot; the duals are read
    off it.  At optimality the returned dual vector satisfies y . b =
    value exactly (checked); infeasible and unbounded programs are
    reported as statuses, not exceptions.
    """
    n = len(lp.c)
    m = len(lp.rows)
    obj = [Fraction(c) if lp.maximize else -Fraction(c) for c in lp.c]

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
    tab: list[list[Fraction]] = []
    for i, (coeffs, _, b) in enumerate(lp.rows):
        row = [row_sign[i] * a for a in coeffs] + [Fraction(0)] * (ncols - n)
        row.append(row_sign[i] * b)
        if slack[i]:
            row[slack_col[i]] = Fraction(slack[i])
        if art_col[i] >= 0:
            row[art_col[i]] = Fraction(1)
        tab.append(row)
    tab.append([Fraction(0)] * (ncols + 1))  # reduced costs
    # the column that started as +e_i: the artificial when the row has one
    unit_col = [a if a >= 0 else s for a, s in zip(art_col, slack_col)]
    basis = list(unit_col)
    artificials = {c for c in art_col if c >= 0}

    def price(costs: list[Fraction]) -> None:
        z = costs + [Fraction(0)]
        for i, b in enumerate(basis):
            f = z[b]
            if f:
                z = [a - f * t for a, t in zip(z, tab[i])]
        tab[m] = z

    def optimize(banned: set[int]) -> str:
        while True:
            # Bland: the first improving column; basic columns price at 0
            z = tab[m]
            entering = next((j for j in range(ncols) if z[j] > 0 and j not in banned), -1)
            if entering < 0:
                return "optimal"
            leaving, best = -1, None
            for i in range(m):
                if tab[i][entering] > 0:
                    ratio = tab[i][ncols] / tab[i][entering]
                    if best is None or ratio < best or (
                        ratio == best and basis[i] < basis[leaving]
                    ):
                        leaving, best = i, ratio
            if leaving < 0:
                return "unbounded"
            _pivot(tab, leaving, entering)
            basis[leaving] = entering

    if artificials:
        price([Fraction(-1) if j in artificials else Fraction(0) for j in range(ncols)])
        optimize(set())
        # the phase-1 row's rhs is the total left on basic artificials
        if tab[m][ncols] != 0:
            return LPSolution("infeasible", None, None, None)
        # drive lingering zero-level artificials out of the basis
        for i in range(m):
            if basis[i] in artificials:
                for j in range(ncols):
                    if j not in artificials and tab[i][j] != 0:
                        _pivot(tab, i, j)
                        basis[i] = j
                        break

    price(obj + [Fraction(0)] * (ncols - n))
    if optimize(artificials) == "unbounded":
        return LPSolution("unbounded", None, None, None)

    x = [Fraction(0)] * n
    for i, b in enumerate(basis):
        if b < n:
            x[b] = tab[i][ncols]
    value = sum(o * v for o, v in zip(obj, x))

    # unit columns cost 0, so their reduced cost is -(c_B B^-1)_i
    obj_sign = 1 if lp.maximize else -1
    y = [-obj_sign * s * tab[m][col] for s, col in zip(row_sign, unit_col)]

    reported = value if lp.maximize else -value
    dual_value = sum(yi * row[2] for yi, row in zip(y, lp.rows))
    if dual_value != reported:
        raise ArithmeticError("strong duality violated")
    return LPSolution("optimal", reported, x, y)


# -- the five-variable global program ------------------------------------


def build_epsz_lp() -> RationalLP:
    """Maximize phi over (phi, mu, psi, alpha1, alpha2) subject to the
    rows of sieve.GLOBAL_PROGRAM."""
    lp = RationalLP(maximize=True, c=[Fraction(1), Fraction(0), Fraction(0), Fraction(0), Fraction(0)])
    for _, coeffs, rhs in GLOBAL_PROGRAM:
        lp.add_row(list(coeffs), "<=", rhs)
    return lp


def _solve_square(matrix: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction] | None:
    """Gaussian elimination; None when singular."""
    d = len(rhs)
    aug = [list(row) + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(d):
        piv = next((r for r in range(col, d) if aug[r][col] != 0), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        _pivot(aug, col, col)
    return [aug[r][d] for r in range(d)]


def dual_polytope_vertices() -> list[tuple[Fraction, ...]]:
    """Vertices of {y >= 0 : y A >= c}, the dual of build_epsz_lp()."""
    program = build_epsz_lp()
    matrix = [coeffs for coeffs, _, _ in program.rows]
    d = len(matrix)
    # constraints as coeffs . y >= b
    cons = [([row[j] for row in matrix], cj) for j, cj in enumerate(program.c)]
    for i in range(d):
        e = [Fraction(0)] * d
        e[i] = Fraction(1)
        cons.append((e, Fraction(0)))
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


def perturbation_bound(eps: Fraction) -> Fraction:
    """How far the optimum of the global program can move when every
    right-hand side shifts by at most eps: max L1 norm over the dual
    polytope's vertices, times eps."""
    return max(sum(abs(v) for v in vertex) for vertex in dual_polytope_vertices()) * eps


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
    root = keys[0] if topology.rooted else None
    variables = [key for key in keys if key != root]
    index = {key: j for j, key in enumerate(variables)}

    lp = RationalLP(maximize=False, c=[Fraction(1)] * len(variables))
    feasible_rows = True
    for key in keys:
        nbrs = [(c.layer, c.color) for c in topology.neighbors(*key)]
        coeffs = [Fraction(0)] * len(variables)
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
        unit = [Fraction(1 if jj == j else 0) for jj in range(len(variables))]
        for sense, bound in (("<=", floor(s.x[j])), (">=", floor(s.x[j]) + 1)):
            extra.append((list(unit), sense, Fraction(bound)))
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
    whose optimal weighting realizes a diameter other than the depth are
    skipped.  The walk stops at the first topology whose rounded-up LP
    value reaches the order already found at this depth, and the result
    is still exact:

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
