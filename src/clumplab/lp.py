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


def simplex_solve(lp: RationalLP) -> LPSolution:
    """Dense two-phase simplex, Bland's rule throughout.

    At optimality the returned dual vector satisfies y . b = value
    exactly (checked); infeasible and unbounded programs are reported
    as statuses, not exceptions.
    """
    n = len(lp.c)
    m = len(lp.rows)
    obj = [Fraction(c) if lp.maximize else -Fraction(c) for c in lp.c]

    # normalize rows to nonnegative rhs, remembering the flips
    table: list[list[Fraction]] = []
    senses: list[str] = []
    row_sign: list[int] = []
    rhs: list[Fraction] = []
    for coeffs, sense, b in lp.rows:
        if b < 0:
            coeffs = [-a for a in coeffs]
            b = -b
            sense = {"<=": ">=", ">=": "<=", "==": "=="}[sense]
            row_sign.append(-1)
        else:
            row_sign.append(1)
        table.append(list(coeffs))
        senses.append(sense)
        rhs.append(b)

    # slack / surplus / artificial columns
    ncols = n
    slack_col = [-1] * m
    art_col = [-1] * m
    for i, sense in enumerate(senses):
        if sense in ("<=", ">="):
            slack_col[i] = ncols
            ncols += 1
    for i, sense in enumerate(senses):
        if sense in (">=", "=="):
            art_col[i] = ncols
            ncols += 1
    tab = [[Fraction(0)] * (ncols + 1) for _ in range(m)]
    basis = [-1] * m
    for i in range(m):
        for j in range(n):
            tab[i][j] = table[i][j]
        if slack_col[i] >= 0:
            tab[i][slack_col[i]] = Fraction(1 if senses[i] == "<=" else -1)
        if art_col[i] >= 0:
            tab[i][art_col[i]] = Fraction(1)
            basis[i] = art_col[i]
        else:
            basis[i] = slack_col[i]
        tab[i][ncols] = rhs[i]
    artificials = {c for c in art_col if c >= 0}

    def pivot(r: int, c: int) -> None:
        inv = Fraction(1) / tab[r][c]
        tab[r] = [v * inv for v in tab[r]]
        for i in range(m):
            if i != r and tab[i][c]:
                f = tab[i][c]
                tab[i] = [a - f * b for a, b in zip(tab[i], tab[r])]
        basis[r] = c

    def optimize(costs: list[Fraction], banned: set[int]) -> str:
        while True:
            cb = [costs[b] for b in basis]
            entering = -1
            for j in range(ncols):
                if j in banned or j in basis:
                    continue
                reduced = costs[j] - sum(cb[i] * tab[i][j] for i in range(m))
                if reduced > 0:
                    entering = j
                    break
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
            pivot(leaving, entering)

    if artificials:
        phase1 = [Fraction(0)] * ncols
        for c in artificials:
            phase1[c] = Fraction(-1)
        optimize(phase1, set())
        if any(basis[i] in artificials and tab[i][ncols] != 0 for i in range(m)):
            return LPSolution("infeasible", None, None, None)
        # drive lingering zero-level artificials out of the basis
        for i in range(m):
            if basis[i] in artificials:
                for j in range(ncols):
                    if j not in artificials and tab[i][j] != 0:
                        pivot(i, j)
                        break

    costs = [Fraction(0)] * ncols
    for j in range(n):
        costs[j] = obj[j]
    status = optimize(costs, artificials)
    if status == "unbounded":
        return LPSolution("unbounded", None, None, None)

    x = [Fraction(0)] * n
    for i, b in enumerate(basis):
        if b < n:
            x[b] = tab[i][ncols]
    value = sum(o * v for o, v in zip(obj, x))

    # dual values read off the initial identity columns
    cb = [costs[b] for b in basis]
    y = [Fraction(0)] * m
    obj_sign = 1 if lp.maximize else -1
    for i in range(m):
        # the column that started as +e_i: the artificial one when the
        # row has it, else the slack
        col = art_col[i] if art_col[i] >= 0 else slack_col[i]
        y_norm = sum(cb[r] * tab[r][col] for r in range(m))
        y[i] = obj_sign * row_sign[i] * y_norm

    reported = value if lp.maximize else -value
    dual_value = sum(yi * row[2] for yi, row in zip(y, lp.rows))
    if dual_value != reported:
        raise ArithmeticError("strong duality violated")
    return LPSolution("optimal", reported, x, y)


# -- the five-variable global program ------------------------------------

# variables (phi, mu, psi, alpha1, alpha2)
EPSZ_MATRIX = [
    [0, 1, 0, 1, 1],
    [0, 0, 3, 0, 0],
    [12, 4, 0, -2, -1],
    [3, 0, 1, -1, -1],
    [1, 0, -3, 3, 0],
]
EPSZ_RHS = [1, 2, 28, 7, 3]


def build_epsz_lp() -> RationalLP:
    """Maximize phi over the five normalized profile statistics."""
    lp = RationalLP(maximize=True, c=[Fraction(1), Fraction(0), Fraction(0), Fraction(0), Fraction(0)])
    for row, b in zip(EPSZ_MATRIX, EPSZ_RHS):
        lp.add_row(row, "<=", b)
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
        inv = Fraction(1) / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(d):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [aug[r][d] for r in range(d)]


def dual_polytope_vertices() -> list[tuple[Fraction, ...]]:
    """Vertices of {y >= 0 : y A >= (1,0,0,0,0)} for the global program."""
    d = 5
    # constraints as a . y >= b
    cons: list[tuple[list[Fraction], Fraction]] = []
    for j in range(d):
        col = [Fraction(EPSZ_MATRIX[i][j]) for i in range(d)]
        cons.append((col, Fraction(1 if j == 0 else 0)))
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


def _neighbor_keys(graph: WeightedClumpGraph, layer: int, color: int) -> list[tuple[int, int]]:
    return [(c.layer, c.color) for c in graph.neighbors(layer, color)]


def min_order_lp(topology: WeightedClumpGraph, delta: int) -> MinOrderResult:
    """Minimum total weight putting every clump's weighted degree at or
    above delta, with all weights >= 1 and the root pinned to 1.

    Substituting weight = 1 + v reduces to v >= 0 with unit-coefficient
    covering rows.  The integer optimum comes from depth-first branch
    and bound on the most fractional variable; rounding the LP vertex
    up stays feasible, which seeds the incumbent.
    """
    if delta < 1:
        raise ValueError(f"delta={delta} must be positive")
    keys = [(c.layer, c.color) for c in topology.clumps()]
    num = len(keys)
    root = keys[0] if topology.rooted else None
    variables = [key for key in keys if key != root]
    index = {key: j for j, key in enumerate(variables)}

    lp = RationalLP(maximize=False, c=[Fraction(1)] * len(variables))
    feasible_rows = True
    for key in keys:
        nbrs = _neighbor_keys(topology, *key)
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

    sol = simplex_solve(lp)
    if sol.status != "optimal":
        raise ValueError(f"minimum-order program is {sol.status}")
    assert sol.value is not None and sol.x is not None
    lp_value = num + sol.value
    if num > ILP_CLUMP_LIMIT:
        return MinOrderResult(lp_value=lp_value, int_value=None, weights=None)

    incumbent = sum(ceil(v) for v in sol.x)
    best_x = [Fraction(ceil(v)) for v in sol.x]
    extra: list[Row] = []

    def branch() -> None:
        nonlocal incumbent, best_x
        probe = RationalLP(maximize=False, c=list(lp.c))
        probe.rows = list(lp.rows) + list(extra)
        s = simplex_solve(probe)
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
            branch()
            extra.pop()

    branch()
    weights = {key: 1 for key in keys}
    for key, v in zip(variables, best_x):
        weights[key] = 1 + int(v)
    return MinOrderResult(lp_value=lp_value, int_value=num + incumbent, weights=weights)


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


def extremal_search(delta: int, d_max: int, n_budget: int, k: int = 3) -> SearchResult:
    """Smallest blow-up order per diameter over canonical 3-colored layer
    topologies, via the minimum-order program on every pattern sequence.

    Topologies whose optimal weighting realizes a diameter other than
    its layer count are skipped; orders above n_budget are pruned and
    mark the result incomplete.
    """
    if k != 3:
        raise ValueError("the pattern grammar is specific to three colors")
    frontier: dict[int, int] = {}
    best_phi = Fraction(0)
    complete = True
    for depth in range(1, d_max + 1):
        for seq in _pattern_sequences(depth):
            topology = WeightedClumpGraph(3, [[(c, 1) for c in cols] for cols in seq])
            try:
                result = min_order_lp(topology, delta)
            except ValueError:
                continue
            if result.lp_value > n_budget:
                complete = False
                continue
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
