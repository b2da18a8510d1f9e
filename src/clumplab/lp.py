"""Exact rational linear programming for the small dense programs that
arise here, all in one form: maximize c.x subject to Ax <= b, x >= 0,
with b >= 0, solved by a one-phase simplex from the slack basis with
Bland's rule.  Also here: the five-variable global program, the minimum
order of a clump topology, and a pattern-sequence search for extremal
layer profiles.  Both of the last two take one path: the topology's
covering rows, each an int bitmask of free weights and a need, built
from layer color masks by one row builder (_mask_rows), their covering
program's optimum (_solve_covering), then branch and bound from it
(_branch_and_bound).  The search's walk keeps only each sequence's
bounds on that optimum (_order_bounds) and builds rows again only for
the sequences the bounds leave open; whether a sequence's blow-up
realizes its depth follows from the depth and the branch-and-bound
total alone, so no graph is built.  A covering program minimizes, so
it goes in as its packing dual (_packing_dual), which is in that form,
and its optimum is the dual's LPSolution with x and y exchanged: x the
free weights, y the duals of the covering rows and branch bounds.  A
branch bound is one more column of the packing dual, so each branch
node resumes the pivots from its parent's final tableau (_resume).

Programs go in as ints and Fractions, stored as given.  Inside, the
simplex tableau is Python ints over one positive common denominator,
updated by fraction-free (Bareiss) pivots, and an optimum comes out the
same way: integer numerators over one positive denominator, checked
exactly as a primal and dual pair, a resumed one on its own rows, before
it is returned.  The covering path (_solve_covering, _branch_and_bound,
min_order_lp's cap and extremal_search's budget, best and diameter
tests) works on those integers; Fraction appears only at the API edge:
LPSolution's value, x and y views, which min_order_lp's lp_value reads,
and extremal_search's best_phi.  There is no floating point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from operator import itemgetter, mul
from typing import AbstractSet, Mapping, Sequence

from .canonical import is_canonical_pair
# no lp code calls blow_up_diameter: the name stays bound here only
# because bench/tests/test_bench.py checks that the bench tracer wraps
# and restores it in lp as in core and cli (ROADMAP item 7)
from .core import WeightedClumpGraph, blow_up_diameter  # noqa: F401
from .sieve import GLOBAL_PROGRAM

Rational = int | Fraction
Row = tuple[list[Rational], Rational]  # coefficients, rhs
CoverRow = tuple[int, int]  # free-variable mask (bit j for free weight j), need


@dataclass
class RationalLP:
    """maximize c.x subject to coeffs.x <= rhs for every row, x >= 0.

    Every rhs is >= 0, so x = 0 is feasible and the slack basis starts
    the simplex.  Rows given to the constructor are checked as add_row
    checks them."""

    c: list[Rational]
    rows: list[Row] = field(default_factory=list)

    def __post_init__(self) -> None:
        rows, self.rows = self.rows, []
        for coeffs, rhs in rows:
            self.add_row(coeffs, rhs)

    def add_row(self, coeffs: list[Rational], rhs: Rational) -> None:
        if len(coeffs) != len(self.c):
            raise ValueError("coefficient count does not match variable count")
        if rhs < 0:
            raise ValueError(f"rhs {rhs} is negative: the slack basis would be infeasible")
        self.rows.append((list(coeffs), rhs))


@dataclass
class LPSolution:
    """An optimum as integer numerators over one denominator scale > 0:
    the value is value_num / scale, x[j] is x_num[j] / scale and the
    dual of row i is y_num[i] / scale.  value, x and y are their
    Fraction views.  _tableau, neither compared nor shown, is the final
    tableau, which _resume continues."""

    scale: int
    value_num: int
    x_num: list[int]
    y_num: list[int]  # dual numerators per row
    _tableau: _Tableau | None = field(default=None, compare=False, repr=False)

    @property
    def value(self) -> Fraction:
        return Fraction(self.value_num, self.scale)

    @property
    def x(self) -> list[Fraction]:
        return [Fraction(v, self.scale) for v in self.x_num]

    @property
    def y(self) -> list[Fraction]:
        return [Fraction(v, self.scale) for v in self.y_num]


def _integer_row(values: list[Rational]) -> tuple[list[int], int]:
    """values times the lcm of their denominators, and that lcm."""
    scale = 1
    for v in values:
        if v.denominator != 1:
            scale = lcm(scale, v.denominator)
    return [v.numerator * (scale // v.denominator) for v in values], scale


def _pivot(rows: list[list[int]], r: int, c: int, d: int) -> int:
    """One fraction-free (Bareiss) pivot on rows[r][c]; returns the new
    common denominator.

    The true matrix is rows / d before and rows / p after, p the pivot:
    row i becomes (row_i * p - row_i[c] * row_r) / d, which Sylvester's
    identity makes an exact division, and row r stays.  The denominator
    stays positive because p is: Bland's ratio test pivots only on a
    positive entry of rows over d > 0.  A row with row_i[c] = 0 is just
    scaled by p / d, and left as it is when p = d.
    """
    pivot_row = rows[r]
    p = pivot_row[c]
    for i, row in enumerate(rows):
        if i == r:
            continue
        f = row[c]
        if f:
            rows[i] = [(a * p - f * b) // d for a, b in zip(row, pivot_row)]
        elif p != d:
            rows[i] = [a * p // d for a in row]
    return p


@dataclass
class _Tableau:
    """The simplex tableau, tab over d > 0, of maximizing costs.x subject
    to a.x <= b for each (a, b) of rows, all ints, and x >= 0: a row per
    constraint, then the reduced costs; the structural columns, then a
    slack per row, then the rhs.  basis[i] is row i's basic column."""

    rows: list[tuple[list[int], int]]
    costs: list[int]
    tab: list[list[int]]
    basis: list[int]
    d: int


def simplex_solve(lp: RationalLP) -> LPSolution | None:
    """Dense one-phase simplex from the slack basis, Bland's rule; None
    when the program is unbounded.

    The tableau holds Python ints.  Each row is scaled by the lcm of its
    own denominators, with its slack entry left at 1 after the
    structural columns, so the starting basis is the identity, and the
    costs by the lcm of theirs; from then on the true tableau is tab / d
    for one common denominator d > 0 (see _pivot).  Bland's choices are
    those of the rational tableau, because scaling a row or a column by
    a positive factor keeps every ratio order and every reduced-cost
    sign.  No Fraction is made here: the optimum is returned as integer
    numerators over obj_scale * d, with the scaled program's final
    tableau.  _optimize pivots and proves the optimum on the scaled
    integer rows (_check_optimum), or raises ArithmeticError.
    """
    n = len(lp.c)
    m = len(lp.rows)
    scaled: list[tuple[list[int], int]] = []
    tab: list[list[int]] = []
    row_scale = []
    for i, (coeffs, b) in enumerate(lp.rows):
        ints, scale = _integer_row([*coeffs, b])
        scaled.append((ints[:n], ints[n]))
        row = ints[:n] + [0] * m + ints[n:]
        row[n + i] = 1
        tab.append(row)
        row_scale.append(scale)
    # the slacks cost 0, so the slack basis prices every column at its cost
    costs, obj_scale = _integer_row(lp.c)
    tab.append(costs + [0] * (m + 1))
    sol = _optimize(_Tableau(scaled, costs, tab, list(range(n, n + m)), 1))
    if sol is not None:
        # x is unchanged by the row scales, and the dual of a row is its
        # scale over obj_scale times the dual of the scaled row
        sol.scale *= obj_scale
        sol.x_num = [obj_scale * v for v in sol.x_num]
        sol.y_num = [scale * v for scale, v in zip(row_scale, sol.y_num)]
    return sol


def _optimize(t: _Tableau) -> LPSolution | None:
    """Bland's pivots on t, in place, from its primal feasible basis to
    an optimum over t.d, proved by _check_optimum on t's rows and
    carrying t; None when the program is unbounded.

    The last row holds the reduced costs c_j - c_B B^-1 A_j, scaled by
    d and kept up to date by every pivot; the duals are read off it."""
    tab, basis = t.tab, t.basis
    n, m = len(t.costs), len(basis)
    ncols = n + m
    while True:
        # Bland: the first improving column; basic columns price at 0
        z = tab[m]
        entering = next((j for j in range(ncols) if z[j] > 0), -1)
        if entering < 0:
            break
        # the least ratio rhs / entry over positive entries, compared by
        # cross-multiplication; ties go to the smallest basic column
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
            return None
        t.d = _pivot(tab, leaving, entering, t.d)
        basis[leaving] = entering

    # the cost row's rhs is -c_B x_B, and slack i costs 0, so its
    # reduced cost is -(c_B B^-1)_i
    x = [0] * n
    for i, b in enumerate(basis):
        if b < n:
            x[b] = tab[i][ncols]
    value = -z[ncols]
    y = [-v for v in z[n:ncols]]
    _check_optimum(t.rows, t.costs, t.d, value, x, y)
    return LPSolution(t.d, value, x, y, t)


def _check_optimum(
    rows: list[tuple[list[int], int]],
    costs: list[int],
    d: int,
    value: int,
    x: list[int],
    y: list[int],
) -> None:
    """Prove that x / d and y / d are optimal for maximizing costs.x
    subject to a.x <= b for every (a, b) of rows, x >= 0, with value / d
    the optimum: x >= 0 and every a.x <= b * d (primal feasible), y >= 0
    and A^T y >= costs * d (dual feasible), and costs.x = value = y.b,
    which weak duality makes optimal.  ArithmeticError otherwise."""
    if any(v < 0 for v in x):
        raise ArithmeticError("optimal x has a negative entry")
    if any(sum(map(mul, a, x)) > b * d for a, b in rows):
        raise ArithmeticError("optimal x breaks a row")
    if any(v < 0 for v in y):
        raise ArithmeticError("optimal y has a negative entry")
    dual = [0] * len(costs)  # A^T y
    for (a, _), v in zip(rows, y):
        if v:
            dual = [s + v * e for s, e in zip(dual, a)]
    if any(s < c * d for s, c in zip(dual, costs)):
        raise ArithmeticError("optimal y is below a cost")
    if sum(map(mul, costs, x)) != value or sum(b * v for (_, b), v in zip(rows, y)) != value:
        raise ArithmeticError("strong duality violated")


# -- the five-variable global program ------------------------------------


def build_epsz_lp() -> RationalLP:
    """Maximize phi over (phi, mu, psi, alpha1, alpha2) subject to the
    rows of sieve.GLOBAL_PROGRAM."""
    return RationalLP([1, 0, 0, 0, 0], [(list(coeffs), rhs) for _, coeffs, rhs in GLOBAL_PROGRAM])


# -- minimum order of a clump topology -----------------------------------


@dataclass
class MinOrderResult:
    """The minimum orders over fractional and integer weights, and
    weights: each clump (layer, color) to its weight in the optimal
    integer weighting branch and bound found, one of possibly several."""

    lp_value: Fraction
    int_value: int | None
    weights: dict[tuple[int, int], int] | None


ILP_CLUMP_LIMIT = 40


def min_order_lp(topology: WeightedClumpGraph, delta: int) -> MinOrderResult:
    """Minimum total weight putting every clump's weighted degree at or
    above delta, with all weights >= 1 and the root pinned to 1.

    Substituting weight = 1 + v reduces to v >= 0 with unit-coefficient
    covering rows; their relaxation gives lp_value and _branch_and_bound
    the integer optimum.  Above ILP_CLUMP_LIMIT clumps, int_value and
    weights are None when that would branch: when the rounded-up LP
    value is below the total of the rounded-up LP vertex.
    """
    if delta < 1:
        raise ValueError(f"delta={delta} must be positive")
    colors = [topology.colors_of_layer(i) for i in range(topology.diameter_index + 1)]
    rows = _covering_rows(colors, delta)
    root = _solve_covering(rows)
    lp_value = len(rows) + root.value
    value, x, d = root.value_num, root.x_num, root.scale
    if len(rows) > ILP_CLUMP_LIMIT and -(-value // d) < sum(-(-v // d) for v in x):
        return MinOrderResult(lp_value=lp_value, int_value=None, weights=None)
    total, free = _branch_and_bound(root)
    keys = [(i, c) for i, row in enumerate(topology.rows) for c in row]
    weights = dict(zip(keys, [1, *(1 + v for v in free)]))
    return MinOrderResult(lp_value=lp_value, int_value=len(rows) + total, weights=weights)


def _other_bits(mask: int, color: int) -> int:
    """The position bits, from the layer's first, of the clumps of layer
    mask (bit c for color c, one clump per color in ascending order)
    whose color is not color."""
    bits = (1 << mask.bit_count()) - 1
    if mask >> color & 1:
        bits ^= 1 << (mask & ((1 << color) - 1)).bit_count()
    return bits


def _mask_rows(
    other: Mapping[int, Sequence[int]], colors: Sequence[int],
    prev: int, cur: int, nxt: int, start: int, delta: int,
) -> list[CoverRow] | None:
    """The covering rows of the clumps of layer mask cur, in ascending
    color order colors, the first at bit start, between layers prev and
    nxt (0 for none); None when one with positive need has no free
    neighbor.  Bits number the clumps layer by layer from the root at bit
    0, and other[m][c] is _other_bits(m, c).  A clump's need is delta
    less its neighbors in the three layers, the root included, and its
    free mask is their bits shifted down past the root's."""
    before, at, after = other[prev], other[cur], other[nxt]
    below, above = start - prev.bit_count(), start + cur.bit_count()
    rows: list[CoverRow] = []
    for c in colors:
        bits = before[c] << below | at[c] << start | after[c] << above
        free, need = bits >> 1, delta - bits.bit_count()
        if need > 0 and not free:
            return None
        rows.append((free, need))
    return rows


def _covering_rows(colors: Sequence[AbstractSet[int]], delta: int) -> list[CoverRow]:
    """The covering rows of the layer color sets colors, by _mask_rows
    over a table of _other_bits for the masks of those sets: one per
    clump, layer by layer and by ascending color, holding the mask of
    the clump's neighbors among the free weights (bit j for free weight
    j, every clump after the root in the same order) and its need, delta
    less its neighbor count.  A clump of weight 1 + v has weighted
    degree neighbors + the sum of their v, so the row reads sum(v[j] for
    j in free) >= need.  ValueError when a clump with positive need has
    no free neighbor: no weighting reaches delta."""
    masks = [sum(1 << c for c in cols) for cols in colors]
    k = max(masks).bit_length()
    other = {m: [_other_bits(m, c) for c in range(k)] for m in {0, *masks}}
    rows: list[CoverRow] = []
    start = 0
    for cols, prev, cur, nxt in zip(colors, [0, *masks], masks, [*masks[1:], 0]):
        layer_rows = _mask_rows(other, sorted(cols), prev, cur, nxt, start, delta)
        if layer_rows is None:
            raise ValueError("topology cannot reach the degree bound")
        rows += layer_rows
        start += cur.bit_count()
    return rows


def _order_bounds(rows: list[CoverRow]) -> tuple[int, int]:
    """Integer bounds lower <= clumps + LP value <= upper on the minimum
    order of the covering rows, without a pivot, from one pass over the
    positive-need rows sorted by descending need, ties in row order.

    lower adds to the clump count the needs of rows with pairwise
    disjoint free masks, taken greedily in that order: as y_r = 1 on
    those rows and 0 elsewhere they are feasible for the packing dual
    (_packing_dual), as every variable lies in at most one of them, so
    by weak duality their total need is at most the LP value.

    upper adds the total of v[j] = max(0, the largest need of a row
    holding bit j), a feasible integer weighting: a row with positive
    need has a free neighbor j (else _covering_rows raised), and v[j]
    alone covers it; a row with need <= 0 holds for any v >= 0.  So
    upper bounds the LP value and the integer order both.  The first
    row in the pass to hold bit j has the largest need, so each row adds
    its need once per bit that no row before it holds.
    """
    lower = upper = used = covered = 0
    for free, need in sorted(rows, key=itemgetter(1), reverse=True):
        if need <= 0:
            break
        if not used & free:
            used |= free
            lower += need
        upper += need * (free & ~covered).bit_count()
        covered |= free
    return len(rows) + lower, len(rows) + upper


def _packing_dual(rows: list[CoverRow]) -> RationalLP:
    """The dual of minimizing the total free weight subject to the
    covering rows: maximize sum(need_r * y_r) over y >= 0, one column
    per row, subject to sum(y_r over the rows r whose mask has bit j) <=
    1 for every free variable j, so row j holds bit j of every mask.
    Every right-hand side is 1, so the program is in simplex_solve's
    form; its row duals are a vertex x of the covering program, of the
    same value.  A branch bound is one more column (_resume)."""
    matrix = [[free >> j & 1 for free, _ in rows] for j in range(len(rows) - 1)]
    return RationalLP([need for _, need in rows], [(row, 1) for row in matrix])


def _exchanged(sol: LPSolution | None) -> LPSolution | None:
    """A packing dual's optimum as its covering program's: x and y exchanged."""
    if sol is not None:
        sol = LPSolution(sol.scale, sol.value_num, sol.y_num, sol.x_num, sol._tableau)
    return sol


def _solve_covering(rows: list[CoverRow]) -> LPSolution:
    """The optimum of the covering rows, least total free weight: x
    holds the free weights and y the duals of the rows.  simplex_solve
    proves it: for the packing dual, dual feasibility is exactly weights
    >= 0 that meet every row (and bound, for _resume), and primal
    feasibility a y >= 0 whose signed sum on each free weight is <= 1."""
    sol = _exchanged(simplex_solve(_packing_dual(rows)))
    # every positive-need row has a free neighbor, as _covering_rows raises
    # on a dead row and the walk yields no dead sequence, so the program is
    # feasible and its packing dual bounded
    assert sol is not None
    return sol


def _resume(node: LPSolution, j: int, sign: int, b: int) -> LPSolution | None:
    """The covering optimum of node's program plus the branch bound sign
    * x_j >= sign * b, y ending in its dual; None when infeasible.

    The bound is a packing-dual column after the others, where a cold
    solve puts it, and enters nonbasic at 0, so node's optimal basis
    stays primal feasible and _optimize continues from a copy of it.
    The packing dual's data are ints, so its tableau is of the program
    itself: the slack columns hold d * B^-1, so the column's entry in row
    i is sign * tab[i][n + j], and the cost row's hold -d * y, so its
    reduced cost is d * sign * b + sign * z[n + j].  The optimum is proved
    on node's rows with the column added, as a cold solve's would be."""
    t = node._tableau
    assert t is not None
    n = len(t.costs)
    *body, z = t.tab
    tab = [row[:n] + [sign * row[n + j]] + row[n:] for row in body]
    tab.append(z[:n] + [sign * (t.d * b + z[n + j])] + z[n:])
    rows = [([*a, sign if i == j else 0], rhs) for i, (a, rhs) in enumerate(t.rows)]
    basis = [c + (c >= n) for c in t.basis]
    return _exchanged(_optimize(_Tableau(rows, [*t.costs, sign * b], tab, basis, t.d)))


def _branch_and_bound(root: LPSolution) -> tuple[int, list[int]]:
    """The integer optimum of a covering program as (total, free
    weights), by depth-first branch and bound on the most fractional
    variable from its relaxation root (_solve_covering).  Each child adds
    one bound to its parent's program and resumes from its parent's
    tableau (_resume): no node solves from the slack basis.  Rounding
    root's weights up stays feasible and seeds the incumbent, so when
    their total is the rounded-up LP value nothing branches.

    Only a node's value_num, x_num and scale d > 0 are read, all in
    integer arithmetic: the ceiling of a / d is -(-a // d), the floor
    a // d, and the distance of a / d from its nearest half-integer is
    |2 * (a mod d) - d| / 2d, so that numerator ranks the most fractional
    variable, ties to the smallest index."""
    best_x = [-(-v // root.scale) for v in root.x_num]
    incumbent = sum(best_x)

    def branch(node: LPSolution) -> None:
        nonlocal incumbent, best_x
        value, x, d = node.value_num, node.x_num, node.scale
        if -(-value // d) >= incumbent:
            return
        frac = [(abs(2 * (v % d) - d), j) for j, v in enumerate(x) if v % d]
        if not frac:  # integral, and below the incumbent by the test above
            incumbent = value // d
            best_x = [v // d for v in x]
            return
        _, j = min(frac)
        low = x[j] // d
        for sign, bound in ((-1, low), (1, low + 1)):
            child = _resume(node, j, sign, bound)
            if child is not None:
                branch(child)

    branch(root)
    return incumbent, best_x


# -- extremal search over canonical pattern sequences --------------------


@dataclass
class SearchResult:
    frontier: dict[int, int]  # diameter -> minimum order found
    best_phi: Fraction
    complete: bool


# per k = 3 layer mask: its colors, _other_bits by color, its canonical successors
_COLORS = {m: [c for c in range(3) if m >> c & 1] for m in range(8)}
_OTHER = {m: [_other_bits(m, c) for c in range(3)] for m in range(8)}
_SUCCESSORS = {
    a: [b for b in (1, 2, 4, 3, 5, 6, 7) if is_canonical_pair(3, {*_COLORS[a]}, {*_COLORS[b]})]
    for a in range(1, 8)
}


def _pattern_sequences(d_max: int, delta: int) -> list[tuple[int, int, int, list[int]]]:
    """The sequences extremal_search visits at depths 1 to d_max, each
    as (depth, lower, upper, masks): masks is a canonical sequence of 2
    to d_max + 1 layer color masks (bit c for color c) from the root
    layer 1 that is not a mirror and reaches the degree bound, and lower
    and upper are _order_bounds of the rows _covering_rows gives its
    colors.  The list is the preorder of one depth-first walk over
    successors in _SUCCESSORS order (1, 2, 4, 3, 5, 6, 7): a sequence
    comes before its extensions, and each depth's sequences keep the
    order of a walk of that depth alone.

    A stack frame is (sequence, the layer before its last, its last
    layer, that layer's first clump bit, the rows of every layer but the
    last, whether the prefix decides the swap); appending a layer
    completes the rows of the one before it (_mask_rows over _OTHER).
    A frame's rows and its final rows are bounded once, then dropped.  A
    mirror prefix is cut with all below it: the first layer holding just
    one of colors 1 and 2 (bits 1 and 2) decides whether swapping them
    gives a lexicographically smaller sequence, as it does for color 2.

    A dead sequence, whose final row (that of its last layer) has a
    clump with positive need and no free neighbor, is not yielded.  The
    cut applies only to the final row.  Under the pair rules a single
    layer shares no color with a layer beside it: rule (ii) would need
    the other layer to hold all three colors, which (i) forbids after a
    single and (iii) before one.  So every clump has a differently
    colored, hence free, neighbor in the layer after it, and in the
    layer before it unless that is the root; a layer of two or more
    colors gives each of its clumps one too.  A completed row never
    lacks one, and only a single-color layer 1 at depth 1 can be dead.
    """
    out: list[tuple[int, int, int, list[int]]] = []
    stack = [([1], 0, 1, 0, [], False)]
    while stack:
        seq, before, last, start, rows, decided = stack.pop()
        colors = _COLORS[last]
        if len(seq) > 1:
            final = _mask_rows(_OTHER, colors, before, last, 0, start, delta)
            if final is not None:
                out.append((len(seq) - 1, *_order_bounds(rows + final), seq))
        if len(seq) > d_max:
            continue
        after = start + len(colors)
        # pushed in reverse, so the children come off in _SUCCESSORS order
        for nxt in reversed(_SUCCESSORS[last]):
            swap_decided = decided
            if not decided and (nxt >> 1 ^ nxt >> 2) & 1:
                if nxt & 4:
                    continue
                swap_decided = True
            completed = _mask_rows(_OTHER, colors, before, last, nxt, start, delta)
            stack.append(([*seq, nxt], last, nxt, after, rows + completed, swap_decided))
    return out


def extremal_search(delta: int, d_max: int, n_budget: int) -> SearchResult:
    """Smallest blow-up order per diameter over 3-colored layer
    topologies whose consecutive layers pass is_canonical_pair, via the
    minimum-order program on every pattern sequence.

    Only the pair rules (i)-(iii) of canonical.py are enforced: rule
    (iv) constrains weights, and the optimal weights found here may break
    it, so a frontier graph need not pass check_canonical.

    A sequence's order is the clump count plus the minimum of its
    covering program.  One depth-first walk (_pattern_sequences) yields
    every depth's layer masks up to d_max, and skips a sequence that
    cannot reach the degree bound or whose 1 <-> 2 color swap is
    lexicographically smaller.  Each comes with integer bounds lower <=
    LP order <= upper (_order_bounds) from its rows, which the walk does
    not keep, the LP order being the clump count plus the LP value.  One
    sort puts the sequences by depth, then by ascending lower bound, ties
    in walk order, and one loop takes them.  With best the least order
    found so far at the sequence's depth:

    - one whose lower bound exceeds n_budget has an LP order above it,
      so it is dropped and marks the result incomplete;
    - one whose upper bound fits n_budget is skipped when its lower
      bound reaches best;
    - any other has its rows rebuilt from its masks (_covering_rows)
      and is relaxed (_solve_covering, through the packing dual).  It
      is dropped, marking the result incomplete, when its LP order
      exceeds n_budget, and skipped when the rounded-up LP order
      reaches best, as it does when the lower bound does.  Otherwise it
      goes to _branch_and_bound from that relaxation, uncapped, the path
      min_order_lp takes too, and its order counts only when its blow-up
      diameter is the depth.  That diameter is max(depth, 2) when some
      clump weighs at least 2, else the depth (core.blow_up_diameter).
      The root weighs 1 and free weight v is a clump of weight 1 + v,
      with v >= 0 as _check_optimum proves, so the diameter is the depth
      exactly when the depth is at least 2 or the integer total of the
      free weights is 0.  The LP value comes as a numerator over a
      denominator d > 0, so the budget and best tests compare ints
      multiplied through by d.

    The result is that of refining every sequence:

    - any integer order is at least ceil(LP order), which is at least
      the lower bound, so no skipped sequence can lower best; the
      frontier keeps the minimum order per depth, and best_phi at each
      depth comes from that minimum;
    - a sequence is dropped exactly when its LP order exceeds n_budget:
      the lower bound is at most that order, the upper bound at least
      it, and every other sequence is relaxed; so complete is unchanged;
    - the root has color 0, and is_canonical_pair depends only on set
      sizes, so the swap maps canonical sequences onto canonical ones
      whose program is the same up to a permutation of rows and
      variables: the same feasibility, LP value and integer order, and
      so the same diameter test, which reads only the depth and that
      order.
    """
    if delta < 1:
        raise ValueError(f"delta={delta} must be positive")
    if d_max < 1:
        raise ValueError(f"d_max={d_max} must be positive")
    if n_budget < 1:
        raise ValueError(f"n_budget={n_budget} must be positive")
    frontier: dict[int, int] = {}
    complete = True
    walk = _pattern_sequences(d_max, delta)
    walk.sort(key=itemgetter(0, 1))  # by depth, then lower bound, ties in walk order
    for depth, lower, upper, seq in walk:
        if lower > n_budget:
            complete = False
            continue
        best = frontier.get(depth)
        if best is not None and lower >= best and upper <= n_budget:
            continue
        rows = _covering_rows([_COLORS[m] for m in seq], delta)
        root = _solve_covering(rows)
        value, d = root.value_num, root.scale
        if value > (n_budget - len(rows)) * d:
            complete = False
            continue
        if best is not None and value > (best - len(rows) - 1) * d:
            continue
        total, _ = _branch_and_bound(root)
        order = len(rows) + total
        if (depth > 1 or not total) and (best is None or order < best):
            frontier[depth] = order
    best_phi = max(
        (Fraction(depth * delta, order) for depth, order in frontier.items()),
        default=Fraction(0),
    )
    return SearchResult(frontier=frontier, best_phi=best_phi, complete=complete)
