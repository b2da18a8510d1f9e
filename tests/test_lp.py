import ast
import itertools
import json
import math
import random
import tracemalloc
from fractions import Fraction
from operator import mul
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import clumplab
from clumplab import lp
from clumplab.canonical import is_canonical_pair
from clumplab.constructions import counterexample_graph, eppt_even, eppt_odd
from clumplab.core import WeightedClumpGraph, blow_up_diameter, min_weighted_degree
from clumplab.lp import (
    LPSolution,
    RationalLP,
    build_epsz_lp,
    extremal_search,
    min_order_lp,
    simplex_solve,
)
from clumplab.sieve import GLOBAL_PROGRAM

from conftest import clumps, neighbors, tight_rows


class Program(NamedTuple):
    """A general LP for the oracles below: optimize c.x subject to rows
    (coefficients, sense, rhs) with sense one of <=, >=, ==, and x >= 0."""

    maximize: bool
    c: list
    rows: list


def _program(lp: RationalLP) -> Program:
    """lp as a Program: maximize over its <= rows."""
    return Program(True, lp.c, [(coeffs, "<=", rhs) for coeffs, rhs in lp.rows])


def test_single_variable():
    sol = simplex_solve(RationalLP([Fraction(1)], [([1], 1)]))
    assert sol is not None and sol.value == 1


def test_two_variables_with_dual():
    sol = simplex_solve(RationalLP([Fraction(1), Fraction(1)], [([1, 1], 1)]))
    assert sol.value == 1
    assert sol.y == [Fraction(1)]


def test_infeasible_reported():
    # the slack basis must be feasible, so a negative rhs is refused when
    # the row goes in, through add_row or the constructor, as is a row of
    # the wrong length; a zero rhs is in the form
    lp = RationalLP([Fraction(1)])
    with pytest.raises(ValueError, match="negative"):
        lp.add_row([1], -1)
    with pytest.raises(ValueError, match="negative"):
        RationalLP([1], [([1], Fraction(-1, 3))])
    with pytest.raises(ValueError, match="count"):
        lp.add_row([1, 1], 1)
    with pytest.raises(ValueError, match="count"):
        RationalLP([1, 0], [([1], 1)])
    assert lp.rows == []
    lp.add_row([1], 0)
    assert simplex_solve(lp).value == 0
    # build_epsz_lp's smallest rhs is 1, so every perturbed program of
    # test_dual_polytope_and_perturbation stays in the form and solves
    epsz = build_epsz_lp()
    assert min(rhs for _, rhs in epsz.rows) == 1
    lowered = RationalLP(epsz.c, [(coeffs, rhs - Fraction(1, 1000)) for coeffs, rhs in epsz.rows])
    assert simplex_solve(lowered) is not None


def test_unbounded_reported():
    assert simplex_solve(RationalLP([Fraction(1)], [([-1], 1)])) is None


def test_global_program_optimum():
    sol = simplex_solve(build_epsz_lp())
    assert sol is not None
    assert sol.value == Fraction(57, 23)
    assert sol.x == [
        Fraction(57, 23),
        Fraction(0),
        Fraction(13, 23),
        Fraction(17, 23),
        Fraction(6, 23),
    ]
    assert tight_rows(build_epsz_lp(), sol.x) == [0, 2, 3, 4]
    assert sum(a * b for a, (_, _, b) in zip(sol.y, GLOBAL_PROGRAM)) == Fraction(57, 23)


def test_simplex_checks_strong_duality(monkeypatch):
    # pivots that leave the objective entry a unit off make every Bland
    # choice as before, so only y . b = value can see it
    inner = lp._pivot

    def drifting(rows, r, c, d):
        d = inner(rows, r, c, d)
        rows[-1][-1] -= 1
        return d

    assert simplex_solve(build_epsz_lp()) is not None
    monkeypatch.setattr(lp, "_pivot", drifting)
    with pytest.raises(ArithmeticError, match="strong duality"):
        simplex_solve(build_epsz_lp())


def _satisfies(lhs: Fraction, sense: str, rhs: Fraction) -> bool:
    return {"<=": lhs <= rhs, ">=": lhs >= rhs, "==": lhs == rhs}[sense]


def _vertices(program: Program) -> set[tuple[Fraction, ...]]:
    """Brute-force oracle: every vertex of {x >= 0, rows}, each the
    solution of n of the constraints taken as equations."""
    n = len(program.c)
    cons = [(list(coeffs), rhs) for coeffs, _, rhs in program.rows]
    for j in range(n):
        cons.append(([Fraction(1 if i == j else 0) for i in range(n)], Fraction(0)))

    def solve(rows):
        mat = [list(r[0]) + [r[1]] for r in rows]
        for col in range(n):
            piv = next((r for r in range(col, n) if mat[r][col] != 0), None)
            if piv is None:
                return None
            mat[col], mat[piv] = mat[piv], mat[col]
            inv = Fraction(1) / mat[col][col]
            mat[col] = [v * inv for v in mat[col]]
            for r in range(n):
                if r != col and mat[r][col]:
                    f = mat[r][col]
                    mat[r] = [a - f * b for a, b in zip(mat[r], mat[col])]
        return [mat[r][n] for r in range(n)]

    vertices = set()
    for combo in itertools.combinations(cons, n):
        x = solve(list(combo))
        if x is None or any(v < 0 for v in x):
            continue
        if all(
            _satisfies(sum(a * v for a, v in zip(coeffs, x)), sense, rhs)
            for coeffs, sense, rhs in program.rows
        ):
            vertices.add(tuple(x))
    return vertices


def _vertex_enumeration_optimum(
    program: Program, vertices: set[tuple[Fraction, ...]] | None = None
) -> Fraction | None:
    """Maximum of the objective over the vertices of program (computed
    when not given), assuming the optimum is attained at a vertex; None
    when no vertex is feasible."""
    if vertices is None:
        vertices = _vertices(program)
    return max((sum(c * v for c, v in zip(program.c, x)) for x in vertices), default=None)


def _improving_ray(program: Program) -> bool:
    """Brute force: whether some r >= 0 with every row's lhs at r on its
    side of 0 (a direction of the feasible region) has c . r > 0."""
    n = len(program.c)
    cone = [(coeffs, sense, 0) for coeffs, sense, _ in program.rows]
    cone.append(([1] * n, "<=", 1))
    return _vertex_enumeration_optimum(Program(True, program.c, cone)) > 0


def _random_rational(rng: random.Random, lo: int, hi: int) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.choice([1, 1, 1, 2, 3, 4, 6]))


def _over_scale(sol: LPSolution) -> tuple[Fraction, list[Fraction], list[Fraction]]:
    """sol's value, x and y, each numerator over the positive scale."""
    assert sol.scale > 0
    return (
        Fraction(sol.value_num, sol.scale),
        [Fraction(v, sol.scale) for v in sol.x_num],
        [Fraction(v, sol.scale) for v in sol.y_num],
    )


def _has_rational_data(lp: RationalLP) -> bool:
    """Whether some cost and some row are not all integers, so that the
    objective scale and a row scale of simplex_solve exceed 1."""
    return any(Fraction(c).denominator != 1 for c in lp.c) and any(
        Fraction(v).denominator != 1 for coeffs, rhs in lp.rows for v in (*coeffs, rhs)
    )


def _random_program(rng: random.Random, n: int, rows: int) -> RationalLP:
    """Non-integer data of both signs but right-hand sides >= 0, some of
    them 0, and sometimes a positive multiple of row 0, which makes a
    degenerate vertex and ties in the ratio test for Bland's rule."""
    lp = RationalLP([_random_rational(rng, -2, 5) for _ in range(n)])
    for _ in range(rows):
        lp.add_row([_random_rational(rng, -1, 4) for _ in range(n)], _random_rational(rng, 0, 9))
    if rng.random() < 0.2:
        coeffs, rhs = lp.rows[0]
        k = rng.choice([Fraction(2), Fraction(1, 2)])
        lp.add_row([k * a for a in coeffs], k * rhs)
    return lp


def test_simplex_matches_vertex_enumeration():
    # the first 120 programs are boxed, so they have an optimum; the rest
    # are not, and the ray oracle separates unbounded from optimal
    rng = random.Random(4)
    outcomes = []
    rational = 0
    for trial in range(240):
        n = rng.randint(2, 4)
        lp = _random_program(rng, n, rng.randint(1, 4))
        if trial < 120:
            for j in range(n):
                lp.add_row([1 if i == j else 0 for i in range(n)], 10)
        sol = simplex_solve(lp)
        outcomes.append(sol is None)
        if trial >= 120 and _improving_ray(_program(lp)):
            assert sol is None
            continue
        assert sol is not None
        value, x, y = _over_scale(sol)
        vertices = _vertices(_program(lp))
        assert value == sol.value == _vertex_enumeration_optimum(_program(lp), vertices)
        assert tuple(x) in vertices and x == sol.x
        # dual feasibility, y >= 0 and A^T y >= c, and y . b = value
        # make y a dual optimum
        assert all(yi >= 0 for yi in y) and y == sol.y
        for j in range(n):
            assert sum(yi * row[0][j] for yi, row in zip(y, lp.rows)) >= lp.c[j]
        assert sum(yi * rhs for yi, (_, rhs) in zip(y, lp.rows)) == value
        rational += _has_rational_data(lp)
    assert outcomes.count(False) >= 80 and outcomes.count(True) >= 20, outcomes.count(True)
    assert rational >= 80, rational
    assert _vertex_enumeration_optimum(_program(build_epsz_lp())) == Fraction(57, 23)


def _fraction_pivot(rows: list[list[Fraction]], r: int, c: int) -> None:
    # zero entries are skipped, as most of a covering program's are
    inv = Fraction(1) / rows[r][c]
    rows[r] = pivot_row = [v * inv if v else v for v in rows[r]]
    for i, row in enumerate(rows):
        if i != r and row[c]:
            f = row[c]
            rows[i] = [a - f * b if b else a for a, b in zip(row, pivot_row)]


def _fraction_simplex(program: Program) -> tuple:
    """The general two-phase simplex on a Fraction tableau: slack
    columns, then artificial ones for the rows the slack basis does not
    cover, Bland's rule in both phases.  On a program in simplex_solve's
    form it makes simplex_solve's choices on the rational tableau, so it
    is the oracle for (status, value, x, y) there, and for a minimizing
    covering program it is the primal that the packing dual must match."""
    n = len(program.c)
    m = len(program.rows)
    obj = [Fraction(c) if program.maximize else -Fraction(c) for c in program.c]
    row_sign = [-1 if b < 0 else 1 for _, _, b in program.rows]
    slack = [s * {"<=": 1, ">=": -1, "==": 0}[sense] for s, (_, sense, _) in zip(row_sign, program.rows)]
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
    tab = []
    for i, (coeffs, _, b) in enumerate(program.rows):
        row = [row_sign[i] * Fraction(a) for a in coeffs] + [Fraction(0)] * (ncols - n)
        row.append(row_sign[i] * Fraction(b))
        if slack[i]:
            row[slack_col[i]] = Fraction(slack[i])
        if art_col[i] >= 0:
            row[art_col[i]] = Fraction(1)
        tab.append(row)
    tab.append([Fraction(0)] * (ncols + 1))
    unit_col = [a if a >= 0 else s for a, s in zip(art_col, slack_col)]
    basis = list(unit_col)
    artificials = {c for c in art_col if c >= 0}

    def price(costs):
        z = costs + [Fraction(0)]
        for i, b in enumerate(basis):
            f = z[b]
            if f:
                z = [a - f * t if t else a for a, t in zip(z, tab[i])]
        tab[m] = z

    def optimize(banned):
        while True:
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
            _fraction_pivot(tab, leaving, entering)
            basis[leaving] = entering

    if artificials:
        price([Fraction(-1) if j in artificials else Fraction(0) for j in range(ncols)])
        optimize(set())
        if tab[m][ncols] != 0:
            return ("infeasible", None, None, None)
        for i in range(m):
            if basis[i] in artificials:
                for j in range(ncols):
                    if j not in artificials and tab[i][j] != 0:
                        _fraction_pivot(tab, i, j)
                        basis[i] = j
                        break
    price(obj + [Fraction(0)] * (ncols - n))
    if optimize(artificials) == "unbounded":
        return ("unbounded", None, None, None)
    x = [Fraction(0)] * n
    for i, b in enumerate(basis):
        if b < n:
            x[b] = tab[i][ncols]
    value = sum(o * v for o, v in zip(obj, x))
    obj_sign = 1 if program.maximize else -1
    y = [-obj_sign * s * tab[m][col] for s, col in zip(row_sign, unit_col)]
    return ("optimal", value if program.maximize else -value, x, y)


def _same_as_fraction_tableau(lp: RationalLP) -> LPSolution | None:
    sol = simplex_solve(lp)
    want = _fraction_simplex(_program(lp))
    if sol is None:
        assert want == ("unbounded", None, None, None)
    else:
        assert ("optimal", *_over_scale(sol)) == want
        assert ("optimal", sol.value, sol.x, sol.y) == want
    return sol


def _positive_pivots(monkeypatch) -> list[int]:
    """Wrap lp._pivot with a check that it pivots on a positive entry
    over a positive denominator, which keeps every denominator positive;
    the list holds the pivot count."""
    pivots = [0]
    inner = lp._pivot

    def checked(rows, r, c, d):
        assert d > 0 and rows[r][c] > 0, (rows[r][c], d)
        pivots[0] += 1
        return inner(rows, r, c, d)

    monkeypatch.setattr(lp, "_pivot", checked)
    return pivots


def test_integer_tableau_matches_fraction_tableau(monkeypatch):
    pivots = _positive_pivots(monkeypatch)
    rng = random.Random(8)
    outcomes = []
    rational = 0
    for _ in range(2000):
        program = _random_program(rng, rng.randint(1, 5), rng.randint(1, 5))
        outcomes.append(_same_as_fraction_tableau(program) is None)
        rational += not outcomes[-1] and _has_rational_data(program)
    for unbounded in (False, True):
        assert outcomes.count(unbounded) >= 200, (unbounded, outcomes.count(unbounded))
    assert rational >= 200, rational
    _same_as_fraction_tableau(build_epsz_lp())
    assert pivots[0] > 2000


_SUBSETS = [frozenset(s) for r in (1, 2, 3) for s in itertools.combinations(range(3), r)]


def _pattern_sequences(depth: int) -> list[list[frozenset[int]]]:
    """Oracle: every canonical color-set sequence of depth + 1 layers
    from the root layer {0}, by plain recursion over all successors."""
    out = []
    successors = {a: [b for b in _SUBSETS if is_canonical_pair(3, a, b)] for a in _SUBSETS}

    def extend(seq: list[frozenset[int]]) -> None:
        if len(seq) == depth + 1:
            out.append(list(seq))
            return
        for nxt in successors[seq[-1]]:
            extend(seq + [nxt])

    extend([frozenset({0})])
    return out


def _swap_is_smaller(seq: list[frozenset[int]]) -> bool:
    """Oracle: whether exchanging colors 1 and 2 in seq gives a
    lexicographically smaller sequence, comparing layers as color
    bitmasks: the first layer that the swap changes holds exactly one of
    the two colors, and the swap makes it smaller when that color is 2."""
    for cols in seq:
        if (1 in cols) != (2 in cols):
            return 2 in cols
    return False


def _bits(mask: int) -> list[int]:
    """The set bits of mask in ascending order: the free weights of a mask
    row's free mask, or the colors of a layer mask."""
    return [j for j in range(mask.bit_length()) if mask >> j & 1]


def _covering_program(rows: list) -> Program:
    """The primal of the covering rows: minimize the total free weight."""
    n_free = len(rows) - 1
    rows = [(_bits(free), need) for free, need in rows]
    return Program(False, [1] * n_free, [
        ([1 if j in free else 0 for j in range(n_free)], ">=", need) for free, need in rows
    ])


def _unit_topology(seq: list[frozenset[int]]) -> WeightedClumpGraph:
    return WeightedClumpGraph(3, [[(c, 1) for c in cols] for cols in seq])


_PRIMAL: dict = {}  # _covering_value's memo, shared by the tests below


def _covering_value(rows: list) -> Fraction:
    """The LP value of the covering rows, from the two-phase Fraction
    simplex on the primal covering program; memoized, as several tests
    solve the same programs."""
    key = tuple(rows)
    if key not in _PRIMAL:
        status, value, _, _ = _fraction_simplex(_covering_program(rows))
        assert status == "optimal"
        _PRIMAL[key] = value
    return _PRIMAL[key]


def _lp_order(seq: list[frozenset[int]], delta: int) -> Fraction:
    """The sequence's minimum order over fractional weights."""
    rows = lp._covering_rows(seq, delta)
    return len(rows) + _covering_value(rows)


def _brute_min_order(seq: list[frozenset[int]], delta: int) -> int | None:
    """Oracle: the least total weight over weights 1..delta on the clumps
    after the root, the root weighing 1, that puts every clump's weighted
    degree at delta or more; None when none does.  A weight above delta
    never helps: each clump's need is below delta, so capping a weight at
    delta keeps every degree it fed at delta or more."""
    clumps = [(i, c) for i, cols in enumerate(seq) for c in sorted(cols)]
    near = [
        [j for j, (i2, c2) in enumerate(clumps) if abs(i2 - i) <= 1 and c2 != c]
        for i, c in clumps
    ]
    best = None
    for free in itertools.product(range(1, delta + 1), repeat=len(clumps) - 1):
        weights = (1, *free)
        total = sum(weights)
        if best is not None and total >= best:
            continue
        if all(sum(weights[j] for j in nb) >= delta for nb in near):
            best = total
    return best


@pytest.mark.parametrize("delta", [2, 3])
def test_min_order_matches_brute_force_enumeration(delta):
    # every canonical 3-colored topology of depth 1 to 3: min_order_lp's
    # integer order is the least total of an integer weighting reaching
    # delta, and the weights it returns reach delta at that total
    checked = 0
    for depth in (1, 2, 3):
        for seq in _pattern_sequences(depth):
            topology = _unit_topology(seq)
            brute = _brute_min_order(seq, delta)
            if brute is None:
                with pytest.raises(ValueError, match="cannot reach the degree bound"):
                    min_order_lp(topology, delta)
                continue
            result = min_order_lp(topology, delta)
            assert result.int_value == brute
            weighted = WeightedClumpGraph(3, [
                [(c, result.weights[i, c]) for c in sorted(cols)] for i, cols in enumerate(seq)
            ])
            assert weighted.total_weight == brute
            assert min_weighted_degree(weighted) >= delta
            assert result.lp_value <= brute
            checked += 1
    assert checked > 20


@pytest.mark.parametrize("delta", [2, 5, 8])
def test_integer_tableau_matches_fraction_tableau_on_min_order(delta):
    # the packing duals that min_order_lp and extremal_search solve, and
    # the value of each against its primal covering program
    solved = 0
    for seq in _pattern_sequences(4):
        try:
            rows = lp._covering_rows(seq, delta)
        except ValueError:
            continue
        assert _same_as_fraction_tableau(lp._packing_dual(rows)).value == _covering_value(rows)
        solved += 1
    assert solved > 0


@pytest.mark.parametrize("delta", [1, 2, 3, 5, 8])
def test_walk_yields_the_unmirrored_feasible_sequences(delta):
    # one walk over depths 1-5; each depth's slice keeps the order of a
    # walk of that depth alone, and the slices make up the whole list.
    # Each entry's bounds are those of its covering rows, and the rows
    # extremal_search rebuilds from its masks are _covering_rows'
    walked = lp._pattern_sequences(5, delta)
    sliced = 0
    for depth in range(1, 6):
        expected = []
        for seq in _pattern_sequences(depth):
            if _swap_is_smaller(seq):
                continue
            try:
                rows = lp._covering_rows(seq, delta)
            except ValueError:
                continue
            expected.append((depth, seq, rows, lp._order_bounds(rows)))
        part = [
            (
                d,
                [frozenset(_bits(m)) for m in seq],
                lp._covering_rows([lp._COLORS[m] for m in seq], delta),
                (lower, upper),
            )
            for d, lower, upper, seq in walked if len(seq) == depth + 1
        ]
        assert part == expected
        assert len(part) > 0
        sliced += len(part)
    assert sliced == len(walked)


def _assert_covering_roles(sol, rows: list, bounds: list) -> None:
    """sol holds the covering program's weights in x and its row and
    bound duals in y, over sol.scale: x >= 0 meets every row and bound,
    y >= 0 has one entry per row, then one per bound, and puts a signed
    sum of at most 1 on every free weight, and the two totals are the
    value."""
    d, x, y = sol.scale, sol.x_num, sol.y_num
    assert d > 0 and len(x) == len(rows) - 1 and len(y) == len(rows) + len(bounds)
    assert min(x) >= 0 and min(y) >= 0
    rows = [(_bits(free), need) for free, need in rows]
    assert all(sum(x[j] for j in free) >= need * d for free, need in rows)
    assert all(sign * x[j] >= sign * b * d for j, sign, b in bounds)
    load = [0] * len(x)
    for (free, _), v in zip(rows, y):
        for j in free:
            load[j] += v
    for (j, sign, _), v in zip(bounds, y[len(rows):]):
        load[j] += sign * v
    assert max(load) <= d
    covers = [need for _, need in rows] + [sign * b for _, sign, b in bounds]
    assert sum(x) == sol.value_num == sum(map(mul, covers, y))


@pytest.mark.parametrize("delta", [2, 5, 8])
def test_packing_dual_matches_the_covering_program(delta):
    # the value read off the dual equals the two-phase primal's, with and
    # without branch bounds, and the optimum holds the covering program's
    # weights in x and its duals in y; a primal-infeasible branch is a
    # dual None
    rng = random.Random(delta)
    statuses = []
    for seq in _pattern_sequences(4):
        try:
            rows = lp._covering_rows(seq, delta)
        except ValueError:
            continue
        root = lp._solve_covering(rows)
        assert root is not None and root.value == _covering_value(rows)
        _assert_covering_roles(root, rows, [])
        n_free = len(root.x_num)
        bounds = [
            (j, rng.choice([-1, 1]), rng.randint(0, delta))
            for j in rng.sample(range(n_free), min(3, n_free))
        ]
        primal = _covering_program(rows)
        for j, sign, b in bounds:
            primal.rows.append(([sign if i == j else 0 for i in range(n_free)], ">=", sign * b))
        status, want, _, _ = _fraction_simplex(primal)
        got = _resumed(root, bounds)
        statuses.append(status)
        if status == "infeasible":
            assert got is None
        else:
            assert got is not None and got.value == want
            _assert_covering_roles(got, rows, bounds)
    assert {"optimal", "infeasible"} <= set(statuses)


def _resumed(node, bounds: list):
    """node's covering program with the bounds added one by one, each
    resumed from the last (lp._resume); None once one is infeasible, as
    branch and bound never resumes from an infeasible node."""
    for bound in bounds:
        if node is None:
            return None
        node = lp._resume(node, *bound)
    return node


def _cold_bounded(rows: list, bounds: list):
    """Oracle: the covering optimum under the branch bounds, solved cold
    from the slack basis: the packing dual with one more column per
    bound, entry sign in row j and cost sign * b."""
    dual = lp._packing_dual(rows)
    for j, sign, b in bounds:
        dual.c.append(sign * b)
        for i, (coeffs, _) in enumerate(dual.rows):
            coeffs.append(sign if i == j else 0)
    return lp._exchanged(simplex_solve(dual))


_WALKS: dict = {}  # lp._pattern_sequences(5, delta) by delta, for the test below


@settings(max_examples=150, deadline=None)
@given(data=st.data(), delta=st.sampled_from([1, 2, 3, 5, 8]))
def test_resumed_nodes_match_cold_bounded_solves(data, delta):
    # a chain of one to three branch bounds, each next to the node's
    # weight; every resumed node is infeasible exactly when the cold
    # solve is, and otherwise has its value and the covering roles
    if delta not in _WALKS:
        _WALKS[delta] = lp._pattern_sequences(5, delta)
    *_, seq = data.draw(st.sampled_from(_WALKS[delta]))
    rows = lp._covering_rows([lp._COLORS[m] for m in seq], delta)
    node = lp._solve_covering(rows)
    bounds: list = []
    for _ in range(data.draw(st.integers(1, 3))):
        j = data.draw(st.integers(0, len(node.x_num) - 1))
        b = node.x_num[j] // node.scale + data.draw(st.integers(-1, 2))
        bounds.append((j, data.draw(st.sampled_from([-1, 1])), b))
        node = lp._resume(node, *bounds[-1])
        cold = _cold_bounded(rows, bounds)
        assert (node is None) == (cold is None)
        if node is None:
            break
        assert node.value == cold.value
        _assert_covering_roles(node, rows, bounds)


def _perturbed_check(monkeypatch, perturb) -> None:
    """Wrap lp._check_optimum so that it checks perturb(d, value, x, y),
    a changed (value, x, y), in place of the optimum that simplex_solve
    read off its tableau, over the tableau's denominator d."""
    inner = lp._check_optimum

    def perturbed(rows, costs, d, value, x, y):
        inner(rows, costs, d, *perturb(d, value, list(x), list(y)))

    monkeypatch.setattr(lp, "_check_optimum", perturbed)


def _shift(which: str, i: int, by: int):
    """A perturbation for _perturbed_check: the value (which "value") or
    entry i of x or y moved by `by` units of the denominator d."""
    def perturb(d, value, x, y):
        if which == "value":
            return value + by * d, x, y
        {"x": x, "y": y}[which][i] += by * d
        return value, x, y

    return perturb


def test_min_order_rejects_a_dual_that_misses_a_row(monkeypatch):
    # the relaxation is x = (1, 0) with the root's row tight; x[0]
    # lowered by 1/d misses that row, which is a column of the packing
    # dual, so the column check sees it before anything rounds
    def lower_first(d, value, x, y):
        y[0] -= 1
        return value, x, y

    g = WeightedClumpGraph(3, [[(0, 1)], [(1, 1)], [(0, 1)]])
    assert min_order_lp(g, 2).int_value == 4
    _perturbed_check(monkeypatch, lower_first)
    with pytest.raises(ArithmeticError, match="below a cost"):
        min_order_lp(g, 2)


@pytest.mark.parametrize("bounds, perturb", [
    # a weight raised past its bound keeps every covering row met
    ([(0, -1, 1)], lambda d, value, x, y: (value, x, [y[0] + d, *y[1:]])),
    # a negative weight that every row holding it can absorb
    ([], lambda d, value, x, y: (value, x, [3 * d, 3 * d, -1])),
])
def test_solve_covering_checks_bounds_and_signs(monkeypatch, bounds, perturb):
    # the covering vertex is the packing dual's y, so y's checks see
    # both, on a resumed node's rows as on the root's
    g = WeightedClumpGraph(3, [[(0, 1)], [(1, 1), (2, 1)], [(0, 1)]])
    rows = lp._covering_rows([g.colors_of_layer(i) for i in range(3)], 5)
    root = lp._solve_covering(rows)
    assert _resumed(root, bounds) is not None
    _perturbed_check(monkeypatch, perturb)
    with pytest.raises(ArithmeticError, match="optimal y"):
        if bounds:  # the root was proved before the perturbation
            _resumed(root, bounds)
        else:
            lp._solve_covering(rows)


@pytest.mark.parametrize("c, rows, perturb, message", [
    # maximize x0 subject to x0 + x1 <= 1: x = (1, 0), y = (1); x1 moved
    # either way keeps the value, so only its sign or the row sees it
    ([1, 0], [([1, 1], 1)], _shift("x", 1, -1), "x has a negative entry"),
    ([1, 0], [([1, 1], 1)], _shift("x", 1, 1), "x breaks a row"),
    # maximize x0 subject to x0 <= 1 and -x0 <= 0: y = (1, 0); the second
    # row's rhs is 0, so its dual moves y . b not at all
    ([1], [([1], 1), ([-1], 0)], _shift("y", 1, -1), "y has a negative entry"),
    ([1], [([1], 1), ([-1], 0)], _shift("y", 1, 1), "y is below a cost"),
    # a feasible x of a lower value, and a feasible y of a higher one
    ([1], [([1], 1)], _shift("x", 0, -1), "strong duality"),
    ([1], [([1], 1), ([1], 2)], _shift("y", 1, 1), "strong duality"),
    ([1], [([1], 1)], _shift("value", 0, 1), "strong duality"),
    # rational data: the rows and the costs are scaled before the check
    ([Fraction(1, 2), Fraction(1, 3)], [([Fraction(1, 4), 1], Fraction(3, 2))],
     _shift("x", 0, -1), "strong duality"),
])
def test_simplex_checks_its_certificate(monkeypatch, c, rows, perturb, message):
    # each perturbation of a real optimum fails exactly one clause
    assert simplex_solve(RationalLP(c, rows)) is not None
    _perturbed_check(monkeypatch, perturb)
    with pytest.raises(ArithmeticError, match=message):
        simplex_solve(RationalLP(c, rows))


def _neighbor_program(topology: WeightedClumpGraph, delta: int) -> Program | None:
    """The covering program built independently of _covering_rows, by
    walking each clump's neighbors; None when some clump with positive
    need has no neighbor but the root."""
    keys = [(i, c) for i, c, _ in clumps(topology)]
    index = {key: j for j, key in enumerate(keys[1:])}
    program = Program(False, [1] * len(index), [])
    for key in keys:
        nbrs = [(j, d) for j, d, _ in neighbors(topology, *key)]
        coeffs = [0] * len(index)
        for nb in nbrs:
            if nb in index:
                coeffs[index[nb]] += 1
        if delta - len(nbrs) > 0 and not any(coeffs):
            return None
        program.rows.append((coeffs, ">=", delta - len(nbrs)))
    return program


@pytest.mark.parametrize("delta", [1, 2, 5, 8])
def test_covering_rows_match_the_neighbor_walk(delta):
    infeasible = 0
    for depth in range(1, 5):
        for seq in _pattern_sequences(depth):
            topology = _unit_topology(seq)
            oracle = _neighbor_program(topology, delta)
            if oracle is None:
                infeasible += 1
                with pytest.raises(ValueError):
                    lp._covering_rows(seq, delta)
                with pytest.raises(ValueError):
                    min_order_lp(topology, delta)
                continue
            program = _covering_program(lp._covering_rows(seq, delta))
            assert (program.c, program.rows) == (oracle.c, oracle.rows)
    assert (infeasible > 0) == (delta > 1)


@pytest.mark.parametrize("delta", [2, 5, 8])
def test_order_bounds_bracket_the_lp_value(delta):
    checked = 0
    for depth in range(1, 5):
        for seq in _pattern_sequences(depth):
            try:
                rows = lp._covering_rows(seq, delta)
            except ValueError:
                continue
            lower, upper = lp._order_bounds(rows)
            assert lower <= _lp_order(seq, delta) <= upper
            checked += 1
            if depth <= 3:
                # upper is an integer weighting, so it bounds the integer order too
                assert min_order_lp(_unit_topology(seq), delta).int_value <= upper
    assert checked > 0


def _list_order_bounds(rows: list) -> tuple[int, int]:
    """_order_bounds as it was on rows of free-index lists: the reference
    the mask version must equal."""
    cover = [0] * (len(rows) - 1)
    for free, need in rows:
        for j in free:
            if need > cover[j]:
                cover[j] = need
    lower = 0
    used: set[int] = set()
    for free, need in sorted(rows, key=lambda row: -row[1]):
        if need <= 0:
            break
        if used.isdisjoint(free):
            used.update(free)
            lower += need
    return len(rows) + lower, len(rows) + sum(cover)


@pytest.mark.parametrize("delta", [1, 2, 3, 5, 8])
def test_mask_order_bounds_match_the_list_bounds(delta):
    # the bounds are the search's sort keys: equal bounds keep its order,
    # the sequences it relaxes and its simplex counts
    walked = lp._pattern_sequences(5, delta)
    for _, lower, upper, seq in walked:
        rows = lp._covering_rows([lp._COLORS[m] for m in seq], delta)
        index_rows = [(_bits(free), need) for free, need in rows]
        assert (lower, upper) == lp._order_bounds(rows) == _list_order_bounds(index_rows)
    assert len(walked) > 300


def _swap(seq):
    """seq with colors 1 and 2 exchanged."""
    return [frozenset(-c % 3 for c in cols) for cols in seq]


def _key(seq):
    return tuple(tuple(sorted(cols)) for cols in seq)


def test_color_swap_pairs_up_sequences():
    for depth in range(1, 6):
        seqs = _pattern_sequences(depth)
        assert sorted(_key(_swap(seq)) for seq in seqs) == sorted(map(_key, seqs))
        # the search visits exactly one sequence of each {seq, swap} orbit
        orbits = {frozenset({_key(seq), _key(_swap(seq))}) for seq in seqs}
        visited = [seq for seq in seqs if not _swap_is_smaller(seq)]
        assert len(visited) == len(orbits) < len(seqs)
        assert {frozenset({_key(seq), _key(_swap(seq))}) for seq in visited} == orbits
    for seq in _pattern_sequences(3):
        for delta in (2, 5):
            try:
                value = _lp_order(seq, delta)
            except ValueError:
                with pytest.raises(ValueError):
                    _lp_order(_swap(seq), delta)
                continue
            assert _lp_order(_swap(seq), delta) == value


def test_dual_polytope_and_perturbation():
    # the dual of build_epsz_lp(): {y >= 0 : y A >= c}, minimizing y . b
    program = build_epsz_lp()
    dual = Program(False, [rhs for _, rhs in program.rows], [
        ([coeffs[j] for coeffs, _ in program.rows], ">=", cj) for j, cj in enumerate(program.c)
    ])
    vertices = _vertices(dual)
    F = Fraction
    assert vertices == {
        (0, 1, 0, 0, 1),
        (F(3, 37), F(1, 37), F(3, 37), 0, F(1, 37)),
        (F(3, 23), 0, F(3, 46), F(3, 46), F(1, 46)),
        (F(1, 6), 0, F(1, 12), 0, 0),
        (F(3, 10), 0, 0, F(3, 10), F(1, 10)),
        (F(1, 3), 0, 0, F(1, 3), 0),
    }
    assert min(
        sum(a * b for a, (_, _, b) in zip(v, GLOBAL_PROGRAM)) for v in vertices
    ) == Fraction(57, 23)
    # a shift of at most eps in every rhs moves the optimum by at most
    # eps times the largest L1 norm over the dual polytope's vertices
    eps = Fraction(1, 1000)
    bound = max(sum(abs(v) for v in vertex) for vertex in vertices) * eps
    rng = random.Random(11)
    for _ in range(12):
        lp = build_epsz_lp()
        perturbed = RationalLP(list(lp.c))
        for coeffs, rhs in lp.rows:
            h = Fraction(rng.randint(-1000, 1000), 10**6)
            perturbed.add_row(coeffs, rhs + h)
        sol = simplex_solve(perturbed)
        assert sol is not None
        assert abs(sol.value - Fraction(57, 23)) <= bound


def test_min_order_path_of_three():
    g = WeightedClumpGraph(3, [[(0, 1)], [(1, 1)], [(0, 1)]])
    result = min_order_lp(g, 2)
    assert result.int_value == 4
    assert result.weights is not None
    assert sorted(result.weights.values()) == [1, 1, 2]


def _count_calls(monkeypatch, name: str) -> list[int]:
    """Wrap lp.<name> with a call counter; the list holds the count."""
    calls = [0]
    inner = getattr(lp, name)

    def counted(*args):
        calls[0] += 1
        return inner(*args)

    monkeypatch.setattr(lp, name, counted)
    return calls


def test_min_order_two_clumps(monkeypatch):
    # the two middle clumps split a fractional optimum, so branch and
    # bound solves at least one program past the relaxation
    g = WeightedClumpGraph(3, [[(0, 1)], [(1, 1), (2, 1)], [(0, 1)]])
    roots = _count_calls(monkeypatch, "simplex_solve")
    resumes = _count_calls(monkeypatch, "_resume")
    result = min_order_lp(g, 5)
    assert result.lp_value == Fraction(15, 2) and result.int_value == 8
    assert roots[0] + resumes[0] >= 2


def test_min_order_integral_root_is_solved_once(monkeypatch):
    g = WeightedClumpGraph(3, [[(0, 1)], [(1, 1)], [(0, 1)]])
    rows = lp._covering_rows([g.colors_of_layer(i) for i in range(3)], 2)
    root = lp._solve_covering(rows)
    assert root is not None and all(v % root.scale == 0 for v in root.x_num)
    calls = _count_calls(monkeypatch, "simplex_solve")
    resumes = _count_calls(monkeypatch, "_resume")
    min_order_lp(g, 2)
    assert calls == [1] and resumes == [0]


@pytest.mark.parametrize("r, delta, diam, min_delta, lp_value, int_value, resumed", [
    (2, 16, 20, 17, Fraction(325, 2), 164, 262),
    (2, 8, 20, 7, Fraction(135, 2), 69, 52),
])
def test_min_order_branches_by_resuming(
    monkeypatch, r, delta, diam, min_delta, lp_value, int_value, resumed
):
    # below the cap branch and bound runs; only the root is solved from
    # the slack basis, and every other node resumes its parent's
    # tableau, so a fallback to cold solves fails on the counts
    roots = _count_calls(monkeypatch, "simplex_solve")
    resumes = _count_calls(monkeypatch, "_resume")
    result = min_order_lp(eppt_even(r, delta, diam), min_delta)
    assert (result.lp_value, result.int_value) == (lp_value, int_value)
    assert (roots[0], resumes[0]) == (1, resumed)


@pytest.mark.parametrize("delta", [2, 5])
def test_min_order_weights_meet_the_degree_bound(delta):
    # the weights dict maps every clump, in clump order, to the integer
    # optimum's weight, and those weights reach the degree bound
    checked = 0
    for seq in itertools.chain.from_iterable(map(_pattern_sequences, range(1, 4))):
        topology = _unit_topology(seq)
        try:
            result = min_order_lp(topology, delta)
        except ValueError:
            continue
        keys = [(i, c) for i, c, _ in clumps(topology)]
        assert list(result.weights) == keys
        assert sum(result.weights.values()) == result.int_value >= result.lp_value
        weighted = WeightedClumpGraph(
            3, [[(c, result.weights[(i, c)]) for c in cols] for i, cols in enumerate(seq)]
        )
        assert min_weighted_degree(weighted) >= delta
        checked += 1
    assert checked > 0


def test_min_order_above_the_cap(monkeypatch):
    # above ILP_CLUMP_LIMIT clumps a relaxation whose rounded-up vertex
    # meets the rounded-up LP value gives what an uncapped run gives
    decided = [
        (eppt_odd(2, 5, 20), 5),
        (WeightedClumpGraph(3, [[(i % 2, 1)] for i in range(41)]), 1),
        (counterexample_graph(1, 4, 5), 4),
    ]
    capped = [min_order_lp(g, delta) for g, delta in decided]
    unknown = min_order_lp(eppt_even(2, 8, 28), 7)
    assert (unknown.lp_value, unknown.int_value, unknown.weights) == (92, None, None)
    monkeypatch.setattr(lp, "ILP_CLUMP_LIMIT", 10**9)
    assert capped == [min_order_lp(g, delta) for g, delta in decided]
    assert [(r.lp_value, r.int_value) for r in capped] == [(46, 46), (41, 41), (67, 67)]
    assert [len(clumps(g)) for g, _ in decided] == [41, 41, 45]
    assert len(clumps(eppt_even(2, 8, 28))) == 43


def test_min_order_family_topology():
    g = counterexample_graph(1, 4, 1)
    result = min_order_lp(g, 4)
    assert result.lp_value <= result.int_value <= 15


def test_min_order_infeasible_topology():
    g = WeightedClumpGraph(3, [[(0, 1)], [(1, 1)]])
    # the rooted graph pins the root to weight 1, so the second clump can
    # never reach degree 2
    with pytest.raises(ValueError):
        min_order_lp(g, 2)


def test_pattern_sequence_counts():
    counts = [len(_pattern_sequences(d)) for d in range(1, 7)]
    assert counts == [3, 10, 35, 126, 460, 1691]


def test_extremal_search_small_frontier():
    result = extremal_search(delta=2, d_max=3, n_budget=20)
    assert result.frontier == {1: 3, 2: 4, 3: 6}
    assert result.complete
    assert result.best_phi <= Fraction(5, 2)


def _brute_frontier(delta: int, d_max: int) -> dict[int, int]:
    """Oracle for extremal_search's frontier: the least order of a rooted
    3-colored clump graph of each depth 1..d_max whose minimum weighted
    degree is at least delta and whose blow-up diameter is its depth.
    It walks every rooted sequence of color sets, under the rooting rule
    alone (the root is one clump of weight 1, and a layer after a single
    avoids its color), with every integer weight 1..delta after the root;
    a weight above delta never helps, as capping it at delta keeps every
    degree it fed at delta or more.  A layer's degrees are final once the
    layer after it is placed, so a prefix is cut when one of them falls
    short, or when no depth it can reach has room below its best so far.
    Each closed prefix is checked through WeightedClumpGraph,
    min_weighted_degree and blow_up_diameter."""
    choices = [
        dict(zip(colors, weights))
        for r in (1, 2, 3)
        for colors in itertools.combinations(range(3), r)
        for weights in itertools.product(range(1, delta + 1), repeat=r)
    ]
    best: dict[int, int] = {}

    def reaches(above, row, below):
        # every clump of row sees each clump of another color in the
        # layers above, beside and below it
        return all(
            sum(w for layer in (above, row, below) for c2, w in layer.items() if c2 != c) >= delta
            for c in row
        )

    def extend(layers, total):
        depth = len(layers) - 1
        if depth and reaches(layers[-2], layers[-1], {}) and total < best.get(depth, math.inf):
            graph = WeightedClumpGraph(3, [row.items() for row in layers])
            if min_weighted_degree(graph) >= delta and blow_up_diameter(graph) == depth:
                best[depth] = total
        if all(total + d - depth >= best.get(d, math.inf) for d in range(depth + 1, d_max + 1)):
            return
        above = layers[-2] if depth else {}
        for row in choices:
            if len(layers[-1]) == 1 and layers[-1].keys() & row.keys():
                continue
            if reaches(above, layers[-1], row):
                extend([*layers, row], total + sum(row.values()))

    extend([{0: 1}], 1)
    return best


@pytest.mark.parametrize("delta, d_max", [(2, 6), (3, 5), (4, 3)])
def test_extremal_search_frontier_matches_a_brute_force_over_rooted_sequences(delta, d_max):
    # the frontier walks only sequences whose layer pairs pass the pair
    # rule; the brute force takes every rooted sequence, so the two agree
    # only if no other sequence is smaller: the frontier does not rest on
    # the canonical-form lemma at these points
    result = extremal_search(delta, d_max, n_budget=60)
    assert result.complete
    assert result.frontier == _brute_frontier(delta, d_max)


def test_extremal_search_budget_flag():
    result = extremal_search(delta=5, d_max=2, n_budget=4)
    assert not result.complete


def _reference_search(delta, d_max, n_budget, outcomes):
    """extremal_search as it was before the LP-order prune: min_order_lp
    and the diameter check on every pattern sequence.  outcomes memoizes
    each sequence's (lp_value, order, diameter), or None when the
    program is infeasible, across calls; none of it depends on the
    budget."""
    frontier = {}
    best_phi = Fraction(0)
    complete = True
    for depth in range(1, d_max + 1):
        for seq in _pattern_sequences(depth):
            key = (delta, tuple(seq))
            if key not in outcomes:
                try:
                    result = min_order_lp(_unit_topology(seq), delta)
                except ValueError:
                    outcomes[key] = None
                    continue
                weights = result.weights
                graph = WeightedClumpGraph(
                    3, [[(c, weights[(i, c)]) for c in cols] for i, cols in enumerate(seq)]
                )
                outcomes[key] = (result.lp_value, result.int_value, blow_up_diameter(graph))
            if outcomes[key] is None:
                continue
            lp_value, order, diameter = outcomes[key]
            if lp_value > n_budget:
                complete = False
                continue
            if diameter != depth:
                continue
            if depth not in frontier or order < frontier[depth]:
                frontier[depth] = order
            best_phi = max(best_phi, Fraction(depth * delta, order))
    return frontier, best_phi, complete


def _golden_search() -> dict:
    path = Path(__file__).parents[1] / "bench" / "golden.json"
    return json.loads(path.read_text())["search"]


def _matches_golden(result, golden: dict) -> bool:
    return (
        {str(d): n for d, n in result.frontier.items()} == golden["frontier"]
        and result.best_phi == Fraction(golden["best_phi"])
        and result.complete == golden["complete"]
    )


_OUTCOMES: dict = {}  # _reference_search's memo, shared by the tests below


def test_extremal_search_matches_reference():
    # depths are independent, so d_max = 3 covers every d_max <= 3, and
    # a larger d_max covers the smaller ones at its delta; each budget
    # below 60 drops some sequences, and 8 and 12 equal the frontier they
    # reach; at (8, 4, 20) some sequences fit the budget only below their
    # upper bound, so the walk solves their relaxation before sorting
    points = [(2, 5, 60), (3, 5, 60), (3, 4, 60), (4, 4, 60), (5, 4, 60), (6, 4, 60)]
    points += [(delta, 3, 60) for delta in (1, 4, 6, 7, 8)]
    points += [(2, 4, 5), (3, 3, 8), (5, 3, 12), (8, 4, 20)]
    for delta, d_max, n_budget in points:
        result = extremal_search(delta, d_max, n_budget)
        expected = _reference_search(delta, d_max, n_budget, _OUTCOMES)
        assert (result.frontier, result.best_phi, result.complete) == expected
        assert result.complete == (n_budget == 60)
    fits_below_upper = 0
    for seq in itertools.chain.from_iterable(map(_pattern_sequences, range(1, 5))):
        try:
            rows = lp._covering_rows(seq, 8)
        except ValueError:
            continue
        fits_below_upper += _lp_order(seq, 8) <= 20 < lp._order_bounds(rows)[1]
    assert fits_below_upper > 0


@settings(max_examples=40, deadline=None)
@given(delta=st.integers(1, 8), d_max=st.integers(1, 3), n_budget=st.integers(3, 40))
def test_extremal_search_matches_reference_on_random_points(delta, d_max, n_budget):
    result = extremal_search(delta, d_max, n_budget)
    expected = _reference_search(delta, d_max, n_budget, _OUTCOMES)
    assert (result.frontier, result.best_phi, result.complete) == expected


@pytest.mark.parametrize("point", sorted(_golden_search()))
def test_extremal_search_matches_golden(monkeypatch, point):
    pivots = _positive_pivots(monkeypatch)
    delta, d_max = map(int, point.split(","))
    assert _matches_golden(extremal_search(delta, d_max, 60), _golden_search()[point])
    assert pivots[0] > 0


def test_extremal_search_solves_few_relaxations(monkeypatch):
    # the bounds decide most sequences: at (5, 4) the walk yields 92 of
    # the 174, and 13 programs are solved, 5 relaxations from the slack
    # basis and 8 branch nodes resumed from their parent's tableau
    roots = _count_calls(monkeypatch, "simplex_solve")
    resumes = _count_calls(monkeypatch, "_resume")
    counts = {}
    for point in sorted(_golden_search()):
        roots[0] = resumes[0] = 0
        extremal_search(*map(int, point.split(",")), 60)
        counts[point] = (roots[0], roots[0] + resumes[0])
    assert counts == {"2,5": (5, 5), "3,5": (5, 5), "5,4": (5, 13), "6,4": (5, 5), "8,4": (11, 13)}


@pytest.mark.parametrize("point, sequences", [((5, 4), 92), ((2, 5), 327)])
def test_extremal_search_walks_once(monkeypatch, point, sequences):
    # one walk covers every depth, so no prefix is visited twice
    walked = []
    inner = lp._pattern_sequences

    def recorded(*args):
        walked.append(inner(*args))
        return walked[-1]

    monkeypatch.setattr(lp, "_pattern_sequences", recorded)
    extremal_search(*point, 60)
    assert [len(result) for result in walked] == [sequences]


def test_extremal_search_prunes_by_lp_order(monkeypatch):
    sequences = sum(len(_pattern_sequences(depth)) for depth in range(1, 5))
    calls = _count_calls(monkeypatch, "_branch_and_bound")
    result = extremal_search(5, 4, 60)
    assert 4 * calls[0] < sequences == 174
    assert _matches_golden(result, _golden_search()["5,4"])


def test_extremal_search_keeps_bounds_not_rows():
    # the walk bounds each sequence's rows and drops them, so the traced
    # peak is about 1.2 MB at (3, 7), against 3.3 MB when every walked
    # sequence kept its rows (Python 3.11)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = extremal_search(3, 7, 60)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert result.frontier == {2: 5, 3: 8, 4: 9, 5: 10, 6: 12, 7: 13}
    assert (result.best_phi, result.complete) == (Fraction(21, 13), True)
    assert peak < 1_500_000, peak


def _search_menu() -> tuple[tuple[int, int], ...]:
    """bench/generators.py's SEARCH_MENU, read from its source."""
    tree = ast.parse((Path(__file__).parents[1] / "bench" / "generators.py").read_text())
    return next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "SEARCH_MENU" for t in node.targets)
    )


def test_extremal_search_results_do_not_depend_on_call_order():
    # the bench's seed picks the order of the menu points, so no order of
    # calls may change a result; state kept on a function or a class,
    # which the module tables' sizes below do not show, would show here
    golden = _golden_search()
    menu = _search_menu()
    assert len(menu) == 4
    for order in itertools.permutations(menu):
        for delta, d_max in order:
            result = extremal_search(delta, d_max, 60)
            assert _matches_golden(result, golden[f"{delta},{d_max}"]), order


def _narrows_optional(test: ast.expr) -> bool:
    """`x is not None`, or an `and` of such tests."""
    if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And):
        return all(_narrows_optional(v) for v in test.values)
    return (
        isinstance(test, ast.Compare)
        and len(test.ops) == 1
        and isinstance(test.ops[0], ast.IsNot)
        and isinstance(test.comparators[0], ast.Constant)
        and test.comparators[0].value is None
    )


def test_source_asserts_only_narrow_optionals():
    # python -O strips asserts, so a real check must raise instead
    src = Path(clumplab.__file__).parent
    checks = [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert) and not _narrows_optional(node.test)
    ]
    assert checks == []
