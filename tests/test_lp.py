import ast
import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

import clumplab
from clumplab import lp
from clumplab.constructions import counterexample_graph
from clumplab.core import WeightedClumpGraph, blow_up_diameter
from clumplab.lp import (
    RationalLP,
    _pattern_sequences,
    build_epsz_lp,
    dual_polytope_vertices,
    extremal_search,
    min_order_lp,
    simplex_solve,
)
from clumplab.sieve import GLOBAL_PROGRAM

from conftest import tight_rows


def test_single_variable():
    lp = RationalLP(True, [Fraction(1)])
    lp.add_row([1], "<=", 1)
    sol = simplex_solve(lp)
    assert sol.status == "optimal" and sol.value == 1


def test_two_variables_with_dual():
    lp = RationalLP(True, [Fraction(1), Fraction(1)])
    lp.add_row([1, 1], "<=", 1)
    sol = simplex_solve(lp)
    assert sol.value == 1
    assert sol.y == [Fraction(1)]


def test_infeasible_reported():
    lp = RationalLP(True, [Fraction(1)])
    lp.add_row([1], "<=", -1)
    assert simplex_solve(lp).status == "infeasible"


def test_unbounded_reported():
    lp = RationalLP(True, [Fraction(1)])
    lp.add_row([-1], "<=", 1)
    assert simplex_solve(lp).status == "unbounded"


def test_minimization_with_cover_rows():
    lp = RationalLP(False, [Fraction(1), Fraction(1)])
    lp.add_row([1, 2], ">=", 4)
    lp.add_row([2, 1], ">=", 4)
    sol = simplex_solve(lp)
    assert sol.value == Fraction(8, 3)
    assert sum(a * b for a, b in zip(sol.y, [4, 4])) == sol.value


def test_equality_rows():
    lp = RationalLP(True, [Fraction(2), Fraction(1)])
    lp.add_row([1, 1], "==", 3)
    lp.add_row([1, 0], "<=", 2)
    sol = simplex_solve(lp)
    assert sol.value == 5
    assert sol.x == [Fraction(2), Fraction(1)]


def test_global_program_optimum():
    sol = simplex_solve(build_epsz_lp())
    assert sol.status == "optimal"
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


def _satisfies(lhs: Fraction, sense: str, rhs: Fraction) -> bool:
    return {"<=": lhs <= rhs, ">=": lhs >= rhs, "==": lhs == rhs}[sense]


def _vertex_enumeration_optimum(lp: RationalLP) -> Fraction | None:
    """Brute-force oracle: maximum of the objective over all vertices of
    {x >= 0, rows}, assuming the optimum is attained at a vertex; None
    when no vertex is feasible."""
    n = len(lp.c)
    cons = [(list(coeffs), rhs) for coeffs, _, rhs in lp.rows]
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

    best = None
    for combo in itertools.combinations(cons, n):
        x = solve(list(combo))
        if x is None or any(v < 0 for v in x):
            continue
        if not all(
            _satisfies(sum(a * v for a, v in zip(coeffs, x)), sense, rhs)
            for coeffs, sense, rhs in lp.rows
        ):
            continue
        value = sum(c * v for c, v in zip(lp.c, x))
        if best is None or value > best:
            best = value
    return best


def _improving_ray(lp: RationalLP) -> bool:
    """Brute force: whether some r >= 0 with every row's lhs at r on its
    side of 0 (a direction of the feasible region) has c . r > 0."""
    n = len(lp.c)
    cone = RationalLP(True, list(lp.c))
    for coeffs, sense, _ in lp.rows:
        cone.add_row(coeffs, sense, 0)
    cone.add_row([1] * n, "<=", 1)
    return _vertex_enumeration_optimum(cone) > 0


def _random_rational(rng: random.Random, lo: int, hi: int) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.choice([1, 1, 1, 2, 3, 4, 6]))


def _random_program(rng: random.Random, n: int, rows: int, maximize: bool = True) -> RationalLP:
    """Non-integer data, all three senses, negative right-hand sides, and
    sometimes a multiple of row 0 as an equation, which can leave an
    artificial basic at level 0 for phase 1 to drive out (often by a
    negative pivot)."""
    lp = RationalLP(maximize, [_random_rational(rng, -2, 5) for _ in range(n)])
    for _ in range(rows):
        lp.add_row(
            [_random_rational(rng, -1, 4) for _ in range(n)],
            rng.choice(["<=", "<=", ">=", "=="]),
            _random_rational(rng, -3, 9),
        )
    if rng.random() < 0.2:
        coeffs, _, rhs = lp.rows[0]
        k = rng.choice([Fraction(2), Fraction(1, 2), Fraction(-3, 2)])
        lp.add_row([k * a for a in coeffs], "==", k * rhs)
    return lp


def test_simplex_matches_vertex_enumeration():
    # the first 120 programs are boxed, so no feasible vertex means
    # infeasible; the rest are not, and the ray oracle separates
    # unbounded from optimal
    rng = random.Random(4)
    statuses = []
    for trial in range(240):
        n = rng.randint(2, 4)
        lp = _random_program(rng, n, rng.randint(1, 4))
        if trial < 120:
            for j in range(n):
                lp.add_row([1 if i == j else 0 for i in range(n)], "<=", 10)
        sol = simplex_solve(lp)
        statuses.append(sol.status)
        best = _vertex_enumeration_optimum(lp)
        if best is None:
            assert sol.status == "infeasible"
            continue
        if trial >= 120 and _improving_ray(lp):
            assert sol.status == "unbounded"
            continue
        assert sol.status == "optimal"
        assert sol.value == best
        # dual feasibility: y_i >= 0 on <= rows, <= 0 on >= rows, A^T y >= c
        for yi, (_, sense, _) in zip(sol.y, lp.rows):
            assert {"<=": 1, ">=": -1, "==": 0}[sense] * yi >= 0
        for j in range(n):
            assert sum(yi * row[0][j] for yi, row in zip(sol.y, lp.rows)) >= lp.c[j]
    for status, least in (("optimal", 80), ("infeasible", 40), ("unbounded", 20)):
        assert statuses.count(status) >= least, (status, statuses.count(status))
    assert _vertex_enumeration_optimum(build_epsz_lp()) == Fraction(57, 23)


def _fraction_pivot(rows: list[list[Fraction]], r: int, c: int) -> None:
    inv = Fraction(1) / rows[r][c]
    rows[r] = pivot_row = [v * inv for v in rows[r]]
    for i, row in enumerate(rows):
        if i != r and row[c]:
            f = row[c]
            rows[i] = [a - f * b for a, b in zip(row, pivot_row)]


def _fraction_simplex(lp: RationalLP) -> tuple:
    """The simplex on a Fraction tableau, as simplex_solve ran before its
    tableau became integer: the same columns, Bland's rule and phases,
    kept as the oracle for (status, value, x, y)."""
    n = len(lp.c)
    m = len(lp.rows)
    obj = [Fraction(c) if lp.maximize else -Fraction(c) for c in lp.c]
    row_sign = [-1 if b < 0 else 1 for _, _, b in lp.rows]
    slack = [s * {"<=": 1, ">=": -1, "==": 0}[sense] for s, (_, sense, _) in zip(row_sign, lp.rows)]
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
    for i, (coeffs, _, b) in enumerate(lp.rows):
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
                z = [a - f * t for a, t in zip(z, tab[i])]
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
    obj_sign = 1 if lp.maximize else -1
    y = [-obj_sign * s * tab[m][col] for s, col in zip(row_sign, unit_col)]
    return ("optimal", value if lp.maximize else -value, x, y)


def _same_as_fraction_tableau(lp: RationalLP) -> str:
    sol = simplex_solve(lp)
    assert (sol.status, sol.value, sol.x, sol.y) == _fraction_simplex(lp)
    return sol.status


def test_integer_tableau_matches_fraction_tableau():
    rng = random.Random(8)
    statuses = [
        _same_as_fraction_tableau(
            _random_program(rng, rng.randint(1, 5), rng.randint(1, 5), rng.random() < 0.5)
        )
        for _ in range(2000)
    ]
    for status in ("optimal", "infeasible", "unbounded"):
        assert statuses.count(status) >= 200, (status, statuses.count(status))
    _same_as_fraction_tableau(build_epsz_lp())


@pytest.mark.parametrize("delta", [2, 5, 8])
def test_integer_tableau_matches_fraction_tableau_on_min_order(delta):
    solved = 0
    for seq in _pattern_sequences(4):
        try:
            _, _, program = lp._min_order_program(lp._unit_topology(seq), delta)
        except ValueError:
            continue
        assert _same_as_fraction_tableau(program) == "optimal"
        solved += 1
    assert solved > 0


def test_dual_polytope_and_perturbation():
    vertices = dual_polytope_vertices()
    assert vertices
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
        perturbed = RationalLP(True, list(lp.c))
        for coeffs, sense, rhs in lp.rows:
            h = Fraction(rng.randint(-1000, 1000), 10**6)
            perturbed.add_row(coeffs, sense, rhs + h)
        sol = simplex_solve(perturbed)
        assert sol.status == "optimal"
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
    calls = _count_calls(monkeypatch, "simplex_solve")
    result = min_order_lp(g, 5)
    assert result.lp_value == Fraction(15, 2) and result.int_value == 8
    assert calls[0] >= 2


def test_min_order_integral_root_is_solved_once(monkeypatch):
    g = WeightedClumpGraph(3, [[(0, 1)], [(1, 1)], [(0, 1)]])
    _, root = lp._relax(g, 2)
    assert all(v.denominator == 1 for v in root.x)
    calls = _count_calls(monkeypatch, "simplex_solve")
    min_order_lp(g, 2)
    assert calls == [1]


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
                topology = WeightedClumpGraph(3, [[(c, 1) for c in cols] for cols in seq])
                try:
                    result = min_order_lp(topology, delta)
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


def test_extremal_search_matches_reference():
    # depths are independent, so d_max = 3 covers every d_max <= 3, and
    # a larger d_max covers the smaller ones at its delta; each budget
    # below 60 drops some sequences, and 8 and 12 equal the frontier they
    # reach; (2, 5) and (5, 4) are bench menu points, also held to golden
    golden = _golden_search()
    points = [(2, 5, 60), (3, 4, 60), (5, 4, 60)]
    points += [(delta, 3, 60) for delta in (1, 4, 6, 7, 8)]
    points += [(2, 4, 5), (3, 3, 8), (5, 3, 12)]
    outcomes = {}
    for delta, d_max, n_budget in points:
        result = extremal_search(delta, d_max, n_budget)
        expected = _reference_search(delta, d_max, n_budget, outcomes)
        assert (result.frontier, result.best_phi, result.complete) == expected
        assert result.complete == (n_budget == 60)
        key = f"{delta},{d_max}"
        if n_budget == 60 and key in golden:
            assert _matches_golden(result, golden[key])


def test_extremal_search_prunes_by_lp_order(monkeypatch):
    sequences = sum(len(_pattern_sequences(depth)) for depth in range(1, 5))
    calls = _count_calls(monkeypatch, "blow_up_diameter")
    result = extremal_search(5, 4, 60)
    assert 4 * calls[0] < sequences == 174
    assert _matches_golden(result, _golden_search()["5,4"])


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
