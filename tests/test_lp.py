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
    perturbation_bound,
    simplex_solve,
)
from clumplab.sieve import GLOBAL_PROGRAM


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
    assert sol.tight_rows(build_epsz_lp()) == [0, 2, 3, 4]
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


def test_simplex_matches_vertex_enumeration():
    # mixed senses and negative right-hand sides exercise phase 1, row
    # negation and artificial drive-out; the box keeps every program
    # bounded, so no feasible vertex means infeasible
    rng = random.Random(4)
    statuses = []
    for _ in range(150):
        n = rng.randint(2, 4)
        lp = RationalLP(True, [Fraction(rng.randint(-2, 5)) for _ in range(n)])
        for _ in range(rng.randint(1, 4)):
            lp.add_row(
                [Fraction(rng.randint(-1, 4)) for _ in range(n)],
                rng.choice(["<=", "<=", ">=", "=="]),
                Fraction(rng.randint(-3, 9)),
            )
        if rng.random() < 0.2:  # a redundant equation leaves an artificial basic
            coeffs, _, rhs = lp.rows[0]
            lp.add_row([2 * a for a in coeffs], "==", 2 * rhs)
        for j in range(n):  # box to keep everything bounded
            lp.add_row([1 if i == j else 0 for i in range(n)], "<=", 10)
        sol = simplex_solve(lp)
        statuses.append(sol.status)
        best = _vertex_enumeration_optimum(lp)
        if best is None:
            assert sol.status == "infeasible"
            continue
        assert sol.status == "optimal"
        assert sol.value == best
        # dual feasibility: y_i >= 0 on <= rows, <= 0 on >= rows, A^T y >= c
        for yi, (_, sense, _) in zip(sol.y, lp.rows):
            assert {"<=": 1, ">=": -1, "==": 0}[sense] * yi >= 0
        for j in range(n):
            assert sum(yi * row[0][j] for yi, row in zip(sol.y, lp.rows)) >= lp.c[j]
    assert statuses.count("optimal") >= 50 and statuses.count("infeasible") >= 20
    assert _vertex_enumeration_optimum(build_epsz_lp()) == Fraction(57, 23)


def test_dual_polytope_and_perturbation():
    vertices = dual_polytope_vertices()
    assert vertices
    assert min(
        sum(a * b for a, (_, _, b) in zip(v, GLOBAL_PROGRAM)) for v in vertices
    ) == Fraction(57, 23)
    eps = Fraction(1, 1000)
    bound = perturbation_bound(eps)
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


def test_min_order_two_clumps():
    g = WeightedClumpGraph(3, [[(0, 1)], [(1, 1)]], rooted=False)
    result = min_order_lp(g, 3)
    assert result.lp_value == 6 and result.int_value == 6


def test_min_order_path_of_three():
    g = WeightedClumpGraph(3, [[(0, 1)], [(1, 1)], [(0, 1)]], rooted=False)
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


def test_min_order_integral_root_is_solved_once(monkeypatch):
    g = WeightedClumpGraph(3, [[(0, 1)], [(1, 1)], [(0, 1)]], rooted=False)
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


def test_extremal_search_matches_reference():
    # depths are independent, so d_max = 3 covers every d_max <= 3, and
    # d_max = 4 covers d_max = 3 at delta = 2, 3; each budget below 60
    # drops some sequences, and 8 and 12 equal the frontier they reach
    points = [(2, 4, 60), (3, 4, 60)]
    points += [(delta, 3, 60) for delta in (1, 4, 5, 6, 7, 8)]
    points += [(2, 4, 5), (3, 3, 8), (5, 3, 12)]
    outcomes = {}
    for delta, d_max, n_budget in points:
        result = extremal_search(delta, d_max, n_budget)
        expected = _reference_search(delta, d_max, n_budget, outcomes)
        assert (result.frontier, result.best_phi, result.complete) == expected
        assert result.complete == (n_budget == 60)


def test_extremal_search_prunes_by_lp_order(monkeypatch):
    golden = json.loads(
        (Path(__file__).parents[1] / "bench" / "golden.json").read_text()
    )["search"]["5,4"]
    sequences = sum(len(_pattern_sequences(depth)) for depth in range(1, 5))
    calls = _count_calls(monkeypatch, "blow_up_diameter")
    result = extremal_search(5, 4, 60)
    assert 4 * calls[0] < sequences == 174
    assert {str(d): n for d, n in result.frontier.items()} == golden["frontier"]
    assert result.best_phi == Fraction(golden["best_phi"])
    assert result.complete == golden["complete"]


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
