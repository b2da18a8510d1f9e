import copy
import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clumplab import canonical, core
from clumplab.canonical import (
    CanonicalizationError,
    RewriteEntry,
    TransformLog,
    bfs_relayer,
    canonicalize,
    check_canonical,
    is_canonical_pair,
)
from clumplab.constructions import counterexample_graph, eppt_odd
from clumplab.core import (
    ClumpGraphError,
    SimpleGraph,
    WeightedClumpGraph,
    blow_up,
    layer_profile,
    min_weighted_degree,
    weight_rows,
    weighted_degree,
)

from conftest import clumps, random_layered_graph, random_layers


def resolve_k1_violation(graph: WeightedClumpGraph, i: int, delta: int) -> WeightedClumpGraph:
    """One property (iii) repair at layer i, audited like a canonicalize step."""
    layers = weight_rows(graph)
    canonical._resolve_k1(graph.k, layers, i)
    out = canonical._to_graph(graph.k, layers)
    canonical._audit(graph, out, delta)
    return out


def test_family_is_canonical():
    report = check_canonical(counterexample_graph(1, 4, 1))
    assert report.passes


def test_heavy_clump_between_singles_fails_iv():
    g = WeightedClumpGraph(3, [[(0, 1)], [(1, 2)], [(2, 2)], [(0, 2)]])
    report = check_canonical(g)
    assert any(prop == "iv" for _, prop in report.violations)


def test_full_palette_too_early_fails_iii():
    # (iii) puts a full palette at index >= 2; layer 1 must avoid the
    # root's color, so a full palette there is not a graph at all
    with pytest.raises(ClumpGraphError):
        WeightedClumpGraph(3, [[(0, 1)], [(0, 1), (1, 1), (2, 1)], [(1, 2), (2, 2)]])


def _empty_last_layer(layers):
    layers[-1].clear()


def _add_a_unit(layers):
    layers[-1][min(layers[-1])] += 1


def _add_a_layer(layers):
    # a unit of the last layer moves into a new layer of another color
    color = min(layers[-1])
    layers[-1][color] -= 1
    layers.append({(color + 1) % 3: 1})


def _starve_last_layer(layers):
    # the last layer's clumps neighbor only the layer before it
    layers[-2][min(layers[-2])] -= 1
    layers[-1][min(layers[-1])] += 1


# (iv) fires first at layer 1 on both; on the long chain of heavy singles
# the corruptions above land 11 or more layers past the repaired one
SHORT = [[(0, 1)], [(1, 2)], [(2, 2)], [(0, 2)]]
LONG = [[(0, 1)], *([(j % 3, 2)] for j in range(1, 14))]


@pytest.mark.parametrize("rows", [SHORT, LONG], ids=["short", "long"])
@pytest.mark.parametrize("corrupt, error, match", [
    (_empty_last_layer, ClumpGraphError, "layer {D} is empty"),
    (_add_a_unit, CanonicalizationError, "rewrite changed the total weight"),
    (_add_a_layer, CanonicalizationError, "rewrite changed the layer count"),
    (_starve_last_layer, CanonicalizationError,
     "rewrite dropped the minimum weighted degree"),
])
def test_every_rewrite_is_validated_and_audited(monkeypatch, rows, corrupt, error, match):
    # a faulty rewrite must be caught at its own step, however far from
    # the repaired layer it breaks the graph
    g = WeightedClumpGraph(3, rows)
    assert min_weighted_degree(g) == 2
    rewrite = canonical._fix_duplicate_weight
    steps = []

    def faulty(k, layers, i):
        steps.append(i)
        rule = rewrite(k, layers, i)
        corrupt(layers)
        return rule

    monkeypatch.setattr(canonical, "_fix_duplicate_weight", faulty)
    with pytest.raises(error, match=match.format(D=g.diameter_index)):
        canonicalize(g, 2)
    assert steps == [1]


# the structural rules a rewrite can break, each applied to layer j: the
# step must raise WeightedClumpGraph's own message for the same rows
def _color_out_of_palette(layers, j):
    layers[j][3] = layers[j].pop(min(layers[j]))


def _weight_zero(layers, j):
    layers[j][min(layers[j])] = 0


def _share_the_single_above(layers, j):
    (above,) = layers[j - 1]
    layers[j][above] = layers[j].pop(min(layers[j]))


def _heavy_root(layers, j):
    layers[0][min(layers[0])] = 2


# a chain of two-clump layers, then two heavy singles: canonical up to
# its last layer, where (iv) fires, far from layers 0 and 1
DEEP = [
    [(0, 1)], *([(1, 1), (2, 1)] if j % 2 else [(0, 1), (1, 1)] for j in range(1, 13)),
    [(2, 2)], [(0, 2)],
]


@pytest.mark.parametrize("rows, repaired, j", [
    (LONG, 1, len(LONG) - 1), (DEEP, len(DEEP) - 1, 1),
], ids=["long", "deep"])
@pytest.mark.parametrize("corrupt, message", [
    (_color_out_of_palette, "color 3 outside [0, 3)"),
    (_weight_zero, "weight 0 < 1"),
    (_share_the_single_above, "has no differently-colored clump"),
    (_heavy_root, "rooted graph needs a single weight-1 clump in layer 0"),
])
def test_every_structural_rule_is_checked_at_its_step(
    monkeypatch, rows, repaired, j, corrupt, message
):
    g = WeightedClumpGraph(3, rows)
    assert check_canonical(g).violations[0] == (repaired, "iv")
    rewrite = canonical._fix_duplicate_weight
    steps, corrupted = [], []

    def faulty(k, layers, i):
        steps.append(i)
        rule = rewrite(k, layers, i)
        corrupt(layers, j)
        corrupted.append(copy.deepcopy(layers))
        return rule

    monkeypatch.setattr(canonical, "_fix_duplicate_weight", faulty)
    with pytest.raises(ClumpGraphError) as caught:
        canonicalize(g, min_weighted_degree(g))
    assert steps == [repaired]
    with pytest.raises(ClumpGraphError) as built:
        WeightedClumpGraph(3, [layer.items() for layer in corrupted[0]])
    assert message in str(built.value)
    assert str(caught.value) == str(built.value)


def test_rooting_rule_of_the_layer_after_the_span_is_checked(monkeypatch):
    # the (iv) repair at layer 2 changes that layer alone; the faulty one
    # then makes it a single of a color of layer 3, which breaks layer 3
    g = WeightedClumpGraph(4, [[(0, 1)], [(1, 1), (2, 1)], [(3, 2)], [(1, 1), (2, 1)]])
    assert check_canonical(g).violations == [(2, "iv")]
    rewrite = canonical._fix_duplicate_weight

    def faulty(k, layers, i):
        rule = rewrite(k, layers, i)
        assert layers[2] == {3: 1, 0: 1}
        layers[2] = {1: 2}
        return rule

    monkeypatch.setattr(canonical, "_fix_duplicate_weight", faulty)
    message = "layer 3: clump of color 1 has no differently-colored clump in layer 2"
    with pytest.raises(ClumpGraphError, match=f"^{message}$"):
        canonicalize(g, min_weighted_degree(g))


def test_degrees_of_the_layer_after_the_span_are_checked(monkeypatch):
    # the (iv) repair at layer 1 changes that layer alone; the faulty one
    # then moves a unit between the clumps of layer 4, which starves only
    # the color-1 clump of layer 5
    g = WeightedClumpGraph(3, [
        [(1, 1)], [(2, 3)], [(1, 3)], [(0, 1)], [(1, 3), (2, 2)], [(0, 1), (1, 3)],
    ])
    assert min_weighted_degree(g) == 3
    rewrite = canonical._fix_duplicate_weight
    steps = []

    def faulty(k, layers, i):
        steps.append(i)
        rule = rewrite(k, layers, i)
        layers[4][2] -= 1
        layers[4][1] += 1
        return rule

    # caught at the step, not by the result's audit
    audits = []
    audit = canonical._audit
    monkeypatch.setattr(canonical, "_audit", lambda *args: audits.append(args) or audit(*args))
    monkeypatch.setattr(canonical, "_fix_duplicate_weight", faulty)
    with pytest.raises(CanonicalizationError, match="rewrite dropped the minimum weighted degree"):
        canonicalize(g, 3)
    assert steps == [1] and audits == []


# _starve_last_layer after the first repair, as in the test above, without
# importing this module (and Hypothesis) into the subprocess
_FAULTY_REWRITE = """
import sys
from clumplab import canonical
from clumplab.core import WeightedClumpGraph

rewrite = canonical._fix_duplicate_weight


def faulty(k, layers, i):
    rule = rewrite(k, layers, i)
    layers[-2][min(layers[-2])] -= 1
    layers[-1][min(layers[-1])] += 1
    return rule


canonical._fix_duplicate_weight = faulty
try:
    canonical.canonicalize(WeightedClumpGraph(3, eval(sys.argv[1])), 2)
except canonical.CanonicalizationError as exc:
    print(sys.flags.optimize, exc)
"""


def test_faulty_rewrite_is_caught_under_python_O():
    # pytest cannot run under -O here, so one faulty-rewrite case runs in
    # a subprocess: the audits raise, they do not assert
    src = Path(canonical.__file__).parents[1]
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _FAULTY_REWRITE, repr(LONG)],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert proc.stdout == "1 rewrite dropped the minimum weighted degree\n"


def test_result_gets_one_full_audit(monkeypatch):
    audits = []
    audit = canonical._audit
    monkeypatch.setattr(canonical, "_audit", lambda *args: audits.append(args) or audit(*args))
    g = WeightedClumpGraph(3, LONG)
    out, log = canonicalize(g, 2)
    assert len(log) > 1
    assert audits == [(g, out, 2)]


def test_canonicalize_builds_one_graph_when_it_rewrites(monkeypatch):
    builds = []
    validated_rows = core._validated_rows
    g, canonical_g = WeightedClumpGraph(3, LONG), counterexample_graph(1, 4, 2)
    monkeypatch.setattr(
        core, "_validated_rows", lambda *args: builds.append(args) or validated_rows(*args)
    )
    out, log = canonicalize(g, 2)
    assert len(log) > 1 and len(builds) == 1
    for graph, delta in ((out, 2), (canonical_g, 4)):
        result, log = canonicalize(graph, delta)
        assert result is graph and not log
    assert len(builds) == 1


def test_rewrite_that_changes_nothing_hits_the_iteration_cap(monkeypatch):
    # cap = 4 * layers * k; a rule that changes nothing leaves its
    # violation standing, and the loop must stop at the cap
    steps = []
    monkeypatch.setattr(
        canonical, "_fix_duplicate_weight", lambda k, layers, i: (steps.append(i) or "no-op", ())
    )
    cap = r"iteration cap 48 exceeded; applied \['no-op'"
    with pytest.raises(CanonicalizationError, match=cap):
        canonicalize(WeightedClumpGraph(3, SHORT), 2)
    assert steps == [1] * 48


def test_k3_pair_grammar_is_the_seven_shapes():
    subsets = [
        frozenset(s) for r in (1, 2, 3) for s in itertools.combinations(range(3), r)
    ]
    accepted = {
        (len(a), len(b), len(a & b))
        for a in subsets
        for b in subsets
        if is_canonical_pair(3, a, b)
    }
    assert accepted == {
        (1, 1, 0), (1, 2, 0), (2, 1, 0), (2, 2, 1), (2, 3, 2), (3, 2, 2), (3, 3, 3)
    }


@pytest.mark.parametrize("k", range(2, 6))
def test_is_canonical_pair_is_the_absence_of_pair_violations(k):
    # is_canonical_pair reads the cached verdict of the pair's shape;
    # pair_violations, on the sets themselves, is its oracle
    subsets = [
        frozenset(s) for r in range(1, k + 1) for s in itertools.combinations(range(k), r)
    ]
    for a in subsets:
        for b in subsets:
            assert is_canonical_pair(k, a, b) == (not canonical.pair_violations(k, a, b))


@pytest.mark.parametrize("k", range(2, 7))
def test_violations_give_the_pair_verdicts(k):
    # _violations reads each pair's verdict from a memo keyed by the
    # shape (k, |a|, |b|, |a & b|); weight-1 layers break no (iv)
    sets = [set(c) for r in range(1, k + 1) for c in itertools.combinations(range(k), r)]
    for a in sets:
        for b in sets:
            rows = [dict.fromkeys(a, 1), dict.fromkeys(b, 1)]
            expected = [(0, prop) for prop in canonical.pair_violations(k, a, b)]
            assert canonical._violations(k, rows) == expected


def _walk_violations(k, layers, at):
    """_violations(k, layers, at) as a walk: pair_violations of each pair
    i, i + 1 with i in at, in order, then (iv) layer by layer."""
    D = len(layers) - 1
    at = range(D + 1) if at is None else at
    out = [
        (i, prop)
        for i in at if i < D
        for prop in canonical.pair_violations(k, set(layers[i]), set(layers[i + 1]))
    ]
    for i in at:
        if 1 <= i <= D and max(layers[i].values()) > 1:
            nxt = len(layers[i + 1]) if i < D else 0
            if len(layers[i]) + max(len(layers[i - 1]), nxt) < k:
                out.append((i, "iv"))
    return out


@settings(max_examples=200, deadline=None)
@given(k=st.integers(2, 6), seed=st.integers(0, 10**9), data=st.data())
def test_violations_match_a_walk_over_the_pairs(k, seed, data):
    # _violations takes every pair's shape in one pass and reads one
    # verdict per distinct shape; the walk asks pair_violations of each
    # pair, over the whole graph or a random range of layers
    layers = random_layered_graph(random.Random(seed), k=k, max_depth=30).rows
    lo = data.draw(st.integers(0, len(layers) + 1))
    at = data.draw(st.sampled_from([None, range(lo, data.draw(st.integers(lo, len(layers) + 2)))]))
    assert canonical._violations(k, layers, at) == _walk_violations(k, layers, at)


def test_canonicalize_fixpoint_on_canonical_input():
    g = counterexample_graph(1, 4, 2)
    out, log = canonicalize(g, 4)
    assert len(log) == 0
    assert out == g


def test_move_clump_resolution():
    # full palette at i = 3 followed by a single whose color also sits in
    # L_3; L_1 is multicolored, so the clump moves back without recoloring
    g = WeightedClumpGraph(
        3,
        [
            [(0, 1)],
            [(1, 3), (2, 3)],
            [(0, 3), (1, 3)],
            [(0, 2), (1, 2), (2, 2)],
            [(2, 3)],
            [(0, 3), (1, 3)],
        ],
    )
    delta = min_weighted_degree(g)
    assert (3, "iii") in check_canonical(g).violations
    out = resolve_k1_violation(g, 3, delta)
    assert len(out.rows[3]) == 2
    assert out.total_weight == g.total_weight
    assert min_weighted_degree(out) >= delta


def test_switch_below_resolution():
    # L_0 is the follower's color alone and L_1 leaves a color free, so
    # colors 0 and 3 swap below layer 2 before the clump moves back
    g = WeightedClumpGraph(
        4, [[(0, 1)], [(1, 2), (2, 2)], [(0, 1), (1, 1), (2, 1), (3, 2)], [(0, 3)]]
    )
    out, log = canonicalize(g, 4)
    assert log.rules() == ["switch-below(0,3)+move-clump(0)@2"]
    assert check_canonical(out).passes
    assert out.total_weight == g.total_weight
    assert min_weighted_degree(out) >= 4


def _redistribution_instance(weights):
    # shape X | YZ | XYZ | X with X = 0, Y = 1, Z = 2
    x1, y2, z2, x3, y3, z3, x4 = weights
    return WeightedClumpGraph(
        3,
        [
            [(0, x1)],
            [(1, y2), (2, z2)],
            [(0, x3), (1, y3), (2, z3)],
            [(0, x4)],
        ],
    )


@pytest.mark.parametrize(
    "weights",
    [
        (1, 2, 2, 3, 2, 2, 3),  # x3 >= y3
        (1, 1, 4, 2, 3, 4, 3),  # x3 < min(y3, z3), x3 >= y2
        (1, 3, 4, 2, 4, 5, 4),  # x3 below everything, z2 >= y3
        (1, 4, 3, 2, 5, 4, 4),  # x3 below everything, z2 < y3
        (1, 2, 1, 1, 2, 2, 1),  # x3 < min(y3, z3), x3 >= z2 only: mirror case 2
    ],
)
def test_weight_redistribution_cases(weights):
    g = _redistribution_instance(weights)
    delta = min_weighted_degree(g)
    out = resolve_k1_violation(g, 2, delta)
    assert out.total_weight == g.total_weight
    assert out.diameter_index == g.diameter_index
    assert min_weighted_degree(out) >= delta
    assert len(out.rows[2]) < 3 or len(out.rows[3]) >= 2


def test_redistribution_case_1_shape():
    # x3 >= y3: L_1 absorbs the Y-weight, L_2 keeps X and Z
    g = _redistribution_instance((1, 2, 2, 3, 2, 2, 3))
    out = resolve_k1_violation(g, 2, min_weighted_degree(g))
    assert out.rows[1] == {1: 4, 2: 2}
    assert out.rows[2] == {0: 3, 2: 2}


def test_canonicalize_random_instances_small():
    for k in (3, 4, 5):
        rng = random.Random(99)
        for _ in range(120):
            g = random_layered_graph(rng, k=k)
            delta = min_weighted_degree(g)
            try:
                out, log = canonicalize(g, delta)
            except CanonicalizationError as exc:
                # the one documented failure: a (iii) repair that needs the
                # weight redistribution, which exists for three colors only
                assert k != 3 and "three-color weight redistribution" in str(exc)
                continue
            assert out.total_weight == g.total_weight
            assert out.diameter_index == g.diameter_index
            assert min_weighted_degree(out) >= delta
            assert check_canonical(out).passes
            again, log2 = canonicalize(out, delta)
            assert len(log2) == 0 and again == out


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_canonicalize_preserves_blow_up_size(seed):
    """canonicalize at delta the minimum degree keeps n, D and delta,
    yields a canonical graph, and is idempotent."""
    g = random_layered_graph(random.Random(seed), max_depth=8)
    delta = min_weighted_degree(g)
    out, _ = canonicalize(g, delta)
    assert blow_up(out).n == blow_up(g).n
    assert out.diameter_index == g.diameter_index
    assert min_weighted_degree(out) >= delta
    assert check_canonical(out).passes
    again, log = canonicalize(out, delta)
    assert len(log) == 0 and again == out


def full_rescan_canonicalize(
    graph: WeightedClumpGraph, delta: int
) -> tuple[WeightedClumpGraph, TransformLog]:
    """canonicalize as a full rescan, the oracle for the incremental loop:
    each round scans every layer for violations, and each rewrite's graph
    is rebuilt and audited whole."""
    if min_weighted_degree(graph) < delta:
        raise CanonicalizationError(f"input min weighted degree below delta={delta}")
    k = graph.k
    layers = weight_rows(graph)
    log = TransformLog()
    cap = 4 * len(layers) * k
    result = graph
    while todo := canonical._violations(k, result.rows):
        if len(log) >= cap:
            raise CanonicalizationError(f"iteration cap {cap} exceeded; applied {log.rules()}")
        i, prop = min(todo, key=lambda v: (["ii", "iii", "iv", "i"].index(v[1]), v[0]))
        if prop == "ii":
            rule, _ = canonical._fix_shared_color(k, layers, i)
        elif prop == "iii":
            rule, _ = canonical._resolve_k1(k, layers, i)
        elif prop == "iv":
            rule, _ = canonical._fix_duplicate_weight(k, layers, i)
        else:
            raise CanonicalizationError(f"layer {i}: single followed by a full-palette layer")
        result = canonical._to_graph(k, layers)
        canonical._audit(graph, result, delta)
        log.entries.append(RewriteEntry(rule=rule, layer=i))
    return result, log


def _outcome(canon, graph, delta):
    try:
        result, log = canon(graph, delta)
    except CanonicalizationError as exc:
        return str(exc)
    return result.rows, log.entries


@settings(max_examples=60, deadline=None)
@given(k=st.sampled_from([3, 4, 5]), depth=st.integers(0, 120), seed=st.integers(0, 10**9))
def test_canonicalize_matches_full_rescan(k, depth, seed):
    """The incremental loop gives the full rescan's rows and log, or its
    error text (k > 3 can need the three-color redistribution)."""
    g = random_layered_graph(random.Random(seed), k=k, max_depth=depth)
    delta = min_weighted_degree(g)
    assert _outcome(canonicalize, g, delta) == _outcome(full_rescan_canonicalize, g, delta)


@pytest.mark.parametrize("k, seed", [(3, 12), (3, 50), (4, 27), (5, 17), (5, 40)])
def test_canonicalize_matches_full_rescan_deep(k, seed):
    """The oracle comparison on graphs deeper than the Hypothesis draws."""
    g = random_layered_graph(random.Random(seed), k=k, max_depth=260)
    assert 200 <= g.diameter_index <= 260
    delta = min_weighted_degree(g)
    assert _outcome(canonicalize, g, delta) == _outcome(full_rescan_canonicalize, g, delta)


def _add_a_unit_at(layers, j):
    layers[j][min(layers[j])] += 1


def _move_a_unit_at(layers, j):
    # from the heaviest clump of layer j to its lightest: the total stays
    heavy = max(layers[j], key=layers[j].get)
    light = min(layers[j], key=layers[j].get)
    if layers[j][heavy] > 1:
        layers[j][heavy] -= 1
        layers[j][light] += 1


@pytest.mark.parametrize("rows", [
    LONG, *(random_layers(random.Random(seed), max_depth=260) for seed in (12, 50)),
], ids=["long", "deep-12", "deep-50"])
@pytest.mark.parametrize("lie", [_add_a_unit_at, _move_a_unit_at])
def test_a_switch_that_lies_is_caught(monkeypatch, rows, lie):
    # a swap run whose middle layer also changes is no swap image there:
    # that layer differs from its swapped row, so the diff takes it as
    # edited, and the outcome is the full rescan's, whatever the lie does
    g = WeightedClumpGraph(3, rows)
    delta = min_weighted_degree(g)
    switch = canonical._switch_colors
    lies = []

    def lying(layers, x, y, start, stop=None):
        a, b, x, y = run = switch(layers, x, y, start, stop)
        if b - a >= 2:
            lies.append(run)
            lie(layers, (a + b) // 2)
        return run

    monkeypatch.setattr(canonical, "_switch_colors", lying)
    audits = []
    audit = canonical._audit
    monkeypatch.setattr(canonical, "_audit", lambda *args: audits.append(args) or audit(*args))
    outcome = _outcome(canonicalize, g, delta)
    assert lies
    if lie is _add_a_unit_at:
        # caught at the lying step, not by the result's audit
        assert outcome == "rewrite changed the total weight"
        assert len(lies) == 1 and audits == []
    assert outcome == _outcome(full_rescan_canonicalize, g, delta)


# runs a rule reports beside, or instead of, the ones it swapped; D is
# the last layer
def _phantom_run(runs, D):
    return (*runs, (1, D, 0, 1))


def _run_past_the_last_layer(runs, D):
    return tuple((a, D + 1, x, y) for a, b, x, y in runs)


def _run_reversed(runs, D):
    return tuple((b, a, x, y) for a, b, x, y in runs)


@pytest.mark.parametrize("rows", [
    LONG, *(random_layers(random.Random(seed), max_depth=260) for seed in (12, 50)),
], ids=["long", "deep-12", "deep-50"])
@pytest.mark.parametrize("lie", [_phantom_run, _run_past_the_last_layer, _run_reversed])
def test_a_run_that_lies_the_other_way_gives_the_full_rescan_outcome(monkeypatch, rows, lie):
    # a reported run the rule did not swap leaves its layers unlike their
    # swapped rows, so the diff takes them as edited; a run past the last
    # layer or with a > b voids the step's runs, so the diff takes every
    # swapped layer as edited: the outcome is the full rescan's
    g = WeightedClumpGraph(3, rows)
    delta = min_weighted_degree(g)
    lies = []

    def lying(rule):
        def reported(k, layers, i):
            name, runs = rule(k, layers, i)
            if any(a < b for a, b, _, _ in runs):
                lies.append(runs)
            return name, lie(runs, len(layers) - 1)

        return reported

    for name in ("_fix_shared_color", "_resolve_k1", "_fix_duplicate_weight"):
        monkeypatch.setattr(canonical, name, lying(getattr(canonical, name)))
    outcome = _outcome(canonicalize, g, delta)
    assert lies
    assert outcome == _outcome(full_rescan_canonicalize, g, delta)


@pytest.mark.parametrize("k, rows", [
    (3, LONG),
    *((k, random_layers(random.Random(seed), k, max_depth=260))
      for k, seed in [(3, 12), (3, 50), (4, 27), (5, 17), (5, 40)]),
], ids=["long", "k3-12", "k3-50", "k4-27", "k5-17", "k5-40"])
def test_canonicalize_leaves_its_input_unchanged(k, rows):
    # the loop swaps its rows in place, so they must be its own: the
    # input's rows, its hash and the report of a graph built from its
    # rows are those of before the call
    g = WeightedClumpGraph(k, rows)
    before = copy.deepcopy(g.rows)
    digest = hash(g)
    report = check_canonical(WeightedClumpGraph(k, [row.items() for row in before]))
    assert report.violations  # so the loop runs
    _outcome(canonicalize, g, min_weighted_degree(g))
    assert g.rows == before and hash(g) == digest
    rebuilt = check_canonical(WeightedClumpGraph(k, [row.items() for row in g.rows]))
    assert rebuilt.violations == report.violations


def test_a_violation_the_loop_misses_fails_the_final_check(monkeypatch):
    # rescans that find nothing leave the violations the repairs make in
    # the result; the result's one full scan raises them
    g = WeightedClumpGraph(3, LONG)
    violations = canonical._violations
    monkeypatch.setattr(
        canonical, "_violations",
        lambda k, layers, at=None: violations(k, layers, at) if at is None else [],
    )
    missed = r"^result is not canonical: \[\(12, 'iv'\), \(13, 'iv'\)\]$"
    with pytest.raises(CanonicalizationError, match=missed):
        canonicalize(g, min_weighted_degree(g))


# two-clump layers of weight 1, each sharing one color with the next
CHAIN = [(0, 1), (0, 2), (1, 2)]
# (ii) at layer 1, then a chain
SHARED_HEAD = [[(0, 1)], [(1, 1), (2, 1)], [(1, 1), (2, 1)]]


def _chain_after(head, depth):
    return head + [[(c, 1) for c in CHAIN[j % 3]] for j in range(depth + 1 - len(head))]


def test_a_switch_out_of_the_palette_is_caught_at_its_step(monkeypatch):
    # a free color of k swaps color 1 of layers 2..D into color 3, which
    # k = 3 does not have: the loop swaps no row for a run outside the
    # palette, so the diff takes each swapped layer as edited, and the
    # step raises WeightedClumpGraph's message for its layers
    g = WeightedClumpGraph(3, _chain_after(SHARED_HEAD, 12))
    switch = canonical._switch_colors
    switched = []

    def recorded(layers, *args):
        run = switch(layers, *args)
        switched.append(copy.deepcopy(layers))
        return run

    monkeypatch.setattr(canonical, "_free_color", lambda k, used: k)
    monkeypatch.setattr(canonical, "_switch_colors", recorded)
    builds = []
    validated_rows = core._validated_rows
    monkeypatch.setattr(
        core, "_validated_rows", lambda *args: builds.append(args) or validated_rows(*args)
    )
    with pytest.raises(ClumpGraphError) as caught:
        canonicalize(g, min_weighted_degree(g))
    assert builds == [] and len(switched) == 1
    with pytest.raises(ClumpGraphError, match=r"^layer 2: color 3 outside \[0, 3\)$") as built:
        WeightedClumpGraph(3, [layer.items() for layer in switched[0]])
    assert str(caught.value) == str(built.value)


def _layers_read(head, depth):
    """The rule log of canonicalize on head and a chain to layer `depth`,
    with the layer counts it passes to _layer_rows, neighbor_sum_range
    and _violations while it rewrites, then those of the full scans."""
    g = WeightedClumpGraph(3, _chain_after(head, depth))
    delta = min_weighted_degree(g)
    windows, full = [], []

    def spy(name, count):
        real = getattr(canonical, name)

        def counted(*args):
            args = list(args)
            if name == "_layer_rows":
                args[1] = list(args[1])
            n, whole = count(*args)
            (full if whole else windows).append((name, n))
            return real(*args)

        return counted

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(canonical, "_layer_rows", spy(
            "_layer_rows", lambda k, layers, start=0: (len(layers), False)))
        mp.setattr(canonical, "neighbor_sum_range", spy(
            "neighbor_sum_range",
            lambda rows, first=0, stop=None: (
                (len(rows) if stop is None else stop) - first, stop is None)))
        mp.setattr(canonical, "_violations", spy(
            "_violations",
            lambda k, layers, at=None: (
                len(layers) if at is None else len(range(at.start, min(at.stop, len(layers)))),
                at is None)))
        out, log = canonicalize(g, delta)
    assert (out.rows, log.entries) == _outcome(full_rescan_canonicalize, g, delta)
    return log.rules(), windows, full


@pytest.mark.parametrize("head, rule, reads", [
    # (ii) at layer 1: layers 2..D swap colors 1 and 0
    (SHARED_HEAD, "color-switch(1,0)@2..", 10),
    # (iv) at layer 1: layers 2..D swap colors 2 and 0, and layer 1 splits
    ([[(0, 1)], [(1, 2)], [(2, 1)]], "switch(2,0)@2..+recolor-duplicate(1->2)@1", 13),
], ids=["ii", "iv"])
def test_a_color_switch_is_checked_at_its_ends(head, rule, reads):
    # one switch through 2,000 or 4,000 layers: the loop reads a few
    # layers at each end of the run and the one it edits, however deep
    # the graph; the input's and the result's check_canonical are the
    # two full scans
    for depth in (2_000, 4_000):
        rules, windows, full = _layers_read(head, depth)
        assert rules == [rule]
        assert sum(n for _, n in windows) == reads
        assert full == [("_violations", depth + 1)] * 2


def test_canonicalize_rejects_degree_misdeclaration():
    g = WeightedClumpGraph(3, [[(0, 1)], [(1, 1)]])
    with pytest.raises(CanonicalizationError):
        canonicalize(g, delta=5)


def test_bfs_relayer_cycle():
    c6 = SimpleGraph(6, [(i, (i + 1) % 6) for i in range(6)])
    g = bfs_relayer(c6, [0, 1, 0, 1, 0, 2], k=3)
    assert g.diameter_index == 3
    assert layer_profile(g).ell == (1, 2, 2, 1)


def test_bfs_relayer_star():
    star = SimpleGraph(4, [(0, 1), (0, 2), (0, 3)])
    g = bfs_relayer(star, [1, 0, 0, 0], k=3)
    # roots at a leaf (maximum eccentricity), giving three layers
    assert layer_profile(g).ell == (1, 1, 2)


def test_bfs_relayer_round_trip():
    original = eppt_odd(2, 5, 6)
    s = blow_up(original)
    coloring = [c for _, c, w in clumps(original) for _ in range(w)]
    g = bfs_relayer(s, coloring, k=4)
    assert layer_profile(g).ell == layer_profile(original).ell


def test_bfs_relayer_rejects_improper_coloring():
    with pytest.raises(ValueError):
        bfs_relayer(SimpleGraph(2, [(0, 1)]), [0, 0], k=3)


@pytest.mark.parametrize("graph, coloring, message", [
    (SimpleGraph(2, [(0, 1)]), [0], "coloring length does not match vertex count"),
    (SimpleGraph(3, [(0, 1)]), [0, 1, 0], "graph is disconnected"),
])
def test_bfs_relayer_rejects_bad_input(graph, coloring, message):
    with pytest.raises(ValueError, match=message):
        bfs_relayer(graph, coloring, k=3)


def test_redistribution_refuses_k_other_than_3():
    # layer 2 is full and followed by a single of color 0, which is layer
    # 0 alone, and layer 1 holds more than k - 2 colors: the (iii) repair
    # needs the redistribution, which exists only for k = 3
    g = WeightedClumpGraph(4, [
        [(0, 1)], [(1, 1), (2, 1), (3, 1)], [(0, 1), (1, 1), (2, 1), (3, 1)], [(0, 1)],
    ])
    assert check_canonical(g).violations == [(2, "iii")]
    with pytest.raises(CanonicalizationError, match=(
        "full-palette layer 2 followed by a single needs the three-color "
        "weight redistribution, but k=4"
    )):
        canonicalize(g, 1)


def test_degree_audit_per_role():
    # in the x3 >= y3 case every clump's degree must not drop
    g = _redistribution_instance((1, 2, 2, 3, 2, 2, 3))
    delta = min_weighted_degree(g)
    before = [weighted_degree(g, i, c) for i, c, _ in clumps(g)]
    out = resolve_k1_violation(g, 2, delta)
    assert min(weighted_degree(out, i, c) for i, c, _ in clumps(out)) >= min(before)


@pytest.mark.parametrize("after, match", [
    # one more unit of weight, same layer count and minimum degree
    ([[(0, 1)], [(1, 1), (2, 1)], [(0, 2)]], "total weight"),
    # the same four units in two layers, not three, minimum degree 2
    ([[(0, 1)], [(1, 1), (2, 2)]], "layer count"),
    # the same four units in three layers, minimum degree 1
    ([[(0, 1)], [(1, 1)], [(2, 2)]], "minimum weighted degree"),
])
def test_audit_rejects_each_change_alone(after, match):
    # canonicalize's per-step checks catch these first, so the final
    # audit, which full_rescan_canonicalize also runs after every step,
    # is tested directly: each pair differs from before in one fact
    before = WeightedClumpGraph(3, [[(0, 1)], [(1, 1), (2, 1)], [(0, 1)]])
    assert min_weighted_degree(before) == 2
    canonical._audit(before, before, 2)
    with pytest.raises(CanonicalizationError, match=match):
        canonical._audit(before, WeightedClumpGraph(3, after), 2)
