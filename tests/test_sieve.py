import contextlib
import hashlib
import io
import random
import tempfile
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from clumplab.canonical import check_canonical, is_canonical_pair
from clumplab.certify import dual_certificate
from clumplab.cli import main
from clumplab.constructions import counterexample_block, counterexample_graph
from clumplab.core import (
    WeightedClumpGraph,
    blow_up,
    blow_up_diameter,
    diameter,
    layer_profile,
    min_weighted_degree,
)
from clumplab.serialize import dump_clump_json
from clumplab.sieve import (
    GlobalStats,
    check_aggregates,
    global_stats,
    singular_triplet_count,
    window_inequalities,
)

from conftest import canonical_pair, random_layered_graph


def _family_profile(p, delta=4):
    return layer_profile(counterexample_graph(1, delta, p))


def test_interior_single_window_is_tight():
    prof = _family_profile(1)
    report = window_inequalities(prof, 4)
    window = next(
        w for w in report.windows if w.kind == "one-layer" and w.index == 3
    )
    assert window.case == "single"
    assert window.lhs == window.rhs == 10


def test_two_layer_window_hand_value():
    # junction of a single and a double layer inside the first block:
    # 1 + 2 + (3/2)*3 + 1 = 17/2 against 2*delta = 8
    prof = _family_profile(2)
    report = window_inequalities(prof, 4)
    window = next(
        w for w in report.windows if w.kind == "two-layer" and w.index == 4
    )
    assert window.case == "first-single"
    assert window.lhs == Fraction(17, 2)
    assert window.rhs == 8


def test_three_layer_window_cases_present():
    prof = _family_profile(2)
    report = window_inequalities(prof, 4)
    cases = {w.case for w in report.windows if w.kind == "three-layer"}
    assert "sss" in cases and "ssm" in cases and "mss" in cases


def test_all_windows_pass_on_family():
    for delta in (2, 3, 4, 6):
        for p in (1, 2, 3):
            prof = _family_profile(p, delta)
            report = window_inequalities(prof, delta)
            assert report.passes, report


def test_all_windows_pass_on_corpus(corpus_k3):
    for graph, delta in corpus_k3:
        report = window_inequalities(layer_profile(graph), delta)
        assert report.passes, report


def test_aggregates_pass_with_default_slack(corpus_k3):
    for graph, delta in corpus_k3:
        stats = global_stats(layer_profile(graph), delta)
        assert all(check_aggregates(stats).values())


def test_noncanonical_profile_rejected():
    g = WeightedClumpGraph(3, [[(0, 1)], [(1, 1), (2, 1)], [(1, 1), (2, 1)]])
    # the (2, 2) pair shares both colors, which no canonical graph produces
    with pytest.raises(ValueError):
        window_inequalities(layer_profile(g), 2)


def test_global_stats_exact_family_values():
    # per block: singles weigh 7 of 13, the two 2-clump layers flanked by
    # singles weigh 6 (plus the two +1 adjustments overall), and each
    # block contributes two singular triplets
    for p in (1, 2, 3, 5, 8):
        stats = global_stats(_family_profile(p), 4)
        n = 13 * p + 2
        assert stats.mu == Fraction(7 * p, n)
        assert stats.alpha1 == Fraction(6 * p + 2, n)
        assert stats.alpha2 == 0
        assert stats.psi == Fraction(8 * p, n)
        assert stats.phi == Fraction(4 * (7 * p - 1), n)


def test_global_stats_convergence():
    limits = (
        Fraction(7, 13),
        Fraction(6, 13),
        Fraction(0),
        Fraction(8, 13),
        Fraction(28, 13),
    )
    for p in (1, 2, 4, 8):
        stats = global_stats(_family_profile(p), 4)
        values = (stats.mu, stats.alpha1, stats.alpha2, stats.psi, stats.phi)
        assert all(abs(v - lim) <= Fraction(1, p) for v, lim in zip(values, limits))


def test_singular_triplet_count_small():
    prof = layer_profile(counterexample_block(1, 4))
    # the two interior non-single layers (1 and 5) both touch a single
    assert singular_triplet_count(prof) == 2


def test_global_stats_rejects_nonpositive_delta(psi_graph):
    with pytest.raises(ValueError, match="delta=0 must be positive"):
        global_stats(layer_profile(psi_graph), 0)


def test_aggregate_slack_matters(psi_graph):
    # at zero slack the psi row genuinely fails: 3 * psi = 9/4 > 2
    stats = global_stats(layer_profile(psi_graph), 3)
    assert stats.psi == Fraction(3, 4)
    assert check_aggregates(stats, slack_c=0)["psi"] is False
    assert all(check_aggregates(stats, slack_c=12).values())


def test_negative_slack_is_refused(psi_graph):
    # the windows imply the pair sum only for slack_c >= 0
    profile = layer_profile(psi_graph)
    with pytest.raises(ValueError, match="slack_c=-1 must be nonnegative"):
        window_inequalities(profile, 3, slack_c=-1)
    with pytest.raises(ValueError, match="slack_c=-1 must be nonnegative"):
        check_aggregates(global_stats(profile, 3), slack_c=-1)


def test_global_optimum_meets_every_row():
    # the optimum lp epsz reports; at slack 0, n and delta do not matter
    stats = GlobalStats(
        mu=Fraction(0),
        alpha1=Fraction(17, 23),
        alpha2=Fraction(6, 23),
        phi=Fraction(57, 23),
        psi=Fraction(13, 23),
        n=23,
        delta=1,
    )
    assert all(check_aggregates(stats, 0).values())
    raised = replace(stats, phi=stats.phi + Fraction(1, 1000))
    assert not all(check_aggregates(raised, 0).values())


def _periodic_graph(p):
    """Canonical at minimum degree 4, with D = 4p + 6 and n = 7p + 15, so
    phi tends to 16/7 < 57/23; 3 psi tends to 24/7 > 2 and the triple
    row's lhs to 52/7 > 7."""
    head = [[(0, 1)], [(1, 1), (2, 3)], [(0, 2)]]
    period = [[(1, 1)], [(0, 1), (2, 1)], [(1, 2)], [(0, 1), (2, 1)]]
    tail = [[(1, 1)], [(0, 2)], [(1, 1), (2, 3)], [(0, 1)]]
    return WeightedClumpGraph(3, head + period * p + tail)


def test_periodic_graph_is_canonical_and_meets_every_window():
    graph = _periodic_graph(50)
    prof = layer_profile(graph)
    assert check_canonical(graph).passes
    assert min_weighted_degree(graph) == 4
    assert (prof.n, blow_up_diameter(graph)) == (365, 206)
    assert all(w.passes for w in window_inequalities(prof, 4).windows)
    small = _periodic_graph(5)
    assert diameter(blow_up(small)) == blow_up_diameter(small)


def _delta2_periodic_graph():
    """Canonical at minimum degree 2, with n = 101 and D = 60: the root,
    then ten periods of six layers, on which psi = 80/101 and 3 psi > 2."""
    period = [
        [(1, 1), (2, 1)], [(0, 1), (1, 1)], [(2, 1)], [(0, 1), (1, 1)], [(1, 1), (2, 1)], [(0, 1)],
    ]
    return WeightedClumpGraph(3, [[(0, 1)]] + period * 10)


def test_delta2_periodic_graph_fails_only_the_psi_row():
    graph = _delta2_periodic_graph()
    prof = layer_profile(graph)
    assert (prof.n, prof.diameter_index, blow_up_diameter(graph)) == (101, 60, 60)
    assert check_canonical(graph).passes
    assert min_weighted_degree(graph) == 2
    assert dual_certificate(graph).feasible
    windows = window_inequalities(prof, 2).windows
    assert (len(windows), sum(w.passes for w in windows)) == (180, 180)
    stats = global_stats(prof, 2)
    assert stats.psi == Fraction(80, 101)
    for slack in (0, 12):
        rows = check_aggregates(stats, slack)
        assert rows.pop("psi") is False
        assert all(rows.values())


@pytest.mark.xfail(strict=True, reason="the psi row, and at delta 4 the triple row, reject "
                   "these canonical graphs")
@pytest.mark.parametrize("graph, delta", [
    (_periodic_graph(50), 4),
    (_delta2_periodic_graph(), 2),
], ids=["delta4", "delta2"])
def test_sieve_accepts_periodic_graph(graph, delta):
    assert window_inequalities(layer_profile(graph), delta).passes


_COLOR_SETS = [frozenset(s) for s in ({0}, {1}, {2}, {0, 1}, {0, 2}, {1, 2}, {0, 1, 2})]


@st.composite
def _pair_canonical_graphs(draw):
    """Rooted 3-colored graphs whose consecutive color sets pass the pair
    rule, with weights above 1 only where property (iv) allows them."""
    sets = [frozenset({draw(st.integers(0, 2))})]
    for _ in range(draw(st.integers(1, 30))):
        sets.append(draw(st.sampled_from(
            [s for s in _COLOR_SETS if is_canonical_pair(3, sets[-1], s)]
        )))
    layers = []
    for i, colors in enumerate(sets):
        around = max(len(sets[j]) for j in (i - 1, i + 1) if 0 <= j < len(sets))
        heavy = i > 0 and len(colors) + around >= 3
        layers.append([(c, draw(st.integers(1, 8)) if heavy else 1) for c in sorted(colors)])
    return WeightedClumpGraph(3, layers)


@settings(max_examples=100, deadline=None)
@given(graph=_pair_canonical_graphs())
def test_canonical_graphs_meet_every_window(graph):
    assert check_canonical(graph).passes
    delta = min_weighted_degree(graph)
    assert delta >= 1
    report = window_inequalities(layer_profile(graph), delta)
    assert all(w.passes for w in report.windows)
    assert report.passes == all(report.rows.values())


@settings(max_examples=100, deadline=None)
@given(graph=_pair_canonical_graphs(), k=st.integers(4, 7), data=st.data())
def test_relabeled_graph_reads_as_its_3_colored_one(graph, k, data):
    # layer by layer, a color the layer above shares keeps its partner's
    # label and every other color takes a label the layer above lacks:
    # the same clump graph, in up to k colors
    layers, above = [], {}
    for row in graph.rows:
        fresh = data.draw(st.permutations([c for c in range(k) if c not in above.values()]))
        above = {c: above[c] if c in above else fresh.pop() for c in row}
        layers.append([(above[c], w) for c, w in row.items()])
    relabeled = WeightedClumpGraph(k, layers)
    delta = min_weighted_degree(graph)
    assert min_weighted_degree(relabeled) == delta
    want = window_inequalities(layer_profile(graph), delta)
    got = window_inequalities(layer_profile(relabeled), delta)
    assert (got.lhs_scaled, got.rhs_scaled) == (want.lhs_scaled, want.rhs_scaled)
    assert (got.stats, got.rows) == (want.stats, want.rows)


def _fraction_windows(profile, delta):
    """The window loop and global statistics in Fractions, read through
    an ell() that returns 0 outside 0..D: the sides of every window as
    (kind, index, case, lhs, rhs, passes), and the statistics."""
    D = profile.diameter_index
    singles = profile.singles

    def ell(i):
        return profile.ell[i] if 0 <= i <= D else 0

    windows = []
    for i in range(D + 1):
        c = profile.clump_counts[i]
        if c > 2:
            continue
        lhs = Fraction(2 * (ell(i - 1) + ell(i) + ell(i + 1)))
        rhs = Fraction(2 * delta + (2 if c == 1 else 1) * ell(i))
        windows.append(("one-layer", i, "single" if c == 1 else "double", lhs, rhs))
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
        windows.append(("two-layer", i, case, lhs, Fraction(2 * delta)))
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
        else:
            rhs = Fraction(6 * delta - 2 * ell(i) - ell(i - 1) - ell(i + 1))
        case = "".join("s" if flag else "m" for flag in pattern)
        windows.append(("three-layer", i, case, lhs, rhs))

    n = profile.n
    alpha1 = alpha2 = Fraction(0)
    for i in range(1, D):
        if profile.clump_counts[i] != 2:
            continue
        flanking = (i - 1 in singles) + (i + 1 in singles)
        if flanking == 2:
            alpha1 += Fraction(profile.ell[i], n)
        elif flanking == 1:
            alpha2 += Fraction(profile.ell[i], n)
    stats = GlobalStats(
        mu=Fraction(sum(profile.ell[i] for i in singles), n),
        alpha1=alpha1,
        alpha2=alpha2,
        phi=Fraction(D * delta, n),
        psi=Fraction(delta * singular_triplet_count(profile), n),
        n=n,
        delta=delta,
    )
    return [(*w, w[3] >= w[4]) for w in windows], stats


def _cli_window_line(graph, delta):
    """The `windows <pass>/<total> pass` line of `clumplab sieve`."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "graph.json"
        path.write_text(dump_clump_json(graph))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            main(["sieve", "--in", str(path), "--delta", str(delta)])
    return out.getvalue().splitlines()[0]


def _assert_windows_match_oracle(graph, deltas):
    """Compare window_inequalities with _fraction_windows at each delta,
    and the CLI's window count at each delta the CLI accepts (at most the
    minimum degree); the number of failing windows seen."""
    profile = layer_profile(graph)
    degree = min_weighted_degree(graph)
    failing = 0
    for delta in deltas:
        report = window_inequalities(profile, delta)
        windows, stats = _fraction_windows(profile, delta)
        got = [(w.kind, w.index, w.case, w.lhs, w.rhs, w.passes) for w in report.windows]
        assert got == windows
        assert report.stats == stats
        assert report.rows == check_aggregates(stats)
        assert global_stats(profile, delta) == stats
        passing = sum(1 for w in windows if w[5])
        assert report.passes == (passing == len(windows) and all(report.rows.values()))
        if delta <= degree:
            assert _cli_window_line(graph, delta) == f"windows {passing}/{len(windows)} pass"
        failing += len(windows) - passing
    return failing


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_windows_match_fraction_oracle_on_random_canonical_graphs(seed):
    graph, delta = canonical_pair(random_layered_graph(random.Random(seed), max_depth=16))
    assume(delta >= 1)
    _assert_windows_match_oracle(graph, (delta, delta + 1, delta + 3, 3 * delta + 5))


def test_windows_match_fraction_oracle_on_families():
    failing = 0
    for delta in (2, 3, 4, 6):
        for p in (1, 2, 3):
            failing += _assert_windows_match_oracle(
                counterexample_graph(1, delta, p), (delta, delta + 1, delta + 4)
            )
    for p in (1, 5, 50):
        failing += _assert_windows_match_oracle(_periodic_graph(p), (4, 5, 9))
    assert failing > 100


# `clumplab sieve --report` on three counterexample instances and on the
# periodic canonical graphs above: at p = 5 every row passes, at p = 50
# the psi and triple rows fail and the delta-2 graph fails the psi row,
# so both exit codes are pinned.  Each digest covers the exit code,
# stdout, stderr and the --report file, so any change to a window, its
# order or its sides shows here
_PINNED_SIEVE = [
    ("H(1,4,2)", counterexample_graph(1, 4, 2), 4,
     "719b74c39a194551d64bee7573defa8ecb2a76d9e8a6fdb1cb399af0098f69b0"),
    ("H(1,7,20)", counterexample_graph(1, 7, 20), 7,
     "15e7dfc86de1ef037473f039b6c48b28e452edbe4fd90749ad6cbc3ee2f6e076"),
    ("H(1,12,40)", counterexample_graph(1, 12, 40), 12,
     "d2c36e1bd90ec9e2813aa1d166f59bc35e8553fb74f428ff727543905037a437"),
    ("periodic-5", _periodic_graph(5), 4,
     "06b8a67f36f15a219b3ded4abb3554b82305c9bab6909f77707191300e94e541"),
    ("periodic-50", _periodic_graph(50), 4,
     "2ec668b941cf45dab8a60666bef1550c02ab37992c1f0a8b950fab197c66cb85"),
    ("delta2-periodic", _delta2_periodic_graph(), 2,
     "c81d88b3faf9559dc418fd16f8193433d252ea6e07ca529cbe25e7c26e646eaa"),
]


@pytest.mark.parametrize(
    "graph, delta, expected", [pytest.param(*case[1:], id=case[0]) for case in _PINNED_SIEVE]
)
def test_sieve_output_is_pinned(tmp_path, capsys, graph, delta, expected):
    path = tmp_path / "graph.json"
    path.write_text(dump_clump_json(graph))
    report = tmp_path / "report.json"
    code = main(["sieve", "--in", str(path), "--delta", str(delta), "--report", str(report)])
    out, err = capsys.readouterr()
    digest = hashlib.sha256()
    for part in (str(code), out, err):
        digest.update(part.encode() + b"\0")
    digest.update(report.read_bytes() + b"\0")
    assert digest.hexdigest() == expected
