"""Tests of the benchmark itself: generators, tracer, metric names and the
refusals of bench/run.py.  They use small inputs and run in seconds."""

from __future__ import annotations

import importlib
import json
import random
import re
import shutil
import signal
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parents[1]
REPO = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(REPO / "src"))

import generators  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(scope="module")
def m() -> SimpleNamespace:
    # the modules already imported, so other test files keep their objects
    return SimpleNamespace(
        **{layer: importlib.import_module(f"clumplab.{layer}") for layer in tracing.LAYERS}
    )


@pytest.fixture
def small_items(m, tmp_path) -> dict[str, list]:
    rng = random.Random(7)
    rewrite = [
        {"layers": layers, "delta": generators.min_weighted_degree(layers)}
        for layers in (generators.random_layers(rng, 30), generators.random_layers(rng, 45))
    ]
    return {
        "search": [(2, 3)],
        "family": [(1, 5, 2), (2, 7, 1)],
        "rewrite": workloads.WORKLOADS["rewrite"].prepare(m, rewrite, tmp_path),
    }


def run_ops(m, workload: str, items: list, tracer=None) -> list:
    wl = workloads.WORKLOADS[workload]
    outputs = []
    for i, item in enumerate(items):
        if tracer is None:
            raw = wl.run(m, item)
        else:
            with tracer.op(i):
                raw = wl.run(m, item)
        outputs.append(wl.observe(item, raw))
    return outputs


@pytest.mark.parametrize("workload", sorted(generators.INPUTS))
def test_generators_are_deterministic_per_seed(workload):
    make = generators.INPUTS[workload]
    assert make(11) == make(11)
    assert make(11) != make(12) or workload == "search"
    if workload == "search":
        assert sorted(make(11)) == sorted(generators.SEARCH_MENU)


def test_family_inputs_stay_in_range():
    for s, delta, p in generators.family_inputs(3):
        assert s in generators.FAMILY_S
        assert 2 * s < delta <= 2 * s + generators.FAMILY_DELTA_SPAN
        assert p >= 1


def test_tracer_restores_every_wrapped_attribute(m):
    def bindings():
        mods = [mod for name, mod in sys.modules.items() if name.split(".")[0] == "clumplab"]
        out = {(id(mod), name): value for mod in mods for name, value in vars(mod).items()}
        init = vars(m.core.WeightedClumpGraph)["__init__"]
        return out, init

    before, init = bindings()
    shared = {
        "blow_up_diameter": (m.core, m.lp, m.cli),
        "min_weighted_degree": (m.core, m.canonical, m.cli),
    }
    originals = {name: getattr(m.core, name) for name in shared}
    with tracing.Tracer():
        for name, mods in shared.items():
            for mod in mods:
                assert getattr(mod, name).__wrapped__ is originals[name]
        assert vars(m.core.WeightedClumpGraph)["__init__"].__wrapped__ is init
    after, init_after = bindings()
    assert init_after is init
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


@pytest.mark.parametrize("workload", ["search", "family", "rewrite"])
def test_traced_and_untraced_outputs_are_equal(m, small_items, workload):
    items = small_items[workload]
    plain = run_ops(m, workload, items)
    with tracing.Tracer() as tracer:
        traced = run_ops(m, workload, items, tracer)
    assert traced == plain
    assert tracer.spans and all(span[2] >= span[1] for span in tracer.spans)
    if workload != "search":
        for item, out in zip(items, plain):
            assert workloads.WORKLOADS[workload].check(m, item, out) == []


def test_self_times_add_up_to_op_time(m, small_items):
    with tracing.Tracer() as tracer:
        run_ops(m, "family", small_items["family"], tracer)
    selfs = tracer.self_times()
    assert min(selfs) >= 0
    op_time = sum(end - start for name, start, end, *_ in tracer.spans if name == tracing.ROOT)
    assert sum(selfs) == pytest.approx(op_time, rel=1e-9)


def traced_metrics(m, workload: str, items: list) -> dict[str, float]:
    with tracing.Tracer() as tracer:
        run_ops(m, workload, items, tracer)
    return {name: value for name, (value, _) in tracer.metrics(len(items), 1.0).items()}


def test_layer_counters_by_workload(m, small_items):
    search = traced_metrics(m, "search", small_items["search"])
    family = traced_metrics(m, "family", small_items["family"])
    rewrite = traced_metrics(m, "rewrite", small_items["rewrite"])
    lp = [name for name in search if name.startswith("lp.")]
    assert search["lp.simplex_calls"] > 0 and search["lp.pattern_sequences"] > 0
    assert all(family[name] == 0 for name in lp)
    assert all(rewrite[name] == 0 for name in lp)
    assert family["canonical.rewrites"] == 0
    assert rewrite["canonical.rewrites"] > 0
    io = [name for name in search if name.split(".")[0] in ("serialize", "cli")]
    assert all(rewrite[name] > 0 for name in io if name != "cli.exit_nonzero")
    assert all(search[name] == 0 and family[name] == 0 for name in io)


def test_speed_probe_samples_and_restores_the_signal_handler():
    before = signal.getsignal(signal.SIGALRM)
    with speed.Probe() as probe:
        start = perf_counter()
        while perf_counter() - start < 0.2:
            speed.kernel()
        end = perf_counter()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(probe.costs) >= 3 and probe.spent >= sum(probe.costs)
    assert probe.factor(start, end) > 0
    with pytest.raises(RuntimeError):
        probe.factor(end + 10, end + 11)


def test_metric_names_and_benchmark_json_agree():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    end_to_end = [name for name, _ in run.END_TO_END]
    per_layer = [name for name, _, _ in tracing.PER_LAYER]
    assert [(e["name"], e["unit"]) for e in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(e["name"], e["unit"]) for e in spec["per_layer"]] == [
        (name, unit) for name, unit, _ in tracing.PER_LAYER
    ]
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)
    names = end_to_end + per_layer
    assert len(set(names)) == len(names)
    assert all(METRIC_NAME.fullmatch(name) and len(name) <= 64 for name in names)


def test_refuses_python_O():
    proc = subprocess.run(
        [sys.executable, "-O", str(BENCH / "run.py"), "--workload", "family",
         "--seed", "1", "--seconds", "1"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "family", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
