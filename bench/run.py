"""clumplab benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload {search,family,rewrite} --seed N \
        --seconds S --trace {0,1}

Run from a checkout: the program is imported from its `src/` tree, never
from an installed copy.  Each workload is a closed loop (one caller, the
next op starts when the previous one returns) over whole passes of a
seeded pool of inputs, until at least S seconds of passes have run.
Every op's output is checked.  Times are put at one nominal machine speed
by speed.Probe, which samples a fixed kernel while the run goes on.

--trace 0 prints the end-to-end metrics.  --trace 1 runs the same ops
untraced for about S/2 seconds, then traced, checks that both produce
identical outputs, writes the spans to .bench_out/ and prints the
per-layer metrics.  The last stdout line is the result object; the line
before it records the seed, op count, p90 latency and failure ratio.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import generators
import speed
import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
PACKAGE = tracing.PACKAGE

SETUP_REPS = 9
P90_MIN_OPS = 100  # a p90 needs at least ten samples beyond it

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def load_program():
    """Import clumplab afresh from the checkout's src tree."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    package = importlib.import_module(PACKAGE)
    if Path(package.__file__).resolve().parent != SRC / PACKAGE:
        raise ImportError(f"{PACKAGE} imported from {package.__file__}, not {SRC}")
    return SimpleNamespace(
        **{layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in tracing.LAYERS}
    )


def set_up(workload: str, seed: int, workdir: Path, probe: speed.Probe):
    """Import the program, generate the inputs and prepare them; the
    median of several such set-ups, at nominal speed, is setup_s."""
    times = []
    for _ in range(SETUP_REPS):
        spent, start = probe.spent, perf_counter()
        m = load_program()
        items = workloads.WORKLOADS[workload].prepare(m, generators.INPUTS[workload](seed), workdir)
        end = perf_counter()
        times.append((end - start - (probe.spent - spent)) * probe.factor(start, end))
    return m, items, statistics.median(times)


class Loop:
    """Closed-loop runner: per op its interval, its time less the probe's,
    its output and the problems found in it."""

    def __init__(self, workload: str, m, items: list, probe: speed.Probe):
        self.wl = workloads.WORKLOADS[workload]
        self.m = m
        self.items = items
        self.probe = probe
        self.timings: list[tuple[float, float, float]] = []  # start, end, own seconds
        self.outputs: list = []
        self.problems: list[str] = []
        self.failed = 0

    def op(self, item, tracer=None) -> None:
        spent, start = self.probe.spent, perf_counter()
        out, problems = None, []
        try:
            if tracer is None:
                raw = self.wl.run(self.m, item)
            else:
                with tracer.op(len(self.timings)):
                    raw = self.wl.run(self.m, item)
        except Exception:
            problems = [traceback.format_exc()]
        end = perf_counter()
        self.timings.append((start, end, end - start - (self.probe.spent - spent)))
        if not problems:
            out = self.wl.observe(item, raw)
            problems = self.wl.check(self.m, item, out)
        self.outputs.append(out)
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    def passes(self, seconds: float) -> None:
        """Whole passes over the pool until `seconds` have elapsed."""
        begin = perf_counter()
        while True:
            for item in self.items:
                self.op(item)
            if perf_counter() - begin >= seconds:
                return

    def replay(self, count: int, tracer) -> None:
        """The first `count` ops of the pool cycle, traced."""
        for i in range(count):
            self.op(self.items[i % len(self.items)], tracer)

    def latencies(self, first: int = 0, stop: int | None = None) -> list[float]:
        """Op times at the probe's nominal machine speed."""
        return [
            own * self.probe.factor(start, end)
            for start, end, own in self.timings[first:stop]
        ]


def percentile_ms(latencies: list[float], q: int) -> float:
    return statistics.quantiles(latencies, n=100, method="inclusive")[q - 1] * 1000


def untraced(loop: Loop, seconds: float, setup_s: float) -> dict:
    loop.passes(seconds)
    latencies = loop.latencies()
    size = len(loop.items)
    # each input counts once, at its median over the passes, so the p50
    # does not hinge on which of two inputs' samples happens to sit mid-list
    per_input = [statistics.median(latencies[i::size]) for i in range(size)]
    return {
        "setup_s": setup_s,
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_ms": statistics.median(per_input) * 1000,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced(loop: Loop, seconds: float, trace_path: Path, info: dict) -> dict:
    loop.passes(seconds / 2)
    ops = len(loop.timings)
    tracer = tracing.Tracer()
    with tracer:
        loop.replay(ops, tracer)
    mismatched = [i for i in range(ops) if loop.outputs[i] != loop.outputs[ops + i]]
    if mismatched:
        loop.failed += len(mismatched)
        loop.problems.append(f"traced outputs differ from untraced ones at ops {mismatched}")
    overhead = sum(loop.latencies(0, ops)) / sum(loop.latencies(ops))
    # span seconds at nominal speed, by the speed over the whole traced phase
    factor = loop.probe.factor(loop.timings[ops][0], loop.timings[-1][1])
    metrics = {
        name: (value * factor if unit in ("s/op", "us") else value, unit)
        for name, (value, unit) in tracer.metrics(ops, overhead).items()
    }
    begin = tracer.spans[0][1] if tracer.spans else 0.0
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    trace_path.write_text(
        json.dumps(
            {
                **info,
                "fields": ["name", "start_s", "end_s", "parent", "op", "raised"],
                "spans": [
                    [name, start - begin, end - begin, parent, op, raised]
                    for name, start, end, parent, op, raised in tracer.spans
                ],
            }
        )
    )
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if sys.flags.optimize:
        # the strong-duality check and the search invariants are asserts;
        # without them the timings describe a different program
        print("error: refusing to run under python -O", file=sys.stderr)
        return 2
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"error: no {PACKAGE} sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("CLUMPLAB_SLACK", None)  # sieve's slack is passed explicitly
    sys.path.insert(0, str(SRC))

    workdir = OUT_DIR / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    try:
        with speed.Probe() as probe:
            m, items, setup_s = set_up(args.workload, args.seed, workdir, probe)
            loop = Loop(args.workload, m, items, probe)
            if args.trace:
                trace_path = OUT_DIR / f"trace-{args.workload}-{args.seed}.json"
                values = traced(loop, args.seconds, trace_path, info)
                info["trace_file"] = str(trace_path.relative_to(ROOT))
            else:
                measured = untraced(loop, args.seconds, setup_s)
                values = {name: (measured[name], unit) for name, unit in END_TO_END}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    latencies = loop.latencies()
    attempted = len(latencies)
    info.update(
        ops=attempted,
        op_p90_ms=percentile_ms(latencies, 90) if attempted >= P90_MIN_OPS else None,
        failed_ratio=loop.failed / attempted,
    )
    for problem in loop.problems[:20]:
        print(problem, file=sys.stderr)
    print(json.dumps(info))
    print(
        json.dumps(
            {
                "correct": loop.failed == 0,
                "attempted": attempted,
                "failed": loop.failed,
                "metrics": {name: {"value": v, "unit": u} for name, (v, u) in values.items()},
            }
        )
    )
    return 0 if loop.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
