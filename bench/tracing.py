"""Outside-in tracing of clumplab: wraps the public (and a few named
private) functions of each module at every place they are bound, records
one span per call inside an op, and restores the originals on exit.

No source file changes.  A function imported by name into another module
(`from .core import blow_up_diameter`) is bound there too, so every module
attribute that is the same object gets its own wrapper; a class method is
wrapped on its class.  Outside an op the wrappers call straight through.
"""

from __future__ import annotations

import contextlib
import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter
from typing import Any, Callable, Iterator

LAYERS = ("lp", "core", "canonical", "certify", "sieve", "constructions", "serialize", "cli")

# hook(counters, args, result, error, parent span name), run after each call
Hook = Callable[[Counter, tuple, Any, Any, str], None]


def _min_order(counters: Counter, args: tuple, result: Any, error: Any, parent: str) -> None:
    if isinstance(error, ValueError):
        counters["lp.min_order_infeasible"] += 1
    elif error is None and result.int_value is None:
        counters["lp.ilp_capped"] += 1


def _pattern_sequences(counters: Counter, args: tuple, result: Any, error: Any, parent: str) -> None:
    if error is None:
        counters["lp.pattern_sequences"] += len(result)


def _blow_up_diameter(counters: Counter, args: tuple, result: Any, error: Any, parent: str) -> None:
    # extremal_search keeps a topology only when its weighted blow-up
    # realizes the topology's own depth
    if parent == "lp.extremal_search" and error is None:
        counters["lp.diameter_checks"] += 1
        if result != args[0].diameter_index:
            counters["lp.diameter_rejects"] += 1


def _clump_bfs(counters: Counter, args: tuple, result: Any, error: Any, parent: str) -> None:
    if error is None:
        counters["core.bfs_clumps"] += len(result)


REWRITE_RULES = (
    "color-switch",
    "move-clump",
    "switch-below",
    "redistribute-case-1",
    "redistribute-case-2",
    "redistribute-case-3",
    "redistribute-case-4",
    "switch",
    "recolor-duplicate",
)


def rule_prefix(rule: str) -> str:
    """Audit-log rule name without its arguments: "move-clump(1)@4" -> "move-clump"."""
    cut = min((i for i in (rule.find("("), rule.find("@")) if i >= 0), default=len(rule))
    prefix = rule[:cut]
    return prefix if prefix in REWRITE_RULES else "other"


def _canonicalize(counters: Counter, args: tuple, result: Any, error: Any, parent: str) -> None:
    if error is None:
        for rule in result[1].rules():
            counters["canonical.rewrites"] += 1
            counters[f"canonical.rewrites.{rule_prefix(rule)}"] += 1


def _dual_certificate(counters: Counter, args: tuple, result: Any, error: Any, parent: str) -> None:
    if error is None:
        counters["certify.clumps"] += len(result.u)


def _windows(counters: Counter, args: tuple, result: Any, error: Any, parent: str) -> None:
    if error is None:
        counters["sieve.windows"] += len(result.windows)


def _parse(counters: Counter, args: tuple, result: Any, error: Any, parent: str) -> None:
    counters["serialize.bytes_in"] += len(args[0])


def _dump(counters: Counter, args: tuple, result: Any, error: Any, parent: str) -> None:
    if error is None:
        counters["serialize.bytes_out"] += len(result.encode())


def _main(counters: Counter, args: tuple, result: Any, error: Any, parent: str) -> None:
    if error is not None or result != 0:
        counters["cli.exit_nonzero"] += 1


# (defining module, attribute path, hook); the span is named module.path
TARGETS: tuple[tuple[str, str, Hook | None], ...] = (
    ("lp", "extremal_search", None),
    ("lp", "_pattern_sequences", _pattern_sequences),
    ("lp", "min_order_lp", _min_order),
    ("lp", "simplex_solve", None),
    ("core", "WeightedClumpGraph.__init__", None),
    ("core", "layer_profile", None),
    ("core", "min_weighted_degree", None),
    ("core", "blow_up_diameter", _blow_up_diameter),
    ("core", "_clump_bfs", _clump_bfs),
    ("canonical", "canonicalize", _canonicalize),
    ("canonical", "check_canonical", None),
    ("canonical", "_audit", None),
    ("certify", "dual_certificate", _dual_certificate),
    ("certify", "verify_packing", None),
    ("certify", "bound_from_certificate", None),
    ("sieve", "window_inequalities", _windows),
    ("sieve", "global_stats", None),
    ("sieve", "check_aggregates", None),
    ("constructions", "counterexample_graph", None),
    ("serialize", "parse_clump_json", _parse),
    ("serialize", "dump_clump_json", _dump),
    ("cli", "main", _main),
)

PACKAGE = "clumplab"
ROOT = "op"

# (metric, unit, summary key); counts and seconds are per traced op, and
# every *_s metric is self time: span duration minus its child spans
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    ("lp.simplex_calls", "1/op", "calls:lp.simplex_solve"),
    ("lp.simplex_s", "s/op", "self:lp.simplex_solve"),
    ("lp.bnb_nodes", "1/op", "lp.bnb_nodes"),
    ("lp.min_order_calls", "1/op", "calls:lp.min_order_lp"),
    ("lp.min_order_s", "s/op", "self:lp.min_order_lp"),
    ("lp.min_order_infeasible", "1/op", "lp.min_order_infeasible"),
    ("lp.ilp_capped", "1/op", "lp.ilp_capped"),
    ("lp.budget_pruned", "1/op", "lp.budget_pruned"),
    ("lp.pattern_sequences", "1/op", "lp.pattern_sequences"),
    ("lp.pattern_enum_s", "s/op", "self:lp._pattern_sequences"),
    ("lp.diameter_rejects", "1/op", "lp.diameter_rejects"),
    ("lp.accepted_ratio", "ratio", ""),
    ("core.blow_up_diameter_calls", "1/op", "calls:core.blow_up_diameter"),
    ("core.blow_up_diameter_s", "s/op", "self:core.blow_up_diameter"),
    ("core.bfs_clumps", "1/op", "core.bfs_clumps"),
    ("core.bfs_s", "s/op", "self:core._clump_bfs"),
    ("core.graph_builds", "1/op", "calls:core.WeightedClumpGraph.__init__"),
    ("core.graph_build_s", "s/op", "self:core.WeightedClumpGraph.__init__"),
    ("core.min_degree_calls", "1/op", "calls:core.min_weighted_degree"),
    ("core.min_degree_s", "s/op", "self:core.min_weighted_degree"),
    ("canonical.canonicalize_s", "s/op", "self:canonical.canonicalize"),
    ("canonical.check_s", "s/op", "self:canonical.check_canonical"),
    ("canonical.audit_s", "s/op", "self:canonical._audit"),
    ("canonical.rewrites", "1/op", "canonical.rewrites"),
    *(
        (f"canonical.rewrites.{rule}", "1/op", f"canonical.rewrites.{rule}")
        for rule in REWRITE_RULES + ("other",)
    ),
    ("canonical.us_per_rewrite", "us", ""),
    ("certify.dual_certificate_s", "s/op", "self:certify.dual_certificate"),
    ("certify.verify_packing_s", "s/op", "self:certify.verify_packing"),
    ("certify.clumps", "1/op", "certify.clumps"),
    ("sieve.windows", "1/op", "sieve.windows"),
    ("sieve.window_s", "s/op", "self:sieve.window_inequalities"),
    ("sieve.global_stats_s", "s/op", "self:sieve.global_stats"),
    ("constructions.generate_s", "s/op", "self:constructions.counterexample_graph"),
    ("serialize.parse_s", "s/op", "self:serialize.parse_clump_json"),
    ("serialize.dump_s", "s/op", "self:serialize.dump_clump_json"),
    ("serialize.bytes_in", "B/op", "serialize.bytes_in"),
    ("serialize.bytes_out", "B/op", "serialize.bytes_out"),
    ("cli.main_calls", "1/op", "calls:cli.main"),
    ("cli.main_s", "s/op", "self:cli.main"),
    ("cli.exit_nonzero", "1/op", "cli.exit_nonzero"),
    *((f"{layer}.self_s", "s/op", f"layer:{layer}") for layer in LAYERS),
    ("trace.spans", "1/op", "trace.spans"),
    ("trace.attributed_ratio", "ratio", ""),
    ("trace.overhead_ratio", "ratio", ""),
)


class Tracer:
    """Span recorder.  Spans are (name, start, end, parent index, op id,
    raised) tuples kept in memory; `install` wraps, `restore` undoes it."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int, bool]] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._op = -1
        self._saved: list[tuple[Any, str, Any]] = []

    # -- wrapping ----------------------------------------------------------

    def install(self) -> None:
        modules = [
            mod
            for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for module_name, path, hook in TARGETS:
            home = sys.modules.get(f"{PACKAGE}.{module_name}")
            owner_path, _, attr = path.rpartition(".")
            owner = home
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                continue  # renamed or removed: its metrics read 0
            wrapper = self._wrap(original, f"{module_name}.{path}", hook)
            if owner is not home:  # a method: its one binding is the class
                self._set(owner, attr, wrapper)
                continue
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, name, wrapper)

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc: object) -> None:
        self.restore()

    def _wrap(self, fn: Callable, name: str, hook: Hook | None) -> Callable:
        spans, stack, counters = self.spans, self._stack, self.counters

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not stack:
                return fn(*args, **kwargs)
            parent = stack[-1]
            index = len(spans)
            start = perf_counter()
            spans.append((name, start, start, parent, self._op, False))
            stack.append(index)
            error = None
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self._op, error is not None)
                if hook is not None:
                    hook(counters, args, result, error, spans[parent][0])

        return wrapper

    # -- ops ---------------------------------------------------------------

    @contextlib.contextmanager
    def op(self, op_id: int) -> Iterator[None]:
        """The root span of one op; wrapped calls inside it record spans."""
        self._op = op_id
        index = len(self.spans)
        start = perf_counter()
        self.spans.append((ROOT, start, start, -1, op_id, False))
        self._stack.append(index)
        raised = True
        try:
            yield
            raised = False
        finally:
            self._stack.pop()
            self.spans[index] = (ROOT, start, perf_counter(), -1, op_id, raised)

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: duration minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - c for (_, start, end, _, _, _), c in zip(self.spans, child)]

    def summary(self) -> dict[str, float]:
        """Per-span-name call counts and self seconds, the layers' self
        seconds, and the span-derived search counters."""
        selfs = self.self_times()
        out: dict[str, float] = defaultdict(float)
        simplex_under: Counter = Counter()
        min_order_ok_in_search = 0
        for (name, start, end, parent, _, raised), own in zip(self.spans, selfs):
            layer = name.split(".", 1)[0]
            out[f"calls:{name}"] += 1
            out[f"self:{name}"] += own
            out[f"total:{name}"] += end - start
            out[f"layer:{layer}"] += own
            parent_name = self.spans[parent][0] if parent >= 0 else ""
            if name == "lp.simplex_solve" and parent_name == "lp.min_order_lp":
                simplex_under[parent] += 1
            if name == "lp.min_order_lp" and parent_name == "lp.extremal_search" and not raised:
                min_order_ok_in_search += 1
        # every simplex call inside min_order_lp after its root solve is a B&B node
        out["lp.bnb_nodes"] = sum(max(0, c - 1) for c in simplex_under.values())
        out["lp.budget_pruned"] = min_order_ok_in_search - self.counters["lp.diameter_checks"]
        out["trace.spans"] = len(self.spans)
        out.update(self.counters)
        return out

    def metrics(self, ops: int, overhead_ratio: float) -> dict[str, tuple[float, str]]:
        """Every PER_LAYER metric as (value, unit): counts and seconds per
        traced op, ratios as they are."""
        s = self.summary()
        sequences = s["lp.pattern_sequences"]
        accepted = s["lp.diameter_checks"] - s["lp.diameter_rejects"]
        rewrites = s["canonical.rewrites"]
        derived = {
            "lp.accepted_ratio": accepted / sequences if sequences else 0.0,
            "canonical.us_per_rewrite": (
                s["total:canonical.canonicalize"] / rewrites * 1e6 if rewrites else 0.0
            ),
            "trace.attributed_ratio": 1 - s[f"self:{ROOT}"] / s[f"total:{ROOT}"],
            "trace.overhead_ratio": overhead_ratio,
        }
        return {
            name: (s[source] / ops if source else derived[name], unit)
            for name, unit, source in PER_LAYER
        }
