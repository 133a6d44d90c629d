"""Spans around calls into cathedral's public functions, installed from
outside the program for the traced run only.

Every wrapped function gets a span named ``<module>.<function>`` and belongs
to one group, the layer a per-layer metric reports on.  Spans are
aggregated as they close rather than stored: per name the call count and
self time (duration minus the time of direct child spans), per group the
inclusive time of outermost spans only, so recursion and nesting inside
the same group are counted once.  A few events are also counted per
enclosing group, e.g. ``matching_number`` lookups made inside
``allowed_edges``.

``install`` replaces a function on every cathedral module namespace that
bound it, including names taken with ``from ... import``, and returns the
function that puts every original back.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter, defaultdict
from typing import Any, Callable

MARK = "__bench_span__"

# module -> {function: group}
TARGETS: dict[str, dict[str, str]] = {
    "graph": {
        name: "graph"
        for name in (
            "parse_edge_list",
            "render_edge_list",
            "induced_subgraph",
            "delete_vertices",
            "contract",
            "add_edges",
            "neighbors",
            "connected_components",
            "complement_pairs",
        )
    },
    "matching": {
        name: "matching"
        for name in (
            "maximum_matching",
            "matching_number",
            "is_factorizable",
            "is_factor_critical",
            "enumerate_perfect_matchings",
            "perfect_matching_union",
            "restrict_matching",
            "alternating_reachability",
            "alternating_path_exists",
            "iter_saturated_paths",
            "alternating_circuit_exists",
        )
    },
    "gallai_edmonds": {"gallai_edmonds": "gallai_edmonds"},
    "canonical": {
        "allowed_edges": "canonical.allowed",
        "factor_components": "canonical",
        "canonical_partition": "canonical.partition",
        "same_class": "canonical",
        "is_separating": "canonical",
        "component_leq": "canonical.order",
        "component_poset": "canonical.order",
        "minimum_component": "canonical",
        "up_sets": "canonical.upsets",
    },
    "construction": {
        "is_saturated": "construction.is_saturated",
        "saturate": "construction.saturate",
        "decompose": "construction.decompose",
        "construct": "construction.construct",
        "construct_tree": "construction.construct",
        "foundation_via_ge": "construction",
    },
    "serialize": {
        name: "serialize"
        for name in (
            "tree_to_dict",
            "tree_from_dict",
            "tree_to_json",
            "tree_from_json",
            "hasse_dot",
            "analysis_dict",
            "analysis_text",
            "report_dict",
            "report_json",
            "report_text",
        )
    },
    "verify": {name: "verify" for name in ("run_suite", "run_trials", "random_factorizable_graph")},
    "cli": {"main": "cli"},
}

# Graph construction is a method, wrapped on the class itself.
GRAPH_INIT = "graph.Graph"

# (group, event span): events counted while a span of the group is open
NESTED: tuple[tuple[str, str], ...] = (
    ("gallai_edmonds", "matching.maximum_matching"),
    ("canonical.allowed", "matching.matching_number"),
    ("canonical.partition", "matching.matching_number"),
    ("canonical.order", "matching.is_factor_critical"),
    ("canonical.order", "graph.contract"),
    ("construction.saturate", "matching.is_factorizable"),
    ("construction.decompose", "canonical.component_poset"),
)

_BUDGET_WORDS = ("budget", "cap", "too many", "more than")


class Tracer:
    """Aggregated spans of one traced pass."""

    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.inclusive_s: defaultdict[str, float] = defaultdict(float)
        self.open: Counter[str] = Counter()
        self.nested: Counter[tuple[str, str]] = Counter()
        self.results: Counter[str] = Counter()
        self._stack: list[list[float]] = []

    def wrap(self, name: str, group: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        calls, self_s, inclusive_s, open_, nested = (
            self.calls, self.self_s, self.inclusive_s, self.open, self.nested,
        )
        stack = self._stack
        clock = time.perf_counter
        scopes = tuple(g for g, event in NESTED if event == name)
        on_result = _RESULT_HOOKS.get(name)
        results = self.results

        def enter() -> list[float]:
            for scope in scopes:
                if open_[scope]:
                    nested[scope, name] += 1
            open_[group] += 1
            frame = [clock(), 0.0]
            stack.append(frame)
            return frame

        def leave(frame: list[float]) -> None:
            stack.pop()
            duration = clock() - frame[0]
            self_s[name] += duration - frame[1]
            if stack:
                stack[-1][1] += duration
            open_[group] -= 1
            if not open_[group]:
                inclusive_s[group] += duration

        if inspect.isgeneratorfunction(fn):
            # the work happens while the caller iterates, so every resumption
            # is a span; the call is counted once
            def traced(*args: Any, **kwargs: Any) -> Any:
                calls[name] += 1
                it = fn(*args, **kwargs)
                while True:
                    frame = enter()
                    try:
                        value = next(it)
                    except StopIteration:
                        return
                    finally:
                        leave(frame)
                    yield value

        else:

            def traced(*args: Any, **kwargs: Any) -> Any:
                calls[name] += 1
                frame = enter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    leave(frame)
                if on_result is not None:
                    on_result(results, args, result)
                return result

        setattr(traced, MARK, name)
        return traced

    def snapshot(self) -> dict[str, Any]:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "inclusive_s": dict(self.inclusive_s),
            "nested": {f"{g}>{e}": c for (g, e), c in self.nested.items()},
            "results": dict(self.results),
        }


def _leq_result(results: Counter[str], args: tuple, result: Any) -> None:
    # component_leq(graph, comps, lower, upper): an off-diagonal entry found true
    if result and args[2] != args[3]:
        results["order.true_offdiagonal"] += 1


def _saturate_result(results: Counter[str], args: tuple, result: Any) -> None:
    results["saturate.added"] += len(result[1])


def _suite_result(results: Counter[str], args: tuple, result: Any) -> None:
    results["verify.checks"] += len(result.results)
    results["verify.budget_skips"] += sum(
        r.status == "skip" and any(word in r.reason for word in _BUDGET_WORDS)
        for r in result.results
    )


_RESULT_HOOKS = {
    "canonical.component_leq": _leq_result,
    "construction.saturate": _saturate_result,
    "verify.run_suite": _suite_result,
}


def _cathedral_modules() -> list[Any]:
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == "cathedral" or name.startswith("cathedral."))
    ]


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every target on every cathedral namespace that bound it; the
    returned function restores the originals."""
    import cathedral.cli  # noqa: F401  (loads every module that gets wrapped)
    from cathedral.graph import Graph

    modules = _cathedral_modules()
    undo: list[tuple[Any, str, Any]] = []
    for module_name, functions in TARGETS.items():
        home = sys.modules[f"cathedral.{module_name}"]
        for function, group in functions.items():
            original = getattr(home, function)
            wrapper = tracer.wrap(f"{module_name}.{function}", group, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        undo.append((module, attr, original))
                        setattr(module, attr, wrapper)
    init = Graph.__init__
    undo.append((Graph, "__init__", init))
    Graph.__init__ = tracer.wrap(GRAPH_INIT, "graph", init)  # type: ignore[method-assign]

    def restore() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore


def wrapped_bindings() -> list[str]:
    """Every cathedral binding that currently holds a span wrapper."""
    from cathedral.graph import Graph

    found = [
        f"{module.__name__}.{attr}"
        for module in _cathedral_modules()
        for attr, value in vars(module).items()
        if hasattr(value, MARK)
    ]
    if hasattr(Graph.__init__, MARK):
        found.append("cathedral.graph.Graph.__init__")
    return found


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(snapshot: dict[str, Any]) -> dict[str, float]:
    """The per-layer metrics of one traced pass, keyed by metric name."""
    calls = snapshot["calls"]
    self_s = snapshot["self_s"]
    inclusive = snapshot["inclusive_s"]
    nested = snapshot["nested"]
    results = snapshot["results"]

    def count(name: str) -> int:
        return calls.get(name, 0)

    def module_self(module: str) -> float:
        return sum((t for name, t in self_s.items() if name.split(".")[0] == module), 0.0)

    def group_self(group: str) -> float:
        names = {f"{m}.{f}" for m, fs in TARGETS.items() for f, g in fs.items() if g == group}
        return sum(self_s.get(name, 0.0) for name in names)

    searches = count("matching.maximum_matching")
    lookups = count("matching.matching_number")
    ge_calls = count("gallai_edmonds.gallai_edmonds")
    fc_tests = nested.get("canonical.order>matching.is_factor_critical", 0)
    sat_tests = nested.get("construction.saturate>matching.is_factorizable", 0)
    return {
        "graph.built": count(GRAPH_INIT),
        "graph.self_s": module_self("graph"),
        "matching.searches": searches,
        "matching.lookups": lookups,
        "matching.search_ratio": _ratio(searches, lookups),
        "matching.self_s": module_self("matching"),
        "matching.enumerations": count("matching.enumerate_perfect_matchings"),
        "matching.path_queries": sum(
            count(f"matching.{f}")
            for f in (
                "alternating_reachability",
                "alternating_path_exists",
                "iter_saturated_paths",
                "alternating_circuit_exists",
            )
        ),
        "gallai_edmonds.calls": ge_calls,
        "gallai_edmonds.searches_per_call": _ratio(
            nested.get("gallai_edmonds>matching.maximum_matching", 0), ge_calls
        ),
        "gallai_edmonds.time_s": inclusive.get("gallai_edmonds", 0.0),
        "gallai_edmonds.self_s": module_self("gallai_edmonds"),
        "canonical.allowed.time_s": inclusive.get("canonical.allowed", 0.0),
        "canonical.allowed.lookups": nested.get("canonical.allowed>matching.matching_number", 0),
        "canonical.partition.time_s": inclusive.get("canonical.partition", 0.0),
        "canonical.partition.lookups": nested.get(
            "canonical.partition>matching.matching_number", 0
        ),
        "canonical.order.time_s": inclusive.get("canonical.order", 0.0),
        "canonical.order.self_s": group_self("canonical.order"),
        "canonical.order.fc_tests": fc_tests,
        "canonical.order.contractions": nested.get("canonical.order>graph.contract", 0),
        "canonical.order.yield": _ratio(results.get("order.true_offdiagonal", 0), fc_tests),
        "canonical.upsets.time_s": inclusive.get("canonical.upsets", 0.0),
        "construction.saturate.time_s": inclusive.get("construction.saturate", 0.0),
        "construction.saturate.tests": sat_tests,
        "construction.saturate.tests_per_added_edge": _ratio(
            sat_tests, results.get("saturate.added", 0)
        ),
        "construction.decompose.time_s": inclusive.get("construction.decompose", 0.0),
        "construction.decompose.order_runs": nested.get(
            "construction.decompose>canonical.component_poset", 0
        ),
        "construction.construct.time_s": inclusive.get("construction.construct", 0.0),
        "construction.is_saturated.time_s": inclusive.get("construction.is_saturated", 0.0),
        "verify.time_s": inclusive.get("verify", 0.0),
        "verify.self_s": module_self("verify"),
        "verify.checks": results.get("verify.checks", 0),
        "verify.budget_skips": results.get("verify.budget_skips", 0),
        "serialize.self_s": module_self("serialize"),
        "cli.self_s": module_self("cli"),
    }
