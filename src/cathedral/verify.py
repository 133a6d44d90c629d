"""Seeded random instances and the conformance suite's entry points.

``import cathedral.cli`` loads this module: the suite's configuration, its
results, its generator and its check ids.  The checks themselves live in
``cathedral.checks``, which ``run_suite`` imports on its first call, so the
CLI's other verbs never compile them and ``verify`` compiles them once per
process.
"""

from __future__ import annotations

import random
from typing import Iterable

# gallai_edmonds is unused here, but bench/selftest.py pins this binding
# until the benchmark reads counters inside the library (ROADMAP item 1)
from .gallai_edmonds import gallai_edmonds  # noqa: F401
from .graph import Graph, Value

_MASK64 = (1 << 64) - 1


class TrialConfig(Value):
    """Knobs for the random-instance generator and the suite budgets."""

    _fields = ("seed", "trials", "max_vertices", "edge_probability", "enumeration_cap")
    seed: int
    trials: int
    max_vertices: int
    edge_probability: float
    enumeration_cap: int

    def __init__(
        self,
        seed: int,
        trials: int = 100,
        max_vertices: int = 8,
        edge_probability: float = 0.3,
        enumeration_cap: int = 64,
    ) -> None:
        if trials < 1:
            raise ValueError("trials must be at least 1")
        if max_vertices < 2 or max_vertices % 2 != 0:
            raise ValueError("max_vertices must be even and at least 2")
        if not 0.0 <= edge_probability <= 1.0:
            raise ValueError("edge_probability must lie in [0, 1]")
        if enumeration_cap < 1:
            raise ValueError("enumeration_cap must be at least 1")
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "trials", trials)
        object.__setattr__(self, "max_vertices", max_vertices)
        object.__setattr__(self, "edge_probability", edge_probability)
        object.__setattr__(self, "enumeration_cap", enumeration_cap)


def _mix(seed: int, trial: int) -> int:
    # splitmix64 over (seed, trial): every trial gets an independent,
    # platform-stable stream
    x = (seed * 0x9E3779B97F4A7C15 + trial) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def random_factorizable_graph(config: TrialConfig, trial: int) -> Graph:
    """Plant the matching (0,1), (2,3), ... then add every other pair
    independently with the configured probability."""
    rng = random.Random(_mix(config.seed, trial))
    n = 2 * rng.randint(1, config.max_vertices // 2)
    edges = {(2 * i, 2 * i + 1) for i in range(n // 2)}
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in edges and rng.random() < config.edge_probability:
                edges.add((u, v))
    return Graph(range(n), edges)


class CheckResult(Value):
    _fields = ("check", "status", "reason", "counterexample", "millis")
    check: str
    status: str  # "pass" | "fail" | "skip"
    reason: str
    counterexample: str
    millis: float

    def __init__(
        self,
        check: str,
        status: str,
        reason: str = "",
        counterexample: str = "",
        millis: float = 0.0,
    ) -> None:
        object.__setattr__(self, "check", check)
        object.__setattr__(self, "status", status)
        object.__setattr__(self, "reason", reason)
        object.__setattr__(self, "counterexample", counterexample)
        object.__setattr__(self, "millis", millis)


class SuiteReport(Value):
    _fields = ("graph_text", "config", "results")
    graph_text: str
    config: TrialConfig
    results: tuple[CheckResult, ...]

    def __init__(
        self, graph_text: str, config: TrialConfig, results: tuple[CheckResult, ...]
    ) -> None:
        object.__setattr__(self, "graph_text", graph_text)
        object.__setattr__(self, "config", config)
        object.__setattr__(self, "results", results)

    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(r for r in self.results if r.status == "fail")

    @property
    def ok(self) -> bool:
        return not self.failures()


# the ids of checks._CHECKS, in the order they run, which a test holds equal
CHECK_IDS: tuple[str, ...] = (
    "exposure-partition-paths",
    "deleted-vertex-partition-paths",
    "component-order-laws",
    "canonical-partition-equivalence",
    "partition-refines-subgraph-partition",
    "same-class-iff-no-saturated-path",
    "upper-components-single-class",
    "ear-ends-share-class",
    "incomparable-pair-edge-witness",
    "elementary-pairwise-reachability",
    "upward-reachability",
    "combined-reachability",
    "deleted-partition-matches-up-sets",
    "foundation-equals-ge-complement",
    "saturated-has-minimum",
    "saturated-partition-matches-parts",
    "foundation-and-towers-saturated",
    "tower-join-complete",
    "foundation-contraction-factor-critical",
    "saturated-class-edges-present",
    "saturated-connected",
    "allowed-edges-from-parts",
    "matchings-product-of-parts",
    "foundation-unique-via-ge",
    "decomposition-round-trip",
    "construction-foundation-minimum",
    "construction-output-saturated",
    "factor-critical-iff-balanced-to-exposed",
    "allowed-iff-circuit-iff-path",
    "saturated-path-iff-deletion-factorizable",
    "saturated-path-separator-split",
    "complement-edge-new-matching-iff-path",
    "allowed-edges-enumeration-agreement",
    "balanced-path-cross-matching-agreement",
    "closure-saturated-and-preserving",
)

# Subset exercised by the path-conformance acceptance criterion.
PATH_CHECK_IDS: tuple[str, ...] = (
    "exposure-partition-paths",
    "deleted-vertex-partition-paths",
    "partition-refines-subgraph-partition",
    "same-class-iff-no-saturated-path",
    "upper-components-single-class",
    "ear-ends-share-class",
    "elementary-pairwise-reachability",
    "upward-reachability",
    "combined-reachability",
    "deleted-partition-matches-up-sets",
    "factor-critical-iff-balanced-to-exposed",
    "allowed-iff-circuit-iff-path",
    "saturated-path-iff-deletion-factorizable",
    "saturated-path-separator-split",
    "complement-edge-new-matching-iff-path",
)


def run_suite(graph: Graph, config: TrialConfig, only: Iterable[str] | None = None) -> SuiteReport:
    """Run every applicable check on one graph.

    Hypothesis-skipped checks are re-run on the graph's saturation closure
    (reported with an ``@closure`` suffix); ``only`` restricts the run to a
    subset of check ids.
    """
    from .checks import _run_suite

    return _run_suite(graph, config, only)


def run_trials(config: TrialConfig, only: Iterable[str] | None = None) -> list[SuiteReport]:
    """Generate and check ``config.trials`` random graphs.

    Each trial's randomness is derived from (seed, trial), so trials are
    independent and their results do not depend on execution order."""
    return [
        run_suite(random_factorizable_graph(config, t), config, only)
        for t in range(config.trials)
    ]
