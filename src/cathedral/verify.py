"""Seeded random instances plus the conformance suite.

Every structural statement the package relies on is re-checked here on
concrete graphs, two-sided wherever the statement is an equivalence, against
exhaustive alternating-path searches and perfect-matching enumeration.
Checks whose hypotheses a graph does not meet (saturated-only statements on
an unsaturated graph, minimum-element statements on an antichain) are
reported as skipped and re-run on the graph's saturation closure.

The graph's context holds each definitional artifact once (pair-deletion
verdicts, grown graphs, part contexts, reachability sweeps, closures) for
every check.  The deletion questions, whether G-u-v is factorizable and how
many perfect matchings it has, and what the partition of G-x is and whether
G-x is factor-critical, run on G's own index with the deleted vertices
hidden, so no deletion is built.

A failing check ships a replayable counterexample: the graph is greedily
shrunk (edge removals, then vertex-pair removals) while the failure
persists, relabeled to dense ids, re-verified, and rendered as edge-list
text.
"""

from __future__ import annotations

import random
import time
from functools import cached_property
from itertools import chain, combinations, combinations_with_replacement, product
from typing import Callable, Iterable, Iterator

from .canonical import GraphStructure, _up_sets, minimum_component
from .construction import (
    CathedralTree,
    _construct_tree,
    _decompose_saturated,
    _foundation_via_ge,
    saturate,
)
from .errors import (
    ConstructionError,
    NotFactorizableError,
    PreconditionError,
    SearchBudgetExceeded,
    StructureViolation,
)
from .gallai_edmonds import gallai_edmonds
from .graph import (
    Edge,
    Graph,
    Value,
    add_edges,
    complement_pairs,
    connected_components,
    contract,
    delete_vertices,
    edge,
    induced_subgraph,
    neighbors,
    render_edge_list,
)
from .matching import (
    AlternatingReach,
    Matching,
    PerfectMatchingEnumeration,
    alternating_circuit_exists,
    alternating_path_exists,
    alternating_reachability,
    enumerate_perfect_matchings,
    is_factor_critical,
    is_factorizable,
    iter_saturated_paths,
    PathKind,
)

_MASK64 = (1 << 64) - 1
# All perfect matchings are used by per-matching checks up to this order;
# larger graphs fall back to the first matching only.
_EXHAUSTIVE_ORDER = 9
_PATHS_PER_PAIR = 200
# expansions each path search and reachability sweep may spend
_PATH_BUDGET = 2_000_000
# candidate graphs a failing check's counterexample search tries at most
_SHRINK_ATTEMPTS = 400


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


class _CheckFailed(Exception):
    pass


class _SkipCheck(Exception):
    def __init__(self, reason: str, rerun_on_closure: bool = True):
        super().__init__(reason)
        self.rerun_on_closure = rerun_on_closure


def _fail(detail: str) -> None:
    raise _CheckFailed(detail)


def _graph_text(graph: Graph) -> str:
    return render_edge_list(_relabel_dense(graph))


def _relabel_dense(graph: Graph) -> Graph:
    remap = {v: i for i, v in enumerate(graph.vertices)}
    return Graph(range(graph.order), ((remap[u], remap[v]) for u, v in graph.edges))


class _Table(dict):
    """A dict that fills each missing entry on first lookup, as the deletion
    table fills its rows.

    A fill that exceeds its search budget is kept apart: its key stays out
    of the dict, and every later lookup raises the same error without
    filling again.  Only the message is kept, so no traceback holds the
    table."""

    def __init__(self, fill: Callable) -> None:
        self.fill = fill
        self.exceeded: dict = {}

    def __missing__(self, key):
        if key in self.exceeded:
            raise SearchBudgetExceeded(self.exceeded[key])
        try:
            value = self[key] = self.fill(key)
        except SearchBudgetExceeded as exc:
            self.exceeded[key] = str(exc)
            raise
        return value


class _TrialContext(GraphStructure):
    """Shared, lazily computed artifacts for one graph under test, on top of
    the graph's canonical structures, each held once and read by every check
    that needs it.  A table's fill closes over the artifacts it reads, not
    over the context, so no reference cycle keeps a finished context alive."""

    _fields = ("graph", "config")
    config: TrialConfig

    def __init__(self, graph: Graph, config: TrialConfig) -> None:
        super().__init__(graph)
        object.__setattr__(self, "config", config)

    @cached_property
    def enumeration(self) -> PerfectMatchingEnumeration:
        return enumerate_perfect_matchings(self.graph, self.config.enumeration_cap)

    @property
    def matchings(self) -> tuple[Matching, ...]:
        return self.enumeration.matchings

    @property
    def matchings_checked(self) -> tuple[Matching, ...]:
        if self.graph.order <= _EXHAUSTIVE_ORDER:
            return self.matchings
        return self.matchings[:1]

    def checked_reaches(self) -> Iterator[tuple[Matching, AlternatingReach]]:
        """Each checked perfect matching with its reachability sweep."""
        for mi, m in enumerate(self.matchings_checked):
            yield m, self.reach[mi]

    def require_complete_enumeration(self) -> None:
        if self.enumeration.truncated:
            raise _SkipCheck(
                f"more than {self.config.enumeration_cap} perfect matchings",
                rerun_on_closure=False,
            )

    @cached_property
    def allowed_union(self) -> frozenset[Edge]:
        return frozenset().union(*(m.edges for m in self.matchings))

    @cached_property
    def order_minimum(self) -> int | None:
        return minimum_component(self.poset)

    @cached_property
    def tree(self) -> CathedralTree:
        # every reader has run require_saturated
        return _decompose_saturated(self, frozenset(range(len(self.components))))

    @cached_property
    def rebuilt(self) -> GraphStructure:
        """construct_tree's output, with the structure it was checked on."""
        # construct re-checks the tree from scratch, so a refusal is a failure
        try:
            return _construct_tree(self.tree)
        except ConstructionError as refused:
            raise _CheckFailed(f"construct refused the decomposition: {refused}") from None

    @cached_property
    def foundation_via_ge(self) -> frozenset[int]:
        return _foundation_via_ge(self)

    @cached_property
    def foundation_parts(self) -> tuple[frozenset[int], ...]:
        """The minimum component's vertices, then each tower's: the connected
        pieces of the rest."""
        fv = self.components.components[self.require_minimum()]
        pieces = connected_components(self.graph, self.graph.vertex_set - fv)
        return (fv, *(frozenset(p) for p in pieces))

    @cached_property
    def tower_classes(self) -> tuple[frozenset[int], ...]:
        """For each tower, the classes that its neighbours lie in."""
        return tuple(
            frozenset(self.partition.class_of[w] for w in neighbors(self.graph, tower))
            for tower in self.foundation_parts[1:]
        )

    @cached_property
    def reach(self) -> _Table:
        """The reachability sweep under each perfect matching, by its index."""
        graph, matchings = self.graph, self.matchings
        return _Table(
            lambda mi: alternating_reachability(graph, matchings[mi], budget=_PATH_BUDGET)
        )

    @cached_property
    def upsets(self) -> _Table:
        """The up-sets above each component, by its index."""
        graph, poset, partition = self.graph, self.poset, self.partition
        return _Table(lambda base: _up_sets(graph, poset, partition, base))

    @cached_property
    def pair_factorizable(self) -> _Table:
        """Whether G-u-v is factorizable, by the unordered pair ``edge(u, v)``:
        a fresh test on G's index with u and v hidden, reading neither the
        structure's D(G-u) table nor its matching."""
        graph = self.graph
        return _Table(lambda pair: is_factorizable(graph, kept=graph.vertex_set.difference(pair)))

    @cached_property
    def parts(self) -> _Table:
        """A from-scratch context of the subgraph induced on each vertex set,
        never this one, so that no check compares an artifact with itself:
        the part builds its index, like everything else, from its own edges,
        so a fault in this graph's rows cannot reach it.  Only elementary
        reachability, which compares nothing with this context, reads this
        context in place of the part on every vertex: that part is the same
        graph with the same enumeration and sweeps."""
        graph, config = self.graph, self.config
        # G[S] rebuilt for the checks that compare G with its components, foundation and towers
        return _Table(lambda vertex_set: _TrialContext(induced_subgraph(graph, vertex_set), config))

    @cached_property
    def closures(self) -> _Table:
        """A context of the saturation closure and its added edges, by
        ``descending``.  Both scan orders share one context when they give
        the same graph, as they mostly do, so that graph's structures and
        enumerations are built once."""
        graph, config = self.graph, self.config
        # by closure graph; the fill closes over this, not over the table
        contexts: dict[Graph, _TrialContext] = {}

        def fill(descending: bool) -> tuple[_TrialContext, tuple[Edge, ...]]:
            closed, added = saturate(graph, descending=descending)
            if closed not in contexts:
                contexts[closed] = _TrialContext(closed, config)
            return contexts[closed], added

        return _Table(fill)

    @cached_property
    def wide_enumeration(self) -> PerfectMatchingEnumeration:
        """The perfect matchings up to twice the cap: as a closure, this
        graph must have the input's, and the input has at most the cap."""
        return enumerate_perfect_matchings(self.graph, 2 * self.config.enumeration_cap)

    def require_saturated(self) -> None:
        if not self.saturated:
            raise _SkipCheck("graph is not saturated")

    def require_minimum(self) -> int:
        if self.order_minimum is None:
            raise _SkipCheck("component order has no minimum element")
        return self.order_minimum


# --- individual checks ------------------------------------------------------


def _check_exposure_partition_paths(ctx: _TrialContext) -> None:
    """The three-way deletion partition matches balanced/exposed reachability
    from the exposed set, on the graph itself and on every single deletion.

    The first perfect matching M exposes nothing, so D = A = ∅ in G.  In G-x,
    M less xp exposes p alone and every other vertex keeps its mate, so a
    balanced (exposed) u-p path of G-x, reversed and led by xp, is a
    saturated (balanced) x-u path of G; every path from x starts with xp, and
    dropping x inverts the map on simple paths.  p's trivial balanced path is
    the edge xp.  So for u != x, u is in D(G-x) iff u is in saturated[x], and
    in A(G-x) iff it is not but is in balanced[x]."""
    if not ctx.graph.order:
        return
    reach, every = ctx.reach[0], ctx.graph.vertex_set
    instances = [(every, frozenset(), frozenset())]
    for x in ctx.graph.vertices:
        sat = reach.saturated[x]
        instances.append((every - {x}, sat, reach.balanced[x] - sat))
    for kept, d, a in instances:
        # asked on G's index, reading neither the structure's D(G-x) nor its matching
        ge = gallai_edmonds(ctx.graph, kept=kept)
        for u in sorted(kept):
            in_d, in_a = u in d, u in a
            in_c = not in_d and not in_a
            if (u in ge.d) != in_d or (u in ge.a) != in_a or (u in ge.c) != in_c:
                _fail(f"partition of {sorted(kept)} disagrees with paths at {u}")


def _check_deleted_partition_paths(ctx: _TrialContext) -> None:
    """Membership in the deletion partition of G-x is equivalent to saturated
    and balanced reachability from x, for every perfect matching."""
    for _, reach in ctx.checked_reaches():
        for x in ctx.graph.vertices:
            ge = ctx.deletion_partitions[x]
            for u in ctx.graph.vertices:
                if u == x:
                    continue
                sat = u in reach.saturated[x]
                bal = u in reach.balanced[x]
                if (u in ge.d) != sat:
                    _fail(f"exposable part of G-{x} wrong at {u}")
                if (u in ge.a) != (not sat and bal):
                    _fail(f"neighbor part of G-{x} wrong at {u}")
                if (u in ge.c) != (not sat and not bal):
                    _fail(f"inner part of G-{x} wrong at {u}")


def _check_order_laws(ctx: _TrialContext) -> None:
    leq = ctx.poset.leq
    k = len(leq)
    for i in range(k):
        if not leq[i][i]:
            _fail(f"not reflexive at component {i}")
        for j in range(k):
            if i != j and leq[i][j] and leq[j][i]:
                _fail(f"not antisymmetric at {i}, {j}")
            for m in range(k):
                if leq[i][j] and leq[j][m] and not leq[i][m]:
                    _fail(f"not transitive at {i}, {j}, {m}")


def _check_partition_equivalence(ctx: _TrialContext) -> None:
    """Recompute the same-class relation definitionally and confirm it is an
    equivalence matching the computed classes."""
    comp_of = ctx.components.component_of
    rel: dict[tuple[int, int], bool] = {}
    for u in ctx.graph.vertices:
        for v in ctx.graph.vertices:
            if u == v:
                rel[u, v] = True
            elif comp_of[u] != comp_of[v]:
                rel[u, v] = False
            else:
                rel[u, v] = not ctx.pair_factorizable[edge(u, v)]
    for u in ctx.graph.vertices:
        for v in ctx.graph.vertices:
            if rel[u, v] != rel[v, u]:
                _fail(f"relation not symmetric at {u}, {v}")
            if rel[u, v]:
                for w in ctx.graph.vertices:
                    if rel[v, w] and not rel[u, w]:
                        _fail(f"relation not transitive at {u}, {v}, {w}")
            same = ctx.partition.class_of[u] == ctx.partition.class_of[v]
            if rel[u, v] != same:
                _fail(f"classes disagree with the relation at {u}, {v}")


def _check_partition_refinement(ctx: _TrialContext) -> None:
    """Within each component, same class in the whole graph implies same
    class in the component's own partition."""
    for comp in ctx.components.components:
        sub_part = ctx.parts[comp].partition
        for u, v in combinations(sorted(comp), 2):
            if ctx.partition.class_of[u] == ctx.partition.class_of[v]:
                if sub_part.class_of[u] != sub_part.class_of[v]:
                    _fail(f"refinement fails at {u}, {v} in component {sorted(comp)}")


def _check_same_class_no_saturated_path(ctx: _TrialContext) -> None:
    """Two vertices of one component share a class iff no saturated path
    joins them, for every perfect matching."""
    comp_of = ctx.components.component_of
    for _, reach in ctx.checked_reaches():
        for u, v in combinations(ctx.graph.vertices, 2):
            if comp_of[u] != comp_of[v]:
                continue
            same = ctx.partition.class_of[u] == ctx.partition.class_of[v]
            if same == (v in reach.saturated[u]):
                _fail(f"saturated-path criterion disagrees at {u}, {v}")


def _check_upper_single_class(ctx: _TrialContext) -> None:
    """Every connected piece above a component attaches to exactly one of its
    classes, and the assignment covers the strict upper bounds."""
    for base in range(len(ctx.poset)):
        us = ctx.upsets[base]  # raises ClassAssignmentViolation on failure
        union: set[int] = set()
        for members in us.per_class.values():
            if union & members:
                _fail(f"class assignments overlap above component {base}")
            union |= members
        if frozenset(union) != us.strict_upper_components():
            _fail(f"class assignments miss components above component {base}")


def _saturated_paths(
    ctx: _TrialContext, m: Matching, u: int, v: int, kept: frozenset[int] | None, kind: str
) -> Iterator[tuple[int, ...]]:
    """The saturated u-v paths inside ``kept``; the check is skipped when
    there are more than ``_PATHS_PER_PAIR`` of them."""
    paths = iter_saturated_paths(ctx.graph, m, u, v, kept=kept, budget=_PATH_BUDGET)
    for count, path in enumerate(paths, 1):
        if count > _PATHS_PER_PAIR:
            raise _SkipCheck(f"too many {kind} paths", rerun_on_closure=False)
        yield path


def _check_ear_ends_share_class(ctx: _TrialContext) -> None:
    """Both end vertices of any matching-ear relative to a component share a
    canonical class."""
    for m in ctx.matchings_checked:
        for comp in ctx.components.components:
            outside_vertices = ctx.graph.vertex_set - comp
            if not outside_vertices:
                continue
            reach = alternating_reachability(
                ctx.graph, m, kept=outside_vertices, budget=_PATH_BUDGET
            )
            for u, w in combinations(sorted(outside_vertices), 2):
                if w not in reach.saturated[u]:
                    continue
                for path in _saturated_paths(ctx, m, u, w, outside_vertices, "interior"):
                    heads = neighbors(ctx.graph, (path[0],)) & comp
                    tails = neighbors(ctx.graph, (path[-1],)) & comp
                    for a in heads:
                        for b in tails:
                            if a != b and ctx.partition.class_of[a] != ctx.partition.class_of[b]:
                                _fail(
                                    f"ear through {list(path)} has ends {a}, {b} in different classes"
                                )


def _check_incomparable_edge_witness(ctx: _TrialContext) -> None:
    """For a minimal component and any component not above it, one or two
    complement edges between them keep the components intact and create the
    missing order relation."""
    leq = ctx.poset.leq
    comps = ctx.components.components
    k = len(comps)
    minimal = [i for i in range(k) if not any(j != i and leq[j][i] for j in range(k))]
    old_sets = set(comps)
    # the two ordered pairs of two components try the same edge sets
    grown_by = _Table(lambda added: GraphStructure(add_edges(ctx.graph, added)))
    for i in minimal:
        for j in range(k):
            if i == j or leq[i][j]:
                continue
            cands = [
                edge(x, y)
                for x in sorted(comps[i])
                for y in sorted(comps[j])
                if not ctx.graph.has_edge(x, y)
            ]
            for e, f in combinations_with_replacement(cands, 2):
                grown = grown_by[tuple(sorted({e, f}))]
                grown_comps = grown.components.components
                if set(grown_comps) != old_sets:
                    continue
                gi = grown_comps.index(comps[i])
                gj = grown_comps.index(comps[j])
                if gj in grown.above(gi):
                    break
            else:
                _fail(
                    f"no edge pair relates component {sorted(comps[i])} below {sorted(comps[j])}"
                )


def _check_elementary_reachability(ctx: _TrialContext) -> None:
    """Inside one component, every ordered vertex pair is joined by a
    saturated path or by a balanced path."""
    for comp in ctx.components.components:
        # a part on every vertex would be this graph, enumerated and swept
        # alike, and nothing here compares it with this context
        part = ctx if comp == ctx.graph.vertex_set else ctx.parts[comp]
        # the host's order decides, as it does for the host's own matchings
        checked = part.matchings if ctx.graph.order <= _EXHAUSTIVE_ORDER else part.matchings[:1]
        for mi, _ in enumerate(checked):
            reach = part.reach[mi]
            for u in part.graph.vertices:
                for v in part.graph.vertices:
                    if u == v:
                        continue
                    if v not in reach.saturated[u] and v not in reach.balanced[u]:
                        _fail(f"no saturated or balanced path from {u} to {v} in {sorted(comp)}")


def _upper_bound_instances(ctx: _TrialContext):
    """Common iteration for the upper-bound reachability checks: yields
    (matching, reach, base component, its class indices, up-sets)."""
    for m, reach in ctx.checked_reaches():
        for base in range(len(ctx.poset)):
            us = ctx.upsets[base]
            class_ids = ctx.partition.classes_within(ctx.components.components[base])
            yield m, reach, base, class_ids, us


def _check_upward_reachability(ctx: _TrialContext) -> None:
    """Path structure between a class and the components assigned above it:
    balanced paths reach down into the class (inside the assigned region),
    saturated paths reach everything outside the class's closure, and
    nothing alternating goes from the class up."""
    for m, reach, base, class_ids, us in _upper_bound_instances(ctx):
        for s in class_ids:
            cls = ctx.partition.classes[s]
            up_s = us.up_vertices(s)
            up_star_s = us.up_star_vertices(s)
            # same class: no saturated path, balanced both ways
            for u in cls:
                for v in cls:
                    if u != v and v in reach.saturated[u]:
                        _fail(f"saturated path inside class {sorted(cls)} at {u}, {v}")
                    if v not in reach.balanced[u]:
                        _fail(f"missing balanced path inside class {sorted(cls)} at {u}, {v}")
            # class to its assigned region: nothing
            for u in cls:
                for v in up_s:
                    if v in reach.saturated[u]:
                        _fail(f"saturated path from class vertex {u} up to {v}")
                    if v in reach.balanced[u]:
                        _fail(f"balanced path from class vertex {u} up to {v}")
            # region down into its class, confined to the region
            for u in up_star_s:
                if u in cls:
                    continue
                for v in sorted(cls):
                    if alternating_path_exists(
                        ctx.graph,
                        m,
                        u,
                        v,
                        PathKind.BALANCED,
                        kept=up_s | {u, v},
                        budget=_PATH_BUDGET,
                    ):
                        break
                else:
                    _fail(f"no confined balanced path from {u} down to class {sorted(cls)}")
            # class across to other classes' closures, avoiding this region.
            # Confined to every vertex, the walk is the sweep's own walk from
            # u, which finished within the budget above
            avoid_region = us.upper_closure_vertices() - up_s
            whole = avoid_region == ctx.graph.vertex_set
            for t in class_ids:
                if t == s:
                    continue
                for u in sorted(cls):
                    for v in sorted(us.up_star_vertices(t)):
                        if whole:
                            found = v in reach.saturated[u]
                        else:
                            found = alternating_path_exists(
                                ctx.graph,
                                m,
                                u,
                                v,
                                PathKind.SATURATED,
                                kept=avoid_region,
                                budget=_PATH_BUDGET,
                            )
                        if not found:
                            _fail(f"no confined saturated path from {u} across to {v}")


def _check_combined_reachability(ctx: _TrialContext) -> None:
    """Consequences of the upward structure, stated over the whole graph:
    region and class both reach everything outside the class closure by
    saturated paths; region reaches its class only by balanced paths; the
    class reaches its region by neither."""
    for _, reach, base, class_ids, us in _upper_bound_instances(ctx):
        closure = us.upper_closure_vertices()
        for s in class_ids:
            cls = ctx.partition.classes[s]
            up_s = us.up_vertices(s)
            rest = closure - us.up_star_vertices(s)
            for u in up_s:
                for v in rest:
                    if v not in reach.saturated[u]:
                        _fail(f"missing saturated path {u} to {v} outside the closure")
                for v in cls:
                    if v in reach.saturated[u]:
                        _fail(f"unexpected saturated path {u} to class vertex {v}")
                    if v not in reach.balanced[u]:
                        _fail(f"missing balanced path {u} down to class vertex {v}")
            for w in cls:
                for v in rest:
                    if v not in reach.saturated[w]:
                        _fail(f"missing saturated path {w} to {v} outside the closure")
                for v in cls:
                    if w != v and v in reach.saturated[w]:
                        _fail(f"unexpected saturated path inside class at {w}, {v}")
                    if v not in reach.balanced[w]:
                        _fail(f"missing balanced path inside class at {w}, {v}")
                for v in up_s:
                    if v in reach.saturated[w] or v in reach.balanced[w]:
                        _fail(f"unexpected alternating path from class vertex {w} up to {v}")


def _check_deleted_partition_vs_up_sets(ctx: _TrialContext) -> None:
    """With a minimum component, deleting a vertex of class S pins the
    deletion partition exactly to the up-set structure; deleting above S
    gives the three containments."""
    low = ctx.require_minimum()
    us = ctx.upsets[low]
    everything = us.upper_closure_vertices()
    for s in ctx.partition.classes_within(ctx.components.components[low]):
        cls = ctx.partition.classes[s]
        up_s = us.up_vertices(s)
        expected_d = everything - us.up_star_vertices(s)
        for x in sorted(cls):
            ge = ctx.deletion_partitions[x]
            if ge.d != expected_d:
                _fail(f"exposable part of G-{x} differs from the up-set prediction")
            if (ge.a | {x}) != cls:
                _fail(f"neighbor part of G-{x} plus {x} is not its class")
            if ge.c != up_s:
                _fail(f"inner part of G-{x} is not the class's region")
        for x in sorted(up_s):
            ge = ctx.deletion_partitions[x]
            if not expected_d <= ge.d:
                _fail(f"exposable part of G-{x} misses the predicted set")
            if not cls <= (ge.a | {x}):
                _fail(f"neighbor part of G-{x} plus {x} misses the class")
            if not ge.c <= up_s:
                _fail(f"inner part of G-{x} leaks outside the class's region")


def _check_foundation_equals_ge(ctx: _TrialContext) -> None:
    low = ctx.require_minimum()
    expected = ctx.components.components[low]
    if ctx.foundation_via_ge != expected:
        _fail("deletion-partition complement disagrees with the minimum component")


def _check_saturated_has_minimum(ctx: _TrialContext) -> None:
    ctx.require_saturated()
    if ctx.graph.order and ctx.order_minimum is None:
        _fail("saturated graph with no minimum component")


def _check_saturated_partition_matches_parts(ctx: _TrialContext) -> None:
    ctx.require_saturated()
    for comp in ctx.components.components:
        restricted = ctx.partition.restricted_to(comp)
        own = set(ctx.parts[comp].partition.classes)
        if restricted != own:
            _fail(f"partition restricted to {sorted(comp)} differs from its own partition")


def _check_parts_saturated(ctx: _TrialContext) -> None:
    ctx.require_saturated()
    fv, *towers = ctx.foundation_parts
    if not ctx.parts[fv].saturated:
        _fail("foundation is not saturated")
    claimed: set[int] = set()
    for ps, touched in zip(towers, ctx.tower_classes):
        if len(touched) != 1:
            _fail(f"tower {sorted(ps)} touches {len(touched)} classes")
        (s,) = touched
        if s in claimed:
            _fail(f"two towers attach to class {sorted(ctx.partition.classes[s])}")
        claimed.add(s)
        if not ctx.parts[ps].saturated:
            _fail(f"tower {sorted(ps)} is not saturated")


def _check_tower_join_complete(ctx: _TrialContext) -> None:
    ctx.require_saturated()
    for ps, touched in zip(ctx.foundation_parts[1:], ctx.tower_classes):
        if len(touched) != 1:
            _fail(f"tower {sorted(ps)} touches {len(touched)} classes")
        (attached,) = touched
        cls = ctx.partition.classes[attached]
        for s in cls:
            for t in ps:
                if not ctx.graph.has_edge(s, t):
                    _fail(f"class vertex {s} and tower vertex {t} are not adjacent")


def _check_foundation_contraction_critical(ctx: _TrialContext) -> None:
    ctx.require_saturated()
    if not is_factor_critical(contract(ctx.graph, ctx.foundation_parts[0]).graph):
        _fail("collapsing the foundation is not factor-critical")


def _check_same_class_implies_edge(ctx: _TrialContext) -> None:
    ctx.require_saturated()
    for cls in ctx.partition.classes:
        for u, v in combinations(sorted(cls), 2):
            if not ctx.graph.has_edge(u, v):
                _fail(f"class vertices {u} and {v} are not adjacent")


def _check_saturated_connected(ctx: _TrialContext) -> None:
    ctx.require_saturated()
    if ctx.graph.order and len(connected_components(ctx.graph)) != 1:
        _fail("saturated graph is disconnected")


def _check_allowed_from_parts(ctx: _TrialContext) -> None:
    """In a saturated graph the allowed edges are exactly the allowed edges
    of the foundation and of each tower."""
    ctx.require_saturated()
    union: set[Edge] = set()
    for vertex_set in ctx.foundation_parts:
        union |= ctx.parts[vertex_set].allowed
    if frozenset(union) != ctx.allowed:
        _fail("allowed edges differ from the union over foundation and towers")


def _check_matchings_product(ctx: _TrialContext) -> None:
    """Every perfect matching of a saturated graph is a disjoint union of
    perfect matchings of its foundation and towers, and conversely."""
    ctx.require_saturated()
    ctx.require_complete_enumeration()
    per_part: list[tuple[frozenset[Edge], ...]] = []
    total = 1
    for vertex_set in ctx.foundation_parts:
        enum = ctx.parts[vertex_set].enumeration
        if enum.truncated:
            raise _SkipCheck("part enumeration exceeded the cap", rerun_on_closure=False)
        per_part.append(tuple(m.edges for m in enum.matchings))
        total *= max(len(enum.matchings), 1)
        if total > 4 * ctx.config.enumeration_cap:
            raise _SkipCheck("part product exceeds the cap", rerun_on_closure=False)
    combined = {
        frozenset().union(*combo) for combo in product(*per_part)
    }
    whole = {m.edges for m in ctx.matchings}
    if combined != whole:
        _fail("perfect matchings are not the products of the parts' matchings")


def _check_foundation_unique_via_ge(ctx: _TrialContext) -> None:
    ctx.require_saturated()
    if ctx.graph.order == 0:
        return
    if ctx.tree.foundation_vertices != ctx.foundation_via_ge:
        _fail("decomposition foundation differs from the deletion-partition complement")


def _check_round_trip(ctx: _TrialContext) -> None:
    ctx.require_saturated()
    if ctx.rebuilt.graph != ctx.graph:
        _fail("rebuilding the decomposition did not reproduce the graph")


def _check_construction_minimum(ctx: _TrialContext) -> None:
    ctx.require_saturated()
    if ctx.graph.order == 0:
        return
    built = ctx.rebuilt
    comps = built.components
    if ctx.tree.foundation_vertices not in comps.components:
        _fail("foundation is not a component of the rebuilt graph")
    low = minimum_component(built.poset)
    if low is None or comps.components[low] != ctx.tree.foundation_vertices:
        _fail("foundation is not the minimum component of the rebuilt graph")


def _check_construction_saturated(ctx: _TrialContext) -> None:
    ctx.require_saturated()
    if not ctx.rebuilt.saturated:
        _fail("rebuilt graph is not saturated")


def _check_factor_critical_balanced(ctx: _TrialContext) -> None:
    """A graph with a near-perfect matching is factor-critical iff every
    vertex has a balanced path to the exposed one.  Asked of each G-x, whose
    paths are read off G's sweep as in ``_check_exposure_partition_paths``."""
    for x in ctx.graph.vertices:
        rest = ctx.graph.vertex_set - {x}
        critical = is_factor_critical(ctx.graph, kept=rest)
        reachable = ctx.reach[0].saturated[x] >= rest
        if critical != reachable:
            _fail(f"factor-criticality of G-{x} disagrees with balanced reachability")


def _check_allowed_circuit_path(ctx: _TrialContext) -> None:
    """For an unmatched edge: allowed (by enumeration), on an alternating
    circuit, and joined by a saturated path are all equivalent."""
    ctx.require_complete_enumeration()
    for m, reach in ctx.checked_reaches():
        for e in sorted(ctx.graph.edges - m.edges):
            a = e in ctx.allowed_union
            b = e[1] in reach.saturated[e[0]]
            c = alternating_circuit_exists(ctx.graph, m, e, budget=_PATH_BUDGET)
            if not (a == b == c):
                _fail(f"allowed/circuit/path disagree at edge {e}: {a}, {b}, {c}")


def _check_saturated_path_deletion(ctx: _TrialContext) -> None:
    """A saturated path joins two vertices iff deleting both leaves the graph
    factorizable, independently of the matching."""
    for _, reach in ctx.checked_reaches():
        for u, v in combinations(ctx.graph.vertices, 2):
            if (v in reach.saturated[u]) != ctx.pair_factorizable[edge(u, v)]:
                _fail(f"saturated-path criterion disagrees with deletion at {u}, {v}")


def _check_path_separator_split(ctx: _TrialContext) -> None:
    """Splitting a saturated path at a separating set leaves saturated pieces
    inside the set and matching-ears between consecutive crossings."""
    separators = {comp for comp in ctx.components.components}
    whole = ctx.graph.vertex_set
    for comp in ctx.components.components:
        separators.add(whole - comp)
    separators = {s for s in separators if s and s != whole}
    if not separators:
        raise _SkipCheck("graph has a single component", rerun_on_closure=False)
    for m, reach in ctx.checked_reaches():
        mate = m.partner
        for u, v in combinations(ctx.graph.vertices, 2):
            if v not in reach.saturated[u]:
                continue
            for path in _saturated_paths(ctx, m, u, v, None, "saturated"):
                for sep in separators:
                    _assert_split_shape(ctx, path, sep, mate)


def _assert_split_shape(
    ctx: _TrialContext, path: tuple[int, ...], sep: frozenset[int], mate: dict[int, int]
) -> None:
    # runs inside the separator must be saturated subpaths
    i = 0
    while i < len(path):
        if path[i] not in sep:
            i += 1
            continue
        j = i
        while j + 1 < len(path) and path[j + 1] in sep:
            j += 1
        run = path[i : j + 1]
        if len(run) < 2:
            _fail(f"separator run {list(run)} of path {list(path)} is a single vertex")
        if mate.get(run[0]) != run[1] or mate.get(run[-1]) != run[-2]:
            _fail(f"separator run {list(run)} of path {list(path)} is not saturated")
        i = j + 1
    # pieces between in-separator edges that avoid the path ends are ears:
    # ends inside the separator, interior outside, interior saturated
    cut = [
        k
        for k in range(len(path) - 1)
        if path[k] in sep and path[k + 1] in sep
    ]
    bounds = [-1] + cut + [len(path) - 1]
    for a, b in zip(bounds, bounds[1:]):
        lo, hi = a + 1, b
        if lo == 0 or hi == len(path) - 1:
            continue  # contains a path end
        piece = path[lo : hi + 1]
        if len(piece) < 2:
            continue  # degenerate single vertex, cannot be an ear
        if piece[0] not in sep or piece[-1] not in sep:
            _fail(f"ear candidate {list(piece)} does not end in the separator")
        interior = piece[1:-1]
        if any(w in sep for w in interior):
            _fail(f"ear candidate {list(piece)} has interior vertices in the separator")
        if len(interior) < 2:
            _fail(f"ear candidate {list(piece)} has no saturated interior")
        if mate.get(interior[0]) != interior[1] or mate.get(interior[-1]) != interior[-2]:
            _fail(f"ear candidate {list(piece)} has a non-saturated interior")


def _capped_matching_counter(graph: Graph, limit: int) -> Callable[[int], int]:
    """A counter of the perfect matchings of G less a covered set, capped:
    ``count(covered)`` is min(c, ``limit``), where c counts the perfect
    matchings of the subgraph induced by the positions outside the bitmask
    ``covered``.  Every call of one counter shares one memo of exact counts
    by mask.

    It walks the tree of ``enumerate_perfect_matchings`` on the subgraph
    induced by the uncovered positions: each node is a covered mask, whose
    children match its least uncovered position to each uncovered neighbour
    in ascending order, and whose leaves cover every position.  A node's
    subtree depends only on its mask, so c(mask) is the sum of its
    children's counts, and the full mask counts 1.  The walk runs over an
    explicit stack of one frame per expanded mask (its mask, the mask with
    its least uncovered position, its neighbours left to try and its total
    so far), so it has no recursion limit, and it makes no reference cycle.

    - The memo visits no mask that the enumeration with cap ``limit - 1``
      did not visit.  The call keeps ``seen``, the leaves its frames have
      counted, which are the leaves before the next mask in the tree's depth
      first order; it reads a memoized mask's count rather than walking its
      subtree, and returns ``limit`` as soon as ``seen`` reaches it.  So it
      expands a mask only when fewer than ``limit`` leaves precede it, as
      does the enumeration, which stops at its ``limit``-th leaf.
    - The capped sums are exact.  The count ``seen`` only grows, and each
      frame's total is part of it, so a call that finishes had every total
      below ``limit`` and memoizes exact counts; a call that stops has seen
      at least ``limit`` distinct leaves below its mask, so min(c,
      ``limit``) is ``limit``.  A mask with an odd number of uncovered
      positions counts 0 at once, as the enumeration refuses an odd order.
    - The statuses equal the enumeration's: with ``limit = cap + 1`` the
      enumeration is truncated iff c > cap iff the count is ``limit``, and
      it finds a perfect matching iff c > 0.
    """
    adj = graph.index_adjacency
    memo = {(1 << len(adj)) - 1: 1}

    def count(covered: int) -> int:
        if (len(adj) - covered.bit_count()) % 2:
            return 0
        # one frame per expanded mask: [mask, mask with its least uncovered
        # position, that position's neighbours left to try, total so far]
        frames: list[list] = []
        seen = 0
        mask = covered
        while True:
            got = memo.get(mask)
            if got is None:
                v = (~mask & (mask + 1)).bit_length() - 1  # least uncovered position
                frames.append([mask, mask | 1 << v, iter(adj[v]), 0])
            else:
                seen += got
                if seen >= limit:
                    return limit
                if not frames:
                    return got
                frames[-1][3] += got
            # the deepest frame's next child, memoizing every frame that has
            # none left into its parent's total
            while True:
                frame = frames[-1]
                base = frame[1]
                for w in frame[2]:
                    if not base >> w & 1:
                        mask = base | 1 << w
                        break
                else:
                    frames.pop()
                    memo[frame[0]] = total = frame[3]
                    if not frames:
                        return total
                    frames[-1][3] += total
                    continue
                break

    return count


def _check_new_matching_iff_path(ctx: _TrialContext) -> None:
    """Adding an absent pair creates a new perfect matching iff a saturated
    path already joins its endpoints.

    A perfect matching of G+uv is one of G's, or uv with one of G-u-v, so
    G+uv has more than ``2 * cap`` of them exactly when G-u-v has more than
    ``2 * cap - |PM(G)|``, and a new one exactly when G-u-v has any.  Every
    G-u-v is counted, up to one past that, on one memo of the graph's
    covered masks, by ``_capped_matching_counter``."""
    ctx.require_complete_enumeration()
    cap = 2 * ctx.config.enumeration_cap - len(ctx.matchings)
    count = _capped_matching_counter(ctx.graph, cap + 1)
    pos = ctx.graph.positions
    for pair in complement_pairs(ctx.graph):
        found = count(1 << pos[pair[0]] | 1 << pos[pair[1]])
        if found > cap:
            raise _SkipCheck("grown enumeration exceeded the cap", rerun_on_closure=False)
        creates = found > 0
        for _, reach in ctx.checked_reaches():
            if creates != (pair[1] in reach.saturated[pair[0]]):
                _fail(f"new-matching criterion disagrees at pair {pair}")


def _check_allowed_edges_agreement(ctx: _TrialContext) -> None:
    """Production allowed-edge computation equals the union of enumerated
    perfect matchings."""
    ctx.require_complete_enumeration()
    if ctx.allowed != ctx.allowed_union:
        _fail("allowed edges differ from the union of perfect matchings")


def _check_cross_matching_balanced(ctx: _TrialContext) -> None:
    """Informational: record whether balanced-path existence agrees across
    perfect matchings (never asserted)."""
    if len(ctx.matchings_checked) < 2:
        return
    base = ctx.reach[0]
    disagreements = []
    for mi in range(1, len(ctx.matchings_checked)):
        other = ctx.reach[mi]
        for u in ctx.graph.vertices:
            if base.balanced[u] != other.balanced[u]:
                disagreements.append((mi, u))
    if disagreements:
        raise _SkipCheck(
            f"balanced reach differs across matchings at {disagreements[:5]} (informational)",
            rerun_on_closure=False,
        )


def _check_closure_saturated_preserving(ctx: _TrialContext) -> None:
    """Both scan orders of the closure yield saturated graphs with exactly
    the input's perfect matchings; the added edges are recorded.  When the
    input's matchings are all enumerated, a closure with more than twice the
    cap has others."""
    notes = []
    for descending in (False, True):
        closed, added = ctx.closures[descending]
        notes.append(f"{'desc' if descending else 'asc'} adds {list(added)}")
        if not closed.saturated:
            _fail(f"closure ({notes[-1]}) is not saturated")
        if not ctx.enumeration.truncated:
            enum = closed.wide_enumeration
            if enum.truncated or enum.edge_sets() != ctx.enumeration.edge_sets():
                _fail(f"closure ({notes[-1]}) changed the perfect matchings")


_CHECKS: tuple[tuple[str, Callable[[_TrialContext], None]], ...] = (
    ("exposure-partition-paths", _check_exposure_partition_paths),
    ("deleted-vertex-partition-paths", _check_deleted_partition_paths),
    ("component-order-laws", _check_order_laws),
    ("canonical-partition-equivalence", _check_partition_equivalence),
    ("partition-refines-subgraph-partition", _check_partition_refinement),
    ("same-class-iff-no-saturated-path", _check_same_class_no_saturated_path),
    ("upper-components-single-class", _check_upper_single_class),
    ("ear-ends-share-class", _check_ear_ends_share_class),
    ("incomparable-pair-edge-witness", _check_incomparable_edge_witness),
    ("elementary-pairwise-reachability", _check_elementary_reachability),
    ("upward-reachability", _check_upward_reachability),
    ("combined-reachability", _check_combined_reachability),
    ("deleted-partition-matches-up-sets", _check_deleted_partition_vs_up_sets),
    ("foundation-equals-ge-complement", _check_foundation_equals_ge),
    ("saturated-has-minimum", _check_saturated_has_minimum),
    ("saturated-partition-matches-parts", _check_saturated_partition_matches_parts),
    ("foundation-and-towers-saturated", _check_parts_saturated),
    ("tower-join-complete", _check_tower_join_complete),
    ("foundation-contraction-factor-critical", _check_foundation_contraction_critical),
    ("saturated-class-edges-present", _check_same_class_implies_edge),
    ("saturated-connected", _check_saturated_connected),
    ("allowed-edges-from-parts", _check_allowed_from_parts),
    ("matchings-product-of-parts", _check_matchings_product),
    ("foundation-unique-via-ge", _check_foundation_unique_via_ge),
    ("decomposition-round-trip", _check_round_trip),
    ("construction-foundation-minimum", _check_construction_minimum),
    ("construction-output-saturated", _check_construction_saturated),
    ("factor-critical-iff-balanced-to-exposed", _check_factor_critical_balanced),
    ("allowed-iff-circuit-iff-path", _check_allowed_circuit_path),
    ("saturated-path-iff-deletion-factorizable", _check_saturated_path_deletion),
    ("saturated-path-separator-split", _check_path_separator_split),
    ("complement-edge-new-matching-iff-path", _check_new_matching_iff_path),
    ("allowed-edges-enumeration-agreement", _check_allowed_edges_agreement),
    ("balanced-path-cross-matching-agreement", _check_cross_matching_balanced),
    ("closure-saturated-and-preserving", _check_closure_saturated_preserving),
)

CHECK_IDS: tuple[str, ...] = tuple(name for name, _ in _CHECKS)

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


def _run_one(
    name: str, fn: Callable[[_TrialContext], None], ctx: _TrialContext
) -> tuple[CheckResult, bool]:
    """Run one check; the second component says whether a skip should be
    retried on the saturation closure.  The context's graph is factorizable,
    so a PreconditionError the check raises is the package's fault, and
    fails the check as a StructureViolation does."""
    start = time.perf_counter()

    def took() -> float:
        return (time.perf_counter() - start) * 1000.0

    try:
        fn(ctx)
    except _SkipCheck as skip:
        return CheckResult(name, "skip", str(skip), millis=took()), skip.rerun_on_closure
    except SearchBudgetExceeded:
        return CheckResult(name, "skip", "search budget exceeded", millis=took()), False
    except (_CheckFailed, StructureViolation, PreconditionError) as failure:
        counterexample = _shrink(fn, ctx.graph, ctx.config)
        return CheckResult(name, "fail", str(failure), counterexample, millis=took()), False
    return CheckResult(name, "pass", millis=took()), False


def _fails(fn: Callable[[_TrialContext], None], graph: Graph, config: TrialConfig) -> bool:
    """Whether the check fails on the graph, as ``_run_one`` would report it;
    a graph without a perfect matching is no candidate."""
    try:
        ctx = _TrialContext(graph, config)
    except NotFactorizableError:
        return False
    try:
        fn(ctx)
    except (_CheckFailed, StructureViolation, PreconditionError):
        return True
    except (_SkipCheck, SearchBudgetExceeded):
        return False
    return False


def _shrink(fn: Callable[[_TrialContext], None], graph: Graph, config: TrialConfig) -> str:
    """Greedy minimization preserving the failure, re-verified at each step."""
    current = graph
    attempts = 0
    changed = True
    while changed and attempts < _SHRINK_ATTEMPTS:
        changed = False
        # smaller counterexample candidates: every edge removal, then every vertex-pair removal
        candidates = chain(
            (Graph(current.vertices, current.edges - {e}) for e in current.sorted_edges()),
            (delete_vertices(current, pair) for pair in combinations(current.vertices, 2)),
        )
        for candidate in candidates:
            attempts += 1
            if candidate.order and _fails(fn, candidate, config):
                current = candidate
                changed = True
                break
            if attempts >= _SHRINK_ATTEMPTS:
                break
    dense = _relabel_dense(current)
    if not _fails(fn, dense, config):
        dense = _relabel_dense(graph)
    return render_edge_list(dense)


def run_suite(
    graph: Graph, config: TrialConfig, only: Iterable[str] | None = None
) -> SuiteReport:
    """Run every applicable check on one graph.

    Hypothesis-skipped checks are re-run on the graph's saturation closure
    (reported with an ``@closure`` suffix); ``only`` restricts the run to a
    subset of check ids.
    """
    # building the context is the factorizability check
    ctx = _TrialContext(graph, config)
    wanted = set(CHECK_IDS if only is None else only)
    unknown = wanted - set(CHECK_IDS)
    if unknown:
        raise ValueError(f"unknown check ids: {sorted(unknown)}")
    results: list[CheckResult] = []
    closure_runs: list[tuple[str, Callable[[_TrialContext], None]]] = []
    for name, fn in _CHECKS:
        if name not in wanted:
            continue
        result, rerun = _run_one(name, fn, ctx)
        results.append(result)
        if rerun:
            closure_runs.append((name, fn))
    if closure_runs:
        closed, _ = ctx.closures[False]
        if closed.graph != graph:
            for name, fn in closure_runs:
                result, _ = _run_one(name, fn, closed)
                results.append(
                    CheckResult(
                        f"{name}@closure",
                        result.status,
                        result.reason,
                        result.counterexample,
                        result.millis,
                    )
                )
    return SuiteReport(_graph_text(graph), config, tuple(results))


def run_trials(
    config: TrialConfig, only: Iterable[str] | None = None
) -> list[SuiteReport]:
    """Generate and check ``config.trials`` random graphs.

    Each trial's randomness is derived from (seed, trial), so trials are
    independent and their results do not depend on execution order."""
    return [
        run_suite(random_factorizable_graph(config, t), config, only)
        for t in range(config.trials)
    ]
