"""Factor-connected components, the canonical vertex partition, the component
order, and the upper-bound structure tying the two together.

One perfect matching and the sets D(G-u) determine all of them, so each
graph gets one GraphStructure that checks factorizability once and reads
every structure, saturation and the deletion partitions off one table of
D(G-u) and its perfect matching; the public functions wrap it.

A component sits below another when some separating superset of both
contracts, at the lower one, to a factor-critical graph; ``_above`` finds
each component's up-closure as a shrinking fixpoint of Edmonds searches, at
most k-1 of them per component for k components.  The structural laws
(partial order, equivalence) are asserted on every computation and raise
StructureViolation when they fail, because a failure falsifies a guarantee
rather than signaling bad input.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from typing import Iterable

from .errors import (
    ClassAssignmentViolation,
    ComponentLimitError,
    EquivalenceViolation,
    NotFactorizableError,
    PartialOrderViolation,
)
from .gallai_edmonds import GEPartition, _deletion_partitions
from .graph import Edge, Graph, complement_pairs, connected_components, neighbors
from .matching import ExposableAfterDeletion, is_factorizable
from .matching import _contracted_outer, _contracts_to_factor_critical


@dataclass(frozen=True)
class FactorComponents:
    """Connected components of the allowed-edge subgraph, covering V(G)."""

    components: tuple[frozenset[int], ...]
    allowed: frozenset[Edge]

    @cached_property
    def component_of(self) -> dict[int, int]:
        return {v: i for i, comp in enumerate(self.components) for v in comp}

    def __len__(self) -> int:
        return len(self.components)


@dataclass(frozen=True)
class CanonicalPartition:
    """Equivalence classes of the same-class relation, ordered by minimum id."""

    classes: tuple[frozenset[int], ...]

    @cached_property
    def class_of(self) -> dict[int, int]:
        return {v: i for i, cls in enumerate(self.classes) for v in cls}

    def classes_within(self, vertex_set: frozenset[int]) -> tuple[int, ...]:
        return tuple(sorted({self.class_of[v] for v in vertex_set}))

    def restricted_to(self, vertex_set: frozenset[int]) -> set[frozenset[int]]:
        return {cls for cls in self.classes if cls <= vertex_set}


@dataclass(frozen=True)
class ComponentPoset:
    """The full below-or-equal matrix over factor-components plus its
    transitive reduction (cover relation)."""

    components: FactorComponents
    leq: tuple[tuple[bool, ...], ...]
    hasse: tuple[tuple[int, int], ...]

    def __len__(self) -> int:
        return len(self.components)


@dataclass(frozen=True, eq=False)
class GraphStructure:
    """The canonical structures of one factorizable graph, each computed on
    first use and kept.  Building one is the precondition check; every
    structure reads the one ``table`` of D(G-u) and its perfect matching."""

    graph: Graph

    def __post_init__(self) -> None:
        if not is_factorizable(self.graph):
            raise NotFactorizableError("canonical structures need a graph with a perfect matching")

    @cached_property
    def table(self) -> ExposableAfterDeletion:
        return ExposableAfterDeletion(self.graph)

    @cached_property
    def allowed(self) -> frozenset[Edge]:
        return frozenset((u, v) for u, v in self.graph.edges if v in self.table[u])

    @cached_property
    def components(self) -> FactorComponents:
        skeleton = Graph(self.graph.vertices, self.allowed)
        return FactorComponents(
            tuple(frozenset(c) for c in connected_components(skeleton)), self.allowed
        )

    @cached_property
    def partition(self) -> CanonicalPartition:
        return _partition(self.table, self.components)

    @cached_property
    def poset(self) -> ComponentPoset:
        return _poset(self.table, self.components)

    @cached_property
    def minimum(self) -> int | None:
        """Index of the component below every other, if any."""
        return self.minimum_of(range(len(self.components)))

    def minimum_of(self, level: Iterable[int]) -> int | None:
        """The first of the components ``level`` at which the graph their union
        induces contracts to a factor-critical graph (``_above``'s first search)."""
        table, index, comps = self.table, self.graph.positions, self.components.components
        parts = {i: [index[v] for v in sorted(comps[i])] for i in sorted(level)}
        for i, part in parts.items():
            rest = [v for j, other in parts.items() if j != i for v in other]
            if _contracts_to_factor_critical(table.adj, table.mate, part, rest):
                return i
        return None

    @cached_property
    def saturated(self) -> bool:
        return all(v in self.table[u] for u, v in complement_pairs(self.graph))

    @cached_property
    def deletion_partitions(self) -> dict[int, GEPartition]:
        return _deletion_partitions(self.graph, self.table)


def allowed_edges(graph: Graph) -> frozenset[Edge]:
    """Edges lying in some perfect matching: exactly those uv whose endpoint
    deletion leaves the graph factorizable, i.e. with v in D(G-u)."""
    return GraphStructure(graph).allowed


def factor_components(graph: Graph) -> FactorComponents:
    return GraphStructure(graph).components


def same_class(graph: Graph, comps: FactorComponents, u: int, v: int) -> bool:
    """Same factor-connected component, and deleting both endpoints kills
    every perfect matching (or the vertices coincide): v is not in D(G-u)."""
    if comps.component_of[u] != comps.component_of[v]:
        return False
    return u == v or v not in ExposableAfterDeletion(graph)[u]


def canonical_partition(graph: Graph, comps: FactorComponents | None = None) -> CanonicalPartition:
    """Group vertices by the same-class relation.

    Two vertices of one factor-component share a class iff v is not in
    D(G-u).  The relation is provably an equivalence; transitivity is still
    checked, and a violation raises EquivalenceViolation because it would
    mean the matching engine is broken.
    """
    structure = GraphStructure(graph)
    return _partition(structure.table, structure.components if comps is None else comps)


def _partition(exposable: ExposableAfterDeletion, comps: FactorComponents) -> CanonicalPartition:
    vertices = exposable.graph.vertices
    related: dict[int, set[int]] = {v: {v} for v in vertices}
    for u, v in combinations(vertices, 2):
        if comps.component_of[u] == comps.component_of[v] and v not in exposable[u]:
            related[u].add(v)
            related[v].add(u)
    for v in vertices:
        for w in related[v]:
            if related[w] != related[v]:
                raise EquivalenceViolation(
                    f"same-class relation is not transitive at vertices {v} and {w}"
                )
    classes: list[frozenset[int]] = []
    placed: set[int] = set()
    for v in vertices:
        if v not in placed:
            cls = frozenset(related[v])
            placed |= cls
            classes.append(cls)
    return CanonicalPartition(tuple(classes))


def is_separating(graph: Graph, comps: FactorComponents, candidate: frozenset[int]) -> bool:
    """Whether the set is a (possibly empty) union of factor-components."""
    xs = frozenset(candidate)
    if not xs <= graph.vertex_set:
        raise ValueError("separating-set query outside the host graph")
    return all(comp <= xs or not (comp & xs) for comp in comps.components)


def _require_within_limit(k: int, max_components: int | None) -> None:
    if max_components is not None and k > max_components:
        raise ComponentLimitError(
            f"{k} components exceed the component limit of {max_components}"
        )


def _above(
    exposable: ExposableAfterDeletion, comps: FactorComponents, lowers: Iterable[int]
) -> list[frozenset[int]]:
    """For each of ``lowers``, the indices of the components at or above it:
    the members of the largest separating union X that contains it and
    contracts, at it, to a factor-critical graph (such unions are closed
    under union).  A search of the remaining union contracted at the lower
    one marks all of X outer, as the perfect matching's edges lie inside
    components, so only components outside X drop; once none drops, every
    vertex is outer and the union is X.  Each search but the last drops one.
    The searches run on the table's index adjacency and perfect matching."""
    index, adj, mate = exposable.graph.positions, exposable.adj, exposable.mate
    parts = [[index[v] for v in sorted(comp)] for comp in comps.components]
    out = []
    for lower in lowers:
        up = [i for i in range(len(parts)) if i != lower]
        while up:
            kept = [v for i in up for v in parts[i]]
            outer = dict(zip(kept, _contracted_outer(adj, mate, parts[lower], kept)[1:]))
            still = [i for i in up if all(outer[v] for v in parts[i])]
            if still == up:
                break
            up = still
        out.append(frozenset([lower, *up]))
    return out


def component_leq(graph: Graph, comps: FactorComponents, lower: int, upper: int) -> bool:
    """Whether ``lower`` sits below ``upper`` in the component order: some
    separating superset of both contracts, at the lower one, to a
    factor-critical graph."""
    k = len(comps)
    if not (0 <= lower < k and 0 <= upper < k):
        raise ValueError("component index out of range")
    return upper in _above(ExposableAfterDeletion(graph), comps, [lower])[0]


def component_poset(
    graph: Graph,
    comps: FactorComponents | None = None,
    *,
    max_components: int | None = None,
) -> ComponentPoset:
    structure = GraphStructure(graph)
    if comps is None:
        comps = structure.components
    _require_within_limit(len(comps), max_components)
    return _poset(structure.table, comps)


def _poset(exposable: ExposableAfterDeletion, comps: FactorComponents) -> ComponentPoset:
    k = len(comps)
    above = _above(exposable, comps, range(k))
    leq = [[j in above[i] for j in range(k)] for i in range(k)]
    for i in range(k):
        if not leq[i][i]:
            raise PartialOrderViolation(f"component {i} is not below-or-equal itself")
        for j in range(k):
            if i != j and leq[i][j] and leq[j][i]:
                raise PartialOrderViolation(f"components {i} and {j} are mutually below")
            if not leq[i][j]:
                continue
            for m in range(k):
                if leq[j][m] and not leq[i][m]:
                    raise PartialOrderViolation(
                        f"below-or-equal is not transitive at {i}, {j}, {m}"
                    )
    covers = [
        (i, j)
        for i in range(k)
        for j in range(k)
        if i != j
        and leq[i][j]
        and not any(m != i and m != j and leq[i][m] and leq[m][j] for m in range(k))
    ]
    return ComponentPoset(comps, tuple(tuple(row) for row in leq), tuple(sorted(covers)))


def minimum_component(poset: ComponentPoset) -> int | None:
    """Index of the unique component below every other, if one exists."""
    k = len(poset)
    for i in range(k):
        if all(poset.leq[i][j] for j in range(k)):
            return i
    return None


@dataclass(frozen=True, eq=False)
class UpSets:
    """Strict upper bounds of one component, split by the class each upper
    component attaches to.

    ``per_class`` maps a partition-class index (class inside the base
    component) to the strictly-upper component indices assigned to it; the
    assignment is by connected pieces of the strictly-upper induced subgraph,
    each of which touches exactly one class of the base.
    """

    base: int
    component_sets: tuple[frozenset[int], ...]
    partition: CanonicalPartition
    up_star: frozenset[int]
    per_class: dict[int, frozenset[int]] = field(repr=False)

    def strict_upper_components(self) -> frozenset[int]:
        return self.up_star - {self.base}

    def _union(self, indices: frozenset[int]) -> frozenset[int]:
        out: set[int] = set()
        for i in indices:
            out |= self.component_sets[i]
        return frozenset(out)

    def strict_upper_vertices(self) -> frozenset[int]:
        return self._union(self.strict_upper_components())

    def upper_closure_vertices(self) -> frozenset[int]:
        return self._union(self.up_star)

    def up_components(self, class_index: int) -> frozenset[int]:
        return self.per_class.get(class_index, frozenset())

    def up_vertices(self, class_index: int) -> frozenset[int]:
        return self._union(self.up_components(class_index))

    def up_star_vertices(self, class_index: int) -> frozenset[int]:
        return self.partition.classes[class_index] | self.up_vertices(class_index)


def up_sets(
    graph: Graph,
    poset: ComponentPoset,
    partition: CanonicalPartition,
    base: int,
) -> UpSets:
    """Assign each strictly-upper component of ``base`` to a class of the
    base component.

    Each connected piece of the subgraph induced by the strictly-upper
    vertices must have its neighborhood inside the base contained in exactly
    one class; anything else raises ClassAssignmentViolation, since that
    cannot happen for a correct engine.
    """
    comps = poset.components.components
    k = len(comps)
    if not 0 <= base < k:
        raise ValueError("component index out of range")
    up_star = frozenset(j for j in range(k) if poset.leq[base][j])
    strict = up_star - {base}
    base_vertices = comps[base]
    per: dict[int, set[int]] = {s: set() for s in partition.classes_within(base_vertices)}
    upper_vertices: set[int] = set()
    for j in strict:
        upper_vertices |= comps[j]
    assigned: set[int] = set()
    for piece in connected_components(graph, upper_vertices):
        ps = frozenset(piece)
        touched = {partition.class_of[w] for w in neighbors(graph, ps) & base_vertices}
        if len(touched) != 1:
            raise ClassAssignmentViolation(
                f"upper piece {sorted(ps)} touches {len(touched)} classes of the base"
            )
        members = frozenset(j for j in strict if comps[j] <= ps)
        covered: set[int] = set()
        for j in members:
            covered |= comps[j]
        if covered != set(ps):
            raise ClassAssignmentViolation(
                f"upper piece {sorted(ps)} is not a union of whole components"
            )
        per[touched.pop()] |= members
        assigned |= members
    if assigned != set(strict):
        raise ClassAssignmentViolation("some strictly-upper component was never assigned")
    return UpSets(
        base,
        comps,
        partition,
        up_star,
        {s: frozenset(ms) for s, ms in per.items()},
    )
