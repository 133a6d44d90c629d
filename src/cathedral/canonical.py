"""Factor-connected components, the canonical vertex partition, the component
order, and the upper-bound structure tying the two together.

One perfect matching and the sets D(G-u) determine all of them, so each
graph gets one GraphStructure, the one owner of its perfect matching and of
its rows D(G-u), each one search (``matching._rooted_marks``) run on first
use, which every structure, saturation and the deletion partitions read.
The public functions take the graph alone and read its structure.

A component sits below another when some separating superset of both
contracts, at the lower one, to a factor-critical graph;
``GraphStructure.above`` finds each component's up-closure as a shrinking
fixpoint of Edmonds searches, at most k-1 of them per component for k
components.  The structural laws (partial order, equivalence) are asserted
on every computation and raise StructureViolation when they fail, because a
failure falsifies a guarantee rather than signaling bad input.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import cached_property
from typing import Iterable, Sequence

from .errors import (
    ClassAssignmentViolation,
    ComponentLimitError,
    EquivalenceViolation,
    PartialOrderViolation,
)
from .gallai_edmonds import GEPartition, _checked_marks, _partition_of
from .graph import Edge, Graph, Value, _walk_parts, connected_components, neighbors
# is_factorizable is unused here, but bench/selftest.py pins this binding (ROADMAP item 1)
from .matching import is_factorizable  # noqa: F401
from .matching import _contracted_outer, _perfect_mate, _rooted_marks


class FactorComponents(Value):
    """Connected components of the allowed-edge subgraph, covering V(G)."""

    _fields = ("components", "allowed")
    components: tuple[frozenset[int], ...]
    allowed: frozenset[Edge]

    def __init__(self, components: tuple[frozenset[int], ...], allowed: frozenset[Edge]) -> None:
        object.__setattr__(self, "components", components)
        object.__setattr__(self, "allowed", allowed)

    @cached_property
    def component_of(self) -> dict[int, int]:
        return {v: i for i, comp in enumerate(self.components) for v in comp}

    def __len__(self) -> int:
        return len(self.components)


class CanonicalPartition(Value):
    """Equivalence classes of the same-class relation, ordered by minimum id."""

    _fields = ("classes",)
    classes: tuple[frozenset[int], ...]

    def __init__(self, classes: tuple[frozenset[int], ...]) -> None:
        object.__setattr__(self, "classes", classes)

    @cached_property
    def class_of(self) -> dict[int, int]:
        return {v: i for i, cls in enumerate(self.classes) for v in cls}

    def classes_within(self, vertex_set: frozenset[int]) -> tuple[int, ...]:
        return tuple(sorted({self.class_of[v] for v in vertex_set}))

    def restricted_to(self, vertex_set: frozenset[int]) -> set[frozenset[int]]:
        return {cls for cls in self.classes if cls <= vertex_set}


class ComponentPoset(Value):
    """The full below-or-equal matrix over factor-components plus its
    transitive reduction (cover relation)."""

    _fields = ("components", "leq", "hasse")
    components: FactorComponents
    leq: tuple[tuple[bool, ...], ...]
    hasse: tuple[tuple[int, int], ...]

    def __init__(
        self,
        components: FactorComponents,
        leq: tuple[tuple[bool, ...], ...],
        hasse: tuple[tuple[int, int], ...],
    ) -> None:
        object.__setattr__(self, "components", components)
        object.__setattr__(self, "leq", leq)
        object.__setattr__(self, "hasse", hasse)

    def __len__(self) -> int:
        return len(self.components)


class GraphStructure(Value):
    """The canonical structures of one factorizable graph, each computed on
    first use and kept.  Building one runs the blossom pass of
    ``_perfect_mate``, the precondition check: it refuses a graph without a
    perfect matching at its first failed search, and otherwise keeps the
    perfect matching ``mate``.  Every structure reads the rows D(G-u), that
    matching and the graph's index adjacency, all by position, and builds
    vertex-id sets only for the objects it returns.  Structures compare by
    identity."""

    _fields = ("graph",)
    graph: Graph
    mate: list[int]
    rows: list[list[bool] | None]
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, graph: Graph) -> None:
        mate = _perfect_mate(graph.index_adjacency)
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "mate", mate)
        object.__setattr__(self, "rows", [None] * len(mate))

    def row(self, i: int) -> list[bool]:
        """D(G-u) for the vertex u at position i, as outer marks by position:
        one search from u's partner with u hidden, run on first use."""
        row = self.rows[i]
        if row is None:
            adj, mate = self.graph.index_adjacency, self.mate
            row = self.rows[i] = _rooted_marks(adj, mate, mate[i], (i,))
        return row

    @cached_property
    def _allowed_adjacency(self) -> list[list[int]]:
        """By position, each vertex's neighbours over allowed edges: ij with
        i < j is allowed when j is marked in row i."""
        adj = self.graph.index_adjacency
        out: list[list[int]] = [[] for _ in adj]
        for i, ws in enumerate(adj):
            # ascending, so a vertex with no later neighbour needs no row
            if ws and ws[-1] > i:
                row = self.row(i)
                for j in ws:
                    if j > i and row[j]:
                        out[i].append(j)
                        out[j].append(i)
        return out

    @cached_property
    def allowed(self) -> frozenset[Edge]:
        vs = self.graph.vertices
        return frozenset(
            (vs[i], vs[j]) for i, js in enumerate(self._allowed_adjacency) for j in js if i < j
        )

    @cached_property
    def _parts(self) -> list[list[int]]:
        """The factor-components as ascending position lists, ordered by
        their least position: the package's one component walk, on the
        allowed index adjacency, with its labels grouped in one scan."""
        nbrs = self._allowed_adjacency
        label, count, _ = _walk_parts(nbrs, [True] * len(nbrs))
        parts: list[list[int]] = [[] for _ in range(count)]
        for i, part in enumerate(label):
            parts[part].append(i)
        return parts

    @cached_property
    def components(self) -> FactorComponents:
        vs = self.graph.vertices
        return FactorComponents(
            tuple(frozenset([vs[i] for i in part]) for part in self._parts), self.allowed
        )

    @cached_property
    def partition(self) -> CanonicalPartition:
        """The classes, from the rows of all but the last vertex of each
        component.  The same-class relation is provably an equivalence;
        transitivity is still checked, and a violation raises
        EquivalenceViolation because it would mean the matching engine is
        broken."""
        vertices = self.graph.vertices
        related: list[set[int]] = [{i} for i in range(len(vertices))]
        for part in self._parts:
            for at, i in enumerate(part[:-1], 1):
                row = self.row(i)
                for j in part[at:]:
                    if not row[j]:
                        related[i].add(j)
                        related[j].add(i)
        for i, rel in enumerate(related):
            for j in rel:
                if related[j] != rel:
                    u, v = vertices[i], vertices[j]
                    raise EquivalenceViolation(
                        f"same-class relation is not transitive at vertices {u} and {v}"
                    )
        classes: list[frozenset[int]] = []
        placed = [False] * len(vertices)
        for i, rel in enumerate(related):
            if not placed[i]:
                for j in rel:
                    placed[j] = True
                classes.append(frozenset([vertices[j] for j in rel]))
        return CanonicalPartition(tuple(classes))

    def above(self, lower: int) -> frozenset[int]:
        """The indices of the components at or above ``lower``: the members of
        the largest separating union X that contains it and contracts, at it,
        to a factor-critical graph (such unions are closed under union).  A
        search of the remaining union contracted at the lower one marks all of
        X outer, as the perfect matching's edges lie inside components, so
        only components outside X drop; once none drops, every vertex is
        outer and the union is X.  Each search but the last drops one."""
        adj, mate, parts = self.graph.index_adjacency, self.mate, self._parts
        up = [i for i in range(len(parts)) if i != lower]
        while up:
            kept = [v for i in up for v in parts[i]]
            outer = _contracted_outer(adj, mate, parts[lower], kept)
            still = [i for i in up if all([outer[v] for v in parts[i]])]
            if still == up:
                break
            up = still
        return frozenset([lower, *up])

    @cached_property
    def poset(self) -> ComponentPoset:
        k = len(self._parts)
        above = [self.above(i) for i in range(k)]
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
        return ComponentPoset(
            self.components, tuple(tuple(row) for row in leq), tuple(sorted(covers))
        )

    @cached_property
    def minimum(self) -> int | None:
        """Index of the component below every other, if any.  At most one
        component passes ``is_minimum_of``, so the order of the tries sets
        only the cost: first the component of a vertex of greatest degree,
        the least id on a tie, which on a saturated graph is the minimum (see
        ``construction._decompose_saturated``), then the rest by index."""
        parts, rows = self._parts, self.graph.index_adjacency
        top = min(range(len(rows)), key=lambda i: -len(rows[i]), default=None)
        tries = sorted(range(len(parts)), key=lambda j: top not in parts[j])
        return next((j for j in tries if self.is_minimum_of(range(len(parts)), j)), None)

    def is_minimum_of(self, level: Iterable[int], low: int) -> bool:
        """Whether ``low`` is the minimum of the components ``level``, by one
        search: whether the graph their union induces contracts, at ``low``,
        to a factor-critical graph.  That union is a separating superset of
        ``low`` and each other component of the level, so a pass puts ``low``
        below all of them, and antisymmetry lets only one component pass.  The
        level's minimum passes: its witnesses inside the level cover the level,
        and such unions are closed under union."""
        parts = self._parts
        rest = [v for j in level if j != low for v in parts[j]]
        outer = _contracted_outer(self.graph.index_adjacency, self.mate, parts[low], rest)
        return all([outer[v] for v in rest])  # factor-critical: all of it outer

    @cached_property
    def saturated(self) -> bool:
        """Whether every complement pair ij with i < j has j in row i; row
        by row, stopping at the first vertex with a pair that fails."""
        adj = self.graph.index_adjacency
        n = len(adj)
        for i, ws in enumerate(adj):
            # ascending, so a vertex joined to every later one needs no row
            if n - 1 - i > len(ws) - bisect_right(ws, i):
                row = self.row(i)
                joined = set(ws)
                if not all([row[j] or j in joined for j in range(i + 1, n)]):
                    return False
        return True

    @cached_property
    def deletion_marks(self) -> list[tuple[Sequence[bool], Sequence[bool], Sequence[bool]]]:
        """The partition of G-x for the vertex x at each position, as the
        marks by position of D, A and C: D is D(G-x), the row of x, A its
        neighbors other than x, C the rest of G-x.  A perfect matching of G
        leaves one vertex of G-x exposed, and each row is checked against
        that count once, here."""
        graph = self.graph
        return [_checked_marks(graph, self.row(i), 1, (i,)) for i in range(graph.order)]

    @cached_property
    def deletion_partitions(self) -> dict[int, GEPartition]:
        """``deletion_marks`` as vertex-id sets, keyed by x in ascending
        order."""
        vs = self.graph.vertices
        return {x: _partition_of(vs, marks) for x, marks in zip(vs, self.deletion_marks)}


def allowed_edges(graph: Graph) -> frozenset[Edge]:
    """Edges lying in some perfect matching: exactly those uv whose endpoint
    deletion leaves the graph factorizable, i.e. with v in D(G-u)."""
    return GraphStructure(graph).allowed


def factor_components(graph: Graph) -> FactorComponents:
    return GraphStructure(graph).components


def same_class(graph: Graph, u: int, v: int) -> bool:
    """Same factor-connected component, and deleting both endpoints kills
    every perfect matching (or the vertices coincide): v is not in D(G-u)."""
    if not {u, v} <= graph.vertex_set:
        raise ValueError("same-class query outside the host graph")
    class_of = GraphStructure(graph).partition.class_of
    return class_of[u] == class_of[v]


def canonical_partition(graph: Graph) -> CanonicalPartition:
    """Group vertices by the same-class relation: two vertices of one
    factor-component share a class iff v is not in D(G-u)."""
    return GraphStructure(graph).partition


def is_separating(graph: Graph, candidate: frozenset[int]) -> bool:
    """Whether the set is a (possibly empty) union of factor-components."""
    xs = frozenset(candidate)
    if not xs <= graph.vertex_set:
        raise ValueError("separating-set query outside the host graph")
    comps = GraphStructure(graph).components
    return all(comp <= xs or not (comp & xs) for comp in comps.components)


def _require_within_limit(k: int, max_components: int | None) -> None:
    if max_components is not None and k > max_components:
        raise ComponentLimitError(
            f"{k} components exceed the component limit of {max_components}"
        )


def component_leq(graph: Graph, comps: FactorComponents, lower: int, upper: int) -> bool:
    """Whether ``lower`` sits below ``upper`` in the component order: some
    separating superset of both contracts, at the lower one, to a
    factor-critical graph.  ``comps`` names the indices and must be the
    graph's own factor-components."""
    structure = GraphStructure(graph)
    if comps != structure.components:
        raise ValueError("components are not the graph's own factor-components")
    k = len(comps)
    if not (0 <= lower < k and 0 <= upper < k):
        raise ValueError("component index out of range")
    return upper in structure.above(lower)


def component_poset(graph: Graph, *, max_components: int | None = None) -> ComponentPoset:
    structure = GraphStructure(graph)
    _require_within_limit(len(structure.components), max_components)
    return structure.poset


def minimum_component(poset: ComponentPoset) -> int | None:
    """Index of the unique component below every other, if one exists."""
    k = len(poset)
    for i in range(k):
        if all(poset.leq[i][j] for j in range(k)):
            return i
    return None


class UpSets(Value):
    """Strict upper bounds of one component, split by the class each upper
    component attaches to.

    ``per_class`` maps a partition-class index (class inside the base
    component) to the strictly-upper component indices assigned to it; the
    assignment is by connected pieces of the strictly-upper induced subgraph,
    each of which touches exactly one class of the base.  Up-sets compare by
    identity.
    """

    # per_class is left out of the repr
    _fields = ("base", "component_sets", "partition", "up_star")
    base: int
    component_sets: tuple[frozenset[int], ...]
    partition: CanonicalPartition
    up_star: frozenset[int]
    per_class: dict[int, frozenset[int]]
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(
        self,
        base: int,
        component_sets: tuple[frozenset[int], ...],
        partition: CanonicalPartition,
        up_star: frozenset[int],
        per_class: dict[int, frozenset[int]],
    ) -> None:
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "component_sets", component_sets)
        object.__setattr__(self, "partition", partition)
        object.__setattr__(self, "up_star", up_star)
        object.__setattr__(self, "per_class", per_class)

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


def up_sets(graph: Graph, base: int) -> UpSets:
    """Assign each strictly-upper component of the component ``base`` to a
    class of it, on the graph's own order and partition.

    Each connected piece of the subgraph induced by the strictly-upper
    vertices must have its neighborhood inside the base contained in exactly
    one class; anything else raises ClassAssignmentViolation, since that
    cannot happen for a correct engine.  A ``base`` that indexes no
    component raises ValueError.
    """
    structure = GraphStructure(graph)
    return _up_sets(graph, structure.poset, structure.partition, base)


def _up_sets(
    graph: Graph, poset: ComponentPoset, partition: CanonicalPartition, base: int
) -> UpSets:
    """``up_sets`` on an order and a partition already computed for ``graph``."""
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
