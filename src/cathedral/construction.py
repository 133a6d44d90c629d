"""Saturation testing, saturation closure, and the two-way bridge between
saturated graphs and their foundation/towers decomposition.

decompose doubles as a falsification harness: every structural guarantee it
relies on (minimum element, partition restriction, unique tower per class,
complete class-tower joins, saturated parts, factor-critical contraction) is
re-checked and raises StructureViolation on failure instead of proceeding.
"""

from __future__ import annotations

from dataclasses import dataclass

from .canonical import (
    _require_factorizable,
    canonical_partition,
    component_poset,
    factor_components,
    minimum_component,
)
from .errors import (
    ClassKeyMismatch,
    ConstructionViolation,
    ContractionNotFactorCritical,
    FoundationNotElementary,
    FoundationNotSaturated,
    JoinEdgeMissing,
    MinimumComponentMissing,
    MultipleTowersPerClass,
    NoMinimumComponent,
    NotSaturatedError,
    PartNotSaturated,
    PartitionMismatch,
    TowerAssignmentViolation,
    TowerNotSaturated,
    VertexIdCollision,
)
from .gallai_edmonds import deletion_partitions
from .graph import (
    Edge,
    Graph,
    add_edges,
    complement_pairs,
    connected_components,
    delete_vertices,
    edge,
    induced_subgraph,
    neighbors,
)
from .matching import (
    ExposableAfterDeletion,
    _blossom_matching,
    _contracts_to_factor_critical,
    _indexed,
    is_factorizable,
)


def is_saturated(graph: Graph) -> bool:
    """Whether adding any absent edge would create a new perfect matching,
    i.e. every complement pair uv has v in D(G-u)."""
    _require_factorizable(graph, "is_saturated")
    exposable = ExposableAfterDeletion(graph)
    return all(v in exposable[u] for u, v in complement_pairs(graph))


def saturate(graph: Graph, *, descending: bool = False) -> tuple[Graph, tuple[Edge, ...]]:
    """Grow the graph to a saturated one with the same perfect matchings.

    Complement pairs uv are scanned once in lexicographic order (reversed
    when ``descending``).  uv is added exactly when G-u-v, in the graph grown
    so far, is not factorizable, so that uv lies in no perfect matching.  One
    pass suffices: an addition never makes a factorizable G-u-v unfactorizable.
    The closure depends on the scan order; any closure has the input's
    matchings exactly and passes is_saturated.
    """
    _require_factorizable(graph, "saturate")
    exposable = ExposableAfterDeletion(graph)
    added: list[Edge] = []
    # both scan orders group pairs by u, so D(G-u) is searched where u's run
    # starts; adding uv leaves G-u unchanged, so it stays current for the run
    for u, v in sorted(complement_pairs(graph), reverse=descending):
        if v not in exposable[u]:
            exposable.add_edge(u, v)
            added.append((u, v))
    return add_edges(graph, added), tuple(added)


@dataclass(frozen=True)
class CathedralTree:
    """Recursive foundation/towers decomposition of a saturated graph.

    The foundation is elementary and saturated on its own; classes list its
    canonical partition in ascending order, each optionally carrying the
    decomposition of the tower joined to it.  Vertex ids are global: towers
    and foundation never share ids, which makes round trips exact.
    """

    foundation_vertices: frozenset[int]
    foundation_edges: frozenset[Edge]
    classes: tuple[tuple[frozenset[int], "CathedralTree | None"], ...]

    def foundation_graph(self) -> Graph:
        return Graph(self.foundation_vertices, self.foundation_edges)


@dataclass(frozen=True)
class ConstructionSpec:
    """One level of the joining construction: a foundation graph plus one
    (possibly empty) tower graph per canonical class of the foundation."""

    foundation: Graph
    towers: dict[frozenset[int], Graph]


def decompose(graph: Graph) -> CathedralTree:
    """Break a saturated graph into its foundation and towers, recursively."""
    if not is_saturated(graph):
        raise NotSaturatedError("input is not saturated")
    return _decompose_saturated(graph)


def _decompose_saturated(graph: Graph) -> CathedralTree:
    if graph.order == 0:
        return CathedralTree(frozenset(), frozenset(), ())
    comps = factor_components(graph)
    poset = component_poset(graph, comps)
    low = minimum_component(poset)
    if low is None:
        raise MinimumComponentMissing("saturated graph has no minimum component")
    fv = comps.components[low]
    foundation = induced_subgraph(graph, fv)
    partition = canonical_partition(graph, comps)
    restricted = partition.restricted_to(fv)
    if restricted != set(canonical_partition(foundation).classes):
        raise PartitionMismatch(
            "partition restricted to the foundation disagrees with the foundation's own partition"
        )
    if not is_saturated(foundation):
        raise PartNotSaturated("foundation failed the saturation test")
    index, adj = _indexed(graph)
    rest = [index[v] for v in graph.vertices if v not in fv]
    if not _contracts_to_factor_critical(adj, _blossom_matching(adj), [index[v] for v in fv], rest):
        raise ContractionNotFactorCritical(
            "collapsing the foundation did not give a factor-critical graph"
        )
    towers: dict[frozenset[int], Graph] = {}
    for piece in connected_components(delete_vertices(graph, fv)):
        ps = frozenset(piece)
        nb = neighbors(graph, ps)
        if not nb <= fv:
            raise TowerAssignmentViolation(
                f"tower {sorted(ps)} has neighbors outside the foundation"
            )
        touched = {partition.class_of[w] for w in nb}
        if len(touched) != 1:
            raise TowerAssignmentViolation(
                f"tower {sorted(ps)} touches {len(touched)} foundation classes"
            )
        cls = partition.classes[touched.pop()]
        if cls in towers:
            raise MultipleTowersPerClass(f"class {sorted(cls)} has two towers")
        for s in sorted(cls):
            for t in sorted(ps):
                if not graph.has_edge(s, t):
                    raise JoinEdgeMissing(
                        f"class vertex {s} and tower vertex {t} are not adjacent"
                    )
        tower = induced_subgraph(graph, ps)
        if not is_saturated(tower):
            raise PartNotSaturated(f"tower {sorted(ps)} failed the saturation test")
        towers[cls] = tower
    entries = tuple(
        (cls, _decompose_saturated(towers[cls]) if cls in towers else None)
        for cls in sorted(restricted, key=min)
    )
    return CathedralTree(fv, foundation.edges, entries)


def construct(spec: ConstructionSpec) -> Graph:
    """Join every vertex of each foundation class to every vertex of its
    tower; validates the input, then re-checks the output's guarantees
    (saturated, foundation is a factor-component and the minimum element)."""
    foundation = spec.foundation
    if foundation.order == 0:
        if spec.towers:
            raise ClassKeyMismatch("an empty foundation admits no tower classes")
        return Graph()
    if not is_factorizable(foundation) or not is_saturated(foundation):
        raise FoundationNotSaturated("foundation must be saturated")
    comps = factor_components(foundation)
    if len(comps) != 1:
        raise FoundationNotElementary(
            "foundation must consist of a single factor-connected component"
        )
    partition = canonical_partition(foundation, comps)
    if set(spec.towers) != set(partition.classes):
        raise ClassKeyMismatch(
            "tower keys must be exactly the foundation's canonical classes"
        )
    used = set(foundation.vertex_set)
    for cls in sorted(spec.towers, key=min):
        tower = spec.towers[cls]
        clash = used & tower.vertex_set
        if clash:
            raise VertexIdCollision(f"vertex ids {sorted(clash)} are reused across parts")
        used |= tower.vertex_set
        if not is_factorizable(tower) or not is_saturated(tower):
            raise TowerNotSaturated(f"tower for class {sorted(cls)} must be saturated")

    vertices = set(foundation.vertices)
    edges = set(foundation.edges)
    for cls, tower in spec.towers.items():
        vertices |= tower.vertex_set
        edges |= tower.edges
        for s in cls:
            for t in tower.vertices:
                edges.add(edge(s, t))
    built = Graph(vertices, edges)

    if not is_saturated(built):
        raise ConstructionViolation("construction output failed the saturation test")
    built_comps = factor_components(built)
    if foundation.vertex_set not in built_comps.components:
        raise ConstructionViolation(
            "foundation is not a factor-connected component of the output"
        )
    built_poset = component_poset(built, built_comps)
    low = minimum_component(built_poset)
    if low is None or built_comps.components[low] != foundation.vertex_set:
        raise ConstructionViolation(
            "foundation is not the minimum component of the output"
        )
    return built


def construct_tree(tree: CathedralTree) -> Graph:
    """Rebuild a graph from its decomposition, bottom up."""
    towers = {
        cls: construct_tree(sub) if sub is not None else Graph()
        for cls, sub in tree.classes
    }
    return construct(ConstructionSpec(tree.foundation_graph(), towers))


def foundation_via_ge(graph: Graph) -> frozenset[int]:
    """Vertices avoiding the inner part of every single-deletion partition.

    Defined whenever the component order has a minimum element (always the
    case for nonempty saturated graphs); equals that minimum component's
    vertex set, which the verifier checks against decompose.
    """
    _require_factorizable(graph, "foundation_via_ge")
    if graph.order == 0:
        return frozenset()
    if minimum_component(component_poset(graph)) is None:
        raise NoMinimumComponent("the component order has no minimum element")
    return graph.vertex_set.difference(*(ge.c for ge in deletion_partitions(graph).values()))
