"""Saturation testing, saturation closure, and the two-way bridge between
saturated graphs and their foundation/towers decomposition.

decompose reads every level off the input's one structure and doubles as a
falsification harness: it names each level's foundation by degree, checks it
by one contraction search, and re-checks what the structure does not settle
(one class per tower; one tower per class; complete class-tower joins); a
failure raises StructureViolation.  construct and construct_tree check each
foundation on its own structure and the whole output on one, by the same
lemma; the verifier re-checks the parts' own structures from scratch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Collection, NamedTuple

from .canonical import GraphStructure
from .errors import (
    ClassKeyMismatch,
    ConstructionError,
    ConstructionViolation,
    FoundationNotElementary,
    FoundationNotSaturated,
    JoinEdgeMissing,
    MinimumComponentMissing,
    MultipleTowersPerClass,
    NoMinimumComponent,
    NotFactorizableError,
    NotSaturatedError,
    TowerAssignmentViolation,
    TowerNotSaturated,
    VertexIdCollision,
)
from .graph import (
    Edge,
    Graph,
    add_edges,
    complement_pairs,
    connected_components,
    edge,
    neighbors,
)
from .matching import ExposableAfterDeletion, is_factorizable


def is_saturated(graph: Graph) -> bool:
    """Whether adding any absent edge would create a new perfect matching,
    i.e. every complement pair uv has v in D(G-u)."""
    return GraphStructure(graph).saturated


def saturate(graph: Graph, *, descending: bool = False) -> tuple[Graph, tuple[Edge, ...]]:
    """Grow the graph to a saturated one with the same perfect matchings.

    Complement pairs uv are scanned once in lexicographic order (reversed
    when ``descending``).  uv is added exactly when G-u-v, in the graph grown
    so far, is not factorizable, so that uv lies in no perfect matching.  One
    pass suffices: an addition never makes a factorizable G-u-v unfactorizable.
    The closure depends on the scan order; any closure has the input's
    matchings exactly and passes is_saturated.
    """
    if not is_factorizable(graph):
        raise NotFactorizableError("saturate needs a graph with a perfect matching")
    exposable = ExposableAfterDeletion(graph)
    index = graph.positions
    added: list[Edge] = []
    # both scan orders group pairs by u, so D(G-u) is searched where u's run
    # starts; adding uv leaves G-u unchanged, so it stays current for the run
    for u, v in sorted(complement_pairs(graph), reverse=descending):
        if not exposable.row(index[u])[index[v]]:
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
    structure = GraphStructure(graph)
    if not structure.saturated:
        raise NotSaturatedError("input is not saturated")
    return _decompose_saturated(structure, frozenset(range(len(structure.components))))


def _decompose_saturated(structure: GraphStructure, level: frozenset[int]) -> CathedralTree:
    """The tree of the level made of the components ``level`` of the saturated
    graph G.  Its foundation F is the component of the level's vertex of
    greatest degree in G, the least id on a tie, checked by one search.  With
    T_S the tower joined to a class S of F, a vertex s of S has at least
    |S| + |T_S| neighbours in the level: S is a clique, s's mate lies in
    another class of F, and s is joined to all of T_S.  A vertex of T_S, or of
    a tower inside it, has at most |S| + |T_S| - 1.  Once the parent level's
    checks pass, every vertex of the level has the same neighbours outside
    it, so degree in G ranks the level's vertices as degree in the level does.
    Each level H and its foundation H0 read G's structure cut to them,
    by this lemma for a saturated H and a perfect matching M, whose edges lie in
    components: H-u-v is factorizable iff an M-alternating u-v path with end
    edges in M exists.  Tower T joined to class C: D(T-u) = D(H-u) ∩ V(T), as a
    path that left T would leave and re-enter through s != s' in C, and its
    stretch from s to s' would start and end with M-edges, so H-s-s' would be
    factorizable although s ~ s'.  Foundation: D(H0-u) = D(H-u) ∩ V(H0), as a
    detour s, t, ..., t', s' through a tower has s != u and s' != v (the end
    edges are M-edges in H0) and s ~ s', so ss' is an edge (H is saturated)
    outside M, and replacing the detour by it keeps the path alternating,
    simple and M-ended.  A tower's non-edges are H's, so it is saturated too,
    and the lemma holds at every depth."""
    graph, comps, partition = structure.graph, structure.components, structure.partition
    if not level:
        return CathedralTree(frozenset(), frozenset(), ())
    vertices = frozenset().union(*(comps.components[i] for i in level))
    pos, rows, vs = graph.positions, graph.index_adjacency, graph.vertices
    low = comps.component_of[min(vertices, key=lambda v: (-len(rows[pos[v]]), v))]
    if not structure.is_minimum_of(level, low):
        raise MinimumComponentMissing("saturated graph has no minimum component")
    fv = comps.components[low]
    towers: dict[frozenset[int], frozenset[int]] = {}
    for piece in connected_components(graph, vertices - fv):
        ps = frozenset(piece)
        nb = neighbors(graph, ps) & vertices
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
        towers[cls] = frozenset(comps.component_of[v] for v in ps)
    entries = tuple(
        (cls, _decompose_saturated(structure, towers[cls]) if cls in towers else None)
        for cls in sorted(partition.restricted_to(fv), key=min)
    )
    # by position, so the cost is the foundation's degrees, not |E| per level
    inside = {pos[s] for s in fv}
    edges = frozenset([(vs[i], vs[j]) for i in inside for j in rows[i] if i < j and j in inside])
    return CathedralTree(fv, edges, entries)


def _saturated_structure(graph: Graph, error: ConstructionError) -> GraphStructure:
    """The structure of a saturated graph; ``error`` for any other graph."""
    try:
        structure = GraphStructure(graph)
    except NotFactorizableError:
        raise error from None
    if not structure.saturated:
        raise error
    return structure


def _checked_foundation(
    foundation: Graph, classes: Collection[frozenset[int]]
) -> GraphStructure | None:
    """The foundation's own structure, once it is saturated and elementary and
    ``classes`` are exactly its canonical classes; None for the empty one."""
    if foundation.order == 0:
        if classes:
            raise ClassKeyMismatch("an empty foundation admits no tower classes")
        return None
    base = _saturated_structure(foundation, FoundationNotSaturated("foundation must be saturated"))
    if len(base.components) != 1:
        raise FoundationNotElementary(
            "foundation must consist of a single factor-connected component"
        )
    if set(classes) != set(base.partition.classes):
        raise ClassKeyMismatch(
            "tower keys must be exactly the foundation's canonical classes"
        )
    return base


def _claim(used: set[int], vertices: frozenset[int]) -> None:
    """Add a part's vertices to those of the parts before it, which it may not reuse."""
    clash = used & vertices
    if clash:
        raise VertexIdCollision(f"vertex ids {sorted(clash)} are reused across parts")
    used |= vertices


def _joined(
    base: GraphStructure,
    vertices: AbstractSet[int],
    edges: set[Edge],
    levels: list[tuple[frozenset[int], frozenset[int]]],
) -> GraphStructure:
    """The structure of the joined graph, checked on its one table: it is
    saturated, and each level's foundation (``levels`` holds its vertices and
    the level's, lower levels first) is a factor-component and the minimum of
    the level's components.  By the lemma of ``_decompose_saturated``, the
    level graphs of a saturated output read its table cut to them, so this
    checks each level as its own structure would.  When every tower is empty
    the output is the foundation itself, and ``base``, the foundation's own
    structure, serves as the output's."""
    out = base if len(vertices) == base.graph.order else GraphStructure(Graph(vertices, edges))
    if not out.saturated:
        raise ConstructionViolation("construction output failed the saturation test")
    comps = out.components
    index = {comp: i for i, comp in enumerate(comps.components)}
    for foundation, level in levels:
        if foundation not in index:
            raise ConstructionViolation(
                "foundation is not a factor-connected component of the output"
            )
        # the level's deeper foundations passed already, so it is a union of components
        if not out.is_minimum_of({comps.component_of[v] for v in level}, index[foundation]):
            raise ConstructionViolation(
                "foundation is not the minimum component of the output"
            )
    return out


def construct(spec: ConstructionSpec) -> Graph:
    """Join every vertex of each foundation class to every vertex of its
    tower; validates the input, each tower saturated on its own structure,
    then checks the output once (saturated, foundation is a factor-component
    and the minimum element).  With every tower empty the output is the
    foundation, and one D(G-u) table serves both."""
    foundation = spec.foundation
    base = _checked_foundation(foundation, spec.towers)
    if base is None:
        return Graph()
    vertices = set(foundation.vertex_set)
    edges = set(foundation.edges)
    for cls in sorted(spec.towers, key=min):
        tower = spec.towers[cls]
        _claim(vertices, tower.vertex_set)
        error = TowerNotSaturated(f"tower for class {sorted(cls)} must be saturated")
        _saturated_structure(tower, error)
        edges |= tower.edges
        edges.update(edge(s, t) for s in cls for t in tower.vertices)
    return _joined(base, vertices, edges, [(foundation.vertex_set, frozenset(vertices))]).graph


class _Level(NamedTuple):
    """A level of a tree whose input checks passed: its foundation's own
    structure, the level's vertices, and the level of each class's tower."""

    base: GraphStructure
    vertices: frozenset[int]
    towers: dict[frozenset[int], "_Level | None"]


def construct_tree(tree: CathedralTree) -> Graph:
    """Rebuild a graph from its decomposition: the input checks of every
    level bottom up, then one join and one check of the whole output.  It
    fills one D(G-u) table per foundation and one for the output, and a
    one-level tree's output is its foundation, so it fills exactly one."""
    return _construct_tree(tree).graph


def _construct_tree(tree: CathedralTree) -> GraphStructure:
    """The output graph's structure, on which every level was checked."""
    root = _checked_level(tree)
    if root is None:
        return GraphStructure(Graph())
    edges: set[Edge] = set()
    levels: list[tuple[frozenset[int], frozenset[int]]] = []
    _join(root, edges, levels)
    return _joined(root.base, root.vertices, edges, levels)


def _checked_level(tree: CathedralTree) -> _Level | None:
    """The level after its input checks, which run after those of its towers,
    in the tree's order; None for an empty level."""
    towers = {
        cls: _checked_level(sub) if sub is not None else None for cls, sub in tree.classes
    }
    foundation = tree.foundation_graph()
    base = _checked_foundation(foundation, towers)
    if base is None:
        return None
    used = set(foundation.vertex_set)
    for cls in sorted(towers, key=min):
        tower = towers[cls]
        _claim(used, tower.vertices if tower is not None else frozenset())
    return _Level(base, frozenset(used), towers)


def _join(
    level: _Level, edges: set[Edge], levels: list[tuple[frozenset[int], frozenset[int]]]
) -> None:
    """Add the level's edges, its towers' and their joins to ``edges``, and
    each of its foundations with its level to ``levels``, lower levels first."""
    for cls, tower in level.towers.items():
        if tower is not None:
            _join(tower, edges, levels)
            edges.update(edge(s, t) for s in cls for t in tower.vertices)
    foundation = level.base.graph
    edges |= foundation.edges
    levels.append((foundation.vertex_set, level.vertices))


def foundation_via_ge(graph: Graph) -> frozenset[int]:
    """Vertices avoiding the inner part of every single-deletion partition.

    Defined whenever the component order has a minimum element (always the
    case for nonempty saturated graphs); equals that minimum component's
    vertex set, which the verifier checks against decompose.
    """
    return _foundation_via_ge(GraphStructure(graph))


def _foundation_via_ge(structure: GraphStructure) -> frozenset[int]:
    graph = structure.graph
    if graph.order == 0:
        return frozenset()
    if structure.minimum is None:
        raise NoMinimumComponent("the component order has no minimum element")
    return graph.vertex_set.difference(*(ge.c for ge in structure.deletion_partitions.values()))
