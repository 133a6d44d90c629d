"""The exposable / neighbor / inner three-way vertex partition.

The exposable part holds every vertex some maximum matching leaves uncovered:
the outer vertices of one search from each vertex it exposes, or of one
deletion search per vertex for every G-x of a factorizable G, checked against
the Gallai-Edmonds deficiency identity.  The path characterizations of the
same partition live in the verifier as conformance checks, not here.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DeficiencyViolation
from .graph import Graph, connected_components, neighbors
from .matching import ExposableAfterDeletion, exposable_vertices, matching_number


@dataclass(frozen=True)
class GEPartition:
    """The (D, A, C) partition: exposable vertices, their outside neighbors,
    and everything else."""

    d: frozenset[int]
    a: frozenset[int]
    c: frozenset[int]

    def parts(self) -> tuple[frozenset[int], frozenset[int], frozenset[int]]:
        return self.d, self.a, self.c


def _checked_partition(
    graph: Graph, d: frozenset[int], exposed: int, removed: frozenset[int] = frozenset()
) -> GEPartition:
    """D, its neighbors and the rest, in the graph less ``removed``, where a
    maximum matching exposes ``exposed`` vertices: one per component of
    G[D], less |A|.  The components of G[D] are counted on G's adjacency,
    so checking a partition builds no graph."""
    a = neighbors(graph, d) - removed
    parts = len(connected_components(graph, d))
    if exposed != parts - len(a):
        raise DeficiencyViolation(f"{exposed} exposed vertices, {parts} parts of D, |A| = {len(a)}")
    return GEPartition(d, a, graph.vertex_set - d - a - removed)


def gallai_edmonds(graph: Graph) -> GEPartition:
    exposed = graph.order - 2 * matching_number(graph)
    return _checked_partition(graph, exposable_vertices(graph), exposed)


def deletion_partitions(graph: Graph) -> dict[int, GEPartition]:
    """The partition of G-x for every vertex x of a factorizable graph G, in
    ascending order of x: D is D(G-x) from one deletion search, A its
    neighbors other than x, C the rest of G-x.  A perfect matching of G
    leaves one vertex of G-x exposed."""
    return _deletion_partitions(graph, ExposableAfterDeletion(graph))


def _deletion_partitions(graph: Graph, exposable: ExposableAfterDeletion) -> dict[int, GEPartition]:
    return {x: _checked_partition(graph, exposable[x], 1, frozenset((x,))) for x in graph.vertices}
