"""The exposable / neighbor / inner three-way vertex partition.

The exposable part holds every vertex some maximum matching leaves uncovered:
the outer vertices of one search from each vertex it exposes, checked against
the Gallai-Edmonds deficiency identity.  The path characterizations of the
same partition live in the verifier as conformance checks, not here.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DeficiencyViolation
from .graph import Graph, connected_components, induced_subgraph, neighbors
from .matching import exposable_vertices, matching_number


@dataclass(frozen=True)
class GEPartition:
    """The (D, A, C) partition: exposable vertices, their outside neighbors,
    and everything else."""

    d: frozenset[int]
    a: frozenset[int]
    c: frozenset[int]

    def parts(self) -> tuple[frozenset[int], frozenset[int], frozenset[int]]:
        return self.d, self.a, self.c


def gallai_edmonds(graph: Graph) -> GEPartition:
    d = exposable_vertices(graph)
    a = neighbors(graph, d)
    # a maximum matching exposes one vertex per component of G[D], less |A|
    exposed = graph.order - 2 * matching_number(graph)
    parts = len(connected_components(induced_subgraph(graph, d)))
    if exposed != parts - len(a):
        raise DeficiencyViolation(f"{exposed} exposed vertices, {parts} parts of D, |A| = {len(a)}")
    return GEPartition(d, a, graph.vertex_set - d - a)
