"""The exposable / neighbor / inner three-way vertex partition.

The exposable part holds every vertex some maximum matching leaves uncovered:
the outer vertices of one search from each vertex it exposes, checked against
the Gallai-Edmonds deficiency identity.  The components of G[D] and A = N(D)
it counts come from the package's one component walk on G's one index.  The
partition of every G-x of a factorizable G is
``GraphStructure.deletion_partitions``, which checks each row of its deletion
table here.  The path characterizations of the same partition live in the
verifier as conformance checks, not here.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Sequence

from .errors import DeficiencyViolation
from .graph import Graph, _walk_parts
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


def _checked_partition(
    graph: Graph, d: Sequence[bool], exposed: int, removed: int = -1
) -> GEPartition:
    """D, given by its marks by position, its neighbors and the rest, in the
    graph less the vertex at position ``removed`` (if any), where a maximum
    matching exposes ``exposed`` vertices: one per component of G[D], less
    |A|.  The count of those components and A come from one walk of G's
    index, so checking a partition builds no graph."""
    _, parts, in_a = _walk_parts(graph.index_adjacency, d)
    if removed >= 0:
        in_a[removed] = False
    a = sum(in_a)
    if exposed != parts - a:
        raise DeficiencyViolation(f"{exposed} exposed vertices, {parts} parts of D, |A| = {a}")
    vs = graph.vertices
    rest = [not (x or y) for x, y in zip(d, in_a)]
    if removed >= 0:
        rest[removed] = False
    return GEPartition(
        frozenset(compress(vs, d)), frozenset(compress(vs, in_a)), frozenset(compress(vs, rest))
    )


def gallai_edmonds(graph: Graph) -> GEPartition:
    exposed = graph.order - 2 * matching_number(graph)
    d = exposable_vertices(graph)
    return _checked_partition(graph, [v in d for v in graph.vertices], exposed)

