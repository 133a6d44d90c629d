"""The exposable / neighbor / inner three-way vertex partition.

The exposable part holds every vertex some maximum matching leaves uncovered:
the outer vertices of one search from each vertex it exposes, checked against
the Gallai-Edmonds deficiency identity.  The partition of every G-x of a
factorizable G is ``GraphStructure.deletion_partitions``, which checks each
row of its deletion table here.  The path characterizations of the same
partition live in the verifier as conformance checks, not here.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Sequence

from .errors import DeficiencyViolation
from .graph import Graph
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
    |A|.  A and the components of G[D] come from one walk of G's index
    adjacency, so checking a partition builds no graph."""
    adj = graph.index_adjacency
    unseen = list(d)
    in_a = [False] * len(adj)
    parts = 0
    for start, mark in enumerate(d):
        if not (mark and unseen[start]):
            continue
        parts += 1
        unseen[start] = False
        stack = [start]
        while stack:
            for w in adj[stack.pop()]:
                if unseen[w]:
                    unseen[w] = False
                    stack.append(w)
                elif not d[w]:
                    in_a[w] = True
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

