"""The exposable / neighbor / inner three-way vertex partition.

The exposable part holds every vertex some maximum matching leaves uncovered:
the outer marks of the searches that fail in the one blossom pass that finds
that matching, checked against the Gallai-Edmonds deficiency identity.  The
components of G[D] and A = N(D) it counts come from the package's one
component walk on G's one index.  The partition of the subgraph induced by
``kept`` runs on G's index with the other positions hidden, so no G-x is
built.  The partition of every G-x of a factorizable G is
``GraphStructure.deletion_partitions``, which checks each row of its deletion
table here.  The path characterizations of the same partition live in the
verifier as conformance checks, not here.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Collection, Iterable, Sequence

from .errors import DeficiencyViolation
from .graph import Graph, _walk_parts
# matching_number is unused here, but bench/selftest.py pins this binding
# until the benchmark reads counters inside the library (ROADMAP item 1)
from .matching import _blossom_matching, _confined, matching_number  # noqa: F401


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
    graph: Graph, d: Sequence[bool], exposed: int, hidden: Collection[int]
) -> GEPartition:
    """D, given by its marks by position, its neighbors and the rest, in the
    graph less the ``hidden`` positions, where a maximum matching exposes
    ``exposed`` vertices: one per component of G[D], less |A|.  The count of
    those components and A come from one walk of G's index, so checking a
    partition builds no graph."""
    _, parts, in_a = _walk_parts(graph.index_adjacency, d)
    for h in hidden:
        in_a[h] = False
    a = sum(in_a)
    if exposed != parts - a:
        raise DeficiencyViolation(f"{exposed} exposed vertices, {parts} parts of D, |A| = {a}")
    vs = graph.vertices
    rest = [not (x or y) for x, y in zip(d, in_a)]
    for h in hidden:
        rest[h] = False
    return GEPartition(
        frozenset(compress(vs, d)), frozenset(compress(vs, in_a)), frozenset(compress(vs, rest))
    )


def gallai_edmonds(graph: Graph, *, kept: Iterable[int] | None = None) -> GEPartition:
    """The partition of the graph, or of the subgraph induced by ``kept``,
    read off one blossom pass: its exposed count and its marks of D."""
    _, hidden = _confined(graph, kept)
    mate, d = _blossom_matching(graph.index_adjacency, hidden)
    return _checked_partition(graph, d, mate.count(-1) - len(hidden), hidden)

