"""The exposable / neighbor / inner three-way vertex partition.

The exposable part holds every vertex some maximum matching leaves uncovered:
the outer marks of the failed searches of the one blossom pass, merged here
from the positions each search marked and checked against the Gallai-Edmonds
deficiency identity.  The components of G[D] and A = N(D) it counts come
from the package's one component walk on G's one index.  When D is every
visible position and at most one position is hidden, A = N(D) - D - hidden
is empty, so the identity reads exposed = c(G - hidden), and that count comes
from G's one low-point pass instead, which counts c(G - x) for every x at
once.  The partition of the subgraph induced by ``kept`` runs on G's index
with the other positions hidden, so no G-x is built.  The partition of every
G-x of a factorizable G is ``GraphStructure.deletion_partitions``: the
structure checks each of its rows D(G-x) here once, and keeps the checked
D, A and C as marks by position, ``deletion_marks``, which the analysis
output writes straight through ``itertools.compress`` on the ascending
vertex ids, with no set built and nothing sorted.  In an elementary graph
whose classes are singletons every row is V - x, so no row is walked, and
its A and C are one shared empty sequence.  The path characterizations of
the same partition live in the verifier as conformance checks, not here.
"""

from __future__ import annotations

from itertools import compress
from typing import Collection, Iterable, Sequence

from .errors import DeficiencyViolation
from .graph import Graph, Value, _walk_parts
# matching_number is unused here, but bench/selftest.py pins this binding
# until the benchmark reads counters inside the library (ROADMAP item 1)
from .matching import _blossom_pass, _confined, matching_number  # noqa: F401


class GEPartition(Value):
    """The (D, A, C) partition: exposable vertices, their outside neighbors,
    and everything else."""

    _fields = ("d", "a", "c")
    d: frozenset[int]
    a: frozenset[int]
    c: frozenset[int]

    def __init__(self, d: frozenset[int], a: frozenset[int], c: frozenset[int]) -> None:
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "c", c)

    def parts(self) -> tuple[frozenset[int], frozenset[int], frozenset[int]]:
        return self.d, self.a, self.c


# the A and C marks of a partition whose D is every visible position: as
# marks by position, an empty sequence marks nothing
_NONE: tuple[bool, ...] = ()


def _checked_marks(
    graph: Graph, d: Sequence[bool], exposed: int, hidden: Collection[int]
) -> tuple[Sequence[bool], Sequence[bool], Sequence[bool]]:
    """D, given by its marks by position, its neighbors and the rest, each as
    marks by position, in the graph less the ``hidden`` positions, where a
    maximum matching exposes ``exposed`` vertices: one per component of
    G[D], less |A|.  The count of those components and A come from one walk
    of G's index, so checking a partition builds no graph.  When D is every
    visible position and at most one is hidden, A = N(D) - D - hidden and C
    are empty, so the identity reads exposed = c(G - hidden), taken from the
    graph's cached ``parts_less_each`` without a walk, and A and C are both
    the one empty sequence ``_NONE``."""
    visible = len(graph.vertices) - len(hidden)
    if len(hidden) <= 1 and d.count(True) == visible and not any(d[h] for h in hidden):
        whole, less = graph.parts_less_each
        parts = less[next(iter(hidden))] if hidden else whole
        if exposed != parts:
            raise DeficiencyViolation(f"{exposed} exposed vertices, {parts} parts of D, |A| = 0")
        return d, _NONE, _NONE
    _, parts, in_a = _walk_parts(graph.index_adjacency, d)
    for h in hidden:
        in_a[h] = False
    a = sum(in_a)
    if exposed != parts - a:
        raise DeficiencyViolation(f"{exposed} exposed vertices, {parts} parts of D, |A| = {a}")
    rest = [not (x or y) for x, y in zip(d, in_a)]
    for h in hidden:
        rest[h] = False
    return d, in_a, rest


def _partition_of(vertices: Sequence[int], marks: Iterable[Sequence[bool]]) -> GEPartition:
    """The partition whose D, A and C the three ``marks`` give by position."""
    return GEPartition(*(frozenset(compress(vertices, m)) for m in marks))


def gallai_edmonds(graph: Graph, *, kept: Iterable[int] | None = None) -> GEPartition:
    """The partition of the graph, or of the subgraph induced by ``kept``,
    read off one blossom pass: D marks the positions its failed searches
    marked, and its drained matching gives the exposed count."""
    _, hidden = _confined(graph, kept)
    mate, failures = _blossom_pass(graph.index_adjacency, hidden)
    d = [False] * len(mate)
    for _, marked in failures:
        for i in marked:
            d[i] = True
    marks = _checked_marks(graph, d, mate.count(-1) - len(hidden), hidden)
    return _partition_of(graph.vertices, marks)

