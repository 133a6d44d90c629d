"""Immutable simple graphs and the structural operations everything else
builds on: induced subgraphs, vertex deletion, contraction, edge addition,
neighborhoods, connectivity, and the edge-list text format used by the CLI.

Graphs are values: every operation returns a new graph, vertex iteration is
always in ascending id order, and ids are preserved by every operation
(contraction reuses the minimum id of the collapsed set).
Each graph has one adjacency, ``index_adjacency`` (neighbours by position),
and every connectivity question of the package runs on such rows: the parts
of a marked subset on one component walk, ``_walk_parts``, and the parts of
the graph less each single position on one low-point depth-first pass,
``_parts_less_each``, cached per graph as ``parts_less_each``.
"""

from __future__ import annotations

import operator
from functools import cached_property
from typing import Iterable, Sequence

from .errors import GraphFormatError

Edge = tuple[int, int]

# the largest vertex count the edge-list format accepts; one Graph of this
# order and its tables take a few hundred megabytes
MAX_VERTICES = 1_000_000


def _vertex_id(v: int) -> int:
    if isinstance(v, bool):  # refused, as tree JSON refuses true
        raise TypeError(f"vertex ids must be integers, not {v!r}")
    return operator.index(v)


def edge(u: int, v: int) -> Edge:
    """Normalized undirected edge: smaller endpoint first, no self-loops."""
    if u == v:
        raise ValueError(f"self-loop at vertex {u}")
    return (u, v) if u < v else (v, u)


class Value:
    """The base of the package's immutable value classes.

    A subclass names its fields in ``_fields`` and sets each once, in its own
    ``__init__``, with ``object.__setattr__``; any later assignment or
    deletion raises AttributeError.  Two values are equal when they are of
    the same class with equal fields, a value hashes as the tuple of its
    fields, and it prints as ``Name(field=value, ...)``.  ``cached_property``
    writes to the instance's ``__dict__`` directly, so it still caches.
    """

    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")


class Graph(Value):
    """Simple undirected graph over nonnegative integer vertex ids."""

    _fields = ("vertices", "edges")
    vertices: tuple[int, ...]
    edges: frozenset[Edge]

    def __init__(self, vertices: Iterable[int] = (), edges: Iterable[Iterable[int]] = ()) -> None:
        vs = sorted({_vertex_id(v) for v in vertices})
        if vs and vs[0] < 0:
            raise ValueError("vertex ids must be nonnegative")
        declared = set(vs)
        es: set[Edge] = set()
        for u, v in edges:
            e = edge(_vertex_id(u), _vertex_id(v))
            if e[0] not in declared or e[1] not in declared:
                raise ValueError(f"edge {e} uses an undeclared vertex")
            es.add(e)
        object.__setattr__(self, "vertices", tuple(vs))
        object.__setattr__(self, "edges", frozenset(es))

    @classmethod
    def _trusted(cls, vertices: tuple[int, ...], edges: frozenset[Edge]) -> Graph:
        """A graph from parts already in normal form: ascending ids and
        normalized edges between them, as an operation on a valid graph
        produces them.  Nothing is checked."""
        graph = object.__new__(cls)
        object.__setattr__(graph, "vertices", vertices)
        object.__setattr__(graph, "edges", edges)
        return graph

    @property
    def order(self) -> int:
        return len(self.vertices)

    @cached_property
    def vertex_set(self) -> frozenset[int]:
        return frozenset(self.vertices)

    @cached_property
    def positions(self) -> dict[int, int]:
        """Each vertex's position in ``vertices``; read-only."""
        return {v: i for i, v in enumerate(self.vertices)}

    @cached_property
    def index_adjacency(self) -> tuple[tuple[int, ...], ...]:
        """The graph's one adjacency: each vertex's neighbours by position,
        one ascending tuple per vertex, built from the graph's own edges on
        first use.  Every search and walk of this graph runs on it, and none
        grows it."""
        pos = self.positions
        rows: list[list[int]] = [[] for _ in self.vertices]
        for u, v in self.edges:
            i, j = pos[u], pos[v]
            rows[i].append(j)
            rows[j].append(i)
        return tuple([tuple(sorted(row)) for row in rows])

    @cached_property
    def parts_less_each(self) -> tuple[int, tuple[int, ...]]:
        """The number of connected parts of the graph, and of the graph less
        the vertex at each position, from one pass over ``index_adjacency``
        on first use."""
        return _parts_less_each(self.index_adjacency)

    def has_edge(self, u: int, v: int) -> bool:
        return u != v and (min(u, v), max(u, v)) in self.edges

    def sorted_edges(self) -> list[Edge]:
        return sorted(self.edges)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph(vertices={list(self.vertices)}, edges={self.sorted_edges()})"


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list text format.

    Lines starting with ``#`` are comments.  The first non-comment line must
    be ``vertices <n>``, declaring ids 0..n-1 (isolated vertices included)
    with n at most ``MAX_VERTICES``; every following line is one edge
    ``<u> <v>``.
    """
    count: int | None = None
    seen: set[Edge] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if count is None:
            if len(parts) != 2 or parts[0] != "vertices":
                raise GraphFormatError(f"line {lineno}: expected 'vertices <n>', got {line!r}")
            try:
                count = int(parts[1])
            except ValueError:
                raise GraphFormatError(f"line {lineno}: vertex count is not an integer") from None
            if count < 0:
                raise GraphFormatError(f"line {lineno}: vertex count must be nonnegative")
            if count > MAX_VERTICES:
                raise GraphFormatError(f"line {lineno}: vertex count exceeds {MAX_VERTICES}")
            continue
        if len(parts) != 2:
            raise GraphFormatError(f"line {lineno}: expected '<u> <v>', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError(f"line {lineno}: endpoints must be integers") from None
        if u == v:
            raise GraphFormatError(f"line {lineno}: self-loop at vertex {u}")
        if not (0 <= u < count and 0 <= v < count):
            raise GraphFormatError(f"line {lineno}: endpoint outside 0..{count - 1}")
        e = edge(u, v)
        if e in seen:
            raise GraphFormatError(f"line {lineno}: duplicate edge {e[0]} {e[1]}")
        seen.add(e)
    if count is None:
        raise GraphFormatError("missing 'vertices <n>' declaration")
    # every line was checked: ids in range, no loop, normalized and distinct
    return Graph._trusted(tuple(range(count)), frozenset(seen))


def render_edge_list(graph: Graph, comments: Iterable[str] = ()) -> str:
    """Inverse of parse_edge_list; edges are emitted sorted.

    The format can only express graphs with dense ids 0..n-1; any other
    graph raises GraphFormatError.
    """
    if graph.vertices != tuple(range(graph.order)):
        raise GraphFormatError("edge-list format requires dense vertex ids 0..n-1")
    lines = [f"# {c}".rstrip() for c in comments]
    lines.append(f"vertices {graph.order}")
    lines.extend(f"{u} {v}" for u, v in graph.sorted_edges())
    return "\n".join(lines) + "\n"


def induced_subgraph(graph: Graph, kept: Iterable[int]) -> Graph:
    """The subgraph induced by ``kept``; like every graph, it builds its
    ``index_adjacency`` from its own edges on first use."""
    ks = frozenset(kept)
    if not ks <= graph.vertex_set:
        raise ValueError("subgraph vertices must come from the host graph")
    return Graph._trusted(
        tuple([v for v in graph.vertices if v in ks]),
        frozenset(e for e in graph.edges if e[0] in ks and e[1] in ks),
    )


def delete_vertices(graph: Graph, removed: Iterable[int]) -> Graph:
    return induced_subgraph(graph, graph.vertex_set - frozenset(removed))


class ContractionResult(Value):
    """A graph with one vertex set collapsed, plus where each new id came from.

    origin_map partitions the old vertex set; merged_vertex maps to exactly
    the collapsed set, every other id to itself.
    """

    _fields = ("graph", "merged_vertex", "origin_map")
    graph: Graph
    merged_vertex: int
    origin_map: dict[int, frozenset[int]]

    def __init__(
        self, graph: Graph, merged_vertex: int, origin_map: dict[int, frozenset[int]]
    ) -> None:
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "merged_vertex", merged_vertex)
        object.__setattr__(self, "origin_map", origin_map)


def contract(graph: Graph, merged: Iterable[int]) -> ContractionResult:
    """Collapse ``merged`` to a single vertex (its minimum id).

    Loops are discarded and parallel edges coincide, so the result is simple.
    Vertices outside the collapsed set keep their ids.
    """
    ms = frozenset(merged)
    if not ms:
        raise ValueError("cannot contract an empty vertex set")
    if not ms <= graph.vertex_set:
        raise ValueError("contraction vertices must come from the host graph")
    target = min(ms)

    def image(v: int) -> int:
        return target if v in ms else v

    vertices = {image(v) for v in graph.vertices}
    edges = {edge(image(u), image(v)) for u, v in graph.edges if image(u) != image(v)}
    origin = {v: frozenset((v,)) for v in vertices}
    origin[target] = ms
    return ContractionResult(Graph(vertices, edges), target, origin)


def add_edges(graph: Graph, pairs: Iterable[Iterable[int]]) -> Graph:
    """Add absent edges between existing vertices."""
    edges = set(graph.edges)
    for u, v in pairs:
        e = edge(_vertex_id(u), _vertex_id(v))
        if e[0] not in graph.vertex_set or e[1] not in graph.vertex_set:
            raise ValueError(f"edge {e} uses an unknown vertex")
        if e in edges:
            raise ValueError(f"edge {e} is already present")
        edges.add(e)
    return Graph._trusted(graph.vertices, frozenset(edges))


def neighbors(graph: Graph, around: Iterable[int]) -> frozenset[int]:
    """Vertices outside ``around`` adjacent to some vertex inside it."""
    xs = frozenset(around)
    if not xs <= graph.vertex_set:
        raise ValueError("neighborhood query outside the host graph")
    pos, rows, vs = graph.positions, graph.index_adjacency, graph.vertices
    inside = {pos[x] for x in xs}
    return frozenset([vs[j] for i in inside for j in rows[i] if j not in inside])


def _walk_parts(
    rows: Sequence[Sequence[int]], kept: Sequence[bool]
) -> tuple[list[int], int, list[bool]]:
    """The connected parts of the positions marked ``kept`` in ``rows``:
    each kept position's part label (-1 elsewhere), the parts numbered by
    their least position, their count, and the marks of the positions
    outside ``kept`` that some part touches."""
    label = [-1] * len(rows)
    touched = [False] * len(rows)
    count = 0
    for start, mark in enumerate(kept):
        if not mark or label[start] >= 0:
            continue
        label[start] = count
        stack = [start]
        while stack:
            for w in rows[stack.pop()]:
                if not kept[w]:
                    touched[w] = True
                elif label[w] < 0:
                    label[w] = count
                    stack.append(w)
        count += 1
    return label, count, touched


def _parts_less_each(rows: Sequence[Sequence[int]]) -> tuple[int, tuple[int, ...]]:
    """The number c of connected parts of ``rows``, and for each position v
    the number of parts with v removed, by one Hopcroft-Tarjan low-point
    depth-first pass over an explicit stack.  A child w of v in the search
    forest whose subtree reaches back no higher than v (low[w] >= order[v])
    becomes a part of its own without v.  So a non-root v leaves c plus its
    count of such children, and a root, all of whose children are such,
    leaves c - 1 plus its number of children."""
    n = len(rows)
    order = [-1] * n
    low = [0] * n
    less = [0] * n  # children cut off, less one at each root
    clock = whole = 0
    for root in range(n):
        if order[root] >= 0:
            continue
        whole += 1
        less[root] = -1
        order[root] = low[root] = clock
        clock += 1
        stack = [(root, iter(rows[root]))]
        while stack:
            v, ws = stack[-1]
            for w in ws:
                if order[w] < 0:
                    order[w] = low[w] = clock
                    clock += 1
                    stack.append((w, iter(rows[w])))
                    break
                if order[w] < low[v]:
                    low[v] = order[w]
            else:
                stack.pop()
                if stack:
                    u = stack[-1][0]
                    if low[v] < low[u]:
                        low[u] = low[v]
                    if low[v] >= order[u]:
                        less[u] += 1
    return whole, tuple([whole + cut for cut in less])


def connected_components(
    graph: Graph, kept: Iterable[int] | None = None
) -> tuple[tuple[int, ...], ...]:
    """Connectivity classes of the graph, or of the subgraph induced by
    ``kept``, each ascending, ordered by minimum id.

    The subgraph is walked on the host's own index, with every vertex
    outside ``kept`` left out, so no graph is built for it; one ascending
    scan of the labels lists each class in order."""
    ks = graph.vertex_set if kept is None else frozenset(kept)
    if not ks <= graph.vertex_set:
        raise ValueError("subgraph vertices must come from the host graph")
    vs = graph.vertices
    label, count, _ = _walk_parts(graph.index_adjacency, [v in ks for v in vs])
    parts: list[list[int]] = [[] for _ in range(count)]
    for v, part in zip(vs, label):
        if part >= 0:
            parts[part].append(v)
    return tuple(map(tuple, parts))


def complement_pairs(graph: Graph) -> list[Edge]:
    """All unordered distinct vertex pairs that are not edges, sorted."""
    vs = graph.vertices
    return [
        (vs[i], vs[j])
        for i in range(len(vs))
        for j in range(i + 1, len(vs))
        if (vs[i], vs[j]) not in graph.edges
    ]
