"""Maximum matchings, perfect-matching enumeration, and alternating-path
predicates, on two primitives: one Edmonds search, which one lazy pass runs
from the exposed roots, and one alternating walker.

The enumeration and the exhaustive path searches are the oracles the rest of
the package is checked against, so this module favors exact, deterministic
answers: ties break by ascending vertex id everywhere, and the walker visits
every simple alternating path (with an expansion budget that aborts loudly
instead of guessing).  Both run on the graph's one adjacency,
``Graph.index_adjacency``; the walker and ``graph._walk_parts``, the
component walk, are the package's only two walks.  A path search, the
enumeration, or the factorizability and factor-criticality tests given
``kept`` (as in ``graph.connected_components``) runs in the subgraph induced
by it: on the host's index, with every other position hidden (computed once
per call), so it visits what the same call on that subgraph (under the
matching's edges inside it) would, and builds neither.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import compress
from typing import Iterable, Iterator, Sequence

from .errors import NotFactorizableError, SearchBudgetExceeded
from .graph import Edge, Graph, _vertex_id, edge

# an index adjacency: a graph's own tuples, or a grown deletion table's lists
Rows = Sequence[Sequence[int]]

DEFAULT_SEARCH_BUDGET = 5_000_000
DEFAULT_ENUMERATION_CAP = 10_000


class PathKind(Enum):
    """Alternating-path flavors.

    A saturated path starts and ends with matched edges; an exposed path
    starts and ends with unmatched ones.  A balanced path is directed: it
    starts matched and ends unmatched, so its matched edges cover every
    vertex except the target, and the trivial one-vertex path counts.
    """

    SATURATED = "saturated"
    BALANCED = "balanced"
    EXPOSED = "exposed"


@dataclass(frozen=True, init=False)
class Matching:
    """A set of pairwise vertex-disjoint edges of a host graph."""

    graph: Graph
    edges: frozenset[Edge]

    def __init__(self, graph: Graph, edges: Iterable[Iterable[int]] = ()) -> None:
        es = {edge(_vertex_id(u), _vertex_id(v)) for u, v in edges}
        covered: set[int] = set()
        for u, v in es:
            if (u, v) not in graph.edges:
                raise ValueError(f"matching edge {(u, v)} is not an edge of the host graph")
            if u in covered or v in covered:
                raise ValueError(f"matching edges collide at {(u, v)}")
            covered.add(u)
            covered.add(v)
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "edges", frozenset(es))

    @classmethod
    def _trusted(cls, graph: Graph, edges: frozenset[Edge]) -> Matching:
        """A matching whose normalized edges are known to be disjoint edges of
        ``graph``.  Nothing is checked."""
        matching = object.__new__(cls)
        object.__setattr__(matching, "graph", graph)
        object.__setattr__(matching, "edges", edges)
        return matching

    @cached_property
    def partner(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for u, v in self.edges:
            out[u] = v
            out[v] = u
        return out

    @cached_property
    def exposed(self) -> frozenset[int]:
        return frozenset(v for v in self.graph.vertices if v not in self.partner)

    def sorted_edges(self) -> list[Edge]:
        return sorted(self.edges)

    @cached_property
    def _mate(self) -> list[int]:
        index = self.graph.positions
        mate = [-1] * len(index)
        for u, v in self.partner.items():
            mate[index[u]] = index[v]
        return mate


def restrict_matching(matching: Matching, subgraph: Graph) -> Matching:
    """The matching's edges that survive inside an induced subgraph."""
    kept = subgraph.vertex_set
    return Matching(subgraph, (e for e in matching.edges if e[0] in kept and e[1] in kept))


def _lca(base: list[int], mate: list[int], parent: list[int], a: int, b: int) -> int:
    """The base at which the tree paths from ``a`` and ``b`` meet."""
    seen = [False] * len(base)
    while True:
        a = base[a]
        seen[a] = True
        if mate[a] == -1:
            break
        a = parent[mate[a]]
    while True:
        b = base[b]
        if seen[b]:
            return b
        b = parent[mate[b]]


def _mark_path(
    base: list[int],
    mate: list[int],
    parent: list[int],
    v: int,
    stem: int,
    child: int,
    in_blossom: list[bool],
) -> None:
    """Flag the blossoms on the tree path from ``v`` down to ``stem``, and
    point its outer vertices across the new blossom towards ``child``."""
    while base[v] != stem:
        in_blossom[base[v]] = True
        in_blossom[base[mate[v]]] = True
        parent[v] = child
        child = mate[v]
        v = parent[mate[v]]


def _edmonds_search(
    adj: Rows,
    mate: list[int],
    root: int,
    hidden: Iterable[int] = (),
    merged: Iterable[int] = (),
) -> list[bool] | None:
    """Search from the exposed ``root``, shrinking blossoms, with the
    ``hidden`` vertices deleted and the ``merged`` ones (root among them)
    shrunk in advance into root's blossom.  ``mate`` leaves root and every
    hidden vertex exposed.  Flip an augmenting path into ``mate`` and return
    None, or return the outer marks: the vertices even alternating paths
    reach, every merged one included and no hidden one."""
    n = len(adj)
    outer = [False] * n
    parent = [-1] * n
    base = list(range(n))
    for h in hidden:
        parent[h] = h  # looks labelled already, so it is never entered
    queue = deque([root])
    outer[root] = True
    for v in merged:
        # labelled, so it is never entered, and outer to the test below,
        # which reads the label of its mate: merged too, as root is for
        # root's partner, whose entry alone still names root
        parent[v] = v
        if v != root:
            base[v] = root
            outer[v] = True
            queue.append(v)
    while queue:
        v = queue.popleft()
        mv = mate[v]  # changes only by an augmentation, which returns
        for w in adj[v]:
            if base[v] == base[w] or mv == w:
                continue
            mw = mate[w]
            if w == root or (mw != -1 and parent[mw] != -1):
                stem = _lca(base, mate, parent, v, w)
                in_blossom = [False] * n
                _mark_path(base, mate, parent, v, stem, w, in_blossom)
                _mark_path(base, mate, parent, w, stem, v, in_blossom)
                for i in range(n):
                    if in_blossom[base[i]]:
                        base[i] = stem
                        if not outer[i]:
                            outer[i] = True
                            queue.append(i)
            elif parent[w] == -1:
                parent[w] = v
                if mw == -1:
                    while w != -1:
                        pv = parent[w]
                        nxt = mate[pv]
                        mate[w] = pv
                        mate[pv] = w
                        w = nxt
                    return None
                outer[mw] = True
                queue.append(mw)
    return outer


def _contracted_outer(adj: Rows, mate: list[int], merged: list[int], kept: list[int]) -> list[bool]:
    """The outer marks, by position in G, of G[merged ∪ kept] with ``merged``
    contracted to one vertex H, given G's index adjacency ``adj``, a perfect
    matching ``mate`` of G, and two disjoint unions of factor-components of
    G.  Every merged vertex is marked, as H is, and no vertex outside
    merged ∪ kept.

    Every perfect matching uses allowed edges only, so each edge of ``mate``
    lies inside one factor-component; restricted to ``kept`` it therefore
    covers every vertex of the contracted graph except H.  That graph has odd
    order, so the restriction is a maximum matching, and one search from its
    single exposed vertex H marks the vertices some maximum matching leaves
    exposed.  The search runs on G's own arrays: H is ``merged`` shrunk in
    advance into an exposed outer blossom rooted at its first vertex, and
    every vertex outside merged ∪ kept is hidden.  Its edges to H are the
    contracted graph's, and a parallel edge changes no outer mark.
    """
    hidden = set(range(len(adj))).difference(merged, kept)
    root = merged[0]
    near = mate[:]
    near[root] = -1
    for h in hidden:
        near[h] = -1
    return _edmonds_search(adj, near, root, hidden, merged)


def _contracts_to_factor_critical(
    adj: Rows, mate: list[int], merged: list[int], kept: list[int]
) -> bool:
    """Whether G[merged ∪ kept]/merged is factor-critical: all of it outer."""
    outer = _contracted_outer(adj, mate, merged, kept)
    return all([outer[v] for v in kept])


def _blossom_pass(
    adj: Rows, hidden: frozenset[int] = frozenset()
) -> tuple[list[int], Iterator[tuple[int, list[bool] | None]]]:
    """A greedy start ``mate`` of the graph less the ``hidden`` positions,
    and the lazy pass from its exposed roots in ascending order: it flips
    each augmenting path it finds into ``mate``, and yields each failed root
    with its search's outer marks, or with None if it has no neighbour
    outside ``hidden`` to search.  Drained, it leaves ``mate`` maximum.

    A failed search leaves a Hungarian tree T: its inner vertices I are
    matched into its outer ones, and each of its |I| + 1 outer blossoms is
    an odd component of G - I, since every outer vertex has all its
    neighbours in its blossom or in I.  So a matching that covers T less its
    root still matches all of I into the blossoms.  Flipping an augmenting
    path that meets T would leave such a matching, so the path's neighbours
    at each vertex of T would lie in T, and so would the whole path with its
    ends; but the root, T's only exposed vertex, cannot augment.  No later
    flip touches T, and its marks are those a search from its root under the
    final matching gives.  So the failed roots are those the final matching
    exposes, and the first of them refutes a perfect matching.
    """
    mate = [-1] * len(adj)
    for h in hidden:
        mate[h] = h  # covered, so the pass neither starts at it nor takes it
    for v, ws in enumerate(adj):
        if mate[v] == -1:
            for w in ws:
                if mate[w] == -1:
                    mate[v] = w
                    mate[w] = v
                    break
    for h in hidden:
        mate[h] = -1

    def failures() -> Iterator[tuple[int, list[bool] | None]]:
        for v, ws in enumerate(adj):
            if mate[v] == -1 and v not in hidden:
                if hidden.issuperset(ws):
                    yield v, None
                elif (outer := _edmonds_search(adj, mate, v, hidden)) is not None:
                    yield v, outer

    return mate, failures()


def _blossom_matching(
    adj: Rows, hidden: frozenset[int] = frozenset()
) -> tuple[list[int], list[bool]]:
    """A maximum matching ``mate`` of the graph less the ``hidden`` positions,
    and the marks of D, the vertices some maximum matching leaves exposed:
    the drained pass's failed roots and the marks of their searches."""
    mate, failures = _blossom_pass(adj, hidden)
    marks = [False] * len(adj)
    for root, outer in failures:
        marks[root] = True
        for i in compress(range(len(adj)), outer or ()):
            marks[i] = True
    return mate, marks


def maximum_matching(graph: Graph) -> Matching:
    """A maximum-cardinality matching, deterministic for a fixed input."""
    vs = graph.vertices
    mate, failures = _blossom_pass(graph.index_adjacency)
    deque(failures, maxlen=0)  # every search runs; no marks are read
    return Matching(graph, ((vs[i], vs[m]) for i, m in enumerate(mate) if m > i))


def matching_number(graph: Graph) -> int:
    return len(maximum_matching(graph).edges)


def is_factorizable(graph: Graph, *, kept: Iterable[int] | None = None) -> bool:
    """Whether the graph, or the subgraph induced by ``kept``, has a perfect
    matching; the empty graph qualifies.

    Odd order answers at once; otherwise the pass stops at its first failed
    search.  With ``kept``, the pass hides every other position, so it runs
    the searches it runs on the subgraph.
    """
    within, hidden = _confined(graph, kept)
    if len(within) % 2:
        return False
    _, failures = _blossom_pass(graph.index_adjacency, hidden)
    return next(failures, None) is None


def is_factor_critical(graph: Graph, *, kept: Iterable[int] | None = None) -> bool:
    """Whether deleting any one vertex leaves a factorizable graph (or
    subgraph induced by ``kept``).  One-vertex graphs qualify; the empty
    graph does not (it has no near-perfect matching for the definition to
    speak about).

    Odd order fails some search, and is factor-critical exactly when the
    first failed one, from r, marks every vertex.  Then its tree spans the
    graph, and flipping the even alternating path from r to v perfectly
    matches G - v.  Conversely, if G is factor-critical, the final matching
    M is near-perfect, and the tree, untouched by later flips
    (``_blossom_pass``), keeps r exposed; M differs from a perfect matching
    of G - v by an even alternating path from r to v, which the tree marks.
    """
    within, hidden = _confined(graph, kept)
    if len(within) % 2 == 0:
        return False
    _, failures = _blossom_pass(graph.index_adjacency, hidden)
    _, outer = next(failures)
    return (1 if outer is None else sum(outer)) == len(within)


class ExposableAfterDeletion:
    """D(G-u) for the vertices u of a factorizable graph G: the vertices v
    with G-u-v factorizable.  Building it checks that G is factorizable: its
    one blossom pass keeps the perfect matching ``mate`` and refuses any
    other graph.  ``row(i)`` holds D(G-u) as the outer marks, by
    position, of one deletion search, run on first use and building no
    graph: drop the vertex at i and its edge in the perfect matching
    ``mate``, then search ``adj`` from its former partner.  ``adj`` is G's own
    index adjacency until the first ``add_edge`` copies it to grow G, which
    keeps ``mate`` perfect but leaves the rows already searched as they
    were."""

    def __init__(self, graph: Graph) -> None:
        self.graph = graph
        self.adj: Rows = graph.index_adjacency
        self.mate, failures = _blossom_pass(self.adj)
        # odd order refuses at once; otherwise at the pass's first failed search
        if len(self.mate) % 2 or next(failures, None) is not None:
            raise NotFactorizableError("canonical structures need a graph with a perfect matching")
        self.rows: list[list[bool] | None] = [None] * len(self.mate)

    def row(self, i: int) -> list[bool]:
        row = self.rows[i]
        if row is None:
            near = self.mate[:]
            near[i] = near[self.mate[i]] = -1
            row = self.rows[i] = _edmonds_search(self.adj, near, self.mate[i], (i,))
        return row

    def add_edge(self, u: int, v: int) -> None:
        if self.adj is self.graph.index_adjacency:
            self.adj = [list(row) for row in self.adj]
        i, j = self.graph.positions[u], self.graph.positions[v]
        self.adj[i].append(j)
        self.adj[j].append(i)


@dataclass(frozen=True)
class PerfectMatchingEnumeration:
    """All perfect matchings in lexicographic order, with a truncation flag
    set when more than the requested cap exist."""

    matchings: tuple[Matching, ...]
    truncated: bool

    def __len__(self) -> int:
        return len(self.matchings)

    def __iter__(self) -> Iterator[Matching]:
        return iter(self.matchings)

    def edge_sets(self) -> set[frozenset[Edge]]:
        return {m.edges for m in self.matchings}


def enumerate_perfect_matchings(
    graph: Graph, cap: int = DEFAULT_ENUMERATION_CAP, *, kept: Iterable[int] | None = None
) -> PerfectMatchingEnumeration:
    """Backtracking enumeration: repeatedly match the least uncovered vertex,
    trying its uncovered neighbours in ascending order.  Runs on positions,
    with the covered vertices as a bitmask.

    With ``kept``, the backtracking starts with every other position covered,
    and positions keep their rank order, so it yields the perfect matchings
    of the subgraph induced by ``kept`` in that subgraph's order, truncated
    at the same count: matchings of the host that cover exactly ``kept``."""
    if cap < 1:
        raise ValueError("enumeration cap must be at least 1")
    within, hidden = _confined(graph, kept)
    if len(within) % 2 == 1:
        return PerfectMatchingEnumeration((), False)
    vs = graph.vertices
    adj = graph.index_adjacency
    full = (1 << len(vs)) - 1
    current: list[Edge] = []
    found: list[frozenset[Edge]] = []
    truncated = False

    def extend(covered: int) -> None:
        nonlocal truncated
        if covered == full:
            if len(found) == cap:
                truncated = True
            else:
                found.append(frozenset(current))
            return
        v = (~covered & (covered + 1)).bit_length() - 1  # least uncovered position
        covered |= 1 << v
        for w in adj[v]:
            if covered >> w & 1:
                continue
            # every uncovered position exceeds v, so the edge is normalized
            current.append((vs[v], vs[w]))
            extend(covered | 1 << w)
            current.pop()
            if truncated:
                break

    extend(sum([1 << i for i in hidden]) if hidden else 0)
    return PerfectMatchingEnumeration(
        tuple(Matching._trusted(graph, m) for m in found), truncated
    )


def _confined(graph: Graph, kept: Iterable[int] | None) -> tuple[frozenset[int], frozenset[int]]:
    """The vertices a search may visit, ``kept`` (which must lie in the
    graph) or the whole graph, and the positions of the others."""
    if kept is None:
        return graph.vertex_set, frozenset()
    ks = frozenset(kept)
    index = graph.positions
    hidden = frozenset(map(index.__getitem__, graph.vertex_set - ks))
    if len(ks) + len(hidden) != len(index):
        raise ValueError("subgraph vertices must come from the host graph")
    return ks, hidden


def _search_arrays(
    graph: Graph, matching: Matching, hidden: Iterable[int] = ()
) -> tuple[Rows, list[int], dict[int, int], int]:
    """The host's index adjacency and positions, cached on the graph, the
    matching's mate array, cached on the matching, and the bitmask of the
    ``hidden`` positions."""
    if matching.graph != graph:
        raise ValueError("matching does not belong to this graph")
    blocked = sum([1 << i for i in hidden]) if hidden else 0
    return graph.index_adjacency, matching._mate, graph.positions, blocked


def _walk(
    adj: Rows, mate: list[int], start: int, first: bool, blocked: int, budget: list[int]
) -> Iterator[tuple[list[int], bool]]:
    """Depth-first over the simple alternating walks from ``start`` whose
    first step is matched iff ``first`` and that avoid the ``blocked``
    bitmask.  Each step spends one expansion of the shared ``budget[0]`` and
    yields the live path and whether the step was matched.

    A matched step has one candidate, the mate.  An unmatched step tries
    every neighbour: past the start, the vertex's mate is the one before it
    on the path, so only the start needs its mate skipped."""
    single = [() if m < 0 else (m,) for m in mate]
    path = [start]
    if first:
        steps = iter(single[start])
    else:
        steps = (w for w in adj[start] if w != mate[start])
    stack = [(first, blocked | (1 << start), steps)]
    while stack:
        need, mask, it = stack[-1]
        for w in it:
            if mask & (1 << w):
                continue
            budget[0] -= 1
            if budget[0] < 0:
                raise SearchBudgetExceeded("alternating-path search exceeded its expansion budget")
            path.append(w)
            yield path, need
            stack.append((not need, mask | (1 << w), iter(adj[w] if need else single[w])))
            break
        else:
            stack.pop()
            path.pop()


@dataclass(frozen=True)
class AlternatingReach:
    """All-pairs reachability under one matching, by paths that start matched.

    ``saturated[u]`` holds the other endpoints of saturated paths (symmetric);
    ``balanced[u]`` holds the targets of balanced paths and always contains
    ``u`` itself (the trivial path).
    """

    saturated: dict[int, frozenset[int]]
    balanced: dict[int, frozenset[int]]


def alternating_reachability(
    graph: Graph,
    matching: Matching,
    *,
    kept: Iterable[int] | None = None,
    budget: int = DEFAULT_SEARCH_BUDGET,
) -> AlternatingReach:
    """Sweep every simple alternating path that starts matched, in one walk
    per source vertex.

    With ``kept``, the sweep is that of the subgraph induced by ``kept`` with
    the matching's edges inside it, run on the host's arrays with every
    other vertex blocked: the same paths in the same order for the same
    expansions, and only ``kept`` as sources and keys."""
    within, hidden = _confined(graph, kept)
    adj, mate, _, blocked = _search_arrays(graph, matching, hidden)
    vs = graph.vertices
    sources = [i for i, v in enumerate(vs) if v in within]
    sat: list[set[int]] = [set() for _ in vs]
    bal: list[set[int]] = [{i} for i in range(len(vs))]
    left = [budget]
    for s in sources:
        for path, matched in _walk(adj, mate, s, True, blocked, left):
            (sat if matched else bal)[s].add(path[-1])
    wrap = lambda sets: {vs[i]: frozenset(vs[j] for j in sets[i]) for i in sources}
    return AlternatingReach(wrap(sat), wrap(bal))


def alternating_path_exists(
    graph: Graph,
    matching: Matching,
    source: int,
    target: int,
    kind: PathKind,
    *,
    kept: Iterable[int] | None = None,
    budget: int = DEFAULT_SEARCH_BUDGET,
) -> bool:
    """Exhaustive search for one simple alternating path of the given kind,
    inside the subgraph induced by ``kept`` if given (as in
    ``alternating_reachability``)."""
    within, hidden = _confined(graph, kept)
    if source not in within or target not in within:
        raise ValueError("path query outside the host graph")
    if source == target:
        if kind is PathKind.BALANCED:
            return True
        raise ValueError(f"{kind.value} paths need distinct endpoints")
    adj, mate, index, blocked = _search_arrays(graph, matching, hidden)
    t, last_matched = index[target], kind is PathKind.SATURATED
    walks = _walk(adj, mate, index[source], kind is not PathKind.EXPOSED, blocked, [budget])
    return any(path[-1] == t and matched == last_matched for path, matched in walks)


def iter_saturated_paths(
    graph: Graph,
    matching: Matching,
    source: int,
    target: int,
    *,
    kept: Iterable[int] | None = None,
    budget: int = DEFAULT_SEARCH_BUDGET,
) -> Iterator[tuple[int, ...]]:
    """Yield every simple saturated path between two vertices, as vertex
    tuples, in ascending DFS order; inside the subgraph induced by ``kept``
    if given (as in ``alternating_reachability``)."""
    within, hidden = _confined(graph, kept)
    if source == target or source not in within or target not in within:
        raise ValueError("saturated paths need two distinct host vertices")
    adj, mate, index, blocked = _search_arrays(graph, matching, hidden)
    vs = graph.vertices
    t = index[target]
    for path, matched in _walk(adj, mate, index[source], True, blocked, [budget]):
        if matched and path[-1] == t:
            yield tuple(vs[i] for i in path)


def alternating_circuit_exists(
    graph: Graph,
    matching: Matching,
    circuit_edge: Iterable[int],
    *,
    budget: int = DEFAULT_SEARCH_BUDGET,
) -> bool:
    """Whether some simple alternating circuit passes through the given edge.

    Searched directly (not reduced to a path query): walk away from one
    endpoint and try to close back onto the other with the right parity.
    """
    x, y = circuit_edge
    e = edge(_vertex_id(x), _vertex_id(y))
    if e not in graph.edges:
        raise ValueError(f"{e} is not an edge of the host graph")
    adj, mate, index, _ = _search_arrays(graph, matching)
    xi, yi = index[e[0]], index[e[1]]
    closing = mate[xi] != yi  # the closing edge at x is matched iff the circuit edge is not
    # x is reserved as the closing target: block it from the walk entirely.
    for path, matched in _walk(adj, mate, yi, closing, 1 << xi, [budget]):
        w = path[-1]
        if matched != closing and xi in adj[w] and (mate[w] == xi) == closing:
            return True
    return False


def perfect_matching_union(graph: Graph, cap: int = DEFAULT_ENUMERATION_CAP) -> frozenset[Edge]:
    """Union of all enumerated perfect matchings; the enumeration must fit
    under the cap."""
    enum = enumerate_perfect_matchings(graph, cap)
    if enum.truncated:
        raise ValueError("enumeration cap exceeded while collecting the union")
    out: set[Edge] = set()
    for m in enum.matchings:
        out |= m.edges
    return frozenset(out)
