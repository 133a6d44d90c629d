"""Maximum matchings, perfect-matching enumeration, and alternating-path
predicates, on two primitives: one Edmonds search and one alternating
walker.  The search runs in two setups only: the lazy pass from the exposed
roots, and ``_rooted_marks``, one search from a single root under a perfect
matching, which reads D(G-u) and every contraction.  It absorbs a
blossom of one matched pair, the common shape, in constant time, shrinks
every other through its base's list of members, and returns once every
visible vertex is outer, so past its three n-long arrays it costs what it
reaches.

The enumeration and the exhaustive path searches are the oracles the rest of
the package is checked against, so this module favors exact, deterministic
answers: ties break by ascending vertex id everywhere, and the walker visits
every simple alternating path (with an expansion budget that aborts loudly
instead of guessing).  Both run on the graph's one adjacency,
``Graph.index_adjacency``, and over explicit stacks, so neither has a
recursion limit; the walker, ``graph._walk_parts``, the component walk,
and ``graph._parts_less_each``, the low-point pass, are the package's only
walks.  A path search, or the
factorizability and factor-criticality tests given ``kept`` (as in
``graph.connected_components``) runs in the subgraph induced by it: on the
host's index, with every other position hidden (computed once per call), so
it visits what the same call on that subgraph (under the matching's edges
inside it) would, and builds neither.
"""

from __future__ import annotations

from collections import deque
from enum import Enum
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .errors import NotFactorizableError, SearchBudgetExceeded, StructureViolation
from .graph import Edge, Graph, Value, _vertex_id, edge

# an index adjacency: a graph's own tuples, or the lists saturate grows
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


class Matching(Value):
    """A set of pairwise vertex-disjoint edges of a host graph."""

    _fields = ("graph", "edges")
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


def _edmonds_search(
    adj: Rows,
    mate: list[int],
    root: int,
    hidden: Iterable[int] = (),
    merged: Iterable[int] = (),
) -> tuple[list[bool], list[int]] | None:
    """Search from the exposed ``root``, shrinking blossoms, with the
    ``hidden`` vertices deleted and the ``merged`` ones (root among them)
    shrunk in advance into root's blossom.  ``mate`` leaves root and every
    hidden vertex exposed, and matches each merged vertex but root to a
    merged vertex.  Flip an augmenting path into ``mate`` and return
    None, or return the outer marks by position (the vertices even
    alternating paths reach, every merged one included and no hidden one)
    with the search's queue: the marked positions, each once, in the order
    they were marked.

    A vertex is outer when ``outer`` says so: the search marks root, every
    merged vertex, the mate of each inner vertex, and each inner vertex a
    blossom absorbs.  That is the older test, w is root or w's mate has a
    parent, on every w it met: an inner w's mate is outer without a parent,
    since a blossom walk through that mate would have absorbed w, and the
    mate of an unlabelled w is unlabelled or absent.  ``base[v]`` is read
    once per scanned v, and again after a general shrink, the only step
    that moves it.

    No test singles out v's own mate: the tests of each w skip it anyway.
    Root's mate is -1, and a merged vertex's mate is merged as well, so on
    root's base.  Any other outer v entered as the mate of an inner vertex,
    or is an inner vertex a blossom absorbed.  In the first case its mate
    is labelled and, until a blossom absorbs it, not outer, so neither
    branch takes it; a blossom absorbs it only with v, since each walk
    hands on the base of an outer vertex of its path with its inner mate's,
    and the one-pair shrink rebases w with its mate.  In the second case
    its mate is the outer vertex it is matched to on the walk's path, which
    the same shrink absorbs.  Either way v and its mate end on one base.

    Most shrinks absorb one matched pair, in constant time.  Say v meets an
    outer w, not root, that is its own base (``base[w] == w``) and heads no
    blossom of its own (``members[w]`` unset), and the parent of w's mate x
    lies in v's blossom (``base[parent[x]] == base[v]``).  Then w's tree
    path is w, x, ``parent[x]`` and on up from v's blossom, so the two paths
    meet at ``base[v]``, the stem, and the new blossom is v's plus {w, x}:
    w points across to v, w and x take the stem as base and join its list,
    and x, the one inner vertex on the paths, turns outer and is queued,
    exactly as the general shrink would do it.  A w that heads a blossom
    takes the general path, because its members hold w as their base: the
    shortcut would leave them there, unrebased, so one blossom would read as
    two, and every later edge between the halves would shrink them again.

    Every other shrink goes through its base's list of members: the bases
    on the two tree paths hand their members to the stem's list, and the
    vertices that turn outer, the inner ones on the paths, are queued in
    ascending order, as a scan of every position would queue them.  The
    stem is found by walking the bases of the two paths; the walk up v's
    stops at root, the one base of an outer blossom that is not matched to
    an inner vertex.  No step scans all n positions, and a search that
    shrinks no blossom allocates no member list.  The two stem walks pass
    distinct bases, and a blossom or augmenting walk passes each vertex at
    most once, so a walk that takes n steps, which only a broken shrink can
    make, raises StructureViolation instead of spinning.

    The search returns as soon as every visible (not hidden) position is
    outer, and the marks it returns are final.  An augmenting path ends at
    an exposed vertex that the search enters unlabelled, so neither the
    root, nor hidden, nor merged.  Every other outer vertex is matched: it
    entered as the mate of an inner vertex, or is an inner vertex that a
    blossom absorbed, and an inner vertex is entered matched, or the search
    would have augmented there.  So once every visible vertex is outer, no
    exposed vertex is left to augment to, and the marks, which only grow
    and never reach a hidden vertex, cannot change.  A tree step leaves its
    new inner vertex unmarked, so only the start or a shrink can mark the
    last visible vertex, and the count is read there.  It counts the marks
    as they flip and the distinct hidden positions, so a position repeated
    in ``hidden`` or ``merged`` cannot end the search early.
    """
    n = len(adj)
    outer = [False] * n
    parent = [-1] * n
    base = list(range(n))
    visible = n
    for h in hidden:
        if parent[h] == -1:
            parent[h] = h  # looks labelled already, so it is never entered
            visible -= 1
    outer[root] = True
    queue = [root]
    members: list[list[int] | None] | None = None  # by base, from the first shrink
    for v in merged:  # outer, so never entered
        if not outer[v]:
            base[v] = root
            outer[v] = True
            queue.append(v)
    if len(queue) > 1:
        members = [None] * n
        members[root] = queue[:]
    if len(queue) == visible:
        return outer, queue
    for v in queue:  # the list grows as vertices turn outer: a FIFO
        bv = base[v]  # changes only by a general shrink, which reads it again
        for w in adj[v]:
            if bv == base[w]:
                continue
            if outer[w]:
                x = mate[w]
                if (
                    base[w] == w
                    and w != root
                    and base[parent[x]] == bv
                    and (members is None or members[w] is None)
                ):
                    # the one-pair blossom: v's, with w and its mate x
                    parent[w] = v
                    base[w] = base[x] = bv
                    outer[x] = True
                    if members is None:
                        members = [None] * n
                    into = members[bv]
                    if into is None:
                        members[bv] = [bv, w, x]
                    else:
                        into.append(w)
                        into.append(x)
                    queue.append(x)
                    if len(queue) == visible:
                        return outer, queue
                    continue
                # the stem: the first base on w's tree path that is on v's
                a = bv
                path = {a}
                steps = n  # the two walks pass distinct bases, fewer than n
                while a != root:
                    steps -= 1
                    if not steps:
                        raise StructureViolation("a stem walk passed every vertex")
                    a = base[parent[mate[a]]]
                    path.add(a)
                stem = base[w]
                while stem not in path:
                    steps -= 1
                    if not steps:
                        raise StructureViolation("a stem walk passed every vertex")
                    stem = base[parent[mate[stem]]]
                # point the outer vertices of each path across the new
                # blossom, and collect the bases the paths pass through
                bases = []
                steps = n  # each step passes an outer vertex outside the stem's blossom
                for x, child in (v, w), (w, v):
                    while base[x] != stem:
                        steps -= 1
                        if not steps:
                            raise StructureViolation("a blossom walk passed every vertex")
                        bases.append(base[x])
                        bases.append(base[mate[x]])
                        parent[x] = child
                        child = mate[x]
                        x = parent[child]
                if members is None:
                    members = [None] * n
                into = members[stem]
                if into is None:
                    into = members[stem] = [stem]
                fresh = []
                for b in bases:
                    if base[b] == stem:
                        continue  # a base met twice, already shrunk
                    group = members[b] or (b,)
                    for i in group:
                        base[i] = stem
                        if not outer[i]:
                            outer[i] = True
                            fresh.append(i)
                    into.extend(group)
                if len(fresh) > 1:
                    fresh.sort()  # the order a scan of every position gives
                queue.extend(fresh)
                if len(queue) == visible:
                    return outer, queue
                bv = base[v]
            elif parent[w] == -1:
                parent[w] = v
                mw = mate[w]
                if mw == -1:
                    steps = n  # each step flips a matched pair of the path
                    while w != -1:
                        steps -= 1
                        if not steps:
                            raise StructureViolation("an augmenting walk passed every vertex")
                        pv = parent[w]
                        nxt = mate[pv]
                        mate[w] = pv
                        mate[pv] = w
                        w = nxt
                    return None
                outer[mw] = True
                queue.append(mw)
    return outer, queue


def _rooted_marks(
    adj: Rows, mate: list[int], root: int, hidden: Iterable[int], merged: Iterable[int] = ()
) -> list[bool]:
    """The outer marks, by position, of one search from ``root`` with the
    ``hidden`` positions deleted and the ``merged`` ones shrunk into root's
    blossom, under a copy of the perfect matching ``mate`` of G that exposes
    root and every hidden position.  The mate of each hidden position must be
    hidden too, or root.

    Then every other visible vertex keeps a visible mate, so root is the only
    exposed vertex the search can reach, and the merged ones are labelled
    from the start.  An augmenting path ends at an exposed vertex the search
    enters unlabelled, so none exists, and a search that augments anyway
    (``mate`` not perfect) raises StructureViolation.
    """
    near = mate[:]
    near[root] = -1
    for h in hidden:
        near[h] = -1
    found = _edmonds_search(adj, near, root, hidden, merged)
    if found is None:
        raise StructureViolation("a search under a perfect matching augmented")
    return found[0]


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
    return _rooted_marks(adj, mate, merged[0], hidden, merged)


def _blossom_pass(
    adj: Rows, hidden: frozenset[int] = frozenset()
) -> tuple[list[int], Iterator[tuple[int, list[int]]]]:
    """A greedy start ``mate`` of the graph less the ``hidden`` positions,
    and the lazy pass from its exposed roots in ascending order: it flips
    each augmenting path it finds into ``mate``, and yields each failed root
    with the positions its search marked outer, root first.  A root with no
    neighbour outside ``hidden`` starts no search and yields itself alone,
    as its search would.  Drained, it leaves ``mate`` maximum.

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
    return mate, _failed_roots(adj, mate, hidden)


def _failed_roots(
    adj: Rows, mate: list[int], hidden: frozenset[int]
) -> Iterator[tuple[int, list[int]]]:
    """The lazy rest of ``_blossom_pass``: a search from each root that
    ``mate`` exposes, in ascending order, yielding the failed ones."""
    for v, ws in enumerate(adj):
        if mate[v] == -1 and v not in hidden:
            if hidden.issuperset(ws):
                yield v, [v]  # what its search would mark, without n-long arrays
            elif (found := _edmonds_search(adj, mate, v, hidden)) is not None:
                yield v, found[1]


def _perfect_mate(adj: Rows) -> list[int]:
    """A perfect matching of the graph, by position, from one blossom pass,
    which refuses a graph without one: at once for odd order, otherwise at
    the pass's first failed search."""
    mate, failures = _blossom_pass(adj)
    if len(mate) % 2 or next(failures, None) is not None:
        raise NotFactorizableError("canonical structures need a graph with a perfect matching")
    return mate


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
    _, marked = next(failures)
    return len(marked) == len(within)


class PerfectMatchingEnumeration(Value):
    """All perfect matchings in lexicographic order, with a truncation flag
    set when more than the requested cap exist."""

    _fields = ("matchings", "truncated")
    matchings: tuple[Matching, ...]
    truncated: bool

    def __init__(self, matchings: tuple[Matching, ...], truncated: bool) -> None:
        object.__setattr__(self, "matchings", matchings)
        object.__setattr__(self, "truncated", truncated)

    def __len__(self) -> int:
        return len(self.matchings)

    def __iter__(self) -> Iterator[Matching]:
        return iter(self.matchings)

    def edge_sets(self) -> set[frozenset[Edge]]:
        return {m.edges for m in self.matchings}


def enumerate_perfect_matchings(
    graph: Graph, cap: int = DEFAULT_ENUMERATION_CAP
) -> PerfectMatchingEnumeration:
    """Backtracking enumeration: repeatedly match the least uncovered vertex,
    trying its uncovered neighbours in ascending order.  Runs on positions,
    with the covered vertices as a bitmask, over an explicit stack of one
    frame per matched vertex, so it has no recursion limit and leaves no
    reference cycle behind."""
    if cap < 1:
        raise ValueError("enumeration cap must be at least 1")
    if graph.order % 2 == 1:
        return PerfectMatchingEnumeration((), False)
    vs = graph.vertices
    adj = graph.index_adjacency
    full = (1 << len(vs)) - 1
    covered = 0
    # one frame per matched vertex v: v's id, the covered mask with v, and
    # v's neighbours left to try; current[i] is the edge frame i tries
    frames: list[tuple[int, int, Iterator[int]]] = []
    current: list[Edge | None] = []
    found: list[frozenset[Edge]] = []
    truncated = False
    while True:
        if covered == full:
            if len(found) == cap:
                truncated = True
                break
            found.append(frozenset(current))
        else:
            v = (~covered & (covered + 1)).bit_length() - 1  # least uncovered position
            frames.append((vs[v], covered | 1 << v, iter(adj[v])))
            current.append(None)
        # the deepest frame's next uncovered neighbour, backtracking past
        # every frame that has none left
        while frames:
            u, base, ws = frames[-1]
            for w in ws:
                if not base >> w & 1:
                    # every uncovered position exceeds the frame's, so the edge is normalized
                    current[-1] = (u, vs[w])
                    covered = base | 1 << w
                    break
            else:
                frames.pop()
                current.pop()
                continue
            break
        else:
            break
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


class AlternatingReach(Value):
    """All-pairs reachability under one matching, by paths that start matched.

    ``saturated[u]`` holds the other endpoints of saturated paths (symmetric);
    ``balanced[u]`` holds the targets of balanced paths and always contains
    ``u`` itself (the trivial path).
    """

    _fields = ("saturated", "balanced")
    saturated: dict[int, frozenset[int]]
    balanced: dict[int, frozenset[int]]

    def __init__(
        self, saturated: dict[int, frozenset[int]], balanced: dict[int, frozenset[int]]
    ) -> None:
        object.__setattr__(self, "saturated", saturated)
        object.__setattr__(self, "balanced", balanced)


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
