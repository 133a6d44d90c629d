"""Brute-force reference implementations, kept structurally independent of
the package's algorithms: adjacency is read off the edge list once per call,
components grow by whole neighbourhoods, matchings come from subset recursion
over the edge list, perfect matchings from combination filtering,
contraction from a literal edge rewrite; the enumeration's order and
truncation are those of its former set-based backtracking.  Every structure
of a perfectly matchable graph reads the graph's one ``SubsetTable``, which
says whether the graph less a vertex set has a perfect matching: allowed
edges, the classes, saturation and the restart closure ask it of G-u-v, each
D(G-x) of G-x-v, factor-criticality of G-v; the component order asks the
table of G contracted at each component which unions are factor-critical.
The exposable set of any graph is the vertices some maximum matching misses;
``final_search_exposable``, the one oracle that runs the package's search,
reads it as the package did before its one-pass marks.  The alternating-walk
references are the per-query depth-first loops, counting their expansions."""

from __future__ import annotations

from collections.abc import Iterable
from functools import lru_cache
from itertools import combinations

import cathedral.matching
from cathedral.graph import Edge, Graph, add_edges, complement_pairs
from cathedral.matching import _edmonds_search


def adjacency(graph: Graph) -> dict[int, list[int]]:
    """Each vertex's neighbours, ascending, read off the edge list."""
    nbr: dict[int, list[int]] = {v: [] for v in graph.vertices}
    for u, v in graph.edges:
        nbr[u].append(v)
        nbr[v].append(u)
    return {v: sorted(ws) for v, ws in nbr.items()}


def induced_components(
    graph: Graph, kept: frozenset[int]
) -> list[tuple[frozenset[int], frozenset[int]]]:
    """The components of the subgraph induced by ``kept``, by least id, each
    with its neighbours outside ``kept``: a component grows from its least
    vertex by whole neighbourhoods until it stops growing."""
    adj = adjacency(graph)
    left = set(kept)
    out = []
    while left:
        comp = {min(left)}
        while True:
            grown = comp | {w for v in comp for w in adj[v] if w in left}
            if grown == comp:
                break
            comp = grown
        left -= comp
        outside = frozenset(w for v in comp for w in adj[v] if w not in kept)
        out.append((frozenset(comp), outside))
    return out


def all_matchings(graph: Graph) -> list[frozenset[tuple[int, int]]]:
    """Every matching, the empty one included, by include/exclude recursion."""
    edges = sorted(graph.edges)
    out: list[frozenset[tuple[int, int]]] = [frozenset()]

    def extend(start: int, used: frozenset[int], chosen: list[tuple[int, int]]) -> None:
        for i in range(start, len(edges)):
            u, v = edges[i]
            if u in used or v in used:
                continue
            chosen.append(edges[i])
            out.append(frozenset(chosen))
            extend(i + 1, used | {u, v}, chosen)
            chosen.pop()

    extend(0, frozenset(), [])
    return out


def brute_matching_number(graph: Graph) -> int:
    return max(len(m) for m in all_matchings(graph))


def brute_perfect_matchings(graph: Graph) -> list[tuple[tuple[int, int], ...]]:
    """All perfect matchings as sorted edge tuples, lexicographically."""
    n = graph.order
    if n % 2:
        return []
    if n == 0:
        return [()]
    k = n // 2
    return sorted(
        tuple(sorted(combo))
        for combo in combinations(sorted(graph.edges), k)
        if len({v for e in combo for v in e}) == n
    )


def set_perfect_matchings(graph: Graph, cap: int) -> tuple[list[tuple[Edge, ...]], bool]:
    """The package's enumeration as it ran on vertex sets: match the least
    uncovered vertex to each uncovered neighbour in ascending order, keep at
    most ``cap`` matchings (edges in the order chosen), and flag truncation
    when one more exists."""
    if graph.order % 2:
        return [], False
    vs = graph.vertices
    adj = adjacency(graph)
    covered: set[int] = set()
    current: list[Edge] = []
    found: list[tuple[Edge, ...]] = []
    truncated = False

    def extend() -> None:
        nonlocal truncated
        if truncated:
            return
        v = next((u for u in vs if u not in covered), None)
        if v is None:
            if len(found) == cap:
                truncated = True
            else:
                found.append(tuple(current))
            return
        covered.add(v)
        for w in adj[v]:
            if w in covered:
                continue
            covered.add(w)
            current.append((min(v, w), max(v, w)))
            extend()
            current.pop()
            covered.discard(w)
            if truncated:
                break
        covered.discard(v)

    extend()
    return found, truncated


def contract_by_rewrite(graph: Graph, block: frozenset[int]) -> tuple[set[int], set[tuple[int, int]]]:
    """Definitional contraction: rewrite endpoints, drop loops, merge parallels."""
    target = min(block)

    def image(v: int) -> int:
        return target if v in block else v

    vertices = {image(v) for v in graph.vertices}
    edges = {
        (min(image(u), image(v)), max(image(u), image(v)))
        for u, v in graph.edges
        if image(u) != image(v)
    }
    return vertices, edges


# --- one subset table per graph, and the structures it defines ---------------


class SubsetTable:
    """Whether the graph less a vertex set has a perfect matching, memoized
    on the bitmask of the vertices that remain (bit i for the i-th least
    id): the least remaining vertex is matched to each remaining neighbour
    in turn, until the rest has a perfect matching."""

    def __init__(self, graph: Graph) -> None:
        self.bit = {v: 1 << i for i, v in enumerate(graph.vertices)}
        self.full = (1 << graph.order) - 1
        self.nbr = dict.fromkeys(self.bit.values(), 0)  # by each vertex's bit
        for u, v in graph.edges:
            self.nbr[self.bit[u]] |= self.bit[v]
            self.nbr[self.bit[v]] |= self.bit[u]
        self._memo = {0: True}

    def mask(self, vertices: Iterable[int]) -> int:
        """The bits of ``vertices``, a repeated vertex counted once."""
        out = 0
        for v in vertices:
            out |= self.bit[v]
        return out

    def matchable(self, remaining: int) -> bool:
        known = self._memo.get(remaining)
        if known is None:
            known = False
            if remaining.bit_count() % 2 == 0:
                low = remaining & -remaining
                rest = remaining ^ low
                partners = self.nbr[low] & rest
                while partners and not known:
                    w = partners & -partners
                    known = self.matchable(rest ^ w)
                    partners ^= w
            self._memo[remaining] = known
        return known

    def without(self, *removed: int) -> bool:
        """Whether the graph less ``removed`` has a perfect matching."""
        return self.matchable(self.full & ~self.mask(removed))

    def critical(self, remaining: int) -> bool:
        """Whether the remaining vertices induce a factor-critical graph: an
        odd number of them, each of whose deletion leaves a perfect matching."""
        return remaining.bit_count() % 2 == 1 and all(
            self.matchable(remaining ^ b) for b in self.bit.values() if b & remaining
        )


@lru_cache(maxsize=16)
def subset_table(graph: Graph) -> SubsetTable:
    """The one table of a graph, shared by every oracle that asks of it."""
    return SubsetTable(graph)


def deletion_allowed_edges(graph: Graph) -> frozenset[Edge]:
    """Edges whose endpoint deletion leaves a factorizable graph."""
    table = subset_table(graph)
    return frozenset(e for e in graph.edges if table.without(*e))


def deletion_partition(graph: Graph) -> tuple[frozenset[int], ...]:
    """Classes of "same allowed-edge component, and deleting both leaves no
    perfect matching", ordered by minimum id."""
    table = subset_table(graph)
    skeleton = Graph(graph.vertices, deletion_allowed_edges(graph))
    components = induced_components(skeleton, skeleton.vertex_set)
    component_of = {v: i for i, (comp, _) in enumerate(components) for v in comp}
    classes: list[frozenset[int]] = []
    for u in graph.vertices:
        if not any(u in cls for cls in classes):
            same = (v for v in graph.vertices if component_of[u] == component_of[v])
            classes.append(frozenset(v for v in same if v == u or not table.without(u, v)))
    return tuple(classes)


def deletion_is_saturated(graph: Graph) -> bool:
    table = subset_table(graph)
    return all(table.without(*p) for p in complement_pairs(graph))


def deletion_is_factor_critical(graph: Graph) -> bool:
    """Odd order, and every single deletion is factorizable."""
    table = subset_table(graph)
    return table.critical(table.full)


def restart_saturate(graph: Graph, descending: bool = False) -> tuple[Graph, tuple[Edge, ...]]:
    """Add the first complement pair (in scan order) whose endpoint deletion
    is unfactorizable, then scan again from the start, on the grown graph's
    own table, until none is left."""
    current = graph
    added: list[Edge] = []
    while True:
        table, pairs = subset_table(current), sorted(complement_pairs(current), reverse=descending)
        pair = next((p for p in pairs if not table.without(*p)), None)
        if pair is None:
            return current, tuple(added)
        current = add_edges(current, (pair,))
        added.append(pair)


def deleted_partition(
    graph: Graph, x: int
) -> tuple[frozenset[int], frozenset[int], frozenset[int]]:
    """(D, A, C) of G-x for a factorizable G, where nu(G-x) = n/2 - 1: D
    holds the v other than x that G-x-v leaves matchable, A their
    neighbours in G-x outside D, and C the rest of G-x."""
    table = subset_table(graph)
    d = frozenset(v for v in graph.vertices if v != x and table.without(x, v))
    adj = adjacency(graph)
    a = frozenset(w for v in d for w in adj[v]) - d - {x}
    return d, a, graph.vertex_set - d - a - {x}


def deletion_gallai_edmonds(graph: Graph) -> tuple[frozenset[int], frozenset[int], frozenset[int]]:
    """(D, A, C) by definition: D holds the vertices some maximum matching
    misses, read off one list of every matching, and A their neighbours."""
    matchings = all_matchings(graph)
    nu = max(len(m) for m in matchings)
    d = frozenset().union(
        *(graph.vertex_set - {v for e in m for v in e} for m in matchings if len(m) == nu)
    )
    adj = adjacency(graph)
    a = frozenset(w for v in d for w in adj[v]) - d
    return d, a, graph.vertex_set - d - a


def final_search_exposable(graph: Graph) -> frozenset[int]:
    """D as the package read it before its one-pass marks: the drained
    blossom pass's matching, then one search from each vertex it exposes,
    all under that final matching.  The pass is looked up on its module, so
    a test that refuses the package's pass refuses this oracle too."""
    adj = graph.index_adjacency
    mate, failures = cathedral.matching._blossom_pass(adj)
    list(failures)
    marks = [_edmonds_search(adj, mate, root)[0] for root, m in enumerate(mate) if m == -1]
    return frozenset(v for i, v in enumerate(graph.vertices) if any(o[i] for o in marks))


# --- alternating walks: one depth-first loop per query ------------------------


def _walk_arrays(graph, matching) -> tuple[list[list[int]], list[int], dict[int, int]]:
    index = {v: i for i, v in enumerate(graph.vertices)}
    nbr = adjacency(graph)
    adj = [[index[w] for w in nbr[v]] for v in graph.vertices]
    mate = [-1] * graph.order
    for v, w in matching.partner.items():
        mate[index[v]] = index[w]
    return adj, mate, index


def reachability_expansions(graph, matching) -> int:
    """Expansions of the saturated/balanced sweep: every walk from every
    source that starts matched."""
    adj, mate, _ = _walk_arrays(graph, matching)
    spent = 0
    for s in range(graph.order):
        stack = [(s, True, 1 << s, iter(adj[s]))]
        while stack:
            v, need, mask, it = stack[-1]
            for w in it:
                if mask & (1 << w) or (mate[v] == w) != need:
                    continue
                spent += 1
                stack.append((w, not need, mask | (1 << w), iter(adj[w])))
                break
            else:
                stack.pop()
    return spent


def path_search(graph, matching, source, target, first_matched, last_matched) -> tuple[bool, int]:
    """Whether a simple alternating path with the given first and last edge
    parities joins two distinct vertices, and the expansions spent."""
    adj, mate, index = _walk_arrays(graph, matching)
    t = index[target]
    spent = 0
    stack = [(index[source], first_matched, 1 << index[source], iter(adj[index[source]]))]
    while stack:
        v, need, mask, it = stack[-1]
        for w in it:
            if mask & (1 << w) or (mate[v] == w) != need:
                continue
            spent += 1
            if w == t and need == last_matched:
                return True, spent
            stack.append((w, not need, mask | (1 << w), iter(adj[w])))
            break
        else:
            stack.pop()
    return False, spent


def saturated_paths(graph, matching, source, target) -> tuple[list[tuple[int, ...]], int]:
    """Every simple saturated path in depth-first order, and the expansions
    spent listing them all."""
    adj, mate, index = _walk_arrays(graph, matching)
    vs = graph.vertices
    t = index[target]
    spent = 0
    found: list[tuple[int, ...]] = []
    path = [index[source]]
    stack = [(index[source], True, 1 << index[source], iter(adj[index[source]]))]
    while stack:
        v, need, mask, it = stack[-1]
        for w in it:
            if mask & (1 << w) or (mate[v] == w) != need:
                continue
            spent += 1
            path.append(w)
            if w == t and need:
                found.append(tuple(vs[i] for i in path))
            stack.append((w, not need, mask | (1 << w), iter(adj[w])))
            break
        else:
            stack.pop()
            path.pop()
    return found, spent


def circuit_search(graph, matching, circuit_edge: Edge) -> tuple[bool, int]:
    """Whether an alternating circuit runs through the edge: walk from its
    larger endpoint with the smaller one blocked, until the walk can close
    onto it with the right parity; and the expansions spent."""
    adj, mate, index = _walk_arrays(graph, matching)
    xi, yi = index[circuit_edge[0]], index[circuit_edge[1]]
    closing = mate[xi] != yi
    spent = 0
    stack = [(yi, closing, (1 << xi) | (1 << yi), iter(adj[yi]))]
    while stack:
        v, need, mask, it = stack[-1]
        for w in it:
            if mask & (1 << w) or (mate[v] == w) != need:
                continue
            spent += 1
            if need != closing and xi in adj[w] and (mate[w] == xi) == closing:
                return True, spent
            stack.append((w, not need, mask | (1 << w), iter(adj[w])))
            break
        else:
            stack.pop()
    return False, spent


# --- the component order, one sweep over the unions per component -------------


def sweep_order(graph, comps) -> tuple[tuple[bool, ...], ...]:
    """The below-or-equal matrix from one sweep per component over every
    union of components containing it: the unions are tried in ascending
    bitmask order, each once; one whose members are all known to be above
    already cannot add any and is skipped.  Each try asks whether the union,
    with the lower component shrunk to its least vertex, is factor-critical,
    of the subset table of the graph contracted by rewrite at that
    component."""
    k = len(comps)
    out = []
    for lower, shrunk in enumerate(comps.components):
        table = SubsetTable(Graph(*contract_by_rewrite(graph, shrunk)))
        parts = [table.mask(comp) for comp in comps.components if comp is not shrunk]
        known = 0
        for bits in range(1, 1 << len(parts)):
            if bits | known == known:
                continue
            chosen = (m for pos, m in enumerate(parts) if bits >> pos & 1)
            union = table.bit[min(shrunk)] + sum(chosen)
            if table.critical(union):
                known |= bits
        above = (i + (i >= lower) for i in range(k - 1) if known >> i & 1)
        out.append(frozenset([lower, *above]))
    return tuple(tuple(j in out[i] for j in range(k)) for i in range(k))
