"""Brute-force reference implementations, kept structurally independent of
the package's algorithms: adjacency is read off the edge list once per call,
components grow by whole neighbourhoods, matchings come from subset recursion
over the edge list, perfect matchings from combination filtering,
factorizability from trying every partner of the least vertex, contraction
from a literal edge rewrite; the enumeration's order and truncation are those
of its former set-based backtracking.  The deletion structures follow their
definitions: allowed edges and classes one pair deletion at a time, the
exposable set as the vertices some maximum matching misses.  The
alternating-walk references are the per-query depth-first loops, counting
their expansions.  The component order has two references: the per-pair
search, which tries every union containing both components (its
factor-criticality test is the package's, itself checked against
``deletion_is_factor_critical``), and the sweep, which tries every union
containing the lower one with the package's contracted search (checked union
by union against the literal contraction)."""

from __future__ import annotations

from itertools import combinations

from cathedral.graph import (
    Edge,
    Graph,
    add_edges,
    complement_pairs,
    contract,
    delete_vertices,
    induced_subgraph,
)
from cathedral.matching import (
    _blossom_matching,
    _contracts_to_factor_critical,
    is_factor_critical,
)


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


def brute_is_factorizable(graph: Graph) -> bool:
    """Whether some partner of the least uncovered vertex, tried in turn,
    leaves a factorizable rest."""
    adj = adjacency(graph)

    def cover(left: frozenset[int]) -> bool:
        if not left:
            return True
        v = min(left)
        return any(w in left and cover(left - {v, w}) for w in adj[v])

    return graph.order % 2 == 0 and cover(graph.vertex_set)


def brute_allowed_edges(graph: Graph) -> frozenset[tuple[int, int]]:
    out: set[tuple[int, int]] = set()
    for pm in brute_perfect_matchings(graph):
        out |= set(pm)
    return frozenset(out)


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


# --- deletion structures, by definition -------------------------------------


def deletion_allowed_edges(graph: Graph) -> frozenset[Edge]:
    """Edges whose endpoint deletion leaves a factorizable graph."""
    return frozenset(e for e in graph.edges if brute_is_factorizable(delete_vertices(graph, e)))


def deletion_partition(graph: Graph) -> tuple[frozenset[int], ...]:
    """Classes of "same allowed-edge component, and deleting both leaves no
    perfect matching", ordered by minimum id."""
    skeleton = Graph(graph.vertices, deletion_allowed_edges(graph))
    components = induced_components(skeleton, skeleton.vertex_set)
    component_of = {v: i for i, (comp, _) in enumerate(components) for v in comp}
    classes: list[frozenset[int]] = []
    for u in graph.vertices:
        if any(u in cls for cls in classes):
            continue
        classes.append(
            frozenset(
                v
                for v in graph.vertices
                if v == u
                or (
                    component_of[u] == component_of[v]
                    and not brute_is_factorizable(delete_vertices(graph, (u, v)))
                )
            )
        )
    return tuple(classes)


def deletion_is_saturated(graph: Graph) -> bool:
    return all(brute_is_factorizable(delete_vertices(graph, p)) for p in complement_pairs(graph))


def restart_saturate(graph: Graph, descending: bool = False) -> tuple[Graph, tuple[Edge, ...]]:
    """Add the first complement pair (in scan order) whose endpoint deletion
    is unfactorizable, then scan again from the start, until none is left."""
    current = graph
    added: list[Edge] = []
    while True:
        for pair in sorted(complement_pairs(current), reverse=descending):
            if not brute_is_factorizable(delete_vertices(current, pair)):
                current = add_edges(current, (pair,))
                added.append(pair)
                break
        else:
            return current, tuple(added)


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


def deletion_is_factor_critical(graph: Graph) -> bool:
    """Odd order, and every single deletion is factorizable."""
    return graph.order % 2 == 1 and all(
        brute_is_factorizable(delete_vertices(graph, (v,))) for v in graph.vertices
    )


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


# --- the component order, one pair at a time ----------------------------------


def pairwise_component_leq(graph, comps, lower: int, upper: int) -> bool:
    """Whether ``lower`` sits below ``upper``: every union of factor-components
    containing both is tried in ascending bitmask order, until one contracts,
    at the lower one, to a factor-critical graph."""
    k = len(comps)
    if not (0 <= lower < k and 0 <= upper < k):
        raise ValueError("component index out of range")
    if lower == upper:
        return True
    rest = [i for i in range(k) if i != lower and i != upper]
    seed = comps.components[lower] | comps.components[upper]
    for bits in range(1 << len(rest)):
        chosen = set(seed)
        for pos, i in enumerate(rest):
            if bits >> pos & 1:
                chosen |= comps.components[i]
        shrunk = contract(induced_subgraph(graph, chosen), comps.components[lower]).graph
        if is_factor_critical(shrunk):
            return True
    return False


def pairwise_order(graph, comps) -> tuple[tuple[bool, ...], ...]:
    """The below-or-equal matrix, one pairwise search per entry."""
    k = len(comps)
    return tuple(
        tuple(pairwise_component_leq(graph, comps, i, j) for j in range(k)) for i in range(k)
    )


# --- the component order, one sweep over the unions per component -------------


def sweep_order(graph, comps) -> tuple[tuple[bool, ...], ...]:
    """The below-or-equal matrix from one sweep per component over every
    union of components containing it: the unions are tried in ascending
    bitmask order, each once; one whose members are all known to be above
    already cannot add any and is skipped.  Each try is one search on index
    arrays from one perfect matching of the graph."""
    index, adj = graph.positions, graph.index_adjacency
    mate = _blossom_matching(adj)
    parts = [[index[v] for v in sorted(comp)] for comp in comps.components]
    k = len(parts)
    out = []
    for lower in range(k):
        rest = [i for i in range(k) if i != lower]
        known = 0
        for bits in range(1, 1 << len(rest)):
            if bits | known == known:
                continue
            kept = [v for pos, i in enumerate(rest) if bits >> pos & 1 for v in parts[i]]
            if _contracts_to_factor_critical(adj, mate, parts[lower], kept):
                known |= bits
        out.append(frozenset([lower, *(i for pos, i in enumerate(rest) if known >> pos & 1)]))
    return tuple(tuple(j in out[i] for j in range(k)) for i in range(k))
