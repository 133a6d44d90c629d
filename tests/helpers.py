"""Shared fixture graphs and hypothesis strategies."""

from __future__ import annotations

import random
from itertools import combinations, compress
from typing import Iterator

from hypothesis import strategies as st

from cathedral.canonical import factor_components
from cathedral.construction import CathedralTree
from cathedral.gallai_edmonds import gallai_edmonds
from cathedral.graph import Graph, edge, induced_subgraph
from cathedral.matching import (
    DEFAULT_ENUMERATION_CAP,
    enumerate_perfect_matchings,
    is_factor_critical,
    is_factorizable,
)

from oracles import set_perfect_matchings

E0 = Graph()
K1 = Graph([0])
K2 = Graph(range(2), [(0, 1)])
P4 = Graph(range(4), [(0, 1), (1, 2), (2, 3)])
C4 = Graph(range(4), [(0, 1), (1, 2), (2, 3), (0, 3)])
C5 = Graph(range(5), [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
K4 = Graph(range(4), [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
T = Graph(range(4), [(0, 1), (0, 2), (1, 2), (2, 3)])


@st.composite
def graphs(draw, max_vertices: int = 8) -> Graph:
    n = draw(st.integers(min_value=0, max_value=max_vertices))
    pairs = list(combinations(range(n), 2))
    chosen = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    return Graph(range(n), chosen)


@st.composite
def factorizable_graphs(draw, max_vertices: int = 8) -> Graph:
    """A planted perfect matching plus arbitrary extra edges."""
    half = draw(st.integers(min_value=1, max_value=max_vertices // 2))
    n = 2 * half
    planted = {(2 * i, 2 * i + 1) for i in range(half)}
    pairs = [p for p in combinations(range(n), 2) if p not in planted]
    extra = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    return Graph(range(n), planted | extra)


class CountedRows(tuple):
    """An index adjacency that adds each row read to its ``tally``."""

    tally: list[int]

    def __getitem__(self, i):
        self.tally[0] += 1
        return tuple.__getitem__(self, i)


def counted_rows(graph: Graph, tally: list[int]) -> Graph:
    """A copy of the graph whose index adjacency counts its row reads: one
    per mask a matching counter expands, per vertex an enumeration matches,
    and per vertex an Edmonds search scans."""
    copy = Graph(graph.vertices, graph.edges)
    rows = copy.__dict__["index_adjacency"] = CountedRows(graph.index_adjacency)
    rows.tally = tally
    return copy


class CountedList(list):
    """A list that adds each item read to its ``tally``: as a search's
    ``mate``, it counts the search's reads of the matching, which grow with
    every stem and blossom walk."""

    def __init__(self, items, tally: list[int]) -> None:
        super().__init__(items)
        self.tally = tally

    def __getitem__(self, i):
        self.tally[0] += 1
        return list.__getitem__(self, i)


def labelled_graphs(order: int) -> Iterator[Graph]:
    """Every graph on the vertices 0..order-1, one per subset of the
    possible edges: 2^(order choose 2) of them, the edgeless one first."""
    pairs = list(combinations(range(order), 2))
    for mask in range(1 << len(pairs)):
        yield Graph(range(order), compress(pairs, [mask >> k & 1 for k in range(len(pairs))]))


def sparse_many_component_graphs(count: int) -> list[Graph]:
    """Planted-matching graphs on 16 vertices with edge probability 0.1,
    kept when they have 6 or 7 factor-components."""
    rng = random.Random(6)
    kept: list[Graph] = []
    while len(kept) < count:
        edges = {(u, u + 1) for u in range(0, 16, 2)}
        edges |= {(u, v) for u in range(16) for v in range(u + 1, 16) if rng.random() < 0.1}
        g = Graph(range(16), edges)
        if len(factor_components(g)) in (6, 7):
            kept.append(g)
    return kept


def sparse_odd_graphs(count: int) -> list[Graph]:
    """Unicyclic graphs on 9, 11 or 13 vertices: a random tree with shuffled
    ids plus one edge.  In the blossom pass of about one in eight, a root's
    search fails before a later root's augments."""
    rng = random.Random(11)
    out = []
    while len(out) < count:
        n = rng.choice((9, 11, 13))
        ids = list(range(n))
        rng.shuffle(ids)
        edges = {edge(ids[v], ids[rng.randrange(v)]) for v in range(1, n)}
        while len(edges) < n:
            edges.add(edge(*rng.sample(range(n), 2)))
        out.append(Graph(range(n), edges))
    return out


def mid_size_graphs(count: int) -> list[Graph]:
    """Planted-matching graphs on 18, 20 or 22 vertices with edge probability
    0.1, kept when they have at most 11 factor-components."""
    rng = random.Random(18)
    kept: list[Graph] = []
    while len(kept) < count:
        n = rng.choice((18, 20, 22))
        edges = {(u, u + 1) for u in range(0, n, 2)}
        edges |= {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.1}
        g = Graph(range(n), edges)
        if len(factor_components(g)) <= 11:
            kept.append(g)
    return kept


def plant_k10_closure(monkeypatch) -> Graph:
    """Make the verifier's ``saturate`` return K_10, with its 945 perfect
    matchings, and return the 10-vertex perfect matching, which has one."""
    import cathedral.checks

    k10 = Graph(range(10), combinations(range(10), 2))
    monkeypatch.setattr(
        cathedral.checks, "saturate", lambda graph, descending=False: (k10, tuple(sorted(k10.edges - graph.edges)))
    )
    return Graph(range(10), [(i, i + 1) for i in range(0, 10, 2)])


def path(order: int) -> Graph:
    return Graph(range(order), [(v, v + 1) for v in range(order - 1)])


def chain_tree(depth: int, level: int = 0) -> CathedralTree | None:
    """A K2 foundation {2i, 2i+1} at each level i, the next level joined to
    its first class {2i}: the foundation holds the level's least vertex."""
    if level == depth:
        return None
    s, t = 2 * level, 2 * level + 1
    return CathedralTree(
        frozenset({s, t}),
        frozenset({(s, t)}),
        ((frozenset({s}), chain_tree(depth, level + 1)), (frozenset({t}), None)),
    )


def chain_graph(depth: int) -> Graph:
    """The graph ``chain_tree(depth)`` constructs, built directly: each
    foundation edge {2i, 2i+1}, and 2i joined to every deeper vertex."""
    n = 2 * depth
    edges = {(s, s + 1) for s in range(0, n, 2)}
    edges |= {(s, t) for s in range(0, n, 2) for t in range(s + 2, n)}
    return Graph(range(n), edges)


def reversed_ids(graph: Graph) -> Graph:
    """The graph with each id v renamed to the largest id minus v, which
    reverses the order in which the ids number its components."""
    top = max(graph.vertices, default=0)
    return Graph([top - v for v in graph.vertices], [(top - u, top - v) for u, v in graph.edges])


def assert_kept_is_the_induced_subgraph(g: Graph, kept: frozenset[int]) -> None:
    """``kept=`` on the host gives the factorizability and factor-criticality
    verdicts and the deficiency partition that the same calls give on the
    subgraph induced by ``kept``, and that subgraph's enumeration lists the
    perfect matchings of the set-based backtracking, in order, with its
    truncation flag."""
    sub = induced_subgraph(g, kept)
    where = (sorted(g.edges), sorted(kept))
    assert is_factorizable(g, kept=kept) == is_factorizable(sub), where
    assert is_factor_critical(g, kept=kept) == is_factor_critical(sub), where
    assert gallai_edmonds(g, kept=kept).parts() == gallai_edmonds(sub).parts(), where
    for cap in (3, DEFAULT_ENUMERATION_CAP):
        ours = enumerate_perfect_matchings(sub, cap)
        found, truncated = set_perfect_matchings(sub, cap)
        assert [m.edges for m in ours] == [frozenset(pm) for pm in found], (*where, cap)
        assert ours.truncated == truncated, (*where, cap)


def kept_sets(g: Graph, rng: random.Random) -> list[frozenset[int]]:
    """Every pair deletion and every single deletion, two drawn subsets, the
    empty set and every vertex."""
    every = g.vertex_set
    return [
        *(every.difference(pair) for pair in combinations(g.vertices, 2)),
        *(every - {v} for v in g.vertices),
        *(frozenset(v for v in g.vertices if rng.random() < 0.5) for _ in range(2)),
        frozenset(),
        every,
    ]
