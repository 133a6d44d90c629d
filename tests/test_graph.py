from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cathedral.canonical import GraphStructure, factor_components
from cathedral.errors import GraphFormatError
from cathedral.graph import (
    MAX_VERTICES,
    Graph,
    _walk_parts,
    add_edges,
    complement_pairs,
    connected_components,
    contract,
    delete_vertices,
    induced_subgraph,
    neighbors,
    parse_edge_list,
    render_edge_list,
)

from helpers import (
    C4,
    E0,
    K2,
    P4,
    T,
    factorizable_graphs,
    graphs,
    labelled_graphs,
    mid_size_graphs,
    sparse_many_component_graphs,
)
from oracles import adjacency, contract_by_rewrite, induced_components


def test_parse_smallest():
    assert parse_edge_list("vertices 2\n0 1\n") == K2


def test_parse_path():
    assert parse_edge_list("vertices 4\n0 1\n1 2\n2 3\n") == P4


def test_parse_comments_and_isolated_vertices():
    g = parse_edge_list("# a comment\nvertices 3\n\n# another\n0 1\n")
    assert g.vertices == (0, 1, 2)
    assert g.edges == frozenset({(0, 1)})


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("vertices 4\n0 1\n0 1\n", "duplicate edge"),
        ("vertices 4\n2 2\n", "self-loop"),
        ("vertices 2\n0 5\n", "outside"),
        ("0 1\n", "vertices"),
        ("vertices two\n", "integer"),
        ("vertices 2\n0\n", "<u> <v>"),
        ("", "missing"),
        (f"vertices {MAX_VERTICES + 1}\n", "exceeds"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(GraphFormatError, match=fragment):
        parse_edge_list(text)


def test_index_adjacency_lists_each_vertex_by_position():
    # ids 1, 3, 4, 7 sit at positions 0..3; each row ascends
    g = Graph([7, 1, 4, 3], [(1, 7), (7, 3), (4, 1), (3, 1)])
    assert g.positions == {1: 0, 3: 1, 4: 2, 7: 3}
    assert g.index_adjacency == ((1, 2, 3), (0, 3), (0,), (0, 1))
    assert g.index_adjacency is g.index_adjacency


def test_render_requires_dense_ids():
    with pytest.raises(GraphFormatError, match="dense vertex ids"):
        render_edge_list(delete_vertices(P4, {0}))


def test_render_comments_ignored_on_parse():
    text = render_edge_list(T, comments=["closure: 1 edge(s) added", "added 0 2"])
    assert parse_edge_list(text) == T


@given(graphs())
def test_parse_render_round_trip(g):
    assert parse_edge_list(render_edge_list(g)) == g


def test_induced_subgraph_cases():
    assert induced_subgraph(P4, {2, 3}) == Graph([2, 3], [(2, 3)])
    assert induced_subgraph(P4, {0, 3}) == Graph([0, 3])
    assert induced_subgraph(T, {0, 1, 2}).edges == frozenset({(0, 1), (0, 2), (1, 2)})
    assert induced_subgraph(P4, P4.vertex_set) == P4


@st.composite
def relabelled_graphs(draw) -> Graph:
    """A drawn graph with its ids sent to distinct ids in no order, so the
    ids are neither dense nor in the order of the original positions."""
    g = draw(graphs())
    ids = draw(st.lists(st.integers(0, 60), min_size=g.order, max_size=g.order, unique=True))
    return Graph(ids, ((ids[u], ids[v]) for u, v in g.edges))


@given(relabelled_graphs(), st.data())
def test_the_component_walk_matches_the_oracle(g, data):
    # the index is the graph's one adjacency: the edge list's, by position
    assert not hasattr(g, "adjacency")
    nbr, pos = adjacency(g), g.positions
    assert g.index_adjacency == tuple(tuple(pos[w] for w in nbr[v]) for v in g.vertices)
    kept = data.draw(st.frozensets(st.sampled_from(g.vertices)) if g.order else st.just(frozenset()))
    label, count, touched = _walk_parts(g.index_adjacency, [v in kept for v in g.vertices])
    expected = induced_components(g, kept)
    assert count == len(expected)
    part_of = {v: k for k, (comp, _) in enumerate(expected) for v in comp}
    assert label == [part_of.get(v, -1) for v in g.vertices]
    outside = frozenset().union(*(out for _, out in expected))
    assert touched == [v in outside for v in g.vertices]
    assert connected_components(g, kept) == tuple(tuple(sorted(c)) for c, _ in expected)
    assert connected_components(g) == connected_components(g, g.vertex_set)


@given(relabelled_graphs(), st.data())
def test_derived_graphs_build_their_own_index(g, data):
    # a derived graph takes nothing from its host's index, searched or not:
    # it holds none until it is searched, then the one a from-scratch build
    # of it gives
    every = g.vertex_set
    drawn = data.draw(st.frozensets(st.sampled_from(g.vertices)) if g.order else st.just(every))
    middle = induced_subgraph(g, drawn)
    for host in (g, middle):
        if data.draw(st.booleans(), label=f"search the host on {sorted(host.vertices)}"):
            connected_components(host)
    singles = [frozenset({v}) for v in g.vertices[:1]]
    for kept in (frozenset(), every, drawn, *singles):
        for sub, ks in (
            (induced_subgraph(g, kept), kept),
            (delete_vertices(g, kept), every - kept),
            (delete_vertices(middle, drawn & kept), drawn - kept),
        ):
            assert "index_adjacency" not in sub.__dict__
            connected_components(sub)
            built = Graph(ks, (e for e in g.edges if e[0] in ks and e[1] in ks))
            assert (sub.vertices, sub.edges) == (built.vertices, built.edges)
            assert sub.positions == built.positions == {v: i for i, v in enumerate(sorted(ks))}
            assert sub.index_adjacency == built.index_adjacency


def test_induced_subgraph_rejects_foreign_vertices():
    with pytest.raises(ValueError):
        induced_subgraph(P4, {0, 9})


def test_contract_triangle_from_pendant():
    res = contract(T, {2, 3})
    want_vs, want_es = contract_by_rewrite(T, frozenset({2, 3}))
    assert set(res.graph.vertices) == want_vs
    assert set(res.graph.edges) == want_es
    assert res.merged_vertex == 2
    assert res.origin_map[2] == frozenset({2, 3})
    assert res.origin_map[0] == frozenset({0})


def test_contract_path_head():
    res = contract(P4, {0, 1})
    want_vs, want_es = contract_by_rewrite(P4, frozenset({0, 1}))
    assert (set(res.graph.vertices), set(res.graph.edges)) == (want_vs, want_es)


def test_contract_single_vertex_is_identity():
    for v in P4.vertices:
        assert contract(P4, {v}).graph == P4


def test_contract_empty_set_rejected():
    with pytest.raises(ValueError):
        contract(P4, set())


@given(graphs())
def test_contract_matches_rewrite_oracle_and_stays_simple(g):
    if g.order == 0:
        return
    block = frozenset(v for v in g.vertices if v % 2 == 0) or g.vertex_set
    res = contract(g, block)
    want_vs, want_es = contract_by_rewrite(g, block)
    assert set(res.graph.vertices) == want_vs
    assert set(res.graph.edges) == want_es
    assert all(u != v for u, v in res.graph.edges)
    origins = [vs for vs in res.origin_map.values()]
    assert frozenset().union(*origins) == g.vertex_set
    assert sum(len(vs) for vs in origins) == g.order


def test_add_edges_transcriptions():
    assert add_edges(P4, [(0, 2)]) == T
    with pytest.raises(ValueError, match="already present"):
        add_edges(K2, [(0, 1)])
    with pytest.raises(ValueError, match="self-loop"):
        add_edges(P4, [(1, 1)])
    with pytest.raises(ValueError, match="unknown vertex"):
        add_edges(P4, [(0, 9)])


@pytest.mark.parametrize("bad", [1.9, "2", 1.0, True, False])
def test_vertex_ids_must_be_integers(bad):
    # a float, a string or a bool is refused, never truncated or read as an id,
    # as tree JSON refuses true
    with pytest.raises(TypeError):
        Graph([0, bad, 3])
    with pytest.raises(TypeError):
        Graph([0, 1, 2, 3], [(0, bad)])
    with pytest.raises(TypeError):
        add_edges(Graph(range(3), [(0, 1)]), [(bad, 2)])


def test_neighbors_cases():
    assert neighbors(T, {0, 1}) == frozenset({2})
    assert neighbors(P4, {1, 2}) == frozenset({0, 3})
    assert neighbors(P4, P4.vertex_set) == frozenset()


@given(graphs())
def test_neighbors_disjoint_from_query(g):
    for v in g.vertices:
        block = frozenset({v})
        assert not (neighbors(g, block) & block)


def test_connected_components_cases():
    assert connected_components(P4) == ((0, 1, 2, 3),)
    assert connected_components(delete_vertices(P4, {1})) == ((0,), (2, 3))
    assert connected_components(E0) == ()
    assert connected_components(P4, {0, 2, 3}) == ((0,), (2, 3))
    assert connected_components(P4, ()) == ()
    assert connected_components(T, iter([3, 0, 1])) == ((0, 1), (3,))


def _assert_parts_less_each(g: Graph) -> None:
    whole, less = g.parts_less_each
    where = (g.vertices, sorted(g.edges))
    assert whole == len(connected_components(g)), where
    deleted = [delete_vertices(g, [x]) for x in g.vertices]
    assert less == tuple(len(connected_components(h)) for h in deleted), where


def test_parts_less_each_vertex_match_the_deleted_graphs():
    # every labelled graph of order at most 5: the empty graph, single and
    # isolated vertices, and disconnected graphs among them
    small = chain.from_iterable(labelled_graphs(order) for order in range(6))
    for g in [*small, *sparse_many_component_graphs(20), *mid_size_graphs(20)]:
        _assert_parts_less_each(g)


@given(st.one_of(graphs(12), relabelled_graphs()))
def test_parts_less_each_vertex_match_the_deleted_graphs_fuzz(g):
    _assert_parts_less_each(g)


def test_connected_components_of_a_subset_reject_foreign_vertices():
    with pytest.raises(ValueError, match="host graph"):
        connected_components(P4, {0, 9})


def _walked_subsets(g: Graph) -> list[frozenset[int]]:
    """The subsets production code walks: D(G-x) for every x, and the
    complement of every factor-component."""
    subsets = [ge.d for ge in GraphStructure(g).deletion_partitions.values()]
    subsets += [g.vertex_set - comp for comp in factor_components(g).components]
    return subsets


def test_connected_components_of_a_subset_match_the_induced_subgraph():
    for g in sparse_many_component_graphs(20) + mid_size_graphs(20):
        for kept in _walked_subsets(g):
            assert connected_components(g, kept) == connected_components(induced_subgraph(g, kept))


@given(factorizable_graphs(), st.sets(st.integers(min_value=0, max_value=7)))
@settings(max_examples=60)
def test_connected_components_of_a_subset_match_the_induced_subgraph_fuzz(g, drawn):
    for kept in [drawn & g.vertex_set, *_walked_subsets(g)]:
        assert connected_components(g, kept) == connected_components(induced_subgraph(g, kept))


def test_complement_pairs_cases():
    assert complement_pairs(K2) == []
    assert complement_pairs(C4) == [(0, 2), (1, 3)]
    assert complement_pairs(P4) == [(0, 2), (0, 3), (1, 3)]
