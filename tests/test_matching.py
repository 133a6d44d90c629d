from itertools import combinations

import cathedral.matching

import pytest
from hypothesis import given, settings

from cathedral.canonical import GraphStructure
from cathedral.cli import main
from cathedral.errors import SearchBudgetExceeded, StructureViolation
from cathedral.graph import Graph, contract, delete_vertices, induced_subgraph
from cathedral.matching import (
    Matching,
    PathKind,
    alternating_circuit_exists,
    alternating_path_exists,
    alternating_reachability,
    enumerate_perfect_matchings,
    is_factor_critical,
    is_factorizable,
    matching_number,
    maximum_matching,
    perfect_matching_union,
    restrict_matching,
    _blossom_pass,
    _contracted_outer,
    _edmonds_search,
)

from helpers import (
    C4,
    C5,
    E0,
    K1,
    K2,
    K4,
    P4,
    T,
    CountedList,
    chain_graph,
    counted_rows,
    factorizable_graphs,
    graphs,
)
from oracles import brute_matching_number, brute_perfect_matchings, subset_table


def test_matching_validates_edges_and_disjointness():
    with pytest.raises(ValueError, match="not an edge"):
        Matching(P4, [(0, 2)])
    with pytest.raises(ValueError, match="collide"):
        Matching(T, [(0, 1), (1, 2)])


@pytest.mark.parametrize("bad", [1.9, "1", 1.0, True, False])
def test_matching_vertex_ids_must_be_integers(bad):
    # a float, a string or a bool is refused, never truncated or read as an id
    with pytest.raises(TypeError):
        Matching(K2, [(0, bad)])
    with pytest.raises(TypeError):
        alternating_circuit_exists(C4, Matching(C4, [(0, 1), (2, 3)]), (0, bad))


def test_maximum_matching_fixtures():
    assert maximum_matching(K2).edges == frozenset({(0, 1)})
    assert matching_number(C5) == 2
    assert maximum_matching(T).edges == frozenset({(0, 1), (2, 3)})


def test_isolated_vertices_start_no_search(monkeypatch, tmp_path, capsys):
    searches = []
    search = cathedral.matching._edmonds_search
    monkeypatch.setattr(
        cathedral.matching,
        "_edmonds_search",
        lambda *args, **kwargs: searches.append(args[2]) or search(*args, **kwargs),
    )
    assert not is_factorizable(Graph(range(100_000)))
    edgeless = tmp_path / "edgeless.edges"
    edgeless.write_text("vertices 100000\n")
    assert main(["analyze", str(edgeless)]) == 3
    assert "perfect matching" in capsys.readouterr().err
    assert searches == []


def test_factorizability_stops_at_the_first_root_that_cannot_augment(monkeypatch):
    # vertex 0 joined to 1..4000 and the edge 4000-4001: the greedy start
    # leaves about 4000 leaves exposed, and the first of them cannot augment
    searches = []
    search = cathedral.matching._edmonds_search
    monkeypatch.setattr(
        cathedral.matching,
        "_edmonds_search",
        lambda *args, **kwargs: searches.append(args[2]) or search(*args, **kwargs),
    )
    star = Graph(range(4002), [(0, v) for v in range(1, 4001)] + [(4000, 4001)])
    assert not is_factorizable(star)
    assert len(searches) <= 2


# the first graph of the benchmark's elementary-analyze batch at seed 0
ELEMENTARY_SEED0 = Graph(
    range(20),
    [
        (0, 1), (0, 5), (0, 14), (0, 17), (1, 9), (1, 16), (1, 19), (2, 3), (2, 8), (2, 11),
        (2, 14), (2, 16), (3, 4), (3, 8), (4, 5), (4, 7), (4, 8), (4, 9), (4, 13), (5, 9), (6, 7),
        (6, 9), (6, 14), (6, 16), (6, 17), (7, 9), (7, 10), (7, 12), (7, 17), (8, 9), (8, 14),
        (8, 15), (8, 17), (8, 18), (8, 19), (9, 12), (9, 14), (9, 15), (9, 16), (9, 19), (10, 11),
        (10, 13), (10, 14), (10, 16), (11, 13), (11, 16), (12, 13), (12, 14), (12, 17), (13, 19),
        (14, 15), (14, 17), (15, 16), (15, 17), (15, 18), (16, 17), (16, 19), (18, 19),
    ],
)  # fmt: skip
K6 = Graph(range(6), combinations(range(6), 2))


@pytest.mark.parametrize(
    "graph, first, every", [(K6, 1, 6), (ELEMENTARY_SEED0, 12, 179)], ids=["K6", "elementary"]
)
def test_a_deletion_search_reads_no_row_once_every_visible_vertex_is_outer(graph, first, every):
    # searched until its queue empties, the first row reads 5 rows of K6
    # and 19 of the benchmark graph, and the whole table 30 and 380
    reads = [0]
    structure = GraphStructure(counted_rows(graph, reads))
    reads[0] = 0
    structure.row(0)
    assert reads[0] == first
    for i in range(graph.order):
        structure.row(i)
    assert reads[0] == every


def test_a_contraction_search_reads_no_row_once_every_visible_vertex_is_outer():
    # the depth-4 chain graph contracted at its lowest component {0, 1} is
    # factor-critical: the row of the contracted vertex's root marks every
    # vertex, where a search until its queue empties reads 8 rows
    reads = [0]
    adj = counted_rows(chain_graph(4), reads).index_adjacency
    outer = _contracted_outer(adj, [i ^ 1 for i in range(8)], [0, 1], list(range(2, 8)))
    assert outer == [True] * 8
    assert reads[0] == 1


def test_a_deletion_search_that_augments_is_a_structure_violation():
    # the row of 0 searches from its partner 1 with 0 hidden; under the
    # non-perfect [1, 0, -1, -1] it augments to 2, which a perfect matching
    # rules out, and refuses instead of reading marks it does not have
    structure = GraphStructure(P4)
    structure.mate[:] = [1, 0, -1, -1]
    with pytest.raises(StructureViolation, match="a search under a perfect matching augmented"):
        structure.row(0)


def test_a_repeated_hidden_or_merged_position_cannot_end_a_search_early():
    # the search counts distinct hidden positions and the marks as they
    # flip, so repeats give the marks, queue and row reads of no repeat; a
    # count of the entries passed would end it early at some repeat
    def searched(graph, root, hidden, merged):
        reads = [0]
        near = [i ^ 1 for i in range(graph.order)]
        for h in (root, *hidden):
            near[h] = -1
        adj = counted_rows(graph, reads).index_adjacency
        return _edmonds_search(adj, near, root, hidden, merged), reads[0]

    expected = searched(K6, 1, (0,), ())
    assert expected[0][1] == [1, 3, 2, 5, 4]
    for k in range(2, 7):
        assert searched(K6, 1, (0,) * k, ()) == expected, k
    # the chain graph's two lowest components, contracted at the first
    chain, hidden = chain_graph(4), (4, 5, 6, 7)
    expected = searched(chain, 0, hidden, [0, 1])
    assert expected[0][1] == [0, 1, 3, 2]
    for k in range(2, 6):
        assert searched(chain, 0, hidden * k, [0] + [1] * k) == expected, k


def _nested_cycles(k: int) -> Graph:
    """A triangle, then k - 1 paths of two new vertices, the j-th from 2j to
    2j - 1: each closes an odd cycle through the blossom before it."""
    edges = [(0, 1), (1, 2), (0, 2)]
    for j in range(1, k):
        edges += [(2 * j, 2 * j + 1), (2 * j + 1, 2 * j + 2), (2 * j - 1, 2 * j + 2)]
    return Graph(range(2 * k + 1), edges)


# odd graphs in some of whose searches a shrunk blossom shrinks again into
# a larger one: two 5-cycles through vertex 4, and chains of odd cycles
NESTED_BLOSSOMS = {
    "cycles-in-cycles": Graph(
        range(9),
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (4, 7), (7, 8), (6, 8), (2, 8), (0, 5)],
    ),
    "nested-3": _nested_cycles(3),
    "nested-4": _nested_cycles(4),
}


@pytest.mark.parametrize("g", NESTED_BLOSSOMS.values(), ids=NESTED_BLOSSOMS)
def test_every_root_of_nested_blossoms_marks_what_the_subset_table_says(g):
    # under every perfect matching of G - r, the search from r marks the
    # vertices v with G - v factorizable: the symmetric difference with a
    # perfect matching of G - v is an even alternating path from r to v
    table = subset_table(g)
    expected = [table.without(v) for v in g.vertices]
    searched = 0
    for r in g.vertices:
        for matching in brute_perfect_matchings(delete_vertices(g, (r,))):
            mate = [-1] * g.order
            for u, v in matching:
                mate[u], mate[v] = v, u
            found = _edmonds_search(g.index_adjacency, mate, r)
            assert found is not None and found[0] == expected, (r, matching)
            searched += 1
    assert searched >= g.order


# a graph in one of whose rows, D(G-3), an outer w that heads its own
# blossom (w is its base, and its members are more than w) meets a vertex
# of the blossom its mate's parent lies in
HEADED_BLOSSOM = Graph(
    range(16),
    [
        (0, 1), (0, 4), (0, 6), (0, 10), (0, 13), (0, 14), (1, 2), (1, 5), (1, 7), (1, 8),
        (1, 14), (2, 3), (2, 4), (2, 8), (2, 9), (2, 14), (3, 5), (3, 10), (4, 5), (4, 10),
        (4, 13), (5, 6), (5, 8), (5, 9), (5, 13), (5, 14), (6, 7), (6, 12), (6, 13), (7, 12),
        (8, 9), (10, 11), (10, 12), (10, 14), (11, 13), (12, 13), (12, 14), (13, 14), (14, 15),
    ],
)  # fmt: skip


def test_a_vertex_that_heads_its_own_blossom_shrinks_with_its_members():
    # the one-pair shrink rebases w and its mate alone, so taken at a w that
    # heads its own blossom it would leave w's members on a base that is no
    # longer one: every search here still marks D(G-u), but later shrinks
    # walk those members again, and the rows read the mate 424 times, 90
    # of them in row 3 (29 here).  A general shrink that left v on its old
    # base would read it 389 times.  The diagonal is compared too: G-u-u is
    # G-u, of odd order, so the table says False where the row does
    structure = GraphStructure(HEADED_BLOSSOM)
    table = subset_table(HEADED_BLOSSOM)
    adj, mate = HEADED_BLOSSOM.index_adjacency, structure.mate
    reads = [0]
    for i, u in enumerate(HEADED_BLOSSOM.vertices):
        expected = [table.without(u, v) for v in HEADED_BLOSSOM.vertices]
        assert structure.row(i) == expected, u
        near = mate[:]
        near[i] = near[mate[i]] = -1
        found = _edmonds_search(adj, CountedList(near, reads), mate[i], (i,))
        assert found is not None and found[0] == expected, u
    assert reads[0] == 344


def test_the_pass_hands_on_the_positions_each_failed_search_marked():
    # on the star each failed search marks its leaf and vertex 1 (vertex 0
    # is inner), so the merge of D reads two positions per failure, not n;
    # and each search scans those two rows and stops, whatever the order of
    # the star: 7,996 row reads for the 3,998 failures on 4002 vertices
    reads = [0]
    star = Graph(range(4002), [(0, v) for v in range(1, 4001)] + [(4000, 4001)])
    _, failures = _blossom_pass(counted_rows(star, reads).index_adjacency)
    assert list(failures) == [(v, [v, 1]) for v in range(2, 4000)]
    assert reads[0] == 7996


def test_maximum_matching_deterministic():
    g = Graph(range(6), [(0, 1), (0, 2), (1, 2), (3, 4), (2, 3), (4, 5)])
    assert maximum_matching(g).edges == maximum_matching(g).edges


def test_maximum_matching_exhaustive_small():
    # every graph on up to 5 vertices
    for n in range(6):
        pairs = list(combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            g = Graph(range(n), [pairs[i] for i in range(len(pairs)) if bits >> i & 1])
            nu = brute_matching_number(g)
            assert matching_number(g) == nu
            assert is_factorizable(g) == (2 * nu == n)


@given(graphs())
@settings(max_examples=150)
def test_maximum_matching_matches_brute_force(g):
    nu = brute_matching_number(g)
    assert matching_number(g) == nu
    assert is_factorizable(g) == (2 * nu == g.order)


@given(graphs(max_vertices=10))
@settings(max_examples=40, deadline=None)
def test_maximum_matching_matches_brute_force_to_ten_vertices(g):
    nu = brute_matching_number(g)
    assert matching_number(g) == nu
    assert is_factorizable(g) == (2 * nu == g.order)


def test_factorizable_fixtures():
    assert is_factorizable(E0)
    assert is_factorizable(P4)
    assert not is_factorizable(C5)


def test_factor_critical_fixtures():
    assert is_factor_critical(K1)
    assert is_factor_critical(C5)
    assert not is_factor_critical(E0)
    assert not is_factor_critical(contract(P4, {0, 1}).graph)


@given(graphs())
def test_factor_critical_definitional(g):
    expected = g.order > 0 and all(
        is_factorizable(delete_vertices(g, (v,))) for v in g.vertices
    )
    if g.order % 2 == 0 and g.order > 0:
        expected = False  # even order cannot be factor-critical
    assert is_factor_critical(g) == expected


def test_enumeration_fixtures():
    assert [m.sorted_edges() for m in enumerate_perfect_matchings(C4)] == [
        [(0, 1), (2, 3)],
        [(0, 3), (1, 2)],
    ]
    assert [m.sorted_edges() for m in enumerate_perfect_matchings(T)] == [[(0, 1), (2, 3)]]
    assert enumerate_perfect_matchings(C5).matchings == ()
    assert len(enumerate_perfect_matchings(E0)) == 1  # the empty matching


def test_enumeration_truncation_is_flagged():
    enum = enumerate_perfect_matchings(C4, cap=1)
    assert enum.truncated and len(enum) == 1
    full = enumerate_perfect_matchings(C4, cap=2)
    assert not full.truncated and len(full) == 2
    with pytest.raises(ValueError):
        enumerate_perfect_matchings(C4, cap=0)
    with pytest.raises(ValueError):
        perfect_matching_union(C4, cap=1)


@pytest.mark.parametrize("n", [2100, 4000])
def test_enumeration_has_no_recursion_limit(n):
    # one frame per matched vertex: a recursion ran out of stack past about
    # 2,000 vertices
    g = Graph(range(n), [(i, i + 1) for i in range(0, n, 2)])
    for cap in (1, 2):
        (whole,) = enumerate_perfect_matchings(g, cap)
        assert len(whole.edges) == n // 2
        (inner,) = enumerate_perfect_matchings(induced_subgraph(g, range(2, n)), cap)
        assert inner.edges == whole.edges - {(0, 1)}


@given(factorizable_graphs())
@settings(max_examples=100)
def test_enumeration_matches_brute_force(g):
    enum = enumerate_perfect_matchings(g, cap=10_000)
    assert not enum.truncated
    assert [m.sorted_edges() for m in enum] == [list(pm) for pm in brute_perfect_matchings(g)]


def test_path_fixtures():
    m = Matching(P4, [(0, 1), (2, 3)])
    assert alternating_path_exists(P4, m, 0, 3, PathKind.SATURATED)
    assert not alternating_path_exists(P4, m, 0, 2, PathKind.SATURATED)
    assert alternating_path_exists(P4, m, 0, 0, PathKind.BALANCED)
    assert alternating_path_exists(P4, m, 0, 2, PathKind.BALANCED)
    assert alternating_path_exists(P4, m, 1, 2, PathKind.EXPOSED)
    with pytest.raises(ValueError):
        alternating_path_exists(P4, m, 0, 0, PathKind.SATURATED)
    with pytest.raises(ValueError):
        alternating_path_exists(P4, m, 0, 9, PathKind.SATURATED)
    with pytest.raises(ValueError):
        alternating_path_exists(T, m, 0, 1, PathKind.SATURATED)  # foreign matching


def test_budget_aborts_instead_of_answering():
    m = maximum_matching(K4)
    with pytest.raises(SearchBudgetExceeded):
        alternating_path_exists(K4, m, 0, 3, PathKind.SATURATED, budget=1)


K8 = Graph(range(8), combinations(range(8), 2))
PETERSEN = Graph(
    range(10),
    [(i, (i + 1) % 5) for i in range(5)]
    + [(i, i + 5) for i in range(5)]
    + [(5 + i, 5 + (i + 2) % 5) for i in range(5)],
)


@pytest.mark.parametrize("g, spent", [(K8, 1256), (PETERSEN, 330)], ids=["K8", "Petersen"])
def test_reachability_completes_on_a_pinned_budget(g, spent):
    # the sweep's expansion count: every simple alternating path from every
    # source that starts matched, one expansion per step
    m = maximum_matching(g)
    assert alternating_reachability(g, m, budget=spent) is not None
    with pytest.raises(SearchBudgetExceeded):
        alternating_reachability(g, m, budget=spent - 1)


@given(factorizable_graphs())
@settings(max_examples=60)
def test_saturated_path_equals_deletion_reduction(g):
    # for every perfect matching the answer matches the deletion test,
    # hence is independent of the matching supplied
    enum = enumerate_perfect_matchings(g, cap=16)
    for m in enum.matchings:
        reach = alternating_reachability(g, m)
        for u, v in combinations(g.vertices, 2):
            assert (v in reach.saturated[u]) == is_factorizable(delete_vertices(g, (u, v)))


@given(factorizable_graphs(max_vertices=6))
@settings(max_examples=60)
def test_reachability_agrees_with_single_queries(g):
    m = maximum_matching(g)
    reach = alternating_reachability(g, m)
    for u in g.vertices:
        for v in g.vertices:
            if u == v:
                assert v in reach.balanced[u]
                continue
            assert (v in reach.saturated[u]) == alternating_path_exists(
                g, m, u, v, PathKind.SATURATED
            )
            assert (v in reach.balanced[u]) == alternating_path_exists(
                g, m, u, v, PathKind.BALANCED
            )


@given(factorizable_graphs(max_vertices=8))
@settings(max_examples=60)
def test_factor_critical_iff_all_balanced_paths_to_exposed(g):
    # near-perfect matchings come from single deletions of a factorizable graph
    m0 = maximum_matching(g)
    for x in g.vertices:
        partner = m0.partner[x]
        rest = delete_vertices(g, (x,))
        near = Matching(rest, (e for e in m0.edges if x not in e))
        assert near.exposed == frozenset({partner})
        reach = alternating_reachability(rest, near)
        assert is_factor_critical(rest) == all(
            partner in reach.balanced[u] for u in rest.vertices
        )


@given(factorizable_graphs(max_vertices=6))
@settings(max_examples=60)
def test_circuit_iff_allowed_for_unmatched_edges(g):
    union = perfect_matching_union(g)
    enum = enumerate_perfect_matchings(g, cap=16)
    for m in enum.matchings:
        for e in sorted(g.edges - m.edges):
            assert alternating_circuit_exists(g, m, e) == (e in union)


def test_restrict_matching():
    m = Matching(T, [(0, 1), (2, 3)])
    sub = delete_vertices(T, {3})
    assert restrict_matching(m, sub).edges == frozenset({(0, 1)})


def test_iter_saturated_paths_enumerates_exactly():
    from cathedral.matching import iter_saturated_paths

    m = Matching(P4, [(0, 1), (2, 3)])
    assert list(iter_saturated_paths(P4, m, 0, 3)) == [(0, 1, 2, 3)]
    assert list(iter_saturated_paths(P4, m, 0, 2)) == []
    mc4 = Matching(C4, [(0, 1), (2, 3)])
    assert list(iter_saturated_paths(C4, mc4, 0, 3)) == [(0, 1, 2, 3)]
    # both endpoints matched to each other: the one-edge path
    assert list(iter_saturated_paths(C4, mc4, 0, 1)) == [(0, 1)]
