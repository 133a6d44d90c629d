"""The two search primitives of the matching engine against the oracles.

Every structure derived from the Edmonds search is compared with its
definition, read off the graph's subset table, on the seeded corpora, on
induced and contracted subgraphs whose vertex ids are not 0..n-1, and on
graphs of 18 to 22 vertices: allowed edges, the canonical partition and the
pairwise same-class test, saturation, and the partition of every
single-vertex deletion, as the structure checks it and as ``analyze --ge``
writes it.  The table itself is checked against combination
filtering on every vertex subset, deletes a repeated vertex once, and the
oracles that read it must answer
with the package's searches disabled.  The alternating walker
must spend exactly the expansions the per-query loops spent, so every query
aborts at the same budget threshold, and a search confined to a vertex set
must answer, at the same threshold, as the search of the induced subgraph
under the restricted matching.  The paths of every single deletion G-x
must be those the sweep of G finds from x, under each perfect matching.  The
perfect-matching enumeration must list what its set-based version listed,
in the same order.
"""

import importlib
import random
import re
from collections import Counter
from itertools import combinations, compress

import cathedral.canonical
import cathedral.matching

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cathedral.canonical import (
    GraphStructure,
    allowed_edges,
    canonical_partition,
    component_poset,
    factor_components,
    same_class,
)
from cathedral.cli import main
from cathedral.construction import is_saturated, saturate
from cathedral.errors import DeficiencyViolation, SearchBudgetExceeded, StructureViolation
from cathedral.gallai_edmonds import gallai_edmonds
from cathedral.graph import Graph, contract, delete_vertices, induced_subgraph, render_edge_list
from cathedral.matching import (
    Matching,
    PathKind,
    _contracted_outer,
    _perfect_mate,
    alternating_circuit_exists,
    alternating_path_exists,
    alternating_reachability,
    enumerate_perfect_matchings,
    is_factor_critical,
    is_factorizable,
    iter_saturated_paths,
    maximum_matching,
    restrict_matching,
)
from cathedral.serialize import analysis_dict
from cathedral.verify import TrialConfig, random_factorizable_graph

from helpers import (
    C5,
    K4,
    P4,
    assert_kept_is_the_induced_subgraph,
    factorizable_graphs,
    graphs,
    kept_sets,
    mid_size_graphs,
    sparse_many_component_graphs,
    sparse_odd_graphs,
)
from oracles import (
    SubsetTable,
    brute_perfect_matchings,
    circuit_search,
    contract_by_rewrite,
    deleted_partition,
    deletion_allowed_edges,
    deletion_gallai_edmonds,
    deletion_is_factor_critical,
    deletion_is_saturated,
    deletion_partition,
    final_search_exposable,
    path_search,
    reachability_expansions,
    restart_saturate,
    saturated_paths,
    set_perfect_matchings,
    subset_table,
    sweep_order,
)
from small_scope import sweep

CORPORA = {101: 300, 303: 200}


def _corpus(seed: int) -> list[Graph]:
    cfg = TrialConfig(seed=seed, trials=CORPORA[seed], max_vertices=10, edge_probability=0.3)
    return [random_factorizable_graph(cfg, t) for t in range(cfg.trials)]


def _factorizable_family(g: Graph) -> list[Graph]:
    """The graph, the union of its factor-components that avoid vertex 0,
    and the contraction of its three smallest ids when that stays
    factorizable; the last two have ids outside 0..n-1."""
    comps = factor_components(g).components
    family = [g, induced_subgraph(g, g.vertex_set - next(c for c in comps if 0 in c))]
    if g.order >= 4:
        shrunk = contract(g, g.vertices[:3]).graph
        if is_factorizable(shrunk):
            family.append(shrunk)
    return family


def _deficient_family(g: Graph) -> list[Graph]:
    """Graphs a maximum matching does not cover: each single deletion and the
    contraction of each factor-component, as the deletion partition and the
    component order see them, and the subgraphs induced on the even and on
    the odd ids, which may miss several vertices."""
    comps = factor_components(g).components
    return (
        [delete_vertices(g, (v,)) for v in g.vertices]
        + [contract(g, c).graph for c in comps]
        + [induced_subgraph(g, g.vertices[parity::2]) for parity in (0, 1)]
    )


@pytest.mark.parametrize("source", [101, 303, "mid"])
def test_deletion_structures_match_their_definitions(source):
    # the restart closure runs on the seeded corpora only: it fills one
    # table per grown graph
    if source == "mid":
        family = list(enumerate(mid_size_graphs(60)))
    else:
        family = [(i, h) for i, g in enumerate(_corpus(source)) for h in _factorizable_family(g)]
    for i, h in family:
        where = f"graph {i}, vertices {list(h.vertices)}"
        assert allowed_edges(h) == deletion_allowed_edges(h), where
        classes = deletion_partition(h)
        assert canonical_partition(h).classes == classes, where
        class_of = {v: j for j, cls in enumerate(classes) for v in cls}
        # the pairwise test reads one structure's classes; one call per
        # graph keeps the wrapper, which builds a structure, covered
        own = GraphStructure(h).partition.class_of
        for u, v in combinations(h.vertices, 2):
            assert (own[u] == own[v]) == (class_of[u] == class_of[v]), (where, u, v)
        for u, v in combinations(h.vertices[:2], 2):
            assert same_class(h, u, v) == (class_of[u] == class_of[v]), where
        assert is_saturated(h) == deletion_is_saturated(h), where
        if source != "mid":
            for descending in (False, True):
                assert saturate(h, descending=descending) == restart_saturate(h, descending), where
        for x, ge in GraphStructure(h).deletion_partitions.items():
            assert ge.parts() == deleted_partition(h, x), (where, x)


def test_every_labelled_graph_of_order_2_and_4_matches_its_definitions():
    # the CI step sweeps order 6 with the same function
    assert sweep(2) == Counter(graphs=2, factorizable=1, saturated=1)
    assert sweep(4) == Counter(graphs=64, factorizable=37, saturated=19)


@given(graphs())
@settings(max_examples=100, deadline=None)
def test_the_subset_table_matches_combination_filtering(g):
    # every vertex subset, so the memo answers masks of either parity and
    # with isolated vertices
    table = SubsetTable(g)
    for size in range(g.order + 1):
        for kept in combinations(g.vertices, size):
            expected = bool(brute_perfect_matchings(induced_subgraph(g, kept)))
            assert table.matchable(table.mask(kept)) == expected, (sorted(g.edges), kept)


@given(graphs())
@settings(max_examples=100, deadline=None)
def test_the_subset_table_deletes_a_repeated_vertex_once(g):
    # G-u-u is G-u: a mask summed over the removed vertices would take u's
    # bit twice, which is the next vertex's bit
    table = SubsetTable(g)
    for u in g.vertices:
        assert table.mask([u, u]) == table.mask([u])
        assert table.without(u, u) == table.without(u), (sorted(g.edges), u)


def test_the_oracles_run_none_of_the_package_searches(monkeypatch):
    # the package's answers first, then every table oracle again with the
    # Edmonds search and the blossom pass refusing to run
    graphs = [h for g in _corpus(101)[:12] for h in _factorizable_family(g)] + mid_size_graphs(3)
    expected = []
    for h in graphs:
        own = GraphStructure(h)
        odd = delete_vertices(h, h.vertices[:1])
        expected.append(
            (
                own.allowed,
                own.partition.classes,
                own.saturated,
                {x: ge.parts() for x, ge in own.deletion_partitions.items()},
                saturate(h),
                is_factor_critical(odd),
                component_poset(h),
            )
        )

    def refuse(*args):
        raise AssertionError("an oracle ran the package's search")

    monkeypatch.setattr(cathedral.matching, "_edmonds_search", refuse)
    monkeypatch.setattr(cathedral.matching, "_blossom_pass", refuse)
    subset_table.cache_clear()
    with pytest.raises(AssertionError):
        final_search_exposable(graphs[0])
    for h, (allowed, classes, saturated, rows, closure, critical, poset) in zip(graphs, expected):
        where = sorted(h.edges)
        assert deletion_allowed_edges(h) == allowed, where
        assert deletion_partition(h) == classes, where
        assert deletion_is_saturated(h) == saturated, where
        assert {x: deleted_partition(h, x) for x in h.vertices} == rows, where
        assert restart_saturate(h) == closure, where
        assert deletion_is_factor_critical(delete_vertices(h, h.vertices[:1])) == critical, where
        assert sweep_order(h, poset.components) == poset.leq, where


@pytest.mark.parametrize("seed", sorted(CORPORA))
def test_saturate_grows_a_copy_of_the_graph_rows(seed):
    # saturate searches the graph's own rows until its first added edge,
    # then a copy it grows (whose verdicts the restart oracle checks
    # above): the graph's rows stay as built and refuse a stray append
    grew = 0
    for i, g in enumerate(_corpus(seed)):
        rows = g.index_adjacency
        for descending in (False, True):
            grew += len(saturate(g, descending=descending)[1]) > 1
        assert g.index_adjacency is rows, i
        assert rows == Graph(g.vertices, g.edges).index_adjacency, i
        assert all(type(row) is tuple for row in rows), i
    assert grew
    with pytest.raises(AttributeError):
        rows[0].append(0)


@pytest.mark.parametrize("seed", sorted(CORPORA))
def test_exposable_sets_match_their_definitions(seed):
    for i, g in enumerate(_corpus(seed)):
        for h in [g, *_deficient_family(g)]:
            where = f"graph {i}, vertices {list(h.vertices)}"
            assert gallai_edmonds(h).parts() == deletion_gallai_edmonds(h), where
            assert is_factor_critical(h) == deletion_is_factor_critical(h), where


@pytest.mark.parametrize("source", [101, 303, "sparse", "mid"])
def test_one_pass_marks_are_the_final_searches(source):
    # the blossom pass reads D off the searches that fail as it goes; the
    # oracle searches again from each root the final matching exposes
    if source == "sparse":
        corpus = sparse_many_component_graphs(40)
    elif source == "mid":
        corpus = mid_size_graphs(60)
    else:
        corpus = [h for g in _corpus(source) for h in [g, *_deficient_family(g)]]
    for i, g in enumerate(corpus):
        assert gallai_edmonds(g).d == final_search_exposable(g), (source, i, sorted(g.edges))


def test_marks_of_a_failed_search_survive_later_augmentations(monkeypatch):
    # a later root's augmentation flips the matching an earlier failed
    # search ran under; 40 of these 300 graphs do that
    augmented = []
    search = cathedral.matching._edmonds_search

    def recorded(*args):
        outer = search(*args)
        augmented.append(outer is None)
        return outer

    monkeypatch.setattr(cathedral.matching, "_edmonds_search", recorded)
    late = 0
    for i, g in enumerate(sparse_odd_graphs(300)):
        augmented.clear()
        d = gallai_edmonds(g).d
        if False in augmented and True in augmented[augmented.index(False) :]:
            late += 1
        assert d == final_search_exposable(g) == deletion_gallai_edmonds(g)[0], (i, sorted(g.edges))
    assert late >= 30, late


@pytest.mark.parametrize("source", [101, 303, "sparse"])
def test_each_union_verdict_matches_its_contraction(source):
    # every union of components containing the lower one, not only those
    # the order searches, so a wrong verdict cannot hide behind a right leq
    # matrix
    if source == "sparse":
        graphs = sparse_many_component_graphs(40)
    else:
        graphs = [h for g in _corpus(source) for h in _factorizable_family(g)]
    for i, g in enumerate(graphs):
        for h in (g, saturate(g)[0]):
            index, adj = h.positions, h.index_adjacency
            mate = _perfect_mate(adj)
            comps = factor_components(h).components
            for lower in comps:
                # the table of h contracted at the lower component, as the
                # sweep oracle asks it
                table = SubsetTable(Graph(*contract_by_rewrite(h, lower)))
                rest = [c for c in comps if c != lower]
                for bits in range(1 << len(rest)):
                    kept = frozenset().union(*(c for j, c in enumerate(rest) if bits >> j & 1))
                    shrunk = contract(induced_subgraph(h, lower | kept), lower).graph
                    inside = [index[v] for v in sorted(kept)]
                    outer = _contracted_outer(adj, mate, [index[v] for v in lower], inside)
                    verdict = all(outer[v] for v in inside)
                    where = (i, sorted(h.edges), lower, kept)
                    assert verdict == is_factor_critical(shrunk), where
                    assert verdict == table.critical(table.mask({min(lower), *kept})), where


def _above_visits(monkeypatch, graph):
    """The (merged, kept) position lists of every contraction search the
    component order of ``graph`` runs, with the host-array outer marks."""
    visits = []
    outer = cathedral.canonical._contracted_outer

    def recorded(adj, mate, merged, kept):
        marks = outer(adj, mate, merged, kept)
        visits.append((list(merged), list(kept), marks))
        return marks

    with monkeypatch.context() as patched:
        patched.setattr(cathedral.canonical, "_contracted_outer", recorded)
        component_poset(graph)
    return visits


@pytest.mark.parametrize("source", ["sparse", "mid"])
def test_the_host_array_contraction_marks_what_the_contracted_graph_exposes(
    monkeypatch, source
):
    # the order's searches run on G's arrays, with the lower union shrunk in
    # advance into the root blossom and every other vertex hidden; at each
    # (lower, union) its fixpoint visits, they must mark exactly what the
    # explicitly contracted graph's maximum matchings can leave exposed
    graphs = sparse_many_component_graphs(40) if source == "sparse" else mid_size_graphs(60)
    visited = 0
    for i, g in enumerate(graphs):
        for h in (g, saturate(g)[0]):
            vs = h.vertices
            for merged, kept, marks in _above_visits(monkeypatch, h):
                lower = frozenset(vs[v] for v in merged)
                union = lower | {vs[v] for v in kept}
                shrunk = contract(induced_subgraph(h, union), lower)
                exposable = gallai_edmonds(shrunk.graph).d
                where = (source, i, sorted(lower), sorted(union))
                assert shrunk.merged_vertex in exposable, where
                assert all(marks[v] for v in merged), where
                assert [marks[v] for v in kept] == [vs[v] in exposable for v in kept], where
                assert sum(marks) == len(merged) + sum(vs[v] in exposable for v in kept), where
                visited += 1
    assert visited > len(graphs)


@pytest.mark.parametrize("source", ["sparse", "mid"])
def test_each_deletion_row_marks_what_the_deleted_graph_exposes(source):
    # the deletion search runs on G's arrays with one hidden vertex: row i
    # must mark exactly D(G-u), read off G-u built explicitly
    graphs = sparse_many_component_graphs(20) if source == "sparse" else mid_size_graphs(20)
    for i, g in enumerate(graphs):
        for h in (g, saturate(g)[0]):
            structure = GraphStructure(h)
            for u, at in h.positions.items():
                row = structure.row(at)
                expected = gallai_edmonds(delete_vertices(h, [u])).d
                assert frozenset(compress(h.vertices, row)) == expected, (source, i, u)
                assert not row[at], (source, i, u)


def _count_order_searches(monkeypatch):
    """Record every Graph build, every Edmonds search, and the lower
    component (as its merged positions) of every contracted search."""
    built, searches, lowers = [], [], []
    init, search = Graph.__init__, cathedral.matching._edmonds_search
    trusted = Graph._trusted.__func__
    outer = cathedral.canonical._contracted_outer
    monkeypatch.setattr(Graph, "__init__", lambda *args, **kw: built.append(args) or init(*args, **kw))
    monkeypatch.setattr(
        Graph, "_trusted", classmethod(lambda *args: built.append(args) or trusted(*args))
    )
    monkeypatch.setattr(
        cathedral.matching,
        "_edmonds_search",
        lambda *args, **kwargs: searches.append(args[2]) or search(*args, **kwargs),
    )
    monkeypatch.setattr(
        cathedral.canonical,
        "_contracted_outer",
        lambda adj, mate, merged, kept: lowers.append(tuple(merged)) or outer(adj, mate, merged, kept),
    )
    return built, searches, lowers


@pytest.mark.parametrize("k", [6, 8, 20])
def test_order_builds_no_graph_and_runs_one_search_per_component(monkeypatch, k):
    # P_2k: its k components form an antichain, so the first search from
    # each component drops every other one and ends its fixpoint
    path = Graph(range(2 * k), [(v, v + 1) for v in range(2 * k - 1)])
    structure = GraphStructure(path)
    structure.components
    built, searches, lowers = _count_order_searches(monkeypatch)
    poset = structure.poset
    assert built == []
    # the greedy start matches a path perfectly, so the poset's own
    # perfect-matching computations add no search to the order's k
    assert len(searches) == len(lowers) == len(set(lowers)) == k
    assert poset.hasse == ()


def test_order_runs_fewer_searches_per_component_than_components(monkeypatch):
    # each search but the last of a component's fixpoint drops another
    # component, and none runs once no other component is left
    graphs = sparse_many_component_graphs(40)
    graphs += [saturate(g)[0] for g in graphs]
    for i, g in enumerate(graphs):
        structure = GraphStructure(g)
        k = len(structure.components)
        built, _, lowers = _count_order_searches(monkeypatch)
        structure.poset
        assert built == [], i
        assert lowers and max(Counter(lowers).values()) <= k - 1, i
        monkeypatch.undo()


def test_deficiency_check_rejects_a_wrong_exposable_set(monkeypatch):
    # the pass's matching is right and its failed searches mark nothing:
    # C5's one exposed vertex then has no component of G[D] to lie in
    module = importlib.import_module("cathedral.gallai_edmonds")
    blossom = module._blossom_pass

    def wrong(adj, hidden):
        mate, failures = blossom(adj, hidden)
        return mate, ((root, []) for root, _ in failures)

    monkeypatch.setattr(module, "_blossom_pass", wrong)
    with pytest.raises(StructureViolation, match="exposed vertices"):
        gallai_edmonds(C5)


def _refused_on_every_path(graph, match, tmp_path, capsys):
    """A wrong row is refused by the deletion partitions, by the analysis
    that writes them, and by ``analyze --ge`` with exit 4."""
    with pytest.raises(DeficiencyViolation, match=match):
        GraphStructure(graph).deletion_partitions
    with pytest.raises(DeficiencyViolation, match=match):
        analysis_dict(graph, include_deleted_partitions=True)
    edges = tmp_path / "graph.edges"
    edges.write_text(render_edge_list(graph))
    assert main(["analyze", str(edges), "--ge", "--format", "json"]) == 4
    captured = capsys.readouterr()
    assert captured.out == "" and re.search(match, captured.err), captured.err


def test_deficiency_check_rejects_a_wrong_deletion_set(monkeypatch, tmp_path, capsys):
    # every row empty: D is empty, so no G-x has its one exposed vertex
    empty = lambda self, i: [False] * len(self.mate)
    monkeypatch.setattr(GraphStructure, "row", empty)
    _refused_on_every_path(P4, "exposed vertices", tmp_path, capsys)


def test_deficiency_check_rejects_a_deletion_set_with_a_part_too_many(
    monkeypatch, tmp_path, capsys
):
    # two disjoint edges: D(G-0) is {1}, one part; every vertex but 0 adds
    # the part {2, 3}, which has no neighbour outside D to pay for it
    g = Graph(range(4), [(0, 1), (2, 3)])
    assert GraphStructure(g).deletion_partitions[0].d == frozenset({1})
    every_other = lambda self, i: [j != i for j in range(len(self.mate))]
    monkeypatch.setattr(GraphStructure, "row", every_other)
    _refused_on_every_path(g, r"1 exposed vertices, 2 parts of D, \|A\| = 0", tmp_path, capsys)


def test_deficiency_check_rejects_a_deletion_set_that_holds_its_deleted_vertex(
    monkeypatch, tmp_path, capsys
):
    # the row of K_4's last vertex marks itself and every vertex but 0: as
    # many marks as G-3 has vertices, but D is not G-3, so the check walks D
    # and finds 0 in A.  Only the check reads a row at or before its own
    # vertex, so the analysis computes everything else right and reaches it
    right = GraphStructure.row
    marks_x = lambda self, i: right(self, i) if i < 3 else [False, True, True, True]
    monkeypatch.setattr(GraphStructure, "row", marks_x)
    match = r"1 exposed vertices, 1 parts of D, \|A\| = 1"
    _refused_on_every_path(K4, match, tmp_path, capsys)


@pytest.mark.parametrize("source", ["sparse", "mid"])
def test_the_analysis_writes_the_checked_deletion_partitions(source):
    # each entry of ``deleted_partitions`` is the structure's checked
    # partition of G-x and its definition, read off the subset table, as
    # ascending lists.  The check's two branches are both reached: the walk
    # on every row of the sparse graphs, and on the mid-size ones also the
    # count alone, where D(G-x) is all of G-x
    graphs = sparse_many_component_graphs(40) if source == "sparse" else mid_size_graphs(60)
    whole = 0
    for i, g in enumerate(graphs):
        written = analysis_dict(g, include_deleted_partitions=True)["deleted_partitions"]
        partitions = GraphStructure(g).deletion_partitions
        assert [entry["vertex"] for entry in written] == list(partitions) == list(g.vertices)
        for entry in written:
            x = entry["vertex"]
            parts = (entry["d"], entry["a"], entry["c"])
            assert parts == tuple(sorted(part) for part in partitions[x].parts()), (i, x)
            assert parts == tuple(sorted(part) for part in deleted_partition(g, x)), (i, x)
            whole += len(entry["d"]) == g.order - 1
    if source == "mid":
        assert 0 < whole < sum(g.order for g in graphs)
    else:
        assert whole == 0


def _assert_threshold(query, answer, spent):
    """The query gives the reference answer on exactly the reference's
    expansions, and aborts on one fewer."""
    assert query(spent) == answer
    if spent:
        with pytest.raises(SearchBudgetExceeded):
            query(spent - 1)


PARITIES = {
    PathKind.SATURATED: (True, True),
    PathKind.BALANCED: (True, False),
    PathKind.EXPOSED: (False, False),
}


@given(factorizable_graphs(max_vertices=6))
@settings(max_examples=25, deadline=None)
def test_walker_aborts_at_the_loop_thresholds(g):
    for m in enumerate_perfect_matchings(g, cap=4).matchings:
        _assert_threshold(
            lambda b: alternating_reachability(g, m, budget=b) is not None,
            True,
            reachability_expansions(g, m),
        )
        for u, v in combinations(g.vertices, 2):
            for kind, (first, last) in PARITIES.items():
                _assert_threshold(
                    lambda b: alternating_path_exists(g, m, u, v, kind, budget=b),
                    *path_search(g, m, u, v, first, last),
                )
            _assert_threshold(
                lambda b: list(iter_saturated_paths(g, m, u, v, budget=b)),
                *saturated_paths(g, m, u, v),
            )
        for e in sorted(g.edges):
            _assert_threshold(
                lambda b: alternating_circuit_exists(g, m, e, budget=b),
                *circuit_search(g, m, e),
            )


def _confinements(g: Graph, draw: int) -> list[frozenset[int]]:
    """Vertex sets a search is confined to, as the verifier confines them:
    all but one vertex, all but one factor-component, and a subset drawn
    from ``draw``'s bits; none for the empty graph."""
    if not g.order:
        return []
    comp = next(c for c in factor_components(g).components if g.vertices[0] in c)
    return [
        g.vertex_set - {g.vertices[draw % g.order]},
        g.vertex_set - comp,
        frozenset(v for i, v in enumerate(g.vertices) if draw >> i & 1),
    ]


def _assert_confined_equals_subgraph(g, m, kept, pairs):
    """``kept=`` on the host answers as the induced subgraph with the
    restricted matching does, on the same smallest completing budget: the
    reachability sweep, and each path kind between the given pairs."""
    sub = induced_subgraph(g, kept)
    sub_m = restrict_matching(m, sub)
    reach = alternating_reachability(sub, sub_m)
    spent = reachability_expansions(sub, sub_m)
    for query in (
        lambda b: alternating_reachability(g, m, kept=kept, budget=b),
        lambda b: alternating_reachability(sub, sub_m, budget=b),
    ):
        _assert_threshold(query, reach, spent)
    for u, v in pairs:
        for kind, (first, last) in PARITIES.items():
            verdict, spent = path_search(sub, sub_m, u, v, first, last)
            for query in (
                lambda b: alternating_path_exists(g, m, u, v, kind, kept=kept, budget=b),
                lambda b: alternating_path_exists(sub, sub_m, u, v, kind, budget=b),
            ):
                _assert_threshold(query, verdict, spent)
        paths, spent = saturated_paths(sub, sub_m, u, v)
        for query in (
            lambda b: list(iter_saturated_paths(g, m, u, v, kept=kept, budget=b)),
            lambda b: list(iter_saturated_paths(sub, sub_m, u, v, budget=b)),
        ):
            _assert_threshold(query, paths, spent)


@pytest.mark.parametrize("seed", sorted(CORPORA))
def test_confined_searches_equal_the_induced_subgraph(seed):
    # pairs from the least kept vertex to every other, so the queries per
    # graph stay linear; the fuzzed twin takes every pair
    for i, g in enumerate(_corpus(seed)):
        for h in _factorizable_family(g):
            m = maximum_matching(h)
            for kept in _confinements(h, i):
                if kept:
                    low = min(kept)
                    pairs = [(low, v) for v in sorted(kept) if v != low]
                    _assert_confined_equals_subgraph(h, m, kept, pairs)


@given(factorizable_graphs(max_vertices=8), st.integers(min_value=0, max_value=255))
@settings(max_examples=40, deadline=None)
def test_confined_searches_equal_the_induced_subgraph_fuzzed(g, draw):
    for m in enumerate_perfect_matchings(g, cap=2).matchings:
        for kept in _confinements(g, draw):
            _assert_confined_equals_subgraph(g, m, kept, combinations(sorted(kept), 2))


def _assert_deletion_paths_are_the_sweep_from_x(g: Graph, cap: int) -> int:
    """Under each of the first ``cap`` perfect matchings M of G and each
    vertex x, M less its edge xp exposes p in G-x, and u has a balanced or an
    exposed path to p in G-x, by the oracle's search, iff the sweep of G
    under M finds a saturated or a balanced path from x to u (p's trivial
    balanced path is the edge xp).  Returns the vertices checked."""
    checked = 0
    for m in enumerate_perfect_matchings(g, cap).matchings:
        reach = alternating_reachability(g, m)
        for x in g.vertices:
            p = m.partner[x]
            rest = delete_vertices(g, (x,))
            near = Matching(rest, (e for e in m.edges if x not in e))
            for u in rest.vertices:
                if u == p:
                    balanced, exposed = True, False
                else:
                    balanced = path_search(rest, near, u, p, True, False)[0]
                    exposed = path_search(rest, near, u, p, False, False)[0]
                assert balanced == (u in reach.saturated[x]), (sorted(g.edges), x, u)
                assert exposed == (u in reach.balanced[x]), (sorted(g.edges), x, u)
                checked += 1
    return checked


@pytest.mark.parametrize(
    "corpus, cap",
    [(lambda: sparse_many_component_graphs(40), 2), (lambda: mid_size_graphs(10), 1)],
    ids=["sparse", "mid-size"],
)
def test_deletion_paths_are_the_sweep_from_x(corpus, cap):
    # the graphs and their closures; the exhaustive oracle searches bound
    # how many of each corpus, and of their matchings, fit in the suite
    checked = sum(
        _assert_deletion_paths_are_the_sweep_from_x(h, cap)
        for g in corpus()
        for h in (g, saturate(g)[0])
    )
    assert checked > 7000


@given(factorizable_graphs(max_vertices=8))
@settings(max_examples=60, deadline=None)
def test_deletion_paths_are_the_sweep_from_x_fuzzed(g):
    _assert_deletion_paths_are_the_sweep_from_x(g, 8)


def _assert_enumeration_equals_the_set_version(g):
    for cap in (1, 2, 64):
        enum = enumerate_perfect_matchings(g, cap)
        found, truncated = set_perfect_matchings(g, cap)
        assert [m.edges for m in enum] == [frozenset(pm) for pm in found], (sorted(g.edges), cap)
        assert enum.truncated == truncated, (sorted(g.edges), cap)
        assert all(m == Matching(g, m.edges) for m in enum)


@pytest.mark.parametrize("seed", sorted(CORPORA))
def test_enumeration_equals_the_set_version(seed):
    for g in _corpus(seed):
        for h in _factorizable_family(g):
            _assert_enumeration_equals_the_set_version(h)


@given(factorizable_graphs(max_vertices=10))
@settings(max_examples=60, deadline=None)
def test_enumeration_equals_the_set_version_fuzzed(g):
    _assert_enumeration_equals_the_set_version(g)


@pytest.mark.parametrize("seed", sorted(CORPORA))
def test_kept_answers_as_the_induced_subgraph(monkeypatch, seed):
    # the factorizability test also runs as many searches as on the
    # subgraph: a root with no kept neighbour is not searched
    searches = []
    search = cathedral.matching._edmonds_search
    monkeypatch.setattr(
        cathedral.matching, "_edmonds_search", lambda *args: searches.append(1) or search(*args)
    )
    rng = random.Random(seed)
    for g in _corpus(seed):
        for h in _factorizable_family(g):
            for kept in kept_sets(h, rng):
                assert_kept_is_the_induced_subgraph(h, kept)
                searches.clear()
                is_factorizable(induced_subgraph(h, kept))
                theirs = len(searches)
                is_factorizable(h, kept=kept)
                assert len(searches) == 2 * theirs, (sorted(h.edges), sorted(kept))


def test_kept_outside_the_graph_is_refused():
    g = induced_subgraph(P4, (1, 2, 3))
    for kept in ((0, 1), (1, 2, 7)):
        with pytest.raises(ValueError):
            is_factorizable(g, kept=kept)
        for ask in (is_factor_critical, gallai_edmonds):
            with pytest.raises(ValueError):
                ask(g, kept=kept)
