import importlib

import pytest
from hypothesis import given, settings

import cathedral.matching
from cathedral.errors import NotFactorizableError
from cathedral.gallai_edmonds import gallai_edmonds
from cathedral.graph import Graph, delete_vertices, induced_subgraph
from cathedral.matching import (
    _perfect_mate,
    is_factor_critical,
    is_factorizable,
    matching_number,
    maximum_matching,
)
from cathedral.verify import TrialConfig, random_factorizable_graph

from helpers import C5, P4, T, factorizable_graphs, graphs
from oracles import brute_matching_number, final_search_exposable


def test_pendant_fixture_deletions():
    ge = gallai_edmonds(delete_vertices(T, {2}))
    assert (ge.d, ge.a, ge.c) == (frozenset({3}), frozenset(), frozenset({0, 1}))
    ge = gallai_edmonds(delete_vertices(T, {3}))
    assert (ge.d, ge.a, ge.c) == (frozenset({0, 1, 2}), frozenset(), frozenset())


def test_an_all_exposable_subgraph_counts_its_own_parts():
    # D is every kept vertex, so the identity counts the parts of G less the
    # one vertex left out: two triangles joined through 3 have one part and
    # two without 3, and a triangle beside the isolated 3 has two and one
    triangles = [(0, 1), (1, 2), (0, 2), (4, 5), (5, 6), (4, 6)]
    bridged = Graph(range(7), [*triangles, (0, 3), (3, 4)])
    beside = Graph(range(4), triangles[:3])
    for g in (bridged, beside):
        kept = g.vertex_set - {3}
        assert gallai_edmonds(g, kept=kept).parts() == (kept, frozenset(), frozenset())
    disjoint = Graph([0, 1, 2, 4, 5, 6], triangles)
    assert gallai_edmonds(disjoint).parts() == (disjoint.vertex_set, frozenset(), frozenset())


def test_factorizable_graph_is_all_inner():
    ge = gallai_edmonds(P4)
    assert (ge.d, ge.a, ge.c) == (frozenset(), frozenset(), frozenset({0, 1, 2, 3}))


def test_odd_cycle_all_exposable():
    ge = gallai_edmonds(C5)
    assert ge.d == C5.vertex_set and not ge.a and not ge.c


@given(graphs())
@settings(max_examples=80)
def test_partition_and_definition(g):
    ge = gallai_edmonds(g)
    assert ge.d | ge.a | ge.c == g.vertex_set
    assert not (ge.d & ge.a) and not (ge.d & ge.c) and not (ge.a & ge.c)
    nu = brute_matching_number(g)
    for v in g.vertices:
        exposable = brute_matching_number(delete_vertices(g, (v,))) == nu
        assert (v in ge.d) == exposable
    assert ge.d == final_search_exposable(g)


@given(factorizable_graphs())
@settings(max_examples=40)
def test_factorizable_deletion_never_isolates_matching_number(g):
    # deleting one vertex of a factorizable graph drops the matching number
    for v in g.vertices:
        assert matching_number(delete_vertices(g, (v,))) == g.order // 2 - 1


def _counted_searches(monkeypatch) -> list[int]:
    searches = []
    search = cathedral.matching._edmonds_search
    monkeypatch.setattr(
        cathedral.matching, "_edmonds_search", lambda *args: searches.append(args[2]) or search(*args)
    )
    return searches


def test_the_star_runs_one_search_per_exposed_leaf(monkeypatch):
    # vertex 0 joined to 1..400 and the edge 400-401: the greedy start leaves
    # the 398 leaves 2..399 exposed, and the search from each fails
    star = Graph(range(402), [(0, v) for v in range(1, 401)] + [(400, 401)])
    searches = _counted_searches(monkeypatch)
    ge = gallai_edmonds(star)
    assert len(searches) <= 400
    assert ge.parts() == (frozenset(range(1, 400)), frozenset({0}), frozenset({400, 401}))


def test_each_reader_of_the_blossom_pass_runs_only_the_searches_it_needs(monkeypatch):
    # vertex 0 joined to 1..4000 and the edge 4000-4001: the greedy start
    # leaves the 3,998 leaves 2..3999 exposed, and the search from each fails
    star = Graph(range(4002), [(0, v) for v in range(1, 4001)] + [(4000, 4001)])
    searches = _counted_searches(monkeypatch)
    # only gallai_edmonds merges the marks, from its own binding of the pass
    module = importlib.import_module("cathedral.gallai_edmonds")
    merges = []
    blossom = module._blossom_pass
    monkeypatch.setattr(module, "_blossom_pass", lambda *args: merges.append(1) or blossom(*args))
    assert len(maximum_matching(star).edges) == 2
    assert (len(searches), len(merges)) == (3998, 0)
    searches.clear()
    parts = (frozenset(range(1, 4000)), frozenset({0}), frozenset({4000, 4001}))
    assert gallai_edmonds(star).parts() == parts
    assert (len(searches), len(merges)) == (3998, 1)
    searches.clear()
    assert not is_factorizable(star)
    assert len(searches) == 1
    searches.clear()
    with pytest.raises(NotFactorizableError):
        _perfect_mate(star.index_adjacency)
    assert len(searches) == 1
    # odd order is refused before any search
    searches.clear()
    with pytest.raises(NotFactorizableError):
        _perfect_mate(Graph(range(5), [(0, v) for v in range(1, 5)]).index_adjacency)
    assert searches == []
    # K_{1,4} has odd order and is not factor-critical: the first failed
    # search, from leaf 2, marks 2 and 1 only, and leaves 3 and 4 unsearched
    searches.clear()
    assert not is_factor_critical(Graph(range(5), [(0, v) for v in range(1, 5)]))
    assert searches == [2]
    searches.clear()
    assert is_factor_critical(C5)
    assert len(searches) == 1


def test_a_deletion_partition_runs_the_searches_of_one_blossom_pass(monkeypatch):
    # G-x asked on G's index runs the searches of G-x's own blossom pass,
    # and no second pass or search
    searches = _counted_searches(monkeypatch)
    config = TrialConfig(seed=0, max_vertices=10)
    total = 0
    for trial in range(30):
        g = random_factorizable_graph(config, trial)
        for x in g.vertices:
            kept = g.vertex_set - {x}
            sub = induced_subgraph(g, kept)
            searches.clear()
            maximum_matching(sub)
            theirs = len(searches)
            searches.clear()
            gallai_edmonds(g, kept=kept)
            assert len(searches) == theirs, (sorted(g.edges), x)
            total += theirs
    assert total
