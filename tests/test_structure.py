"""One perfect matching and one set of rows D(G-u) per graph.

Every reader of the canonical structures holds one per-graph structure, so
an `analyze` request builds one structure, computes one perfect matching
and checks factorizability once, and its deletion partitions build no graph
and walk only the rows short of G-x, reading the others off one low-point
pass.  `decompose` reads every level and foundation off the input's one
structure, and `construct_tree` builds one structure per foundation and one
for its whole output, which for a one-level tree is the foundation's; both
find each foundation with contraction searches instead of computing the
component order, and `foundation_via_ge` on a saturated graph runs one.
`saturate` keeps its own perfect matching and searches one row per run of
u.  The verifier reads one structure per graph it grows, reads the rebuilt
graph's rows off the structure `construct_tree` checked it on, builds each
induced part and tests each G-u-v once per context, reads the paths of
every G-x off the host's sweep, and its confined path searches build no
subgraph.  Every search reads its graph's one position index, built on
first use.  The counts are taken on every cathedral binding of the counted
functions, and graphs are counted on both constructors, the checked one and
the unchecked `Graph._trusted`.
"""

import functools
import json
import random
import sys
from collections import Counter
from itertools import combinations

import pytest

import cathedral.graph
import cathedral.matching
import cathedral.verify
from cathedral.canonical import GraphStructure, factor_components
from cathedral.cli import main
from cathedral.construction import (
    ConstructionSpec,
    construct,
    construct_tree,
    decompose,
    foundation_via_ge,
    saturate,
)
from cathedral.errors import ComponentLimitError
from cathedral.graph import Graph, render_edge_list
from cathedral.serialize import analysis_dict
from cathedral.verify import (
    _CHECKS,
    TrialConfig,
    _check_upward_reachability,
    _run_one,
    _TrialContext,
    random_factorizable_graph,
    run_suite,
    run_trials,
)

from helpers import chain_graph, chain_tree, path, reversed_ids


def _seeded(n: int, p: float, seed: int, keep) -> Graph:
    """The first planted-matching graph of the seed whose number of
    factor-components ``keep`` accepts."""
    rng = random.Random(seed)
    while True:
        edges = {(u, u + 1) for u in range(0, n, 2)}
        edges |= {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p}
        g = Graph(range(n), edges)
        if keep(len(factor_components(g))):
            return g


# the graphs several tests share, by name; each is built on its first use,
# so collecting this module runs no search and a fault in one fails tests,
# not the collection
_CORPUS = {
    "elementary": lambda: _seeded(20, 0.3, 1, lambda k: k == 1),
    "sparse": lambda: _seeded(18, 0.1, 2, lambda k: k >= 4),
    "closure-ascending": lambda: saturate(path(80))[0],
    "closure-descending": lambda: saturate(path(80), descending=True)[0],
    "closure-reversed": lambda: reversed_ids(corpus("closure-ascending")),
    "chain-reversed": lambda: reversed_ids(chain_graph(40)),
    **{f"p{order}-closure": lambda order=order: saturate(path(order))[0] for order in (8, 20, 40)},
    # K_4 with the tower K_2 over its class {0}: the least degree, 2, lies
    # in the tower, the greatest, 5, at 0 in the foundation
    "k4-tower": lambda: Graph(range(6), [*combinations(range(4), 2), (4, 5), (0, 4), (0, 5)]),
}


@functools.cache
def corpus(name: str) -> Graph:
    return _CORPUS[name]()


def _rebind(monkeypatch, original, replacement) -> None:
    """Replace every cathedral module's binding of ``original``."""
    for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "cathedral"]:
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, replacement)


def _count(monkeypatch) -> Counter:
    """Count structures and graphs built (checked or not), a structure's
    deletion rows searched ("rows") and structures with a row searched
    ("searched"), and calls of `is_factorizable`, the blossom pass
    `_blossom_pass`, the perfect matching a structure or saturate keeps,
    `_perfect_mate`, the single-root search `_rooted_marks`, the contraction
    search on it, `_contracted_outer`, and the minimum test that reads it,
    `GraphStructure.is_minimum_of`, from now on."""
    counts: Counter = Counter()
    for name in (
        "is_factorizable",
        "_blossom_pass",
        "_perfect_mate",
        "_rooted_marks",
        "_contracted_outer",
    ):
        original = getattr(cathedral.matching, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        _rebind(monkeypatch, original, counted)
    row = GraphStructure.row

    def counted_row(self, i):
        # a row is searched when it is first read
        if self.rows[i] is None:
            counts.update(["rows"] + ["searched"] * all(r is None for r in self.rows))
        return row(self, i)

    monkeypatch.setattr(GraphStructure, "row", counted_row)
    minimum_of = GraphStructure.is_minimum_of
    monkeypatch.setattr(
        GraphStructure,
        "is_minimum_of",
        lambda self, *args: counts.update(["is_minimum_of"]) or minimum_of(self, *args),
    )
    # a _TrialContext builds through GraphStructure's __init__ too
    init = GraphStructure.__init__
    monkeypatch.setattr(
        GraphStructure,
        "__init__",
        lambda self, graph: counts.update(["structures"]) or init(self, graph),
    )
    build = Graph.__init__
    monkeypatch.setattr(
        Graph,
        "__init__",
        lambda self, *args, **kwargs: counts.update(["graphs"]) or build(self, *args, **kwargs),
    )
    # the unchecked constructor behind induced_subgraph and add_edges
    trusted = Graph._trusted.__func__
    monkeypatch.setattr(
        Graph,
        "_trusted",
        classmethod(lambda cls, *args: counts.update(["graphs"]) or trusted(cls, *args)),
    )
    return counts


@pytest.mark.parametrize(
    "name, ge", [("elementary", True), ("sparse", False)], ids=["elementary-ge", "sparse"]
)
def test_analyze_reads_one_table(monkeypatch, name, ge):
    # one pass, the structure's: it is the precondition and keeps the perfect matching
    graph = corpus(name)
    counts = _count(monkeypatch)
    analysis = analysis_dict(graph, include_deleted_partitions=ge)
    assert (counts["_perfect_mate"], counts["is_factorizable"]) == (1, 0)
    assert counts["_blossom_pass"] == 1
    assert ("deleted_partitions" in analysis) == ge


def test_analyze_ge_builds_no_graph_per_deletion(monkeypatch, tmp_path, capsys):
    # the parse only: the components walk the allowed edges by position, and
    # the deficiency check of each G-x counts the components of G[D] on G's
    # own adjacency
    graph = corpus("elementary")
    path = tmp_path / "elementary.edges"
    path.write_text(render_edge_list(graph))
    counts = _count(monkeypatch)
    assert main(["analyze", str(path), "--ge", "--format", "json"]) == 0
    assert len(json.loads(capsys.readouterr().out)["deleted_partitions"]) == graph.order
    assert (counts["graphs"], counts["_perfect_mate"]) == (1, 1)


def test_each_graph_builds_one_index(monkeypatch, tmp_path, capsys):
    # the precondition, the rows and the structure's readers share the
    # parsed graph's index; the allowed-edge skeleton is never searched.
    # Holding every indexed graph keeps its id from being reused
    path = tmp_path / "elementary.edges"
    path.write_text(render_edge_list(corpus("elementary")))
    indexed, derived = [], []
    prop = Graph.__dict__["index_adjacency"]
    build = prop.func
    monkeypatch.setattr(prop, "func", lambda graph: indexed.append(graph) or build(graph))
    assert main(["analyze", str(path), "--ge", "--format", "json"]) == 0
    assert len(indexed) == 1
    # an induced subgraph builds its own index from its own edges, like any
    # graph, whether or not its host holds one
    induce = cathedral.graph.induced_subgraph

    def derive(*args):
        derived.append(induce(*args))
        return derived[-1]

    _rebind(monkeypatch, induce, derive)
    # the suite searches 49 distinct graphs and builds one index for each;
    # 9 of them are induced subgraphs (the parts it compares against), and
    # each G-x and each G-u-v is asked on its host's index, so none is built
    indexed.clear()
    config = TrialConfig(seed=0)
    graph = random_factorizable_graph(config, 0)
    run_suite(graph, config)
    assert graph.order == 8
    assert (len(indexed), len(derived)) == (49, 9)
    assert len({id(graph) for graph in indexed}) == 49
    assert {id(graph) for graph in derived} <= {id(graph) for graph in indexed}


def test_decompose_fills_one_table(monkeypatch):
    closure = saturate(path(40))[0]
    counts = _count(monkeypatch)
    tree = decompose(closure)
    decomposed = counts["_perfect_mate"]
    # construct_tree checks each foundation on its own structure, then the
    # whole output on one
    counts.clear()
    assert construct_tree(tree) == closure
    levels = 0
    while tree is not None:
        levels += 1
        (tree,) = [sub for _, sub in tree.classes if sub is not None] or [None]
    assert levels == 20
    assert (decomposed, counts["_perfect_mate"]) == (1, levels + 1)


def test_a_chain_tree_runs_one_contraction_search_per_level(monkeypatch):
    # each level's foundation is its first component, so the first search
    # finds it and no component order is computed
    tree = chain_tree(48)
    graph = construct_tree(tree)
    assert graph == chain_graph(48)
    counts = _count(monkeypatch)
    assert decompose(graph) == tree
    assert (counts["_contracted_outer"], counts["_perfect_mate"]) == (48, 1)
    counts.clear()
    assert construct_tree(tree) == graph
    assert (counts["_contracted_outer"], counts["_perfect_mate"]) == (48, 49)


@pytest.mark.parametrize(
    "name", ["closure-ascending", "closure-descending", "closure-reversed", "chain-reversed"]
)
def test_each_level_runs_one_contraction_search_however_ids_fall(monkeypatch, name):
    # 40 levels, each foundation named by degree and checked by one search;
    # trying each level's components in id order ran 820 searches on the
    # ascending closure and on the reversed chain
    graph = corpus(name)
    counts = _count(monkeypatch)
    tree = decompose(graph)
    assert counts["_contracted_outer"] == 40
    counts.clear()
    assert construct_tree(tree) == graph
    assert counts["_contracted_outer"] == 40


@pytest.mark.parametrize(
    "name",
    [
        pytest.param("closure-ascending", id="closure"),
        "chain-reversed",
        "p8-closure",
        "p20-closure",
        "p40-closure",
        "k4-tower",
    ],
)
def test_the_minimum_is_tried_at_the_greatest_degree_first(monkeypatch, name):
    # the component of the vertex of greatest degree is the foundation of a
    # saturated graph; trying the components in id order ran 40 searches on
    # the first two, trying that component last ran one per component, and
    # trying the component of a vertex of least degree first ran two on the
    # tower graph
    graph = corpus(name)
    tree = decompose(graph)
    counts = _count(monkeypatch)
    assert foundation_via_ge(graph) == tree.foundation_vertices
    assert (counts["is_minimum_of"], counts["_contracted_outer"]) == (1, 1)


def _count_walks(monkeypatch) -> Counter:
    """Count the component walks `_walk_parts` and the low-point passes
    `_parts_less_each` from now on."""
    counts: Counter = Counter()
    for name in ("_walk_parts", "_parts_less_each"):
        original = getattr(cathedral.graph, name)

        def counted(*args, _name=name, _original=original):
            counts[_name] += 1
            return _original(*args)

        _rebind(monkeypatch, original, counted)
    return counts


def test_a_bicritical_graph_walks_no_deletion(monkeypatch):
    # every class of K_6 is a singleton, so each D(G-x) is V-x, with A and C
    # empty, and the one low-point pass counts every G-x's parts
    k6 = Graph(range(6), combinations(range(6), 2))
    counts = _count_walks(monkeypatch)
    partitions = GraphStructure(k6).deletion_partitions
    assert {x: ge.parts() for x, ge in partitions.items()} == {
        x: (k6.vertex_set - {x}, frozenset(), frozenset()) for x in k6.vertices
    }
    assert (counts["_walk_parts"], counts["_parts_less_each"]) == (0, 1)


@pytest.mark.parametrize(
    "name, short",
    [("elementary", 0), ("sparse", 18), ("p8-closure", 7)],
    ids=["elementary", "sparse", "p8-closure"],
)
def test_the_deletion_partitions_walk_exactly_the_rows_short_of_g_less_x(
    monkeypatch, name, short
):
    # a fresh copy, so no earlier test's pass is cached on the graph
    graph = Graph(corpus(name).vertices, corpus(name).edges)
    structure = GraphStructure(graph)
    n = graph.order
    assert sum(structure.row(i).count(True) < n - 1 for i in range(n)) == short
    counts = _count_walks(monkeypatch)
    structure.deletion_partitions
    assert (counts["_walk_parts"], counts["_parts_less_each"]) == (short, int(short < n))


def test_construct_tree_runs_at_most_two_searches_per_vertex(monkeypatch):
    # one search per vertex of each K2 foundation's structure, one per vertex
    # of the output's, and one contraction search per level: 383 of them,
    # where a structure per level output ran 9408
    tree, graph = chain_tree(96), chain_graph(96)
    searches = []
    search = cathedral.matching._edmonds_search
    monkeypatch.setattr(
        cathedral.matching,
        "_edmonds_search",
        lambda *args, **kwargs: searches.append(args[2]) or search(*args, **kwargs),
    )
    assert construct_tree(tree) == graph
    assert len(searches) <= 2 * graph.order


def test_a_one_level_construction_fills_one_table(monkeypatch):
    # with every tower empty the output is the foundation, read off its
    # structure; each empty tower's structure has no row to search
    closure = saturate(corpus("elementary"))[0]
    tree = decompose(closure)
    assert all(sub is None for _, sub in tree.classes)
    counts = _count(monkeypatch)
    assert construct_tree(tree) == closure
    assert (counts["_perfect_mate"], counts["searched"]) == (1, 1)
    counts.clear()
    spec = ConstructionSpec(closure, {cls: Graph() for cls, _ in tree.classes})
    assert construct(spec) == closure
    assert (counts["_perfect_mate"], counts["searched"]) == (1 + len(tree.classes), 1)


def test_a_deep_chain_tree_runs_one_deletion_search_per_vertex(monkeypatch):
    # every level reads the input's rows, so each vertex is searched once
    graph = chain_graph(96)
    counts = _count(monkeypatch)
    assert decompose(graph) == chain_tree(96)
    assert counts["_perfect_mate"] == 1
    assert counts["rows"] <= 192 and counts["_contracted_outer"] <= 96


def test_the_foundation_is_found_without_the_component_order(monkeypatch):
    closure = saturate(path(40))[0]
    tree = decompose(closure)
    orders = []
    order = GraphStructure.__dict__["poset"].func
    monkeypatch.setattr(
        GraphStructure, "poset", property(lambda self: orders.append(self) or order(self))
    )
    assert decompose(closure) == tree
    assert construct_tree(tree) == closure
    assert foundation_via_ge(closure) == tree.foundation_vertices
    assert orders == []


def test_trial_context_artifacts_share_one_table(monkeypatch):
    # and the context, a structure, runs one pass, its own
    counts = _count(monkeypatch)
    ctx = _TrialContext(corpus("elementary"), TrialConfig(seed=0))
    for artifact in ("components", "partition", "poset", "saturated", "deletion_partitions"):
        getattr(ctx, artifact)
    assert (counts["structures"], counts["_perfect_mate"], counts["_blossom_pass"]) == (1, 1, 1)
    assert counts["is_factorizable"] == 0


def test_verify_reads_the_tables_of_the_graphs_it_holds(monkeypatch):
    # the tree decomposes on the context's own structure, both construction
    # checks read the structure construct_tree checked the rebuilt graph on,
    # and the part checks read one context per component, foundation and tower
    config = TrialConfig(seed=0)
    closure = saturate(random_factorizable_graph(config, 0))[0]
    ctx = _TrialContext(closure, config)
    counts = _count(monkeypatch)
    mates = {}
    for name, check in _CHECKS:
        before = counts["_perfect_mate"]
        assert _run_one(name, check, ctx)[0].status != "fail"
        mates[name] = counts["_perfect_mate"] - before
    assert mates["construction-foundation-minimum"] == 0
    assert mates["construction-output-saturated"] == 0
    assert mates["saturated-partition-matches-parts"] == mates["allowed-edges-from-parts"] == 0
    # one perfect matching in each scan order's saturate, and one in the
    # context both share, as both give this closure back
    assert mates["closure-saturated-and-preserving"] == 3
    # the context's own structure was built with the context
    assert sum(mates.values()) == 13


def test_the_edge_witness_reads_one_table_per_grown_graph(monkeypatch):
    # each grown graph's components and order come from one structure, and
    # each set of one or two added edges is built once, for both ordered
    # pairs of the two components it joins
    config = TrialConfig(seed=0)
    ctx = _TrialContext(random_factorizable_graph(config, 0), config)
    counts = _count(monkeypatch)
    mates = {}
    for name, check in _CHECKS:
        before = counts["_perfect_mate"]
        assert _run_one(name, check, ctx)[0].status != "fail"
        mates[name] = counts["_perfect_mate"] - before
    assert mates["incomparable-pair-edge-witness"] == 31
    # the context's own structure was built with the context
    assert sum(mates.values()) == 39


def _record(monkeypatch, name: str) -> list:
    """The arguments, keyword values last, of every call of
    `cathedral.verify.<name>` from now on; holding them keeps every graph
    alive, so no graph's id is reused."""
    calls = []
    original = getattr(cathedral.verify, name)
    monkeypatch.setattr(
        cathedral.verify,
        name,
        lambda *args, **kwargs: calls.append((*args, *kwargs.values())) or original(*args, **kwargs),
    )
    return calls


def test_verify_asks_each_pair_and_builds_each_part_once(monkeypatch):
    # the only is_factorizable calls of a context test G-u-v, once per
    # unordered pair, and the only induced_subgraph calls build its parts
    pairs = _record(monkeypatch, "is_factorizable")
    parts = _record(monkeypatch, "induced_subgraph")
    config = TrialConfig(seed=0)
    graph = random_factorizable_graph(config, 0)
    for ctx in (_TrialContext(graph, config), _TrialContext(saturate(graph)[0], config)):
        pairs.clear()
        parts.clear()
        for name, check in _CHECKS:
            assert _run_one(name, check, ctx)[0].status != "fail"
        n = ctx.graph.order
        assert len({kept for _, kept in pairs}) == len(pairs) == n * (n - 1) // 2
        assert len({kept for _, kept in parts}) == len(parts) == len(ctx.parts)
    # the closure's four components, one of them the foundation, and its one
    # tower, the union of the other three
    assert len(ctx.components) == 4 and len(parts) == 5
    pairs.clear()
    parts.clear()
    trials = 100
    reports = run_trials(TrialConfig(seed=0, trials=trials, max_vertices=8))
    assert all(report.ok for report in reports)
    # one test per distinct pair of each context, and no precondition check
    # besides the context's own: 3374 tests of 1201 distinct pairs when each
    # check asked
    assert len(pairs) == 1201
    assert len({(id(host), frozenset(kept)) for host, kept in parts}) == len(parts) == 396


def test_confined_path_queries_build_no_subgraph(monkeypatch):
    # both confined queries of the upward check walk the host's arrays with
    # the vertices outside the region blocked.  The closure has a tower, so
    # its regions are proper subsets; a region of every vertex would be read
    # off the sweep
    config = TrialConfig(seed=0)
    ctx = _TrialContext(saturate(random_factorizable_graph(config, 0))[0], config)
    for base in range(len(ctx.poset)):
        ctx.upsets[base]
    ctx.reach[0]
    calls: Counter = Counter()
    regions = []
    for name in ("induced_subgraph", "restrict_matching", "alternating_path_exists"):
        original = getattr(cathedral.graph, name, None) or getattr(cathedral.matching, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            regions.append(kwargs.get("kept"))
            return _original(*args, **kwargs)

        _rebind(monkeypatch, original, counted)
    counts = _count(monkeypatch)
    _check_upward_reachability(ctx)
    assert calls["alternating_path_exists"] == len(regions) > 0
    assert all(kept < ctx.graph.vertex_set for kept in regions)
    assert calls["induced_subgraph"] == calls["restrict_matching"] == counts["graphs"] == 0


def test_saturate_fills_one_growing_table(monkeypatch):
    # two passes: its precondition's, which the benchmark counts, and its
    # perfect matching's
    counts = _count(monkeypatch)
    assert saturate(corpus("sparse"))[1]
    assert (counts["is_factorizable"], counts["_blossom_pass"]) == (1, 2)
    assert counts["_perfect_mate"] == 1
    assert counts["structures"] == 0


@pytest.mark.parametrize("descending", [False, True], ids=["ascending", "descending"])
def test_saturate_runs_one_deletion_search_per_run_of_u(monkeypatch, descending):
    # P_8's 21 complement pairs uv, u < v, fall into six runs of u, 0 to 5
    # (6-7 is an edge), and each run reads the row of u searched where it starts
    counts = _count(monkeypatch)
    assert saturate(path(8), descending=descending)[1]
    assert (counts["_rooted_marks"], counts["rows"]) == (6, 0)


def test_component_cap_is_checked_before_the_partition(monkeypatch, tmp_path, capsys):
    sparse = corpus("sparse")
    counts = _count(monkeypatch)
    with pytest.raises(ComponentLimitError):
        analysis_dict(sparse, max_components=1)
    assert counts["_perfect_mate"] == 1
    path = tmp_path / "sparse.edges"
    path.write_text(render_edge_list(sparse))
    assert main(["analyze", str(path), "--max-components", "1"]) == 3
    k = len(factor_components(sparse))
    assert capsys.readouterr().err == f"error: {k} components exceed the component limit of 1\n"


@pytest.mark.parametrize(
    "verb",
    [["analyze"], ["analyze", "--ge"], ["saturated"], ["saturate"], ["decompose"], ["hasse"]],
    ids=" ".join,
)
def test_every_graph_verb_refuses_the_star_at_once(monkeypatch, tmp_path, capsys, verb):
    # vertex 0 joined to 1..8000 and the edge 8000-8001: the factorizability
    # check, the structure's pass or saturate's own, stops at the first
    # exposed leaf, before any row is searched
    star = tmp_path / "star.edges"
    star.write_text(
        render_edge_list(Graph(range(8002), [(0, v) for v in range(1, 8001)] + [(8000, 8001)]))
    )
    searches = []
    search = cathedral.matching._edmonds_search
    monkeypatch.setattr(
        cathedral.matching,
        "_edmonds_search",
        lambda *args, **kwargs: searches.append(args[2]) or search(*args, **kwargs),
    )
    counts = _count(monkeypatch)
    assert main([verb[0], str(star), *verb[1:]]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "perfect matching" in err
    assert len(searches) == 1 and counts["rows"] == 0
    assert counts["_perfect_mate"] == (verb != ["saturate"])


@pytest.mark.parametrize("name", ["elementary", "sparse"])
@pytest.mark.parametrize(
    "verb",
    [["analyze"], ["analyze", "--ge"], ["decompose"], ["hasse"], ["saturated"]],
    ids=" ".join,
)
def test_each_structure_holds_one_table_and_runs_one_pass(
    monkeypatch, tmp_path, capsys, name, verb
):
    # the structure's pass is its precondition.  The elementary graph is
    # saturated and the sparse one is not, so on it `saturated` answers 1
    # and decompose refuses with 3, both after building the structure
    path = tmp_path / "g.edges"
    path.write_text(render_edge_list(corpus(name)))
    code = {"saturated": 1, "decompose": 3}.get(verb[0], 0) if name == "sparse" else 0
    counts = _count(monkeypatch)
    assert main([verb[0], str(path), *verb[1:]]) == code
    capsys.readouterr()
    assert (counts["structures"], counts["_perfect_mate"], counts["_blossom_pass"]) == (1, 1, 1)
    assert counts["is_factorizable"] == 0
