import functools
import re
from collections import Counter
from itertools import compress

import pytest
from hypothesis import given, settings

from cathedral.canonical import GraphStructure, canonical_partition, factor_components
from cathedral.cli import main
from cathedral.construction import (
    CathedralTree,
    _construct_tree,
    ConstructionSpec,
    construct,
    construct_tree,
    decompose,
    foundation_via_ge,
    is_saturated,
    saturate,
)
from cathedral.errors import (
    ClassKeyMismatch,
    ConstructionViolation,
    FoundationNotElementary,
    FoundationNotSaturated,
    MinimumComponentMissing,
    NoMinimumComponent,
    NotFactorizableError,
    NotSaturatedError,
    TowerNotSaturated,
    VertexIdCollision,
)
from cathedral.graph import Graph, add_edges, induced_subgraph, render_edge_list
from cathedral.matching import enumerate_perfect_matchings
from cathedral.serialize import tree_from_json, tree_to_json
from cathedral.verify import TrialConfig, random_factorizable_graph

from helpers import (
    C4,
    C5,
    E0,
    K2,
    K4,
    P4,
    T,
    chain_tree,
    factorizable_graphs,
    mid_size_graphs,
    path,
    reversed_ids,
    sparse_many_component_graphs,
)
from oracles import sweep_order


def test_is_saturated_fixtures():
    assert is_saturated(T)
    assert not is_saturated(C4)
    assert is_saturated(K4)
    assert is_saturated(K2)
    assert is_saturated(E0)
    with pytest.raises(NotFactorizableError):
        is_saturated(C5)


def test_saturate_fixtures():
    closed, added = saturate(P4)
    assert closed == T and added == ((0, 2),)
    closed, added = saturate(C4)
    assert added == ((0, 2),) and closed == add_edges(C4, [(0, 2)])
    closed_desc, added_desc = saturate(C4, descending=True)
    assert added_desc == ((1, 3),) and closed_desc == add_edges(C4, [(1, 3)])
    assert saturate(T) == (T, ())


@given(factorizable_graphs())
@settings(max_examples=60)
def test_saturate_outputs_saturated_and_preserves_matchings(g):
    closed, added = saturate(g)
    assert is_saturated(closed)
    assert closed.edges == g.edges | set(added)
    before = enumerate_perfect_matchings(g, cap=10_000)
    after = enumerate_perfect_matchings(closed, cap=10_000)
    assert not before.truncated and not after.truncated
    assert before.edge_sets() == after.edge_sets()


def test_decompose_pendant_fixture():
    tree = decompose(T)
    assert tree.foundation_vertices == frozenset({2, 3})
    assert tree.foundation_edges == frozenset({(2, 3)})
    by_class = dict(tree.classes)
    tower = by_class[frozenset({2})]
    assert tower is not None and tower.foundation_vertices == frozenset({0, 1})
    assert by_class[frozenset({3})] is None


def test_decompose_elementary_graphs():
    tree = decompose(K2)
    assert tree.foundation_vertices == frozenset({0, 1})
    assert [sorted(c) for c, sub in tree.classes] == [[0], [1]]
    assert all(sub is None for _, sub in tree.classes)

    diagonal = add_edges(C4, [(0, 2)])
    tree = decompose(diagonal)
    assert tree.foundation_vertices == diagonal.vertex_set  # elementary: no towers
    assert [sorted(c) for c, _ in tree.classes] == [[0, 2], [1], [3]]
    assert all(sub is None for _, sub in tree.classes)


def test_decompose_empty_graph():
    tree = decompose(E0)
    assert tree == CathedralTree(frozenset(), frozenset(), ())
    assert construct_tree(tree) == E0


def test_decompose_rejects_unsaturated():
    with pytest.raises(NotSaturatedError, match="not saturated"):
        decompose(P4)


def test_a_failing_contraction_search_is_a_structure_violation(monkeypatch, tmp_path, capsys):
    # the search that checks each foundation is the falsification check: if
    # the named component fails it, decompose and the construction's re-check refuse
    tree = decompose(T)
    monkeypatch.setattr(GraphStructure, "is_minimum_of", lambda self, level, low: False)
    with pytest.raises(MinimumComponentMissing):
        decompose(T)
    path = tmp_path / "t.edges"
    path.write_text(render_edge_list(T))
    assert main(["decompose", str(path)]) == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "no minimum component" in err
    with pytest.raises(ConstructionViolation, match="minimum component"):
        construct_tree(tree)


def test_construct_reproduces_pendant_fixture():
    foundation = Graph([2, 3], [(2, 3)])
    spec = ConstructionSpec(
        foundation,
        {
            frozenset({2}): Graph([0, 1], [(0, 1)]),
            frozenset({3}): Graph(),
        },
    )
    assert construct(spec) == T


def test_construct_identity_with_empty_towers():
    spec = ConstructionSpec(K2, {frozenset({0}): Graph(), frozenset({1}): Graph()})
    assert construct(spec) == K2


def test_construct_validation_errors():
    with pytest.raises(FoundationNotSaturated):
        construct(ConstructionSpec(C4, {cls: Graph() for cls in canonical_partition(C4).classes}))
    # T is saturated but has two factor-connected components
    with pytest.raises(FoundationNotElementary):
        construct(ConstructionSpec(T, {cls: Graph() for cls in canonical_partition(T).classes}))
    with pytest.raises(ClassKeyMismatch):
        construct(ConstructionSpec(K2, {frozenset({0, 1}): Graph()}))
    with pytest.raises(ClassKeyMismatch):
        construct(ConstructionSpec(Graph(), {frozenset({0}): Graph()}))
    with pytest.raises(VertexIdCollision):
        construct(
            ConstructionSpec(K2, {frozenset({0}): Graph([1]), frozenset({1}): Graph()})
        )
    with pytest.raises(TowerNotSaturated):
        construct(
            ConstructionSpec(
                K2,
                {
                    frozenset({0}): Graph(range(2, 6), [(2, 3), (3, 4), (4, 5)]),
                    frozenset({1}): Graph(),
                },
            )
        )


def test_three_level_nesting_round_trips():
    # joining T onto a new base gives a chain of three components
    base = Graph([4, 5], [(4, 5)])
    big = construct(ConstructionSpec(base, {frozenset({4}): T, frozenset({5}): Graph()}))
    assert is_saturated(big)
    tree = decompose(big)
    assert tree.foundation_vertices == frozenset({4, 5})
    inner = dict(tree.classes)[frozenset({4})]
    assert inner is not None and inner.foundation_vertices == frozenset({2, 3})
    deepest = dict(inner.classes)[frozenset({2})]
    assert deepest is not None and deepest.foundation_vertices == frozenset({0, 1})
    assert construct_tree(tree) == big
    assert foundation_via_ge(big) == frozenset({4, 5})


def test_foundation_via_ge_fixtures():
    assert foundation_via_ge(T) == frozenset({2, 3})
    assert foundation_via_ge(K4) == K4.vertex_set
    assert foundation_via_ge(K2) == frozenset({0, 1})
    assert foundation_via_ge(E0) == frozenset()
    with pytest.raises(NoMinimumComponent):
        foundation_via_ge(P4)


@given(factorizable_graphs())
@settings(max_examples=40)
def test_closure_round_trip_and_foundation_agreement(g):
    closed, _ = saturate(g)
    tree = decompose(closed)
    assert tree_from_json(tree_to_json(tree)) == tree
    assert construct_tree(tree) == closed
    assert tree.foundation_vertices == foundation_via_ge(closed)
    # the partition of the whole restricts to each part's own partition
    part = canonical_partition(closed)
    for comp in factor_components(closed).components:
        own = set(canonical_partition(induced_subgraph(closed, comp)).classes)
        assert part.restricted_to(comp) == own


def _vertices(tree: CathedralTree) -> frozenset[int]:
    return tree.foundation_vertices.union(*(_vertices(sub) for _, sub in tree.classes if sub))


def _parts(tree: CathedralTree):
    """The vertex set of the tree's level and of its foundation, then of
    every deeper level and foundation."""
    yield _vertices(tree)
    yield tree.foundation_vertices
    for _, sub in tree.classes:
        if sub is not None:
            yield from _parts(sub)


def _exposable(structure: GraphStructure, u: int) -> frozenset[int]:
    """D(G-u) as vertex ids, off the structure's row of u."""
    vertices = structure.graph.vertices
    return frozenset(compress(vertices, structure.row(structure.graph.positions[u])))


def _assert_parts_cut_the_table(closure: Graph) -> int:
    """Every level and foundation of the closure's decomposition has, from
    scratch, the D(G-u) of the whole cut to it; returns the vertices checked."""
    whole = GraphStructure(closure)
    checked = 0
    for part in _parts(decompose(closure)):
        own = GraphStructure(induced_subgraph(closure, part))
        for u in part:
            assert _exposable(own, u) == _exposable(whole, u) & part
        checked += len(part)
    return checked


@functools.cache
def _lemma_corpus() -> list[Graph]:
    # built on first use, so collecting this module runs no search
    config = TrialConfig(seed=0, max_vertices=12, edge_probability=0.25)
    return (
        sparse_many_component_graphs(40)
        + mid_size_graphs(60)
        + [random_factorizable_graph(config, t) for t in range(300)]
    )


@pytest.mark.parametrize("descending", [False, True], ids=["ascending", "descending"])
def test_every_level_and_foundation_reads_the_closure_table(descending):
    # the lemma decompose rests on, against from-scratch tables of the parts
    checked = sum(
        _assert_parts_cut_the_table(saturate(g, descending=descending)[0]) for g in _lemma_corpus()
    )
    assert checked > 10_000


@given(factorizable_graphs(max_vertices=12))
@settings(max_examples=60, deadline=None)
def test_closure_parts_read_the_closure_table(g):
    _assert_parts_cut_the_table(saturate(g)[0])


def _level(vertices, edges, *classes) -> CathedralTree:
    return CathedralTree(
        frozenset(vertices),
        frozenset(edges),
        tuple((frozenset(cls), sub) for cls, sub in classes),
    )


def _k2(s: int, first=None, second=None) -> CathedralTree:
    return _level([s, s + 1], [(s, s + 1)], ([s], first), ([s + 1], second))


_C4_EDGES = [(0, 1), (1, 2), (2, 3), (0, 3)]


def _c4(s: int, *classes) -> CathedralTree:
    """A foundation that is not saturated, on s..s+3."""
    return _level(range(s, s + 4), [(s + u, s + v) for u, v in _C4_EDGES], *classes)


_TWO_BAD_LEVELS = {
    # the root lacks its class {1}; its tower's foundation is not saturated
    "unsaturated-below-class-keys": (
        _level([0, 1], [(0, 1)], ([0], _c4(2, ([2], None)))),
        FoundationNotSaturated,
        "foundation must be saturated",
    ),
    # the root's tower reuses vertex 1 of its foundation; that tower lacks its class {2}
    "class-keys-below-collision": (
        _level([0, 1], [(0, 1)], ([0], _level([1, 2], [(1, 2)], ([1], None))), ([1], None)),
        ClassKeyMismatch,
        "tower keys must be exactly the foundation's canonical classes",
    ),
    # the middle level's tower reuses its vertex 3; the root is not saturated
    "collision-below-unsaturated": (
        _c4(10, ([10], _k2(2, _k2(3)))),
        VertexIdCollision,
        "vertex ids [3] are reused across parts",
    ),
}


@pytest.mark.parametrize("tree, error, message", _TWO_BAD_LEVELS.values(), ids=_TWO_BAD_LEVELS)
def test_the_lowest_bad_level_is_reported_first(tree, error, message):
    # every level's input checks run bottom up before anything is joined
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        construct_tree(tree)


def test_the_output_check_reads_every_level(monkeypatch):
    # planted faults in the output's structure, each first seen at a level
    # below the root: construct_tree must refuse the tree
    tree = chain_tree(3)
    is_minimum_of = GraphStructure.is_minimum_of

    def lower_levels_lose_their_minimum(self, level, low):
        return len(level) == len(self.components) and is_minimum_of(self, level, low)

    with monkeypatch.context() as planted:
        planted.setattr(GraphStructure, "is_minimum_of", lower_levels_lose_their_minimum)
        with pytest.raises(ConstructionViolation, match="^foundation is not the minimum component"):
            construct_tree(tree)
    with monkeypatch.context() as planted:
        # every edge allowed: the output is one component, and no foundation is one
        everything = property(lambda self: [list(ws) for ws in self.graph.index_adjacency])
        planted.setattr(GraphStructure, "_allowed_adjacency", everything)
        with pytest.raises(ConstructionViolation, match="^foundation is not a factor-connected"):
            construct_tree(tree)
    assert decompose(construct_tree(tree)) == tree


def _tower_tree(depth: int, start: int = 0) -> CathedralTree:
    """A K4 foundation on start..start+3 whose first two classes carry a
    tower of one level less, and whose other two carry none."""
    fv = range(start, start + 4)
    towers = [None] * 4
    nxt = start + 4
    if depth > 0:
        for i in range(2):
            towers[i] = _tower_tree(depth - 1, nxt)
            nxt += len(_vertices(towers[i]))
    edges = [(u, v) for u in fv for v in fv if u < v]
    return _level(fv, edges, *(([v], sub) for v, sub in zip(fv, towers)))


def _levels(tree: CathedralTree):
    """The vertex set of the tree's level and its foundation, then of every
    deeper level and its foundation."""
    yield _vertices(tree), tree.foundation_vertices
    for _, sub in tree.classes:
        if sub is not None:
            yield from _levels(sub)


# the most components of a level the sweep oracle runs on: 12 * 2**11 unions
_SWEPT = 12


def _assert_levels_read_the_output_table(tree: CathedralTree) -> Counter:
    """Every level's from-scratch structure has the components and classes
    of the structure construct_tree checked its output on, cut to the level,
    and its minimum is the foundation the tree names: every vertex of
    greatest degree in G lies in it.  On a level of at most ``_SWEPT``
    components the sweep oracle's least element is that foundation too.
    Counts the levels checked and those swept."""
    out = _construct_tree(tree)
    comps, partition = out.components, out.partition
    rows, pos = out.graph.index_adjacency, out.graph.positions
    checked: Counter = Counter()
    for level, foundation in _levels(tree):
        own = GraphStructure(induced_subgraph(out.graph, level))
        assert set(own.components.components) == {c for c in comps.components if c <= level}
        assert set(own.partition.classes) == partition.restricted_to(level)
        degree = {v: len(rows[pos[v]]) for v in level}
        top = max(degree.values())
        assert {v for v in level if degree[v] == top} <= foundation
        assert own.components.components[own.minimum] == foundation
        checked["levels"] += 1
        if len(own.components) <= _SWEPT:
            sweep = sweep_order(own.graph, own.components)
            least = next(i for i, row in enumerate(sweep) if all(row))
            assert own.components.components[least] == foundation
            checked["swept"] += 1
    return checked


def test_each_level_reads_the_output_table():
    chains = [chain_tree(depth) for depth in (1, 2, 5, 24)]
    towers = [_tower_tree(depth) for depth in range(4)]
    for tree in chains + towers:
        assert decompose(construct_tree(tree)) == tree
    closures = [
        decompose(saturate(random_factorizable_graph(config, t), descending=descending)[0])
        for config in (TrialConfig(seed=0), TrialConfig(seed=0, max_vertices=12))
        for t in range(100)
        for descending in (False, True)
    ]
    closures += [
        decompose(saturate(path(2 * k), descending=descending)[0])
        for k in range(1, 13)
        for descending in (False, True)
    ]
    # the same graphs with their components numbered the other way round
    trees = chains + towers + closures
    trees += [decompose(reversed_ids(construct_tree(tree))) for tree in trees]
    checked = sum(map(_assert_levels_read_the_output_table, trees), Counter())
    assert checked["levels"] > 1000 and checked["swept"] > 1000


def test_tree_json_round_trip():
    tree = decompose(T)
    assert tree_from_json(tree_to_json(tree)) == tree


def test_a_tree_too_deep_to_write_is_a_format_error():
    from cathedral.errors import GraphFormatError

    with pytest.raises(GraphFormatError, match="nested too deeply to write"):
        tree_to_json(chain_tree(400))


def test_tree_json_rejects_malformed_shapes():
    from cathedral.errors import GraphFormatError

    bad = [
        "[1, 2]",
        '{"foundation": {"vertices": [0]}, "classes": []}',
        '{"foundation": {"vertices": [0], "edges": [[0, 0]]}, "classes": []}',
        '{"foundation": {"vertices": [0, 1], "edges": [[0, 2]]}, "classes": []}',
        '{"foundation": {"vertices": [], "edges": []}, "classes": [{"class": [0]}]}',
        '{"foundation": {"vertices": [], "edges": []}, "classes": 3}',
    ]
    for text in bad:
        with pytest.raises(GraphFormatError):
            tree_from_json(text)
