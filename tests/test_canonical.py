import pytest
from hypothesis import given, settings

from cathedral.canonical import (
    GraphStructure,
    allowed_edges,
    canonical_partition,
    component_leq,
    component_poset,
    factor_components,
    is_separating,
    minimum_component,
    same_class,
    up_sets,
)
from cathedral.construction import saturate
from cathedral.errors import ComponentLimitError, NotFactorizableError
from cathedral.graph import Graph
from cathedral.matching import perfect_matching_union
from cathedral.serialize import hasse_dot
from cathedral.verify import TrialConfig, random_factorizable_graph

from helpers import (
    C4,
    C5,
    K2,
    K4,
    P4,
    T,
    factorizable_graphs,
    mid_size_graphs,
    path,
    sparse_many_component_graphs,
)
from oracles import sweep_order


def test_allowed_edges_fixtures():
    assert allowed_edges(P4) == frozenset({(0, 1), (2, 3)})
    assert allowed_edges(C4) == C4.edges
    assert allowed_edges(K2) == frozenset({(0, 1)})
    with pytest.raises(NotFactorizableError):
        allowed_edges(C5)


@given(factorizable_graphs())
@settings(max_examples=100)
def test_allowed_edges_equal_matching_union(g):
    assert allowed_edges(g) == perfect_matching_union(g)


def test_factor_components_fixtures():
    assert factor_components(P4).components == (frozenset({0, 1}), frozenset({2, 3}))
    assert factor_components(C4).components == (frozenset({0, 1, 2, 3}),)
    assert factor_components(T).components == (frozenset({0, 1}), frozenset({2, 3}))


@given(factorizable_graphs())
@settings(max_examples=60)
def test_components_partition_vertices_and_carry_allowed_edges(g):
    comps = factor_components(g)
    assert frozenset().union(*comps.components) == g.vertex_set if comps.components else not g.order
    for u, v in comps.allowed:
        assert comps.component_of[u] == comps.component_of[v]


def test_canonical_partition_fixtures():
    assert canonical_partition(C4).classes == (frozenset({0, 2}), frozenset({1, 3}))
    assert canonical_partition(K4).classes == tuple(frozenset({v}) for v in range(4))
    # deleting both endpoints of the only edge leaves the empty graph, which
    # is factorizable, so the two vertices land in distinct classes
    assert canonical_partition(K2).classes == (frozenset({0}), frozenset({1}))


@given(factorizable_graphs())
@settings(max_examples=60)
def test_partition_classes_match_pairwise_relation(g):
    part = canonical_partition(g)
    for u in g.vertices:
        for v in g.vertices:
            assert (part.class_of[u] == part.class_of[v]) == same_class(g, u, v)


def test_same_class_rejects_vertices_outside_the_graph():
    for u, v in ((99, 0), (0, 99)):
        with pytest.raises(ValueError, match="outside the host graph"):
            same_class(C4, u, v)


def test_is_separating_cases():
    assert is_separating(P4, frozenset({0, 1}))
    assert not is_separating(P4, frozenset({1, 2}))
    assert is_separating(P4, frozenset())
    assert is_separating(P4, P4.vertex_set)
    # C4 is elementary: its one component is split by {0, 1}
    assert not is_separating(C4, frozenset({0, 1}))
    with pytest.raises(ValueError, match="outside the host graph"):
        is_separating(P4, frozenset({0, 9}))


def test_component_leq_fixtures():
    comps = factor_components(T)
    pendant = comps.components.index(frozenset({2, 3}))
    top = comps.components.index(frozenset({0, 1}))
    assert component_leq(T, comps, pendant, top)
    assert not component_leq(T, comps, top, pendant)
    p4_comps = factor_components(P4)
    assert not component_leq(P4, p4_comps, 0, 1)
    assert not component_leq(P4, p4_comps, 1, 0)
    with pytest.raises(ValueError, match="component index out of range"):
        component_leq(P4, p4_comps, 0, 2)


def test_component_leq_refuses_another_graphs_components():
    # K4 is one component; P4's two would name indices K4 does not have
    for lower, upper in ((0, 1), (1, 0), (0, 0)):
        with pytest.raises(ValueError, match="not the graph's own factor-components"):
            component_leq(K4, factor_components(P4), lower, upper)


def test_component_poset_fixtures():
    poset = component_poset(T)
    assert minimum_component(poset) == 1
    assert poset.hasse == ((1, 0),)
    p4_poset = component_poset(P4)
    assert minimum_component(p4_poset) is None
    assert p4_poset.hasse == ()
    assert minimum_component(component_poset(C4)) == 0


def test_component_order_matches_sweep_oracle():
    # the fixpoint against the sweep over every union, on up to 11 components
    graphs = sparse_many_component_graphs(40) + mid_size_graphs(60)
    for seed, count in ((101, 300), (303, 200)):
        cfg = TrialConfig(seed=seed, trials=count, max_vertices=10, edge_probability=0.3)
        graphs += [random_factorizable_graph(cfg, t) for t in range(count)]
    assert max(len(factor_components(g)) for g in graphs) == 11
    for i, g in enumerate(graphs):
        for h in (g, saturate(g)[0]):
            poset = component_poset(h)
            assert poset.leq == sweep_order(h, poset.components), (i, sorted(h.edges))


def _minima(h: Graph) -> tuple[int | None, int | None, int | None]:
    """The structure's minimum, the order's, and the sweep oracle's."""
    poset = component_poset(h)
    sweep = sweep_order(h, poset.components)
    oracle = next((i for i, row in enumerate(sweep) if all(row)), None)
    return GraphStructure(h).minimum, minimum_component(poset), oracle


def test_minimum_agrees_with_the_order():
    graphs = sparse_many_component_graphs(40) + mid_size_graphs(60)
    found = set()
    for i, g in enumerate(graphs):
        for h in (g, saturate(g)[0]):
            low, order, oracle = _minima(h)
            assert low == order == oracle, (i, sorted(h.edges))
            found.add(low is None)
    assert found == {True, False}


@given(factorizable_graphs())
@settings(max_examples=100)
def test_minimum_agrees_with_the_order_on_small_graphs(g):
    for h in (g, saturate(g)[0]):
        low, order, oracle = _minima(h)
        assert low == order == oracle


def test_minimum_fixtures():
    assert [GraphStructure(g).minimum for g in (T, C4, K2, Graph())] == [1, 0, 0, None]
    # P_2k's k components form an antichain
    for order in (4, 6, 12, 16):
        assert _minima(path(order)) == (None, None, None)


def test_component_limit_guard():
    g = Graph(range(6), [(0, 1), (2, 3), (4, 5)])
    with pytest.raises(ComponentLimitError, match="3 components exceed the component limit of 2"):
        component_poset(g, max_components=2)
    assert len(component_poset(g)) == len(component_poset(g, max_components=3)) == 3


def test_up_sets_fixtures():
    part = canonical_partition(T)
    us = up_sets(T, 1)
    cls2, cls3 = part.class_of[2], part.class_of[3]
    assert us.up_components(cls2) == frozenset({0})
    assert us.up_components(cls3) == frozenset()
    assert us.up_vertices(cls2) == frozenset({0, 1})
    assert us.up_star_vertices(cls2) == frozenset({0, 1, 2})
    assert us.strict_upper_vertices() == frozenset({0, 1})
    assert us.upper_closure_vertices() == T.vertex_set

    p4_us = up_sets(P4, 0)
    assert p4_us.strict_upper_components() == frozenset()

    c4_us = up_sets(C4, 0)
    assert c4_us.strict_upper_vertices() == frozenset()


@pytest.mark.parametrize("g, base", [(T, 2), (T, -1), (P4, 2), (C4, 1), (K2, 5)])
def test_up_sets_reject_a_base_that_is_no_component(g, base):
    with pytest.raises(ValueError, match="component index out of range"):
        up_sets(g, base)


@given(factorizable_graphs())
@settings(max_examples=40)
def test_poset_laws_and_up_set_cover(g):
    poset = component_poset(g)
    k = len(poset)
    for i in range(k):
        assert poset.leq[i][i]
        for j in range(k):
            if i != j:
                assert not (poset.leq[i][j] and poset.leq[j][i])
            for m in range(k):
                if poset.leq[i][j] and poset.leq[j][m]:
                    assert poset.leq[i][m]
    for base in range(k):
        us = up_sets(g, base)
        combined: set[int] = set()
        for members in us.per_class.values():
            assert not (combined & members)
            combined |= members
        assert frozenset(combined) == us.strict_upper_components()


def test_hasse_dot_output():
    assert hasse_dot(component_poset(T)) == (
        'digraph component_order {\n'
        '  c0 [label="{0, 1}"];\n'
        '  c1 [label="{2, 3}"];\n'
        '  c1 -> c0;\n'
        '}\n'
    )
    assert "->" not in hasse_dot(component_poset(P4))
