"""The package's immutable value classes, one base, ``graph.Value``.

A value equals another of its own class with equal fields and never one of
another class, hashes as the tuple of its fields, prints as
``Name(field=value, ...)`` and refuses assignment and deletion.  The
per-graph structures and the up-sets compare by identity, and the cached
properties of the values still cache.
"""

import pytest

from cathedral.canonical import (
    GraphStructure,
    canonical_partition,
    component_poset,
    factor_components,
    up_sets,
)
from cathedral.construction import ConstructionSpec, decompose, saturate
from cathedral.gallai_edmonds import gallai_edmonds
from cathedral.graph import Graph, contract, render_edge_list
from cathedral.matching import (
    alternating_reachability,
    enumerate_perfect_matchings,
    maximum_matching,
)
from cathedral.verify import CheckResult, SuiteReport, TrialConfig, _TrialContext

from helpers import K2, T

# each value class: a small instance and its fields, in order
VALUES = {
    "Graph": (lambda: Graph(T.vertices, T.edges), ("vertices", "edges")),
    "ContractionResult": (
        lambda: contract(T, {0, 1}),
        ("graph", "merged_vertex", "origin_map"),
    ),
    "Matching": (lambda: maximum_matching(T), ("graph", "edges")),
    "PerfectMatchingEnumeration": (
        lambda: enumerate_perfect_matchings(T),
        ("matchings", "truncated"),
    ),
    "AlternatingReach": (
        lambda: alternating_reachability(T, maximum_matching(T)),
        ("saturated", "balanced"),
    ),
    "GEPartition": (lambda: gallai_edmonds(T), ("d", "a", "c")),
    "FactorComponents": (lambda: factor_components(T), ("components", "allowed")),
    "CanonicalPartition": (lambda: canonical_partition(T), ("classes",)),
    "ComponentPoset": (lambda: component_poset(T), ("components", "leq", "hasse")),
    "CathedralTree": (
        lambda: decompose(saturate(T)[0]),
        ("foundation_vertices", "foundation_edges", "classes"),
    ),
    "ConstructionSpec": (
        lambda: ConstructionSpec(K2, {frozenset({0}): Graph(), frozenset({1}): Graph()}),
        ("foundation", "towers"),
    ),
    "TrialConfig": (
        lambda: TrialConfig(seed=3, trials=2),
        ("seed", "trials", "max_vertices", "edge_probability", "enumeration_cap"),
    ),
    "CheckResult": (
        lambda: CheckResult("allowed-edges", "fail", "why", "vertices 2\n0 1\n", 1.5),
        ("check", "status", "reason", "counterexample", "millis"),
    ),
    "SuiteReport": (
        lambda: SuiteReport(
            render_edge_list(T), TrialConfig(seed=0), (CheckResult("allowed-edges", "pass"),)
        ),
        ("graph_text", "config", "results"),
    ),
}

# the classes that compare by identity, and the fields their repr shows
IDENTITIES = {
    "GraphStructure": (lambda: GraphStructure(T), ("graph",)),
    "UpSets": (lambda: up_sets(T, 0), ("base", "component_sets", "partition", "up_star")),
    "_TrialContext": (lambda: _TrialContext(T, TrialConfig(seed=0)), ("graph", "config")),
}

EVERY = {**VALUES, **IDENTITIES}


def _twin(value):
    """An instance of a subclass of the value's class with the same fields."""
    twin = object.__new__(type("Twin", (type(value),), {}))
    twin.__dict__.update(value.__dict__)
    return twin


def _shown(name: str, field: str, value) -> str:
    # a Graph lists its vertices and its sorted edges
    if name == "Graph":
        return repr(list(value) if field == "vertices" else sorted(value))
    return repr(value)


@pytest.mark.parametrize("name", VALUES)
def test_equal_fields_make_equal_values_with_equal_hashes(name):
    make, fields = VALUES[name]
    value = make()
    assert type(value).__name__ == name
    parts = tuple(getattr(value, field) for field in fields)
    again = type(value)(*parts)
    assert again is not value and again == value and not again != value
    assert make() == value
    try:
        expected = hash(parts)
    except TypeError:  # a dict field: unhashable, as the field tuple is
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(value) == hash(again) == expected


@pytest.mark.parametrize("name", EVERY)
def test_another_class_with_the_same_fields_is_unequal(name):
    value = EVERY[name][0]()
    twin = _twin(value)
    assert value != twin and twin != value
    assert not value == twin
    assert value != tuple(getattr(value, field) for field in EVERY[name][1])


@pytest.mark.parametrize("name", EVERY)
def test_assignment_and_deletion_raise(name):
    make, fields = EVERY[name]
    value = make()
    for field in (*fields, "unknown"):
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
    assert all(field in value.__dict__ for field in fields)


@pytest.mark.parametrize("name", EVERY)
def test_the_repr_names_the_class_and_its_fields(name):
    make, fields = EVERY[name]
    value = make()
    shown = ", ".join(f"{field}={_shown(name, field, getattr(value, field))}" for field in fields)
    assert repr(value) == f"{name}({shown})"


@pytest.mark.parametrize("name", IDENTITIES)
def test_structures_and_up_sets_compare_by_identity(name):
    make = IDENTITIES[name][0]
    value, other = make(), make()
    assert value == value and value != other
    assert hash(value) == object.__hash__(value)
    assert len({value, other}) == 2


@pytest.mark.parametrize(
    "name, attribute",
    [
        ("Graph", "index_adjacency"),
        ("Matching", "partner"),
        ("FactorComponents", "component_of"),
        ("CanonicalPartition", "class_of"),
    ],
)
def test_cached_properties_still_cache(name, attribute):
    value = VALUES[name][0]()
    assert attribute not in value.__dict__
    first = getattr(value, attribute)
    assert value.__dict__[attribute] is first and getattr(value, attribute) is first
