"""Property tests on arbitrary inputs: the two parsers either return their
value or raise GraphFormatError, and the decomposition of any saturation
closure rebuilds the closure exactly."""

import json
from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from cathedral.construction import CathedralTree, construct_tree, decompose, saturate
from cathedral.errors import GraphFormatError
from cathedral.graph import Graph, parse_edge_list
from cathedral.serialize import tree_from_json

from helpers import factorizable_graphs

_IDS = st.integers(0, 8)
_JUNK = st.none() | st.booleans() | st.floats() | st.text(max_size=3)
_JUNK_LINES = (
    st.sampled_from(["", "# note", "vertices 3", "vertices", "1.5 2", "٣ ２", "0x1 2", "1 2 3"])
    | st.tuples(st.integers(-1, 9), st.integers(-1, 9)).map("{0[0]} {0[1]}".format)
    | st.text(max_size=6)
)


@st.composite
def _edge_texts(draw):
    """A well-formed edge list on at most 9 vertices (every declared vertex
    is built), spoiled by one stray line half of the time."""
    n = draw(st.integers(0, 9))
    pairs = list(combinations(range(n), 2))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=8)) if pairs else []
    lines = [f"vertices {n}", *(f"{u} {v}" for u, v in chosen)]
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), draw(_JUNK_LINES))
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines)


@st.composite
def _tree_dicts(draw, depth: int = 2):
    """A tree object in the JSON shape, with one part (the foundation, its
    vertices or edges, the class list or its first entry) replaced by an
    arbitrary value most of the time."""
    vertices = draw(st.lists(_IDS, unique=True, max_size=5))
    pairs = [list(p) for p in combinations(sorted(vertices), 2)]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=4)) if pairs else []
    classes = [
        {"class": cls, "tower": draw(st.none() | _tree_dicts(depth - 1)) if depth else None}
        for cls in draw(st.lists(st.lists(_IDS, min_size=1, max_size=3), max_size=3))
    ]
    tree = {"foundation": {"vertices": vertices, "edges": edges}, "classes": classes}
    part = draw(st.sampled_from([None, "foundation", "classes", "vertices", "edges", "entry"]))
    junk = draw(_JUNK | st.integers(-1, 8) | st.lists(st.integers(-1, 8) | _JUNK, max_size=3))
    if part in ("foundation", "classes"):
        tree[part] = junk
    elif part in ("vertices", "edges"):
        tree["foundation"][part] = junk
    elif part == "entry" and classes:
        classes[0] = junk
    return tree


EDGE_TEXTS = st.text() | _edge_texts()
TREE_TEXTS = st.text() | _tree_dicts().map(json.dumps)


@given(EDGE_TEXTS)
@settings(max_examples=300, deadline=None)
def test_parse_edge_list_returns_a_graph_or_a_format_error(text):
    try:
        graph = parse_edge_list(text)
    except GraphFormatError:
        return
    assert isinstance(graph, Graph)


@given(TREE_TEXTS)
@settings(max_examples=300, deadline=None)
def test_tree_from_json_returns_a_tree_or_a_format_error(text):
    try:
        tree = tree_from_json(text)
    except GraphFormatError:
        return
    assert isinstance(tree, CathedralTree)


@given(factorizable_graphs(max_vertices=12))
@settings(max_examples=40, deadline=None)
def test_closure_decomposition_rebuilds_the_closure(g):
    closure = saturate(g)[0]
    assert construct_tree(decompose(closure)) == closure
