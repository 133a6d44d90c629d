"""Property tests on arbitrary inputs: the two parsers either return their
value or raise GraphFormatError, every verb of the CLI answers hostile files
and flags with a documented exit code, and the decomposition of any
saturation closure rebuilds the closure exactly."""

import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from cathedral.cli import MAX_TRIAL_VERTICES, main
from cathedral.construction import CathedralTree, construct_tree, decompose, saturate
from cathedral.errors import GraphFormatError
from cathedral.graph import Graph, parse_edge_list, render_edge_list
from cathedral.serialize import tree_from_json, tree_to_json

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


_VALID_EDGE_FILES = factorizable_graphs(max_vertices=10).map(render_edge_list)
_VALID_TREE_FILES = factorizable_graphs(max_vertices=10).map(
    lambda g: tree_to_json(decompose(saturate(g)[0]))
)
_OVERSIZED = st.sampled_from(
    [
        b"vertices 1000001\n0 1\n",
        b"vertices 10000000000\n0 1\n",
        b"vertices " + b"9" * 5000 + b"\n",
        b"vertices 2\n0 " + b"1" * 5000 + b"\n",
        b"# " + b"x" * 200_000 + b"\nvertices 2\n0 1\n",
        b"[" * 100_000 + b"]" * 100_000,
        b'{"a": ' * 5000 + b"1" + b"}" * 5000,
        b'{"foundation": {"vertices": [' + b"0, " * 100_000 + b'1], "edges": []}, '
        b'"classes": []}',
    ]
)
_NOT_UTF8 = st.sampled_from([b"\xff", b"\x80", b"\xc3", b"\xed\xa0\x80", b"\xfe\xff\x00"])


@st.composite
def _hostile_files(draw, tree: bool) -> bytes:
    """A tree file or an edge list, well formed or spoiled (now and then
    the other kind), then kept, truncated, broken as UTF-8 or replaced by
    an oversized one."""
    if tree:
        ours, theirs = _VALID_TREE_FILES | TREE_TEXTS, EDGE_TEXTS
    else:
        ours, theirs = _VALID_EDGE_FILES | EDGE_TEXTS, TREE_TEXTS
    data = draw(st.one_of(ours, ours, ours, theirs)).encode()
    how = draw(st.sampled_from(["keep", "truncate", "not-utf8", "oversize"]))
    if how == "truncate":
        data = data[: draw(st.integers(0, len(data)))]
    elif how == "not-utf8":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(_NOT_UTF8) + data[at:]
    elif how == "oversize":
        data = draw(_OVERSIZED)
    return data


_FILE_FLAGS = {
    "analyze": st.sampled_from(
        [[], ["--ge"], ["--format", "json"], ["--ge", "--format", "json"]]
        + [["--max-components", "1"]]
    ),
    "saturated": st.just([]),
    "saturate": st.just([]),
    "decompose": st.just([]),
    "construct": st.just([]),
    "hasse": st.sampled_from([[], ["--max-components", "1"]]),
}
# malformed values and small valid ones (int() reads "٤" and "1_0"); a
# large valid --max-n or --trials only asks for that much work, and a
# --max-n above the cap is refused before any trial runs
_FLAG_VALUES = st.sampled_from(
    ["", "x", "-1", "0", "1", "2", "3", "4", "6", "0.5", "1e3", "nan", "inf", "-0", "٤", "0x10"]
    + ["1_0"]
)
_MAX_N_VALUES = _FLAG_VALUES | st.integers(MAX_TRIAL_VERTICES + 1, 10**30).map(str)
_VERIFY_FLAGS = st.lists(
    st.sampled_from(["--seed", "--trials", "--max-n", "--p", "--cap"]), unique=True
)


def _verify_argv(draw) -> list[str]:
    flags = {"--trials": "1", "--max-n": "4"}
    flags.update(
        (name, draw(_MAX_N_VALUES if name == "--max-n" else _FLAG_VALUES))
        for name in draw(_VERIFY_FLAGS)
    )
    fmt = draw(st.sampled_from(["text", "json"]))
    return ["verify", *(item for pair in flags.items() for item in pair), "--format", fmt]


@given(st.data())
@settings(max_examples=400, deadline=None)
def test_every_verb_answers_hostile_input_with_a_documented_exit(data):
    verb = data.draw(st.sampled_from([*_FILE_FLAGS, "verify"]))
    closed = data.draw(st.booleans())
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input")
        if verb == "verify":
            argv = _verify_argv(data.draw)
        else:
            with open(path, "wb") as handle:
                handle.write(data.draw(_hostile_files(tree=verb == "construct")))
            argv = [verb, path, *data.draw(_FILE_FLAGS[verb])]
        if closed:
            read, write = os.pipe()
            os.close(read)
            out = open(write, "w")
        else:
            out = io.StringIO()
        err = io.StringIO()
        with out, redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    # exit 1 is documented for `saturated` and for `verify` with failing
    # checks; an answer written to a closed stdout is never a success
    documented = {0, 2, 3, 4} | ({1} if verb in ("saturated", "verify") else set())
    assert code in documented, (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    assert not (closed and code in (0, 1)), (argv, code)


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
