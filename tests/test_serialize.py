"""The one JSON writer: ``serialize.to_json(v)`` is
``json.dumps(v, indent=2) + "\\n"`` byte for byte, and every JSON output of
the CLI is written by it."""

import enum
import json
import math
from collections import OrderedDict, namedtuple
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cathedral.cli import main
from cathedral.serialize import report_dict, report_json, report_text, to_json
from cathedral.verify import TrialConfig, run_trials

GOLDEN = Path(__file__).parent / "golden"


def _dumps(value) -> str:
    return json.dumps(value, indent=2) + "\n"


_STRINGS = st.text() | st.sampled_from(
    ["", '"', "\\", '\\"', "\x00\x08\t\n\x1f\x7f", "é", " \U0001f600", "\ud800", "</script>"]
)
_FLOATS = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 1e300, 5e-324])
_INTS = st.integers() | st.integers(-(10**60), 10**60)
_SCALARS = st.none() | st.booleans() | _INTS | _FLOATS | _STRINGS
_KEYS = _STRINGS | _INTS | _FLOATS | st.booleans() | st.none()


class _Level(enum.IntEnum):
    LOW = 1


# the writer has no path that depends on a list's length, so four items show
# every shape below; drawing longer ones took most of the property's time
_LONGEST = 4


def _rows(k: int, elements=_INTS):
    """Lists and tuples of k elements each, mixed in one list."""
    row = st.lists(elements, min_size=k, max_size=k)
    return st.lists(row | row.map(tuple), min_size=1, max_size=_LONGEST)


# the shapes the writer joins in one call: lists of one scalar type, lists
# of such lists, and rows of exact ints of one length, written with one
# template; mixed ones and the near-misses of a template must not take
# those paths
_FLAT = (
    st.lists(_INTS, max_size=_LONGEST)
    | st.lists(st.booleans(), max_size=_LONGEST)
    | st.lists(_INTS | st.booleans(), max_size=_LONGEST)
    | st.lists(st.lists(_INTS, max_size=3), max_size=_LONGEST)
    | st.lists(st.lists(st.booleans() | _INTS, max_size=3).map(tuple), max_size=_LONGEST)
    | st.one_of([_rows(k) for k in (1, 2, 3)])
    | st.lists(
        st.lists(_INTS, min_size=1, max_size=3) | st.tuples(_INTS, _INTS),
        min_size=2,
        max_size=_LONGEST,
    )
    | st.one_of([_rows(k, _INTS | st.booleans() | st.just(_Level.LOW)) for k in (1, 2, 3)])
    | st.lists(st.tuples(_INTS, _INTS) | st.just([]), min_size=1, max_size=_LONGEST)
    | st.lists(st.just([]) | st.just(()), min_size=1, max_size=_LONGEST)
)


def _containers(children):
    return (
        st.lists(children, max_size=3)
        | st.lists(children, max_size=3).map(tuple)
        | st.dictionaries(_KEYS, children, max_size=3)
    )


# sixteen leaves in containers of at most three items still nest the flat
# shapes six and seven containers deep
JSON_VALUES = st.recursive(_SCALARS | _FLAT, _containers, max_leaves=16)


@given(JSON_VALUES)
@settings(max_examples=600, deadline=None)
def test_to_json_is_json_dumps_with_indent_2(value):
    assert to_json(value) == _dumps(value)


class _Name(str):
    pass


class _Ratio(float):
    pass


_Pair = namedtuple("_Pair", "u v")


@pytest.mark.parametrize(
    "value",
    [
        [],
        {},
        (),
        [[], {}, ()],
        {"": []},
        [1, True, 0, False],
        [True, 1],
        [[1, 2], [True, False]],
        [[1, 2], []],
        [[1, 2], (3, 4), [5]],
        [[1.5, -0.0], [math.nan, math.inf]],
        [None, None],
        [["a", "b"], ["é"]],
        {1: 1, 2.5: 2, True: 3, None: 4, -math.inf: 5, "k": 6},
        {False: [], 10**30: {}},
        [_Level.LOW, _Name("x"), _Ratio(0.5), _Pair(1, 2)],
        {_Name("key"): _Level.LOW, _Level.LOW: [_Level.LOW, _Level.LOW]},
        OrderedDict([("b", 1), ("a", [2])]),
        10**100,
        -0.0,
        "plain",
        None,
        # the one-template rows, and their near-misses
        [[1, 2], [3, 4]],
        [(0, 1), [2, 3], (4, 5)],
        [[10**60, -(10**60)], (-1, 0)],
        [[7]],
        [[1, 2, 3], (4, 5, 6)],
        [[1, 2], [3]],
        [[1], [2, 3]],
        [[1, 2], [3], [4, 5, 6]],
        [[1, 2], [True, 3]],
        [[1, True]],
        [[_Level.LOW, 2], [3, 4]],
        [[], [1, 2]],
        [[]],
        [[], []],
        [(), [], ()],
        {"a": [], "c": ()},
    ],
)
def test_to_json_agrees_on_edge_cases(value):
    assert to_json(value) == _dumps(value)


@pytest.mark.parametrize(
    "value",
    [
        {1, 2},
        object(),
        b"bytes",
        1j,
        [1, {2}],
        [[1, 2], [frozenset()]],
        {"k": bytearray()},
        {(1, 2): 3},
        {"k": {object(): 1}},
    ],
    ids=[
        "set",
        "object",
        "bytes",
        "complex",
        "in-list",
        "in-inner-list",
        "dict-value",
        "tuple-key",
        "object-key",
    ],
)
def test_an_unsupported_type_raises_type_error(value):
    with pytest.raises(TypeError) as expected:
        json.dumps(value, indent=2)
    with pytest.raises(TypeError) as got:
        to_json(value)
    assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("name", sorted(path.stem for path in GOLDEN.glob("*.json")))
def test_cli_json_is_json_dumps_of_the_golden(name, tmp_path, capsys):
    golden = json.loads((GOLDEN / f"{name}.json").read_text())
    edges = tmp_path / f"{name}.edges"
    edges.write_text(golden["edge_list"])
    ge = ["--ge"] if "deleted_partitions" in golden["analysis"] else []
    assert main(["analyze", str(edges), *ge, "--format", "json"]) == 0
    assert capsys.readouterr().out == _dumps(golden["analysis"])
    if "tree" in golden:
        assert main(["decompose", str(edges)]) == 0
        assert capsys.readouterr().out == _dumps(golden["tree"])


def test_report_json_is_json_dumps_of_the_report():
    config = TrialConfig(seed=2, trials=3, max_vertices=6)
    reports = run_trials(config)
    for timing in (False, True):
        data = report_dict(config, reports, include_timing=timing)
        assert report_json(config, reports, include_timing=timing) == _dumps(data)


def test_report_text_shows_each_checks_millis_only_with_timings():
    config = TrialConfig(seed=2, trials=3, max_vertices=6)
    reports = run_trials(config)
    plain = report_text(config, reports).splitlines()
    timed = report_text(config, reports, include_timing=True).splitlines()
    summary = report_dict(config, reports)["summary"]
    rows = range(2, 2 + len(summary))
    assert len(plain) == len(timed) and not any("millis=" in line for line in plain)
    for i, line in enumerate(plain):
        if i not in rows:
            assert timed[i] == line
            continue
        row = summary[i - 2]
        counts = [f"{status}={row[status]}" for status in ("pass", "fail", "skip")]
        assert line.split() == [row["check"], *counts]
        # summed over the trials and rounded to the JSON's three places
        millis = sum(r.millis for report in reports for r in report.results if r.check == row["check"])
        assert timed[i] == f"{line}  millis={round(millis, 3)}"
