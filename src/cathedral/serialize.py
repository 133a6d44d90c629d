"""File formats and renderers used by the CLI: decomposition-tree JSON,
Hasse-diagram DOT, analysis output, and verifier reports, with every JSON
output written by ``to_json``.

Core modules stay format-free; everything here is deterministic byte-for-byte
for a fixed input (sorted emission everywhere, timing excluded unless asked
for).
"""

from __future__ import annotations

import json
from itertools import chain, compress
from typing import Any, Callable

from .canonical import ComponentPoset, GraphStructure, _require_within_limit, minimum_component
from .construction import CathedralTree
from .errors import GraphFormatError
from .graph import Graph
from .verify import CheckResult, SuiteReport, TrialConfig

_INFINITY = float("inf")
_escape = json.encoder.encode_basestring_ascii


def _float(value: float) -> str:
    if value != value:
        return "NaN"
    if value == _INFINITY:
        return "Infinity"
    if value == -_INFINITY:
        return "-Infinity"
    return float.__repr__(value)


# how json writes a scalar of each exact type; repr of an exact int is
# int.__repr__, which json calls, and is the faster call
_SCALARS: dict[type, Callable[[Any], str]] = {
    str: _escape,
    int: repr,
    bool: {False: "false", True: "true"}.__getitem__,
    float: _float,
    type(None): lambda value: "null",
}
_LISTS = frozenset({list, tuple})
_INT = frozenset({int})


def _key(key: Any) -> str:
    if isinstance(key, str):
        return _escape(key)
    if isinstance(key, float):
        return '"' + _float(key) + '"'
    if key is True:
        return '"true"'
    if key is False:
        return '"false"'
    if key is None:
        return '"null"'
    if isinstance(key, int):
        return '"' + int.__repr__(key) + '"'
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def _leaf(value: Any, newline: str) -> str | None:
    """A scalar, or a list or tuple that is empty or holds scalars of one
    type, as json writes it where ``newline`` (a line break and the
    indentation) closes it; None for any other value."""
    write = _SCALARS.get(type(value))
    if write is not None:
        return write(value)
    if type(value) in _LISTS:
        if not value:
            return "[]"
        kinds = set(map(type, value))
        if len(kinds) == 1:
            write = _SCALARS.get(kinds.pop())
            if write is not None:
                inner = newline + "  "
                return "[" + inner + ("," + inner).join(map(write, value)) + newline + "]"
    return None


def _compound(value: Any, newline: str) -> str:
    """Any value ``_leaf`` does not write, as json writes it where
    ``newline`` closes it.

    One frame per container, as in json's own encoder, so the recursion
    limit stops both at the same depth to within a level."""
    inner = newline + "  "
    parts: list[str] = []
    append = parts.append
    if isinstance(value, dict):
        if not value:
            return "{}"
        for key, item in value.items():
            key = _escape(key) if type(key) is str else _key(key)
            append(key + ": " + (_leaf(item, inner) or _compound(item, inner)))
        return "{" + inner + ("," + inner).join(parts) + newline + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        kinds = set(map(type, value))
        if kinds <= _LISTS and all(value):
            flat = tuple(chain.from_iterable(value))
            kinds = set(map(type, flat))
            below = inner + "  "
            width = len(value[0])
            if kinds == _INT and all([len(item) == width for item in value]):
                # rows of exact ints of one length, such as the edge lists:
                # one template, as "%d" % v is int.__repr__(v) for those
                row = "[" + below + ("," + below).join(["%d"] * width) + inner + "]"
                return ("[" + inner + ("," + inner).join([row] * len(value)) + newline + "]") % flat
            # lists of scalars of one type
            write = _SCALARS.get(kinds.pop()) if len(kinds) == 1 else None
            if write is not None:
                for item in value:
                    append("[" + below + ("," + below).join(map(write, item)) + inner + "]")
                return "[" + inner + ("," + inner).join(parts) + newline + "]"
        for item in value:
            append(_leaf(item, inner) or _compound(item, inner))
        return "[" + inner + ("," + inner).join(parts) + newline + "]"
    # a subclass of a scalar type
    if isinstance(value, str):
        return _escape(value)
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _float(value)
    raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


def to_json(value: Any) -> str:
    """``json.dumps(value, indent=2) + "\\n"``, byte for byte.

    json writes with its pure-Python encoder whenever ``indent`` is set;
    this writer does the same work in fewer calls.  It takes what json takes
    by default: dicts, lists, tuples, str, int, float, bool and None, with
    str, int, float, bool and None keys.  Any other type raises TypeError.
    The value must hold no reference cycle."""
    return (_leaf(value, "\n") or _compound(value, "\n")) + "\n"


def tree_to_dict(tree: CathedralTree) -> dict[str, Any]:
    return {
        "foundation": {
            "vertices": sorted(tree.foundation_vertices),
            "edges": [list(e) for e in sorted(tree.foundation_edges)],
        },
        "classes": [
            {
                "class": sorted(cls),
                "tower": tree_to_dict(sub) if sub is not None else None,
            }
            for cls, sub in tree.classes
        ],
    }


def _integers(value: Any, what: str) -> list[int]:
    """A JSON list of integers, as given; ``int()`` would also take "01", 1.7
    and true, and build a graph the file does not describe."""
    if not isinstance(value, list) or not all(type(v) is int for v in value):
        raise GraphFormatError(f"malformed {what}: expected a list of integers")
    return value


def tree_from_dict(data: Any) -> CathedralTree:
    if not isinstance(data, dict) or "foundation" not in data or "classes" not in data:
        raise GraphFormatError("tree object needs 'foundation' and 'classes'")
    foundation = data["foundation"]
    if (
        not isinstance(foundation, dict)
        or "vertices" not in foundation
        or "edges" not in foundation
    ):
        raise GraphFormatError("'foundation' needs 'vertices' and 'edges'")
    vertices = frozenset(_integers(foundation["vertices"], "foundation vertices"))
    pairs = foundation["edges"]
    if not isinstance(pairs, list) or any(len(_integers(e, "foundation edge")) != 2 for e in pairs):
        raise GraphFormatError("malformed foundation edges: expected a list of integer pairs")
    edges = frozenset((min(u, v), max(u, v)) for u, v in pairs)
    classes: list[tuple[frozenset[int], CathedralTree | None]] = []
    if not isinstance(data["classes"], list):
        raise GraphFormatError("'classes' must be a list")
    listed: set[int] = set()
    for entry in data["classes"]:
        if not isinstance(entry, dict) or "class" not in entry or "tower" not in entry:
            raise GraphFormatError("each class entry needs 'class' and 'tower'")
        cls = frozenset(_integers(entry["class"], "class"))
        # a repeated class would leave only its last tower in the construction
        if not cls or cls & listed:
            raise GraphFormatError(f"class {sorted(cls)} is empty or repeats vertices of another class")
        listed |= cls
        tower = entry["tower"]
        classes.append((cls, tree_from_dict(tower) if tower is not None else None))
    try:
        Graph(vertices, edges)  # validates endpoint membership and loops
    except ValueError as exc:
        raise GraphFormatError(f"malformed foundation graph: {exc}") from None
    return CathedralTree(vertices, edges, tuple(classes))


def tree_to_json(tree: CathedralTree) -> str:
    try:
        return to_json(tree_to_dict(tree))
    except RecursionError:
        raise GraphFormatError("tree is nested too deeply to write as JSON") from None


def tree_from_json(text: str) -> CathedralTree:
    try:
        return tree_from_dict(json.loads(text))
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"invalid JSON: {exc}") from None
    except RecursionError:
        raise GraphFormatError("tree JSON is nested too deeply") from None


def hasse_dot(poset: ComponentPoset) -> str:
    """DOT rendering of the cover relation; nodes are labeled by sorted
    component vertex lists and edges point from lower to higher element."""
    lines = ["digraph component_order {"]
    for i, comp in enumerate(poset.components.components):
        label = "{" + ", ".join(str(v) for v in sorted(comp)) + "}"
        lines.append(f'  c{i} [label="{label}"];')
    for low, high in poset.hasse:
        lines.append(f"  c{low} -> c{high};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def analysis_dict(
    graph: Graph,
    *,
    include_deleted_partitions: bool = False,
    max_components: int | None = None,
) -> dict[str, Any]:
    structure = GraphStructure(graph)
    comps = structure.components
    _require_within_limit(len(comps), max_components)
    partition = structure.partition
    poset = structure.poset
    low = minimum_component(poset)
    out: dict[str, Any] = {
        "vertices": list(graph.vertices),
        "edges": [list(e) for e in graph.sorted_edges()],
        "factor_components": [sorted(c) for c in comps.components],
        "allowed_edges": [list(e) for e in sorted(comps.allowed)],
        "canonical_partition": [sorted(c) for c in partition.classes],
        "component_order": {
            "leq": [[bool(x) for x in row] for row in poset.leq],
            "hasse": [list(cover) for cover in poset.hasse],
            "minimum": low,
        },
        "saturated": structure.saturated,
    }
    if include_deleted_partitions:
        # marks by position over the ascending ids, so each list is sorted
        vs = graph.vertices
        out["deleted_partitions"] = [
            {
                "vertex": x,
                "d": list(compress(vs, d)),
                "a": list(compress(vs, a)),
                "c": list(compress(vs, c)),
            }
            for x, (d, a, c) in zip(vs, structure.deletion_marks)
        ]
    return out


def analysis_text(analysis: dict[str, Any]) -> str:
    lines = [
        f"vertices: {len(analysis['vertices'])}",
        f"edges: {len(analysis['edges'])}",
        "factor components:",
    ]
    for i, comp in enumerate(analysis["factor_components"]):
        lines.append(f"  {i}: {{{', '.join(map(str, comp))}}}")
    lines.append("canonical partition:")
    lines.append(
        "  " + " ".join("{" + ", ".join(map(str, cls)) + "}" for cls in analysis["canonical_partition"])
    )
    order = analysis["component_order"]
    lines.append("component order (covers, lower -> higher):")
    if order["hasse"]:
        for low, high in order["hasse"]:
            lines.append(f"  {low} -> {high}")
    else:
        lines.append("  (none)")
    lines.append(
        "minimum component: "
        + ("none" if order["minimum"] is None else str(order["minimum"]))
    )
    lines.append(f"saturated: {'yes' if analysis['saturated'] else 'no'}")
    for entry in analysis.get("deleted_partitions", ()):
        lines.append(
            f"delete {entry['vertex']}: d={entry['d']} a={entry['a']} c={entry['c']}"
        )
    return "\n".join(lines) + "\n"


def _config_dict(config: TrialConfig) -> dict[str, Any]:
    return {
        "seed": config.seed,
        "trials": config.trials,
        "max_vertices": config.max_vertices,
        "edge_probability": config.edge_probability,
        "enumeration_cap": config.enumeration_cap,
    }


def _result_dict(result: CheckResult, include_timing: bool) -> dict[str, Any]:
    out: dict[str, Any] = {
        "check": result.check,
        "status": result.status,
        "reason": result.reason,
        "counterexample": result.counterexample,
    }
    if include_timing:
        out["millis"] = round(result.millis, 3)
    return out


def report_dict(
    config: TrialConfig,
    reports: list[SuiteReport],
    *,
    include_timing: bool = False,
) -> dict[str, Any]:
    summary: dict[str, dict[str, int]] = {}
    order: list[str] = []
    for report in reports:
        for result in report.results:
            if result.check not in summary:
                summary[result.check] = {"pass": 0, "fail": 0, "skip": 0}
                order.append(result.check)
            summary[result.check][result.status] += 1
    return {
        "config": _config_dict(config),
        "summary": [
            {"check": name, **summary[name]} for name in order
        ],
        "trials": [
            {
                "trial": i,
                "graph": report.graph_text,
                "results": [_result_dict(r, include_timing) for r in report.results],
            }
            for i, report in enumerate(reports)
        ],
    }


def report_json(
    config: TrialConfig, reports: list[SuiteReport], *, include_timing: bool = False
) -> str:
    return to_json(report_dict(config, reports, include_timing=include_timing))


def report_text(
    config: TrialConfig, reports: list[SuiteReport], *, include_timing: bool = False
) -> str:
    data = report_dict(config, reports, include_timing=include_timing)
    c = data["config"]
    lines = [
        f"seed={c['seed']} trials={c['trials']} max_vertices={c['max_vertices']} "
        f"p={c['edge_probability']} cap={c['enumeration_cap']}",
        "",
    ]
    width = max((len(s["check"]) for s in data["summary"]), default=10)
    millis: dict[str, float] = {}
    for r in chain.from_iterable(report.results for report in reports):
        millis[r.check] = millis.get(r.check, 0.0) + r.millis
    for s in data["summary"]:
        row = f"{s['check']:<{width}}  pass={s['pass']:<4} fail={s['fail']:<4} skip={s['skip']}"
        # summed over the trials and rounded as the JSON rounds each result
        lines.append(row + (f"  millis={round(millis[s['check']], 3)}" if include_timing else ""))
    failures = [
        (t["trial"], r)
        for t in data["trials"]
        for r in t["results"]
        if r["status"] == "fail"
    ]
    lines.append("")
    if failures:
        lines.append(f"{len(failures)} failing check(s):")
        for trial, r in failures:
            lines.append(f"trial {trial}: {r['check']}: {r['reason']}")
            lines.append(r["counterexample"].rstrip())
    else:
        lines.append("no failing checks")
    return "\n".join(lines) + "\n"
