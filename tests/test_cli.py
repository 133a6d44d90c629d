import argparse
import hashlib
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import cathedral
import cathedral.canonical
import cathedral.cli
from cathedral.cli import MAX_TRIAL_VERTICES, build_parser, main
from cathedral.construction import decompose
from cathedral.errors import StructureViolation
from cathedral.graph import Graph, parse_edge_list, render_edge_list
from cathedral.serialize import tree_to_json

from helpers import C4, P4, T, chain_tree


@pytest.fixture
def edge_files(tmp_path):
    paths = {}
    for name, g in (("t", T), ("p4", P4), ("c4", C4)):
        path = tmp_path / f"{name}.edges"
        path.write_text(render_edge_list(g))
        paths[name] = str(path)
    return paths


def test_saturated_exit_codes(edge_files, capsys):
    assert main(["saturated", edge_files["t"]]) == 0
    assert capsys.readouterr().out == "saturated\n"
    assert main(["saturated", edge_files["c4"]]) == 1
    assert capsys.readouterr().out == "not saturated\n"


def test_decompose_unsaturated_is_a_precondition_error(edge_files, capsys):
    assert main(["decompose", edge_files["p4"]]) == 3
    assert "input is not saturated" in capsys.readouterr().err


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["no-such-command"])
    assert info.value.code == 2


def test_missing_file_exits_2(capsys):
    assert main(["saturated", "/nonexistent/xyz.edges"]) == 2
    assert "cannot read" in capsys.readouterr().err


@pytest.mark.parametrize(
    "verb", ["analyze", "saturated", "saturate", "decompose", "construct", "hasse", "verify"]
)
@pytest.mark.parametrize("target", ["missing-directory", "directory"])
def test_an_unwritable_output_exits_2_on_one_line(tmp_path, capsys, verb, target):
    edges = tmp_path / "t.edges"
    edges.write_text(render_edge_list(T))
    tree = tmp_path / "t.json"
    assert main(["decompose", str(edges), "-o", str(tree)]) == 0
    source = {"construct": [str(tree)], "verify": ["--trials", "1"]}.get(verb, [str(edges)])
    out = tmp_path / "missing" / "out.txt" if target == "missing-directory" else tmp_path
    capsys.readouterr()
    assert main([verb, *source, "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}: ") and err.count("\n") == 1


@pytest.mark.parametrize("verb", ["analyze", "construct"])
def test_a_non_utf8_file_is_a_format_error(tmp_path, capsys, verb):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"vertices 2\n0 1\n\xff\n")
    assert main([verb, str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot read {bad}: not UTF-8 text\n"


def test_malformed_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.edges"
    bad.write_text("vertices 2\n0 0\n")
    assert main(["analyze", str(bad)]) == 2
    assert "self-loop" in capsys.readouterr().err


def _env() -> dict[str, str]:
    """The environment of a new interpreter that imports this cathedral."""
    paths = [str(Path(cathedral.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}


def test_a_huge_vertex_count_is_refused_before_it_is_built(tmp_path):
    # a 22-byte file declaring 10^10 vertices; the CLI runs in its own
    # process under a 1.5 GB address-space limit, so a build of that graph
    # fails there instead of exhausting the machine
    huge = tmp_path / "huge.edges"
    huge.write_text("vertices 10000000000\n0 1\n")
    limit = 1536 * 2**20
    done = subprocess.run(
        [sys.executable, "-c", "import sys; from cathedral.cli import main; sys.exit(main())"]
        + ["analyze", str(huge)],
        env=_env(),
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 2, done.stderr
    assert done.stderr == "error: line 1: vertex count exceeds 1000000\n"


def _fresh_cli(argv: list[str]) -> tuple[str, str, int]:
    """stdout, stderr and exit code of ``argv`` as a new interpreter's first call."""
    done = subprocess.run(
        [sys.executable, "-m", "cathedral.cli", *argv],
        env=_env(),
        capture_output=True,
        text=True,
        timeout=60,
    )
    return done.stdout, done.stderr, done.returncode


@pytest.mark.parametrize("verb", ["analyze", "construct", "saturate", "help", "analyze-help"])
@pytest.mark.parametrize("sink", ["full-device", "closed-pipe"])
def test_a_failed_stdout_write_exits_2_on_one_line(tmp_path, verb, sink):
    # saturate -o writes its count line to stdout, after the file; argparse
    # writes --help itself and would drop the error
    edges = tmp_path / "t.edges"
    edges.write_text(render_edge_list(T))
    tree = tmp_path / "t.json"
    tree.write_text(tree_to_json(decompose(T)))
    argv = {
        "analyze": ["analyze", str(edges)],
        "construct": ["construct", str(tree)],
        "saturate": ["saturate", str(edges), "-o", str(tmp_path / "closed.edges")],
        "help": ["--help"],
        "analyze-help": ["analyze", "--help"],
    }[verb]
    if sink == "full-device":
        if not os.path.exists("/dev/full"):
            pytest.skip("this system has no /dev/full")
        stdout, reason = open("/dev/full", "w"), "No space left on device"
    else:
        read, write = os.pipe()
        os.close(read)
        stdout, reason = os.fdopen(write, "w"), "Broken pipe"
    with stdout:
        done = subprocess.run(
            [sys.executable, "-m", "cathedral.cli", *argv],
            env=_env(),
            stdout=stdout,
            stderr=subprocess.PIPE,
            text=True,
            timeout=60,
        )
    assert (done.returncode, done.stderr) == (2, f"error: cannot write stdout: {reason}\n")


def _in_process_cli(argv: list[str], capsys) -> tuple[str, str, int]:
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return captured.out, captured.err, code


def test_repeated_calls_share_one_parser(edge_files, tmp_path, monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    tree = tmp_path / "t.json"
    assert main(["analyze", edge_files["t"]]) == 0
    assert main(["saturated", edge_files["c4"]]) == 1
    assert main(["saturate", edge_files["p4"]]) == 0
    assert main(["decompose", edge_files["t"], "-o", str(tree)]) == 0
    assert main(["hasse", edge_files["t"]]) == 0
    # the root parser and one per verb: at most one tree in the process
    assert len(built) <= 8


def test_no_flag_leaks_from_one_call_into_the_next(edge_files, tmp_path, monkeypatch, capsys):
    # a fixed width makes --help the same in and out of a terminal
    monkeypatch.setenv("COLUMNS", "80")
    # every call below parses with this one parser
    assert build_parser() is build_parser()
    out = tmp_path / "analysis.txt"
    requests = [
        ["analyze", edge_files["t"], "--ge", "--format", "json"],
        ["analyze", edge_files["t"], "--format", "json"],
        ["analyze", edge_files["t"], "--max-components", "1"],
        ["verify", "--max-n", "3"],
        ["analyze", edge_files["t"], "-o", str(out)],
        ["--help"],
        ["--help"],
    ]

    def take_output() -> str | None:
        if not out.exists():
            return None
        text = out.read_text()
        out.unlink()
        return text

    answers = []
    for argv in requests:
        answer = _in_process_cli(argv, capsys)
        assert (answer, take_output()) == (_fresh_cli(argv), take_output())
        answers.append(answer)
    assert "deleted_partitions" in json.loads(answers[0][0])
    assert "deleted_partitions" not in json.loads(answers[1][0])
    assert answers[2][2] == 3 and answers[2][1].startswith("error: ")
    assert answers[3][2] == 2 and answers[3][1].startswith("usage: cathedral verify")
    assert answers[4] == ("", "", 0)
    assert answers[5] == answers[6] and answers[5][0].startswith("usage: cathedral")


def test_non_factorizable_analyze_exits_3(tmp_path, capsys):
    odd = tmp_path / "odd.edges"
    odd.write_text("vertices 5\n0 1\n1 2\n2 3\n3 4\n0 4\n")
    assert main(["analyze", str(odd)]) == 3
    assert "perfect matching" in capsys.readouterr().err


def test_saturate_writes_closure_with_added_edges(edge_files, tmp_path, capsys):
    out = tmp_path / "closure.edges"
    assert main(["saturate", edge_files["p4"], "-o", str(out)]) == 0
    assert capsys.readouterr().out == "1 edge(s) added\n"
    text = out.read_text()
    assert "# added 0 2" in text
    assert parse_edge_list(text) == T


def test_construct_round_trips_decompose_byte_for_byte(edge_files, tmp_path):
    tree_path = tmp_path / "t.json"
    rebuilt_path = tmp_path / "t2.edges"
    assert main(["decompose", edge_files["t"], "-o", str(tree_path)]) == 0
    assert main(["construct", str(tree_path), "-o", str(rebuilt_path)]) == 0
    assert rebuilt_path.read_bytes() == (render_edge_list(T)).encode()


def test_construct_rejects_bad_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["construct", str(bad)]) == 2
    bad.write_text('{"foundation": {"vertices": [0, 1], "edges": []}, "classes": []}')
    # K2 without its edge is not factorizable: precondition error
    assert main(["construct", str(bad)]) == 3


def _tree(vertices, classes):
    edges = [[vertices[i], vertices[i + 1]] for i in range(0, len(vertices), 2)]
    return {
        "foundation": {"vertices": vertices, "edges": edges},
        "classes": [{"class": cls, "tower": tower} for cls, tower in classes],
    }


def _k2(vertices: str, edge: str, first_class: str) -> str:
    """Tree JSON of the K2 on {0, 1} with the given raw JSON fragments."""
    return (
        f'{{"foundation": {{"vertices": {vertices}, "edges": [{edge}]}}, '
        f'"classes": [{{"class": {first_class}, "tower": null}}, {{"class": [1], "tower": null}}]}}'
    )


@pytest.mark.parametrize(
    "text, fragment",
    [
        # a second entry for class [0] would replace the first one's tower
        (
            json.dumps(
                _tree(
                    [0, 1],
                    [([0], _tree([2, 3], [([2], None), ([3], None)])), ([0], None), ([1], None)],
                )
            ),
            "repeats vertices",
        ),
        (json.dumps(_tree([0, 1], [([0, 1], None), ([1], None)])), "repeats vertices"),
        ('{"a": ' * 3000 + "1" + "}" * 3000, "nested too deeply"),
        (json.dumps(_tree([5, 7], [([5], None), ([7], None)])), "dense vertex ids"),
        ('{"foundation": {"vertices": [Infinity], "edges": []}, "classes": []}', "malformed foundation"),
        # int() would read each of these as the K2 on {0, 1} and exit 0
        (_k2('"01"', "[0, 1]", "[0]"), "malformed foundation vertices"),
        (_k2("[0, 1.7]", "[0, 1]", "[0]"), "malformed foundation vertices"),
        (_k2("[0, true]", "[0, 1]", "[0]"), "malformed foundation vertices"),
        (_k2("[0, 1]", '"01"', "[0]"), "malformed foundation edge"),
        (_k2("[0, 1]", "[0, 1]", '["0"]'), "malformed class"),
    ],
    ids=[
        "repeated-class",
        "overlapping-class",
        "deep-nesting",
        "sparse-ids",
        "infinite-id",
        "string-vertices",
        "float-id",
        "boolean-id",
        "string-edge",
        "string-class-member",
    ],
)
def test_construct_rejects_malformed_trees_with_exit_2(tmp_path, capsys, text, fragment):
    spec = tmp_path / "tree.json"
    spec.write_text(text)
    assert main(["construct", str(spec)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and fragment in captured.err


@pytest.mark.parametrize(
    "error",
    [ValueError("bad index"), StructureViolation("bad order")],
    ids=["value-error", "structure-violation"],
)
def test_internal_errors_exit_4_on_one_line(edge_files, monkeypatch, capsys, error):
    def broken(graph):
        raise error

    monkeypatch.setattr(cathedral.cli, "is_saturated", broken)
    assert main(["saturated", edge_files["t"]]) == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(error) in err and "internal" in err


def test_a_search_that_augments_exits_4_on_one_line(tmp_path, monkeypatch, capsys):
    # under P_4's non-perfect matching [1, 0, -1, -1] the row of 0 searches
    # from 1 and augments to 2, which a perfect matching rules out
    monkeypatch.setattr(cathedral.canonical, "_perfect_mate", lambda adj: [1, 0, -1, -1])
    path = tmp_path / "p4.edges"
    path.write_text(render_edge_list(P4))
    assert main(["analyze", str(path)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "structure violation (internal bug): a search under a perfect matching augmented\n"
    )


def test_a_tree_too_deep_to_write_exits_2_on_one_line(edge_files, monkeypatch, capsys):
    # decompose itself finishes far deeper than the JSON encoder can nest
    monkeypatch.setattr(cathedral.cli, "decompose", lambda graph: chain_tree(400))
    assert main(["decompose", edge_files["t"]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: tree is nested too deeply to write as JSON\n"


def test_hasse_output(edge_files, capsys):
    assert main(["hasse", edge_files["t"]]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph component_order {")
    assert "c1 -> c0;" in out


def test_analyze_json_structure(edge_files, capsys):
    assert main(["analyze", edge_files["t"], "--format", "json", "--ge"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["factor_components"] == [[0, 1], [2, 3]]
    assert data["canonical_partition"] == [[0], [1], [2], [3]]
    assert data["component_order"]["minimum"] == 1
    assert data["saturated"] is True
    deleted = {entry["vertex"]: entry for entry in data["deleted_partitions"]}
    assert deleted[2]["c"] == [0, 1]


def test_analyze_text_is_deterministic(edge_files, capsys):
    assert main(["analyze", edge_files["t"]]) == 0
    first = capsys.readouterr().out
    assert main(["analyze", edge_files["t"]]) == 0
    assert capsys.readouterr().out == first


def test_verify_json_deterministic_across_runs(tmp_path):
    args = ["verify", "--seed", "1", "--trials", "8", "--max-n", "6", "--cap", "32", "--format", "json"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["-o", str(a)]) == 0
    assert main(args + ["-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    data = json.loads(a.read_text())
    assert data["config"]["seed"] == 1
    assert all("millis" not in r for t in data["trials"] for r in t["results"])


@pytest.mark.parametrize(
    "args, digest",
    [
        (
            ["--seed", "0", "--trials", "100", "--max-n", "8"],
            "27adea756d13d37dd2ac6209647d34b1f5e324c8ff5567af9386529095587830",
        ),
        (
            ["--seed", "3", "--trials", "40", "--max-n", "10", "--p", "0.4"],
            "bf154348ee29874c748213595472f74583663aded660826f7d50b493386a2c19",
        ),
        (
            # orders above the exhaustive-matching limit check the first
            # perfect matching only
            ["--seed", "0", "--trials", "30", "--max-n", "12"],
            "75f848889d751fcc2ccaa3900783bd0388d2c3d7ddece25dd4845c42a07c535b",
        ),
        (
            # trial 0 has 28 vertices: every reachability check there skips
            # with "search budget exceeded"
            ["--seed", "0", "--trials", "3", "--max-n", "30"],
            "6b4a9d8a3f5ae55b8d20647dc118239e2a98640c9ceb33983337d7de4a1bc03f",
        ),
        (
            # the new-matching check passes on 18 trials, skips 17 with more
            # than 1 perfect matching and 5 where the grown enumeration
            # exceeds the cap
            ["--seed", "0", "--trials", "40", "--max-n", "10", "--cap", "1"],
            "080f9259322460bfa75ac8a72ec27dae333d949baf6d3b209d4b4c175dde7bd1",
        ),
    ],
    ids=["seed0", "seed3", "seed0-n12", "seed0-n30-budget", "seed0-n10-cap1"],
)
def test_verify_json_bytes_are_pinned(tmp_path, args, digest):
    out = tmp_path / "report.json"
    main(["verify", *args, "--format", "json", "-o", str(out)])
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_verify_rejects_odd_max_n(capsys):
    with pytest.raises(SystemExit) as info:
        main(["verify", "--max-n", "7"])
    assert info.value.code == 2


@pytest.mark.parametrize("value", [MAX_TRIAL_VERTICES + 2, 100_000, 10**30])
def test_verify_refuses_a_max_n_above_the_cap(value, capsys):
    # refused as a usage error before any trial graph is drawn; the pair
    # loop at 100000 vertices used to end in a MemoryError traceback
    with pytest.raises(SystemExit) as info:
        main(["verify", "--max-n", str(value), "--trials", "1"])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert f"must be at most {MAX_TRIAL_VERTICES}" in err and "Traceback" not in err
    assert cathedral.cli._even(str(MAX_TRIAL_VERTICES)) == MAX_TRIAL_VERTICES


@pytest.mark.parametrize(
    "flag, value",
    [("--p", "2"), ("--p", "-0.1"), ("--p", "nan"), ("--cap", "0"), ("--trials", "0")],
)
def test_verify_rejects_bad_flags_as_usage_errors(flag, value, capsys):
    with pytest.raises(SystemExit) as info:
        main(["verify", flag, value])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["analyze", "hasse"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_max_components_below_one_is_a_usage_error(tmp_path, capsys, command, value):
    empty = tmp_path / "empty.edges"
    empty.write_text("vertices 0\n")
    with pytest.raises(SystemExit) as info:
        main([command, str(empty), "--max-components", value])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "argument --max-components" in err and "Traceback" not in err


def test_more_than_16_components_get_an_answer(tmp_path, capsys):
    # P48 has 24 factor-components; only a limit the caller sets refuses it
    path, closure, tree, rebuilt = (
        tmp_path / name for name in ("p48.edges", "closure.edges", "tree.json", "rebuilt.edges")
    )
    path.write_text(render_edge_list(Graph(range(48), [(v, v + 1) for v in range(47)])))
    assert main(["analyze", str(path), "--format", "json"]) == 0
    analysis = json.loads(capsys.readouterr().out)
    assert len(analysis["factor_components"]) == 24
    assert analysis["component_order"]["hasse"] == []
    assert main(["saturate", str(path), "-o", str(closure)]) == 0
    assert main(["decompose", str(closure), "-o", str(tree)]) == 0
    assert main(["construct", str(tree), "-o", str(rebuilt)]) == 0
    edge_lines = lambda p: [line for line in p.read_bytes().splitlines(True) if not line.startswith(b"#")]
    assert edge_lines(rebuilt) == edge_lines(closure)
    capsys.readouterr()
    assert main(["hasse", str(path), "--max-components", "16"]) == 3
    assert "24 components exceed the component limit of 16" in capsys.readouterr().err
