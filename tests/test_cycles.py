"""The package makes no reference cycles: with the collector off, no verb
and no conformance-suite run leaves an object that only the cyclic collector
could free, so no collector pause lands in a check's timing."""

import gc
import json
from pathlib import Path

import pytest

from cathedral.cli import main
from cathedral.verify import TrialConfig, random_factorizable_graph, run_suite

from helpers import plant_k10_closure

GOLDEN = Path(__file__).parent / "golden"


def _unreachable(run) -> int:
    """How many objects only the cyclic collector frees ``run()`` leaves."""
    gc.collect()
    gc.disable()
    try:
        run()
        return gc.collect()
    finally:
        gc.enable()


@pytest.fixture
def closure(tmp_path, capsys):
    """The saturated golden fixture's edge-list file, after one ``main()``
    call: argparse makes cycles once, when it builds the shared parser."""
    path = tmp_path / "p8c.edges"
    path.write_text(json.loads((GOLDEN / "p8c.json").read_text())["edge_list"])
    assert main(["saturated", str(path)]) == 0
    capsys.readouterr()
    return str(path)


@pytest.mark.parametrize(
    "argv",
    [["analyze", "--ge"], ["saturated"], ["saturate"], ["decompose"], ["hasse"]],
    ids=lambda argv: argv[0],
)
def test_a_verb_leaves_no_cycle(closure, capsys, argv):
    assert _unreachable(lambda: main([*argv, closure])) == 0
    assert capsys.readouterr().out


def test_construct_leaves_no_cycle(closure, tmp_path, capsys):
    tree = str(tmp_path / "tree.json")
    assert _unreachable(lambda: main(["decompose", closure, "-o", tree])) == 0
    assert _unreachable(lambda: main(["construct", tree])) == 0
    assert capsys.readouterr().out


def test_the_suite_leaves_no_cycle():
    config = TrialConfig(seed=0, max_vertices=10)
    for trial in range(5):
        graph = random_factorizable_graph(config, trial)
        assert _unreachable(lambda: run_suite(graph, config)) == 0


def test_the_grown_cap_skip_leaves_no_cycle():
    # at cap 1, trial 7 has one perfect matching and a G-u-v with at least
    # two, so the new-matching check stops its counter at the skip
    config = TrialConfig(seed=0, max_vertices=10, enumeration_cap=1)
    graph = random_factorizable_graph(config, 7)
    reports = []
    assert _unreachable(lambda: reports.append(run_suite(graph, config))) == 0
    statuses = {r.check: (r.status, r.reason) for r in reports[0].results}
    assert statuses["complement-edge-new-matching-iff-path"] == (
        "skip",
        "grown enumeration exceeded the cap",
    )


def test_a_failing_check_leaves_no_cycle(monkeypatch):
    # the failure and its counterexample search, under a closure that adds
    # perfect matchings
    graph = plant_k10_closure(monkeypatch)
    reports = []
    assert _unreachable(lambda: reports.append(run_suite(graph, TrialConfig(seed=0)))) == 0
    assert [f.check for f in reports[0].failures()] == ["closure-saturated-and-preserving"]
