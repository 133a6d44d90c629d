"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import json
import time
from pathlib import Path


from cathedral.canonical import (
    allowed_edges,
    canonical_partition,
    component_poset,
    factor_components,
)
from cathedral.cli import main
from cathedral.construction import (
    construct_tree,
    decompose,
    foundation_via_ge,
    is_saturated,
    saturate,
)
from cathedral.graph import Graph, induced_subgraph, parse_edge_list
from cathedral.matching import enumerate_perfect_matchings, perfect_matching_union
from cathedral.serialize import analysis_dict, tree_to_dict
from cathedral.verify import (
    PATH_CHECK_IDS,
    TrialConfig,
    random_factorizable_graph,
    run_suite,
)

GOLDEN = Path(__file__).parent / "golden"


def _report(number: int, name: str, violations: list[str]) -> None:
    status = "FAIL" if violations else "PASS"
    print(f"acceptance {number} ({name}): {status}")
    assert not violations, f"criterion {number} ({name}): " + "; ".join(violations[:5])


def _corpus(seed: int, count: int, max_vertices: int) -> list[Graph]:
    cfg = TrialConfig(seed=seed, trials=count, max_vertices=max_vertices, edge_probability=0.3)
    return [random_factorizable_graph(cfg, t) for t in range(count)]


def test_criterion_1_allowed_edges_equal_enumeration_union():
    start = time.monotonic()
    violations = []
    for i, g in enumerate(_corpus(seed=101, count=300, max_vertices=10)):
        if allowed_edges(g) != perfect_matching_union(g, cap=20_000):
            violations.append(f"graph {i} disagrees")
    elapsed = time.monotonic() - start
    if elapsed >= 60.0:
        violations.append(f"took {elapsed:.1f}s (budget 60s)")
    _report(1, "allowed edges match enumeration", violations)


def test_criterion_2_order_and_equivalence_laws():
    violations = []
    for i, g in enumerate(_corpus(seed=101, count=300, max_vertices=10)):
        try:
            poset = component_poset(g)  # raises on any law violation
            canonical_partition(g)  # raises on non-transitivity
        except Exception as exc:  # noqa: BLE001 - any violation fails the criterion
            violations.append(f"graph {i}: {exc}")
            continue
        k = len(poset)
        for a in range(k):
            if not poset.leq[a][a]:
                violations.append(f"graph {i}: not reflexive")
            for b in range(k):
                if a != b and poset.leq[a][b] and poset.leq[b][a]:
                    violations.append(f"graph {i}: not antisymmetric")
                for c in range(k):
                    if poset.leq[a][b] and poset.leq[b][c] and not poset.leq[a][c]:
                        violations.append(f"graph {i}: not transitive")
    _report(2, "component order and partition laws", violations)


def test_criterion_3_path_conformance():
    start = time.monotonic()
    cfg = TrialConfig(seed=202, trials=200, max_vertices=8, edge_probability=0.3)
    violations = []
    for t in range(cfg.trials):
        g = random_factorizable_graph(cfg, t)
        report = run_suite(g, cfg, only=PATH_CHECK_IDS)
        for r in report.failures():
            violations.append(f"trial {t}: {r.check}: {r.reason}")
    elapsed = time.monotonic() - start
    if elapsed >= 300.0:
        violations.append(f"took {elapsed:.1f}s (budget 300s)")
    _report(3, "path-level conformance", violations)


def test_criterion_4_incomparable_pair_witnesses():
    cfg = TrialConfig(seed=202, trials=200, max_vertices=8, edge_probability=0.3)
    violations = []
    for t in range(cfg.trials):
        g = random_factorizable_graph(cfg, t)
        report = run_suite(g, cfg, only=["incomparable-pair-edge-witness"])
        for r in report.results:
            if r.status == "fail":
                violations.append(f"trial {t}: {r.reason}")
    _report(4, "edge witnesses for incomparable pairs", violations)


def test_criterion_5_closure_saturated_and_matching_preserving():
    violations = []
    for i, g in enumerate(_corpus(seed=303, count=200, max_vertices=10)):
        closed, _ = saturate(g)
        if not is_saturated(closed):
            violations.append(f"graph {i}: closure not saturated")
            continue
        before = enumerate_perfect_matchings(g, cap=20_000)
        after = enumerate_perfect_matchings(closed, cap=20_000)
        if before.truncated or after.truncated:
            violations.append(f"graph {i}: enumeration truncated")
        elif before.edge_sets() != after.edge_sets():
            violations.append(f"graph {i}: closure changed the matchings")
    _report(5, "saturation closure preserves matchings", violations)


def test_criterion_6_round_trip_and_foundation_agreement():
    violations = []
    for i, g in enumerate(_corpus(seed=303, count=200, max_vertices=10)):
        closed, _ = saturate(g)
        tree = decompose(closed)
        if construct_tree(tree) != closed:
            violations.append(f"graph {i}: round trip differs")
        if tree.foundation_vertices != foundation_via_ge(closed):
            violations.append(f"graph {i}: foundation disagrees with deletion partitions")
        fv = tree.foundation_vertices
        pieces = [frozenset(cls) for cls, sub in tree.classes if sub is not None]
        union = set(allowed_edges(induced_subgraph(closed, fv)))
        for cls, sub in tree.classes:
            if sub is None:
                continue
            tower_vertices = _tree_vertices(sub)
            union |= allowed_edges(induced_subgraph(closed, tower_vertices))
        if frozenset(union) != allowed_edges(closed):
            violations.append(f"graph {i}: allowed edges not the union over parts")
        part = canonical_partition(closed)
        for comp in factor_components(closed).components:
            own = set(canonical_partition(induced_subgraph(closed, comp)).classes)
            if part.restricted_to(comp) != own:
                violations.append(f"graph {i}: partition restriction mismatch")
                break
    _report(6, "decomposition round trip", violations)


def _tree_vertices(tree) -> frozenset[int]:
    out = set(tree.foundation_vertices)
    for _, sub in tree.classes:
        if sub is not None:
            out |= _tree_vertices(sub)
    return frozenset(out)


def test_criterion_7_fixture_regressions():
    violations = []
    for name in ("p4", "c4", "t", "p8", "p8c"):
        golden = json.loads((GOLDEN / f"{name}.json").read_text())
        graph = parse_edge_list(golden["edge_list"])
        include_ge = "deleted_partitions" in golden["analysis"]
        analysis = analysis_dict(graph, include_deleted_partitions=include_ge)
        if analysis != golden["analysis"]:
            violations.append(f"{name}: analysis drifted")
        enum = enumerate_perfect_matchings(graph, cap=100)
        got = [[list(e) for e in m.sorted_edges()] for m in enum]
        if got != golden["perfect_matchings"]:
            violations.append(f"{name}: perfect matchings drifted")
        if "closure" in golden:
            closed, added = saturate(graph)
            if [list(e) for e in added] != golden["closure"]["added"]:
                violations.append(f"{name}: closure additions drifted")
            if [list(e) for e in closed.sorted_edges()] != golden["closure"]["edges"]:
                violations.append(f"{name}: closure edges drifted")
        if "closure_ascending" in golden:
            for key, descending in (("closure_ascending", False), ("closure_descending", True)):
                closed, added = saturate(graph, descending=descending)
                if [list(e) for e in added] != golden[key]["added"]:
                    violations.append(f"{name}: {key} additions drifted")
                if not is_saturated(closed):
                    violations.append(f"{name}: {key} not saturated")
                pms = [[list(e) for e in m.sorted_edges()] for m in enumerate_perfect_matchings(closed, 100)]
                if pms != golden["closure_matchings"]:
                    violations.append(f"{name}: {key} changed the matchings")
        if "tree" in golden:
            if tree_to_dict(decompose(graph)) != golden["tree"]:
                violations.append(f"{name}: decomposition tree drifted")
            if sorted(foundation_via_ge(graph)) != golden["foundation_via_ge"]:
                violations.append(f"{name}: foundation drifted")
    _report(7, "fixture regressions", violations)


def test_criterion_8_verify_cli_is_deterministic(tmp_path):
    args = [
        "verify", "--seed", "1", "--trials", "100",
        "--max-n", "6", "--cap", "32", "--format", "json",
    ]
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    code_a = main(args + ["-o", str(first)])
    code_b = main(args + ["-o", str(second)])
    violations = []
    if code_a != code_b:
        violations.append(f"exit codes differ: {code_a} vs {code_b}")
    if code_a != 0:
        violations.append(f"verify reported failures (exit {code_a})")
    if first.read_bytes() != second.read_bytes():
        violations.append("JSON output differs between runs")
    _report(8, "verify determinism", violations)
