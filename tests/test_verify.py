import random
from collections import Counter
from itertools import combinations

import pytest

import cathedral.matching
import cathedral.verify
from cathedral.canonical import CanonicalPartition, GraphStructure
from cathedral.cli import main
from cathedral.construction import CathedralTree, saturate
from cathedral.errors import NotFactorizableError
from cathedral.graph import Graph, add_edges, complement_pairs, delete_vertices, induced_subgraph
from cathedral.matching import enumerate_perfect_matchings
from cathedral.serialize import report_json
from cathedral.verify import (
    _CHECKS,
    CHECK_IDS,
    PATH_CHECK_IDS,
    TrialConfig,
    _capped_matching_counter,
    _run_one,
    _TrialContext,
    random_factorizable_graph,
    run_suite,
    run_trials,
)

from helpers import (
    C5,
    K4,
    P4,
    T,
    assert_kept_is_the_induced_subgraph,
    counted_rows,
    kept_sets,
    plant_k10_closure,
)


def test_config_validation():
    with pytest.raises(ValueError):
        TrialConfig(seed=0, trials=0)
    with pytest.raises(ValueError):
        TrialConfig(seed=0, max_vertices=7)
    with pytest.raises(ValueError):
        TrialConfig(seed=0, edge_probability=1.5)


def test_generator_degenerate_probabilities():
    assert random_factorizable_graph(TrialConfig(seed=3, max_vertices=2, edge_probability=0.0), 0) == Graph(
        range(2), [(0, 1)]
    )
    g = random_factorizable_graph(TrialConfig(seed=5, max_vertices=4, edge_probability=1.0), 1)
    if g.order == 4:
        assert g == K4
    else:
        assert g == Graph(range(2), [(0, 1)])


def test_generator_is_deterministic_and_factorizable():
    cfg = TrialConfig(seed=1, trials=10, max_vertices=8, edge_probability=0.3)
    first = [random_factorizable_graph(cfg, t) for t in range(10)]
    second = [random_factorizable_graph(cfg, t) for t in range(10)]
    assert first == second
    for g in first:
        planted = {(2 * i, 2 * i + 1) for i in range(g.order // 2)}
        assert planted <= g.edges


def test_generator_regression_fixture():
    # recorded after the first run; pins the determinism contract
    g = random_factorizable_graph(TrialConfig(seed=1, max_vertices=8, edge_probability=0.3), 0)
    assert g.vertices == (0, 1, 2, 3, 4, 5)
    assert g.sorted_edges() == [(0, 1), (1, 3), (1, 4), (2, 3), (4, 5)]


def test_suite_on_saturated_fixture_nothing_skips():
    report = run_suite(T, TrialConfig(seed=1, trials=1))
    assert report.ok
    assert all(r.status == "pass" for r in report.results)
    assert len(report.results) == len(CHECK_IDS)


def test_suite_on_unsaturated_fixture_reruns_on_closure():
    report = run_suite(P4, TrialConfig(seed=1, trials=1))
    assert report.ok
    skipped = {r.check for r in report.results if r.status == "skip"}
    assert "saturated-has-minimum" in skipped
    assert "foundation-equals-ge-complement" in skipped
    closure = {r.check: r.status for r in report.results if r.check.endswith("@closure")}
    assert closure and set(closure.values()) == {"pass"}
    assert {c.removesuffix("@closure") for c in closure} == skipped


def test_suite_rejects_non_factorizable_input():
    with pytest.raises(NotFactorizableError):
        run_suite(C5, TrialConfig(seed=1, trials=1))


def test_suite_rejects_unknown_check_ids():
    with pytest.raises(ValueError, match="unknown check ids"):
        run_suite(T, TrialConfig(seed=1, trials=1), only=["no-such-check"])


def test_suite_subset_run():
    report = run_suite(T, TrialConfig(seed=1, trials=1), only=PATH_CHECK_IDS)
    assert {r.check for r in report.results} == set(PATH_CHECK_IDS)
    assert report.ok


def test_exhausted_search_budget_skips_instead_of_passing(monkeypatch):
    monkeypatch.setattr(cathedral.verify, "_PATH_BUDGET", 1)
    cfg = TrialConfig(seed=1, trials=1)
    report = run_suite(K4, cfg, only=["saturated-path-iff-deletion-factorizable"])
    (result,) = report.results
    assert result.status == "skip"
    assert result.reason == "search budget exceeded"


def test_a_budget_bound_sweep_runs_once_per_matching(monkeypatch):
    # the host's sweep runs out of its 20 expansions; the failure is kept,
    # so each later check that reads it skips without walking again
    budget = 20
    monkeypatch.setattr(cathedral.verify, "_PATH_BUDGET", budget)
    config = TrialConfig(seed=0)
    ctx = _TrialContext(random_factorizable_graph(config, 0), config)
    spent: Counter = Counter()
    swept: Counter = Counter()
    current = []
    sweep = cathedral.verify.alternating_reachability

    def counted_sweep(graph, matching, **kwargs):
        if kwargs.get("kept") is not None:
            return sweep(graph, matching, **kwargs)
        # every swept graph is held by the context, so no id is reused
        key = (id(graph), matching.edges)
        swept[key] += 1
        current.append(key)
        try:
            return sweep(graph, matching, **kwargs)
        finally:
            current.pop()

    walk = cathedral.matching._walk

    def counted_walk(*args):
        left = args[-1]
        before = left[0]
        try:
            yield from walk(*args)
        finally:
            if current:
                spent[current[-1]] += before - left[0]

    monkeypatch.setattr(cathedral.verify, "alternating_reachability", counted_sweep)
    monkeypatch.setattr(cathedral.matching, "_walk", counted_walk)
    results = [_run_one(name, check, ctx)[0] for name, check in _CHECKS]
    skipped = [r for r in results if r.reason == "search budget exceeded"]
    assert len(skipped) == 10
    assert set(swept.values()) == {1}
    assert spent[id(ctx.graph), ctx.matchings[0].edges] == budget + 1


def test_whole_graph_path_questions_read_the_one_sweep(monkeypatch):
    # one component, so every region of the upward check is the whole graph
    # and the part of elementary reachability is the graph itself: the
    # suite sweeps each checked matching once, and asks the path search
    # nothing it has swept.  The checks rerun on the closure read no sweep
    config = TrialConfig(seed=0)
    graph = random_factorizable_graph(config, 8)
    swept, asked = [], []
    sweep = cathedral.verify.alternating_reachability
    search = cathedral.verify.alternating_path_exists

    def counted_sweep(g, matching, **kwargs):
        swept.append((g, matching.edges, kwargs.get("kept")))
        return sweep(g, matching, **kwargs)

    def counted_search(g, *args, **kwargs):
        asked.append(kwargs.get("kept"))
        return search(g, *args, **kwargs)

    monkeypatch.setattr(cathedral.verify, "alternating_reachability", counted_sweep)
    monkeypatch.setattr(cathedral.verify, "alternating_path_exists", counted_search)
    report = run_suite(graph, config)
    assert report.ok and any(r.check.endswith("@closure") for r in report.results)
    ctx = _TrialContext(graph, config)
    assert len(ctx.components) == 1 and len(ctx.matchings_checked) == 7
    assert swept == [(graph, m.edges, None) for m in ctx.matchings_checked]
    assert asked == []


def _raises_failure(check, ctx: _TrialContext) -> bool:
    try:
        check(ctx)
    except cathedral.verify._CheckFailed:
        return True
    return False


def test_a_dropped_sweep_endpoint_fails_the_checks_that_read_it():
    # the checks that read the host's sweep in place of a path search still
    # check what they read: with v dropped from the saturated ends of u, the
    # upward check misses a path across classes, and elementary
    # reachability misses u-v unless a balanced path joins them
    config = TrialConfig(seed=0)
    ctx = _TrialContext(random_factorizable_graph(config, 8), config)
    run = dict(_CHECKS)
    upward, elementary = run["upward-reachability"], run["elementary-pairwise-reachability"]
    reach = ctx.reach[0]
    assert not _raises_failure(upward, ctx) and not _raises_failure(elementary, ctx)
    dropped = 0
    for u in ctx.graph.vertices:
        ends = reach.saturated[u]
        for v in sorted(ends):
            reach.saturated[u] = ends - {v}
            assert _raises_failure(upward, ctx), (u, v)
            assert _raises_failure(elementary, ctx) == (v not in reach.balanced[u]), (u, v)
            dropped += 1
        reach.saturated[u] = ends
    assert dropped == 54
    assert not _raises_failure(upward, ctx) and not _raises_failure(elementary, ctx)


_SEEDED_CORPORA = pytest.mark.parametrize(
    "config",
    [
        TrialConfig(seed=0, trials=12, max_vertices=8),
        TrialConfig(seed=3, trials=8, max_vertices=10, edge_probability=0.4),
        # a small cap truncates some enumerations on both sides
        TrialConfig(seed=5, trials=8, max_vertices=10, edge_probability=0.5, enumeration_cap=3),
    ],
    ids=["seed0", "seed3", "seed5-cap3"],
)


@_SEEDED_CORPORA
def test_the_grown_count_is_the_host_count_plus_the_pair_deleted_count(config):
    # |PM(G+uv)| = |PM(G)| + |PM(G-u-v)|, so the new-matching check counts
    # G-u-v under the cap left over from G; the truncation flags agree too
    cap = 2 * config.enumeration_cap
    truncated = 0
    for trial in range(config.trials):
        graph = random_factorizable_graph(config, trial)
        base = enumerate_perfect_matchings(graph, config.enumeration_cap)
        if base.truncated:
            continue
        for pair in complement_pairs(graph):
            grown = enumerate_perfect_matchings(add_edges(graph, [pair]), cap)
            deleted = enumerate_perfect_matchings(delete_vertices(graph, pair), cap - len(base))
            assert deleted.truncated == grown.truncated
            truncated += grown.truncated
            if not grown.truncated:
                assert len(grown) == len(base) + len(deleted)
                assert {m.edges for m in grown} == base.edge_sets() | {
                    m.edges | {pair} for m in deleted
                }
    assert truncated or config.enumeration_cap > 3


@_SEEDED_CORPORA
def test_kept_answers_as_the_induced_subgraph(config):
    # the pair verdicts ask their G-u-v this way; the new-matching check
    # counts its G-u-v with the capped counter, tested against the
    # enumeration of the induced subgraph below
    rng = random.Random(config.seed)
    for trial in range(config.trials):
        graph = random_factorizable_graph(config, trial)
        for kept in kept_sets(graph, rng):
            assert_kept_is_the_induced_subgraph(graph, kept)


def test_the_suite_builds_no_pair_deletion(monkeypatch):
    # every G-u-v, and each G-x of the gallai_edmonds and is_factor_critical
    # cross-checks, is asked on the host's index
    calls = []
    delete_vertices = cathedral.verify.delete_vertices
    monkeypatch.setattr(
        cathedral.verify,
        "delete_vertices",
        lambda graph, removed: calls.append(removed) or delete_vertices(graph, removed),
    )
    config = TrialConfig(seed=0, max_vertices=10)
    graph = next(g for t in range(100) if (g := random_factorizable_graph(config, t)).order == 10)
    assert run_suite(graph, config).ok
    assert calls == []


@_SEEDED_CORPORA
def test_the_new_matching_check_skips_where_the_grown_enumeration_truncates(config):
    # the definition: enumerate each G+uv under twice the cap, in pair order
    name = "complement-edge-new-matching-iff-path"
    check = dict(_CHECKS)[name]
    statuses = Counter()
    for trial in range(config.trials):
        graph = random_factorizable_graph(config, trial)
        result = _run_one(name, check, _TrialContext(graph, config))[0]
        statuses[result.status] += 1
        if enumerate_perfect_matchings(graph, config.enumeration_cap).truncated:
            assert result.status == "skip"
            continue
        grown = (add_edges(graph, [pair]) for pair in complement_pairs(graph))
        if any(enumerate_perfect_matchings(g, 2 * config.enumeration_cap).truncated for g in grown):
            assert (result.status, result.reason) == ("skip", "grown enumeration exceeded the cap")
        else:
            assert result.status == "pass"
    assert statuses["pass"]


def _kept_count(graph, limit, kept):
    """min(|PM(G[kept])|, limit) and whether G[kept] has more than
    ``limit``, by the enumeration of the induced subgraph."""
    enum = enumerate_perfect_matchings(induced_subgraph(graph, kept), limit)
    return len(enum), enum.truncated


@_SEEDED_CORPORA
def test_the_capped_counter_agrees_with_the_enumeration(config):
    # every pair deletion, not only the complement pairs, on one memo per
    # graph and limit, in pair order
    compared = 0
    for trial in range(config.trials):
        graph = random_factorizable_graph(config, trial)
        pos = graph.positions
        for cap in (1, 2, 3, 65):
            capped = _capped_matching_counter(graph, cap)
            past = _capped_matching_counter(graph, cap + 1)
            for pair in combinations(graph.vertices, 2):
                mask = 1 << pos[pair[0]] | 1 << pos[pair[1]]
                found, truncated = _kept_count(graph, cap, graph.vertex_set.difference(pair))
                assert capped(mask) == found, (sorted(graph.edges), pair, cap)
                count = past(mask)
                assert min(count, cap) == found and (count > cap) == truncated, (pair, cap)
                compared += 1
    assert compared


@_SEEDED_CORPORA
def test_the_capped_counter_expands_only_what_the_enumerations_visit(config):
    # per pair, in pair order, no more masks than the enumeration with the
    # same cap visits on the induced subgraph, whose positions keep their
    # rank order, so that it walks the same tree; then every count below
    # the limit comes from the memo
    reads = [0]
    for trial in range(config.trials):
        seeded = random_factorizable_graph(config, trial)
        graph = counted_rows(seeded, reads)
        pos = graph.positions
        masks = {p: 1 << pos[p[0]] | 1 << pos[p[1]] for p in combinations(graph.vertices, 2)}
        every = seeded.vertex_set
        subgraphs = {
            p: counted_rows(induced_subgraph(seeded, every.difference(p)), reads) for p in masks
        }
        for cap in (1, 3, 65):
            count = _capped_matching_counter(graph, cap + 1)
            counted = {}
            for pair, mask in masks.items():
                before = reads[0]
                counted[pair] = count(mask)
                expanded, before = reads[0] - before, reads[0]
                enumerate_perfect_matchings(subgraphs[pair], cap)
                assert expanded <= reads[0] - before, (sorted(graph.edges), pair, cap)
            before = reads[0]
            for pair, mask in masks.items():
                if counted[pair] <= cap:
                    assert count(mask) == counted[pair]
            assert reads[0] == before


@pytest.mark.parametrize(
    "graph, total",
    [
        (K4, 3),
        (Graph(range(6), combinations(range(6), 2)), 15),
        (Graph(range(8), [(i, (i + 1) % 8) for i in range(8)]), 2),
    ],
    ids=["K4", "K6", "C8"],
)
def test_the_capped_counter_at_its_boundaries(graph, total):
    # the count equals the limit, then the limit plus one, and the same
    # answers again from the memo
    for limit in (total - 1, total, total + 1):
        count = _capped_matching_counter(graph, limit)
        for _ in range(2):
            assert count(0) == min(total, limit)
        assert _kept_count(graph, limit, graph.vertices) == (min(total, limit), total > limit)


@pytest.mark.parametrize("n", [2100, 4000])
def test_the_capped_counter_has_no_recursion_limit(n):
    # one frame per expanded mask, as the enumeration has one per matched vertex
    g = Graph(range(n), [(i, i + 1) for i in range(0, n, 2)])
    count = _capped_matching_counter(g, 2)
    assert count(0) == 1
    assert count(0b11) == 1
    assert count(0b101) == 0
    assert count(0b1) == 0


def test_the_suite_counts_no_pair_deletion_by_enumeration(monkeypatch):
    # every G-u-v of the new-matching check is counted on the graph's one
    # memo; G, its closures and its parts are enumerated, and no G-u-v of a
    # complement pair is among them
    enumerated, counters = [], []
    enumerate_all = cathedral.matching.enumerate_perfect_matchings
    counter = cathedral.verify._capped_matching_counter

    def enumerate_recorded(graph, cap=cathedral.matching.DEFAULT_ENUMERATION_CAP):
        enumerated.append(graph)
        return enumerate_all(graph, cap)

    for module in (cathedral.matching, cathedral.verify):
        monkeypatch.setattr(module, "enumerate_perfect_matchings", enumerate_recorded)
    monkeypatch.setattr(
        cathedral.verify,
        "_capped_matching_counter",
        lambda graph, limit: counters.append(graph) or counter(graph, limit),
    )
    config = TrialConfig(seed=0, max_vertices=10)
    graphs = [g for t in range(20) if (g := random_factorizable_graph(config, t)).order == 10]
    for graph in graphs:
        enumerated.clear()
        assert run_suite(graph, config).ok
        assert graph in enumerated
        every = graph.vertex_set
        pairs = {induced_subgraph(graph, every.difference(p)) for p in complement_pairs(graph)}
        assert pairs and not pairs.intersection(enumerated), sorted(graph.edges)
    assert graphs and counters


def test_a_closure_with_more_than_twice_the_cap_fails(monkeypatch):
    # the closure's enumeration truncates at twice the cap, where the
    # input's is complete
    graph = plant_k10_closure(monkeypatch)
    report = run_suite(graph, TrialConfig(seed=0), only=["closure-saturated-and-preserving"])
    (failure,) = report.failures()
    assert failure.reason.endswith("changed the perfect matchings")
    assert failure.counterexample.startswith("vertices ")


def test_reports_are_replayable():
    cfg = TrialConfig(seed=9, trials=5, max_vertices=6)
    a = run_trials(cfg)
    b = run_trials(cfg)
    assert report_json(cfg, a) == report_json(cfg, b)
    assert all(rep.ok for rep in a)


def test_failure_reporting_carries_counterexample(monkeypatch):
    # sabotage one check to exercise the failure path and the shrinker
    from cathedral import verify as v

    cfg = TrialConfig(seed=1, trials=1)
    broken = ("always-broken", lambda ctx: v._fail("induced failure"))
    monkeypatch.setattr(v, "_CHECKS", v._CHECKS + (broken,))
    monkeypatch.setattr(v, "CHECK_IDS", v.CHECK_IDS + ("always-broken",))
    report = v.run_suite(T, cfg, only=["always-broken"])
    failures = report.failures()
    assert len(failures) == 1
    assert failures[0].check == "always-broken"
    assert failures[0].reason == "induced failure"
    assert failures[0].counterexample.startswith("vertices ")


def test_a_decomposition_construct_refuses_fails_the_checks_that_rebuild_it(monkeypatch):
    # a tree with two foundation classes merged: construct raises
    # ClassKeyMismatch, which is the decomposition's fault, not the input's
    decompose = cathedral.verify._decompose_saturated

    def merged(*args):
        tree = decompose(*args)
        (first, tower), (second, _), *rest = tree.classes
        return CathedralTree(
            tree.foundation_vertices, tree.foundation_edges, ((first | second, tower), *rest)
        )

    monkeypatch.setattr(cathedral.verify, "_decompose_saturated", merged)
    config = TrialConfig(seed=0)
    report = run_suite(saturate(random_factorizable_graph(config, 0))[0], config)
    failures = report.failures()
    assert [f.check for f in failures] == [
        "decomposition-round-trip",
        "construction-foundation-minimum",
        "construction-output-saturated",
    ]
    for failure in failures:
        assert failure.reason.startswith("construct refused the decomposition: ")
        assert failure.counterexample.startswith("vertices ")


def test_a_precondition_error_inside_a_check_fails_that_check(monkeypatch, capsys):
    # a trial graph is factorizable by construction, so an order without a
    # minimum is the package's fault, not the input's: foundation_via_ge's
    # NoMinimumComponent fails the check instead of ending the run with exit 3
    monkeypatch.setattr(GraphStructure, "minimum", property(lambda self: None))
    config = TrialConfig(seed=0)
    report = run_suite(saturate(random_factorizable_graph(config, 0))[0], config)
    (failure,) = [f for f in report.failures() if f.check == "foundation-equals-ge-complement"]
    assert failure.reason == "the component order has no minimum element"
    assert failure.counterexample.startswith("vertices ")
    assert main(["verify", "--seed", "0", "--trials", "5"]) == 1
    out, err = capsys.readouterr()
    assert "foundation-equals-ge-complement" in out and err == ""


# C4 plus the chord 0-2: saturated and elementary, with classes {0, 2}, {1}, {3}
DIAMOND = Graph(range(4), [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)])


@pytest.mark.parametrize(
    "artifact, wrong, checks",
    [
        (
            "partition",
            CanonicalPartition((frozenset({0, 2}), frozenset({1, 3}))),
            (
                "canonical-partition-equivalence",
                "partition-refines-subgraph-partition",
                "saturated-partition-matches-parts",
            ),
        ),
        (
            "allowed",
            frozenset({(1, 2), (2, 3), (0, 3)}),
            ("allowed-edges-from-parts", "allowed-edges-enumeration-agreement"),
        ),
    ],
    ids=["merged-classes", "dropped-edge"],
)
def test_a_planted_fault_fails_each_check_that_compares_it(artifact, wrong, checks):
    # a part context is rebuilt from scratch even when the part is the whole
    # graph, so the host's wrong artifact is never compared with itself
    ctx = _TrialContext(DIAMOND, TrialConfig(seed=0))
    assert ctx.saturated and len(ctx.components) == 1
    assert ctx.partition.classes == (frozenset({0, 2}), frozenset({1}), frozenset({3}))
    assert ctx.allowed == frozenset({(0, 1), (1, 2), (2, 3), (0, 3)})
    ctx.__dict__[artifact] = wrong
    run = dict(_CHECKS)
    assert [_run_one(name, run[name], ctx)[0].status for name in checks] == ["fail"] * len(checks)
