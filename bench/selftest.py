"""Tests of the benchmark itself (not of cathedral).

    python3 -m pytest bench/selftest.py

Kept out of the repository's test run by its file name: they run parts of
the benchmark, which takes some seconds.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
for path in (str(BENCH), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def _requests(tmp_path: Path, name: str, count: int, seed: int = 0) -> list[dict]:
    w = workloads.WORKLOADS[name]
    out = []
    for i, edges in enumerate(workloads.make_inputs(w, seed)[:count]):
        path = tmp_path / f"{name}-{i}.edges"
        path.write_text(workloads.edge_list_text(w.n, edges))
        out.append({"file": str(path), "n": w.n, "edges": edges})
    return out


def test_generator_repeats_for_a_seed_and_keeps_the_mix():
    for w in workloads.WORKLOADS.values():
        batch = workloads.make_inputs(w, 5)
        assert batch == workloads.make_inputs(w, 5)
        assert batch != workloads.make_inputs(w, 6)
        counts: dict[int, int] = {}
        for edges in batch:
            k = len(workloads.Oracle(w.n, edges).components())
            counts[k] = counts.get(k, 0) + 1
        assert counts == w.mix
    # and in a fresh interpreter with another hash seed
    code = (
        "import sys, json; sys.path.insert(0, sys.argv[1]); import workloads; "
        "print(json.dumps(workloads.make_inputs(workloads.WORKLOADS['order-sparse'], 5)))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, str(BENCH)],
        capture_output=True,
        text=True,
        check=True,
        env={"PYTHONHASHSEED": "123"},
    )
    fresh = json.loads(done.stdout)
    assert [[tuple(e) for e in g] for g in fresh] == workloads.make_inputs(
        workloads.WORKLOADS["order-sparse"], 5
    )


def test_checks_reject_a_wrong_output(tmp_path):
    (request,) = _requests(tmp_path, "order-sparse", 1)
    (text,) = worker.SEND["order-sparse"](request)
    edges = [tuple(e) for e in request["edges"]]
    assert workloads.check_analysis(text, request["n"], edges, False) is None
    data = json.loads(text)
    data["allowed_edges"] = data["allowed_edges"][1:]
    assert "allowed edges" in workloads.check_analysis(json.dumps(data), request["n"], edges, False)


def test_altered_digest_counts_as_one_failed_request(tmp_path):
    requests = _requests(tmp_path, "verify-suite", 10)
    result = worker.run_pass({"workload": "verify-suite", "requests": requests, "trace": False})
    committed = run.load_reference(None, "verify-suite", 0, 200)
    assert run.failures("verify-suite", requests, [result], committed[:10]) == []

    altered = committed[:10]
    altered[3] = "0" * run.DIGEST_HEX
    failed = run.failures("verify-suite", requests, [result], altered)
    assert failed == ["pass 0 request 3: output digest differs from the reference"]


def test_reference_of_another_length_is_refused(tmp_path):
    committed = json.loads((BENCH / "digests" / "verify-suite.json").read_text())
    committed["seeds"]["0"] = committed["seeds"]["0"][:10]
    (tmp_path / "verify-suite.json").write_text(json.dumps(committed))
    with pytest.raises(run.BenchError, match="10 digests"):
        run.load_reference(tmp_path, "verify-suite", 0, 200)
    assert run.load_reference(None, "verify-suite", 10**6, 200) is None


def test_untraced_pass_leaves_every_function_original(tmp_path):
    import cathedral.matching

    original = cathedral.matching.maximum_matching
    result = worker.run_pass(
        {"workload": "verify-suite", "requests": _requests(tmp_path, "verify-suite", 2), "trace": False}
    )
    assert result["trace"] is None and result["errors"] == [None, None]
    assert cathedral.matching.maximum_matching is original
    assert tracing.wrapped_bindings() == []


def test_install_wraps_every_binding_and_restores_them():
    import cathedral.canonical
    import cathedral.construction
    import cathedral.verify

    originals = (
        cathedral.canonical.is_factorizable,
        cathedral.construction.is_factorizable,
        cathedral.verify.gallai_edmonds,
    )
    restore = tracing.install(tracing.Tracer())
    try:
        bound = set(tracing.wrapped_bindings())
    finally:
        restore()
    assert {
        "cathedral.canonical.is_factorizable",
        "cathedral.construction.is_factorizable",
        "cathedral.matching.is_factorizable",
        "cathedral.verify.gallai_edmonds",
        "cathedral.gallai_edmonds.matching_number",
        "cathedral.graph.Graph.__init__",
    } <= bound
    assert tracing.wrapped_bindings() == []
    assert originals == (
        cathedral.canonical.is_factorizable,
        cathedral.construction.is_factorizable,
        cathedral.verify.gallai_edmonds,
    )


def test_traced_counts_repeat_exactly(tmp_path):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(
        json.dumps(
            {
                "workload": "closure-roundtrip",
                "requests": _requests(tmp_path, "closure-roundtrip", 6, seed=3),
                "trace": True,
            }
        )
    )
    counted = [name for name, unit in run.declared("per_layer").items() if unit == "count"]
    counts = []
    for i in range(2):  # each in a fresh interpreter, as the benchmark runs them
        result = tmp_path / f"result{i}.json"
        subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), str(manifest), str(result)],
            env=run._env(),
            timeout=120,
            check=True,
        )
        trace = json.loads(result.read_text())["trace"]
        values = tracing.layer_metrics(trace)
        counts.append({name: values[name] for name in counted})
    assert counts[0] == counts[1]
    assert counts[0]["construction.saturate.tests"] > 0
