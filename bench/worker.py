"""One pass of a benchmark workload, in a fresh interpreter.

    python3 bench/worker.py MANIFEST RESULT

MANIFEST is written by run.py: the workload, its input files and whether
to trace.  The pass sends every request once, in order, one at a time,
through cathedral's entry points.  After each request's timer has stopped
it times the calibration loop and nothing else.  It writes each request's
latency, loop time, outputs or error, plus the process's peak RSS, to
RESULT as JSON; run.py checks the outputs.  The process thus holds only the
program, the timer and the loop, so its peak RSS and its garbage
collections are the program's own.  Starting each pass in a new interpreter
keeps process-wide caches from carrying over between passes.
"""

from __future__ import annotations

import io
import json
import resource
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import Any, Callable

import calibrate


class RequestFailed(Exception):
    pass


def _cli(argv: list[str]) -> str:
    """Run one CLI invocation in-process and return its stdout."""
    from cathedral.cli import main

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    if code != 0:
        raise RequestFailed(f"{argv[0]} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def _analyze_ge(request: dict[str, Any]) -> list[str]:
    return [_cli(["analyze", request["file"], "--ge", "--format", "json"])]


def _analyze(request: dict[str, Any]) -> list[str]:
    return [_cli(["analyze", request["file"], "--format", "json"])]


def _roundtrip(request: dict[str, Any]) -> list[str]:
    closure_path = request["file"] + ".closure"
    tree_path = request["file"] + ".tree.json"
    closure = _cli(["saturate", request["file"]])
    _write(closure_path, closure)
    tree = _cli(["decompose", closure_path])
    _write(tree_path, tree)
    return [closure, tree, _cli(["construct", tree_path])]


def _suite(request: dict[str, Any]) -> list[str]:
    from cathedral.graph import parse_edge_list
    from cathedral.serialize import report_json
    from cathedral.verify import TrialConfig, run_suite

    with open(request["file"], encoding="utf-8") as handle:
        graph = parse_edge_list(handle.read())
    config = TrialConfig(seed=0, trials=1, max_vertices=request["n"])
    return [report_json(config, [run_suite(graph, config)])]


SEND: dict[str, Callable[[dict[str, Any]], list[str]]] = {
    "elementary-analyze": _analyze_ge,
    "order-sparse": _analyze,
    "closure-roundtrip": _roundtrip,
    "verify-suite": _suite,
}


def run_pass(manifest: dict[str, Any]) -> dict[str, Any]:
    import cathedral.cli  # noqa: F401  (import cost is setup_s, not request time)

    workload = manifest["workload"]
    send = SEND[workload]
    restore = None
    tracer = None
    if manifest["trace"]:
        import tracing

        tracer = tracing.Tracer()
        restore = tracing.install(tracer)
    latencies: list[float] = []
    loops: list[float] = []
    outputs: list[list[str]] = []
    errors: list[str | None] = []
    clock = time.perf_counter
    try:
        for request in manifest["requests"]:
            start = clock()
            try:
                sent, error = send(request), None
            except Exception as exc:  # a failed request is counted, not fatal
                sent, error = [], f"{type(exc).__name__}: {exc}"
            latencies.append(clock() - start)
            loops.append(calibrate.loop_seconds())
            outputs.append(sent)
            errors.append(error)
    finally:
        if restore is not None:
            restore()
    return {
        "latencies_s": latencies,
        "loop_s": loops,
        "outputs": outputs,
        "errors": errors,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "trace": tracer.snapshot() if tracer is not None else None,
    }


def main(argv: list[str]) -> int:
    manifest = json.loads(Path(argv[1]).read_text(encoding="utf-8"))
    Path(argv[2]).write_text(json.dumps(run_pass(manifest)), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
