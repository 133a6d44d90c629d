"""The cathedral benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed 0 --seconds 20 --trace 0

Run it from anywhere inside a checkout; it drives the program under
``src/`` of the checkout it sits in.  The seed gives the inputs: one batch
of graphs per workload, written as edge-list files.  Each pass sends the
whole batch, one request at a time (closed loop, one client), in a fresh
interpreter; passes repeat until ``--seconds`` would be exceeded.  Every
output is checked, and the last line of stdout is one JSON object with the
end-to-end metrics (``--trace 0``) or the per-layer metrics of one traced
pass (``--trace 1``).  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

import calibrate
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DIGESTS = BENCH / "digests"
SETUP_SAMPLES = 9
DIGEST_HEX = 16  # 64 bits of SHA-256 per output: enough to tell outputs apart
PASS_TIMEOUT_S = 150


def declared(kind: str) -> dict[str, str]:
    """Metric name -> unit, for "end_to_end" or "per_layer", as BENCHMARK.json
    at the root of the checkout declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


class BenchError(Exception):
    pass


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"  # same string hashes, so set layouts repeat across passes
    return env


def _run(argv: list[str], env: dict[str, str]) -> str:
    try:
        done = subprocess.run(
            argv, env=env, cwd=ROOT, capture_output=True, text=True, timeout=PASS_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{argv[1]} did not finish in {PASS_TIMEOUT_S} s") from None
    if done.returncode != 0:
        raise BenchError(f"{argv[1]} exited {done.returncode}: {done.stderr.strip()[-2000:]}")
    return done.stdout


def setup_seconds(env: dict[str, str]) -> tuple[float, float]:
    """Median time of ``import cathedral.cli`` in fresh interpreters, the cost
    every CLI invocation pays before any work: rescaled, and as measured."""
    code = (
        "import time; t = time.perf_counter(); import cathedral.cli; "
        "took = time.perf_counter() - t; import sys; sys.path.insert(0, sys.argv[1]); "
        "import calibrate, statistics; "
        "print(took, statistics.median(calibrate.loop_seconds() for _ in range(5)))"
    )
    samples = [
        [float(x) for x in _run([sys.executable, "-c", code, str(BENCH)], env).split()]
        for _ in range(SETUP_SAMPLES)
    ]
    return (
        statistics.median(took * calibrate.REFERENCE_S / loop for took, loop in samples),
        statistics.median(took for took, _ in samples),
    )


def write_inputs(workload: workloads.Workload, seed: int, work: Path) -> list[dict[str, Any]]:
    requests = []
    for i, edges in enumerate(workloads.make_inputs(workload, seed)):
        path = work / f"g{i:04d}.edges"
        path.write_text(workloads.edge_list_text(workload.n, edges), encoding="utf-8")
        requests.append({"file": str(path), "n": workload.n, "edges": edges})
    return requests


def run_pass(
    work: Path,
    name: str,
    requests: list[dict[str, Any]],
    trace: bool,
    index: int,
    env: dict[str, str],
) -> dict[str, Any]:
    manifest = work / f"pass{index}.manifest.json"
    result = work / f"pass{index}.result.json"
    manifest.write_text(
        json.dumps({"workload": name, "requests": requests, "trace": trace}), encoding="utf-8"
    )
    _run([sys.executable, str(BENCH / "worker.py"), str(manifest), str(result)], env)
    return json.loads(result.read_text(encoding="utf-8"))


def load_reference(directory: Path | None, name: str, seed: int, size: int) -> list[str] | None:
    """Digests to compare against, from ``<directory>/<workload>.json``.

    Without a directory the committed digests are used, and None comes back
    when they hold none for this seed."""
    path = (directory or DIGESTS) / f"{name}.json"
    if not path.is_file():
        if directory is None:
            return None
        raise BenchError(f"no digests at {path}")
    data = json.loads(path.read_text(encoding="utf-8"))
    if data["workload"] != name:
        raise BenchError(f"{path} holds digests of {data['workload']}")
    digests = data["seeds"].get(str(seed))
    if digests is None:
        if directory is None:
            return None
        raise BenchError(f"{path} holds no digests for seed {seed}")
    if len(digests) != size:
        raise BenchError(f"{path} holds {len(digests)} digests for seed {seed}, not {size}")
    return digests


def record(directory: Path, name: str, seed: int, digests: list[str]) -> None:
    """Add this seed's digests to ``<directory>/<workload>.json``."""
    path = directory / f"{name}.json"
    seeds = json.loads(path.read_text(encoding="utf-8"))["seeds"] if path.is_file() else {}
    seeds[str(seed)] = digests
    directory.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(
            {"workload": name, "seeds": dict(sorted(seeds.items(), key=lambda kv: int(kv[0])))},
            indent=1,
        )
        + "\n",
        encoding="utf-8",
    )


def digest(outputs: list[str]) -> str:
    return hashlib.sha256("\0".join(outputs).encode()).hexdigest()[:DIGEST_HEX]


def check(name: str, request: dict[str, Any], outputs: list[str]) -> str | None:
    """The workload's output check for one request (see workloads.py)."""
    n, edges = request["n"], [tuple(e) for e in request["edges"]]
    try:
        if name in ("elementary-analyze", "order-sparse"):
            return workloads.check_analysis(outputs[0], n, edges, name == "elementary-analyze")
        if name == "closure-roundtrip":
            return workloads.check_closure(outputs, n, edges)
        return workloads.check_suite(outputs[0], n, edges)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"


def failures(
    name: str,
    requests: list[dict[str, Any]],
    passes: list[dict[str, Any]],
    reference: list[str] | None,
) -> list[str]:
    """One line per failed request: it raised or exited nonzero, its output
    failed the check, or the output's digest differs from the reference.
    Without a reference, later passes are compared with the first.  An
    output seen before for the same request is not checked again."""
    verdicts: dict[tuple[int, str], str | None] = {}
    expected = reference
    out = []
    for p, result in enumerate(passes):
        digests = []
        for i, (request, error, outputs) in enumerate(
            zip(requests, result["errors"], result["outputs"], strict=True)
        ):
            digests.append(digest(outputs) if error is None else "")
            if error is None:
                if (i, digests[i]) not in verdicts:
                    verdicts[i, digests[i]] = check(name, request, outputs)
                error = verdicts[i, digests[i]]
            if error is None and expected is not None and digests[i] != expected[i]:
                error = "output digest differs from the reference"
            if error is not None:
                out.append(f"pass {p} request {i}: {error}")
        if expected is None:
            expected = digests
    return out


def latency_stats(passes: list[dict[str, Any]], rescale: bool) -> tuple[float, float, float]:
    """Requests per second, p50 and p90 latency in seconds, over every
    request of every pass."""
    latencies = [
        t
        for p in passes
        for t in (calibrate.rescaled(p["latencies_s"], p["loop_s"]) if rescale else p["latencies_s"])
    ]
    return (
        len(latencies) / sum(latencies),
        statistics.median(latencies),
        statistics.quantiles(latencies, n=10)[8],
    )


def end_to_end(passes: list[dict[str, Any]], setup_s: float) -> dict[str, float]:
    per_s, p50, p90 = latency_stats(passes, rescale=True)
    return {
        "graphs_per_s": per_s,
        "latency_p50_ms": p50 * 1000.0,
        "latency_p90_ms": p90 * 1000.0,
        "setup_s": setup_s,
        "peak_rss_mb": statistics.median(p["peak_rss_kb"] for p in passes) / 1024.0,
    }


def run_workload(args: argparse.Namespace, name: str) -> dict[str, Any]:
    workload = workloads.WORKLOADS[name]
    env = _env()
    work = ROOT / ".bench_work" / f"{name}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        requests = write_inputs(workload, args.seed, work)
        reference = load_reference(args.reference, name, args.seed, len(requests))
        passes: list[dict[str, Any]] = []
        if args.trace:
            # one untraced pass to measure the overhead, then the traced pass
            passes.append(run_pass(work, name, requests, False, 0, env))
            passes.append(run_pass(work, name, requests, True, 1, env))
        else:
            setup_s, setup_raw_s = setup_seconds(env)
            start = time.perf_counter()
            while True:
                began = time.perf_counter()
                passes.append(run_pass(work, name, requests, False, len(passes), env))
                now = time.perf_counter()
                if now - start + (now - began) > args.seconds:
                    break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    failed = failures(name, requests, passes, reference)
    attempted = sum(len(p["latencies_s"]) for p in passes)
    if reference is not None:
        compared = f"digests checked against {args.reference or 'the committed'} seed-{args.seed} reference"
    elif len(passes) > 1:
        compared = f"no reference digests for seed {args.seed}: passes compared with the first only"
    else:
        compared = f"no reference digests for seed {args.seed}: digests unchecked"
    print(
        f"{name} seed={args.seed}: {len(requests)} inputs (n={workload.n}, p={workload.p}) "
        f"x {len(passes)} pass(es), closed loop, 1 client; every output checked; {compared}"
    )
    for line in failed[:20]:
        print(f"  FAILED {line}")
    print(f"  error_rate        {len(failed)}/{attempted} = {len(failed) / attempted:.6g}")
    if args.trace:
        plain, traced = passes
        values = tracing.layer_metrics(traced["trace"])
        traced_s = sum(traced["latencies_s"])
        values["trace.requests_s"] = traced_s
        values["trace.overhead"] = (
            latency_stats([traced], rescale=True)[0] / latency_stats([plain], rescale=True)[0]
        )
        units = declared("per_layer")
        for key, value in values.items():
            timed = key.endswith("_s") and key != "trace.requests_s"
            share = f"  ({value / traced_s:.1%} of request time)" if timed else ""
            print(f"  {key:<44} {value:.6g} {units.get(key, '')}{share}")
    else:
        values = end_to_end(passes, setup_s)
        raw_per_s, raw_p50, raw_p90 = latency_stats(passes, rescale=False)
        units = declared("end_to_end")
        beyond = attempted - round(0.9 * attempted)
        notes = {
            "graphs_per_s": f"(wall clock {raw_per_s:.6g})",
            "latency_p50_ms": f"(wall clock {raw_p50 * 1000:.6g}; {attempted} samples)",
            "latency_p90_ms": f"(wall clock {raw_p90 * 1000:.6g}; {attempted} samples, {beyond} beyond)",
            "setup_s": f"(wall clock {setup_raw_s:.6g}; median of {SETUP_SAMPLES} fresh interpreters)",
            "peak_rss_mb": f"(median of {len(passes)} passes)",
        }
        loop = statistics.median(t for p in passes for t in p["loop_s"])
        print(f"  calibration loop  {loop * 1000:.4g} ms (reference {calibrate.REFERENCE_S * 1000:.4g} ms)")
        for key, value in values.items():
            print(f"  {key:<17} {value:.6g} {units.get(key, '')} {notes.get(key, '')}".rstrip())
    missing = set(units) - set(values)
    if missing:
        raise BenchError(f"metrics declared but not measured: {sorted(missing)}")
    metrics = {key: {"value": values[key], "unit": unit} for key, unit in units.items()}
    if args.record is not None:
        if failed:
            raise BenchError("not recording the digests of a run with failed requests")
        record(args.record, name, args.seed, [digest(o) for o in passes[0]["outputs"]])
    return {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": metrics,
    }


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--reference",
        type=Path,
        metavar="DIR",
        help="check outputs against DIR/<workload>.json (default: bench/digests, if it has the seed)",
    )
    parser.add_argument(
        "--record", type=Path, metavar="DIR", help="add the output digests to DIR/<workload>.json"
    )
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "cathedral" / "cli.py").is_file():
        print(f"error: no program to measure: {SRC / 'cathedral'} is missing", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        try:
            result = run_workload(args, name)
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 3
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
