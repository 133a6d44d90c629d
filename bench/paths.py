"""Traced timings of the path P_2k, whose k factor-components form an
antichain: the component order, the saturation closure, and the closure
followed by its decomposition.

    python3 bench/paths.py            # P12, P16 and P20
    python3 bench/paths.py 4 6        # P8 and P12

Every measurement runs in a fresh interpreter, so the matching-number cache
starts empty: once untraced for the wall time, once traced for the layer
times and counts.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
STEPS = ("poset", "saturate", "saturate+decompose")
COLUMNS = (
    "canonical.order.time_s",
    "construction.saturate.time_s",
    "construction.decompose.time_s",
    "canonical.order.fc_tests",
    "matching.searches",
    "graph.built",
)


def _measure(k: int, step: str, trace: bool) -> dict:
    sys.path.insert(0, str(SRC))
    import cathedral.canonical as canonical
    import cathedral.construction as construction
    from cathedral.graph import Graph

    import tracing

    path = Graph(range(2 * k), [(v, v + 1) for v in range(2 * k - 1)])
    tracer = tracing.Tracer()
    restore = tracing.install(tracer) if trace else None
    start = time.perf_counter()
    try:
        # through the modules, so the calls reach the installed wrappers
        if step == "poset":
            canonical.component_poset(path)
        elif step == "saturate":
            construction.saturate(path)
        else:
            construction.decompose(construction.saturate(path)[0])
    finally:
        wall = time.perf_counter() - start
        if restore is not None:
            restore()
    layers = tracing.layer_metrics(tracer.snapshot()) if trace else {}
    return {"wall_s": wall, **layers}


def main(argv: list[str]) -> int:
    if argv[:1] == ["--one"]:
        print(json.dumps(_measure(int(argv[1]), argv[2], argv[3] == "1")))
        return 0
    ks = [int(a) for a in argv] or [6, 8, 10]
    env = dict(os.environ, PYTHONHASHSEED="0")
    print("| P | k | step | wall ms | " + " | ".join(COLUMNS) + " |")
    print("|---" * (4 + len(COLUMNS)) + "|")
    for k in ks:
        for step in STEPS:
            runs = [
                json.loads(
                    subprocess.run(
                        [sys.executable, __file__, "--one", str(k), step, trace],
                        capture_output=True,
                        text=True,
                        check=True,
                        env=env,
                        timeout=600,
                    ).stdout
                )
                for trace in ("0", "1")
            ]
            cells = [f"{runs[1][c]:.3f}" if c.endswith("_s") else str(runs[1][c]) for c in COLUMNS]
            print(f"| P{2 * k} | {k} | {step} | {runs[0]['wall_s'] * 1000:.0f} | " + " | ".join(cells) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
