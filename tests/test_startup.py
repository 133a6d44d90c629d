"""The modules that ``import cathedral.cli`` loads, the cost every CLI
invocation pays first.

The package's value classes are plain classes, so the import loads no
``dataclasses`` and none of the modules that come with it.  It loads every
cathedral module that the benchmark's tracer wraps, as the tracer reads
them from ``sys.modules`` once ``cathedral.cli`` is imported.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# dataclasses and what it imports, none of which the CLI otherwise uses
FORBIDDEN = ("dataclasses", "inspect", "ast", "dis", "tokenize")

# the modules bench/tracing.py wraps
TRACED = tuple(
    f"cathedral.{name}"
    for name in (
        "graph",
        "matching",
        "gallai_edmonds",
        "canonical",
        "construction",
        "serialize",
        "verify",
        "cli",
    )
)

_PROBE = """
import json, sys
before = set(sys.modules)
import cathedral.cli
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def _newly_loaded() -> set[str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _PROBE], env=env, capture_output=True, text=True, check=True
    )
    return set(json.loads(done.stdout))


def test_importing_the_cli_loads_no_dataclasses_and_every_traced_module():
    loaded = _newly_loaded()
    assert sorted(name for name in FORBIDDEN if name in loaded) == []
    assert sorted(name for name in TRACED if name not in loaded) == []
