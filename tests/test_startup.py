"""The modules that ``import cathedral.cli`` loads, the cost every CLI
invocation pays first.

The package's value classes are plain classes, so the import loads no
``dataclasses`` and none of the modules that come with it.  It loads every
cathedral module that the benchmark's tracer wraps, as the tracer reads
them from ``sys.modules`` once ``cathedral.cli`` is imported.  It does not
load ``cathedral.checks``, the conformance suite's checks, which
``verify.run_suite`` imports on its first call.  Each probe runs in a fresh
interpreter, so no module loaded by another test is counted.
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

_CLI = """
import json, sys
before = set(sys.modules)
import cathedral.cli
print(json.dumps(sorted(set(sys.modules) - before)))
"""

# the cathedral modules that the CLI's import loads, then those that one
# suite run on K_2 loads
_SUITE = """
import json, sys
before = set(sys.modules)
import cathedral.cli
cli = set(sys.modules) - before
from cathedral.graph import Graph
from cathedral.verify import TrialConfig, run_suite
run_suite(Graph(range(2), [(0, 1)]), TrialConfig(seed=0))
suite = set(sys.modules) - before - cli
print(json.dumps([sorted(m for m in loaded if m.startswith("cathedral")) for loaded in (cli, suite)]))
"""


def _probe(program: str):
    """What ``program``, run in a fresh interpreter, prints as JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", program], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(done.stdout)


def test_importing_the_cli_loads_no_dataclasses_and_every_traced_module():
    loaded = set(_probe(_CLI))
    assert sorted(name for name in FORBIDDEN if name in loaded) == []
    assert sorted(name for name in TRACED if name not in loaded) == []


def test_the_checks_load_with_the_first_suite_run_not_with_the_cli():
    cli, suite = _probe(_SUITE)
    assert "cathedral.verify" in cli and "cathedral.checks" not in cli
    assert suite == ["cathedral.checks"]


def test_the_verifier_keeps_its_entry_points_and_the_pinned_binding():
    # bench/tracing.py wraps these names on cathedral.verify, and
    # bench/selftest.py pins its gallai_edmonds binding
    held = _probe(
        """
import json, sys
import cathedral.verify as verify
home = sys.modules["cathedral.gallai_edmonds"].gallai_edmonds
print(json.dumps({
    "entry points": [
        name
        for name in ("run_suite", "run_trials", "random_factorizable_graph")
        if getattr(verify, name).__module__ == "cathedral.verify"
    ],
    "pinned": verify.gallai_edmonds is home,
    "checks loaded": "cathedral.checks" in sys.modules,
}))
"""
    )
    assert held == {
        "entry points": ["run_suite", "run_trials", "random_factorizable_graph"],
        "pinned": True,
        "checks loaded": False,
    }
