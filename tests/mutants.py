"""The mutation gate: every catalogued fault of the fast paths must be killed.

    python tests/mutants.py [NAME ...]

Each mutant of ``CATALOGUE`` is one single-site source edit.  For each (or
only the named ones), the script copies the checkout's ``src``, ``tests``,
``conftest.py`` and ``pyproject.toml`` to a fresh temporary directory,
applies the edit there, and runs ``SUBSET``, the test modules of the fast
paths, with ``pytest -x`` under a wall-clock limit of ``LIMIT_S``.  It
prints one line per mutant:

- ``killed``, with the first failing test;
- ``survived``, when the whole subset passes;
- ``hung``, when the run outlives the limit, or the per-test hang guard of
  ``conftest.py`` ends it;
- ``broken``, when pytest could not run the subset at all.

A mutant that can change no answer and no cost is listed as equivalent,
with the reason, and its survival is expected.  The exit status is 1 when a
mutant that is not equivalent is not killed, or an edit no longer applies
(its text must occur exactly once), and 0 otherwise.  The checkout
itself is never edited.  Standard library only; pytest does not collect
this file, and it runs as its own CI step rather than in tier-1.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "conftest.py", "pyproject.toml")
LEFT_OUT = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis")

# the modules whose tests read the value classes' semantics and the fast
# paths' answers and costs
SUBSET = (
    "tests/test_values.py",
    "tests/test_matching.py",
    "tests/test_gallai_edmonds.py",
    "tests/test_primitives.py",
    "tests/test_structure.py",
    "tests/test_construction.py",
    "tests/test_canonical.py",
    "tests/test_acceptance.py",
    "tests/test_serialize.py",
)
LIMIT_S = 300.0  # the subset passes in about 50 s
HANG_MARK = "Timeout ("  # how faulthandler's dump, armed by conftest.py, begins


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the checkout
    old: str  # must occur exactly once in the file
    new: str
    reason: str  # the fault it plants
    equivalent: str | None = None  # why it can change no answer and no cost


GRAPH = "src/cathedral/graph.py"
MATCHING = "src/cathedral/matching.py"
CANONICAL = "src/cathedral/canonical.py"
GALLAI_EDMONDS = "src/cathedral/gallai_edmonds.py"
SERIALIZE = "src/cathedral/serialize.py"

CATALOGUE = (
    Mutant(
        "value-eq-without-class-test",
        GRAPH,
        "        if other.__class__ is not self.__class__:\n            return NotImplemented\n",
        "",
        "a value equals one of another class whose fields are equal",
    ),
    Mutant(
        "value-hash-leaves-out-a-field",
        GRAPH,
        "        return hash(self._values())\n",
        "        return hash(self._values()[1:])\n",
        "a value hashes without its first field, so values that differ there collide",
    ),
    Mutant(
        "value-assignment-guard-removed",
        GRAPH,
        "    def __setattr__(self, name: str, value: object) -> None:\n"
        '        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")\n'
        "\n",
        "",
        "a value's fields can be reassigned after it is built",
    ),
    Mutant(
        "one-pair-heads-guard-dropped",
        MATCHING,
        "                    and (members is None or members[w] is None)\n",
        "",
        "the one-pair shrink taken at a w that heads its own blossom, leaving "
        "w's members on their old base",
    ),
    Mutant(
        "one-pair-stem-check-true",
        MATCHING,
        "                    and base[parent[x]] == bv\n",
        "                    and True\n",
        "the one-pair shrink taken when x's parent lies outside v's blossom, "
        "so the stem is not v's base",
    ),
    Mutant(
        "one-pair-visible-return-dropped",
        MATCHING,
        "                    queue.append(x)\n"
        "                    if len(queue) == visible:\n"
        "                        return outer, queue\n",
        "                    queue.append(x)\n",
        "the search scans on after a one-pair shrink has made every visible "
        "vertex outer",
    ),
    Mutant(
        "general-shrink-base-not-reread",
        MATCHING,
        "                    return outer, queue\n                bv = base[v]\n",
        "                    return outer, queue\n",
        "after a general shrink v keeps its old base, so each neighbour in "
        "its new blossom is taken for a blossom edge again",
    ),
    Mutant(
        "general-shrink-fresh-unsorted",
        MATCHING,
        "                if len(fresh) > 1:\n"
        "                    fresh.sort()  # the order a scan of every position gives\n",
        "",
        "a general shrink queues its new outer vertices in walk order, not "
        "ascending",
    ),
    Mutant(
        "general-shrink-fresh-not-queued",
        MATCHING,
        "                queue.extend(fresh)\n",
        "",
        "the vertices a general shrink turns outer are marked but never scanned",
    ),
    Mutant(
        "general-shrink-inner-base-dropped",
        MATCHING,
        "                        bases.append(base[mate[x]])\n",
        "",
        "a blossom walk hands on the outer bases only, so the inner vertices "
        "on the paths keep their own base",
    ),
    Mutant(
        "isolated-root-skipped",
        MATCHING,
        "                yield v, [v]  # what its search would mark, without n-long arrays\n",
        "                continue\n",
        "the pass drops a failed root with no visible neighbour instead of "
        "yielding it alone",
    ),
    Mutant(
        "above-keeps-a-part-with-any-outer-vertex",
        CANONICAL,
        "            still = [i for i in up if all([outer[v] for v in parts[i]])]\n",
        "            still = [i for i in up if any([outer[v] for v in parts[i]])]\n",
        "``above`` keeps a component some of whose vertices the contraction "
        "search leaves inner",
    ),
    Mutant(
        "minimum-tries-least-degree-first",
        CANONICAL,
        "key=lambda i: -len(rows[i])",
        "key=lambda i: len(rows[i])",
        "``minimum`` first tries the component of a vertex of least degree, "
        "which on a saturated graph is not the foundation",
    ),
    Mutant(
        "saturated-searches-every-row",
        CANONICAL,
        "            if n - 1 - i > len(ws) - bisect_right(ws, i):\n",
        "            if True:\n",
        "``saturated`` runs the row of a vertex joined to every later one",
    ),
    Mutant(
        "fast-check-skips-parts-comparison",
        GALLAI_EDMONDS,
        "        if exposed != parts:\n"
        '            raise DeficiencyViolation(f"{exposed} exposed vertices, {parts} parts of D, |A| = 0")\n',
        "",
        "a D that is every visible position passes the deficiency check "
        "whatever the count of parts of G less the hidden ones",
    ),
    Mutant(
        "deletion-lists-reversed",
        SERIALIZE,
        '                "d": list(compress(vs, d)),\n',
        '                "d": list(reversed(list(compress(vs, d)))),\n',
        "the analysis writes each D(G-x) in descending order",
    ),
    Mutant(
        "template-without-equal-lengths",
        SERIALIZE,
        "            if kinds == _INT and all([len(item) == width for item in value]):\n",
        "            if kinds == _INT:\n",
        "the one-template writer takes rows of exact ints of unequal lengths, "
        "each written as wide as the first",
    ),
    Mutant(
        "empty-leaf-written-as-object",
        SERIALIZE,
        '            return "[]"\n        kinds = set(map(type, value))\n        if len(kinds) == 1:\n',
        '            return "{}"\n        kinds = set(map(type, value))\n        if len(kinds) == 1:\n',
        "an empty list or tuple is written as json writes an empty object",
    ),
)


def copy_checkout(into: Path) -> None:
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, into / name, ignore=LEFT_OUT)
        else:
            shutil.copy2(source, into / name)


def apply(mutant: Mutant, root: Path) -> None:
    path = root / mutant.path
    text = path.read_text(encoding="utf-8")
    found = text.count(mutant.old)
    if found != 1:
        raise ValueError(f"{mutant.name}: its text occurs {found} times in {mutant.path}")
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")


def first_failure(output: str) -> str:
    for line in output.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" ", 1)[1].split(" - ", 1)[0]
    return "(no test named; see the run's output)"


def run(mutant: Mutant) -> tuple[str, str, float]:
    """The verdict, its detail and the run's wall time, for one mutant."""
    with tempfile.TemporaryDirectory(prefix="cathedral-mutant-") as scratch:
        root = Path(scratch)
        copy_checkout(root)
        apply(mutant, root)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
        argv = [sys.executable, "-m", "pytest", "-x", "-q", "-rfE", "-p", "no:cacheprovider"]
        start = time.perf_counter()
        try:
            done = subprocess.run(
                [*argv, *SUBSET],
                cwd=root,
                env=env,
                capture_output=True,
                text=True,
                timeout=LIMIT_S,
            )
        except subprocess.TimeoutExpired:
            return "hung", f"still running after {LIMIT_S:.0f} s", time.perf_counter() - start
        took = time.perf_counter() - start
    output = done.stdout + done.stderr
    if HANG_MARK in output:
        return "hung", "the per-test hang guard ended the run", took
    if done.returncode == 0:
        return "survived", "", took
    if done.returncode in (1, 2):  # a test failed, or the collection of one
        return "killed", first_failure(output), took
    return "broken", f"pytest exited {done.returncode}", took


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="run only these mutants")
    args = parser.parse_args(argv)
    known = {m.name: m for m in CATALOGUE}
    unknown = [name for name in args.names if name not in known]
    if unknown:
        parser.error(f"no such mutant: {', '.join(unknown)}")
    chosen = [known[name] for name in args.names] or list(CATALOGUE)
    bad = 0
    start = time.perf_counter()
    for mutant in chosen:
        try:
            verdict, detail, took = run(mutant)
        except ValueError as exc:
            print(f"stale     {mutant.name}: {exc}", flush=True)
            bad += 1
            continue
        if verdict == "survived" and mutant.equivalent:
            detail = f"equivalent: {mutant.equivalent}"
        elif verdict != "killed":
            bad += 1
        print(f"{verdict:9} {mutant.name} ({took:.1f} s) {detail}".rstrip(), flush=True)
    total = time.perf_counter() - start
    print(f"{len(chosen)} mutants, {bad} not killed and not equivalent, in {total:.0f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
