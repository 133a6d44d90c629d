"""Workloads of the cathedral benchmark: the seeded input generator, the
request each workload sends, and the checks every output must pass.

Nothing here imports cathedral.  The benchmark owns its generator and its
output checks, so a change to the program cannot change a workload's inputs
or loosen the checks applied to its outputs.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

Edge = tuple[int, int]


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    p: float
    # factor-component count -> graphs with that count in one batch
    mix: dict[int, int]

    @property
    def requests(self) -> int:
        return sum(self.mix.values())


# Why each workload exists, and why its mix, is in README.md.
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("elementary-analyze", 20, 0.3, {1: 200}),
        Workload("order-sparse", 18, 0.1, {2: 20, 4: 20, 6: 120, 7: 40}),
        Workload("closure-roundtrip", 16, 0.25, {1: 160, 2: 40}),
        Workload("verify-suite", 10, 0.3, {1: 200}),
    )
}

MAX_DRAWS = 100_000


def random_graph(n: int, p: float, rng: random.Random) -> list[Edge]:
    """Plant the perfect matching (0,1), (2,3), ... and add every other pair
    with probability p; edges come back sorted."""
    edges = [(u, u + 1) for u in range(0, n, 2)]
    for u in range(n):
        for v in range(u + 1, n):
            if not (u % 2 == 0 and v == u + 1) and rng.random() < p:
                edges.append((u, v))
    return sorted(edges)


def make_inputs(workload: Workload, seed: int) -> list[list[Edge]]:
    """The workload's batch for ``seed``.

    Graphs are drawn from one ``random.Random(seed)`` stream and kept while
    the workload's mix still has room for their factor-component count, so
    every seed gives a batch with the same mix of component counts, in
    drawing order."""
    rng = random.Random(seed)
    room = dict(workload.mix)
    batch: list[list[Edge]] = []
    for _ in range(MAX_DRAWS):
        if not any(room.values()):
            break
        edges = random_graph(workload.n, workload.p, rng)
        k = len(Oracle(workload.n, edges).components())
        if room.get(k):
            room[k] -= 1
            batch.append(edges)
    else:
        raise ValueError(f"{workload.name}: mix not filled after {MAX_DRAWS} graphs")
    return batch


class Oracle:
    """Exact matching structure of one small graph, by exhaustive search.

    ``matchable(removed)`` says whether the graph minus some vertices has a
    perfect matching: match the least remaining vertex every possible way,
    memoized on the remaining vertex set.  Everything else follows from it
    by definition, independently of cathedral's algorithms."""

    def __init__(self, n: int, edges: list[Edge]):
        self.n = n
        self.edges = edges
        self._adj = [0] * n
        for u, v in edges:
            self._adj[u] |= 1 << v
            self._adj[v] |= 1 << u
        self._memo: dict[int, bool] = {0: True}

    def _has(self, mask: int) -> bool:
        known = self._memo.get(mask)
        if known is not None:
            return known
        low = mask & -mask
        rest = mask ^ low
        partners = self._adj[low.bit_length() - 1] & rest
        found = False
        while partners:
            bit = partners & -partners
            if self._has(rest ^ bit):
                found = True
                break
            partners ^= bit
        self._memo[mask] = found
        return found

    def matchable(self, *removed: int) -> bool:
        mask = (1 << self.n) - 1
        for v in removed:
            mask &= ~(1 << v)
        return self._has(mask)

    def allowed(self) -> list[Edge]:
        """Edges in some perfect matching."""
        return [(u, v) for u, v in self.edges if self.matchable(u, v)]

    def components(self) -> list[list[int]]:
        """Connected components of the allowed edges, by least vertex."""
        comp = list(range(self.n))

        def root(v: int) -> int:
            while comp[v] != v:
                comp[v] = comp[comp[v]]
                v = comp[v]
            return v

        for u, v in self.allowed():
            comp[max(root(u), root(v))] = min(root(u), root(v))
        groups: dict[int, list[int]] = {}
        for v in range(self.n):
            groups.setdefault(root(v), []).append(v)
        return list(groups.values())

    def classes(self) -> list[list[int]]:
        """The canonical partition: u, v in one factor component and the
        graph minus both has no perfect matching."""
        out: list[list[int]] = []
        for comp in self.components():
            placed: set[int] = set()
            for u in comp:
                if u not in placed:
                    cls = [u] + [v for v in comp if v > u and not self.matchable(u, v)]
                    placed.update(cls)
                    out.append(cls)
        return sorted(out)

    def deleted_partition(self, x: int) -> tuple[list[int], list[int], list[int]]:
        """(D, A, C) of the graph minus x: the vertices some maximum matching
        leaves exposed, their other neighbors, the rest."""
        rest = [v for v in range(self.n) if v != x]
        d = [v for v in rest if self.matchable(x, v)]
        ds = set(d)
        a = [v for v in rest if v not in ds and any(self._adj[v] >> w & 1 for w in d)]
        c = [v for v in rest if v not in ds and v not in set(a)]
        return d, a, c

    def saturated(self) -> bool:
        """Whether every absent edge would create a new perfect matching."""
        present = set(self.edges)
        return all(
            self.matchable(u, v)
            for u in range(self.n)
            for v in range(u + 1, self.n)
            if (u, v) not in present
        )


def edge_list_text(n: int, edges: list[Edge]) -> str:
    """The edge-list file format: a vertex-count header, then one sorted edge
    per line."""
    return "".join([f"vertices {n}\n"] + [f"{u} {v}\n" for u, v in edges])


# --- output checks ----------------------------------------------------------
# Each check returns None when the output is right for its input, or a
# one-line reason.  Everything the oracle can decide is compared exactly;
# the component order, which it does not compute, must obey the partial-order
# laws.  The checks hold on every seed.


def _check_order(order: dict, k: int) -> str | None:
    leq = order["leq"]
    if len(leq) != k or any(len(row) != k for row in leq):
        return "leq matrix has the wrong shape"
    for i in range(k):
        if not leq[i][i]:
            return f"component {i} is not below itself"
        for j in range(k):
            if i != j and leq[i][j] and leq[j][i]:
                return f"components {i} and {j} are mutually below"
            if leq[i][j] and any(leq[j][m] and not leq[i][m] for m in range(k)):
                return f"leq is not transitive from {i} through {j}"
    covers = [
        [i, j]
        for i in range(k)
        for j in range(k)
        if i != j and leq[i][j]
        and not any(m not in (i, j) and leq[i][m] and leq[m][j] for m in range(k))
    ]
    if order["hasse"] != covers:
        return "hasse covers disagree with leq"
    minima = [i for i in range(k) if all(leq[i])]
    if order["minimum"] != (minima[0] if minima else None):
        return "minimum disagrees with leq"
    return None


def check_analysis(text: str, n: int, edges: list[Edge], deleted_partitions: bool) -> str | None:
    """Output of ``analyze --format json`` for the given input graph."""
    data = json.loads(text)
    oracle = Oracle(n, edges)
    if data["vertices"] != list(range(n)) or data["edges"] != [list(e) for e in edges]:
        return "graph echoed back differs from the input"
    if data["allowed_edges"] != [list(e) for e in oracle.allowed()]:
        return "allowed edges differ from the oracle's"
    components = oracle.components()
    if data["factor_components"] != components:
        return "factor components differ from the oracle's"
    if data["canonical_partition"] != oracle.classes():
        return "canonical partition differs from the oracle's"
    problem = _check_order(data["component_order"], len(components))
    if problem:
        return problem
    if data["saturated"] is not oracle.saturated():
        return "saturation verdict differs from the oracle's"
    entries = data.get("deleted_partitions")
    if not deleted_partitions:
        return None if entries is None else "unrequested deleted partitions"
    expected = [
        dict(zip(("vertex", "d", "a", "c"), (x, *oracle.deleted_partition(x)))) for x in range(n)
    ]
    if entries != expected:
        return "deleted partitions differ from the oracle's"
    return None


def _parse_edge_list(text: str) -> tuple[int, list[Edge], list[str]]:
    lines = text.splitlines()
    comments = [line for line in lines if line.startswith("#")]
    body = [line for line in lines if not line.startswith("#")]
    n = int(body[0].removeprefix("vertices "))
    edges = [(int(u), int(v)) for u, v in (line.split() for line in body[1:])]
    return n, edges, comments


def _tree_parts(tree: dict, parts: list[list[int]], edges: list[Edge]) -> None:
    parts.append(tree["foundation"]["vertices"])
    edges.extend(tuple(e) for e in tree["foundation"]["edges"])
    for entry in tree["classes"]:
        if entry["tower"] is not None:
            _tree_parts(entry["tower"], parts, edges)


def check_closure(outputs: list[str], n: int, edges: list[Edge]) -> str | None:
    """Outputs of ``saturate``, then ``decompose`` on the closure, then
    ``construct`` on the tree."""
    closure_text, tree_text, built = outputs
    size, closed, comments = _parse_edge_list(closure_text)
    added = [tuple(int(x) for x in c.split()[2:]) for c in comments if c.startswith("# added ")]
    if size != n or comments[0] != f"# closure: {len(added)} edge(s) added":
        return "closure header is wrong"
    if closed != sorted(set(edges) | set(added)) or set(added) & set(edges):
        return "closure is not the input plus exactly the added edges"
    closure = Oracle(n, closed)
    if any(closure.matchable(u, v) for u, v in added):
        return "an added edge lies in a perfect matching of the closure"
    if not closure.saturated():
        return "closure is not saturated"
    parts: list[list[int]] = []
    tree_edges: list[Edge] = []
    _tree_parts(json.loads(tree_text), parts, tree_edges)
    if sorted(v for part in parts for v in part) != list(range(n)):
        return "foundations and towers do not partition the vertices"
    if parts[0] not in closure.components():
        return "the foundation is not a factor component of the closure"
    if not set(tree_edges) <= set(closed):
        return "tree carries an edge the closure lacks"
    if built != "".join(line + "\n" for line in closure_text.splitlines() if not line.startswith("#")):
        return "construct did not rebuild the closure"
    return None


def check_suite(text: str, n: int, edges: list[Edge]) -> str | None:
    """A one-trial ``report_json`` of the conformance suite."""
    (trial,) = json.loads(text)["trials"]
    if trial["graph"] != edge_list_text(n, edges):
        return "report names a different graph"
    if not trial["results"]:
        return "suite ran no checks"
    failed = [r["check"] for r in trial["results"] if r["status"] == "fail"]
    if failed:
        return f"failing checks: {', '.join(failed)}"
    if any(r["status"] not in ("pass", "skip") for r in trial["results"]):
        return "unknown check status"
    return None
