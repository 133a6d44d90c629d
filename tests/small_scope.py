"""Exhaustive small scope: every labelled graph of an order, checked against
the subset-table oracles of ``tests/oracles.py``.

    PYTHONPATH=src python3 tests/small_scope.py [ORDER ...]

Each graph on the vertices 0..n-1 must be refused exactly when the oracle
finds no perfect matching.  A factorizable one must give the oracle's
allowed edges, canonical classes, component order (``sweep_order``, which
asks the subset table of each contraction), saturation verdict and the
(D, A, C) partition of every G-x; its closure in both scan orders must be
the restart oracle's (``restart_saturate``), and a saturated one must come
back from ``construct_tree(decompose(g))``.  The order runs the Edmonds
search's contraction form, with the lower component merged into the root's
blossom, so every graph of the order with two or more components meets it.
The orders default to 6: 32,768 graphs, 24,823 of them factorizable and
5,508 saturated.  Any mismatch raises AssertionError with the graph's
edges.  Pytest does not collect this file; ``tests/test_primitives.py``
sweeps orders 2 and 4.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

from cathedral.canonical import GraphStructure
from cathedral.construction import construct_tree, decompose, saturate
from cathedral.errors import NotFactorizableError

from helpers import labelled_graphs
from oracles import (
    deleted_partition,
    deletion_allowed_edges,
    deletion_is_saturated,
    deletion_partition,
    restart_saturate,
    subset_table,
    sweep_order,
)


def sweep(order: int) -> Counter:
    """The sweep of one order, with its counts of graphs, factorizable
    graphs and saturated graphs."""
    counts: Counter = Counter()
    for g in labelled_graphs(order):
        where = sorted(g.edges)
        table = subset_table(g)
        counts["graphs"] += 1
        try:
            structure = GraphStructure(g)
        except NotFactorizableError:
            assert not table.matchable(table.full), where
            continue
        assert table.matchable(table.full), where
        counts["factorizable"] += 1
        assert structure.allowed == deletion_allowed_edges(g), where
        assert structure.partition.classes == deletion_partition(g), where
        poset = structure.poset
        assert poset.leq == sweep_order(g, poset.components), where
        assert structure.saturated == deletion_is_saturated(g), where
        counts["saturated"] += structure.saturated
        for x, ge in structure.deletion_partitions.items():
            assert ge.parts() == deleted_partition(g, x), (where, x)
        for descending in (False, True):
            assert saturate(g, descending=descending) == restart_saturate(g, descending), where
        if structure.saturated:
            assert construct_tree(decompose(g)) == g, where
    return counts


def main(argv: list[str]) -> int:
    for order in map(int, argv or ["6"]):
        start = time.perf_counter()
        counts = sweep(order)
        print(
            f"order {order}: {counts['graphs']} graphs, {counts['factorizable']} factorizable,"
            f" {counts['saturated']} saturated, no mismatch in {time.perf_counter() - start:.1f} s"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
