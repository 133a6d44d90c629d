"""Command-line front end.

Subcommands: analyze, saturated, saturate, decompose, construct, hasse,
verify.  All outputs are byte-deterministic for fixed inputs and flags.

Exit codes: 0 success (1 for `saturated` on an unsaturated graph and for
`verify` with failing checks), 2 usage or input-format errors, 3 domain
precondition violations, 4 internal errors (a structural guarantee failed, or
a ValueError escaped, which means a bug in this package, not in the input).
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from typing import Callable

from .canonical import component_poset
from .construction import construct_tree, decompose, saturate, is_saturated
from .errors import GraphFormatError, PreconditionError, StructureViolation
from .graph import Graph, parse_edge_list, render_edge_list
from .serialize import (
    analysis_dict,
    analysis_text,
    hasse_dot,
    report_json,
    report_text,
    to_json,
    tree_from_json,
    tree_to_json,
)
from .verify import TrialConfig, run_trials


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise GraphFormatError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise GraphFormatError(f"cannot read {path}: not UTF-8 text") from None


def _load_graph(path: str) -> Graph:
    return parse_edge_list(_read_text(path))


def _emit(text: str, out: str | None) -> None:
    if out is None:
        try:
            sys.stdout.write(text)
            sys.stdout.flush()
        except OSError as exc:
            # a full device or a closed pipe: send what stays buffered to
            # devnull, so the flush at interpreter exit cannot fail again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            raise GraphFormatError(f"cannot write stdout: {exc.strerror}") from None
        return
    try:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise GraphFormatError(f"cannot write {out}: {exc.strerror}") from None


# the largest `verify --max-n`: a complete trial graph of this order takes
# about 140 MB and 0.8 s to build, one of twice the order about 480 MB and 3.6 s;
# the suite's unbudgeted pair verdicts cost far more: one --p 0.3 trial at the
# cap (866 vertices) took 754 s and 245 MB on 2 CPUs, at --max-n 600 64 s
MAX_TRIAL_VERTICES = 1000


def _even(value: str) -> int:
    n = int(value)
    if n < 2 or n % 2:
        raise argparse.ArgumentTypeError("must be an even integer >= 2")
    if n > MAX_TRIAL_VERTICES:
        raise argparse.ArgumentTypeError(f"must be at most {MAX_TRIAL_VERTICES}")
    return n


def _positive(value: str) -> int:
    n = int(value)
    if n < 1:
        raise argparse.ArgumentTypeError("must be an integer >= 1")
    return n


def _probability(value: str) -> float:
    p = float(value)
    if not 0.0 <= p <= 1.0:
        raise argparse.ArgumentTypeError("must lie in [0, 1]")
    return p


def _cmd_analyze(args: argparse.Namespace) -> int:
    graph = _load_graph(args.file)
    analysis = analysis_dict(
        graph,
        include_deleted_partitions=args.ge,
        max_components=args.max_components,
    )
    if args.format == "json":
        _emit(to_json(analysis), args.output)
    else:
        _emit(analysis_text(analysis), args.output)
    return 0


def _cmd_saturated(args: argparse.Namespace) -> int:
    saturated = is_saturated(_load_graph(args.file))
    _emit("saturated\n" if saturated else "not saturated\n", args.output)
    return 0 if saturated else 1


def _cmd_saturate(args: argparse.Namespace) -> int:
    graph = _load_graph(args.file)
    closed, added = saturate(graph)
    comments = [f"closure: {len(added)} edge(s) added"]
    comments.extend(f"added {u} {v}" for u, v in added)
    _emit(render_edge_list(closed, comments), args.output)
    if args.output is not None:
        _emit(f"{len(added)} edge(s) added\n", None)
    return 0


def _cmd_decompose(args: argparse.Namespace) -> int:
    graph = _load_graph(args.file)
    _emit(tree_to_json(decompose(graph)), args.output)
    return 0


def _cmd_construct(args: argparse.Namespace) -> int:
    tree = tree_from_json(_read_text(args.file))
    _emit(render_edge_list(construct_tree(tree)), args.output)
    return 0


def _cmd_hasse(args: argparse.Namespace) -> int:
    graph = _load_graph(args.file)
    poset = component_poset(graph, max_components=args.max_components)
    _emit(hasse_dot(poset), args.output)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    config = TrialConfig(
        seed=args.seed,
        trials=args.trials,
        max_vertices=args.max_n,
        edge_probability=args.p,
        enumeration_cap=args.cap,
    )
    reports = run_trials(config)
    if args.format == "json":
        _emit(report_json(config, reports, include_timing=args.timings), args.output)
    else:
        _emit(report_text(config, reports, include_timing=args.timings), args.output)
    return 0 if all(r.ok for r in reports) else 1


class _Parser(argparse.ArgumentParser):
    """Writes its help through ``_emit``: argparse's own writer drops a
    failed write and exits 0 as if the help had been shown."""

    def print_help(self, file=None) -> None:
        if file is None:
            _emit(self.format_help(), None)
        else:
            super().print_help(file)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one shared parser, built on the first call.

    Every caller receives the same object, so none may mutate it.  Building
    the tree costs about a millisecond, so repeated ``main()`` calls in one
    process share it; importing this module does not build it."""
    parser = _Parser(
        prog="cathedral",
        description=(
            "Canonical matching structures of factorizable graphs: components, "
            "canonical partition, component order, saturation, and the "
            "foundation/towers decomposition of saturated graphs."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, handler: Callable[[argparse.Namespace], int]) -> None:
        p.add_argument("-o", "--output", metavar="OUT", help="write output here instead of stdout")
        p.set_defaults(handler=handler)

    p = sub.add_parser("analyze", help="components, partition, order, saturation")
    p.add_argument("file", metavar="FILE")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--ge", action="store_true", help="include the partition of each single-vertex deletion")
    p.add_argument("--max-components", type=_positive, metavar="N", help="exit 3 above N components")
    common(p, _cmd_analyze)

    p = sub.add_parser("saturated", help="exit 0 if the graph is saturated, 1 otherwise")
    p.add_argument("file", metavar="FILE")
    common(p, _cmd_saturated)

    p = sub.add_parser("saturate", help="write a saturation closure with the added edges")
    p.add_argument("file", metavar="FILE")
    common(p, _cmd_saturate)

    p = sub.add_parser("decompose", help="write the foundation/towers tree as JSON")
    p.add_argument("file", metavar="FILE")
    common(p, _cmd_decompose)

    p = sub.add_parser("construct", help="rebuild a graph from a tree JSON file")
    p.add_argument("file", metavar="SPEC")
    common(p, _cmd_construct)

    p = sub.add_parser("hasse", help="write the component order's Hasse diagram as DOT")
    p.add_argument("file", metavar="FILE")
    p.add_argument("--max-components", type=_positive, metavar="N", help="exit 3 above N components")
    common(p, _cmd_hasse)

    p = sub.add_parser("verify", help="run the conformance suite on random graphs")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=_positive, default=100)
    p.add_argument("--max-n", type=_even, default=8)
    p.add_argument("--p", type=_probability, default=0.3)
    p.add_argument("--cap", type=_positive, default=64)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--timings", action="store_true", help="include wall-clock millis (non-deterministic)")
    common(p, _cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        # --help writes to stdout, and a failed write is reported below
        args = build_parser().parse_args(argv)
        return args.handler(args)
    except GraphFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except StructureViolation as exc:
        print(f"structure violation (internal bug): {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        # every bad input is reported as one of the errors above
        print(f"internal error (bug in cathedral): {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
