"""Command-line interface.

Exit codes (stable): 0 success / affirmative answer, 1 negative answer
(invalid cover, uncolorable, not degree-colorable, not critical), 2 parse or
input error, 3 resource cap exceeded, 4 internal error (an invariant breach
or any other unexpected exception), so a crash never reads as an answer.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .census import connected_multigraphs
from .characterization import decide_degree_colorable
from .cover import (MAX_LIST_SIZE, format_cover, iter_violations, parse_cover,
                    reduce_list)
from .critical import check_bound_multigraph, check_critical
from .errors import (CapExceeded, CoverInvalid, InternalInvariantError,
                     ParseError)
from .multigraph import Multigraph, parse_multigraph
from .solver import NODE_BUDGET, chi_dp, degree_colorable_oracle, solve


def _read(path):
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e.strerror}") from None


def _write(path, text):
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as e:
        raise ValueError(f"cannot write {path}: {e.strerror}") from None


def _load_graph(path) -> Multigraph:
    return parse_multigraph(_read(path))


def _parse_lists(text, n):
    """Lists file: one line per vertex, 'v color color ...'; colors are tokens.

    A vertex outside 1..n is a parse error; a list longer than
    MAX_LIST_SIZE raises CapExceeded, as list sizes in cover files do.
    """
    lists = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts:
            continue
        try:
            v = int(parts[0])
        except ValueError:
            raise ParseError(f"bad vertex {parts[0]!r}", lineno) from None
        if not 1 <= v <= n:
            raise ParseError(f"vertex {v} out of range 1..{n}", lineno)
        if v in lists:
            raise ParseError(f"duplicate list for vertex {v}", lineno)
        colors = parts[1:]
        if len(colors) > MAX_LIST_SIZE:
            raise CapExceeded(f"list size {len(colors)} of vertex {v} "
                              f"exceeds cap {MAX_LIST_SIZE}")
        if len(set(colors)) != len(colors):
            raise ParseError(f"list of vertex {v} repeats a color", lineno)
        lists[v] = colors
    return lists


def cmd_validate(args):
    base = _load_graph(args.graph) if args.graph else None
    cover = parse_cover(_read(args.cover), base=base)
    violations = list(iter_violations(cover))
    if not violations:
        print("valid")
        return 0
    if args.strict:
        raise ParseError(f"strict mode: {violations[0]}")
    for v in violations:
        print(str(v))
    return 1


def cmd_solve(args):
    g = _load_graph(args.graph)
    cover = parse_cover(_read(args.cover), base=g)
    try:
        res = solve(cover, args.node_budget)  # validates, raising CoverInvalid
    except CoverInvalid as e:
        if args.strict:
            raise ParseError(f"strict mode: {e}") from None
        raise
    if args.format == "lines":
        if res.colorable:
            print("colorable " + " ".join(str(i) for i in res.transversal.choice))
        else:
            print("uncolorable")
    else:
        if res.colorable:
            choice = ",".join(str(i) for i in res.transversal.choice)
            print(f"COLORABLE choice={choice} nodes={res.nodes_explored}")
        else:
            print(f"UNCOLORABLE nodes={res.nodes_explored}")
    return 0 if res.colorable else 1


def cmd_chi_dp(args):
    g = _load_graph(args.graph)
    print(chi_dp(g, args.node_budget))
    return 0


def cmd_degree_colorable(args):
    g = _load_graph(args.graph)
    lines = []
    if args.oracle:
        ok, witness = degree_colorable_oracle(g, args.node_budget)
    else:
        # a witness's lists are degree-sized: above the cap parse_cover could
        # never read it back, so it is refused before it is built
        wanted = args.witness is not None
        top = max(g.degrees(), default=0)
        verdict = decide_degree_colorable(g, build_witness=wanted and top <= MAX_LIST_SIZE)
        ok, witness = verdict.colorable, verdict.witness
        if wanted and top > MAX_LIST_SIZE and not ok:
            raise CapExceeded(f"witness list size {top} exceeds cap {MAX_LIST_SIZE}")
        if len(verdict.components) > 1:
            for comp, colorable in verdict.components:
                state = "degree-colorable" if colorable else "not-degree-colorable"
                lines.append(f"component {' '.join(str(v) for v in comp)}: {state}")
    lines.append("DEGREE-COLORABLE" if ok else "NOT-DEGREE-COLORABLE")
    if witness is not None and args.witness:
        # written before anything is printed, so a failed write prints no verdict
        _write(args.witness, format_cover(witness))
        lines.append(f"witness written to {args.witness}")
    print("\n".join(lines))
    return 0 if ok else 1


def cmd_check_critical(args):
    g = _load_graph(args.graph)
    report = check_critical(g, args.k, args.node_budget)
    ok_bound, slack = check_bound_multigraph(g, args.k)
    if args.format == "lines":
        fail = "-" if report.failing_subgraph is None else \
            ":".join(str(x) for x in report.failing_subgraph)
        print(f"{'critical' if report.is_critical else 'not-critical'} "
              f"{report.chi} {slack.numerator}/{slack.denominator} {fail}")
    else:
        print(f"chi_dp = {report.chi}")
        if report.is_critical:
            print(f"CRITICAL at k={args.k}")
        elif report.chi != args.k:
            print(f"NOT CRITICAL: chi_dp differs from k={args.k}")
        else:
            kind, *rest = report.failing_subgraph
            print(f"NOT CRITICAL: deleting {kind} {tuple(rest)} keeps chi_dp at {args.k}")
        print(f"edge bound slack 2E-(k-1)n = {slack}")
    return 0 if report.is_critical else 1


def cmd_reduce(args):
    g = _load_graph(args.graph)
    lists = _parse_lists(_read(args.lists), g.n)
    cover = reduce_list(g, lists)
    text = format_cover(cover)
    if args.output:
        _write(args.output, text)
    else:
        sys.stdout.write(text)
    return 0


def _census_record(g, node_budget):
    chi = chi_dp(g, node_budget)
    colorable = decide_degree_colorable(g, build_witness=False).colorable
    _, slack = check_bound_multigraph(g, chi)
    state = "degree-colorable" if colorable else "not-degree-colorable"
    return (f"{g.n} {2 * g.edge_total()} {chi} "
            f"{slack.numerator}/{slack.denominator} {state}")


def cmd_census(args):
    if args.workers < 1:
        raise ValueError("worker_count must be positive")
    graphs = connected_multigraphs(args.max_n, args.max_mult)
    budgets = [args.node_budget] * len(graphs)
    if args.format == "text":
        print("# id n 2E chi_dp slack verdict")
    # a pool starts all its workers at the first task, so never ask for
    # more than there are records or CPUs
    workers = min(args.workers, len(graphs), os.cpu_count() or 1)
    if workers > 1:
        try:
            from concurrent.futures import ProcessPoolExecutor
            with ProcessPoolExecutor(max_workers=workers) as pool:
                lines = list(pool.map(_census_record, graphs, budgets))
        except OSError:
            lines = list(map(_census_record, graphs, budgets))
    else:
        lines = list(map(_census_record, graphs, budgets))
    for i, line in enumerate(lines):
        print(f"g{i} {line}")
    return 0


# parsing builds a fresh Namespace and leaves the parser as it was, so one
# parser serves every main() call in a process
@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(
        prog="dpcolor",
        description="Covers of multigraphs: validation, exact colorability, "
                    "DP-chromatic numbers, degree-colorability, criticality.")
    parser.add_argument("--node-budget", type=int, default=NODE_BUDGET,
                        help=f"backtracking node cap (default {NODE_BUDGET})")
    parser.add_argument("--strict", action="store_true",
                        help="reject invalid cover files instead of reporting")
    parser.add_argument("--format", choices=("text", "lines"), default="text",
                        help="output style (default text)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a cover file against the cover conditions")
    p.add_argument("cover")
    p.add_argument("--graph", help="base multigraph file (else inferred minimally)")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("solve", help="decide whether a cover admits a transversal")
    p.add_argument("graph")
    p.add_argument("cover")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("chi-dp", help="exact DP-chromatic number")
    p.add_argument("graph")
    p.set_defaults(func=cmd_chi_dp)

    p = sub.add_parser("degree-colorable",
                       help="decide colorability under every degree cover")
    p.add_argument("graph")
    p.add_argument("--witness", help="write an uncolorable degree cover here")
    p.add_argument("--oracle", action="store_true",
                   help="use the exhaustive search instead of the block decision")
    p.set_defaults(func=cmd_degree_colorable)

    p = sub.add_parser("check-critical", help="DP-criticality at a given k")
    p.add_argument("graph")
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=cmd_check_critical)

    p = sub.add_parser("reduce", help="encode a list-coloring instance as a cover")
    p.add_argument("graph")
    p.add_argument("lists")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("census", help="survey small connected multigraphs")
    p.add_argument("--max-n", type=int, default=4)
    p.add_argument("--max-mult", type=int, default=1)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=cmd_census)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.node_budget < 1:
            raise ValueError("node_budget must be positive")
        return args.func(args)
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 2
    except (CoverInvalid, ValueError) as e:
        print(f"input error: {e}", file=sys.stderr)
        return 2
    except CapExceeded as e:
        print(f"resource cap: {e}", file=sys.stderr)
        return 3
    except InternalInvariantError as e:
        print(f"internal invariant breach: {e}", file=sys.stderr)
        return 4
    except Exception as e:  # a crash must not read as a negative answer
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
