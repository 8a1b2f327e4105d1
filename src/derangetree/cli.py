"""Command-line front end.

Subcommands: map, unmap, tree2perm, perm2tree, enumerate, verify, stats,
render.  Exit codes: 0 success, 1 usage error, 2 invalid input, 3
verification failure or internal invariant violation, each failure with
a one-line diagnostic on stderr.  A reader that closes stdout early, as
``head`` does, ends the command quietly with exit 0.

The argument parser is built on the first ``run`` call and reused by every
later call in the same process; parsing a command line never changes it.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time

from .bijection import CaseTag, forward, inverse
from .cycles import parse_cycles
from .enumeration import (
    DEFAULT_SIZE_LIMIT,
    _finish_verification,
    _reap,
    _start_blocks,
    case_counts,
    check_verification_size,
    gen_derangements,
    gen_increasing_trees,
    gen_marked_trees,
    rank_count_table,
    recurrence_check,
    verify_bijection,
)
from .errors import DomainError, FormatError, InternalInvariantError, VerificationLimitError
from .render import to_dot
from .trees import IncreasingTree, MarkedTree, format_word, parse_tree_text, parse_word

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID = 2
EXIT_VERIFY = 3

# Size ceilings of the stats commands, checked before any work.  The rank
# tables count exactly in O(max_size^2 k) steps; the slowest k at 300
# takes about 2 s.  ``stats cases`` still classifies every one of the
# D(size) derangements, 133,496 (about 3 s on a 2-core machine, Python 3.11)
# at 9 and ten times that at 10.
STATS_SIZE_LIMIT = 300
CASES_SIZE_LIMIT = 9


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _refuse_past(flag: str, value: int, ceiling: int) -> None:
    if value > ceiling:
        raise DomainError(f"{flag} {value} exceeds the ceiling {ceiling}; refusing to run")


def _cmd_map(args) -> int:
    if args.size < 1:
        raise DomainError("--size must be at least 1")
    p = parse_cycles(args.cycles, size=args.size, require_derangement=True)
    print(forward(p).serialize())
    return EXIT_OK


def _cmd_unmap(args) -> int:
    print(inverse(MarkedTree.parse(args.tree)).serialize())
    return EXIT_OK


def _cmd_tree2perm(args) -> int:
    print(format_word(IncreasingTree.parse(args.tree).to_word()))
    return EXIT_OK


def _cmd_perm2tree(args) -> int:
    print(IncreasingTree.from_word(parse_word(args.word)).serialize())
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    if args.kind == "trees":
        for t in gen_increasing_trees(args.size):
            print(t.serialize())
    elif args.kind == "derangements":
        for p in gen_derangements(args.size):
            print(p.serialize())
    else:
        for mt in gen_marked_trees(args.size):
            print(mt.serialize())
    return EXIT_OK


def _cmd_verify(args) -> int:
    if args.max_size < 2:
        raise DomainError("--max-size must be at least 2")
    check_verification_size(args.max_size, args.size_limit)
    # The largest size's children start first and run while this process
    # checks the smaller sizes; that size is finished last, and its report
    # is timed from the start of this process's own block.
    first, children = _start_blocks(args.max_size)
    try:
        reports = [verify_bijection(m, size_limit=args.size_limit)
                   for m in range(2, args.max_size)]
        reports.append(
            _finish_verification(args.max_size, first, children, time.perf_counter()))
    finally:
        _reap(children)  # empty by now, unless a smaller size raised
    if args.json:
        print(json.dumps([r.to_dict() for r in reports], indent=2))
    else:
        for r in reports:
            print(r.to_text())
    return EXIT_OK if all(r.ok for r in reports) else EXIT_VERIFY


def _cmd_stats_rank_counts(args) -> int:
    if args.k >= 0:  # a negative k is refused first, by rank_count_table
        _refuse_past("--max-size", args.max_size, STATS_SIZE_LIMIT)
    table = rank_count_table(args.max_size, args.k)
    print("n k count")
    for row in table:
        print(f"{row.n} {row.k} {row.count}")
    return EXIT_OK


def _cmd_stats_cases(args) -> int:
    _refuse_past("--size", args.size, CASES_SIZE_LIMIT)
    report = case_counts(args.size)
    for tag in CaseTag:
        if report.histogram.get(tag):
            print(f"{tag.value} {report.histogram[tag]}")
    print(f"total {sum(report.histogram.values())}")
    print(f"top-attached-to-mark {report.top_attached_to_mark}")
    return EXIT_OK


def _cmd_stats_recurrence(args) -> int:
    _refuse_past("--max-size", args.max_size, STATS_SIZE_LIMIT)
    rows = recurrence_check(args.max_size)
    print("n count residual[(n-1)*(a(n-1)+a(n-2))] residual[n*a(n-1)+n*a(n-2)]")
    for row in rows:
        rd = "-" if row.residual_derangement is None else str(row.residual_derangement)
        rv = "-" if row.residual_variant is None else str(row.residual_variant)
        print(f"{row.n} {row.count} {rd} {rv}")
    return EXIT_OK


def _cmd_render(args) -> int:
    obj = parse_tree_text(args.tree)
    if isinstance(obj, MarkedTree):
        sys.stdout.write(to_dot(obj.tree, mark=obj.mark))
    else:
        sys.stdout.write(to_dot(obj))
    return EXIT_OK


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="derangetree",
                     description="Derangements, marked increasing trees, and the maps between them.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("map", help="derangement (cycle notation) to marked tree")
    p.add_argument("--size", type=int, required=True, help="ground set is 0..size-1")
    p.add_argument("cycles", help='e.g. "(0 5 3)(1 4 2)"')
    p.set_defaults(handler=_cmd_map)

    p = sub.add_parser("unmap", help="marked tree back to its derangement")
    p.add_argument("tree", help='e.g. "size=6;parents=0,1,0,1,0;mark=0"')
    p.set_defaults(handler=_cmd_unmap)

    p = sub.add_parser("tree2perm", help="tree to its walk permutation word")
    p.add_argument("tree", help='e.g. "size=8;parents=0,0,1,0,4,2,4"')
    p.set_defaults(handler=_cmd_tree2perm)

    p = sub.add_parser("perm2tree", help="permutation word back to its tree")
    p.add_argument("word", help='e.g. "4 7 5 2 6 1 3" or "4752613"')
    p.set_defaults(handler=_cmd_perm2tree)

    p = sub.add_parser("enumerate", help="list objects of one size, one per line")
    p.add_argument("kind", choices=["trees", "derangements", "marked"])
    p.add_argument("--size", type=int, required=True)
    p.set_defaults(handler=_cmd_enumerate)

    p = sub.add_parser("verify", help="exhaustive bijection check for n = 2..max-size")
    p.add_argument("--max-size", type=int, required=True)
    p.add_argument("--size-limit", type=int, default=DEFAULT_SIZE_LIMIT,
                   help=f"raise the refusal ceiling (hard cap 9, default {DEFAULT_SIZE_LIMIT})")
    p.add_argument("--json", action="store_true", help="machine-readable report")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("stats", help="statistics tables")
    stats_sub = p.add_subparsers(dest="table", required=True)
    q = stats_sub.add_parser("rank-counts", help="rank-k vertex totals per size")
    q.add_argument("--max-size", type=int, required=True, help=f"at most {STATS_SIZE_LIMIT}")
    q.add_argument("--k", type=int, default=1)
    q.set_defaults(handler=_cmd_stats_rank_counts)
    q = stats_sub.add_parser("cases", help="construction-case histogram for one size")
    q.add_argument("--size", type=int, required=True, help=f"at most {CASES_SIZE_LIMIT}")
    q.set_defaults(handler=_cmd_stats_cases)
    q = stats_sub.add_parser("recurrence", help="rank-1 counts with recurrence residuals")
    q.add_argument("--max-size", type=int, required=True, help=f"at most {STATS_SIZE_LIMIT}")
    q.set_defaults(handler=_cmd_stats_recurrence)

    p = sub.add_parser("render", help="DOT drawing of a tree or marked tree")
    p.add_argument("tree")
    p.add_argument("--format", choices=["dot"], default="dot")
    p.set_defaults(handler=_cmd_render)

    return parser


def run(argv: list[str] | None = None) -> int:
    """Parse and execute one command line; returns the exit status."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # --help prints and exits 0
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return args.handler(args)
    except (DomainError, FormatError, VerificationLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except InternalInvariantError as exc:
        print(f"error: internal invariant violated: {exc}", file=sys.stderr)
        return EXIT_VERIFY


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout is gone; point it at devnull so the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_OK
    sys.exit(code)


if __name__ == "__main__":
    main()
