"""The public names and the attributes that outside tooling relies on.

``bench/run.py --trace 1`` wraps functions and methods of the package by
name, so deleting or renaming one breaks the benchmark even when every
other test still passes.  The check installs that tracer itself, so it
follows whatever ``install_tracer`` names.
"""

import sys
from pathlib import Path

import derangetree
from derangetree import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"

PUBLIC = {
    "CaseTag", "CaseCountReport", "CycleDecomposition", "DEFAULT_SIZE_LIMIT",
    "DomainError", "FormatError", "HARD_SIZE_LIMIT", "IncreasingTree",
    "InternalInvariantError", "MarkedTree", "PermWord", "RankCountRow",
    "RankRecurrenceRow", "Relabeling", "VerificationLimitError",
    "VerificationReport", "case2a_restructure", "case_counts",
    "classify_derangement", "classify_tree", "count_rank_k", "format_word",
    "forward", "forward_with_case", "gen_derangements", "gen_increasing_trees",
    "gen_marked_trees", "inverse", "parse_cycles", "parse_tree_text",
    "parse_word", "rank_count_table", "recurrence_check", "to_dot",
    "verify_bijection",
}


def test_public_surface_and_traced_attributes():
    assert len(derangetree.__all__) == len(PUBLIC)
    assert set(derangetree.__all__) == PUBLIC
    sys.path.insert(0, str(BENCH))
    try:
        import run
        import spans
    finally:
        sys.path.remove(str(BENCH))
    original = cli.run
    tracer = spans.Tracer()
    try:
        run.install_tracer(tracer, cli)  # a missing attribute raises here
        assert cli.run is not original
    finally:
        tracer.uninstall()
    assert cli.run is original
