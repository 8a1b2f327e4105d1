"""Acceptance checks, one test per criterion, each printing one PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
appear; plain ``pytest`` captures them but still enforces every check.
All checks are exact; the only tolerance anywhere is the 60 second budget
on the exhaustive verification sweep.
"""

import itertools
import time

from derangetree import (
    IncreasingTree,
    case2a_restructure,
    classify_tree,
    forward,
    forward_with_case,
    gen_derangements,
    gen_increasing_trees,
    gen_marked_trees,
    parse_cycles,
    recurrence_check,
    verify_bijection,
)
from util import descent_count, factorial, independent_case_conditions, lift, lift_tree

MAX_N = 8


def _line(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"{status}: {name}{suffix}")


def test_criterion_1_exhaustive_bijection():
    expected_counts = [1, 2, 9, 44, 265, 1854, 14833]
    start = time.perf_counter()
    reports = [verify_bijection(n) for n in range(2, MAX_N + 1)]
    elapsed = time.perf_counter() - start
    counts = [r.derangement_count for r in reports]
    ok = (all(r.ok for r in reports)
          and counts == expected_counts
          and all(r.marked_tree_count == r.derangement_count for r in reports)
          and elapsed < 60.0)
    _line("criterion 1: bijection verified for n=2..8", ok,
          f"counts {counts}, {elapsed:.1f}s")
    for r in reports:
        assert r.ok, f"n={r.n}: {r.round_trip_failures[:3]}"
        assert r.marked_tree_count == r.derangement_count
    assert counts == expected_counts
    assert elapsed < 60.0


def test_criterion_2_golden_examples():
    golden = [
        ("(0 1)", "size=2;parents=0;mark=0"),
        ("(0 1 2)", "size=3;parents=0,1;mark=1"),
        ("(0 2 1)", "size=3;parents=0,0;mark=0"),
        ("(0 5 3)(1 4 2)", "size=6;parents=0,1,0,1,0;mark=0"),
        # the stated intermediate on the way to the next mapping
        ("(0 2 3)(1 4)", "size=5;parents=0,1,2,1;mark=1"),
        ("(0 5 2 3)(1 4)", "size=6;parents=0,1,2,1,0;mark=1"),
        ("(0 9)(1 3 5 2 6 8)(4 7)", "size=10;parents=0,0,1,0,3,2,4,6,0;mark=0"),
        ("(0 2 5 1 6 8)(3 7)(4 9)", "size=10;parents=0,0,1,3,2,1,3,6,4;mark=4"),
    ]
    results = [(cycles, expected, forward(parse_cycles(cycles)).serialize())
               for cycles, expected in golden]
    bad = [(c, e, g) for c, e, g in results if e != g]
    _line("criterion 2: golden worked examples reproduced exactly", not bad,
          f"{len(results)} mappings")
    assert not bad, bad


def test_criterion_3_tree_permutation_round_trip():
    failures = 0
    words = 0
    for n in range(1, MAX_N + 1):
        for t in gen_increasing_trees(n):
            if IncreasingTree.from_word(t.to_word()) != t:
                failures += 1
        for w in itertools.permutations(range(1, n)):
            words += 1
            if IncreasingTree.from_word(w).to_word() != w:
                failures += 1
    figure_tree = IncreasingTree({1: 0, 2: 0, 3: 1, 4: 0, 5: 4, 6: 2, 7: 4})
    figure_ok = (figure_tree.to_word() == (4, 7, 5, 2, 6, 1, 3)
                 and IncreasingTree.from_word((4, 7, 5, 2, 6, 1, 3)) == figure_tree)
    ok = failures == 0 and figure_ok
    _line("criterion 3: tree/word round trip for n<=8", ok, f"{words} words")
    assert failures == 0
    assert figure_ok


def test_criterion_4_leaf_descent_law():
    law_failures = 0
    aggregate_ok = True
    for n in range(1, MAX_N + 1):
        total = 0
        for t in gen_increasing_trees(n):
            leaves = len(t.leaves())
            total += leaves
            if leaves != descent_count(t.to_word()) + 1:
                law_failures += 1
        if n >= 2 and total != factorial(n) // 2:
            aggregate_ok = False
    ok = law_failures == 0 and aggregate_ok
    _line("criterion 4: leaves = descents + 1 and aggregate n!/2 for n<=8", ok)
    assert law_failures == 0
    assert aggregate_ok


def test_criterion_5_case_coherence_and_partition():
    mismatches = 0
    for n in range(2, MAX_N + 1):
        for p in gen_derangements(n):
            mt, tag = forward_with_case(p)
            if classify_tree(mt) != tag:
                mismatches += 1
    partition_failures = 0
    for n in range(4, MAX_N + 1):
        for mt in gen_marked_trees(n):
            fired = [t for t, hit in independent_case_conditions(mt).items() if hit]
            if len(fired) != 1 or fired[0] != classify_tree(mt):
                partition_failures += 1
    ok = mismatches == 0 and partition_failures == 0
    _line("criterion 5: case coherence and six-way partition for n<=8", ok)
    assert mismatches == 0
    assert partition_failures == 0


def test_criterion_6_c2a_walk_property():
    violations = 0
    counts = []
    for n in range(4, MAX_N + 1):
        # a derangement q of size n-2 with a free label j stands for the one
        # size-n derangement that is q lifted past j plus the 2-cycle (j n-1)
        checked = 0
        for q in gen_derangements(n - 2):
            sub = forward(q)
            for j in range(n - 1):
                k = lift(sub.mark, j)
                if k < j:
                    continue  # C2b
                checked += 1
                restructured = case2a_restructure(lift_tree(sub.tree, j), j, k)
                walk = restructured.depth_search_walk(j)
                first = next(x for x in walk[1:] if restructured.rank(x) == 1)
                if first != k:
                    violations += 1
        counts.append(checked)
    _line("criterion 6: restructured walk meets the old mark first", violations == 0,
          f"{sum(counts)} C2a derangements")
    assert violations == 0
    assert counts == [1, 3, 16, 95, 666]


def test_criterion_7_recurrence_data():
    rows = recurrence_check(MAX_N)
    derangement_ok = all(r.residual_derangement == 0 for r in rows if r.n >= 3)
    variant_reported = all(r.residual_variant is not None for r in rows if r.n >= 3)
    _line("criterion 7: a(n) = (n-1)(a(n-1)+a(n-2)) residuals all zero for n<=8",
          derangement_ok and variant_reported)
    print("  n count residual[(n-1)*(a(n-1)+a(n-2))] residual[n*a(n-1)+n*a(n-2)]")
    for r in rows:
        rd = "-" if r.residual_derangement is None else r.residual_derangement
        rv = "-" if r.residual_variant is None else r.residual_variant
        print(f"  {r.n} {r.count} {rd} {rv}")
    assert derangement_ok
    assert variant_reported  # reported alongside, deliberately not asserted zero
