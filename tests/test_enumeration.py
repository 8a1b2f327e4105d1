import gc
import hashlib
import json
import os
import subprocess
import sys
import time
from collections import Counter

import pytest

import derangetree.bijection
import derangetree.enumeration
from derangetree import (
    CaseTag,
    CycleDecomposition,
    DomainError,
    IncreasingTree,
    InternalInvariantError,
    MarkedTree,
    VerificationLimitError,
    case_counts,
    count_rank_k,
    forward_with_case,
    gen_derangements,
    gen_increasing_trees,
    gen_marked_trees,
    inverse,
    rank_count_table,
    recurrence_check,
    verify_bijection,
)
from derangetree.bijection import _case, _grow, _peel
from derangetree.cli import run
from derangetree.enumeration import _derangement, _marked_words, _walk
from util import (
    assert_matches_validated,
    brute_rank_count,
    factorial,
    fixed_point_free_words,
    marked_tree_texts,
    subfactorial,
)


# -- generators --

def test_tree_counts():
    assert len(list(gen_increasing_trees(1))) == 1
    assert len(list(gen_increasing_trees(4))) == 6
    assert len(list(gen_increasing_trees(7))) == 720


def test_trees_are_distinct_and_valid():
    for n in range(1, 7):
        trees = list(gen_increasing_trees(n))
        assert len(set(trees)) == len(trees) == factorial(n - 1)
        assert all(t.is_standard and t.size == n for t in trees)


def test_generated_trees_match_validated_rebuild():
    for n in range(1, 8):
        for t in gen_increasing_trees(n):
            assert_matches_validated(t)


def test_gen_trees_rejects_zero():
    with pytest.raises(DomainError):
        next(gen_increasing_trees(0))


def test_derangement_counts():
    assert list(gen_derangements(1)) == []
    assert [p.serialize() for p in gen_derangements(3)] == ["(0 1 2)", "(0 2 1)"]
    assert len(list(gen_derangements(6))) == 265
    for n in range(1, 8):
        assert len(list(gen_derangements(n))) == subfactorial(n)


def test_derangements_match_filtered_permutations():
    for n in range(1, 9):
        words = [tuple(p.image(i) for i in range(n)) for p in gen_derangements(n)]
        assert words == fixed_point_free_words(n)


def test_gen_derangements_rejects_zero():
    with pytest.raises(DomainError, match="n must be at least 1"):
        next(gen_derangements(0))


def test_derangements_are_derangements():
    for p in gen_derangements(5):
        assert p.is_derangement
        assert p.ground_set == (0, 1, 2, 3, 4)


def test_marked_tree_counts():
    assert list(gen_marked_trees(1)) == []
    marked2 = list(gen_marked_trees(2))
    assert len(marked2) == 1 and marked2[0].serialize() == "size=2;parents=0;mark=0"
    assert len(list(gen_marked_trees(5))) == 44


def test_marked_stream_order():
    for n in range(1, 7):
        assert [mt.serialize() for mt in gen_marked_trees(n)] == marked_tree_texts(n)


def test_marked_words_are_the_marked_trees():
    for n in range(1, 9):
        keys = {(*w, v) for w, vs in _marked_words(n) for v in vs}
        assert keys == {(*mt.tree._word(), mt.mark) for mt in gen_marked_trees(n)}
        if n >= 2:
            assert len(keys) == count_rank_k(n, 1)


def test_stream_determinism():
    for gen, arg in [(gen_increasing_trees, 5), (gen_derangements, 5), (gen_marked_trees, 5)]:
        assert list(gen(arg)) == list(gen(arg))


# -- counting --

def test_count_rank_k_examples():
    assert count_rank_k(4, 0) == 12  # half of 4 * 3! vertices are leaves
    assert count_rank_k(6, 1) == 265
    assert count_rank_k(2, 1) == 1


def test_rank_counts_partition_all_vertices():
    for n in range(1, 7):
        total = sum(count_rank_k(n, k) for k in range(n))
        assert total == n * factorial(n - 1)


def test_rank1_count_matches_marked_enumeration():
    for n in range(1, 7):
        assert count_rank_k(n, 1) == len(list(gen_marked_trees(n)))


def test_count_rank_k_matches_brute_force():
    for n in range(1, 9):
        for k in range(n + 2):
            assert count_rank_k(n, k) == brute_rank_count(n, k), (n, k)
            assert rank_count_table(n, k)[-1].count == brute_rank_count(n, k), (n, k)


def test_rank1_counts_are_derangement_numbers():
    rows = rank_count_table(100, 1)
    assert [r.count for r in rows] == [subfactorial(n) for n in range(1, 101)]


def test_rank0_counts_are_half_of_all_vertices():
    rows = rank_count_table(100, 0)
    assert rows[0].count == 1
    assert [r.count for r in rows[1:]] == [factorial(n) // 2 for n in range(2, 101)]


def test_rank_counts_sum_to_all_vertices():
    columns = [rank_count_table(40, k) for k in range(42)]
    for n in range(1, 41):
        assert sum(column[n - 1].count for column in columns) == factorial(n)


def test_count_rank_k_past_the_largest_rank_is_zero_at_once():
    assert count_rank_k(10**12, 10**12) == 0
    assert [r.count for r in rank_count_table(3, 10**12)] == [0, 0, 0]


def test_rank_count_errors_in_order():
    for call, text in [(lambda: count_rank_k(0, -1), "n must be at least 1"),
                       (lambda: count_rank_k(1, -1), "k must be nonnegative"),
                       (lambda: rank_count_table(0, -1), "max_n must be at least 1"),
                       (lambda: rank_count_table(1, -1), "k must be nonnegative")]:
        with pytest.raises(DomainError) as info:
            call()
        assert str(info.value) == text


def test_rank_count_table():
    rows = rank_count_table(4)
    assert [(r.n, r.k, r.count) for r in rows] == [(1, 1, 0), (2, 1, 1), (3, 1, 2), (4, 1, 9)]
    rows0 = rank_count_table(3, k=0)
    assert [r.count for r in rows0] == [1, 1, 3]


# -- verification --

def test_verify_n2():
    report = verify_bijection(2)
    assert report.ok
    assert report.derangement_count == report.marked_tree_count == 1
    assert report.case_histogram == {CaseTag.BASE2: 1}


def test_verify_n5():
    report = verify_bijection(5)
    assert report.ok
    assert report.derangement_count == report.marked_tree_count == 44
    assert sum(report.case_histogram.values()) == 44
    assert not report.round_trip_failures


def test_verify_refuses_past_ceiling():
    with pytest.raises(VerificationLimitError):
        verify_bijection(9)  # default ceiling is 8
    with pytest.raises(VerificationLimitError):
        verify_bijection(10, size_limit=10)  # hard cap is 9
    with pytest.raises(DomainError):
        verify_bijection(1)


# Broken stand-ins for forward_with_case / inverse at size FAULT_N, each
# paired with the failure text verify_bijection must record for it.
FAULT_N = 5
FIRST, SECOND = list(gen_derangements(FAULT_N))[:2]
FAULT_KEY = forward_with_case(FIRST)[0].serialize()
OUTSIDE = next(gen_derangements(FAULT_N - 1))


def fault_table(first, second, outside):
    """The faults of FAULTS for two derangements first and second of one
    size and a derangement outside of a smaller size."""
    key = forward_with_case(first)[0].serialize()

    def swap_images(p):
        return forward_with_case({first: second, second: first}.get(p, p))

    def collide(p):
        return forward_with_case(first if p == second else p)

    def raise_internal(p):
        if p == first:
            raise InternalInvariantError("injected")
        return forward_with_case(p)

    def outside_marked_set(p):
        # the tree of a smaller size is a valid MarkedTree, but not one of this size
        return forward_with_case(outside if p == first else p)

    def wrong_preimage(mt):
        p = inverse(mt)
        return second if p == first else p

    return {
        "swap two images": ("forward_with_case", swap_images, [
            f"inverse(forward({first.serialize()})) = {second.serialize()}",
            f"inverse(forward({second.serialize()})) = {first.serialize()}"]),
        "two inputs, one image": ("forward_with_case", collide, [
            f"{second.serialize()} and {first.serialize()} map to the same tree {key}",
            "is not the image of any derangement"]),
        "internal error": ("forward_with_case", raise_internal, [
            f"{first.serialize()}: InternalInvariantError: injected",
            "is not the image of any derangement"]),
        "image outside the marked set": ("forward_with_case", outside_marked_set, [
            f"inverse(forward({first.serialize()})) = {outside.serialize()}",
            f"{key} is not the image of any derangement"]),
        "wrong preimage": ("inverse", wrong_preimage, [
            f"inverse(forward({first.serialize()})) = {second.serialize()}"]),
    }


FAULTS = fault_table(FIRST, SECOND, OUTSIDE)


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_verify_records_injected_fault(fault, monkeypatch, capsys):
    name, broken, expected = FAULTS[fault]
    monkeypatch.setattr(derangetree.enumeration, name, broken)
    report = verify_bijection(FAULT_N)
    assert not report.ok
    for text in expected:
        assert any(text in f for f in report.round_trip_failures), (text, report.round_trip_failures)
    assert run(["verify", "--max-size", str(FAULT_N)]) == 3
    out = capsys.readouterr().out
    assert f"n={FAULT_N} failure " in out
    assert "FAIL" in out


def test_failures_come_in_derangement_order(monkeypatch):
    # x raises, then z maps to the image of y
    x, y, z = [p for p in gen_derangements(7) if p.image(0) == 6][:3]

    def broken(p):
        if p == x:
            raise InternalInvariantError("injected")
        return forward_with_case(y if p == z else p)

    monkeypatch.setattr(derangetree.enumeration, "forward_with_case", broken)
    expected = [f"{x.serialize()}: InternalInvariantError: injected",
                f"{z.serialize()} and {y.serialize()} map to the same tree"
                f" {forward_with_case(y)[0].serialize()}",
                f"inverse(forward({z.serialize()})) = {y.serialize()}"]
    failures = verify_bijection(7).round_trip_failures
    assert failures[:3] == expected
    assert len(failures) == 5 and all("is not the image" in f for f in failures[3:])


def test_verify_keys_an_image_off_the_ground_set_by_its_text(monkeypatch):
    # a valid marked tree on {0, 1, 2, 3, 5}: its key is its text, and inverse refuses it
    off = MarkedTree(IncreasingTree({1: 0, 2: 0, 3: 1, 5: 3}, labels=[0, 1, 2, 3, 5]), 0)
    tag = forward_with_case(FIRST)[1]
    monkeypatch.setattr(derangetree.enumeration, "forward_with_case",
                        lambda p: (off, tag) if p == FIRST else forward_with_case(p))
    failures = verify_bijection(FAULT_N).round_trip_failures
    assert f"{FIRST.serialize()}: DomainError: inverse needs ground set 0..n-1" in failures
    assert f"{FAULT_KEY} is not the image of any derangement" in failures


def test_verify_names_a_repeated_image_off_the_ground_set_by_its_text(monkeypatch):
    # FIRST and SECOND both map to one tree on {0, 1, 2, 3, 5}, keyed by its text
    off = MarkedTree(IncreasingTree({1: 0, 2: 0, 3: 1, 5: 3}, labels=[0, 1, 2, 3, 5]), 0)
    tag = forward_with_case(FIRST)[1]
    monkeypatch.setattr(derangetree.enumeration, "forward_with_case",
                        lambda p: (off, tag) if p in (FIRST, SECOND) else forward_with_case(p))
    failures = verify_bijection(FAULT_N).round_trip_failures
    assert (f"{SECOND.serialize()} and {FIRST.serialize()} map to the same tree {off.serialize()}"
            in failures)
    for p in (FIRST, SECOND):
        assert f"{p.serialize()}: DomainError: inverse needs ground set 0..n-1" in failures


# the ids keep the names these cases had when they also took a CPU count
@pytest.mark.parametrize("n, pair, text", [
    (5, (0, 1), "size=5;parents=0,1,2,3;mark=0"),
    (7, (0, -1), "size=7;parents=0,1,2,3,4,5;mark=0"),
], ids=["5-1-pair0-size=5;parents=0,1,2,3;mark=0", "7-2-pair1-size=7;parents=0,1,2,3,4,5;mark=0"])
def test_repeated_image_with_a_bad_mark_is_recorded(n, pair, text, monkeypatch):
    # the path's root has rank n - 1, so MarkedTree refuses it
    stream = list(gen_derangements(n))
    first, second = (stream[i] for i in pair)
    path = MarkedTree._trusted(IncreasingTree._standard(list(range(n - 1))), 0)
    tag = forward_with_case(first)[1]
    monkeypatch.setattr(derangetree.enumeration, "forward_with_case",
                        lambda p: (path, tag) if p in (first, second) else forward_with_case(p))
    assert (f"{second.serialize()} and {first.serialize()} map to the same tree {text}"
            in verify_bijection(n).round_trip_failures)
    assert run(["verify", "--max-size", str(n)]) == 3


def test_verify_reports_a_count_mismatch(monkeypatch):
    def one_mark_short(n):
        *words, (word, marks) = _marked_words(n)
        return iter([*words, (word, marks[:-1])])

    monkeypatch.setattr(derangetree.enumeration, "_marked_words", one_mark_short)
    report = verify_bijection(5)
    assert report.round_trip_failures == ["count mismatch: 44 derangements vs 43 marked trees"]
    assert report.marked_tree_count == 43
    assert run(["verify", "--max-size", "5"]) == 3


def test_repeated_images_reenumerate_the_derangements_once(monkeypatch):
    # each odd-indexed derangement maps to the image of the one before it
    derangements = list(gen_derangements(6))
    previous = {p: derangements[i - 1] for i, p in enumerate(derangements) if i % 2}
    expected = [f"{derangements[i].serialize()} and {derangements[i - 1].serialize()} map to"
                f" the same tree {forward_with_case(derangements[i - 1])[0].serialize()}"
                for i in range(1, len(derangements), 2)]
    calls = []

    def counted(n):
        calls.append(n)
        return gen_derangements(n)

    monkeypatch.setattr(derangetree.enumeration, "gen_derangements", counted)
    monkeypatch.setattr(derangetree.enumeration, "forward_with_case",
                        lambda p: forward_with_case(previous.get(p, p)))
    failures = verify_bijection(6).round_trip_failures
    assert len(calls) <= 2
    assert [f for f in failures if "map to the same tree" in f] == expected
    assert len(expected) == 132


def test_verify_scan_holds_no_derangements(monkeypatch):
    def live():
        return sum(isinstance(o, CycleDecomposition) for o in gc.get_objects())

    baseline = live()  # what other tests and modules keep alive
    at_scan = []

    def watched(n):
        at_scan.append(live() - baseline)
        return _marked_words(n)

    monkeypatch.setattr(derangetree.enumeration, "_marked_words", watched)
    assert verify_bijection(7).ok
    assert len(at_scan) == 1 and at_scan[0] < 10


# sha256 of `verify --max-size 8 --json` without its elapsed_seconds lines
VERIFY_JSON_SHA256 = "e7b57dff639c14a18fd363b7865497e012c9452d69e28f0998ec4fa69fe94b71"
# the same for `verify --max-size 9 --size-limit 9 --json`, from the walk at 9
VERIFY_9_JSON_SHA256 = "33178d06215149e362d467d95be3cd5f0e002e2d6491729ddc6c7172aced2d93"


def json_digest(out):
    kept = "".join(line for line in out.splitlines(keepends=True) if "elapsed_seconds" not in line)
    return hashlib.sha256(kept.encode()).hexdigest()


def test_verify_json_report_is_golden(capsys):
    assert run(["verify", "--max-size", "8", "--json"]) == 0
    assert json_digest(capsys.readouterr().out) == VERIFY_JSON_SHA256


def test_verify_command_is_clean_in_dev_mode():
    # -X dev shows, among others, the ResourceWarning of a file left unclosed
    src = os.path.dirname(os.path.dirname(derangetree.enumeration.__file__))
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-m", "derangetree.cli",
         "verify", "--max-size", "8", "--json"],
        capture_output=True, env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert proc.returncode == 0
    assert proc.stderr == b""
    assert json_digest(proc.stdout.decode()) == VERIFY_JSON_SHA256


def test_verify_json_report_at_9_is_golden(capsys):
    assert run(["verify", "--max-size", "9", "--size-limit", "9", "--json"]) == 0
    assert json_digest(capsys.readouterr().out) == VERIFY_9_JSON_SHA256


def test_verify_forks_nothing(monkeypatch, capsys):
    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    assert verify_bijection(9, size_limit=9).ok
    assert run(["verify", "--max-size", "8", "--json"]) == 0
    assert json_digest(capsys.readouterr().out) == VERIFY_JSON_SHA256


def test_verify_reports_add_up_to_at_most_the_wall_time(capsys):
    start = time.perf_counter()
    code = run(["verify", "--max-size", "8", "--json"])
    wall = time.perf_counter() - start
    assert code == 0
    assert sum(report["elapsed_seconds"] for report in json.loads(capsys.readouterr().out)) <= wall


# -- the walk along the derangement recurrence --

def test_walk_is_forward():
    # each node's draft and mark are forward's image of the derangement
    # its levels rebuild, and every derangement is one node
    for n in range(2, 8):
        nodes = []

        def record(levels, tree, mark):
            nodes.append((_derangement(levels), tree.parent[1:n], mark, _case(tree, mark, n)))

        count, failures = _walk(n, record)
        assert failures == [] and count == len(nodes) == subfactorial(n)
        assert sorted(p.serialize() for p, *_ in nodes) == sorted(
            p.serialize() for p in gen_derangements(n))
        for p, word, mark, tag in nodes:
            mt, expected = forward_with_case(p)
            assert (word, mark, tag) == (list(mt.tree._word()), mt.mark, expected), p


# the top-level cases at n = 10, D(10) = 1,334,961 derangements
CASES_AT_10 = {CaseTag.C1A: 133_496, CaseTag.C1B: 811_471, CaseTag.C1C_I: 160_610,
               CaseTag.C1C_II: 95_887, CaseTag.C2A: 47_944, CaseTag.C2B: 85_553}


def test_walk_case_histogram_at_10():
    histogram = Counter()

    def tally(levels, tree, mark):
        histogram[_case(tree, mark, 10)] += 1

    assert _walk(10, tally) == (subfactorial(10), [])
    assert histogram == CASES_AT_10


def verify_8_failures(capsys):
    """The failure lines of ``verify --max-size 8``, which must exit 3
    with every size below 8 ok."""
    assert run(["verify", "--max-size", "8"]) == 3
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[-1] for line in lines if " derangements=" in line] == ["ok"] * 6 + ["FAIL"]
    return [line for line in lines if " failure " in line]


def patch_step(monkeypatch, name, stand_in):
    # forward and inverse call bijection's binding, the walk enumeration's
    monkeypatch.setattr(derangetree.bijection, name, stand_in)
    monkeypatch.setattr(derangetree.enumeration, name, stand_in)


def preimage(word, mark):
    return inverse(MarkedTree(IncreasingTree._standard(word), mark))


# Each fault fires once, on a level with top = 7, which the brute force
# at 2..7 never grows or peels; the walk names the derangement of size 8.

def test_walk_records_a_grow_that_keeps_the_mark(monkeypatch, capsys):
    hit = []

    def keeps_the_mark(tree, mark, levels):
        for level in levels:
            new = _grow(tree, mark, [level])
            if level[0] == 7 and not level[2] and new != mark and not hit:  # C1cII
                hit.append((tree.parent[1:8], new, mark))
                new = mark
            mark = new
        return mark

    patch_step(monkeypatch, "_grow", keeps_the_mark)
    failures = verify_8_failures(capsys)
    monkeypatch.undo()
    word, mark, kept = hit[0]
    assert failures == [f"n=8 failure {preimage(word, mark).serialize()}:"
                        f" InternalInvariantError: mark {kept} has no leaf child"]


def test_walk_records_a_peel_that_keeps_the_mark(monkeypatch, capsys):
    hit = []

    def keeps_the_mark(tree, mark, tops, splices):
        first, *rest = tops
        word = tree.parent[1:8]
        new = _peel(tree, mark, [first], splices)
        if first == 7 and new != mark and not splices[-1][2] and not hit:  # C1cII
            hit.append((word, mark, new))
            new = mark
        return _peel(tree, new, rest, splices)

    patch_step(monkeypatch, "_peel", keeps_the_mark)
    failures = verify_8_failures(capsys)
    monkeypatch.undo()
    word, mark, old = hit[0]
    level = (7, mark, False)
    assert failures == [f"n=8 failure {preimage(word, mark).serialize()}:"
                        f" InternalInvariantError: peeling 7 gave [{level}] and mark {mark},"
                        f" not [{level}] and mark {old}"]


def miscount(tree):
    tree.leaves[0] += 1


def misparent(tree):
    tree.parent[1] += 1


def stray_child(tree):
    # 7 is off the tree after the peel; a snapshot holding the live child
    # sets instead of copies would see the stray too and miss the fault
    tree.children[0].add(7)


@pytest.mark.parametrize("fault", [miscount, misparent, stray_child],
                         ids=["leaf-count", "parent", "child-set"])
def test_walk_records_a_peel_that_does_not_restore_the_tree(monkeypatch, capsys, fault):
    hit = []

    def damages(tree, mark, tops, splices):
        tops = list(tops)
        word = tree.parent[1:8]
        new = _peel(tree, mark, tops, splices)
        if tops[0] == 7 and not hit:
            hit.append((word, mark))
            fault(tree)
        return new

    patch_step(monkeypatch, "_peel", damages)
    failures = verify_8_failures(capsys)
    monkeypatch.undo()
    assert failures == [f"n=8 failure {preimage(*hit[0]).serialize()}:"
                        " InternalInvariantError: peeling 7 did not restore the tree"]


def test_walk_records_a_peel_that_raises(monkeypatch, capsys):
    hit = []

    def raises(tree, mark, tops, splices):
        tops = list(tops)
        if tops[0] == 7 and not hit:
            hit.append((tree.parent[1:8], mark))
            raise InternalInvariantError("injected")
        return _peel(tree, mark, tops, splices)

    patch_step(monkeypatch, "_peel", raises)
    failures = verify_8_failures(capsys)
    monkeypatch.undo()
    assert failures == [f"n=8 failure {preimage(*hit[0]).serialize()}:"
                        " InternalInvariantError: injected"]


def test_report_text_and_dict():
    report = verify_bijection(4)
    text = report.to_text()
    assert text.splitlines()[0] == (
        "n=4 derangements=9 marked_trees=9 failures=0 "
        f"elapsed={report.elapsed_seconds:.3f}s ok")
    assert "cases" in text
    data = report.to_dict()
    assert data["ok"] is True
    assert data["n"] == 4
    assert sum(data["case_histogram"].values()) == 9
    json.dumps(data)  # must be serializable as-is


# -- recurrence table --

def test_recurrence_rows():
    rows = {r.n: r for r in recurrence_check(5)}
    assert rows[3].count == 2
    assert rows[4].count == 9
    assert rows[5].count == 44
    # 9 = 3 * (2 + 1) and 44 = 4 * (9 + 2)
    assert rows[4].residual_derangement == 0
    assert rows[5].residual_derangement == 0
    assert rows[1].residual_derangement is None
    # the variant column is only reported; at n=4 it is 9 - 4*2 - 4*1
    assert rows[4].residual_variant == -3


def test_derangement_recurrence_holds_to_100():
    rows = recurrence_check(100)
    assert [r.n for r in rows] == list(range(1, 101))
    assert all(r.residual_derangement == 0 for r in rows[2:])


def test_recurrence_check_requires_three():
    with pytest.raises(DomainError):
        recurrence_check(2)


# -- case histogram --

def test_case_counts_n4_hand_enumerated():
    # all nine size-4 derangements classified by hand: the six 4-cycles
    # reduce to (0 1 2) or (0 2 1) with 3 hung under v, giving
    #   (0 3 1 2) C1b, (0 1 3 2) C1a, (0 1 2 3) C1cII,
    #   (0 3 2 1) C1a, (0 2 3 1) C1cI, (0 2 1 3) C1cI,
    # and the three 2+2 products give (0 1)(2 3) C2b, (0 2)(1 3) C2b,
    # (0 3)(1 2) C2a
    report = case_counts(4)
    assert report.histogram == {
        CaseTag.C1A: 2,
        CaseTag.C1B: 1,
        CaseTag.C1C_I: 2,
        CaseTag.C1C_II: 1,
        CaseTag.C2A: 1,
        CaseTag.C2B: 2,
    }
    assert report.top_attached_to_mark == 6


def test_case_counts_sums():
    assert sum(case_counts(4).histogram.values()) == 9
    assert sum(case_counts(6).histogram.values()) == 265


def test_case_counts_all_cases_occur_at_6():
    histogram = case_counts(6).histogram
    for tag in (CaseTag.C1A, CaseTag.C1B, CaseTag.C1C_I, CaseTag.C1C_II,
                CaseTag.C2A, CaseTag.C2B):
        assert histogram.get(tag, 0) >= 1


def test_case_counts_requires_four():
    with pytest.raises(DomainError):
        case_counts(3)
