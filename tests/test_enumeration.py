import gc
import hashlib
import json

import pytest

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
from derangetree.cli import run
from derangetree.enumeration import _key, _marked_words
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
        assert keys == {_key(mt) for mt in gen_marked_trees(n)}
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


def _swap_images(p):
    return forward_with_case({FIRST: SECOND, SECOND: FIRST}.get(p, p))


def _collide(p):
    return forward_with_case(FIRST if p == SECOND else p)


def _raise_internal(p):
    if p == FIRST:
        raise InternalInvariantError("injected")
    return forward_with_case(p)


def _outside_marked_set(p):
    # the tree of a smaller size is a valid MarkedTree, but not one of size FAULT_N
    return forward_with_case(OUTSIDE if p == FIRST else p)


def _wrong_preimage(mt):
    p = inverse(mt)
    return SECOND if p == FIRST else p


FAULTS = {
    "swap two images": ("forward_with_case", _swap_images, [
        f"inverse(forward({FIRST.serialize()})) = {SECOND.serialize()}",
        f"inverse(forward({SECOND.serialize()})) = {FIRST.serialize()}"]),
    "two inputs, one image": ("forward_with_case", _collide, [
        f"{SECOND.serialize()} and {FIRST.serialize()} map to the same tree {FAULT_KEY}",
        "is not the image of any derangement"]),
    "internal error": ("forward_with_case", _raise_internal, [
        f"{FIRST.serialize()}: InternalInvariantError: injected",
        "is not the image of any derangement"]),
    "image outside the marked set": ("forward_with_case", _outside_marked_set, [
        f"inverse(forward({FIRST.serialize()})) = {OUTSIDE.serialize()}",
        f"{FAULT_KEY} is not the image of any derangement"]),
    "wrong preimage": ("inverse", _wrong_preimage, [
        f"inverse(forward({FIRST.serialize()})) = {SECOND.serialize()}"]),
}


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


def test_verify_keys_an_image_off_the_ground_set_by_its_text(monkeypatch):
    # a valid marked tree on {0, 1, 2, 3, 5}: its key is its text, and inverse refuses it
    off = MarkedTree(IncreasingTree({1: 0, 2: 0, 3: 1, 5: 3}, labels=[0, 1, 2, 3, 5]), 0)
    assert _key(off) == off.serialize()
    tag = forward_with_case(FIRST)[1]
    monkeypatch.setattr(derangetree.enumeration, "forward_with_case",
                        lambda p: (off, tag) if p == FIRST else forward_with_case(p))
    failures = verify_bijection(FAULT_N).round_trip_failures
    assert f"{FIRST.serialize()}: DomainError: inverse needs ground set 0..n-1" in failures
    assert f"{FAULT_KEY} is not the image of any derangement" in failures


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


def test_verify_json_report_is_golden(capsys):
    assert run(["verify", "--max-size", "8", "--json"]) == 0
    out = capsys.readouterr().out
    kept = "".join(line for line in out.splitlines(keepends=True) if "elapsed_seconds" not in line)
    assert hashlib.sha256(kept.encode()).hexdigest() == VERIFY_JSON_SHA256


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
