import contextlib
import gc
import hashlib
import io
import itertools
import json
import os
import signal
import threading
import time

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
from derangetree.enumeration import _blocks, _derangements, _key, _marked_words
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


def consecutive_partitions(n):
    """Every partition of 1..n-1 into ranges of consecutive values, in order."""
    for k in range(n - 1):
        for cuts in itertools.combinations(range(2, n), k):
            bounds = [1, *cuts, n]
            yield [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def test_blocks_by_first_value_are_runs_of_the_stream():
    for n in range(2, 9):
        words = fixed_point_free_words(n)
        stream = list(gen_derangements(n))
        for x in range(1, n):
            run_of_x = [tuple(p.image(i) for i in range(n)) for p in _derangements(n, [x])]
            assert run_of_x == [w for w in words if w[0] == x]
            assert len(run_of_x) == subfactorial(n) // (n - 1)
        # every partition up to n = 7; at n = 8 the ones verify_bijection uses
        partitions = (consecutive_partitions(n) if n <= 7
                      else (_blocks(n, parts) for parts in range(1, n)))
        for blocks in partitions:
            assert [p for block in blocks for p in _derangements(n, block)] == stream, blocks


def test_verification_blocks_split_the_first_values_evenly():
    for n in range(2, 10):
        for parts in range(1, n):
            blocks = _blocks(n, parts)
            assert [x for block in blocks for x in block] == list(range(1, n))
            sizes = [len(block) for block in blocks]
            assert len(sizes) == parts and sizes == sorted(sizes) and sizes[-1] - sizes[0] <= 1


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


forking = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")


def verify_in_blocks(monkeypatch, n, cpus):
    """verify_bijection(n) as if ``cpus`` CPUs were usable, and the number
    of children it forked."""
    forks = []
    real_fork = os.fork

    def counted_fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(derangetree.enumeration, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(os, "fork", counted_fork)
    try:
        return verify_bijection(n), len(forks)
    finally:
        monkeypatch.setattr(os, "fork", real_fork)


def report_without_time(report):
    data = report.to_dict()
    del data["elapsed_seconds"]
    return data


# The FAULTS table at n = 7, with the faulty derangements in the last block
# (p(0) = 6), plus a last-block derangement sent to the image of a
# derangement in the first block.
FORKED_N = 7
FORKED_STREAM = list(gen_derangements(FORKED_N))
FORKED_FAULTS = fault_table(*[p for p in FORKED_STREAM if p.image(0) == FORKED_N - 1][:2],
                            next(gen_derangements(FORKED_N - 1)))
FORKED_FAULTS["two blocks, one image"] = (
    "forward_with_case",
    lambda p: forward_with_case(FORKED_STREAM[0] if p == FORKED_STREAM[-1] else p),
    [f"{FORKED_STREAM[-1].serialize()} and {FORKED_STREAM[0].serialize()} map to the same tree"
     f" {forward_with_case(FORKED_STREAM[0])[0].serialize()}",
     "is not the image of any derangement"])


@forking
@pytest.mark.parametrize("fault", sorted(FORKED_FAULTS))
def test_forked_verify_records_injected_fault(fault, monkeypatch):
    name, broken, expected = FORKED_FAULTS[fault]
    monkeypatch.setattr(derangetree.enumeration, name, broken)
    one_block, forks = verify_in_blocks(monkeypatch, FORKED_N, 1)
    assert forks == 0
    for cpus in (2, 3):
        report, forks = verify_in_blocks(monkeypatch, FORKED_N, cpus)
        assert forks == cpus - 1
        assert report.round_trip_failures == one_block.round_trip_failures
        assert report_without_time(report) == report_without_time(one_block)
    for text in expected:
        assert any(text in f for f in report.round_trip_failures), (text, report.round_trip_failures)


def test_failures_come_in_derangement_order(monkeypatch):
    # in the last block: x raises, then z maps to the image of y
    x, y, z = [p for p in FORKED_STREAM if p.image(0) == FORKED_N - 1][:3]

    def broken(p):
        if p == x:
            raise InternalInvariantError("injected")
        return forward_with_case(y if p == z else p)

    monkeypatch.setattr(derangetree.enumeration, "forward_with_case", broken)
    expected = [f"{x.serialize()}: InternalInvariantError: injected",
                f"{z.serialize()} and {y.serialize()} map to the same tree"
                f" {forward_with_case(y)[0].serialize()}",
                f"inverse(forward({z.serialize()})) = {y.serialize()}"]
    for cpus in (1, 2):
        failures = verify_in_blocks(monkeypatch, FORKED_N, cpus)[0].round_trip_failures
        assert failures[:3] == expected
        assert len(failures) == 5 and all("is not the image" in f for f in failures[3:])


@forking
@pytest.mark.parametrize("n", [7, 8])
def test_forked_report_equals_the_one_block_report(n, monkeypatch):
    one_block, _ = verify_in_blocks(monkeypatch, n, 1)
    assert one_block.ok
    for cpus in (2, 3, 16):
        report, forks = verify_in_blocks(monkeypatch, n, cpus)
        assert forks == min(cpus, n - 1) - 1
        assert report_without_time(report) == report_without_time(one_block)
        with pytest.raises(ChildProcessError):  # every child has been reaped
            os.waitpid(-1, os.WNOHANG)


@forking
def test_blocks_that_cannot_fork_are_checked_here(monkeypatch):
    expected = report_without_time(verify_bijection(7))
    real_fork = os.fork
    calls = []

    def fork_once():
        calls.append(None)
        if len(calls) > 1:
            raise BlockingIOError("no more processes")
        return real_fork()

    monkeypatch.setattr(derangetree.enumeration, "_usable_cpus", lambda: 3)
    monkeypatch.setattr(os, "fork", fork_once)
    report = verify_bijection(7)
    monkeypatch.setattr(os, "fork", real_fork)
    assert len(calls) == 2
    assert report_without_time(report) == expected
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@forking
def test_no_child_outlives_a_verification_that_raises(monkeypatch):
    parent = os.getpid()

    def interrupted_here(p):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        return forward_with_case(p)

    monkeypatch.setattr(derangetree.enumeration, "forward_with_case", interrupted_here)
    with pytest.raises(KeyboardInterrupt):
        verify_in_blocks(monkeypatch, 8, 2)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_one_block_without_a_second_cpu_fork_or_a_lone_thread(monkeypatch):
    def no_fork():
        raise AssertionError("forked")

    expected = report_without_time(verify_bijection(7))
    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setattr(derangetree.enumeration, "_usable_cpus", lambda: 1)
    assert report_without_time(verify_bijection(7)) == expected
    monkeypatch.setattr(derangetree.enumeration, "_usable_cpus", lambda: 2)
    assert verify_bijection(6).ok  # too small to fork
    stop = threading.Event()
    other = threading.Thread(target=stop.wait)
    other.start()
    try:
        assert report_without_time(verify_bijection(7)) == expected
    finally:
        stop.set()
        other.join(timeout=10)
    assert not other.is_alive()
    monkeypatch.delattr(os, "fork")
    assert report_without_time(verify_bijection(7)) == expected


@forking
def test_block_of_a_dead_child_is_checked_again(monkeypatch):
    parent = os.getpid()
    expected = report_without_time(verify_bijection(8))

    def dies_in_a_child(p):
        if os.getpid() != parent:
            os._exit(1)
        return forward_with_case(p)

    def too_slow(signum, frame):
        raise TimeoutError("verify_bijection hung on a dead child")

    monkeypatch.setattr(derangetree.enumeration, "forward_with_case", dies_in_a_child)
    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.alarm(60)
    try:
        report, forks = verify_in_blocks(monkeypatch, 8, 3)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert forks == 2
    assert report_without_time(report) == expected
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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


def json_digest(out):
    kept = "".join(line for line in out.splitlines(keepends=True) if "elapsed_seconds" not in line)
    return hashlib.sha256(kept.encode()).hexdigest()


def test_verify_json_report_is_golden(capsys):
    assert run(["verify", "--max-size", "8", "--json"]) == 0
    assert json_digest(capsys.readouterr().out) == VERIFY_JSON_SHA256


@contextlib.contextmanager
def time_limit(seconds):
    """Raise TimeoutError in this process if the block runs past ``seconds``."""
    def too_slow(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def verify_command(monkeypatch, cpus, max_size=8):
    """``verify --max-size max_size --json`` as if ``cpus`` CPUs were
    usable: the exit code, stdout as ``run`` printed it, the number of
    children forked, and the most of them alive at once."""
    forks, reaped, most = [], [], 0
    real_fork, real_waitpid = os.fork, os.waitpid

    def counted_fork():
        nonlocal most
        pid = real_fork()
        if pid:
            forks.append(pid)
            most = max(most, len(forks) - len(reaped))
        return pid

    def counted_waitpid(pid, options):
        reaped.append(pid)
        return real_waitpid(pid, options)

    out = io.StringIO()
    monkeypatch.setattr(derangetree.enumeration, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(os, "fork", counted_fork)
    monkeypatch.setattr(os, "waitpid", counted_waitpid)
    try:
        with contextlib.redirect_stdout(out):
            code = run(["verify", "--max-size", str(max_size), "--json"])
    finally:
        monkeypatch.setattr(os, "fork", real_fork)
        monkeypatch.setattr(os, "waitpid", real_waitpid)
    return code, out.getvalue(), len(forks), most


@forking
@pytest.mark.parametrize("cpus", [1, 2, 3, 16])
def test_largest_size_started_first_keeps_the_golden_report(cpus, monkeypatch):
    # n = 8 forks min(cpus, 7) - 1 children first, then n = 7 its own
    code, out, forks, most = verify_command(monkeypatch, cpus)
    assert code == 0
    assert json_digest(out) == VERIFY_JSON_SHA256
    assert forks == most == min(cpus, 7) - 1 + min(cpus, 6) - 1
    with pytest.raises(ChildProcessError):  # every child has been reaped
        os.waitpid(-1, os.WNOHANG)


@forking
@pytest.mark.parametrize("cpus", [2, 3])
def test_at_most_two_sizes_have_children_at_once(cpus, monkeypatch):
    monkeypatch.setattr(derangetree.enumeration, "_FORK_MIN_SIZE", 5)
    _, expected, _, _ = verify_command(monkeypatch, 1, max_size=7)
    code, out, forks, most = verify_command(monkeypatch, cpus, max_size=7)
    assert code == 0 and json_digest(out) == json_digest(expected)
    # sizes 7, 5 and 6 fork in that order; 5's children are reaped before 6 forks
    per_size = [min(cpus, n - 1) - 1 for n in (7, 5, 6)]
    assert forks == sum(per_size)
    assert most == per_size[0] + per_size[2]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@forking
@pytest.mark.parametrize("cpus", [2, 3])
@pytest.mark.parametrize("size", [5, 8])
def test_no_child_outlives_a_verify_command_that_raises(size, cpus, monkeypatch):
    # at 5, while n = 8's children run; at 8, in this process's own block.
    # With 3 CPUs the second child holds a copy of the first one's pipe.
    parent = os.getpid()

    def interrupted_here(p):
        if os.getpid() == parent and p.size == size:
            raise KeyboardInterrupt
        return forward_with_case(p)

    monkeypatch.setattr(derangetree.enumeration, "forward_with_case", interrupted_here)
    with time_limit(60), pytest.raises(KeyboardInterrupt):
        verify_command(monkeypatch, cpus)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@forking
def test_block_of_a_dead_child_of_the_largest_size_is_checked_again(monkeypatch):
    parent = os.getpid()

    def dies_in_a_child_of_8(p):
        if os.getpid() != parent and p.size == 8:
            os._exit(1)
        return forward_with_case(p)

    monkeypatch.setattr(derangetree.enumeration, "forward_with_case", dies_in_a_child_of_8)
    with time_limit(60):
        code, out, forks, _ = verify_command(monkeypatch, 3)
    assert code == 0 and forks == 4
    assert json_digest(out) == VERIFY_JSON_SHA256
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@forking
def test_verify_reports_add_up_to_at_most_the_wall_time(monkeypatch):
    start = time.perf_counter()
    code, out, _, _ = verify_command(monkeypatch, 2)
    wall = time.perf_counter() - start
    assert code == 0
    assert sum(report["elapsed_seconds"] for report in json.loads(out)) <= wall


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
