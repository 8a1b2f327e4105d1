import itertools
import random
import re

import pytest
from hypothesis import given, strategies as st

from derangetree import (
    CycleDecomposition,
    DomainError,
    FormatError,
    forward,
    gen_derangements,
    inverse,
    parse_cycles,
)
from util import canonical_cycles, fixed_point_free_words


def test_canonical_rotation_and_order():
    p = CycleDecomposition([(5, 0, 3), (4, 2, 1)])
    assert p.cycles == ((0, 3, 5), (1, 4, 2))
    assert p.serialize() == "(0 3 5)(1 4 2)"
    assert p.ground_set == (0, 1, 2, 3, 4, 5)
    assert CycleDecomposition([(2, 1), (3, 0)]).cycles == ((0, 3), (1, 2))


def test_rotation_preserves_cyclic_order():
    assert CycleDecomposition([(3, 5, 0)]).cycles == ((0, 3, 5),)


def test_duplicate_label_rejected():
    with pytest.raises(DomainError):
        CycleDecomposition([(0, 1), (1, 2)])
    with pytest.raises(DomainError):
        CycleDecomposition([(0, 0)])


def test_negative_and_empty():
    with pytest.raises(DomainError):
        CycleDecomposition([(-1, 0)])
    with pytest.raises(DomainError):
        CycleDecomposition([()])


@pytest.mark.parametrize("cycles, text", [
    ([(3, 1, 3), (1, 2)], "repeated label: 3"),
    ([(0, 4), (2, 5), (5, 1)], "repeated label: 5"),
    ([(0, 1), (2, -1, 1)], "negative label: -1"),
    ([(0, 1), (), (-2, 3)], "empty cycle"),
    # a fault in an earlier cycle is named before a later label fails to convert
    ([(0, 0), (1.5, 2)], "repeated label: 0"),
    ([(-1, 2), ("a",)], "negative label: -1"),
])
def test_first_offence_is_named(cycles, text):
    with pytest.raises(DomainError, match=f"^{re.escape(text)}$"):
        CycleDecomposition(cycles)


@pytest.mark.parametrize("cycles", [[(0, 1.5)], [("0", "1")]])
def test_non_integer_label_is_refused(cycles):
    with pytest.raises(TypeError):
        CycleDecomposition(cycles)


def test_image_preimage():
    p = parse_cycles("(0 5 3)(1 4 2)")
    assert p.image(0) == 5
    assert p.image(3) == 0
    assert p.preimage(5) == 0
    assert p.preimage(0) == 3
    with pytest.raises(DomainError):
        p.image(9)


def test_is_derangement():
    assert parse_cycles("(0 1)(2 3)").is_derangement
    assert not parse_cycles("(0)(1 2)").is_derangement
    assert parse_cycles("(0)(1 2)").fixed_points() == (0,)


def test_from_word():
    assert CycleDecomposition.from_word((1, 0, 3, 2)).serialize() == "(0 1)(2 3)"
    assert CycleDecomposition.from_word((0, 1, 2)).serialize() == "(0)(1)(2)"
    with pytest.raises(DomainError, match=r"^word is not a permutation of 0\.\.1$"):
        CycleDecomposition.from_word((1, 1))
    with pytest.raises(DomainError, match=r"^word is not a permutation of 0\.\.2$"):
        CycleDecomposition.from_word((0, 1, 3))
    with pytest.raises(TypeError):
        CycleDecomposition.from_word((1.0, 0))


# -- parsing --

def test_parse_trivial():
    assert parse_cycles("(0 1)").cycles == ((0, 1),)


def test_parse_many_cycles():
    p = parse_cycles("(0 9)(1 3 5 2 6 8)(4 7)")
    assert len(p.cycles) == 3
    assert p.ground_set == tuple(range(10))


def test_parse_compact_digits():
    assert parse_cycles("(053)(142)") == parse_cycles("(0 5 3)(1 4 2)")


def test_parse_compact_is_per_digit():
    # without spaces every character is its own label
    assert parse_cycles("(10)").cycles == ((0, 1),)


def test_parse_fixed_point_message():
    with pytest.raises(DomainError, match="fixed point: 0"):
        parse_cycles("(0)(1 2)", require_derangement=True)
    # the first fixed point in input order, not in canonical order
    with pytest.raises(DomainError, match="^fixed point: 3$"):
        parse_cycles("(3)(1)", require_derangement=True)


def test_parse_repeated_label():
    with pytest.raises(DomainError, match="repeated label: 1"):
        parse_cycles("(0 1)(1 2)")
    # a repeat is reported before any size check
    for text, size in [("(0 5 5)", 3), ("(5)(0 5)", 2)]:
        with pytest.raises(DomainError, match="^repeated label: 5$"):
            parse_cycles(text, size=size)


def test_parse_size_checks():
    parse_cycles("(0 1)(2 3)", size=4)
    with pytest.raises(DomainError, match="missing label: 2"):
        parse_cycles("(0 1)", size=4)
    for text, size, gap in [("(1 2)", 3, 0), ("(0 2)(3 4)", 5, 1), ("(0 1)", 10**12, 2)]:
        with pytest.raises(DomainError, match=f"^missing label: {gap}$"):
            parse_cycles(text, size=size)
    with pytest.raises(DomainError, match="out of range"):
        parse_cycles("(0 7)", size=4)


def test_parse_syntax_errors_carry_columns():
    with pytest.raises(FormatError, match="column 1"):
        parse_cycles("0 1)")
    with pytest.raises(FormatError, match="column 6"):
        parse_cycles("(0 1)(2 3")
    with pytest.raises(FormatError, match="column 2"):
        parse_cycles("()")
    with pytest.raises(FormatError, match="column 4"):
        parse_cycles("(0 x)")
    with pytest.raises(FormatError):
        parse_cycles("")
    for text, message in [
        ("(0a)", "column 3: expected a digit but found 'a'"),
        ("(10 2a 3)", "column 5: expected an integer but found '2a'"),
        ("(0 \u0661)", "column 4: expected an integer but found '\u0661'"),  # Arabic-Indic 1
    ]:
        with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
            parse_cycles(text)


def test_parse_any_whitespace_separates_labels():
    assert parse_cycles("(0\t1\n2)").cycles == ((0, 1, 2),)
    for text in ["(0 1)", "( 1 0 )", "(0\xa01)", "(1\u30000)"]:  # no-break, ideographic
        assert parse_cycles(text).cycles == ((0, 1),)
    # whitespace between and around cycles is skipped too
    assert parse_cycles(" (0 1)\t(2 3) ").serialize() == "(0 1)(2 3)"


@given(st.integers(0, 9).flatmap(lambda n: st.permutations(list(range(n)))),
       st.randoms(use_true_random=False))
def test_canonical_invariants_from_random_words(word, rng):
    n = len(word)
    p = CycleDecomposition.from_word(word)
    seen = [x for cyc in p.cycles for x in cyc]
    assert sorted(seen) == sorted(word)
    for cyc in p.cycles:
        assert cyc[0] == min(cyc)
    assert list(p.cycles) == sorted(p.cycles, key=lambda c: c[0])
    for i in range(n):
        assert p.image(i) == word[i]
    # the constructor, given the same cycles rotated and shuffled, agrees
    given_cycles = []
    for cyc in p.cycles:
        k = rng.randrange(len(cyc))
        given_cycles.append(cyc[k:] + cyc[:k])
    rng.shuffle(given_cycles)
    q = CycleDecomposition(given_cycles)
    assert q.cycles == p.cycles
    assert q.ground_set == p.ground_set == tuple(range(n))
    assert hash(q) == hash(p)
    for i in range(n):
        assert q.image(i) == p.image(i)
        assert q.preimage(i) == p.preimage(i) == word.index(i)


def test_generators_agree_with_itertools_filter():
    # every size-4 permutation without fixed points, via an independent route
    raw = [w for w in itertools.permutations(range(4)) if all(w[i] != i for i in range(4))]
    assert len({CycleDecomposition.from_word(w) for w in raw}) == 9


# -- successor map stored, canonical cycles computed on first use --

def assert_same_permutation(p, word):
    """``p`` against the permutation i -> word[i] built by both validating
    routes, each freshly built, so that no cache is warm on the reference
    side; the reads that need no canonical cycles come first."""
    labels = range(len(word))
    preimages = sorted(labels, key=word.__getitem__)
    fixed = tuple(i for i in labels if word[i] == i)
    cycles = canonical_cycles(word)
    for ref in (CycleDecomposition(p.cycles), CycleDecomposition.from_word(word)):
        assert p == ref and ref == p
        assert p.is_derangement == ref.is_derangement == (not fixed)
        assert p.fixed_points() == ref.fixed_points() == fixed
        assert [p.image(i) for i in labels] == [ref.image(i) for i in labels] == list(word)
        assert [p.preimage(i) for i in labels] == [ref.preimage(i) for i in labels] == preimages
        assert p.size == ref.size == len(word)
        assert p.ground_set == ref.ground_set == tuple(labels)
        assert hash(p) == hash(ref)
        assert p.cycles == ref.cycles == cycles
        assert p.serialize() == ref.serialize()


def test_generated_and_inverted_permutations_match_validated():
    reordered = 0
    for n in range(1, 9):
        words = fixed_point_free_words(n)  # gen_derangements' order
        for p, word in zip(gen_derangements(n), words, strict=True):
            assert_same_permutation(p, word)
            # every marked tree is some forward(p), so this is every inverse output
            back = inverse(forward(p)) if n >= 2 else p
            assert_same_permutation(back, word)
            reordered += list(back._succ) != sorted(back._succ)
    assert reordered  # inverse's splices insert labels out of order


def test_random_words_with_fixed_points_match_validated():
    rng = random.Random(2024)
    for n in range(10):
        words = [tuple(range(n))] + [tuple(rng.sample(range(n), n)) for _ in range(30)]
        for word in words:
            assert_same_permutation(CycleDecomposition.from_word(word), word)
            backwards = dict(reversed(list(enumerate(word))))
            assert_same_permutation(CycleDecomposition._from_succ(backwards), word)
