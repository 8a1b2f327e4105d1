import itertools

import pytest
from hypothesis import given, strategies as st

from derangetree import (
    DomainError,
    FormatError,
    IncreasingTree,
    MarkedTree,
    format_word,
    gen_increasing_trees,
    parse_tree_text,
    parse_word,
)
from derangetree.trees import _int_field
from util import brute_rank, descent_count, factorial, naive_leaves, recursive_walk

# the walk example tree for the word 4 7 5 2 6 1 3
EXAMPLE_TREE = IncreasingTree({1: 0, 2: 0, 3: 1, 4: 0, 5: 4, 6: 2, 7: 4})
EXAMPLE_WORD = (4, 7, 5, 2, 6, 1, 3)


@st.composite
def increasing_trees(draw, max_size=8):
    n = draw(st.integers(min_value=1, max_value=max_size))
    parent = {v: draw(st.integers(min_value=0, max_value=v - 1)) for v in range(1, n)}
    return IncreasingTree(parent, labels=range(n))


def all_words(n):
    return itertools.permutations(range(1, n))


# -- rank --

def test_rank_leaf_is_zero():
    assert EXAMPLE_TREE.rank(3) == 0


def test_rank_hand_checked_values():
    # 4's children 5 and 7 are leaves; the shortest leaf path from 0 is 0-1-3
    assert EXAMPLE_TREE.rank(4) == 1
    assert EXAMPLE_TREE.rank(0) == 2


def test_rank_unknown_vertex():
    with pytest.raises(DomainError):
        EXAMPLE_TREE.rank(9)
    with pytest.raises(DomainError, match="^unknown vertex label: 9$"):
        EXAMPLE_TREE.has_leaf_child(9)


def test_rank_matches_brute_force_exhaustively():
    for n in range(1, 7):
        for t in gen_increasing_trees(n):
            for v in t.labels:
                assert t.rank(v) == brute_rank(t, v)
                assert t.has_leaf_child(v) == (brute_rank(t, v) == 1)


def test_rank_properties_exhaustively():
    for n in range(1, 7):
        for t in gen_increasing_trees(n):
            leaves = t.leaves()
            for v in t.labels:
                assert (t.rank(v) == 0) == (v in leaves)
                for c in t.children(v):
                    assert t.rank(v) <= 1 + t.rank(c)
                if t.rank(v) == 1 and v != t.root:
                    assert t.rank(t.parent_of(v)) in (1, 2)


# -- depth search walk --

def test_walk_single_vertex():
    assert IncreasingTree({}, labels=[0]).depth_search_walk() == (0,)


def test_walk_chain():
    assert IncreasingTree({1: 0, 2: 1}).depth_search_walk() == (0, 1, 2)


def test_walk_example_tree():
    assert EXAMPLE_TREE.depth_search_walk() == (0, 4, 7, 5, 2, 6, 1, 3)


def test_walk_from_inner_vertex():
    assert EXAMPLE_TREE.depth_search_walk(4) == (4, 7, 5)


def test_walk_unknown_start():
    with pytest.raises(DomainError):
        EXAMPLE_TREE.depth_search_walk(42)


def test_walk_matches_recursive_reference():
    for n in range(1, 7):
        for t in gen_increasing_trees(n):
            assert list(t.depth_search_walk()) == recursive_walk(t, t.root)


# -- tree <-> word --

def test_to_word_trivial():
    assert IncreasingTree({}, labels=[0]).to_word() == ()


def test_to_word_example():
    assert EXAMPLE_TREE.to_word() == EXAMPLE_WORD


def test_to_word_star():
    assert IncreasingTree({1: 0, 2: 0}).to_word() == (2, 1)


def test_to_word_requires_standard_labels():
    t = IncreasingTree({2: 1}, labels=[1, 2])
    with pytest.raises(DomainError):
        t.to_word()


def test_from_word_trivial():
    assert IncreasingTree.from_word(()) == IncreasingTree({}, labels=[0])


def test_from_word_example():
    assert IncreasingTree.from_word(EXAMPLE_WORD) == EXAMPLE_TREE


def test_from_word_star():
    assert IncreasingTree.from_word((2, 1)) == IncreasingTree({1: 0, 2: 0})


def test_from_word_rejects_non_permutations():
    for bad in [(1, 1), (2, 3), (0, 1), (2,)]:
        with pytest.raises(FormatError):
            IncreasingTree.from_word(bad)


def test_round_trip_exhaustive_small():
    for n in range(1, 7):
        trees = list(gen_increasing_trees(n))
        for t in trees:
            assert IncreasingTree.from_word(t.to_word()) == t
        for w in all_words(n):
            assert IncreasingTree.from_word(w).to_word() == w


@given(increasing_trees())
def test_round_trip_random(t):
    assert IncreasingTree.from_word(t.to_word()) == t


# -- leaves and the descent law --

def test_leaves_examples():
    assert IncreasingTree({}, labels=[0]).leaves() == {0}
    assert EXAMPLE_TREE.leaves() == {3, 5, 6, 7}
    assert IncreasingTree({1: 0, 2: 1}).leaves() == {2}


def test_leaves_match_naive_oracle():
    for n in range(1, 7):
        for t in gen_increasing_trees(n):
            assert set(t.leaves()) == naive_leaves(t)


@given(increasing_trees())
def test_leaf_count_is_descents_plus_one(t):
    assert len(t.leaves()) == descent_count(t.to_word()) + 1


def test_aggregate_leaf_count_small():
    for n in range(2, 7):
        total = sum(len(t.leaves()) for t in gen_increasing_trees(n))
        assert total == factorial(n) // 2


# -- construction and validation --

def test_parent_must_be_smaller():
    with pytest.raises(DomainError):
        IncreasingTree({1: 2, 2: 0})
    with pytest.raises(DomainError, match="^parent 3 of vertex 2 must be smaller$"):
        IncreasingTree({1: 0, 2: 3, 3: 2})  # 2 and 3 form a cycle


def test_missing_parent_entry():
    with pytest.raises(DomainError):
        IncreasingTree({1: 0}, labels=[0, 1, 2])


def test_parent_entry_for_root():
    with pytest.raises(DomainError):
        IncreasingTree({0: 0, 1: 0}, labels=[0, 1])


def test_stray_parent_entry():
    with pytest.raises(DomainError):
        IncreasingTree({1: 0, 5: 0}, labels=[0, 1])


def test_duplicate_labels():
    with pytest.raises(DomainError):
        IncreasingTree({1: 0}, labels=[0, 1, 1])


def test_negative_label():
    with pytest.raises(DomainError):
        IncreasingTree({1: -1})


def test_empty_tree_needs_labels():
    with pytest.raises(DomainError):
        IncreasingTree({})


@pytest.mark.parametrize("parent, labels", [
    ({1: 0.0}, None),  # once serialized as "size=2;parents=0.0", which parse refuses
    ({1.5: 0}, None),
    ({1: 0}, [0, 1.0]),
    ({"1": "0"}, None),
])
def test_non_integer_label_is_refused(parent, labels):
    with pytest.raises(TypeError):
        IncreasingTree(parent, labels)


@pytest.mark.parametrize("mark", [
    0.0,  # once serialized as "mark=0.0", which parse refuses
    1.0,
    "1",  # once reported as an unknown vertex label
])
def test_non_integer_mark_is_refused(mark):
    with pytest.raises(TypeError):
        MarkedTree(IncreasingTree({1: 0, 2: 1}), mark)


def test_bool_mark_is_an_integer():
    mt = MarkedTree(IncreasingTree({1: 0, 2: 1}), True)
    assert type(mt.mark) is int
    assert mt.serialize() == "size=3;parents=0,1;mark=1"


def test_generalized_ground_set():
    t = IncreasingTree({3: 1, 5: 3, 2: 1, 4: 2, 7: 4, 6: 2, 8: 6})
    assert t.root == 1
    assert t.labels == (1, 2, 3, 4, 5, 6, 7, 8)
    assert t.children(2) == (4, 6)
    assert t.rank(4) == 1


def test_is_standard():
    for labels, standard in [([0], True), ([5], False), ([0, 1, 2], True),
                             ([1, 2, 3], False), ([0, 2], False), ([0, 1, 3], False)]:
        tree = IncreasingTree({v: labels[0] for v in labels[1:]}, labels=labels)
        assert tree.is_standard is standard


def test_parent_of_and_contains():
    assert EXAMPLE_TREE.parent_of(7) == 4
    assert EXAMPLE_TREE.parent_of(0) is None
    assert 5 in EXAMPLE_TREE and 9 not in EXAMPLE_TREE
    with pytest.raises(DomainError):
        EXAMPLE_TREE.parent_of(9)


# -- serialization --

def test_serialize_standard():
    assert EXAMPLE_TREE.serialize() == "size=8;parents=0,0,1,0,4,2,4"
    assert IncreasingTree({}, labels=[0]).serialize() == "size=1;parents="


def test_serialize_generalized():
    t = IncreasingTree({2: 1, 5: 2}, labels=[1, 2, 5])
    assert t.serialize() == "labels=1,2,5;edges=2:1,5:2"
    assert IncreasingTree({2: 1, 3: 2}, labels=[1, 2, 3]) == IncreasingTree.parse(
        "labels=1,2,3;edges=2:1,3:2")


def test_parse_round_trip():
    for text in ["size=8;parents=0,0,1,0,4,2,4", "size=1;parents=",
                 "labels=1,2,5;edges=2:1,5:2"]:
        assert IncreasingTree.parse(text).serialize() == text


def test_parse_errors():
    for bad in ["", "size=3", "size=3;parents=0", "size=0;parents=",
                "size=3;parents=0,x", "parents=0;size=2", "size=2;parents=0;junk=1",
                "labels=;edges=", "labels=1,2;edges=2:", "size=2;parents=0;mark=0"]:
        with pytest.raises(FormatError):
            IncreasingTree.parse(bad)


def test_parse_semantic_error_is_domain_error():
    with pytest.raises(DomainError):
        IncreasingTree.parse("size=3;parents=0,2")


def per_entry_tree(n, body):
    """The tree of ``size=n;parents=body``, read entry by entry through
    ``_int_field`` and built by the validating constructor."""
    entries = body.split(",") if body else []
    if len(entries) != n - 1:
        raise FormatError(f"expected {n - 1} parent entries, got {len(entries)}")
    parent = {v: _int_field(e, f"parent of {v}") for v, e in enumerate(entries, start=1)}
    return IncreasingTree(parent, labels=range(n))


def outcome(read, *args):
    """What ``read(*args)`` gives: its result, or its error's type and text."""
    try:
        return read(*args)
    except (FormatError, DomainError) as exc:
        return type(exc), str(exc)


def assert_bulk_matches_per_entry(n, body):
    """``size=n;parents=body``, plain and with ``mark=0``, read in bulk and
    entry by entry: equal trees, or the same error.  The parser strips the
    whole text first, so a plain body loses its trailing whitespace."""
    text = f"size={n};parents={body}"
    assert outcome(IncreasingTree.parse, text) == outcome(per_entry_tree, n, body.rstrip())
    assert (outcome(MarkedTree.parse, f"{text};mark=0")
            == outcome(lambda: MarkedTree(per_entry_tree(n, body), 0)))


# entries that ``int`` reads but the text format refuses, and plain junk
MALFORMED_ENTRIES = ["x", "", "+1", "-1", " 1", "1 ", "1_0", "١", "0x1", "1.0"]


@pytest.mark.parametrize("n, body", [
    (4, "0,x,1"), (4, "0,,1"), (4, ",0,1"), (4, "0,1,"), (4, "0,+1,1"),
    (4, "0,-1,1"), (4, "0, 1,1"), (4, "0,1_0,1"), (4, "0,١,1"), (4, "x,+1,1"),
    (4, "0,2,1"), (4, "0,1,3"), (4, "0,1,7"), (4, "0,4,x"), (4, "0,1"), (4, "0,1,2,3"),
    (1, "0"), (1, ""), (2, "0"), (4, "0,0,1"), (4, "0,1,2"), (4, "00,01,02"),
    (2, "1 "), (4, "0,1,1 "), (4, "0,1,x "),
])
def test_bulk_parents_reader_matches_per_entry(n, body):
    assert_bulk_matches_per_entry(n, body)


@given(st.integers(min_value=1, max_value=9), st.data())
def test_bulk_parents_reader_matches_per_entry_random(n, data):
    valid = st.tuples(*(st.integers(min_value=0, max_value=v - 1).map(str) for v in range(1, n)))
    entry = st.one_of(st.integers(min_value=0, max_value=n).map(str),
                      st.sampled_from(MALFORMED_ENTRIES))
    anything = st.lists(entry, min_size=max(0, n - 2), max_size=n)
    assert_bulk_matches_per_entry(n, ",".join(data.draw(st.one_of(valid, anything))))


def public_reads(t):
    """Every public read of a tree on 0..n-1, the reads that need no child
    index first, and the error texts of reads of an unknown vertex."""
    n = t.size
    reads = {
        "in": [v in t for v in [-1, *range(n + 1), True, 1.0, "0", None]],
        "has_leaf_child": [t.has_leaf_child(v) for v in range(n)],
        "parent_of": [t.parent_of(v) for v in range(n)],
        "leaves": t.leaves(),
        "serialize": t.serialize(),
        "hash": hash(t),
        "children": [t.children(v) for v in range(n)],
        "rank": [t.rank(v) for v in range(n)],
    }
    for read in (t.has_leaf_child, t.parent_of, t.children, t.rank):
        reads[read.__name__ + " unknown"] = [outcome(read, v) for v in (-1, n)]
    return reads


def test_lazy_index_answers_like_validated_tree():
    for n in range(1, 8):
        for word in itertools.product(*(range(v) for v in range(1, n))):
            ref = IncreasingTree(dict(enumerate(word, start=1)), labels=range(n))
            want = public_reads(ref)
            assert want["has_leaf_child"] == [brute_rank(ref, v) == 1 for v in range(n)]
            builds = [lambda: IncreasingTree._standard(word),
                      lambda: IncreasingTree.parse(ref.serialize()),
                      lambda: IncreasingTree(dict(enumerate(word, start=1)), labels=range(n)),
                      lambda: IncreasingTree.from_word(ref.to_word())]
            for build in builds:
                for index_first in (False, True):
                    t = build()
                    if index_first:
                        t.children(0)
                    assert t == ref and ref == t
                    assert public_reads(t) == want


def test_map_path_builds_no_child_index():
    mt = MarkedTree.parse("size=8;parents=0,0,1,0,4,2,4;mark=4")
    t = mt.tree
    assert mt.serialize() == "size=8;parents=0,0,1,0,4,2,4;mark=4"
    assert t == EXAMPLE_TREE and hash(t) == hash(EXAMPLE_TREE)
    assert 7 in t and 8 not in t and t.parent_of(7) == 4 and t.leaves() == {3, 5, 6, 7}
    assert t._children is None
    assert t.children(4) == (5, 7) and t._children is not None


def test_marked_tree_serialize_parse():
    mt = MarkedTree(IncreasingTree({1: 0}), 0)
    assert mt.serialize() == "size=2;parents=0;mark=0"
    assert MarkedTree.parse("size=2;parents=0;mark=0") == mt
    with pytest.raises(FormatError):
        MarkedTree.parse("size=2;parents=0")


def test_parse_tree_text_dispatches():
    assert isinstance(parse_tree_text("size=2;parents=0"), IncreasingTree)
    assert isinstance(parse_tree_text("size=2;parents=0;mark=0"), MarkedTree)


def test_marked_tree_requires_rank_one():
    chain3 = IncreasingTree({1: 0, 2: 1})
    MarkedTree(chain3, 1)  # fine
    with pytest.raises(DomainError, match="^marked vertex 2 has rank 0, need rank 1$"):
        MarkedTree(chain3, 2)  # a leaf
    with pytest.raises(DomainError, match="^marked vertex 0 has rank 2, need rank 1$"):
        MarkedTree(chain3, 0)
    with pytest.raises(DomainError, match="^unknown vertex label: 9$"):
        MarkedTree(chain3, 9)


# -- words as text --

def test_format_word():
    assert format_word(EXAMPLE_WORD) == "4 7 5 2 6 1 3"
    assert format_word(()) == ""


def test_parse_word_forms():
    assert parse_word("4 7 5 2 6 1 3") == EXAMPLE_WORD
    assert parse_word("4752613") == EXAMPLE_WORD
    assert parse_word("10 2 1 3 4 5 6 7 8 9") == (10, 2, 1, 3, 4, 5, 6, 7, 8, 9)
    assert parse_word("") == ()
    with pytest.raises(FormatError):
        parse_word("4 x 1")
