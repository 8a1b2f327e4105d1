import copy
import hashlib
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from derangetree import (
    CaseTag,
    CycleDecomposition,
    DomainError,
    IncreasingTree,
    MarkedTree,
    Relabeling,
    bijection,
    case2a_restructure,
    classify_derangement,
    classify_tree,
    forward,
    forward_with_case,
    gen_derangements,
    gen_increasing_trees,
    gen_marked_trees,
    inverse,
    parse_cycles,
)
from util import (_trees_by_parent_choice, assert_draft_matches, assert_marked_matches_validated,
                  independent_case_conditions, lift_tree, naive_leaves)

# worked mappings, copied from the construction's defining figures
GOLDEN = [
    ("(0 1)", "size=2;parents=0;mark=0"),
    ("(0 1 2)", "size=3;parents=0,1;mark=1"),
    ("(0 2 1)", "size=3;parents=0,0;mark=0"),
    ("(0 3)(1 4 2)", "size=5;parents=0,1,0,1;mark=0"),
    ("(0 5 3)(1 4 2)", "size=6;parents=0,1,0,1,0;mark=0"),
    ("(0 2 3)(1 4)", "size=5;parents=0,1,2,1;mark=1"),
    ("(0 5 2 3)(1 4)", "size=6;parents=0,1,2,1,0;mark=1"),
    ("(0 3 1 4 2)", "size=5;parents=0,1,0,1;mark=1"),
    ("(0 3 1 4 2 5)", "size=6;parents=0,1,0,1,2;mark=1"),
    ("(0 1 3 2 4)", "size=5;parents=0,1,1,2;mark=1"),
    ("(0 1 3 5 2 4)", "size=6;parents=0,1,1,2,3;mark=3"),
    ("(0 9)(1 3 5 2 6 8)(4 7)", "size=10;parents=0,0,1,0,3,2,4,6,0;mark=0"),
    ("(0 2 5 1 6 8)(3 7)(4 9)", "size=10;parents=0,0,1,3,2,1,3,6,4;mark=4"),
]

# sha256 over f"{p.serialize()} {mt.serialize()} {tag.value}\n" for every
# derangement p of size 2..8 in generator order, (mt, tag) = forward_with_case(p).
# Any other bijection would pass verify_bijection too; this fixes the exact map.
GOLDEN_MAP_SHA256 = "f5c0efec987f571954d368b370a1cd90628088d9e72bbbf10e0bcfeb98c919f7"

CLASSIFY_EXAMPLES = [
    ("(0 5 3)(1 4 2)", CaseTag.C1A),
    ("(0 5 2 3)(1 4)", CaseTag.C1B),
    ("(0 3 1 4 2 5)", CaseTag.C1C_I),
    ("(0 1 3 5 2 4)", CaseTag.C1C_II),
    ("(0 9)(1 3 5 2 6 8)(4 7)", CaseTag.C2A),
    ("(0 2 5 1 6 8)(3 7)(4 9)", CaseTag.C2B),
]


@pytest.mark.parametrize("cycles,expected", GOLDEN)
def test_forward_golden(cycles, expected):
    assert forward(parse_cycles(cycles)).serialize() == expected


@pytest.mark.parametrize("cycles,expected", GOLDEN)
def test_inverse_golden(cycles, expected):
    assert inverse(MarkedTree.parse(expected)) == parse_cycles(cycles)


def test_golden_map_digest():
    digest = hashlib.sha256()
    for n in range(2, 9):
        for p in gen_derangements(n):
            mt, tag = forward_with_case(p)
            digest.update(f"{p.serialize()} {mt.serialize()} {tag.value}\n".encode())
    assert digest.hexdigest() == GOLDEN_MAP_SHA256


@pytest.mark.parametrize("cycles,tag", CLASSIFY_EXAMPLES)
def test_classify_derangement_examples(cycles, tag):
    assert classify_derangement(parse_cycles(cycles)) == tag


@pytest.mark.parametrize("tag", list(CaseTag))
def test_case_tags_hash_by_identity_soundly(tag):
    # CaseTag hashes by identity, so every way back to a member must give
    # the member itself, and find its entry in a dict keyed by members
    entries = {t: t.value for t in CaseTag}
    for same in (CaseTag(tag.value), pickle.loads(pickle.dumps(tag)), copy.deepcopy(tag)):
        assert same is tag
        assert entries[same] == tag.value


def test_classify_derangement_bases():
    assert classify_derangement(parse_cycles("(0 1)")) == CaseTag.BASE2
    assert classify_derangement(parse_cycles("(0 1 2)")) == CaseTag.BASE3
    assert classify_derangement(parse_cycles("(0 2 1)")) == CaseTag.BASE3


def test_forward_with_case_is_consistent():
    p = parse_cycles("(0 5 3)(1 4 2)")
    mt, tag = forward_with_case(p)
    assert mt == forward(p)
    assert tag == classify_derangement(p)


def test_forward_rejects_bad_input():
    with pytest.raises(DomainError, match="fixed point"):
        forward(parse_cycles("(0)(1 2)"))
    with pytest.raises(DomainError, match="ground set"):
        forward(parse_cycles("(1 2)"))
    with pytest.raises(DomainError):
        forward(CycleDecomposition([]))


# -- classify_tree --

def test_classify_tree_examples():
    assert classify_tree(forward(parse_cycles("(0 5 3)(1 4 2)"))) == CaseTag.C1A
    assert classify_tree(forward(parse_cycles("(0 1 3 5 2 4)"))) == CaseTag.C1C_II
    assert classify_tree(forward(parse_cycles("(0 2 5 1 6 8)(3 7)(4 9)"))) == CaseTag.C2B


def test_classify_tree_bases():
    assert classify_tree(MarkedTree.parse("size=2;parents=0;mark=0")) == CaseTag.BASE2
    assert classify_tree(MarkedTree.parse("size=3;parents=0,1;mark=1")) == CaseTag.BASE3


def test_classify_tree_rejects_generalized_labels():
    mt = MarkedTree(IncreasingTree({2: 1, 3: 1}, labels=[1, 2, 3]), 1)
    with pytest.raises(DomainError):
        classify_tree(mt)


# -- case2a_restructure --

def test_restructure_worked_example():
    t = IncreasingTree({3: 1, 5: 3, 2: 1, 4: 2, 7: 4, 6: 2, 8: 6})
    out = case2a_restructure(t, 0, 4)
    assert out == IncreasingTree({1: 0, 3: 1, 5: 3, 2: 0, 6: 2, 8: 6, 4: 0, 7: 4})


def test_restructure_trivial_descent():
    t = IncreasingTree({2: 1}, labels=[1, 2])
    assert case2a_restructure(t, 0, 1) == IncreasingTree({1: 0, 2: 1})


def test_restructure_contract_violation():
    s = IncreasingTree({2: 1}, labels=[1, 2])
    t = IncreasingTree({2: 1, 3: 2}, labels=[1, 2, 3])
    for tree, j, k, message in [
        (s, 3, 1, "mark 1 must exceed the inserted label 3"),
        (s, 1, 1, "mark 1 must exceed the inserted label 1"),
        (t, 2, 3, "label 2 already in tree"),
    ]:
        with pytest.raises(DomainError) as exc:
            case2a_restructure(tree, j, k)
        assert str(exc.value) == message


def test_restructure_needs_rank_one_mark():
    t = IncreasingTree({2: 1, 3: 2}, labels=[1, 2, 3])
    for k, message in [
        (1, "vertex 1 has rank 2, need rank 1"),
        (3, "vertex 3 has rank 0, need rank 1"),
        (9, "unknown vertex label: 9"),
    ]:
        with pytest.raises(DomainError) as exc:
            case2a_restructure(t, 0, k)
        assert str(exc.value) == message


def test_restructure_validates_the_callers_label():
    # the result goes through the validating constructor, which names j
    with pytest.raises(DomainError) as exc:
        case2a_restructure(IncreasingTree({1: 0, 2: 1, 3: 1}), -1, 1)
    assert str(exc.value) == "negative label: -1"
    with pytest.raises(TypeError) as exc:
        case2a_restructure(IncreasingTree({1: 0, 2: 1, 3: 2}), 1.5, 2)
    assert str(exc.value) == "'float' object cannot be interpreted as an integer"


def test_restructure_on_sparse_labels():
    # the work is indexed by position among the labels and j, so a label of
    # 10**12 costs no more than any other
    big = 10**12
    t = IncreasingTree({5: 1, big: 5, big + 1: 1}, labels=[1, 5, big, big + 1])
    assert case2a_restructure(t, 3, 5) == IncreasingTree({3: 1, 5: 3, big: 5, big + 1: 1})
    assert case2a_restructure(t, 0, 5) == IncreasingTree({1: 0, 5: 0, big: 5, big + 1: 1})
    chain = IncreasingTree({big: 7, big + 2: big, big + 3: big + 2, big + 4: big + 2,
                            big + 5: big + 3})
    assert case2a_restructure(chain, big + 1, big + 3) == IncreasingTree(
        {big: 7, big + 1: big, big + 2: big + 1, big + 3: big + 1, big + 4: big + 2,
         big + 5: big + 3})


def _first_rank1_after(tree, start):
    walk = tree.depth_search_walk(start)
    return next(x for x in walk[1:] if tree.rank(x) == 1)


def test_restructure_walk_property_exhaustive():
    # every tree of size <= 5 shifted onto {0..m} minus j, for every legal j, k
    for m in range(2, 6):
        for t in gen_increasing_trees(m):
            for j in range(m + 1):
                lifted = lift_tree(t, j)
                for k in lifted.labels:
                    if lifted.rank(k) != 1 or k < j:
                        continue
                    out = case2a_restructure(lifted, j, k)
                    assert sorted(out.labels) == sorted(lifted.labels + (j,))
                    assert _first_rank1_after(out, j) == k


# -- inverse --

@pytest.mark.parametrize("n", range(1, 8))
def test_draft_matches_its_tree(n):
    # the draft that inverse and classify_tree build, for every tree of size n
    for _, t in _trees_by_parent_choice(n):
        assert_draft_matches(bijection._Draft.of(t), t)


def draft_state(tree):
    """The parent, a copy of the child set and the leaf count of each label
    in the draft."""
    return {v: (tree.parent[v], set(c), tree.leaves[v])
            for v, c in enumerate(tree.children) if c is not None}


def test_peel_undoes_each_grown_level():
    # the inductive step, on the shipped loops: every level that _grow hangs,
    # _peel takes off again, giving back the level, the mark before it and
    # the draft before it
    derangements = 0
    for n in range(3, 8):
        for p in gen_derangements(n):
            levels = bijection._levels(p)
            b, a, _ = levels.pop()
            tree, mark = bijection._Draft(n, a, [(b, a)]), a
            for level in reversed(levels):
                before = draft_state(tree)
                grown = bijection._grow(tree, mark, [level])
                peeled, splices = copy.deepcopy(tree), []
                assert bijection._peel(peeled, grown, [level[0]], splices) == mark
                assert splices == [level]
                assert draft_state(peeled) == before
                mark = grown
            word = ",".join(map(str, tree.parent[1:]))
            assert f"size={n};parents={word};mark={mark}" == forward(p).serialize()
            derangements += 1
    assert derangements == 2174


def test_inverse_base():
    assert inverse(MarkedTree.parse("size=2;parents=0;mark=0")) == parse_cycles("(0 1)")


def test_inverse_requires_standard_labels():
    mt = MarkedTree(IncreasingTree({2: 1, 3: 1}, labels=[1, 2, 3]), 1)
    with pytest.raises(DomainError):
        inverse(mt)


def test_round_trip_exhaustive_small():
    for n in range(2, 7):
        for p in gen_derangements(n):
            assert inverse(forward(p)) == p
        for mt in gen_marked_trees(n):
            assert forward(inverse(mt)) == mt


def test_case_coherence_exhaustive_small():
    for n in range(2, 7):
        for p in gen_derangements(n):
            mt, tag = forward_with_case(p)
            assert classify_tree(mt) == tag


def test_case_partition_exhaustive_small():
    for n in range(4, 7):
        for mt in gen_marked_trees(n):
            conditions = independent_case_conditions(mt)
            fired = [tag for tag, hit in conditions.items() if hit]
            assert len(fired) == 1, f"{mt.serialize()} fired {fired}"
            assert fired[0] == classify_tree(mt)


def test_c2a_children_property():
    for n in range(4, 7):
        for p in gen_derangements(n):
            mt, tag = forward_with_case(p)
            if tag != CaseTag.C2A:
                continue
            t, m = mt.tree, mt.mark
            top = n - 1
            siblings = [c for c in t.children(m) if c != top]
            assert siblings, "top must not be an only child"
            assert all(t.rank(c) > 0 for c in siblings), "no leaf siblings"


def test_forward_output_always_well_formed():
    # forward builds its image without MarkedTree's checks, so the rank-1
    # mark is checked here, also against the leaves read off the parents
    for n in range(2, 9):
        for p in gen_derangements(n):
            mt = forward(p)
            assert mt.tree.is_standard
            assert mt.tree.size == n
            assert mt.tree.has_leaf_child(mt.mark)
            assert naive_leaves(mt.tree) & set(mt.tree.children(mt.mark))


def test_forward_images_match_validated_rebuild():
    # images are built from their parent word and mark without the
    # constructors' checks
    for n in range(2, 9):
        for p in gen_derangements(n):
            assert_marked_matches_validated(forward(p))


@st.composite
def derangements(draw, max_size=8):
    n = draw(st.integers(min_value=2, max_value=max_size))
    word = draw(st.permutations(list(range(n))).filter(
        lambda w: all(w[i] != i for i in range(n))))
    return CycleDecomposition.from_word(word)


@settings(deadline=None)
@given(derangements())
def test_round_trip_random(p):
    mt = forward(p)
    assert inverse(mt) == p
    assert classify_tree(mt) == classify_derangement(p)


# -- relabeling --

def test_relabeling_maps_and_inverts():
    r = Relabeling([1, 3, 5, 9])
    assert [r.forward(x) for x in (1, 3, 5, 9)] == [0, 1, 2, 3]
    assert [r.backward(i) for i in range(4)] == [1, 3, 5, 9]
    for x in (1, 3, 5, 9):
        assert r.backward(r.forward(x)) == x
    with pytest.raises(DomainError):
        r.forward(2)
    with pytest.raises(DomainError):
        r.backward(4)
