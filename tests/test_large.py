"""Round trips far past the sizes the exhaustive checks reach, from both
sides: derangements and seeded uniform random marked trees.

``forward`` and ``inverse`` run as loops, so their depth is not bounded by
the interpreter's recursion limit; each input here has one level per label
or per pair of labels.  Two wide marked trees, the broom and the comb, get
a work bound that does not depend on a clock.  Case tags past the
exhaustive sizes are checked against conditions written from the
definitions.
"""

import builtins
import random

import pytest

from derangetree import (CaseTag, CycleDecomposition, IncreasingTree, MarkedTree, bijection,
                         classify_tree, forward, forward_with_case, inverse)
from derangetree.cli import run
from util import (assert_draft_matches, assert_marked_matches_validated,
                  independent_case_conditions, random_marked_tree)

N = 5000


def random_derangement(rng, n):
    while True:
        word = list(range(n))
        rng.shuffle(word)
        if all(word[i] != i for i in range(n)):
            return CycleDecomposition.from_word(word)


def chain(n):
    return MarkedTree.parse(f"size={n};parents={','.join(map(str, range(n - 1)))};mark={n - 2}")


SHAPES = {
    "single cycle": [tuple(range(N))],
    "nested pairs": [(i, N - 1 - i) for i in range(N // 2)],
    "adjacent pairs": [(i, i + 1) for i in range(0, N, 2)],
}


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_round_trip_deep_shapes(name):
    p = CycleDecomposition(SHAPES[name])
    mt = forward(p)
    assert mt.size == N
    assert inverse(mt) == p


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_deep_images_match_validated_rebuild(name):
    assert_marked_matches_validated(forward(CycleDecomposition(SHAPES[name])))


def test_nested_pairs_restructure_at_every_level():
    # peeling (0, m-1) off the pairs (i, m-1-i) leaves the same shape on
    # 1..m-2, so the level of size m in the size-N input fires the case of
    # the size-m input; checked for the small sizes and for N itself
    for m in [*range(4, 64, 2), N]:
        p = CycleDecomposition([(i, m - 1 - i) for i in range(m // 2)])
        assert forward_with_case(p)[1] is CaseTag.C2A


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_round_trip_deep_random(seed):
    p = random_derangement(random.Random(seed), N)
    assert inverse(forward(p)) == p


RANDOM_TREES = [(n, seed) for n in (100, 1000, 10000) for seed in (1, 2, 3)]


def random_marked_trees(n, seed):
    rng = random.Random(seed)
    return [random_marked_tree(rng, n) for _ in range(3)]


@pytest.mark.parametrize("n, seed", RANDOM_TREES)
def test_round_trip_random_marked_trees(n, seed):
    for mt in random_marked_trees(n, seed):
        image = forward(inverse(mt))
        assert image == mt
        assert_marked_matches_validated(image)


def test_random_marked_trees_undo_c2a_with_several_movers(monkeypatch):
    # the samples above run the C2a undo, some calls with three or more
    # children of the inserted label to send back
    movers = []
    undo = bijection._undo_restructure

    def counted(tree, m):
        movers.append(len(tree.children[m]))
        return undo(tree, m)

    monkeypatch.setattr(bijection, "_undo_restructure", counted)
    for n, seed in RANDOM_TREES:
        for mt in random_marked_trees(n, seed):
            inverse(mt)
    assert len(movers) >= 20 and max(movers) >= 3


def fired_case(mt):
    """The one case whose condition in ``independent_case_conditions`` holds."""
    (tag,) = [tag for tag, holds in independent_case_conditions(mt).items() if holds]
    return tag


TAG_DRAWS = {10: 200, 100: 20, 1000: 3}


@pytest.mark.parametrize("n", sorted(TAG_DRAWS))
def test_case_tags_match_independent_conditions(n):
    # the exhaustive checks pin tags up to n = 8 only; past that, both
    # classifiers are held to the one condition that holds
    rng = random.Random(n)
    seen = set()
    for _ in range(TAG_DRAWS[n]):
        mt = random_marked_tree(rng, n)
        for image, tag in [forward_with_case(random_derangement(rng, n)), (mt, classify_tree(mt))]:
            assert tag is fired_case(image)
            seen.add(tag)
    if n == 10:
        assert seen == {CaseTag.C1A, CaseTag.C1B, CaseTag.C1C_I, CaseTag.C1C_II,
                        CaseTag.C2A, CaseTag.C2B}


def broom(n):
    """The mark 0 over h = n // 3 children 1..h, each with one leaf child
    h+i, and over the leaves 2h+1..n-1."""
    h = n // 3
    parent = dict.fromkeys(range(1, n), 0)
    parent.update({h + i: i for i in range(1, h + 1)})
    return MarkedTree(IncreasingTree(parent, labels=range(n)), 0)


def comb(n):
    """For even n = 2h+2, the mark 0 over children 1..h+1, where each i in
    1..h has one leaf child h+1+i, so h+1 is the mark's one leaf child."""
    h = n // 2 - 1
    parent = dict.fromkeys(range(1, n), 0)
    parent.update({h + 1 + i: i for i in range(1, h + 1)})
    return MarkedTree(IncreasingTree(parent, labels=range(n)), 0)


@pytest.mark.parametrize("shape", [broom, comb])
def test_round_trip_wide_shapes(shape):
    mt = shape(24000)
    p = inverse(mt)
    assert p.size == 24000 and p.is_derangement
    image = forward(p)
    assert image == mt
    assert_marked_matches_validated(image)
    assert inverse(image) == p


@pytest.mark.parametrize("shape", [broom, comb])
def test_draft_of_wide_shapes(shape):
    t = shape(6000).tree
    assert_draft_matches(bijection._Draft.of(t), t)


SCANS = ("all", "any", "max", "min", "sorted", "sum")


def items_scanned(call):
    """How many items the builtins in ``SCANS`` take from their one
    argument while ``call()`` runs, through counting wrappers put into
    ``bijection``'s globals.  Every scan of a child set goes through one."""
    count = 0

    def counting(scan):
        def wrapper(items, *rest, **kwargs):
            def counted():
                nonlocal count
                for x in items:
                    count += 1
                    yield x
            return scan(items, *rest, **kwargs) if rest else scan(counted(), **kwargs)
        return wrapper

    with pytest.MonkeyPatch.context() as patch:
        for name in SCANS:
            patch.setattr(bijection, name, counting(getattr(builtins, name)), raising=False)
        call()
    return count


@pytest.mark.parametrize("shape", [broom, comb])
def test_wide_shapes_scan_linearly_many_labels(shape):
    # a scan of the mark's children once per level reads about n**2 / 9
    # labels on the broom's inverse and n**2 / 8 on the comb's forward
    n = 6000
    mt = shape(n)
    p = inverse(mt)
    assert items_scanned(lambda: inverse(mt)) <= 2 * n
    assert items_scanned(lambda: forward(p)) <= 2 * n


def test_round_trip_deep_chain():
    mt = chain(N)
    p = inverse(mt)
    assert p.size == N and p.is_derangement
    assert forward(p) == mt


def test_cli_map_and_unmap_deep(capsys):
    n = 1100
    cycle = "(" + " ".join(map(str, range(n))) + ")"
    assert run(["map", "--size", str(n), cycle]) == 0
    tree_text = capsys.readouterr().out.strip()
    assert run(["unmap", tree_text]) == 0
    assert capsys.readouterr().out.strip() == cycle
    assert run(["unmap", chain(n).serialize()]) == 0
    assert forward(CycleDecomposition.parse(capsys.readouterr().out.strip())) == chain(n)
