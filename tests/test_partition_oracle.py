"""The partition count and the existence search behind D against an
oracle that shares none of their code.

The oracle lists every set partition of {0..n-1} with its own generator
and counts, per block count j, those that no given element preserves.  An
element preserves a partition iff each of its cycles lies inside one block,
that is iff every vertex and its image share a block.  There is no
canonical walk, no live set, no extension table and no memo, so agreement
checks the kernels' walk, the count's closures and its memo keys at once.
"""

from __future__ import annotations

import random
from functools import lru_cache
from operator import itemgetter

import pytest

from symbreak import kernels
from symbreak.graphs import complete, complete_bipartite, cycle, petersen
from symbreak.perms import enumerate_automorphisms

from conftest import vsum

BUDGET = 10**7
# corpus groups whose every element the oracle also runs against
FULL_GROUP_MAX = 240


@lru_cache(maxsize=None)
def _partitions(n: int) -> tuple[tuple[int, ...], ...]:
    """Every set partition as a block label per vertex, labels in order of
    first appearance (restricted growth strings)."""
    rows = [()]
    for _ in range(n):
        rows = [row + (c,) for row in rows
                for c in range(max(row, default=-1) + 2)]
    return tuple(rows)


def _oracle(n: int, elements, k: int) -> list[int]:
    counts = [0] * (k + 1)
    # itemgetter(*e)(labels)[v] is the label of e(v); n >= 2 when elements
    # exist, so the getter returns a tuple
    moves = [itemgetter(*e) for e in elements]
    for labels in _partitions(n):
        j = max(labels, default=-1) + 1
        if j <= k and not any(move(labels) == labels for move in moves):
            counts[j] += 1
    return counts


def _assert_matches_oracle(n: int, elements, k: int) -> None:
    """The count up to k blocks, and the existence search for every
    palette 1..k: a partition into at most j blocks exists iff the oracle
    counts one with 1..j blocks, that is any(_oracle(n, elements, j)[1:])."""
    counts = _oracle(n, elements, k)
    assert (kernels.count_distinguishing_partitions(n, elements, k, BUDGET)
            == counts)
    assert ([kernels.exists_distinguishing_partition(n, elements, j, BUDGET)
             for j in range(1, k + 1)]
            == [any(counts[1:j + 1]) for j in range(1, k + 1)])


def test_generator_lists_bell_many_partitions():
    assert [len(_partitions(n)) for n in range(8)] == [
        1, 1, 2, 5, 15, 52, 203, 877]


def test_corpus_matches_oracle(connected7):
    assert len(connected7) == 996
    full = 0
    for g in connected7:
        group = enumerate_automorphisms(g)
        _assert_matches_oracle(g.n, group.minimal_cycles, g.n)
        if 1 < group.order <= FULL_GROUP_MAX:
            _assert_matches_oracle(g.n, group.nonidentity_images(), g.n)
            full += 1
    assert full == 840


def test_corpus_element_subsets_match_oracle(connected7):
    # whole groups and their minimal cycle partitions leave little freedom
    # among the frontier's blocks once the live set is known; a few
    # elements of a group leave more, and a memo key that ignored the
    # frontier gets some of these counts wrong
    rng = random.Random(7)
    tried = 0
    for g in connected7:
        nonid = enumerate_automorphisms(g).nonidentity_images()
        if len(nonid) >= 3:
            for _ in range(3):
                subset = rng.sample(nonid, rng.randint(2, min(4, len(nonid))))
                _assert_matches_oracle(g.n, subset, g.n)
                tried += 1
    assert tried > 1000


def _relabelled(g, rng: random.Random):
    image = list(range(g.n))
    rng.shuffle(image)
    return g.relabel(image)


# the symmetric benchmark shapes with n <= 9
SMALL_SHAPES = {
    "K3x4": lambda: vsum(complete(3), 4),
    "K5x2": lambda: vsum(complete(5), 2),
    "K4,4": lambda: complete_bipartite(4, 4),
    "K8": lambda: complete(8),
}


@pytest.mark.parametrize("name", sorted(SMALL_SHAPES))
def test_symmetric_shapes_match_oracle_under_relabelling(name):
    g = SMALL_SHAPES[name]()
    rng = random.Random(name)
    for _ in range(2):
        h = _relabelled(g, rng)
        _assert_matches_oracle(
            h.n, enumerate_automorphisms(h).minimal_cycles, h.n)


# memo keys name vertices, so the same graph under other labels reaches
# other states; the counts must not move.  (shape, largest block count)
INVARIANT_SHAPES = {
    "C4x4": (lambda: vsum(cycle(4), 4), 3),
    "K3x5": (lambda: vsum(complete(3), 5), 4),
    "K4x3": (lambda: vsum(complete(4), 3), 4),
    "petersen": (petersen, 4),
    "C12": (lambda: cycle(12), 3),
}


@pytest.mark.parametrize("name", sorted(INVARIANT_SHAPES))
def test_counts_do_not_depend_on_labels(name):
    make, k = INVARIANT_SHAPES[name]
    g = make()
    rng = random.Random(name)
    counts = {
        tuple(kernels.count_distinguishing_partitions(
            h.n, enumerate_automorphisms(h).minimal_cycles, k, BUDGET))
        for h in [g] + [_relabelled(g, rng) for _ in range(2)]}
    assert len(counts) == 1
    assert sum(counts.pop()) > 0
