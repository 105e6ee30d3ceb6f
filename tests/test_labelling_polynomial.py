"""The labelling polynomial against the labelling walk's count ladder, and
its memo.

kernels.labelling_polynomial counts labellings by inclusion-exclusion over
the elements' cycle partitions; kernels.labelling_ladder counts the same
labellings by walking them, rung by rung.  The two share no code past the
elements, so the ladder is the polynomial's oracle: on the corpus through
both routes of graph_indices, on whole groups, on random sets of elements,
and on the benchmark's symmetric shapes.
"""

from __future__ import annotations

import random

import pytest

from symbreak import kernels
from symbreak.errors import BudgetExceededError
from symbreak.indices import twin_quotient
from symbreak.perms import automorphism_group

from conftest import SYMMETRIC_SHAPES

BUDGET = 10**7


def _routes(g):
    """(walked group, classes, sizes) of the per-index route, the group
    itself with one class of size 1, and of graph_indices' twin quotient,
    one class per weight."""
    group = automorphism_group(g)
    yield group, (0,) * g.n, (1,)
    twins = twin_quotient(g)
    kinds = sorted(set(twins.weights))
    yield (twins.group(BUDGET), tuple(kinds.index(w) for w in twins.weights),
           tuple(t for _, t in kinds))


def _assert_counts_agree(n, elements, classes, sizes, K):
    terms = kernels.labelling_polynomial(n, elements, classes, BUDGET)
    assert [kernels.labellings_at(terms, kernels._palettes(k, sizes))
            for k in range(1, K + 1)] == kernels.labelling_ladder(
                n, elements, classes, sizes, K, BUDGET)


def test_corpus_counts_on_both_routes(connected7):
    assert len(connected7) == 996
    for g in connected7:
        for walked, classes, sizes in _routes(g):
            _assert_counts_agree(walked.n, walked.minimal_cycles, classes,
                                 sizes, 4)


def test_every_element_of_each_small_group(connected7):
    groups = [automorphism_group(g) for g in connected7]
    groups = [group for group in groups if 1 < group.order <= 240]
    assert len(groups) == 840
    for group in groups:
        _assert_counts_agree(group.n, group.nonidentity_images(),
                             (0,) * group.n, (1,), 4)


def test_random_sets_of_elements(connected7):
    # any set of elements, not only a group's minimal cycles: their joins
    # are orbit partitions of the subgroups they generate
    rng = random.Random(2109)
    checked = 0
    for g in connected7:
        for walked, classes, sizes in _routes(g):
            pool = walked.nonidentity_images()
            for _ in range(3 if len(pool) > 1 else 0):
                elements = rng.sample(pool, rng.randint(2, min(4, len(pool))))
                _assert_counts_agree(walked.n, sorted(elements), classes,
                                     sizes, 4)
                checked += 1
    assert checked == 3 * 514


@pytest.mark.parametrize("name", sorted(SYMMETRIC_SHAPES))
def test_symmetric_shapes_on_both_routes(name):
    g = SYMMETRIC_SHAPES[name]()
    # Kneser(7,2)'s walk at k = 3 runs past the default budget
    K = 2 if name == "kneser_7_2" else 4
    for walked, classes, sizes in _routes(g):
        _assert_counts_agree(walked.n, walked.minimal_cycles, classes, sizes,
                             K)


def test_cycle_partitions_repeat_as_one_atom(walks):
    # a 4-cycle and its inverse keep the same labellings; the identity
    # keeps every one
    rotation, inverse = (1, 2, 3, 0), (3, 0, 1, 2)
    one = kernels.labelling_polynomial(4, [rotation], (0,) * 4, BUDGET)
    assert one == (((1,), -1), ((4,), 1))
    assert kernels.labelling_polynomial(4, [rotation, inverse], (0,) * 4,
                                        BUDGET) == one
    assert kernels.labelling_polynomial(4, [(0, 1, 2, 3)], (0,) * 4,
                                        BUDGET) == ()
    assert kernels.labelling_polynomial(0, [], (), BUDGET) == (((), 1),)
    assert walks == []


# -- the memo and the budget -----------------------------------------------------

# K3's three transpositions: the first joins the one entry, (), the second
# the two entries kept then, and the third four, 7 joins in all; the last
# adds 1 + 1 at the one-block partition and -(1 + 1) - 1 + 1 below it, so
# k^3 - 3k^2 + 2k labellings remain: the injective ones
K3 = ((1, 0, 2), (0, 2, 1), (2, 1, 0))
K3_TERMS = (((1,), 2), ((2,), -3), ((3,), 1))


def test_each_join_charges_one_node():
    kernels._polynomial.cache_clear()
    assert kernels.labelling_polynomial(3, K3, (0,) * 3, 7) == K3_TERMS
    with pytest.raises(BudgetExceededError,
                       match="^coloring search exceeded budget 6$"):
        kernels.labelling_polynomial(3, K3, (0,) * 3, 6)
    assert [kernels.labellings_at(K3_TERMS, (k,)) for k in range(1, 5)] == [
        0, 0, 6, 24]


def test_memo_never_stores_a_spent_budget():
    kernels._polynomial.cache_clear()
    for _ in range(2):
        with pytest.raises(BudgetExceededError,
                           match="^coloring search exceeded budget 6$"):
            kernels.labelling_polynomial(3, K3, (0,) * 3, 6)
    assert kernels._polynomial.cache_info().currsize == 0
    terms = kernels.labelling_polynomial(3, K3, (0,) * 3, 7)
    assert kernels._polynomial.cache_info().currsize == 1
    # the budget is part of the key: a smaller one still raises
    with pytest.raises(BudgetExceededError,
                       match="^coloring search exceeded budget 6$"):
        kernels.labelling_polynomial(3, K3, (0,) * 3, 6)
    # and a list of elements hits the entry a tuple stored
    assert kernels.labelling_polynomial(3, list(K3), [0] * 3, 7) is terms
    info = kernels._polynomial.cache_info()
    assert (info.currsize, info.hits) == (1, 1)
