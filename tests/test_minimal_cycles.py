"""The refinement-minimal cycle partitions of Aut(G) against the full group.

D, theta and phi_table search against AutGroup.minimal_cycles; phi_brute
and these tests use every non-identity element.  Both must give the same
partition counts A_j, the same D and the same theta.
"""

from __future__ import annotations

import random

import pytest

from symbreak import kernels
from symbreak.graphs import (asymmetric6, complete, complete_bipartite,
                             cycle, petersen)
from symbreak.indices import (distinguishing_number, distinguishing_threshold,
                              phi_brute, phi_table)
from symbreak.perms import (AutGroup, automorphism_group, cycle_decomposition,
                            enumerate_automorphisms, identity)

from conftest import vsum

BUDGET = 10**7


def _labels(image) -> tuple[int, ...]:
    """Cycle partition as the smallest vertex of each vertex's cycle."""
    labels = [-1] * len(image)
    for v in range(len(image)):
        w = v
        while labels[w] < 0:
            labels[w] = v
            w = image[w]
    return tuple(labels)


def _refines(fine, coarse) -> bool:
    """Does the cycle partition of image `fine` refine that of `coarse`?"""
    labels = _labels(coarse)
    return all(labels[fine[v]] == labels[v] for v in range(len(fine)))


def _elementwise_theta(group: AutGroup) -> int:
    return 1 + max((cycle_decomposition(p).cycle_count
                    for p in group.elements if not p.is_identity()),
                   default=0)


def _elementwise_d(group: AutGroup) -> int:
    if group.is_trivial():
        return 1
    nonid = group.nonidentity_images()
    return next(k for k in range(2, group.n + 1)
                if kernels.exists_distinguishing_partition(group.n, nonid, k,
                                                           BUDGET))


def _assert_same_answers(g, k_max: int) -> None:
    group = enumerate_automorphisms(g)
    kept = group.minimal_cycles.images
    assert (kernels.count_distinguishing_partitions(g.n, kept, k_max, BUDGET)
            == kernels.count_distinguishing_partitions(
                g.n, group.nonidentity_images(), k_max, BUDGET))
    assert distinguishing_number(g, group) == _elementwise_d(group)
    assert distinguishing_threshold(g, group) == _elementwise_theta(group)


def test_corpus_counts_d_and_theta_match_full_group(connected7):
    assert len(connected7) == 996
    for g in connected7:
        _assert_same_answers(g, min(g.n, 4))


SYMMETRIC = {
    "K4x3": lambda: vsum(complete(4), 3),
    "K3x4": lambda: vsum(complete(3), 4),
    "K5x2": lambda: vsum(complete(5), 2),
    "K4,4": lambda: complete_bipartite(4, 4),
    "K7": lambda: complete(7),
    "petersen": petersen,
    "C12": lambda: cycle(12),
}


@pytest.mark.parametrize("name", sorted(SYMMETRIC))
def test_symmetric_graphs_match_full_group_under_relabelling(name):
    g = SYMMETRIC[name]()
    rng = random.Random(name)
    for _ in range(2):
        image = list(range(g.n))
        rng.shuffle(image)
        h = g.relabel(image)
        _assert_same_answers(h, distinguishing_number(h))


def test_only_phi_brute_passes_every_element(monkeypatch):
    seen = []
    count = kernels.count_distinguishing_partitions

    def spy(n, elements, max_blocks, budget):
        seen.append(len(elements))
        return count(n, elements, max_blocks, budget)

    monkeypatch.setattr(kernels, "count_distinguishing_partitions", spy)
    group = enumerate_automorphisms(petersen())
    phi_brute(petersen(), 3, group)
    phi_table(petersen(), 3, group)
    assert seen == [group.order - 1, len(group.minimal_cycles.images)]
    assert seen == [119, 25]


class TestReduction:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_complete_graph_keeps_the_transpositions(self, n):
        kept = automorphism_group(complete(n)).minimal_cycles
        assert len(kept.images) == n * (n - 1) // 2
        for image in kept.images:
            assert sum(image[v] != v for v in range(n)) == 2
        assert kept.max_cycle_count == n - 1

    @pytest.mark.parametrize("make", [
        lambda: AutGroup(3, (identity(3),)),
        lambda: automorphism_group(asymmetric6()),
    ], ids=["identity", "asymmetric6"])
    def test_trivial_group_keeps_nothing(self, make):
        group = make()
        assert group.is_trivial()
        assert group.minimal_cycles == ((), 0)

    def test_no_kept_partition_refines_another(self, connected7):
        graphs = list(connected7) + [f() for f in SYMMETRIC.values()]
        for g in graphs:
            kept = automorphism_group(g).minimal_cycles.images
            assert len({_labels(p) for p in kept}) == len(kept)
            for p in kept:
                assert not any(_refines(q, p) for q in kept if q != p)

    def test_every_element_is_refined_by_a_kept_partition(self):
        for g in (petersen(), cycle(12), vsum(complete(3), 4)):
            group = automorphism_group(g)
            kept = group.minimal_cycles.images
            for p in group.elements:
                if not p.is_identity():
                    assert any(_refines(q, p.image) for q in kept)

    def test_max_cycle_count_matches_elementwise(self, connected7):
        for g in connected7:
            group = automorphism_group(g)
            assert (group.minimal_cycles.max_cycle_count + 1
                    == _elementwise_theta(group))

    def test_computed_once_per_group(self):
        group = automorphism_group(petersen())
        assert group.minimal_cycles is group.minimal_cycles
