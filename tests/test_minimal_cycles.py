"""The refinement-minimal cycle partitions of Aut(G) against the full group.

D, theta and phi_table search against AutGroup.minimal_cycles; phi_brute
and these tests use every non-identity element.  Both must give the same
partition counts A_j, the same D and the same theta.
"""

from __future__ import annotations

import random

import pytest

from symbreak import kernels, perms, verify
from symbreak.graphs import (asymmetric6, complete, cycle, is_isomorphic,
                             kneser, petersen, star)
from symbreak.indices import (distinguishing_number, distinguishing_threshold,
                              phi_brute, phi_table)
from symbreak.perms import (AutGroup, automorphism_group, cycle_decomposition,
                            enumerate_automorphisms, identity)
from symbreak.products import corona, lexicographic, rooted_product_smooth

from conftest import SYMMETRIC_SHAPES, vsum

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
    kept = group.minimal_cycles
    assert (kernels.count_distinguishing_partitions(g.n, kept, k_max, BUDGET)
            == kernels.count_distinguishing_partitions(
                g.n, group.nonidentity_images(), k_max, BUDGET))
    assert distinguishing_number(g, group) == _elementwise_d(group)
    assert distinguishing_threshold(g, group) == _elementwise_theta(group)


def test_corpus_counts_d_and_theta_match_full_group(connected7):
    assert len(connected7) == 996
    for g in connected7:
        _assert_same_answers(g, min(g.n, 4))


SYMMETRIC = {name: SYMMETRIC_SHAPES[name]
             for name in ("K4x3", "K3x4", "K5x2", "K4,4", "K7", "petersen",
                          "C12")}


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
    # phi_brute walks every element through the count ladder; phi_table
    # expands the minimal cycles as the labelling polynomial's atoms
    walked, expanded = [], []
    ladder = kernels.labelling_ladder
    polynomial = kernels.labelling_polynomial

    def ladder_spy(n, elements, *args):
        walked.append(len(elements))
        return ladder(n, elements, *args)

    def polynomial_spy(n, elements, *args):
        expanded.append(len(elements))
        return polynomial(n, elements, *args)

    monkeypatch.setattr(kernels, "labelling_ladder", ladder_spy)
    monkeypatch.setattr(kernels, "labelling_polynomial", polynomial_spy)
    group = enumerate_automorphisms(petersen())
    phi_brute(petersen(), 3, group)
    phi_table(petersen(), 3, group)
    assert (walked, expanded) == ([group.order - 1],
                                  [len(group.minimal_cycles)])
    assert (walked, expanded) == ([119], [25])


class TestReduction:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_complete_graph_keeps_the_transpositions(self, n):
        group = automorphism_group(complete(n))
        kept = group.minimal_cycles
        assert len(kept) == n * (n - 1) // 2
        for image in kept:
            assert sum(image[v] != v for v in range(n)) == 2
        assert group.max_cycles == n - 1

    @pytest.mark.parametrize("make", [
        lambda: AutGroup(3, (0, 0, 0), 1, ()),
        lambda: automorphism_group(asymmetric6()),
    ], ids=["identity", "asymmetric6"])
    def test_trivial_group_keeps_nothing(self, make):
        group = make()
        assert group.is_trivial()
        assert group.elements == (identity(group.n),)
        assert group.minimal_cycles == ()
        assert group.max_cycles == 0

    def test_no_kept_partition_refines_another(self, connected7):
        graphs = list(connected7) + [f() for f in SYMMETRIC.values()]
        for g in graphs:
            kept = automorphism_group(g).minimal_cycles
            assert len({_labels(p) for p in kept}) == len(kept)
            for p in kept:
                assert not any(_refines(q, p) for q in kept if q != p)

    def test_every_element_is_refined_by_a_kept_partition(self):
        for g in (petersen(), cycle(12), vsum(complete(3), 4)):
            group = automorphism_group(g)
            kept = group.minimal_cycles
            for p in group.elements:
                if not p.is_identity():
                    assert any(_refines(q, p.image) for q in kept)

    def test_max_cycle_count_matches_elementwise(self, connected7):
        for g in connected7:
            group = automorphism_group(g)
            assert group.max_cycles + 1 == _elementwise_theta(group)

    def test_scan_records_max_cycles(self, connected7):
        graphs = list(connected7) + [f() for f in SYMMETRIC_SHAPES.values()]
        for g in graphs:
            scanned = enumerate_automorphisms(g)
            scanned.minimal_cycles
            assert "max_cycles" in vars(scanned)
            assert scanned.max_cycles == enumerate_automorphisms(g).max_cycles

    def test_computed_once_per_group(self):
        group = automorphism_group(petersen())
        assert group.minimal_cycles is group.minimal_cycles


def _scanned_minimal_cycles(group: AutGroup) -> tuple[tuple[int, ...], ...]:
    """The minimal cycle partitions from the sorted element list: the first
    element of each partition whose non-trivial cycles share one prime
    length, less those that another such partition strictly refines."""
    first: dict[tuple[int, ...], tuple[int, ...]] = {}
    for p in group.elements[1:]:
        lengths = {len(c) for c in cycle_decomposition(p).cycles}
        if len(lengths) == 1 and all(min(lengths) % d
                                     for d in range(2, min(lengths))):
            first.setdefault(_labels(p.image), p.image)
    return tuple(sorted(
        r for r in first.values()
        if not any(q != r and _refines(q, r) for q in first.values())))


def test_streamed_partitions_match_the_element_scan(connected7):
    for g in connected7:
        group = enumerate_automorphisms(g)
        assert group.minimal_cycles == _scanned_minimal_cycles(group)


def _relabelled_kneser_7_2(seed: int):
    g = kneser(7, 2)
    image = list(range(g.n))
    random.Random(seed).shuffle(image)
    return g.relabel(image)


def _lex_c4_k3():
    g, h = next((g, h) for g, h in verify._pairs("lex", {})
                if is_isomorphic(g, cycle(4)) and is_isomorphic(h, complete(3)))
    return lexicographic(g, h)[0]


def _corona_k3_k3():
    g, h = next((g, h) for g, h in verify._pairs("corona", {})
                if is_isomorphic(g, complete(3))
                and is_isomorphic(h, complete(3)))
    return corona(g, h)[0]


def _rooted_k3_star3():
    g, h = next((g, h) for g, hb in verify._pairs("rooted", {})
                for h in verify._rooted_copies(hb)
                if is_isomorphic(g, complete(3))
                and is_isomorphic(h.graph, star(3), pin=(h.root, 0)))
    return rooted_product_smooth(g, h)[0]


# the symmetric shapes and more: the scan's index over kept elements is
# keyed by vertex id, so relabellings fill different buckets; the products
# are instances of verify's default grids
ORACLE_SHAPES = {
    **SYMMETRIC_SHAPES,
    "kneser_7_2_seed1": lambda: _relabelled_kneser_7_2(1),
    "kneser_7_2_seed2": lambda: _relabelled_kneser_7_2(2),
    "kneser_6_2": lambda: kneser(6, 2),
    "lex_C4_K3": _lex_c4_k3,
    "corona_K3_K3": _corona_k3_k3,
    "rooted_K3_star3": _rooted_k3_star3,
}


@pytest.mark.parametrize("name", sorted(ORACLE_SHAPES))
def test_streamed_partitions_match_the_element_scan_on_symmetric_shapes(name):
    group = enumerate_automorphisms(ORACLE_SHAPES[name]())
    assert group.minimal_cycles == _scanned_minimal_cycles(group)
    assert group.max_cycles + 1 == _elementwise_theta(group)


def test_kneser_7_2_runs_few_refinement_tests(monkeypatch):
    """The scan reads labels through two getters per full refinement test,
    so counting getter calls counts the tests."""
    group = enumerate_automorphisms(kneser(7, 2))
    blocks = [list(block) for block in group._products()]
    calls = 0
    make = perms.itemgetter

    def counting(*items):
        get = make(*items)

        def spy(labels):
            nonlocal calls
            calls += 1
            return get(labels)
        return spy

    monkeypatch.setattr(perms, "itemgetter", counting)
    kept, most = perms._minimal_cycle_partitions(group.n, blocks)
    monkeypatch.undo()
    assert (kept, most) == (group.minimal_cycles, group.max_cycles)
    # a test against every kept element made about 89,000
    assert 0 < calls // 2 <= 10_000
