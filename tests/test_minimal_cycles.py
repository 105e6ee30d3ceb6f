"""The refinement-minimal cycle partitions of Aut(G) against the full group.

D, theta and phi_table search against AutGroup.minimal_cycles; phi_brute
and these tests use every non-identity element.  Both must give the same
partition counts A_j, the same D and the same theta.
"""

from __future__ import annotations

import math
import random
import time
from collections import Counter

import pytest

from symbreak import kernels, perms, verify
from symbreak.graphs import (asymmetric6, complete, cycle, is_isomorphic,
                             kneser, petersen, star)
from symbreak.indices import (distinguishing_number, distinguishing_threshold,
                              phi_brute, phi_table)
from symbreak.perms import (AutGroup, automorphism_group,
                            enumerate_automorphisms, stabilizer)
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
    return 1 + max((len(set(_labels(e))) for e in group.nonidentity_images()),
                   default=0)


def _fresh(group: AutGroup) -> AutGroup:
    """The group rebuilt from its chain, so max_cycles comes from the
    chain's levels and not from a scan an earlier reader ran."""
    return AutGroup(group.n, group.adj, group.order, group.chain,
                    group.colors)


def _with_stabilizers(group: AutGroup) -> list[AutGroup]:
    return [group] + [stabilizer(group, v) for v in range(group.n)]


def _top_level_max(group: AutGroup) -> bool:
    """Does only the top level of a chain of several hold the maximum?"""
    if len(group.chain) < 2:
        return False
    below = AutGroup(group.n, group.adj, group.order // len(group.chain[0]),
                     group.chain[1:])
    return below.max_cycles < _fresh(group).max_cycles


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
        assert group.elements == (tuple(range(group.n)),)
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
            for e in group.nonidentity_images():
                assert any(_refines(q, e) for q in kept)

    def test_max_cycle_count_matches_elementwise(self, connected7):
        groups = [h for g in connected7
                  for h in _with_stabilizers(enumerate_automorphisms(g))]
        for group in groups:
            assert _fresh(group).max_cycles + 1 == _elementwise_theta(group)
        # 69 of them: a route that skipped the top level would miss these
        assert any(map(_top_level_max, groups))

    def test_scan_leaves_max_cycles_to_the_levels(self, connected7):
        # the minimal-cycle scan computes nothing else; theta reads the
        # chain's levels whether or not the scan ran first
        graphs = list(connected7) + [f() for f in SYMMETRIC_SHAPES.values()]
        for g in graphs:
            scanned = enumerate_automorphisms(g)
            scanned.minimal_cycles
            assert "max_cycles" not in vars(scanned)
            assert scanned.max_cycles + 1 == _elementwise_theta(scanned)

    def test_computed_once_per_group(self):
        group = automorphism_group(petersen())
        assert group.minimal_cycles is group.minimal_cycles


def _scanned_minimal_cycles(group: AutGroup) -> tuple[tuple[int, ...], ...]:
    """The minimal cycle partitions from the sorted element list: the first
    element of each partition whose non-trivial cycles share one prime
    length, less those that another such partition strictly refines."""
    first: dict[tuple[int, ...], tuple[int, ...]] = {}
    for e in group.nonidentity_images():
        labels = _labels(e)
        lengths = set(Counter(labels).values()) - {1}
        if len(lengths) == 1 and all(min(lengths) % d
                                     for d in range(2, min(lengths))):
            first.setdefault(labels, e)
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
    for h in _with_stabilizers(group):
        assert _fresh(h).max_cycles + 1 == _elementwise_theta(h)


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
    kept = perms._minimal_cycle_partitions(group.n, blocks)
    monkeypatch.undo()
    assert kept == group.minimal_cycles
    # a test against every kept element made about 89,000
    assert 0 < calls // 2 <= 10_000


def _counting(monkeypatch) -> list[int]:
    """Count the elements that perms._max_cycles takes from its input."""
    read = [0]
    scan = perms._max_cycles

    def spy(n, elements, best, stop):
        def counted():
            for e in elements:
                read[0] += 1
                yield e
        return scan(n, counted(), best, stop)

    monkeypatch.setattr(perms, "_max_cycles", spy)
    return read


def test_kneser_10_2_max_cycles_reads_few_elements(monkeypatch):
    group = enumerate_automorphisms(kneser(10, 2), math.inf)
    assert group.order == math.factorial(10)
    read = _counting(monkeypatch)
    start = time.perf_counter()
    assert group.max_cycles == 37
    assert time.perf_counter() - start < 1
    # the levels below the two largest transversals, 12 * 5 * 4 * 3 * 2 * 2
    # products less the identity, of the 3,628,800 a stream reads
    assert 0 < read[0] <= 2879


def _klein_times_cycle(m: int) -> AutGroup:
    """A permutation group given by its chain (adj is not read): the Klein
    four-group regular on 0..3, whose two elements other than (0 2)(1 3)
    also swap 4 and 5, times the rotations of the m points 6..m+5.

    The level below reaches its bound, n - m // 2, at the rotation by
    m // 2 (m even).  The top level's bound is n - 2, which only (0 2)(1 3)
    reaches.  For 3m > _STREAM_BLOCK the top level is read in three
    blocks, t * C_m for each transversal element t in turn; the first,
    through (0 1)(2 3)(4 5), reaches n - 3, and the second starts at
    (0 2)(1 3) itself.
    """
    n = m + 6
    ident = tuple(range(n))

    def on_klein(*image):
        return image + ident[6:]

    top = (ident, on_klein(1, 0, 3, 2, 5, 4), on_klein(2, 3, 0, 1, 4, 5),
           on_klein(3, 2, 1, 0, 5, 4))
    rotations = tuple(ident[:6] + tuple(6 + (v + j) % m for v in range(m))
                      for j in range(m))
    return AutGroup(n, (0,) * n, 4 * m, (top, rotations))


def test_max_cycles_stops_a_level_only_at_its_bound(monkeypatch):
    m = 86
    assert 3 * m > perms._STREAM_BLOCK
    group = _klein_times_cycle(m)
    assert _elementwise_theta(group) == m + 5
    read = _counting(monkeypatch)
    assert group.max_cycles == m + 4
    # the rotations by 1..m/2, the block of (0 1)(2 3)(4 5), and the
    # first element of the block of (0 2)(1 3), where the top level stops
    assert read[0] == m // 2 + m + 1
