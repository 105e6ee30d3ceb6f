"""Automorphism groups, their elements as image tuples, and is_automorphism."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symbreak import kernels, perms
from symbreak.errors import BudgetExceededError
from symbreak.graphs import (asymmetric6, build_graph, complete,
                             complete_bipartite, cycle, empty_graph, path,
                             petersen, star)
from symbreak.perms import (automorphism_group, enumerate_automorphisms,
                            is_automorphism, orbits, stabilizer)

from conftest import SYMMETRIC_SHAPES, random_graph


def _compose(p, q):
    """p after q, written out here rather than taken from the chain."""
    return tuple(p[q[v]] for v in range(len(q)))


def _inverse(p):
    inverse = [0] * len(p)
    for v, w in enumerate(p):
        inverse[w] = v
    return tuple(inverse)


class TestPermutation:
    def test_validation(self):
        # neither tuple is a permutation of range(2), so no 2-vertex graph
        # has it as an automorphism, with or without its edge
        for g in (empty_graph(2), complete(2)):
            assert not is_automorphism(g, (0, 0))
            assert not is_automorphism(g, (1, 2))

    def test_identity_compose_inverse(self):
        group = automorphism_group(cycle(3))
        e = group.elements[0]
        assert e == (0, 1, 2)
        for p in group.elements:
            assert _compose(p, e) == p and _compose(e, p) == p
            assert _compose(p, _inverse(p)) == e
        assert all(p != e for p in group.nonidentity_images())

    def test_compose_order(self):
        # a chain's product t_0 * t_1 applies t_1 first: with p on the top
        # level and q below, the group holds p after q, (1, 2, 0), and not
        # q after p, (2, 0, 1)
        ident = (0, 1, 2)
        p, q = (1, 0, 2), (0, 2, 1)
        products = {e for block in perms._product_blocks(
            3, ((ident, p), (ident, q)), perms._STREAM_BLOCK) for e in block}
        assert products == {ident, p, q, (1, 2, 0)}

    @settings(max_examples=50, deadline=None)
    @given(st.permutations(list(range(6))), st.permutations(list(range(6))))
    def test_group_axioms(self, a, b):
        # every permutation of K6's vertices is one of its 720 elements
        g = complete(6)
        elems = set(automorphism_group(g).elements)
        p, q = tuple(a), tuple(b)
        assert p in elems and q in elems
        assert _inverse(_inverse(p)) == p
        assert _compose(_inverse(p), p) == tuple(range(6))
        pq = _compose(p, q)
        assert pq in elems and is_automorphism(g, pq)
        assert _inverse(pq) == _compose(_inverse(q), _inverse(p))


class TestCycleDecomposition:
    # an element's cycle count, fixed points included, is its fixed points
    # plus its nontrivial cycles, the blocks kernels._cycle_blocks returns;
    # perms._max_cycles takes the largest over non-identity elements

    def test_fixed_points_count_as_cycles(self):
        # (0 2)(3 4) fixing 1: two 2-cycles plus one fixed point
        p = (2, 1, 0, 4, 3)
        assert kernels._cycle_blocks(p) == (0b00101, 0b11000)
        assert perms._max_cycles(5, [p], 0, 5) == 3

    def test_identity_all_fixed(self):
        assert kernels._cycle_blocks((0, 1, 2, 3)) == ()
        # the identity is no candidate, so it leaves the count at 0, as
        # the trivial group's max_cycles reads
        assert perms._max_cycles(4, [(0, 1, 2, 3)], 0, 4) == 0
        assert automorphism_group(asymmetric6()).max_cycles == 0

    def test_single_long_cycle(self):
        p = (1, 2, 3, 0)
        assert kernels._cycle_blocks(p) == (0b1111,)
        assert perms._max_cycles(4, [p], 0, 4) == 1


KNOWN_ORDERS = [
    (path(5), 2),
    (cycle(5), 10),
    (cycle(6), 12),
    (complete(4), 24),
    (complete(6), 720),
    (star(4), 24),
    (complete_bipartite(3, 3), 72),
    (complete_bipartite(2, 3), 12),
    (petersen(), 120),
    (asymmetric6(), 1),
    (build_graph(1, []), 1),
]


class TestAutomorphismGroups:
    @pytest.mark.parametrize("g,order", KNOWN_ORDERS,
                             ids=lambda x: str(x) if isinstance(x, int) else None)
    def test_known_orders(self, g, order):
        group = automorphism_group(g)
        assert group.order == order
        assert len(group.elements) == order
        assert all(is_automorphism(g, p) for p in group.elements)

    def test_closure_and_inverses(self):
        group = automorphism_group(cycle(5))
        elems = set(group.elements)
        for p in group.elements:
            assert _inverse(p) in elems
            for q in group.elements:
                assert _compose(p, q) in elems

    @pytest.mark.parametrize("g,order", KNOWN_ORDERS,
                             ids=lambda x: str(x) if isinstance(x, int) else None)
    def test_kernel_elements_match_validated_ones(self, g, order):
        # the chain's products are never checked as they are built; each
        # must pass the check is_automorphism makes, a permutation of
        # range(n)
        group = enumerate_automorphisms(g)
        elements = group.elements
        assert type(elements) is tuple and len(elements) == order
        assert all(type(e) is tuple and sorted(e) == list(range(g.n))
                   for e in elements)
        assert elements[0] == tuple(range(g.n))
        assert list(elements) == sorted(elements)
        assert group.nonidentity_images() == elements[1:]

    def test_is_automorphism_rejects_a_non_permutation(self):
        # (0, 0) maps the empty graph's no edges onto no edges, so only
        # the permutation check rejects it
        g = empty_graph(2)
        assert is_automorphism(g, (1, 0))
        assert not is_automorphism(g, (0, 0))
        assert not is_automorphism(g, (0, 1, 2))

    def test_cache_returns_same_object(self):
        a = automorphism_group(cycle(7))
        b = automorphism_group(cycle(7))
        assert a is b

    def test_enumeration_budget(self):
        with pytest.raises(BudgetExceededError):
            enumerate_automorphisms(complete(6), max_order=100)

    def test_stabilizer_orbit(self):
        group = automorphism_group(star(3))
        stab = stabilizer(group, 1)
        assert stab.order == 2  # the other two leaves still swap
        orbs = orbits(group)
        assert orbs == ((0,), (1, 2, 3))
        assert sorted(len(o) for o in orbs) == [1, 3]
        # orbit-stabilizer identity
        assert stab.order * len(orbs[1]) == group.order

    def test_max_nonidentity_cycle_count(self):
        # C4 reflection through two opposite vertices: 2 fixed + 1 swap
        assert automorphism_group(cycle(4)).max_cycles == 3
        assert automorphism_group(complete(3)).max_cycles == 2
        # trivial group: no non-identity elements, count 0
        assert automorphism_group(asymmetric6()).max_cycles == 0

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 6), st.randoms(use_true_random=False))
    def test_order_divides_factorial(self, n, rnd):
        g = random_graph(rnd, n)
        group = automorphism_group(g)
        assert math.factorial(n) % group.order == 0
        ident = group.elements.count(tuple(range(n)))
        assert ident == 1


def _assert_chain_answers_match_the_elements(g) -> None:
    """The pinned chain against the element filter, and the generator
    orbits against a scan of every element's images."""
    group = enumerate_automorphisms(g)
    images = group.elements
    for u in range(g.n):
        stab = stabilizer(group, u)
        fixing = [e for e in images if e[u] == u]
        assert stab.order == len(fixing)
        assert list(stab.elements) == fixing
    scanned = {tuple(sorted({e[v] for e in images})) for v in range(g.n)}
    assert orbits(group) == tuple(sorted(scanned))


def test_chain_answers_match_the_elements_on_the_corpus(connected7):
    assert len(connected7) == 996
    for g in connected7:
        _assert_chain_answers_match_the_elements(g)


@pytest.mark.parametrize("name", sorted(SYMMETRIC_SHAPES))
def test_chain_answers_match_the_elements_on_symmetric_shapes(name):
    _assert_chain_answers_match_the_elements(SYMMETRIC_SHAPES[name]())
