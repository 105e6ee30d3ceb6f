"""Permutations, cycle structure, and automorphism groups."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symbreak.errors import BudgetExceededError, InvalidInputError
from symbreak.graphs import (asymmetric6, build_graph, complete,
                             complete_bipartite, cycle, path, petersen, star)
from symbreak.perms import (Permutation, automorphism_group, compose,
                            cycle_decomposition, enumerate_automorphisms,
                            identity, inverse, is_automorphism, orbits,
                            stabilizer)

from conftest import SYMMETRIC_SHAPES, random_graph


class TestPermutation:
    def test_validation(self):
        with pytest.raises(InvalidInputError):
            Permutation((0, 0))
        with pytest.raises(InvalidInputError):
            Permutation((1, 2))

    def test_identity_compose_inverse(self):
        p = Permutation((1, 2, 0))
        e = identity(3)
        assert compose(p, e) == p and compose(e, p) == p
        assert compose(p, inverse(p)) == e
        assert e.is_identity() and not p.is_identity()

    def test_compose_order(self):
        # compose(p, q) applies q first, then p
        p = Permutation((1, 0, 2))
        q = Permutation((0, 2, 1))
        assert compose(p, q).image == (1, 2, 0)

    @settings(max_examples=50, deadline=None)
    @given(st.permutations(list(range(6))), st.permutations(list(range(6))))
    def test_group_axioms(self, a, b):
        p, q = Permutation(tuple(a)), Permutation(tuple(b))
        assert inverse(inverse(p)) == p
        assert compose(inverse(p), p) == identity(6)
        assert inverse(compose(p, q)) == compose(inverse(q), inverse(p))


class TestCycleDecomposition:
    def test_fixed_points_count_as_cycles(self):
        # (0 2)(3 4) fixing 1: two 2-cycles plus one fixed point
        p = Permutation((2, 1, 0, 4, 3))
        dec = cycle_decomposition(p)
        assert dec.cycle_count == 3
        assert sorted(map(len, dec.cycles)) == [2, 2]
        assert dec.fixed_points == (1,)

    def test_identity_all_fixed(self):
        dec = cycle_decomposition(identity(4))
        assert dec.cycle_count == 4 and not dec.cycles

    def test_single_long_cycle(self):
        dec = cycle_decomposition(Permutation((1, 2, 3, 0)))
        assert dec.cycle_count == 1


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
            assert inverse(p) in elems
            for q in group.elements:
                assert compose(p, q) in elems

    @pytest.mark.parametrize("g,order", KNOWN_ORDERS,
                             ids=lambda x: str(x) if isinstance(x, int) else None)
    def test_kernel_elements_match_validated_ones(self, g, order):
        # AutGroup.elements skips the permutation check on the chain's
        # products; they must behave as checked ones do
        elements = enumerate_automorphisms(g).elements
        checked = tuple(Permutation(p.image) for p in elements)
        assert elements == checked
        assert list(map(hash, elements)) == list(map(hash, checked))
        assert set(elements) == set(checked)
        assert all(type(p) is Permutation for p in elements)

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
        ident = sum(1 for p in group.elements if p.is_identity())
        assert ident == 1


def _assert_chain_answers_match_the_elements(g) -> None:
    """The pinned chain against the element filter, and the generator
    orbits against a scan of every element's images."""
    group = enumerate_automorphisms(g)
    images = [p.image for p in group.elements]
    for u in range(g.n):
        stab = stabilizer(group, u)
        fixing = [e for e in images if e[u] == u]
        assert stab.order == len(fixing)
        assert [p.image for p in stab.elements] == fixing
    scanned = {tuple(sorted({e[v] for e in images})) for v in range(g.n)}
    assert orbits(group) == tuple(sorted(scanned))


def test_chain_answers_match_the_elements_on_the_corpus(connected7):
    assert len(connected7) == 996
    for g in connected7:
        _assert_chain_answers_match_the_elements(g)


@pytest.mark.parametrize("name", sorted(SYMMETRIC_SHAPES))
def test_chain_answers_match_the_elements_on_symmetric_shapes(name):
    _assert_chain_answers_match_the_elements(SYMMETRIC_SHAPES[name]())
