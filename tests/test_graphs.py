"""Graph construction, families, and structural helpers."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symbreak.errors import InvalidInputError
from symbreak.graphs import (Graph, RootedGraph, asymmetric6, build_graph,
                             complete, complete_bipartite,
                             connected_components, cycle, delete_vertex,
                             disjoint_union, empty_graph, family,
                             induced_subgraph, is_2connected, is_connected,
                             is_isomorphic, kneser, path, petersen, star)
from symbreak.perms import automorphism_group

from conftest import random_graph


class TestConstruction:
    def test_basic(self):
        g = build_graph(3, [(0, 1), (1, 2)])
        assert g.n == 3 and g.m == 2
        assert g.has_edge(0, 1) and g.has_edge(1, 0)
        assert not g.has_edge(0, 2)
        assert sorted(g.neighbors(1)) == [0, 2]
        assert g.degree(1) == 2 and g.degree(0) == 1

    def test_duplicate_edges_collapse(self):
        g = build_graph(2, [(0, 1), (1, 0), (0, 1)])
        assert g.m == 1

    def test_self_loop_rejected(self):
        with pytest.raises(InvalidInputError):
            build_graph(2, [(0, 0)])

    def test_out_of_range_rejected(self):
        with pytest.raises(InvalidInputError):
            build_graph(2, [(0, 2)])
        with pytest.raises(InvalidInputError):
            build_graph(2, [(-1, 0)])

    def test_negative_order_rejected(self):
        with pytest.raises(InvalidInputError):
            build_graph(-1, [])

    def test_hashable_and_equal(self):
        a = build_graph(3, [(0, 1), (1, 2)])
        b = build_graph(3, [(1, 2), (0, 1)])
        assert a == b and hash(a) == hash(b)
        assert a != build_graph(3, [(0, 1)])

    def test_rooted_graph_validates(self):
        g = path(3)
        assert RootedGraph(g, 2).root == 2
        with pytest.raises(InvalidInputError):
            RootedGraph(g, 3)


class TestFamilies:
    def test_path(self):
        g = path(4)
        assert (g.n, g.m) == (4, 3)
        assert g.has_edge(0, 1) and g.has_edge(2, 3) and not g.has_edge(0, 3)

    def test_cycle(self):
        g = cycle(5)
        assert (g.n, g.m) == (5, 5)
        assert g.has_edge(0, 4)
        with pytest.raises(InvalidInputError):
            cycle(2)

    def test_complete(self):
        assert complete(5).m == 10
        assert complete(1).m == 0

    def test_complete_bipartite(self):
        g = complete_bipartite(2, 3)
        assert (g.n, g.m) == (5, 6)
        assert not g.has_edge(0, 1) and g.has_edge(0, 2)

    def test_star(self):
        g = star(4)
        assert (g.n, g.m) == (5, 4)
        assert all(g.has_edge(0, i) for i in range(1, 5))

    def test_empty(self):
        assert empty_graph(3).m == 0

    def test_kneser_petersen(self):
        p = petersen()
        assert (p.n, p.m) == (10, 15)
        assert all(p.degree(v) == 3 for v in range(10))
        assert p == kneser(5, 2)
        with pytest.raises(InvalidInputError):
            kneser(2, 3)

    def test_asymmetric6(self):
        g = asymmetric6()
        assert g.n == 6 and is_connected(g)
        assert automorphism_group(g).order == 1

    def test_dispatcher(self):
        assert family("cycle", 6) == cycle(6)
        assert family("petersen") == petersen()
        with pytest.raises(InvalidInputError):
            family("nosuch")
        with pytest.raises(InvalidInputError):
            family("path")  # missing parameter
        with pytest.raises(InvalidInputError):
            family("petersen", 3)


class TestSurgery:
    def test_delete_vertex_shifts(self):
        g = cycle(4)
        h = delete_vertex(g, 1)
        assert h.n == 3 and is_isomorphic(h, path(3))
        # surviving edges 2-3 and 3-0 land on the shifted labels
        assert h.has_edge(1, 2) and h.has_edge(2, 0) and not h.has_edge(0, 1)

    def test_delete_vertex_range(self):
        with pytest.raises(InvalidInputError):
            delete_vertex(path(3), 3)

    def test_disjoint_union(self):
        g, offsets = disjoint_union([path(2), cycle(3)])
        assert (g.n, g.m) == (5, 4)
        assert offsets == (0, 2)
        assert g.has_edge(0, 1) and g.has_edge(2, 3) and not g.has_edge(1, 2)

    def test_connected_components(self):
        g, _ = disjoint_union([path(2), path(2), cycle(3)])
        parts = connected_components(g)
        assert sorted(len(c) for c in parts.components) == [2, 2, 3]
        # the two paths land in one isomorphism class
        assert sorted(len(cls) for cls in parts.classes) == [1, 2]

    def test_induced_subgraph(self):
        g = cycle(4)
        assert induced_subgraph(g, (0, 1, 2)) == path(3)

    def test_connectivity(self):
        assert is_connected(complete(1))
        assert is_connected(cycle(5))
        assert not is_connected(disjoint_union([path(2), path(2)])[0])
        assert is_2connected(cycle(4))
        assert is_2connected(complete(3))
        assert not is_2connected(path(3))
        assert not is_2connected(star(3))
        # fewer than three vertices never counts as 2-connected
        assert not is_2connected(complete(2))

    def test_isomorphic_components_are_not_connected(self):
        g, _ = disjoint_union([cycle(4), cycle(4)])
        assert not is_connected(g)
        assert is_connected(empty_graph(0))
        assert not is_connected(empty_graph(2))


class TestIsomorphism:
    def test_positive(self):
        assert is_isomorphic(path(3), build_graph(3, [(1, 0), (0, 2)]))
        assert is_isomorphic(cycle(4), complete_bipartite(2, 2))

    def test_negative(self):
        assert not is_isomorphic(path(4), star(3))
        assert not is_isomorphic(cycle(3), path(3))
        assert not is_isomorphic(path(3), path(4))

    def test_pinned(self):
        # P3 end can map to either end but never to the middle
        assert is_isomorphic(path(3), path(3), pin=(0, 2))
        assert not is_isomorphic(path(3), path(3), pin=(0, 1))

    @pytest.mark.parametrize("pin", [(4, 0), (0, 4), (-1, 0), (0, -1)])
    def test_pin_out_of_range_rejected(self, pin):
        # checked before any search, whether or not the graphs are isomorphic
        for h in (path(4), star(3)):
            with pytest.raises(InvalidInputError, match="^pin out of range$"):
                is_isomorphic(path(4), h, pin=pin)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 8), st.randoms(use_true_random=False))
    def test_relabeling_is_isomorphic(self, n, rnd):
        g = random_graph(rnd, n)
        perm = list(range(n))
        rnd.shuffle(perm)
        h = build_graph(n, [(perm[u], perm[v])
                            for u in range(n) for v in g.neighbors(u)
                            if u < v])
        assert is_isomorphic(g, h)


def test_corpus_counts(connected6, connected7):
    by_n = {}
    for g in connected7:
        by_n[g.n] = by_n.get(g.n, 0) + 1
    assert by_n == {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}
    assert len(connected6) == 143
    assert all(is_connected(g) for g in connected6)


def test_corpus_range_validation():
    from symbreak import corpus
    with pytest.raises(InvalidInputError):
        corpus.connected_graphs(8)
    with pytest.raises(InvalidInputError):
        corpus.connected_graphs(0)
