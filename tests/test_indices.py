"""Distinguishing numbers, thresholds, coloring counts, steadiness."""

from __future__ import annotations

import math
from itertools import product as iproduct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symbreak import indices, kernels, limits
from symbreak.errors import BudgetExceededError, InvalidInputError
from symbreak.graphs import (asymmetric6, build_graph, complete,
                             complete_bipartite, cycle, empty_graph, path,
                             petersen, star, RootedGraph)
from symbreak.indices import (Coloring, PhiPair, are_equivalent,
                              distinguishing_number,
                              distinguishing_threshold, graph_indices,
                              is_distinguishing, is_steady, phi, phi_brute,
                              phi_table, rooted_indices)
from symbreak.perms import automorphism_group, stabilizer

from conftest import SYMMETRIC_SHAPES, random_graph


class TestColoring:
    def test_validation(self):
        with pytest.raises(InvalidInputError):
            Coloring((0, 1), 2)  # colors start at 1
        with pytest.raises(InvalidInputError):
            Coloring((1, 3), 2)
        assert Coloring((1, 2, 1), 2).n == 3

    def test_is_distinguishing(self):
        g = path(3)
        group = automorphism_group(g)
        assert is_distinguishing(g, group, Coloring((1, 1, 2), 2))
        assert not is_distinguishing(g, group, Coloring((1, 2, 1), 2))
        assert not is_distinguishing(g, group, Coloring((1, 1, 1), 1))

    def test_equivalence(self):
        g = path(3)
        group = automorphism_group(g)
        assert are_equivalent(g, group, Coloring((1, 1, 2), 2),
                              Coloring((2, 1, 1), 2))
        assert not are_equivalent(g, group, Coloring((1, 1, 2), 2),
                                  Coloring((1, 2, 1), 2))


class TestDistinguishingNumber:
    @pytest.mark.parametrize("g,d", [
        (complete(1), 1),
        (path(2), 2),
        (path(5), 2),
        (cycle(4), 3),
        (cycle(6), 2),
        (complete(5), 5),
        (star(3), 3),
        (complete_bipartite(2, 2), 3),
        (complete_bipartite(3, 3), 4),
        (petersen(), 3),
        (asymmetric6(), 1),
    ], ids=lambda x: repr(x))
    def test_known(self, g, d):
        assert distinguishing_number(g) == d

    def test_group_argument(self):
        g = cycle(5)
        assert distinguishing_number(g, automorphism_group(g)) == 3


def _plain_d(n, group):
    """D by the ladder from k = 2."""
    if group.is_trivial():
        return 1
    return next(k for k in range(2, n + 1)
                if kernels.exists_distinguishing_partition(
                    n, group.minimal_cycles, k, limits.coloring_cap()))


def _d_cases(connected7):
    """(graph, group) for every corpus graph, each of its vertex
    stabilizers, and the benchmark's symmetric shapes."""
    cases = []
    for g in connected7:
        group = automorphism_group(g)
        cases.append((g, group))
        cases.extend((g, stabilizer(group, v)) for v in range(g.n))
    for make in SYMMETRIC_SHAPES.values():
        g = make()
        cases.append((g, automorphism_group(g)))
    return cases


def test_probe_witnesses_distinguish(monkeypatch, connected7):
    # every labelling a probe answers with is held to the group element by
    # element, sharing no code with the chain search that certified it,
    # and the rung it answers is the plain ladder's D
    answered = []
    probe = kernels._probe

    def spy(*args):
        witness, nodes = probe(*args)
        answered.append((args[6], witness))
        return witness, nodes

    monkeypatch.setattr(kernels, "_probe", spy)
    witnesses = 0
    for g, group in _d_cases(connected7):
        del answered[:]
        d = distinguishing_number(g, group)
        assert d == _plain_d(g.n, group)
        for k, labels in answered:
            if labels is None:
                continue
            assert k == d and len(labels) == g.n
            assert all(0 <= c < k for c in labels)
            for p in group.elements[1:]:
                assert any(labels[w] != labels[v]
                           for v, w in enumerate(p.image))
            witnesses += 1
    # the probes answer 5,202 of the 5,398 nontrivial inputs; the other
    # 196 are answered by a walk
    assert witnesses == 5202


class TestTranspositionStart:
    def test_ladder_from_the_largest_class_is_the_plain_ladder(
            self, walks, connected7):
        cases = _d_cases(connected7)
        started = 0
        for g, group in cases:
            kernels._exists.cache_clear()
            del walks[:]
            d = distinguishing_number(g, group)
            start = indices._transposition_class(group)
            assert start <= d
            # the memo is empty, so every rung asked is walked
            assert all(palettes[0] >= max(2, start)
                       for *_, palettes, first in walks if first)
            assert d == _plain_d(g.n, group)
            started += start > 2
        assert len(cases) == 996 + 6781 + 11
        assert started == 776  # inputs whose ladder skips a rung

    def test_k8_takes_one_rung(self, walks):
        g = complete(8)
        group = automorphism_group(g)
        kernels._exists.cache_clear()
        assert distinguishing_number(g, group) == 8
        assert [(palettes, first) for *_, palettes, first in walks] == [
            ((8,), True)]


class TestThreshold:
    @pytest.mark.parametrize("g,theta", [
        (complete(1), 1),
        (asymmetric6(), 1),
        (path(2), 2),
        (path(5), 4),
        (cycle(6), 5),
        (complete(4), 4),
        (star(4), 5),
        (petersen(), 8),
    ], ids=lambda x: repr(x))
    def test_known(self, g, theta):
        assert distinguishing_threshold(g) == theta

    def test_definition_every_coloring_distinguishes(self):
        """theta = least k such that every coloring using exactly k colors
        distinguishes (below theta some onto coloring is preserved)."""
        for g in [path(4), cycle(5), complete(3), star(3)]:
            group = automorphism_group(g)
            theta = distinguishing_threshold(g, group)
            assert theta <= g.n
            for k in range(1, g.n + 1):
                all_dist = all(
                    is_distinguishing(g, group, Coloring(c, k))
                    for c in iproduct(range(1, k + 1), repeat=g.n)
                    if len(set(c)) == k)
                assert all_dist == (k >= theta)

    def test_streams_without_materializing(self):
        # a group larger than the materialization budget still streams fine
        g = complete(8)  # |Aut| = 40320
        with limits.scoped(max_aut=10**7):
            assert distinguishing_threshold(g) == 8


class TestPhiCounts:
    def test_pair_shape(self):
        got = phi(path(3), 3)
        assert isinstance(got, PhiPair)
        assert got == PhiPair(phi=9, varphi=3)
        assert phi_brute(path(3), 3) == got

    def test_brute_matches_hybrid_below_and_above_theta(self, connected6):
        sample = connected6[::17]
        for g in sample:
            group = automorphism_group(g)
            theta = distinguishing_threshold(g, group)
            for k in range(1, min(theta + 2, g.n) + 1):
                assert phi_brute(g, k, group) == phi(g, k, group)

    def test_table_consistent(self):
        g = cycle(5)
        table = phi_table(g, 5)
        assert table.d == 3 and table.theta == 4
        assert [r.k for r in table.rows] == [1, 2, 3, 4, 5]
        for row in table.rows:
            pair = phi(g, row.k)
            assert (row.phi, row.varphi) == pair
        with pytest.raises(InvalidInputError):
            table.row(6)

    def test_phi_monotone_in_k(self):
        g = path(4)
        values = [phi(g, k).phi for k in range(1, 6)]
        assert values == sorted(values)

    def test_zero_below_distinguishing_number(self):
        assert phi(cycle(4), 2) == PhiPair(0, 0)
        assert phi(complete(4), 3) == PhiPair(0, 0)

    def test_freeness_formula_at_theta(self):
        for g in [path(4), cycle(6), complete(4), star(3)]:
            group = automorphism_group(g)
            theta = distinguishing_threshold(g, group)
            for k in range(theta, theta + 2):
                expected = (math.factorial(k) * _stirling(g.n, k)
                            ) // group.order
                assert phi(g, k, group).varphi == expected

    def test_budget(self):
        with limits.scoped(max_colorings=5):
            with pytest.raises(BudgetExceededError):
                phi_brute(petersen(), 3)


def _stirling(n: int, k: int) -> int:
    if k < 0 or k > n:
        return 0
    if n == k:
        return 1
    if k == 0:
        return 0
    return k * _stirling(n - 1, k) + _stirling(n - 1, k - 1)


class TestSteady:
    def test_examples(self):
        assert is_steady(complete(4), 0)
        assert is_steady(cycle(4), 0)
        assert is_steady(path(3), 1)       # center of P3
        assert not is_steady(path(4), 0)   # end of a path
        assert not is_steady(path(4), 1)   # deletion frees the P2+K1 flip
        # the hub is steady too: deleting it keeps every leaf permutation
        assert is_steady(star(3), 0)
        assert is_steady(star(3), 1)       # leaf

    def test_stabilizer_order_equivalence(self, connected6):
        from symbreak.graphs import delete_vertex
        from symbreak.perms import stabilizer
        for g in connected6[::11]:
            group = automorphism_group(g)
            for u in range(g.n):
                stab = stabilizer(group, u)
                rest = automorphism_group(delete_vertex(g, u))
                assert is_steady(g, u) == (stab.order == rest.order)

    def test_range_check(self):
        with pytest.raises(InvalidInputError):
            is_steady(path(3), 3)


class TestReports:
    def test_graph_indices_fields(self):
        r = graph_indices(petersen())
        assert (r.n, r.m, r.aut_order, r.d, r.theta) == (10, 15, 120, 3, 8)
        assert r.phi is None and r.steady is None and r.root is None

    def test_graph_indices_with_extras(self):
        r = graph_indices(cycle(4), phi_max=3, steady=True)
        assert r.phi is not None and len(r.phi.rows) == 3
        assert r.steady == (0, 1, 2, 3)

    def test_rooted_indices_uses_stabilizer(self):
        # P3 rooted at an end: the flip is gone, every coloring distinguishes
        end = rooted_indices(RootedGraph(path(3), 0))
        assert end.aut_order == 1 and end.d == 1 and end.theta == 1
        assert end.root == 0
        # rooted at the center the flip survives
        mid = rooted_indices(RootedGraph(path(3), 1))
        assert mid.aut_order == 2 and mid.d == 2 and mid.theta == 3

    def test_rooted_phi_counts_all_vertices(self):
        # colorings cover every vertex, equivalence is root-preserving
        r = rooted_indices(RootedGraph(path(2), 0), phi_max=2)
        # 4 colorings with <=2 colors, trivial stabilizer: all distinguish
        assert r.phi.row(2).phi == 4
        assert r.phi.row(2).varphi == 2


class TestLadder:
    """The one ladder behind D and the Phi rows, at its edges."""

    @pytest.mark.parametrize("g,rows,steady", [
        (empty_graph(0), [(1, 0, 0), (2, 0, 0), (3, 0, 0)], ()),
        (complete(1), [(1, 1, 1), (2, 2, 0), (3, 3, 0)], (0,)),
        (asymmetric6(), [(1, 1, 1), (2, 64, 62), (3, 729, 540)], ()),
    ], ids=["n0", "n1", "rigid"])
    def test_trivial_groups(self, g, rows, steady):
        assert distinguishing_number(g) == 1
        table = phi_table(g, 3)
        assert (table.n, table.aut_order, table.d, table.theta) == (
            g.n, 1, 1, 1)
        assert [(r.k, r.phi, r.varphi) for r in table.rows] == rows
        report = graph_indices(g, phi_max=3, steady=True)
        assert (report.d, report.theta, report.phi, report.steady) == (
            1, 1, table, steady)
        report = graph_indices(g)
        assert (report.d, report.theta, report.phi) == (1, 1, None)
        if g.n:
            rooted = rooted_indices(RootedGraph(g, 0), phi_max=2)
            assert (rooted.aut_order, rooted.d, rooted.theta) == (1, 1, 1)
            assert rooted.phi.rows == table.rows[:2]

    @staticmethod
    def _rungs(monkeypatch, answer) -> list[int]:
        """The rungs the ladder asks about, with every count row 0, no
        probe finding a witness, and answer(k) as the existence search's
        answer at rung k."""
        seen = []

        def exists(n, elements, k, node_budget, classes, sizes, nodes):
            seen.append(k)
            return answer(k)

        monkeypatch.setattr(kernels, "labelling_polynomial",
                            lambda n, elements, classes, budget: ())
        monkeypatch.setattr(kernels, "_probe", lambda *args: (None, 0))
        monkeypatch.setattr(kernels, "exists_distinguishing_partition",
                            exists)
        return seen

    @pytest.mark.parametrize("k_max,asked", [(None, [2, 3]), (1, [2, 3]),
                                             (2, [3])])
    def test_rungs_start_past_the_table(self, monkeypatch, k_max, asked):
        # a triangle with a pendant vertex: order 2, theta 4, and its one
        # transposition starts the rungs at 2
        walked = automorphism_group(build_graph(
            4, [(0, 1), (0, 2), (1, 2), (2, 3)]))
        seen = self._rungs(monkeypatch, lambda k: k == 3)
        d, theta, table = indices._ladder(4, 2, walked, (0,) * 4, (1,),
                                          k_max)
        assert (d, theta, seen) == (3, 4, asked)
        assert (table is None) == (k_max is None)

    @pytest.mark.parametrize("k_max", [None, 2])
    def test_no_rung_answers(self, monkeypatch, k_max):
        walked = automorphism_group(path(3))  # order 2, theta 3
        self._rungs(monkeypatch, lambda k: False)
        with pytest.raises(AssertionError,
                           match="^no distinguishing coloring up to n "
                                 "colors$"):
            indices._ladder(3, 2, walked, (0,) * 3, (1,), k_max)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 6), st.randoms(use_true_random=False))
def test_d_theta_bounds_property(n, rnd):
    g = random_graph(rnd, n)
    group = automorphism_group(g)
    d = distinguishing_number(g, group)
    theta = distinguishing_threshold(g, group)
    assert 1 <= d <= theta <= n + 1
    if group.is_trivial():
        assert d == 1 and theta == 1
    else:
        assert d >= 2 and theta >= 2
        assert phi(g, d, group).phi >= 1
        assert phi(g, d - 1, group).phi == 0
