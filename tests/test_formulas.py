"""Closed-form evaluators: unit-level checks against small oracles."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symbreak import formulas, verify
from symbreak.errors import InvalidInputError, PreconditionError
from symbreak.formulas import (RadicalRow, VertexSumBound, aut_order_corona,
                               aut_order_rooted, binomial, corona_preconditions,
                               d_corona, d_lexicographic, d_rooted,
                               d_vertex_sum_power, d_vsum_complete_closed,
                               d_vsum_cycles, d_vsum_nonisomorphic,
                               lexicographic_preconditions, nu_repeated,
                               phi_complete_closed, phi_path_closed,
                               radical_discrepancy_rows, rooted_preconditions,
                               stirling2, theta_corona, theta_lexicographic,
                               theta_rooted, theta_rooted_preconditions,
                               theta_union, theta_vsum_2connected,
                               theta_vsum_cycles)
from symbreak.graphs import (RootedGraph, asymmetric6, build_graph, complete,
                             cycle, delete_vertex, disjoint_union,
                             empty_graph, path, star)
from symbreak.indices import (distinguishing_number, distinguishing_threshold,
                              phi_brute)
from symbreak.perms import automorphism_group, stabilizer
from symbreak.products import (corona, lexicographic, rooted_product_smooth,
                               vertex_sum, vertex_sum_power)


def k4_minus_edge():
    return build_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])


class TestCombinatorics:
    def test_binomial(self):
        assert binomial(5, 2) == 10 == math.comb(5, 2)
        assert binomial(3, 5) == 0

    def test_stirling_table(self):
        known = {(0, 0): 1, (4, 2): 7, (5, 3): 25, (6, 3): 90, (7, 4): 350}
        for (n, k), v in known.items():
            assert stirling2(n, k) == v
        assert stirling2(4, 0) == 0 and stirling2(4, 5) == 0

    def test_stirling_rejects_negative_arguments(self):
        with pytest.raises(InvalidInputError):
            stirling2(-1, 0)
        with pytest.raises(InvalidInputError):
            stirling2(3, -1)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 10), st.integers(1, 10))
    def test_stirling_recurrence(self, n, k):
        assert stirling2(n, k) == (k * stirling2(n - 1, k)
                                   + stirling2(n - 1, k - 1))


class TestClosedCounts:
    def test_path_closed_matches_brute(self):
        for n in range(2, 7):
            for k in range(1, 5):
                assert phi_path_closed(n, k) == phi_brute(path(n), k).phi

    def test_path_one_vertex_collapses(self):
        assert phi_path_closed(1, 3) == 0

    def test_complete_closed(self):
        for n in range(2, 6):
            for k in range(1, 7):
                assert phi_complete_closed(n, k) == binomial(k, n)
                assert phi_complete_closed(n, k) == phi_brute(complete(n), k).phi

    def test_input_validation(self):
        with pytest.raises(PreconditionError):
            phi_path_closed(0, 2)
        with pytest.raises(PreconditionError):
            phi_complete_closed(1, 2)
        with pytest.raises(InvalidInputError):
            phi_path_closed(3, 0)


class TestThetaUnion:
    def test_symmetric_components(self):
        assert theta_union([cycle(4), cycle(4)]) == 8
        assert theta_union([path(3), path(4)]) == 7

    def test_asymmetric_components(self):
        assert theta_union([asymmetric6(), asymmetric6()]) == 7
        assert theta_union([asymmetric6(), complete(1)]) == 1
        assert theta_union([complete(1), complete(1)]) == 2

    def test_mixed(self):
        assert theta_union([cycle(4), complete(1)]) == 5
        assert theta_union([cycle(10), complete(1)]) == 8

    def test_matches_enumeration(self):
        cases = [[cycle(4), path(3)], [complete(3), complete(1)],
                 [asymmetric6(), path(2)], [cycle(5), cycle(5)]]
        for comps in cases:
            union, _ = disjoint_union(comps)
            assert theta_union(comps) == distinguishing_threshold(union)

    def test_errors(self):
        with pytest.raises(InvalidInputError):
            theta_union([])
        scattered, _ = disjoint_union([path(2), path(2)])
        with pytest.raises(PreconditionError):
            theta_union([scattered])

    def test_nu_repeated(self):
        g, _ = disjoint_union([asymmetric6(), asymmetric6(), complete(1)])
        assert nu_repeated(g) == 6
        lone, _ = disjoint_union([asymmetric6(), complete(1)])
        assert nu_repeated(lone) == 7  # no repeats: falls back to |G|

    def test_nu_repeated_is_the_public_nu(self):
        import symbreak
        assert symbreak.nu is nu_repeated
        with pytest.raises(InvalidInputError):
            nu_repeated(empty_graph(0))


class TestVertexSumBound:
    def test_steady_roots_exact(self):
        assert d_vertex_sum_power(complete(3), 0, 3) == VertexSumBound(3, True)
        assert d_vertex_sum_power(complete(4), 0, 2) == VertexSumBound(4, True)
        assert d_vertex_sum_power(cycle(5), 0, 2) == VertexSumBound(2, True)

    def test_unsteady_roots_flagged(self):
        got = d_vertex_sum_power(k4_minus_edge(), 2, 2)
        assert got == VertexSumBound(4, False)
        assert d_vertex_sum_power(path(4), 0, 2) == VertexSumBound(2, False)

    def test_bound_is_an_upper_bound(self):
        for g, u, t in [(k4_minus_edge(), 2, 2), (path(4), 0, 2),
                        (complete(3), 0, 4), (cycle(4), 0, 3)]:
            bound = d_vertex_sum_power(g, u, t)
            product, _ = vertex_sum_power(g, u, t)
            brute = distinguishing_number(product)
            assert brute <= bound.value
            if bound.exact:
                assert brute == bound.value

    def test_validation(self):
        with pytest.raises(PreconditionError):
            d_vertex_sum_power(complete(3), 0, 1)
        scattered, _ = disjoint_union([path(2), path(2)])
        with pytest.raises(PreconditionError):
            d_vertex_sum_power(scattered, 0, 2)


class TestClosedSumForms:
    def test_complete_closed_matches_brute(self):
        for n, t in [(3, 2), (3, 5), (4, 2), (4, 4), (5, 2)]:
            product, _ = vertex_sum_power(complete(n), 0, t)
            assert d_vsum_complete_closed(n, t) == distinguishing_number(product)

    def test_cycles_closed_matches_brute(self):
        for n, t in [(5, 2), (5, 3), (7, 2)]:
            product, _ = vertex_sum_power(cycle(n), 0, t)
            assert d_vsum_cycles(n, t) == distinguishing_number(product)

    def test_ranges(self):
        with pytest.raises(PreconditionError):
            d_vsum_complete_closed(2, 2)
        with pytest.raises(PreconditionError):
            d_vsum_cycles(5, 1)

    def test_radical_rows_k3(self):
        rows = radical_discrepancy_rows("K3", [2, 3, 4])
        assert [r.t for r in rows] == [2, 3, 4]
        assert rows[0] == RadicalRow(2, 3, 2)   # radical undercounts
        assert rows[1] == RadicalRow(3, 3, 3)   # triangular t agrees
        assert rows[2] == RadicalRow(4, 4, 3)
        assert [r.agree for r in rows] == [False, True, False]

    def test_radical_rows_k4_always_off_by_one(self):
        for row in radical_discrepancy_rows("K4", range(2, 30)):
            assert row.radical_form == row.minimum_form - 1
            assert not row.agree

    def test_radical_rows_k5_and_cycles_agree(self):
        for kind in ("K5", "C5", "C7"):
            assert all(r.agree for r in
                       radical_discrepancy_rows(kind, range(2, 30)))

    def test_radical_kind_validation(self):
        with pytest.raises(InvalidInputError):
            radical_discrepancy_rows("K6", [2])


class TestVsumTheorems:
    def test_distinct_factors_d(self):
        factors = [RootedGraph(complete(3), 0), RootedGraph(cycle(4), 0)]
        assert d_vsum_nonisomorphic(factors) == 2
        product, _ = vertex_sum(factors)
        assert distinguishing_number(product) == 2
        assert formulas.d_vsum_nonisomorphic_preconditions(factors) == []

    def test_distinct_factors_preconditions(self):
        dup = [RootedGraph(complete(3), 0), RootedGraph(complete(3), 0)]
        assert any("isomorphic as rooted" in w
                   for w in formulas.d_vsum_nonisomorphic_preconditions(dup))
        weak = [RootedGraph(path(3), 0), RootedGraph(complete(3), 0)]
        flags = formulas.d_vsum_nonisomorphic_preconditions(weak)
        assert any("2-connected" in w for w in flags)

    def test_theta_2connected(self):
        pairs = [([RootedGraph(complete(3), 0), RootedGraph(complete(3), 0)], 5),
                 ([RootedGraph(cycle(4), 0), RootedGraph(cycle(4), 0)], 7),
                 ([RootedGraph(complete(3), 0), RootedGraph(cycle(4), 0)], 6)]
        for factors, expected in pairs:
            assert theta_vsum_2connected(factors) == expected
            product, _ = vertex_sum(factors)
            assert distinguishing_threshold(product) == expected

    def test_theta_cycles(self):
        for n, t in [(3, 2), (3, 3), (4, 2), (5, 2), (5, 3)]:
            product, _ = vertex_sum_power(cycle(n), 0, t)
            assert theta_vsum_cycles(n, t) == distinguishing_threshold(product)


class TestRooted:
    def test_group_order(self):
        # |Aut| of base times |root stabilizer| to the base size
        assert aut_order_rooted(cycle(4), RootedGraph(path(3), 1)) == 8 * 2**4
        assert aut_order_rooted(path(2), RootedGraph(path(3), 0)) == 2
        g, _ = rooted_product_smooth(cycle(4), RootedGraph(path(3), 1))
        assert automorphism_group(g).order == 8 * 2**4

    def test_d_cross_checks(self):
        # K2 with P3 copies rooted at an end is P6
        assert d_rooted(path(2), RootedGraph(path(3), 0)) == 2
        assert distinguishing_number(path(6)) == 2
        assert d_rooted(cycle(4), RootedGraph(star(2), 0)) == \
            distinguishing_number(
                rooted_product_smooth(cycle(4), RootedGraph(star(2), 0))[0])

    def test_theta_cross_checks(self):
        assert theta_rooted(path(2), RootedGraph(path(2), 0)) == 3
        assert distinguishing_threshold(path(4)) == 3
        assert theta_rooted(cycle(4), RootedGraph(star(2), 0)) == \
            distinguishing_threshold(
                rooted_product_smooth(cycle(4), RootedGraph(star(2), 0))[0])

    def test_theta_both_asymmetric(self):
        h = RootedGraph(path(2), 0)  # trivial root stabilizer
        assert theta_rooted(asymmetric6(), h) == 1
        assert theta_rooted_preconditions(asymmetric6(), h) == []
        product, _ = rooted_product_smooth(asymmetric6(), h)
        assert distinguishing_threshold(product) == 1

    def test_preconditions(self):
        assert rooted_preconditions(cycle(4), RootedGraph(path(3), 1)) == []
        assert any("two vertices" in w for w in
                   rooted_preconditions(complete(1), RootedGraph(path(3), 1)))
        # coverage gap: trivial stabilizer under a symmetric base
        flags = theta_rooted_preconditions(path(2), RootedGraph(path(2), 0))
        assert flags != []


class TestCorona:
    def test_group_order(self):
        assert aut_order_corona(path(2), complete(2)) == 2 * 2**2
        g, _ = corona(path(2), complete(2))
        assert automorphism_group(g).order == 8

    def test_d(self):
        for gh in [(path(2), complete(2)), (complete(3), complete(1)),
                   (cycle(4), path(2))]:
            product, _ = corona(*gh)
            assert d_corona(*gh) == distinguishing_number(product)

    def test_theta_both_cases(self):
        # symmetric copy: case with copy automorphisms
        g, h = path(2), complete(2)
        product, _ = corona(g, h)
        assert theta_corona(g, h) == distinguishing_threshold(product)
        # rigid copy: threshold rides on the base threshold
        g2 = path(3)
        h2 = build_graph(1, [])
        product2, _ = corona(g2, h2)
        assert theta_corona(g2, h2) == distinguishing_threshold(product2)

    def test_k1_base_flagged_and_rejected(self):
        assert any("two vertices" in w
                   for w in corona_preconditions(complete(1), complete(2)))
        with pytest.raises(PreconditionError):
            d_corona(complete(1), complete(2))

    def test_identity_isomorphisms(self):
        from symbreak.graphs import is_isomorphic
        assert is_isomorphic(corona(complete(1), complete(2))[0], complete(3))
        assert is_isomorphic(corona(path(2), complete(1))[0], path(4))


class TestLexicographic:
    def test_d(self):
        for gh in [(path(3), path(3)), (cycle(4), complete(1)),
                   (complete(1), cycle(4)), (asymmetric6(), path(2))]:
            product, _ = lexicographic(*gh)
            assert lexicographic_preconditions(*gh) == []
            assert d_lexicographic(*gh) == distinguishing_number(product)

    def test_theta_both_cases(self):
        # symmetric inner factor
        product, _ = lexicographic(path(3), path(2))
        assert theta_lexicographic(path(3), path(2)) == \
            distinguishing_threshold(product)
        # rigid inner factor
        product, _ = lexicographic(cycle(4), complete(1))
        assert theta_lexicographic(cycle(4), complete(1)) == \
            distinguishing_threshold(product)

    def test_naturality_flag(self):
        assert any("split" in w for w in
                   lexicographic_preconditions(path(2), complete(2)))

    def test_identity_factors_exact(self):
        for h in [path(3), complete(3), cycle(4), asymmetric6()]:
            assert d_lexicographic(complete(1), h) == distinguishing_number(h)
            assert theta_lexicographic(complete(1), h) == \
                distinguishing_threshold(h)
            assert d_lexicographic(h, complete(1)) == distinguishing_number(h)
            assert theta_lexicographic(h, complete(1)) == \
                distinguishing_threshold(h)


def _plain_least_k(g, target, group=None, weight=lambda k: 1):
    """least_k's oracle: phi_brute, over every element, rung by rung."""
    k = 1
    while weight(k) * phi_brute(g, k, group).phi < target:
        k += 1
    return k


class TestLeastKOracle:
    """The four D forms, each a least_k, against the plain loop on the
    factors of the thm3.7, thm4.3, thm5.1 and lex-d grids.  D(G) is the
    least k with Phi_k(G) >= 1."""

    def test_vertex_sum_power(self):
        for name, root in verify._VSUM_FAMILIES.items():
            g = verify._graph(name)
            for t in range(2, 6):
                assert d_vertex_sum_power(g, root, t).value == \
                    _plain_least_k(delete_vertex(g, root), t)

    def test_rooted_counts_up_to_the_root_stabilizer(self):
        pairs = verify._pairs("rooted", {})
        for g, hb in pairs:
            for h in verify._rooted_copies(hb):
                stab = stabilizer(automorphism_group(hb), h.root)
                assert d_rooted(g, h) == _plain_least_k(
                    hb, _plain_least_k(g, 1), stab)
        assert len(pairs) == 453

    def test_corona(self):
        pairs = verify._pairs("corona", {})
        for g, h in pairs:
            assert d_corona(g, h) == _plain_least_k(
                h, _plain_least_k(g, 1), weight=lambda k: k)
        assert len(pairs) == 184

    def test_no_vertices_is_rejected_not_climbed(self):
        # Phi_k of the empty graph is 0 for every k
        with pytest.raises(PreconditionError, match="no vertices"):
            d_vertex_sum_power(complete(1), 0, 2)
        with pytest.raises(PreconditionError, match="no vertices"):
            d_lexicographic(path(2), empty_graph(0))

    def test_lexicographic(self):
        pairs = verify._pairs("lex", {})
        for g, h in pairs:
            assert d_lexicographic(g, h) == _plain_least_k(
                h, _plain_least_k(g, 1))
        assert len(pairs) == 596
