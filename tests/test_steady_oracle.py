"""Steadiness against an independent oracle: networkx VF2.

is_steady tests only the strong generators of Aut(G - u) from the pure
kernel's stabilizer chain, and graph_indices asks it once per orbit of
Aut(G).  The oracle enumerates every automorphism of G - u with VF2, on the
original vertex labels, and checks N(u) against each: no refinement, no
search order, no chain and no vertex renumbering in common.
"""

from __future__ import annotations

import random

import pytest

from symbreak import graph6, limits
from symbreak.errors import BudgetExceededError
from symbreak.graphs import build_graph, complete, cycle, star
from symbreak.indices import graph_indices, is_steady

from conftest import vsum

nx = pytest.importorskip("networkx")
from networkx.algorithms.isomorphism import GraphMatcher  # noqa: E402


def _steady_vf2(g, u: int) -> bool:
    """Does every automorphism of g - u map N(u) onto itself?"""
    rest = nx.Graph()
    rest.add_nodes_from(v for v in range(g.n) if v != u)
    rest.add_edges_from(e for e in g.edges() if u not in e)
    nbrs = set(g.neighbors(u))
    return all({m[v] for v in nbrs} == nbrs
               for m in GraphMatcher(rest, rest).isomorphisms_iter())


def _assert_matches_oracle(g) -> None:
    expected = tuple(u for u in range(g.n) if _steady_vf2(g, u))
    assert tuple(u for u in range(g.n) if is_steady(g, u)) == expected
    assert graph_indices(g, steady=True).steady == expected


def test_corpus_matches_vf2(connected7):
    assert len(connected7) == 996
    for g in connected7:
        _assert_matches_oracle(g)


SHAPES = {
    "K4x3": lambda: vsum(complete(4), 3),
    "K3x4": lambda: vsum(complete(3), 4),
    "K3x5": lambda: vsum(complete(3), 5),
    "K5x2": lambda: vsum(complete(5), 2),
    "C4x4": lambda: vsum(cycle(4), 4),
}


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_vertex_sum_shapes_match_vf2_under_relabelling(name):
    g = SHAPES[name]()
    image = list(range(g.n))
    random.Random(name).shuffle(image)
    _assert_matches_oracle(g.relabel(image))


def test_cap_boundary_at_the_star_centre():
    # star(7) - centre is 7 isolated vertices: |Aut| = 5040
    with limits.scoped(max_aut=5039):
        with pytest.raises(BudgetExceededError) as info:
            is_steady(star(7), 0)
    assert str(info.value) == "automorphism search exceeded cap 5039"
    with limits.scoped(max_aut=5040):
        assert is_steady(star(7), 0)


def _star5_with_tail():
    """star(5) with vertex 6 hung on leaf 1: |Aut| = 4! = 24, and deleting
    vertex 6 leaves star(5), with |Aut| = 5! = 120."""
    return build_graph(7, [(0, i) for i in range(1, 6)] + [(1, 6)])


def test_budget_is_checked_before_an_unsteady_answer():
    g = _star5_with_tail()
    with limits.scoped(max_aut=120):
        assert not is_steady(g, 6)
    with limits.scoped(max_aut=119):
        with pytest.raises(BudgetExceededError,
                           match="^automorphism search exceeded cap 119$"):
            is_steady(g, 6)


def test_analyze_steady_exits_3_when_a_deletion_exceeds_the_cap(run_cli):
    token = "g6:" + graph6.emit_graph6(_star5_with_tail())
    code, _, _ = run_cli("analyze", token, "--max-aut", "100")
    assert code == 0
    code, _, _ = run_cli("analyze", token, "--steady", "--max-aut", "100")
    assert code == 3
