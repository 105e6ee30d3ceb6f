"""Steadiness against an independent oracle: networkx VF2.

When the budget allows, is_steady answers False from a twin witness in
G - u, and True from a refinement certificate: refined colors of G - u in
which N(u) is a union of color cells.  Otherwise it tests only the strong
generators of Aut(G - u) from the pure kernel's stabilizer chain, searched
from those colors when they were refined; graph_indices asks it once per
orbit of Aut(G).  The oracle enumerates every automorphism of G - u with
VF2, on the original vertex labels, and checks N(u) against each: no
refinement, no search order, no chain and no vertex renumbering in common.
"""

from __future__ import annotations

import random

import pytest

from symbreak import graph6, kernels, limits
from symbreak.errors import BudgetExceededError
from symbreak.graphs import build_graph, complete, cycle, is_connected, star
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


def test_random_graphs_disconnected_included_match_vf2():
    rng = random.Random(1709)
    graphs = []
    for _ in range(200):
        n = rng.randint(1, 8)
        p = rng.random()
        graphs.append(build_graph(n, [(a, b) for a in range(n)
                                      for b in range(a + 1, n)
                                      if rng.random() < p]))
    answers = []
    for g in graphs:
        for u in range(g.n):
            answers.append(is_steady(g, u))
            assert answers[-1] == _steady_vf2(g, u), (g.edges(), u)
    assert sum(not is_connected(g) for g in graphs) >= 60
    assert 0 < sum(answers) < len(answers)


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


def test_budget_is_checked_before_an_unsteady_answer(monkeypatch):
    # G - 6 = star(5): |Aut| = 120 and (n - 1)! = 6! = 720.  Leaves 1 and
    # 2 are twins in G - 6, and only 1 is in N(6), so swapping them moves
    # N(6); that witness is taken only at a cap of 720 or more
    g = _star5_with_tail()
    searches = []
    search = kernels.search_automorphisms
    monkeypatch.setattr(kernels, "search_automorphisms",
                        lambda *args: searches.append(args) or search(*args))
    with limits.scoped(max_aut=119):
        with pytest.raises(BudgetExceededError,
                           match="^automorphism search exceeded cap 119$"):
            is_steady(g, 6)
    for cap, searched in ((120, 1), (719, 1), (720, 0), (10**7, 0)):
        searches.clear()
        with limits.scoped(max_aut=cap):
            assert not is_steady(g, 6)
        assert len(searches) == searched, cap


def test_analyze_steady_exits_3_when_a_deletion_exceeds_the_cap(run_cli):
    token = "g6:" + graph6.emit_graph6(_star5_with_tail())
    code, _, _ = run_cli("analyze", token, "--max-aut", "100")
    assert code == 0
    code, _, _ = run_cli("analyze", token, "--steady", "--max-aut", "100")
    assert code == 3
