"""Steadiness against an independent oracle: networkx VF2.

When the budget allows, is_steady answers in four steps: False from a twin
witness read from G's bitmasks, True from N(u) being a union of G - u's
degree classes, True from a refinement certificate (refined colors of
G - u in which N(u) is a union of color cells), and last the chain search
of Aut(G - u), which answers False at the first coset representative that
moves N(u) and True when none does.  Past that budget it builds the whole
stabilizer chain first and tests its strong generators.  graph_indices
asks it once per orbit of Aut(G).  The oracle enumerates every
automorphism of G - u with VF2, on the original vertex labels, and checks
N(u) against each: no refinement, no search order, no chain and no vertex
renumbering in common.  The two bitmask checks are also held, vertex by
vertex, to the twin classes and degree classes of G - u built as a graph.
"""

from __future__ import annotations

import random

import pytest

from symbreak import graph6, kernels, limits
from symbreak.errors import BudgetExceededError
from symbreak.graphs import build_graph, complete, cycle, is_connected, star
from symbreak.indices import _bitmask_answer, graph_indices, is_steady

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


def _random_graphs():
    """200 random graphs on 1..8 vertices, disconnected ones included."""
    rng = random.Random(1709)
    graphs = []
    for _ in range(200):
        n = rng.randint(1, 8)
        p = rng.random()
        graphs.append(build_graph(n, [(a, b) for a in range(n)
                                      for b in range(a + 1, n)
                                      if rng.random() < p]))
    return graphs


def test_random_graphs_disconnected_included_match_vf2():
    graphs = _random_graphs()
    answers = []
    for g in graphs:
        for u in range(g.n):
            answers.append(is_steady(g, u))
            assert answers[-1] == _steady_vf2(g, u), (g.edges(), u)
    assert sum(not is_connected(g) for g in graphs) >= 60
    assert 0 < sum(answers) < len(answers)


def _deletion_answer(g, u: int) -> bool | None:
    """What the bitmask checks must answer for u, read from G - u built as
    a graph: False when some twin class of G - u (same open or same closed
    neighborhood) has members both in N(u) and outside it, else True when
    no degree of G - u occurs both in N(u) and outside it, else None."""
    rest = [v for v in range(g.n) if v != u]
    open_nbrs = {v: frozenset(g.neighbors(v)) - {u} for v in rest}
    inside = set(g.neighbors(u))
    for a in inside:
        for b in rest:
            if b not in inside and (
                    open_nbrs[a] == open_nbrs[b]
                    or open_nbrs[a] | {a} == open_nbrs[b] | {b}):
                return False
    degrees = {v: len(open_nbrs[v]) for v in rest}
    if {degrees[v] for v in inside}.isdisjoint(
            degrees[v] for v in rest if v not in inside):
        return True
    return None


def test_bitmask_checks_match_the_deletion(connected7):
    answers = {False: 0, True: 0, None: 0}
    for g in connected7 + tuple(_random_graphs()):
        adj = g.adjacency()
        for u in range(g.n):
            answer = _bitmask_answer(adj, u)
            assert answer == _deletion_answer(g, u), (g.edges(), u)
            answers[answer] += 1
    # each outcome occurs, so none of the three is vacuous
    assert min(answers.values()) > 0


def _octahedron_and_two_parts():
    """K_{2,2,2} on 0..5, parts {0,1} {2,3} {4,5}, with vertex 6 joined to
    the parts {2,3} and {4,5}: G - 6 is vertex-transitive and has no twins
    across N(6), one degree and one refined cell, so only the search
    answers, and its chain holds nine representatives."""
    parts = [(0, 1), (2, 3), (4, 5)]
    edges = [(a, b) for i, p in enumerate(parts) for q in parts[i + 1:]
             for a in p for b in q]
    return build_graph(7, edges + [(6, v) for v in range(2, 6)])


def test_bounded_search_stops_at_the_first_moving_representative(
        monkeypatch):
    g = _octahedron_and_two_parts()
    calls, seen = [], []
    representatives = kernels._representatives

    def spy(*args):
        calls.append(args)
        for rep in representatives(*args):
            seen.append(rep)
            yield rep

    monkeypatch.setattr(kernels, "_representatives", spy)
    searches = []
    search = kernels.search_automorphisms
    monkeypatch.setattr(kernels, "search_automorphisms",
                        lambda *args: searches.append(args) or search(*args))
    assert not is_steady(g, 6)
    assert len(calls) == 1 and searches == []
    n, rest, colors = calls[0]
    every = [t for _, t in representatives(n, rest, colors)]
    mask = sum(1 << v for v in range(2, 6))
    moves = [sum(1 << t[v] for v in range(2, 6)) != mask for _, t in seen]
    # it read up to the first representative that moves N(6), and no more,
    # where the chain holds more after it
    assert moves.index(True) == len(seen) - 1
    assert [t for _, t in seen] == every[:len(seen)]
    assert len(seen) < len(every)


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
